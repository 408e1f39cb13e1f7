"""Doc-local row/fragment model.

The reference models a 5-level tree (TablesFile → Table → TableFragment →
Row → ColumnValue) as pydantic objects with dynamic per-row columns
(/root/reference/src/tablevalidate/schema.py). Our engine keeps documents in
Arrow between stages and only materializes this lightweight plain-dict model
*inside* batch/group UDFs, where the semantics are inherently row-wise.

Model:

- ``ColumnValue`` = ``None | str | list[dict(value=str, agreement_level=int)]``
  (mirrors schema.py:13: ``None | str | List[ValueWithAgreement]``).
- A row is ``{"cells": {name: ColumnValue}, "agreement_level": int|None,
  "sources": list[str]|None, "row_idx": int|None}`` — the three reserved
  metadata fields of schema.py:20-22 live beside the dynamic cells.
- A fragment is ``{"rows": [row], "page": int}`` (schema.py:109-120).

Arrow encoding for shuffle-crossing datasets is in ``schema.py`` (cells as a
map<string, list<struct>> with an agreement sentinel distinguishing plain
strings — see there).
"""

from __future__ import annotations

from functools import lru_cache as _lru_cache
from typing import Any, Dict, List, Optional, Union

from .functions.text import (
    ascii_fold,
    is_semantic_column,
    normalize_column_value,
)

ColumnValue = Union[None, str, List[dict]]
Row = Dict[str, Any]
Fragment = Dict[str, Any]


def make_row(
    cells: Dict[str, ColumnValue],
    agreement_level: Optional[int] = None,
    sources: Optional[List[str]] = None,
    row_idx: Optional[int] = None,
) -> Row:
    return {
        "cells": cells,
        "agreement_level": agreement_level,
        "sources": sources,
        "row_idx": row_idx,
    }


def vwa(value: str, agreement_level: int) -> dict:
    return {"value": value, "agreement_level": agreement_level}


def is_empty_value(value: ColumnValue) -> bool:
    """schema.py:83-90: empty after normalize_column_value (so "no data"
    etc. count as empty)."""
    if value is None:
        return True
    if isinstance(value, str):
        return not normalize_column_value(value)
    return all(not normalize_column_value(v["value"]) for v in value)


def normalize_value(value: ColumnValue) -> ColumnValue:
    """schema.py:92-106."""
    if value is None:
        return None
    if isinstance(value, str):
        return normalize_column_value(value)
    return [vwa(normalize_column_value(v["value"]), v["agreement_level"]) for v in value]


def row_is_empty(row: Row) -> bool:
    return all(is_empty_value(v) for v in row["cells"].values())


def row_is_empty_normalized(row: Row) -> bool:
    """``row_is_empty`` for rows already in ``normalize_row`` form:
    normalized values are fixed points of ``normalize_column_value``, so
    emptiness is plain string truthiness — no normalize chain, no cache
    lookups (the merge builder's ``build()`` filter is on the composed
    pipeline's hot path)."""
    for v in row["cells"].values():
        if v is None:
            continue
        if isinstance(v, str):
            if v:
                return False
        else:
            for e in v:
                if e["value"]:
                    return False
    return True


def is_empty_value_normalized(value: ColumnValue) -> bool:
    """``is_empty_value`` for values already in normalized form (fixed
    points of ``normalize_column_value``): plain truthiness."""
    if value is None:
        return True
    if isinstance(value, str):
        return not value
    return all(not e["value"] for e in value)


def get_agreement_level(row: Row) -> int:
    """schema.py:59-60: None defaults to 1."""
    lvl = row["agreement_level"]
    return 1 if lvl is None else lvl


def normalize_row(row: Row, row_agreement: bool = False) -> Row:
    """schema.py:62-76: normalize every cell; when ``row_agreement`` the
    agreement level is defaulted to 1 instead of kept None."""
    return make_row(
        {col: normalize_value(v) for col, v in row["cells"].items()},
        agreement_level=(get_agreement_level(row) if row_agreement else row["agreement_level"]),
        sources=row["sources"],
        row_idx=row["row_idx"],
    )


def normalize_row_inplace(row: Row, row_agreement: bool = False) -> Row:
    """``normalize_row`` for engine-OWNED rows (freshly decoded from Arrow
    inside the merge kernel, referenced nowhere else): rewrites only the
    cell values that actually change and stamps the agreement default on
    the row itself — zero dict/row allocations on the already-normalized
    fast path. Callers outside the kernel must use ``normalize_row``."""
    cells = row["cells"]
    for col, v in cells.items():
        if v is None:
            continue
        if isinstance(v, str):
            nv = normalize_column_value(v)
            if nv is not v:
                cells[col] = nv
        else:
            for k, e in enumerate(v):
                val = e["value"]
                nval = normalize_column_value(val)
                if nval is not val:
                    v[k] = vwa(nval, e["agreement_level"])
    if row_agreement and row["agreement_level"] is None:
        row["agreement_level"] = 1
    return row


def column_names(rows: List[Row]) -> List[str]:
    """Union of per-row columns in first-seen order (schema.py:78-80)."""
    return list(dict.fromkeys(col for row in rows for col in row["cells"]))


def semantic_columns(row: Row) -> Dict[str, ColumnValue]:
    return {k: v for k, v in row["cells"].items() if is_semantic_column(k)}


def value_to_strings(value: ColumnValue) -> List[str]:
    """analyzers.py:15-20."""
    if value is None:
        return []
    if isinstance(value, str):
        return [value]
    return [v["value"] for v in value]


def first_nonempty_text(value: ColumnValue) -> str:
    """Shared extract_text helper of the title-row / leading-number
    transformers (fragment_transformer.py:56-63, 100-106): strip; for
    multi-values take the first non-blank."""
    if isinstance(value, str):
        return value.strip()
    if isinstance(value, list):
        texts = [v["value"].strip() for v in value if v["value"].strip()]
        return texts[0] if texts else ""
    return ""


@_lru_cache(maxsize=65536)
def _fold_cell_str(value: str) -> str:
    # normalize → transliterate composition, memoized: the merge cursor
    # re-folds the same cell strings once per source pass, and values
    # repeat heavily across a corpus.
    return ascii_fold(normalize_column_value(value))


def _fold_cell(value: ColumnValue):
    if value is None:
        return None
    if isinstance(value, str):
        return _fold_cell_str(value)
    # lists compare by (value, agreement) pairs; tuples are cheaper to
    # build and compare than the dict form and equality is equivalent
    return [(_fold_cell_str(v["value"]), v["agreement_level"]) for v in value]


def same_row(left: Row, right: Row) -> bool:
    """tablesfile_merger.py:49-55: normalized + transliterated cell-dict
    equality. Composition-equivalent to
    ``transliterate(normalize_row(...))`` with the per-string fold
    memoized and a key-set short-circuit."""
    left_cells, right_cells = left["cells"], right["cells"]
    if left_cells.keys() != right_cells.keys():
        return False
    return all(
        _fold_cell(v) == _fold_cell(right_cells[k])
        for k, v in left_cells.items()
    )


def fragment_is_empty(fragment: Fragment) -> bool:
    return all(row_is_empty(r) for r in fragment["rows"])


def fragment_column_names(fragment: Fragment) -> List[str]:
    return column_names(fragment["rows"])
