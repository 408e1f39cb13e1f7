"""Arrow schemas + the cells round-trip encoding.

Three tables flow through the engine:

1. **Docs** (pipeline input, BASELINE.json input_hint):
   ``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``.
2. **Spans** (extraction output / correctness invariant): flat ordered
   ``(doc_id, span_idx, kind, text, media_ref)`` — span-sequence equality on
   ``(kind, text, media_ref, order)`` per doc_id is the per-row invariant.
3. **Cells** (extracted/merged table rows, crosses the merge shuffle):
   one Arrow row per table row, addressed by
   ``(doc_id, source_uuid, table_idx, fragment_idx, page, row_idx)`` with the
   dynamic per-row column set in a ``map<string, list<struct<value,
   agreement_level>>>`` column.

Dynamic-columns encoding (reference: pydantic ``extra="allow"`` rows,
/root/reference/src/tablevalidate/schema.py:19-24, with
``ColumnValue = None | str | List[ValueWithAgreement]``): Arrow has no union
of string vs struct-list, so we encode inside the map value using an
agreement-level sentinel:

    plain string ``s``        → ``[(s, -1)]``
    ``None``                  → ``[("", -2)]``
    ``[]``                    → ``[]`` (a real empty vote list, produced by
                                column-agreement merge of all-None cells —
                                fragments_builder.py:20-37)
    ``[ValueWithAgreement…]`` → as-is (agreement levels are ≥ 1 in practice)

The decode side restores the exact python union, so reference semantics that
distinguish ``"x"`` from ``[{"value": "x", "agreement_level": 1}]`` (e.g.
``same_row`` dict equality, tablesfile_merger.py:49-55) survive a shuffle.

One codec. ``CellsTableBuilder`` is the only encoder: trees go in through
``append_tablesfile``, record dicts through ``rows_to_table``.
``table_to_doc_tablesfiles`` is the only tree decoder: every per-doc
consumer (merge, write, stats, CSV export, viewer) decodes a whole shard
with it once. ``table_to_row_records`` decodes to flat record dicts for
the record-level queries. The record-dict pair ``records_to_tablesfiles``
/ ``tablesfile_to_records`` is the reference codec: production code uses
it only in ``pipelines/merge.py:merge_doc_records``, the per-doc merge
that the oracles and parity tests compare the fused path against.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pyarrow as pa
import pyarrow.compute as pc

from .rowmodel import ColumnValue, Row, make_row

# --- schemas ---------------------------------------------------------------

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

DOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)

SPANS_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
    ]
)

VWA_STRUCT = pa.struct([("value", pa.string()), ("agreement_level", pa.int32())])
CELLS_TYPE = pa.map_(pa.string(), pa.list_(VWA_STRUCT))

CELLS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("source_uuid", pa.string()),
        ("table_idx", pa.int32()),
        ("fragment_idx", pa.int32()),
        ("page", pa.int32()),
        ("pos", pa.int32()),  # row position within fragment (stable order)
        ("row_idx", pa.int32()),  # the reference's row_ metadata (nullable)
        ("agreement_level", pa.int32()),
        ("sources", pa.list_(pa.string())),
        ("cells", CELLS_TYPE),
        ("citation", pa.string()),  # doc-level, repeated (nullable)
    ]
)

PLAIN_STRING_SENTINEL = -1
NONE_SENTINEL = -2


# --- cell encode/decode ----------------------------------------------------


def encode_cell(value: ColumnValue) -> list:
    if value is None:
        return [("", NONE_SENTINEL)]
    if isinstance(value, str):
        return [(value, PLAIN_STRING_SENTINEL)]
    return [(v["value"], v["agreement_level"]) for v in value]


def decode_cell(pairs: list) -> ColumnValue:
    if len(pairs) == 1:
        value, lvl = _pair(pairs[0])
        if lvl == NONE_SENTINEL:
            return None
        if lvl == PLAIN_STRING_SENTINEL:
            return value
    return [
        {"value": v, "agreement_level": lvl}
        for v, lvl in (_pair(p) for p in pairs)
    ]


def _pair(p) -> tuple:
    if isinstance(p, dict):
        return p["value"], p["agreement_level"]
    return p


# --- rows (python) ↔ cells table (arrow) -----------------------------------


def rows_to_table(records: List[dict]) -> pa.Table:
    """``records``: dicts with the CELLS_SCHEMA fields, ``cells`` as a
    python dict of ColumnValue and the metadata split out (missing
    metadata fields encode as null)."""
    builder = CellsTableBuilder()
    for rec in records:
        builder.append_record(rec)
    return builder.build()


def _decode_cells_column(ca: pa.Array) -> List[dict]:
    """Flat-buffer decode of the cells ``map<string, list<struct>>``
    column: ~3× faster than ``MapArray.to_pylist`` (which boxes every
    entry as a (key, [dict]) tuple before we re-dict it). Children are
    sliced to the needed range first, so per-group slices stay O(group).
    Offset arithmetic is base-relative (``offsets[0]`` need not be 0)."""
    import numpy as np

    n = len(ca)
    if n == 0:
        return []
    off_np = ca.offsets.to_numpy()
    k_start, k_end = int(off_np[0]), int(off_np[n])
    keys = ca.keys.slice(k_start, k_end - k_start).to_pylist()
    items = ca.items  # list<struct<value, agreement_level>>
    if k_end > k_start:
        io_np = items.offsets.to_numpy()[k_start : k_end + 1]
        v_start = int(io_np[0])
        structs = items.values.slice(v_start, int(io_np[-1]) - v_start)
        vals = structs.field("value").to_pylist()
        lvls_np = structs.field("agreement_level").to_numpy(
            zero_copy_only=False
        )
        lvls = lvls_np.tolist()
        # prefix counts of plain-string pairs → O(1) "is this whole row
        # plain 1-pair cells?" test per row (the overwhelming majority)
        plain_cum = np.concatenate(
            ([0], np.cumsum(lvls_np == PLAIN_STRING_SENTINEL))
        ).tolist()
        io = (io_np - v_start).tolist()
    else:
        vals, lvls, plain_cum, io = [], [], [0], [0]
    # python-list offsets: numpy scalar indexing dominates the loop cost
    offs = (off_np - k_start).tolist()
    out = []
    for r in range(n):
        o1, o2 = offs[r], offs[r + 1]
        s, e = io[o1], io[o2]
        if e - s == o2 - o1 and plain_cum[e] - plain_cum[s] == e - s:
            # fast path: every cell a 1-pair plain string → one C-level
            # dict(zip(...)) instead of per-key branching
            out.append(dict(zip(keys[o1:o2], vals[s:e])))
            continue
        cells = {}
        for k in range(o1, o2):
            i1, i2 = io[k], io[k + 1]
            # inline decode_cell: the 1-pair plain-string/None case is
            # the overwhelming majority — skip the tuple boxing for it
            if i2 - i1 == 1:
                lvl = lvls[i1]
                if lvl == PLAIN_STRING_SENTINEL:
                    cells[keys[k]] = vals[i1]
                elif lvl == NONE_SENTINEL:
                    cells[keys[k]] = None
                else:
                    cells[keys[k]] = [
                        {"value": vals[i1], "agreement_level": lvl}
                    ]
            else:
                cells[keys[k]] = [
                    {"value": vals[i], "agreement_level": lvls[i]}
                    for i in range(i1, i2)
                ]
        out.append(cells)
    return out


def table_to_row_records(table: pa.Table) -> List[dict]:
    """Inverse of ``rows_to_table`` (order-preserving)."""
    names = [n for n in table.column_names if n != "cells"]
    data = {name: table.column(name).to_pylist() for name in names}
    cells_col = table.column("cells")
    if isinstance(cells_col, pa.ChunkedArray):
        cells_col = cells_col.combine_chunks()
    cells_list = _decode_cells_column(cells_col)
    # C-level row assembly: zip(*cols) + dict(zip(names, row)) beats a
    # per-row python dict-comprehension over column lookups
    names_t = tuple(names) + ("cells",)
    cols = [data[name] for name in names] + [cells_list]
    return [dict(zip(names_t, row)) for row in zip(*cols)]


def _plain_column(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def _dict_decode(col) -> tuple:
    """(codes, values): python-int codes (−1 = null) + python value list.
    Dictionary-encoding doc_id/source_uuid/citation avoids allocating a
    python string per ROW for columns with per-doc/per-source cardinality
    (codes come back as one C-level ``tolist``, values once per distinct)."""
    arr = _plain_column(col)
    enc = arr.dictionary_encode()
    idx = enc.indices
    if idx.null_count:
        idx = idx.fill_null(-1)
    return idx.to_numpy(zero_copy_only=False).tolist(), enc.dictionary.to_pylist()


def _int_column(col) -> list:
    """Python-int (or None) view of an int32 metadata column; numpy-backed
    tolist when null-free (the common case — a single C loop, no per-row
    pyarrow boxing)."""
    arr = _plain_column(col)
    if arr.null_count == 0:
        return arr.to_numpy().tolist()
    return arr.to_pylist()


def table_to_doc_tablesfiles(table: pa.Table) -> List[tuple]:
    """The tree decoder (fused ``table_to_row_records`` + per-doc
    ``records_to_tablesfiles``): CELLS_SCHEMA Arrow table →
    ``[(doc_id, {source_uuid: tablesfile})]`` with docs in sorted order
    and records in
    ``(source_uuid or "", table_idx or 0, fragment_idx or 0, pos or 0)``
    order inside each doc — element-for-element the tree the two-step path
    builds, without materializing the intermediate 11-key record dict, the
    per-record sort-key tuple, or a python string per metadata cell (the
    merge kernel's allocation rate is the composed-pipeline scaling
    limiter, BASELINE.md round 4). Rows are freshly allocated (the caller
    owns them — the merge engine normalizes them in place)."""
    n = table.num_rows
    if n == 0:
        return []
    keys = pa.table(
        {
            "d": table.column("doc_id"),
            "s": pc.fill_null(table.column("source_uuid"), ""),
            "t": pc.fill_null(table.column("table_idx"), 0),
            "f": pc.fill_null(table.column("fragment_idx"), 0),
            "p": pc.fill_null(table.column("pos"), 0),
        }
    )
    # arrow multi-key sort is stable and bytewise-UTF8 == codepoint order,
    # so this reproduces python's sorted() over the same keys
    order = pc.sort_indices(
        keys,
        sort_keys=[(c, "ascending") for c in ("d", "s", "t", "f", "p")],
    ).to_numpy()

    doc_codes, doc_vals = _dict_decode(table.column("doc_id"))
    src_codes, src_vals = _dict_decode(table.column("source_uuid"))
    cit_codes, cit_vals = _dict_decode(table.column("citation"))
    table_idx = _int_column(table.column("table_idx"))
    fragment_idx = _int_column(table.column("fragment_idx"))
    page = _int_column(table.column("page"))
    row_idx = _int_column(table.column("row_idx"))
    agreement = _int_column(table.column("agreement_level"))
    sources_col = _plain_column(table.column("sources"))
    sources = (
        None if sources_col.null_count == n else sources_col.to_pylist()
    )
    cells_list = _decode_cells_column(_plain_column(table.column("cells")))

    out: List[tuple] = []
    by_source: Dict[Any, dict] = {}
    cur_doc = -2
    for i in order.tolist():
        dc = doc_codes[i]
        if dc != cur_doc:
            cur_doc = dc
            by_source = {}
            out.append((doc_vals[dc] if dc >= 0 else None, by_source))
        sc = src_codes[i]
        src_key = src_vals[sc] if sc >= 0 else None
        src = by_source.get(src_key)
        if src is None:
            cc = cit_codes[i]
            src = by_source[src_key] = {
                "tables": [],
                "citation": cit_vals[cc] if cc >= 0 else None,
            }
        tables: list = src["tables"]
        t_i = table_idx[i]
        while len(tables) <= t_i:
            tables.append({"fragments": []})
        fragments = tables[t_i]["fragments"]
        f_i = fragment_idx[i]
        p = page[i]
        while len(fragments) <= f_i:
            fragments.append({"page": p, "rows": []})
        frag = fragments[f_i]
        frag["page"] = p
        frag["rows"].append(
            make_row(
                cells_list[i],
                agreement_level=agreement[i],
                sources=sources[i] if sources is not None else None,
                row_idx=row_idx[i],
            )
        )
    return out


class CellsTableBuilder:
    """The cells encoder: rows go straight into flat per-column python
    buffers (map offsets, keys, item offsets, value/level pairs) and
    ``build`` assembles the nested ``cells`` array in three ``pa.array``
    calls instead of boxing one list-of-list-of-tuples per row for the
    generic converter. ``append_tablesfile`` takes a tree (no
    intermediate 11-key record dict per row); ``append_record`` takes one
    record dict (``rows_to_table``)."""

    def __init__(self) -> None:
        self._meta: Dict[str, list] = {
            name: [] for name in CELLS_SCHEMA.names if name != "cells"
        }
        self._map_offsets = [0]
        self._keys: List[str] = []
        self._item_offsets = [0]
        self._flat_vals: List[str] = []
        self._flat_lvls: List[int] = []

    def _append_cells(self, cells: Dict[str, ColumnValue]) -> None:
        """One row's cells map → the key, item-offset and pair buffers."""
        keys = self._keys
        item_offsets = self._item_offsets
        flat_vals = self._flat_vals
        flat_lvls = self._flat_lvls
        for name, value in cells.items():
            keys.append(name)
            if value is None:
                flat_vals.append("")
                flat_lvls.append(NONE_SENTINEL)
            elif isinstance(value, str):
                flat_vals.append(value)
                flat_lvls.append(PLAIN_STRING_SENTINEL)
            else:
                for v in value:
                    flat_vals.append(v["value"])
                    flat_lvls.append(v["agreement_level"])
            item_offsets.append(len(flat_vals))
        self._map_offsets.append(len(keys))

    def append_record(self, rec: dict) -> None:
        for name, col in self._meta.items():
            col.append(rec.get(name))
        self._append_cells(rec["cells"])

    def append_tablesfile(
        self, doc_id: str, source_uuid: str, tablesfile: dict
    ) -> None:
        m = self._meta
        doc_ids = m["doc_id"]
        source_uuids = m["source_uuid"]
        table_idxs = m["table_idx"]
        fragment_idxs = m["fragment_idx"]
        pages = m["page"]
        poss = m["pos"]
        row_idxs = m["row_idx"]
        agreements = m["agreement_level"]
        sourcess = m["sources"]
        citations = m["citation"]
        append_cells = self._append_cells
        citation = tablesfile.get("citation")
        for t_idx, table in enumerate(tablesfile["tables"]):
            for f_idx, frag in enumerate(table["fragments"]):
                page = frag["page"]
                for pos, row in enumerate(frag["rows"]):
                    doc_ids.append(doc_id)
                    source_uuids.append(source_uuid)
                    table_idxs.append(t_idx)
                    fragment_idxs.append(f_idx)
                    pages.append(page)
                    poss.append(pos)
                    row_idxs.append(row["row_idx"])
                    agreements.append(row["agreement_level"])
                    sourcess.append(row["sources"])
                    citations.append(citation)
                    append_cells(row["cells"])

    def build(self) -> pa.Table:
        if not self._meta["doc_id"]:
            return CELLS_SCHEMA.empty_table()
        structs = pa.StructArray.from_arrays(
            [
                pa.array(self._flat_vals, type=pa.string()),
                pa.array(self._flat_lvls, type=pa.int32()),
            ],
            names=["value", "agreement_level"],
        )
        items = pa.ListArray.from_arrays(
            pa.array(self._item_offsets, type=pa.int32()), structs
        )
        cells = pa.MapArray.from_arrays(
            pa.array(self._map_offsets, type=pa.int32()),
            pa.array(self._keys, type=pa.string()),
            items,
        )
        arrays = []
        for name in CELLS_SCHEMA.names:
            if name == "cells":
                arrays.append(cells)
            else:
                arrays.append(
                    pa.array(
                        self._meta[name], type=CELLS_SCHEMA.field(name).type
                    )
                )
        return pa.Table.from_arrays(arrays, schema=CELLS_SCHEMA)


def record_to_row(rec: dict) -> Row:
    return make_row(
        rec["cells"],
        agreement_level=rec.get("agreement_level"),
        sources=rec.get("sources"),
        row_idx=rec.get("row_idx"),
    )


def records_to_tablesfiles(records: List[dict]) -> Dict[str, dict]:
    """Reassemble one doc's cell rows into per-source tablesfile trees:
    ``{source_uuid: {"tables": [ {"fragments": [ {"page", "rows"} ]} ],
    "citation": str|None}}``. Records must belong to a single doc_id; order
    within (source, table, fragment) follows ``pos``."""
    by_source: Dict[str, dict] = {}
    for rec in sorted(
        records,
        key=lambda r: (
            r["source_uuid"] or "",
            r["table_idx"] or 0,
            r["fragment_idx"] or 0,
            r["pos"] or 0,
        ),
    ):
        src = by_source.setdefault(
            rec["source_uuid"], {"tables": [], "citation": rec.get("citation")}
        )
        tables: list = src["tables"]
        while len(tables) <= rec["table_idx"]:
            tables.append({"fragments": []})
        fragments = tables[rec["table_idx"]]["fragments"]
        while len(fragments) <= rec["fragment_idx"]:
            fragments.append({"page": rec["page"], "rows": []})
        frag = fragments[rec["fragment_idx"]]
        frag["page"] = rec["page"]
        frag["rows"].append(record_to_row(rec))
    return by_source


def tablesfile_to_records(
    doc_id: str,
    source_uuid: str,
    tablesfile: dict,
) -> List[dict]:
    """Flatten a tablesfile tree back into CELLS_SCHEMA records."""
    out = []
    citation = tablesfile.get("citation")
    for t_idx, table in enumerate(tablesfile["tables"]):
        for f_idx, frag in enumerate(table["fragments"]):
            for pos, row in enumerate(frag["rows"]):
                out.append(
                    {
                        "doc_id": doc_id,
                        "source_uuid": source_uuid,
                        "table_idx": t_idx,
                        "fragment_idx": f_idx,
                        "page": frag["page"],
                        "pos": pos,
                        "row_idx": row["row_idx"],
                        "agreement_level": row["agreement_level"],
                        "sources": row["sources"],
                        "cells": row["cells"],
                        "citation": citation,
                    }
                )
    return out
