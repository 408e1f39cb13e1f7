"""Export sinks: per-table CSV and static HTML viewer (SURVEY.md S13).

Behavioral parity (studied from /root/reference/src/table2csv/__main__.py:
8-47 and table2html/__main__.py:402-476, not copied):

- CSV: each table flattens to one DataFrame — row columns in first-seen
  order plus a ``$page`` column from the fragment; one CSV per
  ``<doc>_<table_idx>.csv``;
- HTML: one static page listing every doc's tables with agreement-level
  styling hooks (class per level) — a small driver-side sink over already
  tiny merged output.

Ray shape: the flatten runs distributed (map over cells groups); only the
final ``to_csv`` / HTML string assembly is driver-side, on the reduced
result — matching "small driver-side sinks over ds.to_pandas()"
(SURVEY.md §2.1 S13).
"""

from __future__ import annotations

import html as html_lib
import os
from typing import Dict, List

import pandas as pd
import pyarrow as pa

import ray.data

from ..rowmodel import value_to_strings
from ..schema import records_to_tablesfiles, table_to_row_records


def _fragment_frames(tf: dict) -> List[pd.DataFrame]:
    """One DataFrame per table: rows' dynamic columns + ``$page``."""
    frames = []
    for table in tf["tables"]:
        rows = []
        for frag in table["fragments"]:
            for row in frag["rows"]:
                flat = {
                    col: " / ".join(value_to_strings(v)) if isinstance(v, list)
                    else ("" if v is None else v)
                    for col, v in row["cells"].items()
                }
                rows.append({**flat, "$page": frag["page"]})
        frames.append(pd.DataFrame(rows))
    return frames


_CSV_LONG_COLUMNS = ["doc_id", "source_uuid", "table_idx", "csv_row", "column", "value"]
_HTML_PIECE_COLUMNS = ["doc_id", "html"]


def cells_to_csv_tables_ds(cells: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed flatten: cells → long rows
    (doc_id, table_idx, csv_row_idx, column, value) ready for per-table
    CSV assembly; runs inside the doc groupby (no driver loop) and STAYS
    a Dataset — callers needing a frame use cells_to_csv_tables."""

    def per_doc(group: pa.Table) -> pd.DataFrame:
        records = table_to_row_records(group)
        if not records:
            return pd.DataFrame(columns=_CSV_LONG_COLUMNS)
        doc_id = records[0]["doc_id"]
        out = []
        for uuid, tf in records_to_tablesfiles(records).items():
            for t_idx, table in enumerate(tf["tables"]):
                # first-seen column union in pandas-from-dicts order
                # (the same order a DataFrame of the row dicts would have)
                cols: list = []
                seen = set()
                flats = []
                for frag in table["fragments"]:
                    for row in frag["rows"]:
                        flat = {
                            col: " / ".join(value_to_strings(v))
                            if isinstance(v, list)
                            else ("" if v is None else v)
                            for col, v in row["cells"].items()
                        }
                        flat["$page"] = frag["page"]
                        flats.append(flat)
                        for c in flat:
                            if c not in seen:
                                seen.add(c)
                                cols.append(c)
                for r_i, flat in enumerate(flats):
                    for col in cols:
                        val = flat.get(col)
                        out.append(
                            {
                                "doc_id": doc_id,
                                "source_uuid": uuid,
                                "table_idx": t_idx,
                                "csv_row": r_i,
                                "column": str(col),
                                "value": "" if val is None else str(val),
                            }
                        )
        return pd.DataFrame(out)

    from ..stages.shuffle import groupby_apply

    return groupby_apply(cells, "doc_id", per_doc)


def cells_to_csv_tables(cells: ray.data.Dataset) -> pd.DataFrame:
    """Driver-frame wrapper over :func:`cells_to_csv_tables_ds` (used by
    the per-table CSV assembly, which pivots on the driver). An empty
    corpus gives an empty frame that still has the long-row columns (the
    exchange drops them for empty shards)."""
    return cells_to_csv_tables_ds(cells).to_pandas().reindex(
        columns=_CSV_LONG_COLUMNS
    )


def write_csvs(cells: ray.data.Dataset, output_dir: str) -> List[str]:
    """Write ``<doc>_<idx>.csv`` per table (table2csv semantics)."""
    os.makedirs(output_dir, exist_ok=True)
    long = cells_to_csv_tables(cells)
    written = []
    for (doc_id, t_idx), g in long.groupby(["doc_id", "table_idx"], sort=True):
        wide = g.pivot_table(
            index="csv_row", columns="column", values="value", aggfunc="first",
            sort=False,
        )
        # restore first-seen column order (pivot sorts lexicographically)
        order = list(dict.fromkeys(g["column"]))
        wide = wide.reindex(columns=order)
        path = os.path.join(output_dir, f"{doc_id}_{t_idx}.csv")
        wide.to_csv(path, index=False)
        written.append(path)
    return written


_CSS = """
table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #999;padding:2px 6px}
.agreement-2{background:#e6ffe6}.agreement-3{background:#c2f0c2}
"""


def cells_to_html(cells: ray.data.Dataset, title: str = "tables") -> str:
    """Static HTML viewer over the (small) cells result."""

    def per_doc(group: pa.Table) -> pd.DataFrame:
        records = table_to_row_records(group)
        if not records:
            return pd.DataFrame(columns=_HTML_PIECE_COLUMNS)
        doc_id = records[0]["doc_id"]
        parts = [f"<h2>{html_lib.escape(doc_id)}</h2>"]
        for uuid, tf in records_to_tablesfiles(records).items():
            if tf.get("citation"):
                parts.append(
                    f"<p class='citation'>{html_lib.escape(str(tf['citation']))}</p>"
                )
            for table in tf["tables"]:
                cols: List[str] = []
                for frag in table["fragments"]:
                    for row in frag["rows"]:
                        for c in row["cells"]:
                            if c not in cols:
                                cols.append(c)
                parts.append("<table><tr>")
                parts.extend(f"<th>{html_lib.escape(c)}</th>" for c in cols)
                parts.append("<th>$page</th></tr>")
                for frag in table["fragments"]:
                    for row in frag["rows"]:
                        level = row.get("agreement_level") or 1
                        parts.append(f"<tr class='agreement-{level}'>")
                        for c in cols:
                            v = row["cells"].get(c)
                            txt = " / ".join(value_to_strings(v)) if isinstance(v, list) else (v or "")
                            parts.append(f"<td>{html_lib.escape(txt)}</td>")
                        parts.append(f"<td>{frag['page']}</td></tr>")
                parts.append("</table>")
        return pd.DataFrame({"doc_id": [doc_id], "html": ["".join(parts)]})

    from ..stages.shuffle import groupby_apply

    pieces = (
        groupby_apply(cells, "doc_id", per_doc)
        .to_pandas()
        .reindex(columns=_HTML_PIECE_COLUMNS)
        .sort_values("doc_id")
    )
    body = "".join(pieces["html"])
    return (
        f"<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{html_lib.escape(title)}</title><style>{_CSS}</style></head>"
        f"<body>{body}</body></html>"
    )
