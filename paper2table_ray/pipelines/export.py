"""Export sink: per-table CSV (SURVEY.md S13; the HTML viewer sink is
pipelines/viewer.py).

Behavioral parity (studied from /root/reference/src/table2csv/__main__.py:
8-47, not copied): each table flattens to one DataFrame — row columns in
first-seen order plus a ``$page`` column from the fragment; one CSV per
``<doc>_<table_idx>.csv``.

Ray shape: the flatten runs distributed (one doc exchange, one decode per
shard); only the final ``to_csv`` is driver-side, on the reduced result —
matching "small driver-side sinks over ds.to_pandas()" (SURVEY.md §2.1
S13).
"""

from __future__ import annotations

import os
from typing import List

import pandas as pd
import pyarrow as pa

import ray.data

from ..rowmodel import value_to_strings
from ..schema import table_to_doc_tablesfiles

_CSV_LONG_COLUMNS = ["doc_id", "source_uuid", "table_idx", "csv_row", "column", "value"]


def cells_to_csv_tables_ds(cells: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed flatten: cells → long rows
    (doc_id, source_uuid, table_idx, csv_row, column, value) ready for
    per-table CSV assembly; runs inside the doc exchange (one decode per
    shard, no driver loop) and STAYS a Dataset — callers needing a frame
    use cells_to_csv_tables."""

    def per_shard(tbl: pa.Table) -> pd.DataFrame:
        out = []
        for doc_id, by_source in table_to_doc_tablesfiles(tbl):
            for uuid, tf in by_source.items():
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
                                (
                                    doc_id,
                                    uuid,
                                    t_idx,
                                    r_i,
                                    str(col),
                                    "" if val is None else str(val),
                                )
                            )
        return pd.DataFrame(out, columns=_CSV_LONG_COLUMNS)

    from ..stages.shuffle import groupby_apply_table

    return groupby_apply_table(cells, "doc_id", per_shard)


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
