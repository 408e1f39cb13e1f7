"""Corpus statistics (tablestats analogues, SURVEY.md §2.6 G4-G8).

Per-paper stats are doc-local (one doc exchange, one decode per shard);
global stats fold the tiny per-paper table with a driver-side sum — matching
/root/reference/src/tablestats/stats.py semantics over the cells model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pandas as pd
import pyarrow as pa

import ray.data

from .. import rowmodel as rm
from ..schema import table_to_doc_tablesfiles, table_to_row_records


def _row_value_strings(row: rm.Row) -> frozenset:
    """stats.py:69-83."""
    result = set()
    for col, value in row["cells"].items():
        if value is None:
            continue
        if isinstance(value, str):
            v = value.strip()
            if v:
                result.add((col, v))
        else:
            for entry in value:
                v = entry["value"].strip()
                if v:
                    result.add((col, v))
    return frozenset(result)


def _count_shared_values(tables: List[dict]) -> tuple:
    """stats.py:86-111: group rows by row_idx within each table; count rows
    sharing ≥1 (col, value) with another group member."""
    rows_in_groups = 0
    rows_with_shared = 0
    for table in tables:
        all_rows = [
            row
            for frag in table["fragments"]
            for row in frag["rows"]
            if row["row_idx"] is not None
        ]
        groups: Dict[int, list] = {}
        for row in all_rows:
            groups.setdefault(row["row_idx"], []).append(row)
        for group in groups.values():
            if len(group) < 2:
                continue
            rows_in_groups += len(group)
            value_sets = [_row_value_strings(r) for r in group]
            for i, vset in enumerate(value_sets):
                if any(
                    vset & value_sets[j]
                    for j in range(len(value_sets))
                    if j != i
                ):
                    rows_with_shared += 1
    return rows_in_groups, rows_with_shared


def compute_paper_stats(tablesfile: dict) -> dict:
    """stats.py:138-193 over the dict model."""
    tables = tablesfile["tables"]
    all_fragments = [f for t in tables for f in t["fragments"]]
    rows_count = sum(len(f["rows"]) for f in all_fragments)
    unique_rows = sum(
        len(
            {
                row["row_idx"]
                for frag in t["fragments"]
                for row in frag["rows"]
                if row["row_idx"] is not None
            }
        )
        for t in tables
    )
    rows_with_agreement = sum(
        1
        for f in all_fragments
        for row in f["rows"]
        if (row["agreement_level"] or 0) > 1
    )
    empty_rows = sum(
        1 for f in all_fragments for row in f["rows"] if rm.row_is_empty(row)
    )
    unique_columns = {
        col for f in all_fragments for row in f["rows"] for col in row["cells"]
    }
    rows_in_groups, rows_shared = _count_shared_values(tables)
    # per-paper percentages (stats.py:172-180): None when undefined
    agreement_percentage = None
    empty_rows_percentage = None
    shared_values_percentage = None
    if rows_count > 0:
        agreement_percentage = rows_with_agreement / rows_count * 100
        empty_rows_percentage = empty_rows / rows_count * 100
    if rows_in_groups > 0:
        shared_values_percentage = rows_shared / rows_in_groups * 100
    return {
        "tables": len(tables),
        "fragments": len(all_fragments),
        "rows": rows_count,
        "unique_rows": unique_rows,
        "columns": len(unique_columns),
        "rows_with_agreement": rows_with_agreement,
        "empty_rows": empty_rows,
        "rows_in_shared_groups": rows_in_groups,
        "rows_with_shared_values": rows_shared,
        "agreement_percentage": agreement_percentage,
        "empty_rows_percentage": empty_rows_percentage,
        "shared_values_percentage": shared_values_percentage,
    }


def _column_probe(tablesfile: dict) -> List[dict]:
    """G7 probe for one tablesfile (tablestats/__main__.py:73-87): the
    FIRST row of the first non-empty fragment per table, semantic columns
    only, with their inferred types — in table order."""
    out = []
    for table in tablesfile["tables"]:
        for frag in table["fragments"]:
            if not frag["rows"]:
                continue
            row = frag["rows"][0]
            for col, val in row["cells"].items():
                if rm.is_semantic_column(col):
                    out.append({"column": col, "inferred": infer_type(val)})
            break  # the reference probes one fragment per table
    return out


def paper_stats_dataset(
    cells: ray.data.Dataset, with_column_probe: bool = False
) -> ray.data.Dataset:
    """cells → one stats row per (doc_id, source_uuid='merged' or any).

    ``with_column_probe=True`` additionally emits a ``columns_probe``
    JSON column per paper (the G7 first-row type probe), so the
    tablestats CLI derives per-paper stats AND the unique-columns map
    from ONE pass over the cells corpus instead of two."""
    import json as _json

    def per_shard(tbl: pa.Table) -> pd.DataFrame:
        out = []
        for doc_id, by_source in table_to_doc_tablesfiles(tbl):
            for uuid, tf in by_source.items():
                stats = compute_paper_stats(tf)
                stats["doc_id"] = doc_id
                stats["source_uuid"] = uuid
                if with_column_probe:
                    stats["columns_probe"] = _json.dumps(_column_probe(tf))
                out.append(stats)
        return pd.DataFrame(out)

    from .shuffle import groupby_apply_table

    return groupby_apply_table(cells, "doc_id", per_shard)


def global_stats(paper_stats: ray.data.Dataset) -> dict:
    """stats.py:114-135: running sums + percentages (tiny driver fold)."""
    from ray.data.aggregate import Count, Sum

    agg = paper_stats.aggregate(
        Count(alias_name="papers"),
        Sum("tables", alias_name="tables"),
        Sum("fragments", alias_name="fragments"),
        Sum("rows", alias_name="rows"),
        Sum("unique_rows", alias_name="unique_rows"),
        Sum("rows_with_agreement", alias_name="rows_with_agreement"),
        Sum("rows_in_shared_groups", alias_name="rows_in_shared_groups"),
        Sum("rows_with_shared_values", alias_name="rows_with_shared_values"),
    )
    # Ray's Sum over no rows is None; the reference's running sums start at 0
    out = {k: 0 if v is None else v for k, v in agg.items()}
    out["global_agreement_percentage"] = (
        out["rows_with_agreement"] / out["rows"] * 100 if out["rows"] else None
    )
    out["global_shared_values_percentage"] = (
        out["rows_with_shared_values"] / out["rows_in_shared_groups"] * 100
        if out["rows_in_shared_groups"]
        else None
    )
    return out


def accumulate_global(paper_stats_list: List[dict]) -> dict:
    """Pure fold mirroring the reference's ``update_papers_stats``
    (stats.py:114-135) — used for tests and tiny inputs; the Ray
    ``global_stats`` aggregate computes the identical totals
    distributed."""
    out = {
        "papers": 0,
        "tables": 0,
        "fragments": 0,
        "rows": 0,
        "unique_rows": 0,
        "rows_with_agreement": 0,
        "rows_in_shared_groups": 0,
        "rows_with_shared_values": 0,
        "global_agreement_percentage": None,
        "global_shared_values_percentage": None,
    }
    for ps in paper_stats_list:
        out["papers"] += 1
        for k in (
            "tables",
            "fragments",
            "rows",
            "unique_rows",
            "rows_with_agreement",
            "rows_in_shared_groups",
            "rows_with_shared_values",
        ):
            out[k] += ps[k]
        if out["rows"] > 0:
            out["global_agreement_percentage"] = (
                out["rows_with_agreement"] / out["rows"] * 100
            )
        if out["rows_in_shared_groups"] > 0:
            out["global_shared_values_percentage"] = (
                out["rows_with_shared_values"] / out["rows_in_shared_groups"] * 100
            )
    return out


def fold_column_probes(per_paper: ray.data.Dataset) -> Dict[str, str]:
    """Fold per-paper G7 probes (the ``columns_probe`` JSON column from
    ``paper_stats_dataset(with_column_probe=True)``) into the global
    unique-columns map — first type inferred for a name wins, in
    (doc_id, source_uuid) order. Streams batches; never ``take_all``."""
    import json as _json

    columns: Dict[str, str] = {}
    sorted_ds = per_paper.sort(["doc_id", "source_uuid"])
    sorted_ds.context.execution_options.preserve_order = True
    for batch in sorted_ds.select_columns(["columns_probe"]).iter_batches(
        batch_format="pyarrow"
    ):
        for probe in batch.column("columns_probe").to_pylist():
            for entry in _json.loads(probe or "[]"):
                if entry["column"] not in columns:
                    columns[entry["column"]] = entry["inferred"]
    return columns


def format_global_section(stats: dict) -> List[str]:
    """Global half of the text report (tablestats/__main__.py:122-145)."""
    lines = ["Global Stats:"]
    lines.append(f"  Papers: {stats['papers']}")
    lines.append(f"  Tables: {stats['tables']}")
    lines.append(f"  Fragments: {stats['fragments']}")
    lines.append(f"  Rows: {stats['rows']}")
    lines.append(f"  Unique rows: {stats['unique_rows']}")
    lines.append(f"  Rows with agreement > 1: {stats['rows_with_agreement']}")
    if stats.get("global_agreement_percentage") is not None:
        lines.append(
            "  Global agreement percentage: "
            f"{stats['global_agreement_percentage']:.2f}%"
        )
    if stats.get("global_shared_values_percentage") is not None:
        lines.append(
            "  Global shared values percentage: "
            f"{stats['global_shared_values_percentage']:.2f}%"
        )
    lines.append("")
    lines.append("Per-Paper Stats:")
    return lines


def format_paper_section(paper: str, ps: dict) -> List[str]:
    """One paper's block of the text report (tablestats/__main__.py:146-160)."""
    lines = [f"- {paper}:"]
    lines.append(f"    Tables: {ps['tables']}")
    lines.append(f"    Fragments: {ps['fragments']}")
    lines.append(f"    Rows: {ps['rows']}")
    lines.append(f"    Unique rows: {ps['unique_rows']}")
    lines.append(f"    Columns: {ps['columns']}")
    lines.append(f"    Rows with agreement > 1: {ps['rows_with_agreement']}")
    if ps.get("agreement_percentage") is not None:
        lines.append(
            f"    Agreement percentage: {ps['agreement_percentage']:.2f}%"
        )
    return lines


def format_columns_section(columns: Optional[Dict[str, str]]) -> List[str]:
    if not columns:
        return []
    lines = ["", "Unique Columns:"]
    for name, typ in columns.items():
        lines.append(f"  {name}:{typ}")
    return lines


def format_stats(
    stats: dict,
    papers_stats: Optional[Dict[str, dict]] = None,
    columns: Optional[Dict[str, str]] = None,
) -> str:
    """Text report (tablestats/__main__.py:122-168 layout). Driver-side
    convenience over the section helpers; the CLI streams the same
    sections incrementally for corpus-sized inputs."""
    lines = format_global_section(stats)
    for paper, ps in (papers_stats or {}).items():
        lines.extend(format_paper_section(paper, ps))
    lines.extend(format_columns_section(columns))
    return "\n".join(lines)


def empty_papers(paper_stats: ray.data.Dataset) -> ray.data.Dataset:
    """G8: papers with zero tables."""
    import pyarrow.compute as pc

    return paper_stats.map_batches(
        lambda b: b.filter(pc.equal(b.column("tables"), 0)),
        batch_format="pyarrow",
    )


def infer_type(value) -> str:
    """tablestats/__main__.py:55-70: bool / int / float / str probe on the
    (first) string form of a cell value."""
    raw = value if isinstance(value, str) else (value[0]["value"] if value else "")
    stripped = (raw or "").strip()
    if stripped.lower() in ("true", "false"):
        return "bool"
    try:
        int(stripped)
        return "int"
    except ValueError:
        pass
    try:
        float(stripped)
        return "float"
    except ValueError:
        pass
    return "str"


def collect_unique_columns(cells: ray.data.Dataset) -> Dict[str, str]:
    """G7 (tablestats/__main__.py:73-87): per fragment, probe the FIRST
    row's semantic columns; first type inferred for a name wins.

    Distributed as per-batch partial dicts folded on the driver in
    deterministic (doc, source, table, fragment) order — the dict is tiny
    (distinct column names), the scan streams."""
    probe_columns = ["sort_key", "column", "inferred"]

    def partial(batch: pa.Table) -> pd.DataFrame:
        recs = table_to_row_records(batch)
        # first row of the FIRST non-empty fragment per table (the
        # reference breaks the fragment loop after one probe)
        first_rows = {}
        for r in recs:
            key = (r["doc_id"], r["source_uuid"], r["table_idx"])
            cur = first_rows.get(key)
            if cur is None or (r["fragment_idx"], r["pos"]) < (
                cur["fragment_idx"], cur["pos"]
            ):
                first_rows[key] = r
        out = []
        for key in sorted(first_rows):
            r = first_rows[key]
            for col, val in r["cells"].items():
                if rm.is_semantic_column(col):
                    out.append(
                        {
                            "sort_key": "|".join(map(str, key)),
                            "column": col,
                            "inferred": infer_type(val),
                        }
                    )
        return pd.DataFrame(out, columns=probe_columns)

    # reindex: an empty corpus collects to a frame with no columns
    df = (
        cells.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .reindex(columns=probe_columns)
    )
    columns: Dict[str, str] = {}
    for _, row in df.sort_values("sort_key").iterrows():
        if row["column"] not in columns:
            columns[row["column"]] = row["inferred"]
    return columns
