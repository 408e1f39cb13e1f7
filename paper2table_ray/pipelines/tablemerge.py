"""End-to-end tablemerge analogue: resultset dirs → merged resultset dir.

The full lifecycle of the reference's `tablemerge` CLI (SURVEY.md §3.2,
/root/reference/src/tablemerge/__main__.py:596-672 → merge_resultsets
244-310), driven by the same ``MergeSettings`` flag surface
(state/settings.py) end-to-end:

1. read every ``*.tables.json`` across the source resultsets into one
   cells Dataset (source_uuid-tagged) — sources/tablesfile_json.py;
2. build the analyzer/transformer/agreement configuration from settings
   (``settings_to_config`` — the analogue of build_analyzers
   __main__.py:113-143), with ``uuid_to_reader`` taken from each source's
   ``tables.metadata.json`` for the distinct-readers agreement;
3. one coarse-sharded exchange on doc_id (stages/shuffle.py) whose shard
   task merges its docs (``merge_docs``, pipelines/merge.py) and hands
   each merged tree straight to the writer (``resultset_writer``:
   idempotent per-doc files + curation skip) — the shard already holds
   every row of each of its docs, so no second exchange is needed, and
   the merged trees are written as merged, with no Arrow encode/decode
   between merge and write;
4. ``tables.metadata.json`` is written once on the driver before the
   exchange, and the settings are persisted alongside
   (``settings.tablemerge.json``) after it, matching the reference's
   settings-capture behavior (settings.py:66-74).
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Optional

import pandas as pd

from ..functions.text import parse_hints
from ..sources.tablesfile_json import (
    SUMMARY_COLUMNS,
    load_metadata,
    read_resultsets,
    resultset_writer,
)
from ..stages.aligners import parse_column_aliases, parse_paper_aliases
from ..stages.shuffle import groupby_apply_table
from ..state.settings import MergeSettings
from .merge import MergeConfig, merge_docs


def settings_to_config(
    settings: MergeSettings, uuid_to_reader: Optional[dict] = None
) -> MergeConfig:
    """MergeSettings (CLI flag surface) → MergeConfig (engine knobs)."""
    from ..functions.text import ColumnSchema

    schema = ColumnSchema.parse(settings.schema) if settings.schema else None
    return MergeConfig(
        # the reference CLI NEVER enables the column-agreement vote merge
        # (merge_tablesfiles_paths constructs TablesFileMerger without
        # column_agreement, __main__.py:223-226; only the library tests
        # pass column_agreement=True) — found by the differential oracle
        # (tests/test_reference_differential_merge.py)
        column_agreement=False,
        distinct_readers=settings.agreement_method == "distinct-readers",
        uuid_to_reader=uuid_to_reader or {},
        jaccard_alignment=settings.jaccard_column_alignment,
        hints=parse_hints(settings.column_names_hints or ""),
        hints_unsafe=settings.hints_column_alignment == "unsafe",
        aliases=parse_column_aliases(settings.column_aliases or ""),
        filter_title_rows=settings.filter_title_rows,
        drop_empty_columns=settings.drop_empty_columns,
        drop_empty_tables=settings.drop_empty_tables,
        alignment_threshold=settings.column_alignment_threshold,
        semantic_language=settings.semantic_language,
        name_semantic_alignment=settings.column_name_semantic_alignment,
        value_semantic_alignment=settings.column_value_semantic_alignment,
        schema=schema,
        filter_schema_columns=settings.filter_schema_columns,
        order_schema_columns=settings.order_schema_columns,
        coerce_schema_column_types=settings.coerce_schema_column_types,
        only_semantic_columns=settings.only_semantic_columns,
        fix_reversed_column_values=settings.fix_reversed_column_values,
        strip_leading_row_numbers=settings.strip_leading_row_numbers,
        normalize_punctuation=settings.normalize_punctuation,
        split_conjunction_columns=settings.split_conjunction_columns,
        remove_header_rows=settings.remove_header_rows,
        transform_tablesfile=settings.transform_tablesfile,
    )


def apply_paper_aliases(cells, paper_aliases: dict):
    """Distributed doc-level aliasing (the cells analogue of the
    reference's file-level group_tablesfiles, __main__.py:149-162): rows
    whose doc_id is an alias stem are renamed to the canonical doc so the
    merge groupby co-locates them. Page offsets ride separately via
    ``MergeConfig.doc_source_offsets`` (the merger adjusts pages during
    fragment clustering, keeping the left fragment's display page, exactly
    like the reference)."""
    import pyarrow as pa

    rename = {alias: canon for alias, (canon, _off) in paper_aliases.items()}

    def remap(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out = pa.array([rename.get(d, d) for d in ids], type=pa.string())
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id", out
        )

    return cells.map_batches(remap, batch_format="pyarrow")


def merged_uuid_for(resultset_dirs: List[str]) -> str:
    """Content-derived resultset id (deterministic — testable, idempotent;
    the reference stamps uuid4, SURVEY.md §4 determinism row)."""
    basis = "|".join(
        os.path.basename(os.path.normpath(d)) for d in sorted(resultset_dirs)
    )
    return "merged-" + hashlib.blake2b(basis.encode(), digest_size=8).hexdigest()


def run_tablemerge(
    resultset_dirs: List[str],
    output_dir: str,
    settings: Optional[MergeSettings] = None,
    resultset_uuid: Optional[str] = None,
    force_update: bool = False,
    paper: Optional[str] = None,
) -> pd.DataFrame:
    """Merge N resultset directories into ``<output_dir>/<uuid>/``.
    Returns the per-doc write summary. ``paper``: regex — merge only docs
    whose id fullmatches it (J2, tablemerge/__main__.py:165-174), applied
    BEFORE the shuffle."""
    settings = settings or MergeSettings()
    uuid_to_reader = {}
    for d in resultset_dirs:
        meta = load_metadata(d)
        if meta and meta.get("uuid") and meta.get("reader"):
            uuid_to_reader[meta["uuid"]] = meta["reader"]
        else:
            uuid_to_reader[os.path.basename(os.path.normpath(d))] = None

    cells = read_resultsets(resultset_dirs)

    paper_aliases = parse_paper_aliases(settings.paper_aliases or "")
    doc_source_offsets = {}
    if paper_aliases:
        cells = apply_paper_aliases(cells, paper_aliases)
        # per-(canonical, source) offsets from the file listing (driver-
        # side file METADATA only — tiny; reference __main__.py:149-162)
        for d in resultset_dirs:
            uuid = os.path.basename(os.path.normpath(d))
            for name in os.listdir(d):
                if not name.endswith(".tables.json"):
                    continue
                stem = name.removesuffix(".tables.json")
                alias = paper_aliases.get(stem)
                if alias and alias[1]:
                    doc_source_offsets[(alias[0], uuid)] = alias[1]

    if paper:
        import re as _re

        import pyarrow as pa

        # reference filter_groups_by_paper (__main__.py:165-174): regex
        # fullmatch on the stem, '.tables.json' stripped from the filter
        pattern = _re.compile(paper.removesuffix(".tables.json"))

        def keep(batch: pa.Table) -> pa.Table:
            mask = pa.array(
                [bool(pattern.fullmatch(d)) for d in batch.column("doc_id").to_pylist()]
            )
            return batch.filter(mask)

        cells = cells.map_batches(keep, batch_format="pyarrow")
    cfg = settings_to_config(settings, uuid_to_reader)
    cfg.doc_source_offsets = doc_source_offsets

    uuid = resultset_uuid or merged_uuid_for(resultset_dirs)
    write = resultset_writer(
        output_dir,
        uuid,
        reader="tablemerge",
        sources=[{"uuid": u, "reader": r} for u, r in sorted(uuid_to_reader.items())],
        force_update=force_update,
        pretty=settings.pretty,
    )
    # reindex: an empty corpus collects to a frame with no columns
    summary = (
        groupby_apply_table(cells, "doc_id", lambda t: write(merge_docs(t, cfg)))
        .to_pandas()
        .reindex(columns=SUMMARY_COLUMNS)
    )
    settings.write_file(os.path.join(output_dir, uuid))
    return summary
