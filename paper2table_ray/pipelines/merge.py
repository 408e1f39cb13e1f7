"""Merge pipeline (Ray Data wiring of SURVEY.md §3.2).

Reference lifecycle (/root/reference/src/tablemerge/__main__.py:244-310):
group ``*.tables.json`` by paper → per paper: Phase 1 load each source
through the pretransformer + aligner chain, Phase 2 cursor-merge with
agreement, Phase 3 postprocess → write. The thread pool over papers
becomes ``groupby("doc_id").map_groups`` — the single all-to-all shuffle,
keyed on doc_id (J1), with groups per-paper small so no salting is needed.

Load-time per-fragment transforms also run inside the group UDF (not as a
separate map_batches) because a fragment's rows must be processed together
and the group already co-locates the whole doc; this trades a little
parallelism inside one doc for zero extra shuffles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import pyarrow as pa

import ray.data

from .. import rowmodel as rm
from ..schema import (
    CellsTableBuilder,
    records_to_tablesfiles,
    table_to_doc_tablesfiles,
    tablesfile_to_records,
)
from ..functions.text import ColumnSchema
from ..stages.aligners import (
    AliasLoadTimeAnalyzer,
    ColumnNameSemanticLoadTimeAnalyzer,
    ColumnNamesNormalizerLoadTimeAnalyzer,
    ColumnValueSemanticMergeTimeAnalyzer,
    HintsLoadTimeAnalyzer,
    JaccardMergeTimeAnalyzer,
    LoadTimeColumnAligner,
)
from ..stages.merge import (
    DistinctReadersAgreement,
    SimpleCountAgreement,
    TablesFileMerger,
)
from ..stages.transformers import (
    FilterEmptyRowsTransformer,
    FilterHeaderRowsTransformer,
    FilterTitleRowsTransformer,
    FragmentValuesReverser,
    FragmentsExploder,
    LeadingRowNumberTransformer,
    NormalizePunctuationTransformer,
    SafeConsecutiveFragmentsCompactor,
    SplitColumnTransformer,
    UnsafeConsecutiveFragmentsCompactor,
    apply_fragment_transformers,
    build_postprocessors,
)

_TABLESFILE_TRANSFORMERS = {
    "explode": FragmentsExploder,
    "safe-compact": SafeConsecutiveFragmentsCompactor,
    "unsafe-compact": UnsafeConsecutiveFragmentsCompactor,
}

MERGED_UUID = "merged"


@dataclass
class MergeConfig:
    """Flag surface mirroring tablemerge's CLI (subset; same defaults)."""

    column_agreement: bool = False
    distinct_readers: bool = False
    uuid_to_reader: Dict[str, str] = field(default_factory=dict)
    jaccard_alignment: bool = True
    hints: List[str] = field(default_factory=list)
    hints_unsafe: bool = False  # reference hints_column_alignment='unsafe'
    aliases: Dict[str, str] = field(default_factory=dict)
    filter_title_rows: bool = True
    source_order: Optional[List[str]] = None
    page_offsets: Dict[str, int] = field(default_factory=dict)
    # per-(canonical doc, source) page offsets carried by paper aliases
    # (reference group_tablesfiles offsets, __main__.py:149-162): additive
    # with the per-source offsets above
    doc_source_offsets: Dict[tuple, int] = field(default_factory=dict)
    drop_empty_columns: bool = True
    drop_empty_tables: bool = True
    # analyzer tuning + typed schema (reference build_analyzers,
    # __main__.py:113-143; schema postprocessing, postprocessor.py:39-152)
    alignment_threshold: float = 0.5
    semantic_language: str = "en"
    name_semantic_alignment: bool = False
    value_semantic_alignment: bool = False
    schema: Optional[ColumnSchema] = None
    filter_schema_columns: bool = False
    order_schema_columns: bool = False
    coerce_schema_column_types: bool = False
    only_semantic_columns: bool = False
    # optional pre/post transformers (try_parse_pretransformers,
    # __main__.py:675-688)
    fix_reversed_column_values: bool = False
    strip_leading_row_numbers: bool = False
    normalize_punctuation: bool = False
    split_conjunction_columns: bool = False
    remove_header_rows: bool = False
    # "explode" | "safe-compact" | "unsafe-compact" | None — applied per
    # source tablesfile between pretransformers and alignment (reference
    # tablesfile_loader.py:41, try_parse_tablesfile_transformer)
    transform_tablesfile: "Optional[str]" = None


def _load_tablesfile(tf: dict, config: MergeConfig) -> dict:
    """Phase 1 (tablesfile_loader.py:27-43): pretransformers (with the
    always-appended empty-row filter, __main__.py:687) → tablesfile
    transformer → column-name normalization + optional hints/alias
    analyzers → posttransformers (header-row filter when
    remove_header_rows, merge_resultsets __main__.py:265-267 — per
    SOURCE at load time, not post-merge; pinned by the differential
    oracle tests/test_reference_differential_merge.py)."""
    pre = []
    if config.fix_reversed_column_values:
        pre.append(FragmentValuesReverser(config.semantic_language))
    if config.filter_title_rows:
        pre.append(FilterTitleRowsTransformer())
    if config.strip_leading_row_numbers:
        pre.append(LeadingRowNumberTransformer())
    if config.normalize_punctuation:
        pre.append(NormalizePunctuationTransformer())
    if config.split_conjunction_columns:
        pre.append(SplitColumnTransformer(config.semantic_language))
    pre.append(FilterEmptyRowsTransformer())
    tf = apply_fragment_transformers(tf, pre)

    if config.transform_tablesfile:
        transformer_cls = _TABLESFILE_TRANSFORMERS.get(config.transform_tablesfile)
        if transformer_cls is None:
            raise ValueError(
                f"unknown transform_tablesfile: {config.transform_tablesfile!r}"
            )
        tf = transformer_cls().transform(tf)

    analyzers = [ColumnNamesNormalizerLoadTimeAnalyzer()]
    if config.hints:
        analyzers.append(
            HintsLoadTimeAnalyzer(config.hints, safe=not config.hints_unsafe)
        )
    if config.aliases:
        analyzers.append(AliasLoadTimeAnalyzer(config.aliases))
    if config.name_semantic_alignment:
        analyzers.append(
            ColumnNameSemanticLoadTimeAnalyzer(
                config.alignment_threshold,
                config.semantic_language,
                config.schema,
            )
        )

    tables = []
    for table in tf["tables"]:
        fragments = []
        for frag in table["fragments"]:
            aligner = LoadTimeColumnAligner(frag, analyzers)
            frag = {
                "rows": [aligner.rename_row(r) for r in frag["rows"]],
                "page": frag["page"],
            }
            fragments.append(frag)
        tables.append({"fragments": fragments})
    tf = {**tf, "tables": tables}
    if config.remove_header_rows:
        tf = apply_fragment_transformers(
            tf, [FilterHeaderRowsTransformer(config.hints)]
        )
    return tf


def merge_doc_records(records: List[dict], config: MergeConfig) -> List[dict]:
    """The per-doc reduce: records (CELLS_SCHEMA dicts, one doc) → merged
    records stamped with source_uuid=MERGED_UUID."""
    if not records:
        return []
    doc_id = records[0]["doc_id"]
    by_source = records_to_tablesfiles(records)
    merged = merge_doc_sources(doc_id, by_source, config)
    if merged is None:
        return []
    return tablesfile_to_records(doc_id, MERGED_UUID, merged)


def merge_doc_sources(
    doc_id: str,
    by_source: Dict[str, dict],
    config: MergeConfig,
    owns_rows: bool = False,
) -> Optional[dict]:
    """One doc's per-source tablesfile trees → the merged tablesfile (or
    ``None`` when every source is all-empty). ``owns_rows``: the trees
    were freshly decoded for this call (table_to_doc_tablesfiles) — the
    merge engine may normalize/stamp their rows in place."""
    order = config.source_order or sorted(by_source)
    tablesfiles, offsets = [], []
    for uuid in order:
        if uuid not in by_source:
            continue
        tf = dict(by_source[uuid])
        tf["uuid"] = uuid
        tf = _load_tablesfile(tf, config)
        if all(
            rm.fragment_is_empty(f)
            for t in tf["tables"]
            for f in t["fragments"]
        ):
            continue  # skip all-empty sources (tablemerge __main__.py:208-212)
        tablesfiles.append(tf)
        offsets.append(
            config.page_offsets.get(uuid, 0)
            + config.doc_source_offsets.get((doc_id, uuid), 0)
        )
    if not tablesfiles:
        return None

    agreement = (
        DistinctReadersAgreement(config.uuid_to_reader)
        if config.distinct_readers
        else SimpleCountAgreement()
    )
    analyzers = []
    if config.jaccard_alignment:
        analyzers.append(
            JaccardMergeTimeAnalyzer(config.alignment_threshold, config.schema)
        )
    if config.value_semantic_alignment:
        analyzers.append(
            ColumnValueSemanticMergeTimeAnalyzer(
                config.alignment_threshold,
                config.semantic_language,
                config.schema,
            )
        )
    merged = TablesFileMerger(
        agreement=agreement,
        column_agreement=config.column_agreement,
        analyzers=analyzers,
        owns_rows=owns_rows,
    ).merge(tablesfiles, page_offsets=offsets)

    for name, post in build_postprocessors(
        schema=config.schema,
        filter_columns=config.filter_schema_columns,
        order_columns=config.order_schema_columns,
        coerce_types=config.coerce_schema_column_types,
        only_semantic_columns=config.only_semantic_columns,
        with_drop_empty_columns=config.drop_empty_columns,
        with_drop_empty_tables=config.drop_empty_tables,
        normalized=True,  # merge output rows are normalize_row outputs
    ):
        merged = post(merged)

    return merged


def merge_docs(
    tbl: pa.Table, config: MergeConfig
) -> Iterator[Tuple[str, dict]]:
    """Whole-table merge kernel: the caller guarantees every doc's rows
    are present in ``tbl`` (one shuffle shard, or one lineage partition
    file). Yields ``(doc_id, merged tree)`` in doc_id order for each doc
    that has a merged tree. Arrow → per-doc trees in one decode with
    dictionary-encoded metadata (no intermediate record dicts), then
    in-place normalize/stamp inside the merge engine (owns_rows). The
    kernel's allocation rate is the composed pipeline's scaling limiter
    (BASELINE.md round 4) — every dropped per-row dict is memory
    bandwidth returned to the other cores."""
    # no table sort: sorting a nested-map table copies every buffer; the
    # decoder sorts METADATA indices only (pc.sort_indices) and emits
    # docs in sorted order for deterministic output
    for doc_id, by_source in table_to_doc_tablesfiles(tbl):
        merged = merge_doc_sources(doc_id, by_source, config, owns_rows=True)
        if merged is not None:
            yield doc_id, merged


def merge_cells_table(tbl: pa.Table, config: MergeConfig) -> pa.Table:
    """``merge_docs`` encoded back to a cells table (source_uuid =
    ``MERGED_UUID``)."""
    builder = CellsTableBuilder()
    for doc_id, merged in merge_docs(tbl, config):
        builder.append_tablesfile(doc_id, MERGED_UUID, merged)
    return builder.build()


def merge_pipeline(
    cells: ray.data.Dataset, config: Optional[MergeConfig] = None
) -> ray.data.Dataset:
    """cells Dataset (CELLS_SCHEMA, multiple source_uuids) → merged cells
    Dataset. One shuffle, keyed on hash(doc_id) % num_shards — per-doc
    groups are recovered inside each shard task (stages/shuffle.py), so
    scheduler overhead is O(shards), not O(docs); the in-shard kernel
    decodes/encodes the whole shard once (merge_cells_table)."""
    from ..stages.shuffle import groupby_apply_table

    cfg = config or MergeConfig()
    return groupby_apply_table(
        cells, "doc_id", lambda t: merge_cells_table(t, cfg)
    )
