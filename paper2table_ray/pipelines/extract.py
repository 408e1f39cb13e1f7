"""The flagship extraction pipeline (Ray Data wiring).

read docs → SpanExtractor task stage (worker-cached,
stages/workercache.py) → ordered span table. ``extract_pipeline`` is
``extract_spans(synth_docs_dataset(sf_dir))``: Ray Data fuses the synth
map with the extractor map into one task
(``MapBatches(synth)->MapBatches(...)`` in ``stats()``), so the wide
interleaved docs stay on the worker's heap and never reach the object
store. ``bench.py`` times that same composition.

Scale notes (SURVEY.md §4): the extractor is CPU-bound per doc with skewed
doc sizes, so (a) batches are small (docs-per-batch, not rows), (b) the
extractor's state is built once per worker process and Ray sizes the task
pool from the cluster, (c) there is **no shuffle** in this pipeline
— span order is preserved because extraction is per-doc and the output
carries ``(doc_id, span_idx)``. Any consumer that does shuffle can restore
the invariant with a sort on those keys. Mapped extraction attaches each
doc's mapping with ``stages/joins.hash_join``.
"""

from __future__ import annotations

from typing import Optional

import ray.data

from ..sources.synth import DEFAULT_SEED, synth_docs_batch
from ..stages.extract import ExtractConfig, SpanExtractor
from ..stages.workercache import worker_cached


def synth_docs_dataset(
    sf_dir: str,
    seed: int = DEFAULT_SEED,
    repeat: int = 1,
) -> ray.data.Dataset:
    """documents.parquet → interleaved-doc Dataset (synthesis runs inside
    map_batches, so corpus generation itself is distributed/streaming).

    ``repeat`` replicates the corpus with distinct doc ids (seed varied
    per replica) — the scaling audit uses it to grow the workload past
    fixed overheads without external data. The read is split into 4×
    cluster CPUs blocks so a single small parquet file doesn't collapse
    the whole downstream pipeline into one block."""
    import ray as _ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],  # prune at the read
    )
    if _ray.is_initialized():
        # the sf parquet files are single-row-group → ONE block → every
        # downstream map stage would run in one task; split first
        ds = ds.repartition(4 * int(_ray.cluster_resources().get("CPU", 4)))

    def synth(batch):
        # replication happens INSIDE one operator — a union of R branches
        # serializes the map stage (observed: 2 busy workers at repeat=16)
        import pyarrow as pa
        import pyarrow.compute as pc

        tables = []
        for rep in range(max(1, repeat)):
            out = synth_docs_batch(batch, seed + rep * 1_000_003)
            if rep:
                out = out.set_column(
                    out.schema.get_field_index("doc_id"),
                    "doc_id",
                    pc.binary_join_element_wise(
                        out.column("doc_id"), pa.scalar(f"r{rep}"), "~"
                    ),
                )
            tables.append(out)
        return pa.concat_tables(tables)

    return ds.map_batches(synth, batch_format="pyarrow", batch_size=64)


def extract_spans(
    docs: ray.data.Dataset,
    config: Optional[ExtractConfig] = None,
    batch_size: int = 32,
) -> ray.data.Dataset:
    """docs (DOC_SCHEMA) → spans (SPANS_OUT_SCHEMA).

    Task pool + worker-local extractor cache: Ray reuses worker processes
    across tasks, so construction (regex compile, hint set, stripper)
    happens once per worker without an actor pool's spawn latency. Small
    batch_size bounds the damage of one giant doc in a batch (skew).
    """
    return docs.map_batches(
        worker_cached(SpanExtractor, config=config or ExtractConfig()),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def extract_pipeline(
    sf_dir: str,
    config: Optional[ExtractConfig] = None,
    seed: int = DEFAULT_SEED,
) -> ray.data.Dataset:
    """End-to-end: synthesize interleaved docs from the sf dir, extract
    ordered spans (synth and extract run fused in one task stage)."""
    return extract_spans(synth_docs_dataset(sf_dir, seed=seed), config=config)


def plan_mappings_ds(
    docs: ray.data.Dataset,
    cache_dir: Optional[str] = None,
    client_factory=None,
    force: bool = False,
) -> ray.data.Dataset:
    """Hybrid-reader analogue (SURVEY.md S6, readers/hybrid.py:68-108):
    an expensive planner produces a per-doc ``TablesMapping`` ONCE, cached
    as ``<doc_id>.mapping.json``, and deterministic extraction then uses
    it. The reference's LLM planner is stubbed with a deterministic one
    (first table's header row → ordinal→name map) so fixtures reproduce;
    the cache check / write flow is real.

    Returns a ``Dataset[doc_id, mapping_json]`` side table covering every
    doc in ``docs`` that has a mapping (cached or freshly planned). The
    cache is checked AND written inside the map_batches task — one
    idempotent tmp+``os.replace`` file per doc, never funneled through the
    driver — so the mapping side scales with the corpus (cache_dir is a
    shared filesystem at multi-node scale; a Lance/parquet side table is
    the drop-in alternative).

    ``client_factory``: zero-arg callable building a
    :class:`~paper2table_ray.stages.llmclient.TablesModelClient`
    (wrapped in RateLimitedClient for pacing as needed) — built ONCE per
    worker via a closure-local cache, the ST4 stateful-client pattern.
    Defaults to the deterministic planner stub. A doc whose plan raises
    ``ModelUnavailableError`` is SKIPPED (no mapping row, no cache file)
    so a later run retries it — the reference's warn-and-skip + resume
    flow (__main__.py:428-440)."""
    import json
    import os
    import uuid

    import pyarrow as pa

    from ..stages.llmclient import (
        DeterministicPlannerClient,
        ModelUnavailableError,
    )

    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    factory = client_factory or DeterministicPlannerClient
    worker_cache: dict = {}

    def plan_batch(batch: pa.Table) -> pa.Table:
        client = worker_cache.get("client")
        if client is None:
            client = worker_cache["client"] = factory()
        out_ids, out_maps = [], []
        for doc_id, spans in zip(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        ):
            if cache_dir and not force:
                # force=True is --force-mapping-generation: replan and
                # overwrite cached mappings (reference __main__.py flag)
                path = os.path.join(cache_dir, f"{doc_id}.mapping.json")
                try:
                    with open(path) as f:
                        out_ids.append(doc_id)
                        out_maps.append(f.read())
                    continue  # cache hit → planner not invoked (hybrid.py:77-82)
                except FileNotFoundError:
                    pass
            try:
                mapping = client.plan(doc_id, spans or [])
            except ModelUnavailableError:
                continue  # skip: retried by the next (resume) run
            if mapping is None:
                continue
            mapping_json = json.dumps(mapping)
            if cache_dir:
                # in-task idempotent write (unique tmp name per writer so
                # concurrent retries never clobber each other mid-write)
                path = os.path.join(cache_dir, f"{doc_id}.mapping.json")
                tmp = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
                with open(tmp, "w") as f:
                    f.write(mapping_json)
                os.replace(tmp, path)
            out_ids.append(doc_id)
            out_maps.append(mapping_json)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.string()),
                "mapping_json": pa.array(out_maps, pa.string()),
            }
        )

    return docs.map_batches(plan_batch, batch_format="pyarrow")


def extract_spans_mapped(
    docs: ray.data.Dataset,
    mappings,
    config: Optional[ExtractConfig] = None,
    batch_size: int = 32,
    num_shards: Optional[int] = None,
) -> ray.data.Dataset:
    """Mapped (hybrid) extraction.

    ``mappings`` is either a ``{doc_id: mapping}`` dict or a
    ``Dataset[doc_id, mapping_json]`` from :func:`plan_mappings_ds`. Each
    doc's ``mapping_json`` is attached by a left ``hash_join`` on doc_id
    (stages/joins.py: broadcast within the join's row and byte limits,
    a co-partition join at ``num_shards`` above them), and the extractor
    runs in the join task on the joined batch, so a corpus-scaled
    mapping side never reaches the driver."""
    import json

    import pyarrow as pa

    from ..stages.joins import hash_join

    if isinstance(mappings, dict):
        mappings = pa.table(
            {
                "doc_id": pa.array(list(mappings), pa.string()),
                "mapping_json": pa.array(
                    [json.dumps(m) for m in mappings.values()], pa.string()
                ),
            }
        )
    return hash_join(
        docs,
        mappings,
        "doc_id",
        "doc_id",
        ["mapping_json"],
        how="left",
        num_shards=num_shards,
        batch_size=batch_size,
        post=worker_cached(SpanExtractor, config=config or ExtractConfig()),
    )


_WIN_SEP = "\x00win\x00"


def extract_spans_windowed(
    docs: ray.data.Dataset,
    config: Optional[ExtractConfig] = None,
    window_spans: int = 256,
    batch_size: int = 32,
) -> ray.data.Dataset:
    """split_pages analogue (SURVEY.md S7, readers/split_pages.py:87-138):
    fan each doc out into span windows, extract windows independently,
    reassemble per doc in window order with span indices re-stamped.

    Windows only close OUTSIDE a ``table_row`` run, so the reassembled
    sequence is bit-identical to unwindowed extraction (the reference's
    page-batch splits can cut tables at batch boundaries; deferring the
    cut until the run closes removes that artifact). One giant doc no
    longer serializes one task — its windows extract in parallel — which
    is the long-doc skew remedy the north rule asks for."""
    import pyarrow as pa

    def explode(batch: pa.Table) -> pa.Table:
        out_ids, out_spans = [], []
        for doc_id, spans in zip(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        ):
            ordered = sorted(spans or [], key=lambda s: s["offset"])
            win, win_idx = [], 0
            for span in ordered:
                win.append(span)
                if len(win) >= window_spans and span["kind"] != "table_row":
                    out_ids.append(f"{doc_id}{_WIN_SEP}{win_idx:06d}")
                    out_spans.append(win)
                    win, win_idx = [], win_idx + 1
            if win or win_idx == 0:
                out_ids.append(f"{doc_id}{_WIN_SEP}{win_idx:06d}")
                out_spans.append(win)
        from ..schema import DOC_SCHEMA, SPAN_STRUCT

        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.string()),
                "spans": pa.array(out_spans, pa.list_(SPAN_STRUCT)),
            }
        )

    sub_spans = extract_spans(
        docs.map_batches(explode, batch_format="pyarrow"),
        config=config,
        batch_size=batch_size,
    )

    def restamp(group: pa.Table) -> pa.Table:
        # group = one original doc; rows arrive sorted by (sub_doc_id,
        # span_idx) from groupby_apply's sort — zero-padded window index
        # makes that the correct global order.
        sub = group.column("doc_id").to_pylist()
        doc_id = sub[0].split(_WIN_SEP, 1)[0]
        n = group.num_rows
        return pa.table(
            {
                "doc_id": pa.array([doc_id] * n, pa.string()),
                "span_idx": pa.array(range(n), pa.int32()),
                "kind": group.column("kind"),
                "text": group.column("text"),
                "media_ref": group.column("media_ref"),
            }
        )

    from ..stages.shuffle import groupby_apply

    def add_base(batch: pa.Table) -> pa.Table:
        base = [s.split(_WIN_SEP, 1)[0] for s in batch.column("doc_id").to_pylist()]
        return batch.append_column("base_doc", pa.array(base, pa.string()))

    stamped = sub_spans.map_batches(add_base, batch_format="pyarrow")

    def per_doc(group: pa.Table) -> pa.Table:
        ordered = group.sort_by([("doc_id", "ascending"), ("span_idx", "ascending")])
        return restamp(ordered.drop_columns(["base_doc"]))

    return groupby_apply(stamped, "base_doc", per_doc, batch_format="pyarrow")

