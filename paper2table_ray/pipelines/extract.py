"""The flagship extraction pipeline (Ray Data wiring).

read docs → (optional size-bucket repartition) → SpanExtractor actor pool →
ordered span table → partitioned parquet sink (resumable).

Scale notes (SURVEY.md §4): the extractor is CPU-bound per doc with skewed
doc sizes, so (a) batches are small (docs-per-batch, not rows), (b) the
actor pool sizes with the cluster via ``concurrency=(min, max)`` autoscaling
rather than a hard-coded pool, (c) there is **no shuffle** in this pipeline
— span order is preserved because extraction is per-doc and the output
carries ``(doc_id, span_idx)``. Any consumer that does shuffle can restore
the invariant with a sort on those keys.
"""

from __future__ import annotations

import math
from typing import Optional

import pyarrow.compute as pc

import ray.data

from ..sources.synth import DEFAULT_SEED, synth_docs_batch
from ..stages.extract import ExtractConfig, SpanExtractor


def synth_docs_dataset(
    sf_dir: str,
    seed: int = DEFAULT_SEED,
    parallelism: Optional[int] = None,
    repeat: int = 1,
) -> ray.data.Dataset:
    """documents.parquet → interleaved-doc Dataset (synthesis runs inside
    map_batches, so corpus generation itself is distributed/streaming).

    ``repeat`` replicates the corpus with distinct doc ids (seed varied
    per replica) — the scaling audit uses it to grow the workload past
    fixed overheads without external data. ``parallelism`` defaults to
    4× cluster CPUs so a single small parquet file doesn't collapse the
    whole downstream pipeline into one block."""
    import ray as _ray

    if parallelism is None and _ray.is_initialized():
        parallelism = 4 * int(_ray.cluster_resources().get("CPU", 4))
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],  # prune at the read
    )
    if parallelism:
        # the sf parquet files are single-row-group → ONE block → every
        # downstream map stage would run in one task; split first
        ds = ds.repartition(parallelism)

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


def add_size_buckets(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Stamp ``size_bucket = floor(log2(doc_bytes))`` for skew-aware
    scheduling (north_rule). Cheap vectorized pass; callers can
    ``repartition``/sort on it when a downstream stage needs balanced
    blocks."""

    def bucket(batch):
        sizes = [
            sum(len(s["text"]) + len(s["media_ref"]) for s in spans) if spans else 0
            for spans in batch.column("spans").to_pylist()
        ]
        import pyarrow as pa

        return batch.append_column(
            "size_bucket",
            pa.array(
                [int(math.log2(max(1, s))) for s in sizes], type=pa.int32()
            ),
        )

    return ds.map_batches(bucket, batch_format="pyarrow")


_WORKER_EXTRACTOR: dict = {}


def _extract_batch_cached(batch, config: ExtractConfig, mappings=None):
    """Task UDF with worker-local extractor cache: Ray reuses worker
    processes across tasks, so construction (regex compile, hint set,
    stripper) still happens once per worker — the init-once guarantee of
    an actor pool WITHOUT its slow scale-up (actor process spawn+imports
    measured ~10s for a 32-pool on this box, dominating short runs).
    Reserve true actor pools (use_actors=True) for genuinely expensive
    state (models, external processes)."""
    key = (id(type(config)), repr(config), mappings is not None)
    ex = _WORKER_EXTRACTOR.get(key)
    if ex is None:
        ex = SpanExtractor(config, mappings=mappings)
        _WORKER_EXTRACTOR.clear()
        _WORKER_EXTRACTOR[key] = ex
    return ex(batch)


def extract_spans(
    docs: ray.data.Dataset,
    config: Optional[ExtractConfig] = None,
    batch_size: int = 32,
    concurrency=None,
    use_actors: bool = False,
) -> ray.data.Dataset:
    """docs (DOC_SCHEMA) → spans (SPANS_OUT_SCHEMA).

    Default: task pool + worker-local extractor cache (see
    ``_extract_batch_cached``). ``use_actors=True`` hosts ``SpanExtractor``
    as an autoscaling actor pool instead (the shape for expensive state).
    Small batch_size bounds the damage of one giant doc in a batch (skew).
    """
    cfg = config or ExtractConfig()
    if use_actors:
        if concurrency is None:
            import ray

            cpus = (
                int(ray.cluster_resources().get("CPU", 4))
                if ray.is_initialized()
                else 4
            )
            concurrency = (1, max(2, cpus))
        return docs.map_batches(
            SpanExtractor,
            fn_constructor_kwargs={"config": cfg},
            batch_format="pyarrow",
            batch_size=batch_size,
            zero_copy_batch=True,
            concurrency=concurrency,
        )
    return docs.map_batches(
        lambda b: _extract_batch_cached(b, cfg),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def extract_pipeline(
    sf_dir: str,
    config: Optional[ExtractConfig] = None,
    seed: int = DEFAULT_SEED,
    output_path: Optional[str] = None,
) -> ray.data.Dataset:
    """End-to-end: synthesize interleaved docs from the sf dir, extract
    ordered spans; optionally write to the storage seam (Lance when
    available, partitioned parquet otherwise — sources/io.py)."""
    docs = synth_docs_dataset(sf_dir, seed=seed)
    spans = extract_spans(docs, config=config)
    if output_path:
        from ..sources.io import write_table

        write_table(spans, output_path)
    return spans


class SynthExtract:
    """Fused synth→extract actor stage: documents.parquet rows → interleaved
    docs (in-memory, never serialized) → output spans.

    Why fused: the interleaved doc blocks are ~5-10× larger than both their
    parquet source and the span output; shipping them through the object
    store between a synth task stage and the extract actor stage makes the
    pipeline plasma-bound (object-store writes serialize under memory
    pressure — measured ANTI-scaling 8→32 cpus). One stage keeps the fat
    intermediate on the actor's heap. On a deployment reading real
    interleaved Lance input there is no synth stage and the extractor reads
    the source directly — same shape."""

    def __init__(self, seed: int = DEFAULT_SEED, repeat: int = 1, config=None):
        self.seed = seed
        self.repeat = max(1, repeat)
        self.extractor = SpanExtractor(config)

    def __call__(self, batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        outs = []
        for rep in range(self.repeat):
            docs = synth_docs_batch(batch, self.seed + rep * 1_000_003)
            if rep:
                docs = docs.set_column(
                    docs.schema.get_field_index("doc_id"),
                    "doc_id",
                    pc.binary_join_element_wise(
                        docs.column("doc_id"), pa.scalar(f"r{rep}"), "~"
                    ),
                )
            outs.append(self.extractor(docs))
        return pa.concat_tables(outs)


def extract_pipeline_fused(
    sf_dir: str,
    config: Optional[ExtractConfig] = None,
    seed: int = DEFAULT_SEED,
    repeat: int = 1,
    batch_size: int = 16,
    concurrency=None,
) -> ray.data.Dataset:
    """Flagship with synth+extract fused in one actor pool (see
    SynthExtract). The benchmark headline uses this path."""
    import ray as _ray

    parallelism = None
    if _ray.is_initialized():
        parallelism = 4 * int(_ray.cluster_resources().get("CPU", 4))
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
    )
    if parallelism:
        ds = ds.repartition(parallelism)  # single-row-group source → split
    cache: dict = {}

    def fused(batch):
        se = cache.get("se")
        if se is None:
            se = cache["se"] = SynthExtract(seed=seed, repeat=repeat, config=config)
        return se(batch)

    # task pool + closure-local cache (the closure is deserialized once per
    # worker process) — see _extract_batch_cached for why not an actor pool
    return ds.map_batches(
        fused,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


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


def plan_mappings(
    docs: ray.data.Dataset,
    cache_dir: Optional[str] = None,
) -> dict:
    """Small-side compatibility wrapper over :func:`plan_mappings_ds`:
    collects the mapping side table to a ``{doc_id: mapping}`` dict for
    ``ray.put`` broadcast (J6). Use ONLY when the mapping count is known
    to be driver-sized; large corpora should pass the Dataset from
    ``plan_mappings_ds`` straight to ``extract_spans_mapped``, which
    size-gates broadcast vs a doc_id hash join."""
    import json

    result: dict = {}
    for batch in plan_mappings_ds(docs, cache_dir=cache_dir).iter_batches(
        batch_format="pyarrow"
    ):
        for doc_id, mj in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("mapping_json").to_pylist(),
        ):
            result[doc_id] = json.loads(mj)
    return result


def extract_spans_mapped(
    docs: ray.data.Dataset,
    mappings,
    config: Optional[ExtractConfig] = None,
    batch_size: int = 32,
    concurrency=None,
    broadcast_limit: int = 200_000,
    num_shards: Optional[int] = None,
) -> ray.data.Dataset:
    """Mapped (hybrid) extraction.

    ``mappings`` is either a ``{doc_id: mapping}`` dict (legacy small-side
    path: shipped to the actor pool via ``ray.put`` once, resolved per
    actor in ``__init__``) or a ``Dataset[doc_id, mapping_json]`` from
    :func:`plan_mappings_ds`. For a Dataset the broadcast is SIZE-GATED:
    ≤ ``broadcast_limit`` mappings are collected and broadcast (bounded
    driver memory, one ``ray.put``); above the bound the mapping side is
    hash-joined to docs on doc_id via a coarse-shard co-partition (both
    sides stamped with ``hash(doc_id) % num_shards``, one shuffle, the
    in-shard task builds a local dict and extracts; ``num_shards``
    defaults to ``default_num_shards()``) — no driver materialization of
    a corpus-scaled side."""
    import ray

    if concurrency is None:
        cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
        concurrency = (1, max(2, cpus))

    if isinstance(mappings, ray.data.Dataset):
        # a LAZY mapping side would run the planner twice (once for the
        # size-gate count, once for the collect or shard join) —
        # materialize ONCE; blocks stay in the object store
        mappings = mappings.materialize()
        n_mappings = mappings.count()
        if n_mappings > broadcast_limit:
            return _extract_mapped_shardjoin(
                docs, mappings, config, num_shards=num_shards
            )
        import json

        collected: dict = {}
        for batch in mappings.iter_batches(batch_format="pyarrow"):
            for doc_id, mj in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("mapping_json").to_pylist(),
            ):
                collected[doc_id] = json.loads(mj)
        mappings = collected

    return docs.map_batches(
        SpanExtractor,
        fn_constructor_kwargs={
            "config": config or ExtractConfig(),
            "mappings": ray.put(mappings),
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=concurrency,
    )


def _extract_mapped_shardjoin(
    docs: ray.data.Dataset,
    mappings: ray.data.Dataset,
    config: Optional[ExtractConfig] = None,
    num_shards: Optional[int] = None,
) -> ray.data.Dataset:
    """Scale path for mapped extraction: co-partition docs and mappings on
    ``hash(doc_id) % num_shards`` (one union + one coarse-shard groupby —
    the same O(num_shards)-scheduling shape as stages/shuffle.groupby_apply),
    then build the per-shard ``{doc_id: mapping}`` dict in-task and run the
    extractor over that shard's docs. Neither side touches the driver."""
    import json

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..schema import SPANS_OUT_SCHEMA
    from ..stages.shuffle import default_num_shards

    cfg = config or ExtractConfig()
    if num_shards is None:
        num_shards = default_num_shards()

    def _shard_of(batch: pa.Table) -> pa.Array:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(np.asarray(ids)) % np.uint64(num_shards)
        return pa.array(h.astype(np.int32))

    def stamp_docs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "__shard": _shard_of(batch),
                "doc_id": batch.column("doc_id"),
                "spans": batch.column("spans"),
                "mapping_json": pa.nulls(n, pa.string()),
            }
        )

    def stamp_maps(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        from ..schema import SPAN_STRUCT

        return pa.table(
            {
                "__shard": _shard_of(batch),
                "doc_id": batch.column("doc_id"),
                "spans": pa.nulls(n, pa.list_(SPAN_STRUCT)),
                "mapping_json": batch.column("mapping_json"),
            }
        )

    unioned = docs.map_batches(stamp_docs, batch_format="pyarrow").union(
        mappings.map_batches(stamp_maps, batch_format="pyarrow")
    )

    def run_shard(shard: pa.Table) -> pa.Table:
        is_map = pc.is_valid(shard.column("mapping_json"))
        maps_tbl = shard.filter(is_map)
        docs_tbl = shard.filter(pc.invert(is_map))
        local = {
            d: json.loads(m)
            for d, m in zip(
                maps_tbl.column("doc_id").to_pylist(),
                maps_tbl.column("mapping_json").to_pylist(),
            )
        }
        if docs_tbl.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], t.type) for t in SPANS_OUT_SCHEMA],
                schema=SPANS_OUT_SCHEMA,
            )
        extractor = SpanExtractor(cfg, mappings=local)
        return extractor(docs_tbl.select(["doc_id", "spans"]))

    return (
        unioned.repartition(num_shards)
        .groupby("__shard")
        .map_groups(run_shard, batch_format="pyarrow")
    )


_WIN_SEP = "\x00win\x00"


def extract_spans_windowed(
    docs: ray.data.Dataset,
    config: Optional[ExtractConfig] = None,
    window_spans: int = 256,
    batch_size: int = 32,
    concurrency=None,
) -> ray.data.Dataset:
    """split_pages analogue (SURVEY.md S7, readers/split_pages.py:87-138):
    fan each doc out into span windows, extract windows independently,
    reassemble per doc in window order with span indices re-stamped.

    Windows only close OUTSIDE a ``table_row`` run, so the reassembled
    sequence is bit-identical to unwindowed extraction (the reference's
    page-batch splits can cut tables at batch boundaries; deferring the
    cut until the run closes removes that artifact). One giant doc no
    longer serializes one actor — its windows extract in parallel — which
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
        concurrency=concurrency,
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


def spans_kind_stats(spans: ray.data.Dataset) -> ray.data.Dataset:
    """Tiny sanity aggregate: span counts by kind (pre-aggregated inside
    map_batches before the small groupby — the partial-agg pattern)."""

    def partial(batch):
        import pyarrow as pa

        counts = pc.value_counts(batch.column("kind"))
        return pa.table(
            {
                "kind": counts.field("values"),
                "partial_count": pc.cast(counts.field("counts"), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        spans.map_batches(partial, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(Sum("partial_count", alias_name="n"))
    )
