"""End-to-end training-data curation pipeline.

Composes the engine's curation operators into the standard pre-training
funnel over a ``documents``-shaped table:

    read (column-pruned) → text features + quality score (vectorized)
    → language ID (worker-cached) → lang/quality filters → exact dedup
    (hash-partitioned survivor aggregate + broadcast-or-shard semi-join)
    → PII redaction (worker-cached) → partitioned lineage write (resumable)

Every stage streams; the only exchanges are the dedup survivor aggregate
(O(docs) slim (hash, id) rows) and the final placement shuffle of the
checkpointed sink. A killed run resumes from the lineage manifest and
re-extracts only pending partitions (state/lineage.py).
"""

from __future__ import annotations

from typing import List, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages.dedup import exact_dedup
from ..stages.joins import hash_join
from ..stages.textqc import LanguageId, Redactor, add_quality_score, add_text_features
from ..stages.workercache import worker_cached


def curate_pipeline(
    docs: ray.data.Dataset,
    langs: Optional[List[str]] = None,
    min_quality: float = 0.0,
    dedup: bool = True,
    redact: bool = False,
    dedup_base: Optional[ray.data.Dataset] = None,
) -> ray.data.Dataset:
    """documents (doc_id, text) → curated documents with ``lang_pred``
    and ``quality_score`` attached (plus ``redacted``/``n_redactions``
    when ``redact``).

    ``dedup_base``: dataset the dedup survivor set is computed over
    (defaults to ``docs``). A RESUMED job must pass the FULL corpus here
    while ``docs`` carries only pending partitions — survivor selection
    is global (min id per content hash) and would silently change if
    computed over the pending slice alone."""
    ds = docs.map_batches(add_text_features, batch_format="pyarrow")
    ds = ds.map_batches(add_quality_score, batch_format="pyarrow")
    # cheap state (stopword sets) → task pool + worker-local cache, not an
    # actor pool (pool spawn dominates short runs; stages/workercache.py)
    ds = ds.map_batches(worker_cached(LanguageId), batch_format="pyarrow")

    lang_arr = pa.array(langs, pa.string()) if langs else None
    minq = float(min_quality)

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.greater_equal(batch.column("quality_score"), minq)
        if lang_arr is not None:
            mask = pc.and_(
                mask, pc.is_in(batch.column("lang_pred"), value_set=lang_arr)
            )
        out = batch.filter(mask)
        return out.select(["doc_id", "text", "lang_pred", "quality_score"])

    ds = ds.map_batches(keep, batch_format="pyarrow")

    if dedup:
        # (doc_id, content_hash), min id per hash — over the full corpus
        survivors = exact_dedup(dedup_base if dedup_base is not None else docs)
        # semi-join: keep only survivor ids (size-gated broadcast probe /
        # coarse-shard join — stages/joins.py)
        ds = hash_join(ds, survivors, "doc_id", "doc_id", ["content_hash"])
        ds = ds.map_batches(
            lambda b: b.drop_columns(["content_hash"]), batch_format="pyarrow"
        )

    if redact:
        ds = ds.map_batches(worker_cached(Redactor), batch_format="pyarrow")

    return ds


def curate_to_dir(
    input_parquet: str,
    output_dir: str,
    langs: Optional[List[str]] = None,
    min_quality: float = 0.0,
    dedup: bool = True,
    redact: bool = False,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Resumable curation job: parquet in → lineage-partitioned parquet
    out. Re-running after a crash re-processes only pending partitions
    (the input is anti-joined against the lineage manifest BEFORE the
    expensive stages)."""
    from ..state.lineage import LineageSink

    sink = LineageSink(output_dir, num_partitions=num_partitions, stage="curate")
    docs = ray.data.read_parquet(input_parquet, columns=["doc_id", "text"])

    docs = sink.filter_pending(sink.add_partition_column(docs))
    docs = docs.map_batches(
        lambda b: b.drop_columns(["partition_id"]), batch_format="pyarrow"
    )

    full_corpus = ray.data.read_parquet(input_parquet, columns=["doc_id", "text"])
    curated = curate_pipeline(
        docs,
        langs=langs,
        min_quality=min_quality,
        dedup=dedup,
        redact=redact,
        dedup_base=full_corpus,
    )
    return sink.write(sink.add_partition_column(curated))
