"""Resumable checkpointed output + per-partition lineage (north rule).

The reference's incremental features are ``--append`` skip-if-output-exists
and curation-skip (/root/reference/src/paper2table/__main__.py:327-338,
tablemerge/__main__.py:214-220 — SURVEY.md J7/J8). At 100 TB the same idea
becomes: **deterministic partition ids + idempotent partition files + a
lineage manifest checked before scheduling work**:

- partition_id = blake2(doc_id) % P — stable across runs, machines, scale;
- a restarted job reads ``_lineage/`` and drops completed partitions from
  the *input* (broadcast anti-join inside map_batches), so the expensive
  parse is skipped for finished work, not just the write;
- each partition writes atomically (tmp file + ``os.replace``) and then its
  lineage row ``(partition_id, stage, doc_count, row_count, wall_ms,
  status)`` — a crash between the two re-runs just that partition,
  overwriting the same deterministic filename (idempotent);
- the final placement of rows into partition files is the shared
  exchange (``groupby_apply_table`` on ``partition_id``) at the cluster's
  width, one file per partition whatever the width — the one shuffle a
  checkpointed sink costs; everything upstream streams.

Local sandbox writes parquet; on a Lance-backed deployment the same
manifest logic keys Lance fragment commits (SURVEY.md §1.3).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import List, Optional, Set

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..stages.shuffle import apply_fn_per_group, groupby_apply_table


def _write_lineage_json(lineage_dir: str, pid: int, rec: dict) -> None:
    """Durable atomic lineage publish: close+fsync BEFORE the rename so a
    crash can never expose a truncated file (json.dump on an unclosed
    handle relies on CPython refcounting to flush — not a guarantee)."""
    ltmp = os.path.join(lineage_dir, f"{pid:05d}.json.tmp")
    with open(ltmp, "w") as f:
        json.dump(rec, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(ltmp, os.path.join(lineage_dir, f"{pid:05d}.json"))


def partition_of(doc_id: str, num_partitions: int) -> int:
    h = int.from_bytes(
        hashlib.blake2b(doc_id.encode(), digest_size=8).digest(), "little"
    )
    return h % num_partitions


def partition_ids(ids: pa.ChunkedArray, num_partitions: int) -> pa.Array:
    """``partition_of`` of every id, hashed once per distinct id. A
    non-string id places by its text (an int64 casts to what ``str()``
    gives); a null id raises, as ``partition_of(None)`` does."""
    enc = pc.cast(ids, pa.string()).combine_chunks().dictionary_encode(null_encoding="encode")
    pids = [partition_of(d, num_partitions) for d in enc.dictionary.to_pylist()]
    return pa.array(pids, type=pa.int32()).take(enc.indices)


def write_width(num_partitions: int) -> int:
    """Reduce tasks of ``LineageSink.write``: one per cluster CPU (those
    Ray's auto-init would take, before Ray runs), at most P."""
    import ray

    cpus = ray.cluster_resources().get("CPU") if ray.is_initialized() else os.cpu_count()
    return max(1, min(num_partitions, int(cpus or 1)))


class LineageSink:
    def __init__(self, output_dir: str, num_partitions: int = 64, stage: str = "extract"):
        self.output_dir = output_dir
        self.num_partitions = num_partitions
        self.stage = stage
        self.lineage_dir = os.path.join(output_dir, "_lineage")
        os.makedirs(self.lineage_dir, exist_ok=True)

    # -- manifest ------------------------------------------------------------

    def completed_partitions(self) -> Set[int]:
        done = set()
        for name in os.listdir(self.lineage_dir):
            if name.endswith(".json"):
                try:
                    with open(os.path.join(self.lineage_dir, name)) as f:
                        rec = json.load(f)
                    if rec.get("status") == "ok":
                        done.add(int(rec["partition_id"]))
                except (ValueError, KeyError):
                    continue
        return done

    def lineage_records(self) -> List[dict]:
        out = []
        for name in sorted(os.listdir(self.lineage_dir)):
            if name.endswith(".json"):
                with open(os.path.join(self.lineage_dir, name)) as f:
                    out.append(json.load(f))
        return out

    # -- pipeline hooks ------------------------------------------------------

    def add_partition_column(self, ds: ray.data.Dataset, id_col: str = "doc_id"):
        """Stamp ``partition_id`` (``partition_ids``) from ``id_col``."""
        num_partitions = self.num_partitions

        def stamp(batch: pa.Table) -> pa.Table:
            pids = partition_ids(batch.column(id_col), num_partitions)
            return batch.append_column("partition_id", pids)

        return ds.map_batches(stamp, batch_format="pyarrow")

    def filter_pending(self, ds: ray.data.Dataset) -> ray.data.Dataset:
        """Anti-join against completed partitions (broadcast set — no
        shuffle). Run BEFORE expensive stages so resume skips their work."""
        done = self.completed_partitions()
        if not done:
            return ds
        done_arr = pa.array(sorted(done), type=pa.int32())

        def drop_done(batch: pa.Table) -> pa.Table:
            keep = pc.invert(
                pc.is_in(batch.column("partition_id"), value_set=done_arr)
            )
            return batch.filter(keep)

        return ds.map_batches(drop_done, batch_format="pyarrow")

    def write(self, ds: ray.data.Dataset) -> pd.DataFrame:
        """Place rows into deterministic partition files + lineage rows.
        Returns the summary (one row per partition written)."""
        output_dir, lineage_dir, stage = self.output_dir, self.lineage_dir, self.stage
        os.makedirs(output_dir, exist_ok=True)

        def write_partition(group: pa.Table) -> pd.DataFrame:
            t0 = time.perf_counter()
            pid = group.column("partition_id")[0].as_py()
            final = os.path.join(output_dir, f"part-{pid:05d}.parquet")
            tmp = final + ".tmp"
            body = group.drop_columns(["partition_id"])
            pq.write_table(body, tmp)
            os.replace(tmp, final)  # atomic on one filesystem
            rec = {
                "partition_id": pid,
                "stage": stage,
                "doc_count": pc.count_distinct(group.column("doc_id"), mode="all").as_py(),
                "row_count": group.num_rows,
                "wall_ms": int((time.perf_counter() - t0) * 1000),
                "status": "ok",
            }
            _write_lineage_json(lineage_dir, pid, rec)
            return pd.DataFrame([rec])

        # one file per partition_id at a fixed P (the CLI's --partitions)
        # is the resume contract; the width only sets the reduce tasks
        summaries = groupby_apply_table(
            ds,
            "partition_id",
            lambda shard: apply_fn_per_group(shard, ["partition_id"], write_partition),
            num_shards=write_width(self.num_partitions),
        ).to_pandas()
        if summaries.empty:  # typed, so an empty run still has its header
            cols = ["partition_id", "stage", "doc_count", "row_count", "wall_ms", "status"]
            return pd.DataFrame(columns=cols)
        return summaries.sort_values("partition_id", ignore_index=True)


def resumable_extract(
    sf_dir: str,
    output_dir: str,
    num_partitions: int = 32,
    config=None,
) -> pd.DataFrame:
    """Flagship pipeline with checkpoint/resume: synth docs → drop
    completed partitions → extract → partitioned+lineage write."""
    from ..pipelines.extract import extract_spans, synth_docs_dataset

    sink = LineageSink(output_dir, num_partitions=num_partitions, stage="extract")
    docs = sink.add_partition_column(synth_docs_dataset(sf_dir))
    docs = sink.filter_pending(docs)
    spans = extract_spans(docs, config=config)
    # partition_id survives extraction? no — extractor re-emits its own
    # schema, so re-stamp from doc_id (deterministic, cheap).
    spans = sink.add_partition_column(spans)
    return sink.write(spans)


def read_extracted(output_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(output_dir, file_extensions=["parquet"])


def resumable_merge(
    store_dir: str,
    output_dir: str,
    config=None,
) -> pd.DataFrame:
    """Shuffle-free RESUMABLE merge over a lineage-bucketed cells store
    (SURVEY.md J1 + J7 at 100 TB; reference analogues: tablemerge +
    ``--append``, tablemerge/__main__.py:214-220).

    The input store (a ``LineageSink.write`` output of CELLS_SCHEMA rows)
    already co-locates every doc_id in exactly one ``part-XXXXX.parquet``,
    so the merge needs NO exchange: one Ray task per *pending* partition
    file reads it, merges per doc locally (same kernel as
    ``merge_pipeline``), and writes the merged partition + its lineage
    row atomically. Output partitioning mirrors the input's (partition i
    → ``part-i``), keeping the ONE placement shuffle the corpus ever
    paid reusable downstream. A killed run re-schedules only partitions
    whose lineage row is missing — completed ones are never re-read, so
    resume cost is O(pending), not O(corpus).

    Returns one summary row per input partition: ``status`` "ok" for
    partitions merged this run, "skipped" for ones a prior run completed.
    """
    import ray

    from ..pipelines.merge import MergeConfig, merge_cells_table

    cfg = config or MergeConfig()
    sink = LineageSink(output_dir, stage="merge")
    completed = sink.completed_partitions()
    output_dir_, lineage_dir = sink.output_dir, sink.lineage_dir

    paths = sorted(
        name
        for name in os.listdir(store_dir)
        if name.startswith("part-") and name.endswith(".parquet")
    )

    @ray.remote
    def merge_partition(path: str, pid: int) -> dict:
        t0 = time.perf_counter()
        tbl = pq.read_table(path)
        # whole-partition kernel: one decode + one encode per partition
        merged = merge_cells_table(tbl, cfg)
        final = os.path.join(output_dir_, f"part-{pid:05d}.parquet")
        tmp = final + ".tmp"
        pq.write_table(merged, tmp)
        os.replace(tmp, final)
        rec = {
            "partition_id": pid,
            "stage": "merge",
            "doc_count": pc.count_distinct(merged.column("doc_id"), mode="all").as_py(),
            "row_count": merged.num_rows,
            "wall_ms": int((time.perf_counter() - t0) * 1000),
            "status": "ok",
        }
        _write_lineage_json(lineage_dir, pid, rec)
        return rec

    refs, skipped = [], []
    for name in paths:
        pid = int(name.removeprefix("part-").removesuffix(".parquet"))
        if pid in completed:
            skipped.append(
                {"partition_id": pid, "stage": "merge", "status": "skipped"}
            )
            continue
        refs.append(merge_partition.remote(os.path.join(store_dir, name), pid))

    # summary rows only — a few dicts per partition, never data
    rows = skipped + list(ray.get(refs))
    return (
        pd.DataFrame(rows).sort_values("partition_id").reset_index(drop=True)
        if rows
        else pd.DataFrame(
            columns=["partition_id", "stage", "status"]  # empty store
        )
    )
