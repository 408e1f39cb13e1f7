"""Coarse-shard groupby: hash-partitioned per-group apply without
per-group scheduler overhead.

``ds.groupby(key).map_groups(fn)`` in Ray 2.49 pays a fixed ~1-3 ms per
GROUP (slice + fn dispatch + format conversion). For per-doc operators the
group count equals the corpus size, so a 5k-doc sf0.1 run spends ~10 s in
pure overhead and a 10^12-doc corpus is unschedulable. ``groupby_apply``
keeps the same per-group semantics but shuffles on ``hash(key) %
num_shards`` — Ray sees O(num_shards) shards; true groups are recovered
inside the shard task by a vectorized sort + run-boundary scan and ``fn``
is applied per group in-process.

The exchange is Ray's own ``map_groups`` shape — ``sort(key)`` then
``map_batches(batch_size=None)`` — run on the shard id with the range
boundaries given (``1 .. num_shards - 1``). Known boundaries skip the
sort's sampling pass, and the sort itself makes ``num_shards`` reduce
outputs, so no ``repartition`` is needed to get one task per shard. Each
sort reducer merges its inputs into one block, so every shard reaches
the shard function in one call.

Semantics guarantee: ``fn`` still receives EXACTLY one full group per
call (all rows for one key, co-located), same as ``map_groups``; only the
scheduling granularity changes. ``num_shards=None`` resolves to
``default_num_shards()`` (2× cluster CPUs, floor 16); every package
exchange defaults to it but two: ``LineageSink.write`` passes
``min(P, cluster CPUs)`` (state/lineage.write_width — its P files, not
its width, are the resume contract) and ``q_filenorm_plan`` passes 16.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Union

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

_SHARD_COL = "__gshard"


def default_num_shards() -> int:
    """Shuffle width derived from the CLUSTER, not a constant: 2 shard
    tasks per core — measured optimum for the merge pipeline at 32 cpus
    (4× cores doubled the per-shard fixed costs: 2.5s vs 1.2s on the
    sf0.1 merge; 1× loses straggler slack). Floor 16 so small dev
    sessions still exercise multi-shard paths."""
    import ray

    cpus = (
        int(ray.cluster_resources().get("CPU", 4))
        if ray.is_initialized()
        else 16
    )
    return max(16, 2 * cpus)


def _key_hash(batch: pa.Table, keys: List[str]) -> np.ndarray:
    acc = np.zeros(batch.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = batch.column(k).to_numpy(zero_copy_only=False)
            h = pd.util.hash_array(np.asarray(col))
            acc = acc * np.uint64(1099511628211) ^ h
    return acc


def apply_fn_per_group(
    tbl: pa.Table,
    key_list: List[str],
    fn: Callable,
    batch_format: str = "pyarrow",
) -> Union[pa.Table, pd.DataFrame, None]:
    """The in-task group-apply kernel of ``groupby_apply``: vectorized
    sort + run-boundary scan over the composite key, ``fn`` applied once
    per full group. ``None`` when no group yields rows: a frame with no
    columns would become a block whose schema has none of the output's.
    A lineage-bucketed store needs no exchange before it:
    ``state/lineage.resumable_merge`` runs one task per partition file."""
    tbl = tbl.sort_by([(k, "ascending") for k in key_list])
    n = tbl.num_rows
    if n == 0:
        return None
    marks = np.zeros(n, dtype=bool)
    for k in key_list:
        arr = tbl.column(k).to_numpy(zero_copy_only=False)
        marks[1:] |= arr[1:] != arr[:-1]
    starts = np.flatnonzero(np.concatenate(([True], marks[1:])))
    ends = np.append(starts[1:], n)
    outs = []
    for s, e in zip(starts, ends):
        group = tbl.slice(s, e - s)
        if batch_format == "pandas":
            group = group.to_pandas()
        out = fn(group)
        if out is None:
            continue
        if isinstance(out, pd.DataFrame):
            if len(out):
                outs.append(out)
        elif out.num_rows:
            outs.append(out)
    if not outs:
        return None
    if isinstance(outs[0], pd.DataFrame):
        return pd.concat(outs, ignore_index=True)
    return pa.concat_tables(outs)


def groupby_apply(
    ds: ray.data.Dataset,
    keys: Union[str, List[str]],
    fn: Callable,
    *,
    num_shards: "int | None" = None,
    batch_format: str = "pyarrow",
) -> ray.data.Dataset:
    """Apply ``fn(group)`` once per distinct key tuple; returns the
    concatenated outputs. ``fn`` gets a ``pa.Table`` (batch_format=
    "pyarrow") or ``pd.DataFrame`` and may return either type."""
    key_list = [keys] if isinstance(keys, str) else list(keys)
    return groupby_apply_table(
        ds,
        key_list,
        lambda tbl: apply_fn_per_group(tbl, key_list, fn, batch_format),
        num_shards=num_shards,
    )


def groupby_apply_table(
    ds: ray.data.Dataset,
    keys: Union[str, List[str]],
    table_fn: Callable,
    *,
    num_shards: "int | None" = None,
) -> ray.data.Dataset:
    """Coarse-shard groupby handing each shard's WHOLE table to
    ``table_fn`` (which owns per-group semantics internally, with the
    shard guaranteed to contain every row of each of its key groups).
    For kernels that amortize decode/encode across a shard's groups —
    e.g. the cells merge decodes the shard once and encodes once instead
    of per doc (pipelines/merge.py::merge_cells_table).

    Shape: stamp ``hash(keys) % num_shards`` → sort on the stamp with
    the boundaries ``1 .. num_shards - 1`` (one reduce block per shard)
    → ``table_fn`` once per non-empty shard block. An empty shard makes
    no call, and a ``None`` from ``table_fn`` yields no block; a typed
    empty table still passes through."""
    key_list = [keys] if isinstance(keys, str) else list(keys)
    if num_shards is None:
        num_shards = default_num_shards()

    def stamp(batch: pa.Table) -> pa.Table:
        shard = (_key_hash(batch, key_list) % np.uint64(num_shards)).astype(
            np.int32
        )
        return batch.append_column(_SHARD_COL, pa.array(shard))

    def run_shard(shard_tbl: pa.Table) -> Iterator[Union[pa.Table, pd.DataFrame]]:
        if shard_tbl.num_rows:
            out = table_fn(shard_tbl.drop_columns([_SHARD_COL]))
            if out is not None:
                yield out

    # an empty boundary list makes Ray sample boundaries instead, so
    # width 1 gets a second range that no stamp reaches
    boundaries = list(range(1, max(num_shards, 2)))
    return (
        ds.map_batches(stamp, batch_format="pyarrow")
        .sort(_SHARD_COL, boundaries=boundaries)
        .map_batches(run_shard, batch_format="pyarrow", batch_size=None)
    )
