"""Size-gated hash join for fact ⨝ dimension shapes.

Ray's native ``Dataset.join`` pays a large fixed setup cost (hash-shuffle
of both sides) that is wasted when one side is dimension-sized, and a
Python ``dict`` broadcast (round-1 shape) puts a fact-scaled side on the
driver heap and probes it row-at-a-time. ``hash_join`` picks the right
plan by measuring the build side:

- build side ≤ ``broadcast_limit`` rows → collected once (bounded driver
  memory), shipped via one ``ray.put``, and probed **vectorized** per
  batch with ``np.searchsorted`` over the sorted key array (no Python
  dict, no per-row loop). Unknown probe keys follow ``how``: ``"inner"``
  drops them (SQL inner-join semantics), ``"left"`` null-fills.
- build side > ``broadcast_limit`` rows or > ``BROADCAST_BYTE_LIMIT``
  bytes → co-partition join: each side is stamped with a side flag, the
  right key is written under the left key's name, and the union goes
  through ``stages/shuffle.groupby_apply_table`` on that key; each shard
  task runs an exact ``pd.merge`` of its two sides. Neither side touches
  the driver.

``post`` (optional) runs on each joined batch INSIDE the join task — use
it to fuse a partial aggregation so the fat joined intermediate never
hits the object store (this sandbox's plasma writes anti-scale; see
BASELINE.md).

Reference analogue: the mapping/metadata broadcast joins of
paper2table (J6, src/paper2table/readers/hybrid.py) generalized to
relational fact⨝dim.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_SIDE = "__jside"

# build sides under broadcast_limit ROWS but over this many BYTES take the
# shard join instead (object-store copy per node is fine; the per-task
# pandas collect on the duplicate-key path is not)
BROADCAST_BYTE_LIMIT = 256 * 1024 * 1024


def _to_arrow_table(side, limit: Optional[int] = None) -> Optional[pa.Table]:
    """Collect ``side`` (pa.Table or Dataset) to one pa.Table; None if a
    Dataset exceeds ``limit`` rows. The caller (``hash_join``) has
    already materialized Dataset sides, so ``count()`` here is block
    metadata, not a plan execution."""
    if isinstance(side, pa.Table):
        if limit is not None and side.num_rows > limit:
            return None
        return side
    if limit is not None and side.count() > limit:
        return None
    batches = [b for b in side.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        schema = side.schema()
        if schema is None:
            return pa.table({})
        base = getattr(schema, "base_schema", None) or pa.schema(
            list(zip(schema.names, schema.types))
        )
        return base.empty_table()
    return pa.concat_tables(batches)


def hash_join(
    left: ray.data.Dataset,
    right: Union[pa.Table, ray.data.Dataset],
    left_key: str,
    right_key: str,
    right_columns: List[str],
    how: str = "inner",
    broadcast_limit: int = 2_000_000,
    num_shards: "int | None" = None,
    batch_size: int = 65536,
    post: Optional[Callable[[pa.Table], pa.Table]] = None,
) -> ray.data.Dataset:
    """Join ``left`` (fact Dataset) with ``right`` on
    ``left_key == right_key``, attaching ``right_columns``. See module
    docstring for plan selection. ``how`` ∈ {"inner", "left"}."""
    if how not in ("inner", "left"):
        raise ValueError(f"how={how!r}: expected 'inner' or 'left'")

    if isinstance(right, ray.data.Dataset):
        # a LAZY right side would execute twice (count() for the size
        # gate, then the collect or the shard shuffle); materialize ONCE
        # — blocks stay in the object store (spillable), the driver
        # holds refs only, and both downstream paths reuse them
        right = right.materialize()
    small = _to_arrow_table(right, limit=broadcast_limit)
    # a build side under the row bound but over the byte bound (WIDE
    # rows) also takes the shard join: a multi-GB side would be ray.put
    # once per job AND pandas-collected per probe task on the
    # duplicate-key path
    if small is not None and small.nbytes <= BROADCAST_BYTE_LIMIT:
        return _broadcast_join(
            left, small, left_key, right_key, right_columns, how, batch_size, post
        )
    if isinstance(right, pa.Table):
        right = ray.data.from_arrow(right)
    return _shard_join(
        left, right, left_key, right_key, right_columns, how, num_shards, post
    )


def _broadcast_join(
    left: ray.data.Dataset,
    right: pa.Table,
    left_key: str,
    right_key: str,
    right_columns: List[str],
    how: str,
    batch_size: int,
    post: Optional[Callable[[pa.Table], pa.Table]],
) -> ray.data.Dataset:
    keys_np = right.column(right_key).to_numpy(zero_copy_only=False)
    unique_keys = len(np.unique(keys_np)) == len(keys_np)
    if unique_keys:
        order = np.argsort(keys_np, kind="stable")
        sorted_keys = keys_np[order]
        payload = {
            c: right.column(c).take(pa.array(order)) for c in right_columns
        }
        build_ref = ray.put((sorted_keys, payload))

        def probe(batch: pa.Table) -> pa.Table:
            skeys, pay = ray.get(build_ref)
            probe_keys = batch.column(left_key).to_numpy(zero_copy_only=False)
            if len(skeys):
                pos = np.searchsorted(skeys, probe_keys)
                pos_c = np.minimum(pos, len(skeys) - 1)
                matched = (pos < len(skeys)) & (skeys[pos_c] == probe_keys)
            else:
                pos_c = np.zeros(len(probe_keys), dtype=np.int64)
                matched = np.zeros(len(probe_keys), dtype=bool)
            if how == "inner":
                keep = np.flatnonzero(matched)
                out = batch.take(pa.array(keep))
                idx = pa.array(pos_c[keep])
                for c in right_columns:
                    col = pay[c].take(idx) if len(skeys) else pa.nulls(0, pay[c].type)
                    out = out.append_column(c, col)
            else:  # left: attach then null-out unmatched, all vectorized
                out = batch
                idx = pa.array(pos_c)
                m = pa.array(matched)
                for c in right_columns:
                    if len(skeys):
                        taken = pay[c].take(idx)
                        if not matched.all():
                            taken = pc.if_else(
                                m, taken, pa.scalar(None, type=pay[c].type)
                            )
                    else:
                        taken = pa.nulls(batch.num_rows, pay[c].type)
                    out = out.append_column(c, taken)
            return post(out) if post is not None else out

        return left.map_batches(probe, batch_format="pyarrow", batch_size=batch_size)

    # duplicate build keys: exact multiplicity via per-batch pd.merge
    build_ref = ray.put(right.select([right_key, *right_columns]).to_pandas())

    def probe_dup(batch: pa.Table) -> pa.Table:
        rdf = ray.get(build_ref)
        ldf = batch.to_pandas()
        merged = ldf.merge(
            rdf,
            how=how,
            left_on=left_key,
            right_on=right_key,
        )
        if right_key != left_key and right_key in merged.columns:
            merged = merged.drop(columns=[right_key])
        out = pa.Table.from_pandas(merged, preserve_index=False)
        return post(out) if post is not None else out

    return left.map_batches(probe_dup, batch_format="pyarrow", batch_size=batch_size)


def _shard_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    right_columns: List[str],
    how: str,
    num_shards: Optional[int],
    post: Optional[Callable[[pa.Table], pa.Table]],
) -> ray.data.Dataset:
    from .shuffle import groupby_apply_table

    left_schema = left.schema()
    left_cols = list(left_schema.names)
    left_types = dict(zip(left_cols, left_schema.types))
    payload = [c for c in right_columns if c not in (right_key, left_key)]
    right = right.select_columns([right_key, *payload])
    right_types = dict(zip(right.schema().names, right.schema().types))
    # both sides share one schema: the side flag, every left column, then
    # the payload; the right key is written under the left key's name, so
    # the exchange co-locates equal keys whatever the two names are
    out_schema = pa.schema(
        [(c, left_types[c]) for c in left_cols]
        + [(c, right_types[c]) for c in payload]
    )

    def stamp_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {_SIDE: pa.array(np.zeros(n, dtype=np.int8))}
        cols.update((c, batch.column(c)) for c in left_cols)
        cols.update((c, pa.nulls(n, right_types[c])) for c in payload)
        return pa.table(cols)

    def stamp_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {_SIDE: pa.array(np.ones(n, dtype=np.int8))}
        cols.update((c, pa.nulls(n, left_types[c])) for c in left_cols)
        cols[left_key] = pc.cast(batch.column(right_key), left_types[left_key])
        cols.update((c, batch.column(c)) for c in payload)
        return pa.table(cols)

    unioned = left.map_batches(stamp_left, batch_format="pyarrow").union(
        right.map_batches(stamp_right, batch_format="pyarrow")
    )

    def run_shard(shard: pa.Table) -> pa.Table:
        is_right = pc.equal(shard.column(_SIDE), 1)
        ldf = shard.filter(pc.invert(is_right)).select(left_cols).to_pandas()
        rdf = shard.filter(is_right).select([left_key, *payload]).to_pandas()
        merged = ldf.merge(rdf, how=how, on=left_key)
        out = pa.Table.from_pandas(merged, schema=out_schema, preserve_index=False)
        return post(out) if post is not None else out

    return groupby_apply_table(unioned, left_key, run_shard, num_shards=num_shards)
