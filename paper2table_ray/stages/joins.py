"""Size-gated hash join for fact ⨝ dimension shapes: the package's one
gate between broadcast and exchange.

Ray's native ``Dataset.join`` hash-shuffles both sides even when one is
dimension-sized. ``hash_join`` reads the build side's row count and byte
size (a materialized Dataset's block metadata) before anything is
collected, against two module constants:

- build side ≤ ``BROADCAST_ROW_LIMIT`` rows and ≤ ``BROADCAST_BYTE_LIMIT``
  bytes → collected once, shipped via one ``ray.put``, and probed
  **vectorized** per batch with ``np.searchsorted`` over the sorted key
  array (no Python dict, no per-row loop). Unknown probe keys follow
  ``how``: ``"inner"`` drops them (SQL inner-join semantics), ``"left"``
  null-fills.
- either limit exceeded → co-partition join: each side is stamped with
  a side flag, the right key is written under the left key's name, and
  the union goes through ``stages/shuffle.groupby_apply_table`` on that
  key; each shard task runs an exact ``pd.merge`` of its two sides.
  Neither side touches the driver.

``post`` (optional) runs on each joined batch INSIDE the join task, so a
fused partial aggregation or verify keeps the wide joined intermediate
out of the object store (plasma writes anti-scale; see BASELINE.md).

``attach_pair_sides`` is the pair-verification shape (MinHash and
embedding-cosine dedup): it narrows a feature side to the ids of a pair
Dataset (when the pairs are within the row limit) and attaches the
features to both pair ends with two ``hash_join`` calls behind the gate.

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

# the broadcast gate: a build side within BOTH limits is collected and
# broadcast, a larger one takes the shard join. Rows bound the driver
# collect; bytes bound the object-store copy and the per-task pandas
# collect of the duplicate-key path (wide rows)
BROADCAST_ROW_LIMIT = 2_000_000
BROADCAST_BYTE_LIMIT = 256 * 1024 * 1024
# attach_pair_sides' probe batches: about this many bytes of one side's features
_PAIR_BATCH_BYTES = 32 * 1024 * 1024


def _fits_broadcast(side) -> bool:
    """The gate, on sizes known before any collect (Dataset: block metadata)."""
    if isinstance(side, pa.Table):
        rows, nbytes = side.num_rows, side.nbytes
    else:
        rows, nbytes = side.count(), side.size_bytes() or 0
    return rows <= BROADCAST_ROW_LIMIT and nbytes <= BROADCAST_BYTE_LIMIT


def _to_arrow_table(side) -> pa.Table:
    """Collect ``side`` (pa.Table or Dataset) to one pa.Table."""
    if isinstance(side, pa.Table):
        return side
    blocks = side.iter_batches(batch_format="pyarrow", batch_size=None)  # no re-slicing
    batches = [b for b in blocks if b.num_rows]
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
        # materialized ONCE (the driver holds block refs only): the gate
        # reads its metadata, then the collect or the shard shuffle its blocks
        right = right.materialize()
    if _fits_broadcast(right):
        return _broadcast_join(
            left, _to_arrow_table(right), left_key, right_key, right_columns,
            how, batch_size, post,
        )
    if isinstance(right, pa.Table):
        right = ray.data.from_arrow(right)
    return _shard_join(
        left, right, left_key, right_key, right_columns, how, num_shards, post
    )


def attach_pair_sides(
    pairs: ray.data.Dataset,
    side: ray.data.Dataset,
    a_key: str,
    b_key: str,
    side_key: str,
    columns: List[str],
    num_shards: "int | None" = None,
    post: Optional[Callable[[pa.Table], pa.Table]] = None,
) -> ray.data.Dataset:
    """Attach ``side``'s ``columns`` to both ends of each pair: as
    ``<col>_a`` where ``side_key == a_key`` and as ``<col>_b`` where
    ``side_key == b_key``, with two inner ``hash_join`` calls.

    ``pairs`` is materialized once. Within ``BROADCAST_ROW_LIMIT`` pairs
    (a block-metadata count) their distinct id set is collected and
    ``side`` is narrowed to those ids, so a broadcast collects the pairs'
    features, not the whole side's; above it the pairs never reach the
    driver. ``post`` runs on each attached batch in the second join's
    task, so a fused verify stores no feature-carrying pair row."""
    pairs = pairs.materialize()
    if pairs.count() <= BROADCAST_ROW_LIMIT:
        per_batch = [
            pc.unique(pa.chunked_array(b.column(a_key).chunks + b.column(b_key).chunks))
            for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
        ids_ref = ray.put(pc.unique(pa.chunked_array(per_batch)) if per_batch else None)

        def pick(batch: pa.Table) -> pa.Table:
            ids = ray.get(ids_ref)
            if ids is None:
                return batch.slice(0, 0)
            return batch.filter(pc.is_in(batch.column(side_key), value_set=ids))

        side = side.map_batches(pick, batch_format="pyarrow").materialize()
    else:
        side = side.materialize()

    def suffixed(sfx: str) -> Callable[[pa.Table], pa.Table]:
        return lambda t: t.rename_columns(
            [c + sfx if c in columns else c for c in t.column_names]
        )

    # one gate decision for both joins (same side): broadcast, one collect
    # serves both and the two probes fuse into one task
    broadcast = _fits_broadcast(side)
    batch_size = 65536
    if broadcast:
        side = _to_arrow_table(side)
        rows = _PAIR_BATCH_BYTES * side.num_rows // max(side.nbytes, 1)
        batch_size = max(1, min(batch_size, rows))
    with_a = hash_join(
        pairs, side, a_key, side_key, columns,
        num_shards=num_shards, post=suffixed("_a"), batch_size=batch_size,
    )
    if not broadcast:
        # the second shard join reads its left schema, which would
        # otherwise execute the first join an extra time
        with_a = with_a.materialize()
    with_b = suffixed("_b")
    return hash_join(
        with_a, side, b_key, side_key, columns, num_shards=num_shards,
        post=with_b if post is None else (lambda t: post(with_b(t))),
        batch_size=batch_size,
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
                # every key matched (pair attach): no copy of a wide batch
                out = batch if len(keep) == batch.num_rows else batch.take(pa.array(keep))
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
