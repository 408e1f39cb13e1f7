"""Shard width never changes a result.

Every exchange-bearing pair and join path runs at ``num_shards`` 1, 3 and
None (``default_num_shards()``, cluster-sized) on small in-test inputs,
and must give the same rows. Width 3 is not a power of two; the shard
stamps take ``hash % num_shards``, which fills every shard at any width.
The queries routed through ``groupby_apply_table`` take no width, so
their sweep patches ``default_num_shards`` and also checks the DuckDB
oracle.
"""

import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from paper2table_ray.stages import dedup as dd
from paper2table_ray.stages.ann import embedding_cosine_dedup_pairs

WIDTHS = (1, 3, None)


def _rows(ds) -> list:
    """Order-insensitive, exact view of a Dataset's rows (column names
    first, then the rows sorted by their repr)."""
    df = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
    df = df[sorted(df.columns)]
    return [list(df.columns)] + sorted(df.itertuples(index=False, name=None), key=repr)


def _same_at_every_width(run) -> list:
    results = [_rows(run(w)) for w in WIDTHS]
    for w, got in zip(WIDTHS[1:], results[1:]):
        assert got == results[0], f"num_shards={w} differs from num_shards={WIDTHS[0]}"
    return results[0]


@pytest.fixture(scope="module")
def text_docs(ray_session):
    """40 docs over a small vocabulary; every fifth doc is a one-word edit
    of the one before it, so every pair family finds something."""
    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(60)]
    texts = []
    for i in range(40):
        if i % 5 == 4:
            words = texts[-1].split()
            words[rng.randrange(len(words))] = rng.choice(vocab)
            texts.append(" ".join(words))
        else:
            texts.append(" ".join(rng.choice(vocab) for _ in range(40)))
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(100, 140), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).materialize()


def test_simhash_pairs(text_docs):
    rows = _same_at_every_width(
        lambda w: dd.simhash_pairs(text_docs, max_hamming=6, num_shards=w)
    )
    assert len(rows) > 1


@pytest.mark.parametrize("exact_verify", [True, False])
def test_minhash_lsh_pairs(text_docs, exact_verify):
    rows = _same_at_every_width(
        lambda w: dd.minhash_lsh_pairs(
            text_docs, threshold=0.5, exact_verify=exact_verify, num_shards=w
        )
    )
    assert len(rows) > 1


def test_exact_jaccard_pairs(text_docs):
    rows = _same_at_every_width(
        lambda w: dd.exact_jaccard_pairs(text_docs, threshold=0.5, num_shards=w)
    )
    assert len(rows) > 1


def test_groupby_apply_table_makes_one_call_per_shard(ray_session):
    """At width 24 (not a power of two) over 600 keys in 8 input blocks:
    all 24 shards are called, once each; every key's rows arrive in
    exactly one call; no call gets zero rows."""
    from paper2table_ray.stages.shuffle import _key_hash, groupby_apply_table

    width = 24
    keys = np.repeat(np.arange(600, dtype=np.int64), 3)
    tbl = pa.table({"k": keys, "v": np.arange(len(keys))})
    ds = ray.data.from_arrow([tbl.slice(i, 225) for i in range(0, len(keys), 225)])

    def summarize(shard: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n": [shard.num_rows],
                "keys": [sorted(set(shard.column("k").to_pylist()))],
            }
        )

    calls = groupby_apply_table(ds, "k", summarize, num_shards=width).take_all()
    shard_of = dict(
        zip(keys.tolist(), (_key_hash(tbl, ["k"]) % np.uint64(width)).tolist())
    )
    call_shards = [{shard_of[k] for k in c["keys"]} for c in calls]
    assert all(len(s) == 1 for s in call_shards)
    assert sorted(s.pop() for s in call_shards) == list(range(width))
    seen = [k for c in calls for k in c["keys"]]
    assert sorted(seen) == list(range(600))
    assert all(c["n"] > 0 for c in calls)
    assert sum(c["n"] for c in calls) == len(keys)


def test_embedding_cosine_dedup_pairs(ray_session):
    rng = np.random.RandomState(5)
    base = rng.standard_normal((48, 16))
    # every sixth vector is a slightly perturbed copy of its predecessor
    for i in range(5, 48, 6):
        base[i] = base[i - 1] + 0.01 * rng.standard_normal(16)
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(48), pa.int64()),
                "embedding": pa.array([list(v) for v in base], pa.list_(pa.float64())),
            }
        )
    ).materialize()
    rows = _same_at_every_width(
        lambda w: embedding_cosine_dedup_pairs(
            emb, threshold=0.95, n_bits=4, n_bands=8, dim=16, num_shards=w
        )
    )
    assert len(rows) > 1


@pytest.mark.parametrize("how", ["inner", "left"])
def test_hash_join_shard_path_equal_key_names(ray_session, force_shard_plan, how):
    from paper2table_ray.stages.joins import hash_join

    left = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(30), pa.int64()), "v": pa.array(range(30, 60))})
    ).materialize()
    right = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(0, 30, 3), pa.int64()), "name": [f"n{i}" for i in range(10)]})
    ).materialize()
    force_shard_plan()
    rows = _same_at_every_width(
        lambda w: hash_join(left, right, "doc_id", "doc_id", ["name"], how=how, num_shards=w)
    )
    assert rows[0] == ["doc_id", "name", "v"]
    assert len(rows) - 1 == (10 if how == "inner" else 30)
    assert sum(r[1] is not None for r in rows[1:]) == 10


def test_extract_spans_mapped_shardjoin(ray_session, force_shard_plan):
    from paper2table_ray.pipelines.extract import extract_spans_mapped, plan_mappings_ds
    from paper2table_ray.sources.synth import synth_docs_batch

    rng = random.Random(3)
    raw = pa.table(
        {
            "doc_id": pa.array(range(1, 25), pa.int64()),
            "text": pa.array(
                [
                    ". ".join(
                        " ".join(rng.choice("abcdefghij") * rng.randint(2, 7) for _ in range(9))
                        for _ in range(6)
                    )
                    for _ in range(24)
                ],
                pa.string(),
            ),
        }
    )
    docs = ray.data.from_arrow(synth_docs_batch(raw)).materialize()
    mappings = plan_mappings_ds(docs).materialize()
    force_shard_plan()
    rows = _same_at_every_width(
        lambda w: extract_spans_mapped(docs, mappings, num_shards=w)
    )
    assert len(rows) > 1


@pytest.mark.parametrize(
    "name", ["user_sessions", "asof_event_order", "range_join_order_events"]
)
def test_routed_query(ray_session, monkeypatch, name):
    import duckdb

    import __ray_entry__ as entrymod
    from paper2table_ray.stages import shuffle

    sf = "/root/testdata/sf0.001"
    real = shuffle.default_num_shards

    def run(w):
        monkeypatch.setattr(
            shuffle, "default_num_shards", real if w is None else (lambda: w)
        )
        return entrymod.queries()[name](sf)

    rows = _same_at_every_width(run)
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    oracle = con.execute(entrymod.oracle_sql()[name]).df()
    ints = {c: "int64" for c in oracle.select_dtypes("integer")}
    assert rows == _rows(oracle.astype(ints))
    assert len(rows) > 1


def test_lineage_sink_and_resumable_merge(ray_session, monkeypatch, tmp_path):
    """One cells store written at sink widths 1, 3 and P: the same rows in
    every part file, the same lineage counts, each partition written
    exactly once (widths 1 and 3 put several partitions in one shard),
    and the same ``resumable_merge`` output over each store."""
    import os

    import pyarrow.parquet as pq

    from paper2table_ray.pipelines.merge import MergeConfig
    from paper2table_ray.sources.resultsets import synth_resultsets_batch
    from paper2table_ray.state import lineage

    P = 6
    cells = synth_resultsets_batch(pa.table({"doc_id": pa.array(range(30), pa.int64())}))
    ds = ray.data.from_arrow([cells.slice(i, 60) for i in range(0, cells.num_rows, 60)])

    def file_rows(path: str) -> list:
        return sorted(pq.read_table(path).to_pylist(), key=repr)

    def store_at(width) -> tuple:
        monkeypatch.setattr(lineage, "write_width", lambda num_partitions: width)
        store = str(tmp_path / f"store_w{width}")
        sink = lineage.LineageSink(store, num_partitions=P, stage="cells")
        summary = sink.write(sink.add_partition_column(ds))
        pids = list(summary["partition_id"])
        assert len(pids) == len(set(pids))  # each partition written once
        assert sum(summary["row_count"]) == cells.num_rows
        files = sorted(n for n in os.listdir(store) if n.endswith(".parquet"))
        assert files == [f"part-{p:05d}.parquet" for p in sorted(pids)]
        parts = {f: file_rows(os.path.join(store, f)) for f in files}
        counts = sorted(
            (r["partition_id"], r["doc_count"], r["row_count"])
            for r in sink.lineage_records()
        )
        merged = str(tmp_path / f"merged_w{width}")
        lineage.resumable_merge(store, merged, MergeConfig())
        out = {
            f: file_rows(os.path.join(merged, f))
            for f in sorted(os.listdir(merged))
            if f.endswith(".parquet")
        }
        return parts, counts, out

    results = [store_at(w) for w in (1, 3, P)]
    assert len(results[0][0]) > 3
    for got in results[1:]:
        assert got == results[0]
