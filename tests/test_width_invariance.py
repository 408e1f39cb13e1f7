"""Shard width never changes a result.

Every exchange-bearing pair and join path runs at ``num_shards`` 1, 3 and
None (``default_num_shards()``, cluster-sized) on small in-test inputs,
and must give the same rows. Width 3 is not a power of two; the shard
stamps take ``hash % num_shards``, which fills every shard at any width.
"""

import random

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from paper2table_ray.stages import dedup as dd
from paper2table_ray.stages.ann import embedding_cosine_dedup_pairs

WIDTHS = (1, 3, None)


def _rows(ds) -> list:
    """Order-insensitive, exact view of a Dataset's rows (column names
    first, then the rows sorted by their repr)."""
    df = ds.to_pandas()
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


def test_trigram_shards_fill_a_width_that_is_not_a_power_of_two():
    # a bit mask (hash & 23) would reach only 16 of 24 shards
    text = " ".join(f"w{i}" for i in range(600))
    rows = dd.trigram_shard_rows(pa.table({"doc_id": [1], "text": [text]}), 24)
    assert sorted(set(rows.column("shard").to_pylist())) == list(range(24))


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
