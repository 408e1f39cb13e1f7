"""Dedup, text-analysis and similarity-search operators (unit + small-scale
Ray runs with brute-force cross-checks)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from paper2table_ray.stages import dedup as dd
from paper2table_ray.stages import textqc as tq
from paper2table_ray.stages.ann import (
    SignLSHIndexer,
    embedding_cosine_dedup_pairs,
    lsh_bucketed_topk,
    topk_cosine,
)

SF = "/root/testdata/sf0.001"


class TestTextQC:
    def test_features(self):
        batch = pa.table({"doc_id": [1], "text": ["Hello, world! One two."]})
        out = tq.add_text_features(batch)
        assert out.column("token_count").to_pylist() == [4]
        assert out.column("punct_count").to_pylist() == [3]
        assert out.column("fingerprint").to_pylist()[0] == tq.fingerprint_md5(
            "Hello, world! One two."
        )

    def test_canonical_matches_duckdb(self):
        import duckdb

        texts = ["  A  B\tc ", "x", "", "Ünï code  here"]
        con = duckdb.connect()
        for t in texts:
            sql = con.execute(
                "select md5(lower(trim(regexp_replace(?, '\\s+', ' ', 'g'))))", [t]
            ).fetchone()[0]
            assert sql == tq.fingerprint_md5(t)

    def test_language_id(self):
        lid = tq.LanguageId()
        assert lid.classify("the cat and the dog are in the house") == "en"
        assert lid.classify("el perro y el gato en la casa") == "es"
        assert lid.classify("der Hund und die Katze im Haus") == "de"
        assert lid.classify("le chien et le chat dans la maison est") == "fr"
        assert lid.classify("12345 67890") == "und"
        assert lid.classify("") == "und"

    def test_quality_score_bounds(self):
        batch = tq.add_text_features(
            pa.table({"text": ["the and of " * 40, "x", "!!!!!!!!"]})
        )
        out = tq.add_quality_score(batch)
        scores = out.column("quality_score").to_pylist()
        assert all(0.0 <= s <= 1.0 for s in scores)
        assert scores[0] > scores[2]

    # doc 463 of the perfbench curate corpus at seed 973: 28 tokens, no
    # English stopwords, punctuation ratio 0.02 — its score sits on the
    # 0.4 threshold, and a different summation order moves its last bit
    THRESHOLD_DOC = (
        "De neadgbsn fgpt la ludc que se para por vyajpdlwad ejeuatt el por "
        "que nyvofrbm. Tcum emnfva del dmjm un dbiysrorpe. Vviv es la para "
        "jhdjog las titbg."
    )

    def test_quality_score_bit_equal_to_oracle(self):
        import duckdb

        from paper2table_ray.pipelines.queries import ORACLE_SQL

        sql = ORACLE_SQL["curate_docs"]
        scored_sql = sql[: sql.index("), survivors AS")] + ") SELECT quality_score FROM scored"
        documents = pa.table({"doc_id": [463], "text": [self.THRESHOLD_DOC]})
        con = duckdb.connect()
        con.register("documents", documents)
        (oracle,) = con.execute(scored_sql).fetchone()
        batch = tq.add_text_features(documents)
        (engine,) = tq.add_quality_score(batch).column("quality_score").to_pylist()
        assert engine == oracle
        assert oracle < 0.4

    def test_curate_drops_doc_below_threshold(self, ray_session):
        from paper2table_ray.pipelines.curate import curate_pipeline

        docs = ray.data.from_arrow(
            pa.table({"doc_id": [463], "text": [self.THRESHOLD_DOC]})
        )
        assert curate_pipeline(docs, min_quality=0.4).count() == 0

    def test_winnow_sketch(self):
        a = tq.winnow_fingerprints("one two three four five six seven eight nine ten")
        b = tq.winnow_fingerprints("one two three four five six seven eight nine ten")
        assert a == b and len(a) > 0
        c = tq.winnow_fingerprints("totally different words here from another doc ok")
        assert a != c
        assert tq.winnow_fingerprints("tiny") == []


class TestMinHash:
    def test_signature_estimates_jaccard(self):
        a, b = dd._perm_params(256)
        base = "the quick brown fox jumps over the lazy dog " * 5
        s1 = dd._shingle_hashes(base, 3)
        s2 = dd._shingle_hashes(base + " extra tail words here now", 3)
        sig1 = dd.minhash_signature(s1, a, b)
        sig2 = dd.minhash_signature(s2, a, b)
        est = (sig1 == sig2).mean()
        true = len(set(s1) & set(s2)) / len(set(s1) | set(s2))
        assert abs(est - true) < 0.15
        assert (sig1 == dd.minhash_signature(s1, a, b)).all()

    def test_simhash_similar_texts_close(self):
        t1 = "alpha beta gamma delta epsilon zeta eta theta " * 3
        t2 = t1 + "iota"
        d = bin(dd.simhash64(t1) ^ dd.simhash64(t2)).count("1")
        assert d <= 12
        far = bin(
            dd.simhash64(t1) ^ dd.simhash64("completely unrelated content words")
        ).count("1")
        assert far > d


def _near_dup_docs():
    base = (
        "spark join filter table scan merge sort window batch stream "
        "group agg row column vector hash key order value query data "
    )
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + "tiny tail"},  # near dup of 1
        {"doc_id": 3, "text": base.replace("spark", "flink", 1)},  # near dup of 1
        {"doc_id": 4, "text": "completely different words in this one document ok"},
        {"doc_id": 5, "text": base},  # exact dup of 1
    ]
    return rows


@pytest.mark.usefixtures("ray_session")
class TestDedupRay:
    def test_exact_dedup(self):
        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": "same content"},
                {"doc_id": 2, "text": "same content"},
                {"doc_id": 3, "text": "other content"},
            ]
        )
        out = dd.exact_dedup(ds).to_pandas().sort_values("doc_id")
        assert out["doc_id"].tolist() == [1, 3]

    def test_minhash_lsh_finds_near_dups(self):
        ds = ray.data.from_items(_near_dup_docs())
        pairs = dd.minhash_lsh_pairs(ds, threshold=0.6, exact_verify=True).to_pandas()
        got = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
        assert (1, 5) in got  # exact dup
        assert (1, 2) in got  # near dup
        assert not any(4 in p for p in got)
        # jaccard values exact (verified on true shingle sets)
        exact_15 = pairs[
            (pairs.doc_a == 1) & (pairs.doc_b == 5)
        ]["jaccard"].iloc[0]
        assert exact_15 == 1.0

    def test_minhash_persisted_signature_path_identical(self, tmp_path):
        # persist_threshold=0 forces the parquet signature spill path;
        # results must be identical to the in-memory materialize path
        ds = ray.data.from_items(_near_dup_docs())
        kw = dict(threshold=0.6, exact_verify=True)
        mem = dd.minhash_lsh_pairs(ds, **kw).to_pandas()
        spilled = dd.minhash_lsh_pairs(
            ds, persist_threshold=0, sig_spill_dir=str(tmp_path), **kw
        ).to_pandas()
        key = lambda df: sorted(
            (a, b, round(j, 10))
            for a, b, j in zip(df["doc_a"], df["doc_b"], df["jaccard"])
        )
        assert key(mem) == key(spilled)
        import os as _os

        assert any(
            name.startswith("p2t_minhash_sigs_") for name in _os.listdir(tmp_path)
        )

    def test_minhash_no_pairs_keeps_caller_id_type(self):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([7], pa.int64()), "text": ["one two three four"]})
        )
        out = dd.minhash_lsh_pairs(ds, threshold=0.5).to_arrow_refs()
        tbl = pa.concat_tables(ray.get(out))
        assert tbl.num_rows == 0
        assert tbl.schema == pa.schema(
            [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]
        )

    @pytest.mark.parametrize("exact_verify", [True, False])
    def test_minhash_verify_over_byte_bound_joins(self, monkeypatch, exact_verify):
        # candidate features over the broadcast byte bound take the
        # two shard joins; they must find the same pairs and values
        from paper2table_ray.stages import joins

        ds = ray.data.from_items(_near_dup_docs()).materialize()
        kw = dict(threshold=0.6, exact_verify=exact_verify)
        broadcast = dd.minhash_lsh_pairs(ds, **kw).to_pandas()
        monkeypatch.setattr(joins, "BROADCAST_BYTE_LIMIT", 0)
        joins_run = []
        real_join = joins._shard_join

        def counting_join(*args, **kwargs):
            joins_run.append(1)
            return real_join(*args, **kwargs)

        monkeypatch.setattr(joins, "_shard_join", counting_join)
        joined = dd.minhash_lsh_pairs(ds, **kw).to_pandas()
        key = lambda df: sorted(zip(df["doc_a"], df["doc_b"], df["jaccard"]))
        assert key(broadcast) == key(joined)
        assert len(broadcast) > 0
        assert len(joins_run) == 2

    def test_minhash_string_ids_on_the_shard_plan(self, force_shard_plan):
        # the pair-distinct exchange emits pandas blocks; the verify's
        # shard joins must still type string ids as Arrow strings
        rows = [
            {"doc_id": f"d{r['doc_id']}", "text": r["text"]}
            for r in _near_dup_docs()[:3]
        ]
        ds = ray.data.from_items(rows).materialize()
        force_shard_plan()
        out = dd.minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
        assert sorted(zip(out["doc_a"], out["doc_b"])) == [
            ("d1", "d2"), ("d1", "d3"), ("d2", "d3"),
        ]

    def test_simhash_pairs(self):
        ds = ray.data.from_items(_near_dup_docs())
        pairs = dd.simhash_pairs(ds, max_hamming=10).to_pandas()
        got = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
        assert (1, 5) in got
        assert not any(4 in p for p in got)


@pytest.mark.usefixtures("ray_session")
class TestANN:
    def _embeddings(self):
        return ray.data.read_parquet(f"{SF}/embeddings.parquet")

    def _query(self):
        t = pq.read_table(f"{SF}/embeddings.parquet")
        return np.asarray(t.column("embedding").to_pylist()[0], dtype=np.float64)

    def test_topk_matches_bruteforce(self):
        q = self._query()
        got = topk_cosine(self._embeddings(), q, k=5).to_pandas()

        t = pq.read_table(f"{SF}/embeddings.parquet")
        m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q)
        scores = mn @ qn
        exp_ids = np.asarray(t.column("vec_id"))[np.argsort(-scores)[:5]]
        assert got["vec_id"].tolist() == exp_ids.tolist()
        assert got["score"].iloc[0] == pytest.approx(1.0)

    def test_lsh_topk_contains_query_vector(self):
        q = self._query()
        got = lsh_bucketed_topk(self._embeddings(), q, k=5).to_pandas()
        assert len(got) <= 5 and len(got) >= 1
        assert got["vec_id"].iloc[0] == 0  # the query vector itself

    def test_embedding_dedup_finds_identical(self):
        rows = [
            {"vec_id": 1, "embedding": [1.0, 0.0, 0.0, 0.0]},
            {"vec_id": 2, "embedding": [1.0, 0.001, 0.0, 0.0]},
            {"vec_id": 3, "embedding": [0.0, 1.0, 0.0, 0.0]},
        ]
        ds = ray.data.from_items(rows)
        pairs = embedding_cosine_dedup_pairs(ds, threshold=0.99, n_bits=2, dim=4)
        got = pairs.to_pandas()
        assert {(a, b) for a, b in zip(got["id_a"], got["id_b"])} == {(1, 2)}

    def test_embedding_dedup_without_candidates_is_empty(self):
        # opposite vectors differ in every sign bit: no bucket pairs them
        rows = [
            {"vec_id": 1, "embedding": [1.0, 0.0, 0.0, 0.0]},
            {"vec_id": 2, "embedding": [-1.0, 0.0, 0.0, 0.0]},
        ]
        pairs = embedding_cosine_dedup_pairs(
            ray.data.from_items(rows), threshold=0.5, n_bits=2, dim=4
        )
        assert pairs.count() == 0

    def test_embedding_dedup_on_the_shard_plan_with_a_pairless_shard(
        self, force_shard_plan
    ):
        # a shard that holds side rows but no candidate pair runs the
        # verify on zero rows
        rows = [
            {"vec_id": 1, "embedding": [1.0, 0.0, 0.0, 0.0]},
            {"vec_id": 2, "embedding": [0.9, 0.1, 0.0, 0.0]},
        ]
        force_shard_plan()
        pairs = embedding_cosine_dedup_pairs(
            ray.data.from_items(rows), threshold=0.5, n_bits=2, dim=4
        ).to_pandas()
        assert list(zip(pairs["id_a"], pairs["id_b"])) == [(1, 2)]

    def test_exact_dedup_pairs_match_bruteforce(self):
        from paper2table_ray.stages.ann import embedding_dedup_pairs_exact

        got = (
            embedding_dedup_pairs_exact(self._embeddings(), threshold=0.45)
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        t = pq.read_table(f"{SF}/embeddings.parquet")
        m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        ids = np.asarray(t.column("vec_id"))
        sims = mn @ mn.T
        ia, ib = np.nonzero((sims >= 0.45) & (ids[:, None] < ids[None, :]))
        expect = sorted(zip(ids[ia].tolist(), ids[ib].tolist()))
        assert list(zip(got["id_a"], got["id_b"])) == expect
        assert len(expect) > 0  # non-trivial: the emit path is exercised

    def test_exact_dedup_raises_above_broadcast_limit(self):
        from paper2table_ray.stages.ann import embedding_dedup_pairs_exact

        with pytest.raises(ValueError, match="LSH scale path"):
            embedding_dedup_pairs_exact(
                self._embeddings(), threshold=0.45, broadcast_limit=10
            )

    def test_lsh_dedup_recall_vs_exact(self):
        """The LSH scale path must recover a floor fraction of the exact
        pairs on real driver data (recall is per-bucket; n_bits trades
        recall for candidate-set size)."""
        from paper2table_ray.stages.ann import embedding_dedup_pairs_exact

        exact = embedding_dedup_pairs_exact(
            self._embeddings(), threshold=0.45
        ).to_pandas()
        approx = embedding_cosine_dedup_pairs(
            self._embeddings(), threshold=0.45, n_bits=4, n_bands=8, dim=64
        ).to_pandas()
        exact_set = set(zip(exact["id_a"], exact["id_b"]))
        approx_set = set(zip(approx["id_a"], approx["id_b"]))
        assert approx_set <= exact_set  # verify stage is exact → no FPs
        assert len(approx) == len(approx_set)  # first-band emit → no dupes
        assert len(exact_set) > 0
        # sign-LSH theory at s=0.45: p=1-arccos(.45)/pi≈0.648, band p^4≈.18,
        # 8 bands → expected recall ≈ 0.79; assert a loose floor
        recall = len(approx_set & exact_set) / len(exact_set)
        assert recall >= 0.5, f"LSH recall {recall:.2f} below floor"

    def test_lsh_dedup_shardjoin_verify_equals_broadcast(self, force_shard_plan):
        kw = dict(threshold=0.45, n_bits=4, n_bands=8, dim=64)
        bc = embedding_cosine_dedup_pairs(self._embeddings(), **kw).to_pandas()
        force_shard_plan()
        sj = embedding_cosine_dedup_pairs(
            self._embeddings(), num_shards=8, **kw
        ).to_pandas()
        key = lambda df: sorted(zip(df["id_a"], df["id_b"]))
        assert key(bc) == key(sj)

    @pytest.mark.parametrize("second", [[0.9, 0.1, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    def test_two_vectors_on_the_shard_plan_keep_output_schema(self, force_shard_plan, second):
        """Two vectors leave most candidate shards without a pair. Such a
        shard yields no block; it used to yield a pandas frame with no
        columns, which the exchanges after it carried to the output.
        Every bundle and every block with rows carries the output
        columns; the zero-row blocks left are Ray's own, for an empty
        sort range or a task that yields nothing."""
        cols = ["id_a", "id_b", "cosine"]
        emb = ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([0, 1], pa.int64()),
                    "embedding": pa.array([[1.0, 0.0, 0.0, 0.0], second], pa.list_(pa.float64())),
                }
            )
        )
        force_shard_plan()
        out = embedding_cosine_dedup_pairs(emb, threshold=0.5, n_bits=2, dim=4).materialize()
        bundles = list(out.iter_internal_ref_bundles())
        assert bundles and all(b.schema.names == cols for b in bundles)
        for b in bundles:
            for ref, meta in b.blocks:
                block = ray.get(ref)
                assert not isinstance(block, pd.DataFrame)
                if meta.num_rows:
                    assert block.column_names == cols
        assert out.count() == (1 if second[0] else 0)

    def test_sign_lsh_deterministic(self):
        ix1 = SignLSHIndexer(4, n_bits=4, seed=7)
        ix2 = SignLSHIndexer(4, n_bits=4, seed=7)
        m = np.random.RandomState(0).standard_normal((10, 4))
        assert (ix1.code(m) == ix2.code(m)).all()


@pytest.mark.usefixtures("ray_session")
class TestExactJaccard:
    """exact_jaccard_pairs ≡ brute force over all pairs (the stage is
    additionally DuckDB-oracled end-to-end via jaccard_pairs_exact)."""

    def test_matches_bruteforce(self):
        import itertools
        import random

        import pyarrow as pa
        import ray.data

        from paper2table_ray.stages.dedup import _word_trigrams, exact_jaccard_pairs

        rng = random.Random(7)
        vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
        texts = []
        for i in range(40):
            if i % 5 == 0 and i:
                # near-duplicate of a previous doc
                base = texts[i - 1].split()
                k = rng.randrange(len(base))
                base[k] = rng.choice(vocab)
                texts.append(" ".join(base))
            else:
                texts.append(" ".join(rng.choice(vocab) for _ in range(30)))
        docs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(list(range(40)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )
        got = exact_jaccard_pairs(docs, threshold=0.5).to_pandas()
        got_set = {
            (int(a), int(b)): round(j, 6)
            for a, b, j in zip(got["doc_a"], got["doc_b"], got["jaccard"])
        }

        sets = [set(_word_trigrams(t)) for t in texts]
        exp = {}
        for a, b in itertools.combinations(range(40), 2):
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter / union >= 0.5:
                exp[(a, b)] = round(inter / union, 6)
        assert got_set == exp
        assert exp  # the corpus genuinely contains near-dups

    def test_empty_and_short_docs_produce_no_pairs(self):
        import pyarrow as pa
        import ray.data

        from paper2table_ray.stages.dedup import exact_jaccard_pairs

        docs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(["", "one two", "one two"], pa.string()),
                }
            )
        )
        out = exact_jaccard_pairs(docs).to_pandas()
        assert len(out) == 0

    def test_wide_doc_ids_round_trip(self):
        """ids in [2^31, 2^32) make the packed int64 pair key negative;
        the unsigned unpack must still round-trip them exactly."""
        import pyarrow as pa
        import ray.data

        from paper2table_ray.stages.dedup import exact_jaccard_pairs

        a, b = (1 << 31) + 5, (1 << 32) - 3
        text = "one two three four five six"
        docs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([a, b], pa.int64()),
                    "text": pa.array([text, text], pa.string()),
                }
            )
        )
        out = exact_jaccard_pairs(docs, threshold=0.5).to_pandas()
        assert len(out) == 1
        assert int(out["doc_a"][0]) == a
        assert int(out["doc_b"][0]) == b
        assert out["jaccard"][0] == 1.0

    def test_out_of_range_doc_ids_fail_loudly(self):
        import pyarrow as pa
        import ray.data

        from paper2table_ray.stages.dedup import exact_jaccard_pairs

        docs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1 << 32, 7], pa.int64()),
                    "text": pa.array(["one two three", "one two three"]),
                }
            )
        )
        with pytest.raises(Exception, match="2\\*\\*32|RayTaskError") as ei:
            exact_jaccard_pairs(docs, threshold=0.5).to_pandas()
        assert "2**32" in str(ei.value)


@pytest.mark.usefixtures("ray_session")
class TestNearDupClusters:
    def test_components_collapse_to_min_id(self):
        import pyarrow as pa
        import ray.data

        from paper2table_ray.stages.dedup import near_dup_clusters

        # chain 1-2-3, pair 10-11, triangle 20-21-22
        pairs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([1, 2, 10, 20, 20, 21], pa.int64()),
                    "doc_b": pa.array([2, 3, 11, 21, 22, 22], pa.int64()),
                }
            )
        )
        out = near_dup_clusters(pairs).to_pandas().sort_values("doc_id")
        got = dict(zip(out["doc_id"], out["cluster_id"]))
        assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20}

    def test_long_chain_converges(self):
        import pyarrow as pa
        import ray.data

        from paper2table_ray.stages.dedup import near_dup_clusters

        n = 40  # path graph: worst-case diameter for label propagation
        pairs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array(list(range(n - 1)), pa.int64()),
                    "doc_b": pa.array(list(range(1, n)), pa.int64()),
                }
            )
        )
        out = near_dup_clusters(pairs).to_pandas()
        assert set(out["cluster_id"]) == {0}
        assert len(out) == n


@pytest.mark.usefixtures("ray_session")
def test_near_dup_clusters_joins_three_times_per_round(monkeypatch):
    """The convergence count reads the round's own label table, so a
    round makes three ``hash_join`` calls: label shipping, the incoming
    minimum and pointer doubling."""
    import paper2table_ray.stages.joins as joins

    calls = []
    real = joins.hash_join

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(joins, "hash_join", counting)
    n = 40  # a path graph needs more than two rounds
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(list(range(n - 1)), pa.int64()),
                "doc_b": pa.array(list(range(1, n)), pa.int64()),
            }
        )
    )
    for rounds in (1, 2):
        calls.clear()
        out = dd.near_dup_clusters(pairs, max_iter=rounds).to_pandas()
        assert len(out) == n
        assert len(calls) == 3 * rounds


@pytest.mark.parametrize("typ", [pa.binary(), pa.large_binary()])
def test_u32_rows_views_match_unpacked_bytes(typ):
    """The verify's per-row views equal each row's unpacked bytes, on a
    sliced second chunk and on empty rows."""
    vals = [dd._pack_u32(np.arange(k, dtype=np.uint32) * 7) for k in [0, 3, 5, 1, 0, 4]]
    col = pa.chunked_array([pa.array(vals[:2], typ), pa.array(vals[2:], typ).slice(1)])
    got = dd._u32_rows(col)
    want = [np.frombuffer(v, "<u4") for v in vals[:2] + vals[3:]]
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
