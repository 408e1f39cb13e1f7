"""Similarity search over embedding columns.

- ``topk_cosine``: brute-force cosine top-k — vectorized numpy matmul per
  batch against a broadcast query vector (``ray.put`` once, read per task),
  per-batch partial top-k, tiny global sort+limit. The exact baseline.
- ``SignLSHIndexer`` / ``lsh_bucketed_topk``: the scale path — random
  hyperplane (sign) LSH buckets (Charikar '02): vectors land in 2^n_bits
  buckets; a query probes its own bucket plus Hamming-≤1 neighbors and only
  scores those. Approximate; recall grows with probes.
- ``embedding_cosine_dedup_pairs``: embedding near-duplicate pairs via the
  same bucket groupby + in-bucket pairwise cosine, verified on embeddings
  attached through ``joins.attach_pair_sides`` (``hash_join``'s gate).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


def _batch_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    # zero-copy path for fixed-length float lists
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    # zero rows carry no width: (0, 0), not a reshape of nothing to (0, -1)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def topk_cosine(
    embeddings: ray.data.Dataset,
    query: Sequence[float],
    k: int = 10,
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Exact cosine top-k: per-batch score+prune to k, then global
    sort+limit over the tiny partials (no full materialization)."""
    q = np.asarray(list(query), dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch))
        scores = m @ qv
        keep = min(k, len(scores))
        idx = np.argpartition(-scores, keep - 1)[:keep] if len(scores) > keep else np.arange(len(scores))
        ids = batch.column(id_col).take(pa.array(idx, type=pa.int64()))
        return pa.table(
            {
                id_col: ids,
                "score": pa.array(scores[idx], type=pa.float64()),
            }
        )

    partials = embeddings.map_batches(score, batch_format="pyarrow", batch_size=4096)
    return partials.sort("score", descending=True).limit(k)


class SignLSHIndexer:
    """Adds ``bucket`` = sign-LSH code (int64) per embedding. Hyperplanes
    are seeded → deterministic; built once per actor."""

    def __init__(self, dim: int, n_bits: int = 8, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_bits))
        self.n_bits = n_bits

    def code(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes) > 0
        weights = (1 << np.arange(self.n_bits, dtype=np.int64))
        return bits @ weights

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        return batch.append_column(
            "bucket", pa.array(self.code(m), type=pa.int64())
        )


def lsh_bucketed_topk(
    embeddings: ray.data.Dataset,
    query: Sequence[float],
    k: int = 10,
    n_bits: int = 8,
    seed: int = 7,
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Approximate top-k: score only vectors whose LSH bucket is within
    Hamming distance 1 of the query's bucket (1 + n_bits probes)."""
    q = np.asarray(list(query), dtype=np.float64)
    dim = q.shape[0]
    indexer = SignLSHIndexer(dim, n_bits=n_bits, seed=seed)
    q_code = int(indexer.code(q.reshape(1, -1))[0])
    probes = {q_code} | {q_code ^ (1 << b) for b in range(n_bits)}

    from .workercache import worker_cached

    # cheap state (a dim x n_bits projection matrix) -> task pool with a
    # worker-local instance, no actor-pool spin-up (stages/workercache.py)
    coded = embeddings.map_batches(
        worker_cached(SignLSHIndexer, dim=dim, n_bits=n_bits, seed=seed),
        batch_format="pyarrow",
        batch_size=4096,
    )
    probe_arr = pa.array(sorted(probes), type=pa.int64())

    def filter_probes(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch.column("bucket"), value_set=probe_arr))

    candidates = coded.map_batches(filter_probes, batch_format="pyarrow")
    return topk_cosine(candidates, query, k=k, id_col=id_col)


class BandedSignLSH:
    """Multi-band sign-LSH coder: ``n_bands`` independent hyperplane
    tables of ``n_bits`` each (LSH amplification — single-band recall
    p^k becomes 1-(1-p^k)^b). Seeded → deterministic everywhere."""

    def __init__(self, dim: int, n_bits: int = 8, n_bands: int = 8, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_bands * n_bits))
        self.n_bits = n_bits
        self.n_bands = n_bands

    def codes(self, m: np.ndarray) -> np.ndarray:
        """(n, n_bands) int64 — one bucket code per band per vector."""
        bits = (m @ self.planes) > 0  # (n, n_bands*n_bits)
        bits = bits.reshape(len(m), self.n_bands, self.n_bits)
        weights = 1 << np.arange(self.n_bits, dtype=np.int64)
        return bits @ weights


def embedding_cosine_dedup_pairs(
    embeddings: ray.data.Dataset,
    threshold: float = 0.95,
    n_bits: int = 8,
    n_bands: int = 8,
    seed: int = 7,
    id_col: str = "vec_id",
    dim: Optional[int] = None,
    max_bucket_size: int = 4096,
    num_shards: Optional[int] = None,
) -> ray.data.Dataset:
    """Embedding near-duplicate pairs — the LSH scale path.

    Three stages, mirroring the MinHash+LSH dedup shape (stages/dedup.py):

    1. **code**: one pass computes each vector's ``n_bands`` bucket codes
       (seeded hyperplanes, recomputable anywhere) and emits slim band
       rows ``(band, bucket, id, codes)`` — the embedding itself does NOT
       cross this shuffle.
    2. **candidates**: coarse-shard groupby on ``(band, bucket)``; each
       group emits its pairs, but a pair is emitted ONLY in the first
       band where the two codes agree (vectorized check against the
       carried code vectors) — exact global pair-dedup with no extra
       all-to-all. Hot buckets are capped at ``max_bucket_size``.
    3. **verify**: exact cosine per candidate, on the embeddings that
       ``stages/joins.attach_pair_sides`` attaches to both pair sides.

    Recall at similarity s: collision p = 1 - arccos(s)/π per bit,
    per-band p^n_bits, overall 1-(1-p^n_bits)^n_bands. No false
    positives (verify is exact). ``num_shards`` sizes the candidate and
    join exchanges; None means ``default_num_shards()``."""
    if dim is None:
        first = embeddings.take(1)[0]
        dim = len(first["embedding"])
    coder = BandedSignLSH(dim, n_bits=n_bits, n_bands=n_bands, seed=seed)

    def band_rows(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        codes = coder.codes(m)  # (n, n_bands)
        n = len(m)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        band = np.tile(np.arange(n_bands, dtype=np.int32), n)
        rep_ids = np.repeat(ids, n_bands)
        buckets = codes.reshape(-1)  # row-major: vec0 band0..b, vec1 ...
        rep_codes = np.repeat(codes, n_bands, axis=0).reshape(n * n_bands, n_bands)
        return pa.table(
            {
                "band": pa.array(band),
                "bucket": pa.array(buckets, type=pa.int64()),
                "id": pa.array(rep_ids, type=pa.int64()),
                "codes": pa.array(list(rep_codes), type=pa.list_(pa.int64())),
            }
        )

    coded = embeddings.map_batches(band_rows, batch_format="pyarrow", batch_size=4096)

    def bucket_candidates(group: pd.DataFrame) -> pd.DataFrame:
        cols = ["id_a", "id_b"]
        if len(group) < 2:
            return pd.DataFrame(columns=cols)
        if len(group) > max_bucket_size:
            group = group.nsmallest(max_bucket_size, "id")
        t = int(group["band"].iloc[0])
        ids = group["id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        codes = np.stack(group["codes"].to_numpy())[order]  # (g, n_bands)
        ia, ib = np.triu_indices(len(ids), k=1)
        if t > 0:
            agree_earlier = (codes[ia, :t] == codes[ib, :t]).any(axis=1)
            ia, ib = ia[~agree_earlier], ib[~agree_earlier]
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]})

    from .shuffle import groupby_apply

    candidates = groupby_apply(
        coded, ["band", "bucket"], bucket_candidates, batch_format="pandas",
        num_shards=num_shards,
    )

    def verify_joined(batch: pa.Table) -> pa.Table:
        va = _normalize(_batch_matrix(batch, col="embedding_a"))
        vb = _normalize(_batch_matrix(batch, col="embedding_b"))
        cos = np.einsum("ij,ij->i", va, vb)
        keep = cos >= threshold
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b_ = batch.column("id_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "id_a": pa.array(a[keep], type=pa.int64()),
                "id_b": pa.array(b_[keep], type=pa.int64()),
                "cosine": pa.array(cos[keep], type=pa.float64()),
            }
        )

    from .joins import attach_pair_sides

    return attach_pair_sides(
        candidates, embeddings.select_columns([id_col, "embedding"]),
        "id_a", "id_b", id_col, ["embedding"], num_shards, post=verify_joined,
    )


def embedding_dedup_pairs_exact(
    embeddings: ray.data.Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    broadcast_limit: int = 1_000_000,
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """EXACT embedding near-duplicate pairs — the verifiable baseline the
    LSH path (:func:`embedding_cosine_dedup_pairs`) approximates.

    The full normalized matrix broadcasts once (``ray.put``; ~256 MB at
    10^6 × 64-d float32 — bounded by ``broadcast_limit``) and every batch
    scores itself against it in one blocked matmul, emitting pairs with
    ``id_a < id_b`` so each pair appears exactly once. Total work is
    O(N²/batch) but fully distributed and driver-light. Above the bound
    this raises — callers must switch to the LSH scale path explicitly
    (silent fallback would change exact results to approximate ones)."""
    n = embeddings.count()
    if n > broadcast_limit:
        raise ValueError(
            f"{n} vectors exceed broadcast_limit={broadcast_limit}; use "
            "embedding_cosine_dedup_pairs (LSH scale path) instead"
        )
    ids_chunks, mats = [], []
    for b in embeddings.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            ids_chunks.append(b.column(id_col).to_numpy(zero_copy_only=False))
            mats.append(_normalize(_batch_matrix(b)))
    all_ids = np.concatenate(ids_chunks) if ids_chunks else np.array([], dtype=np.int64)
    all_mat = np.vstack(mats) if mats else np.zeros((0, 1))
    build_ref = ray.put((all_ids, all_mat))

    def score(batch: pa.Table) -> pa.Table:
        g_ids, g_mat = ray.get(build_ref)
        m = _normalize(_batch_matrix(batch))
        b_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = m @ g_mat.T  # (b, N)
        bi, gj = np.nonzero((sims >= threshold) & (b_ids[:, None] < g_ids[None, :]))
        return pa.table(
            {
                "id_a": pa.array(b_ids[bi], type=pa.int64()),
                "id_b": pa.array(g_ids[gj], type=pa.int64()),
                "cosine": pa.array(sims[bi, gj], type=pa.float64()),
            }
        )

    return embeddings.map_batches(
        score, batch_format="pyarrow", batch_size=batch_size
    )


# --- IVF (inverted-file) ANN ------------------------------------------------


def train_ivf_centroids(
    embeddings: ray.data.Dataset,
    n_centroids: int = 16,
    sample: int = 4096,
    iters: int = 10,
    seed: int = 7,
) -> np.ndarray:
    """Deterministic k-means-lite on a driver-side sample (Lloyd
    iterations, seeded init). The centroid table is tiny — it broadcasts;
    training cost is bounded by ``sample``, not corpus size."""
    df = embeddings.limit(sample).to_pandas()
    m = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    cent = m[rng.choice(len(m), size=min(n_centroids, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n:
                    cent[c] = v / n
    return cent


class IVFAssigner:
    """Adds ``centroid_id`` per embedding (nearest centroid by cosine).
    Centroids arrive via a Ray ObjectRef — resolved once per actor."""

    def __init__(self, centroids):
        if not isinstance(centroids, np.ndarray):
            centroids = ray.get(centroids)
        self.centroids = centroids

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        assign = np.argmax(m @ self.centroids.T, axis=1)
        return batch.append_column(
            "centroid_id", pa.array(assign.astype(np.int32))
        )


def ivf_topk(
    embeddings: ray.data.Dataset,
    query: Sequence[float],
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    seed: int = 7,
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """IVF ANN: train centroids on a sample, assign vectors (broadcast
    centroids), score only the ``nprobe`` lists nearest the query —
    the classic inverted-file scale path (recall grows with nprobe)."""
    cent = train_ivf_centroids(
        embeddings, n_centroids=n_centroids, seed=seed
    )
    q = np.asarray(list(query), dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    probes = np.argsort(-(cent @ qn))[:nprobe]
    probe_arr = pa.array(sorted(int(p) for p in probes), type=pa.int32())
    cent_ref = ray.put(cent)

    from .workercache import worker_cached

    # centroids ride a ray.put ref (hashable) -> worker-local assigner
    coded = embeddings.map_batches(
        worker_cached(IVFAssigner, centroids=cent_ref),
        batch_format="pyarrow",
        batch_size=4096,
    )

    def filter_probes(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.is_in(batch.column("centroid_id"), value_set=probe_arr)
        )

    candidates = coded.map_batches(filter_probes, batch_format="pyarrow")
    return topk_cosine(candidates, query, k=k, id_col=id_col)
