"""Deduplication operators (exact + near-dup families).

Engine-level operators for large-scale training-data curation, following
the published designs (MinHash: Broder '97; LSH banding: Mining of Massive
Datasets ch.3; SimHash: Charikar '02 / Manku et al. WWW'07):

- exact dedup: content-hash → hash-partitioned aggregate → keep first
  (reference analogue: filenorm md5 dedup, SURVEY.md O6,
  /root/reference/src/filenorm/__main__.py:21-66)
- MinHash signatures + banded LSH candidate pairs (signature-estimated or
  exact-verified Jaccard)
- SimHash 64-bit + chunk-pigeonhole candidate generation, Hamming verify
- word n-gram Jaccard verification on hashed shingle sets

Scale shape (what crosses the wire, per doc):

1. hashing is ``map_batches`` with ONE vectorized ``pd.util.hash_array``
   call per batch (no per-shingle Python hashing);
2. the LSH shuffle carries ONLY ``(bucket:int64, doc_id)`` band rows —
   signatures and shingle sets never ride the all-to-all exchange;
3. tiny buckets (LSH bands, SimHash chunks, trigram shingles) are
   grouped into coarse ``hash(bucket) % num_shards`` shards, so Ray sees
   O(num_shards) groups, not one per bucket (per-group overhead, not
   data volume, is what kills ``map_groups`` over millions of 1-row
   groups). SimHash and exact Jaccard go through
   ``shuffle.groupby_apply_table``; MinHash keeps its own two exchanges
   (see ``minhash_lsh_pairs``);
4. candidate pairs are made distinct under the same coarse pair-hash
   sharding, then verified against the candidates' packed signatures or
   shingle sets, which ``joins.attach_pair_sides`` attaches to both pair
   sides through ``hash_join``'s one gate;
5. oversized buckets (hot hashes: boilerplate, empty docs) are capped at
   ``max_bucket_size`` members, deterministically by sorted doc id, so a
   degenerate key cannot go quadratic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Min

from .shuffle import default_num_shards, groupby_apply_table
from .textqc import TOKEN_RE, canonical_text

_MERSENNE_P = (1 << 61) - 1
_HASH_RANGE = 1 << 32
_FNV_OFFSET = np.uint64(1469598103934665603)
_FNV_PRIME = np.uint64(1099511628211)
_MIX_ODD = np.uint64(0x9E3779B97F4A7C15)


def _perm_params(num_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE_P, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE_P, size=num_perm, dtype=np.uint64)
    return a, b


def _batch_token_hashes(texts: list[str]) -> list[np.ndarray]:
    """Per-doc uint64 token-hash arrays; one vectorized hash_array call
    for the whole batch (pandas siphash, fixed key → deterministic
    across workers)."""
    toks_per_doc = [TOKEN_RE.findall(canonical_text(t or "")) for t in texts]
    flat: list[str] = [t for toks in toks_per_doc for t in toks]
    if not flat:
        return [np.empty(0, dtype=np.uint64) for _ in texts]
    hashes = pd.util.hash_array(np.asarray(flat, dtype=object))
    out, pos = [], 0
    for toks in toks_per_doc:
        out.append(hashes[pos : pos + len(toks)])
        pos += len(toks)
    return out


def _shingles_from_token_hashes(h: np.ndarray, k: int) -> np.ndarray:
    """Unique hashed word-k-gram set (uint64, values < 2^32) via a
    vectorized polynomial fold over the token-hash array."""
    if h.size == 0:
        return np.empty(0, dtype=np.uint64)
    if h.size < k:
        k = h.size
    n_out = h.size - k + 1
    acc = np.zeros(n_out, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc = acc * _FNV_PRIME ^ h[j : j + n_out]
    return np.unique(acc & np.uint64(0xFFFFFFFF))


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Hashed word-k-gram shingle set for one text (uint32-range uint64)."""
    return _shingles_from_token_hashes(_batch_token_hashes([text])[0], k)


def minhash_signature(
    shingles: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """sig_i = min over shingles x of ((a_i x + b_i) mod p) mod 2^32."""
    if shingles.size == 0:
        return np.full(a.shape[0], _HASH_RANGE - 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        prod = (a[:, None] * shingles[None, :] + b[:, None]) % _MERSENNE_P
    return (prod % _HASH_RANGE).min(axis=1).astype(np.uint64)


def _pack_u64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<u8").tobytes()


def _pack_u32(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr.astype("<u4")).tobytes()


def _u32_rows(col: pa.ChunkedArray) -> list:
    """Per-row uint32 views into a packed binary column (no per-row copy)."""
    rows = []
    for a in col.chunks:
        wide = pa.types.is_large_binary(a.type)
        offs = np.frombuffer(a.buffers()[1], np.int64 if wide else np.int32)[a.offset :]
        data = np.frombuffer(a.buffers()[2] or b"", np.uint8)
        rows += [data[offs[i] : offs[i + 1]].view("<u4") for i in range(len(a))]
    return rows


class MinHasher:
    """Actor-pool batch UDF: adds ``minhash_sig`` (packed little-endian
    uint64 binary, fixed width = 8*num_perm) and optionally ``shingles``
    (packed uint32 binary — joinable: Arrow hash joins reject list
    columns, and binary halves the bytes vs list<uint64>)."""

    def __init__(
        self,
        num_perm: int = 128,
        shingle_k: int = 3,
        keep_shingles: bool = False,
        seed: int = 1,
    ):
        self.num_perm = num_perm
        self.shingle_k = shingle_k
        self.keep_shingles = keep_shingles
        self.a, self.b = _perm_params(num_perm, seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        tok_hashes = _batch_token_hashes(texts)
        sigs, shingle_bufs = [], []
        for h in tok_hashes:
            sh = _shingles_from_token_hashes(h, self.shingle_k)
            sigs.append(_pack_u64(minhash_signature(sh, self.a, self.b)))
            if self.keep_shingles:
                shingle_bufs.append(_pack_u32(sh))
        out = batch.drop_columns(["text"]).append_column(
            "minhash_sig", pa.array(sigs, type=pa.binary())
        )
        if self.keep_shingles:
            out = out.append_column("shingles", pa.array(shingle_bufs, pa.binary()))
        return out


def _sig_matrix(col: pa.ChunkedArray, num_perm: int) -> np.ndarray:
    bufs = col.to_pylist()
    if not bufs:
        return np.empty((0, num_perm), dtype=np.uint64)
    return np.frombuffer(b"".join(bufs), dtype="<u8").reshape(len(bufs), num_perm)


def lsh_band_rows(
    batch: pa.Table,
    bands: int,
    rows_per_band: int,
    num_shards: int,
    id_col: str = "doc_id",
) -> pa.Table:
    """Explode signatures into shuffle-minimal ``(shard, bucket, id)``
    band rows. Band hash = vectorized FNV fold over the band's slice of
    the signature matrix, mixed with the band index."""
    n = batch.num_rows
    num_perm = bands * rows_per_band
    sig = _sig_matrix(batch.column("minhash_sig"), num_perm)
    view = sig.reshape(n, bands, rows_per_band)
    h = np.full((n, bands), _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(rows_per_band):
            h = (h ^ view[:, :, j]) * _FNV_PRIME
        h = h ^ (np.arange(bands, dtype=np.uint64)[None, :] * _MIX_ODD)
    flat = h.reshape(-1)  # row-major: doc i's `bands` rows are consecutive
    ids = batch.column(id_col)
    return pa.table(
        {
            "shard": pa.array((flat % np.uint64(num_shards)).astype(np.int32)),
            "bucket": pa.array(flat.view(np.int64), type=pa.int64()),
            id_col: ids.take(pa.array(np.repeat(np.arange(n), bands))),
        }
    )


def _shard_candidate_pairs(
    df: pd.DataFrame, max_bucket_size: int
) -> pd.DataFrame:
    """All (doc_a < doc_b) candidate pairs from buckets with ≥2 members
    inside one coarse shard; vectorized bucket sizing, Python only over
    the (few) colliding buckets."""
    sizes = df.groupby("bucket")["doc_id"].transform("size")
    dup = df[sizes > 1]
    pairs: list[tuple] = []
    for _, g in dup.groupby("bucket"):
        ids = sorted(g["doc_id"].drop_duplicates().tolist())[:max_bucket_size]
        pairs.extend(
            (ids[i], ids[j])
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        )
    out = pd.DataFrame(pairs, columns=["doc_a", "doc_b"])
    return out.drop_duplicates()


def _distinct_pairs(pairs: ray.data.Dataset, num_shards: int) -> ray.data.Dataset:
    """Global pair dedup via coarse pair-hash sharding + vectorized
    in-shard ``drop_duplicates``. NOT ``groupby([doc_a, doc_b])`` — Ray's
    sort aggregate pays per-group overhead on one group per pair
    (measured ~28s for 10k pair-groups vs ~1s at a coarse-shard width).
    The caller passes its own exchange width. Hand-rolled for the reason
    given at the band exchange in ``minhash_lsh_pairs``: through
    ``groupby_apply_table`` this site alone added 0.2-0.35 s per call
    over the same 1,500 docs."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[["doc_a", "doc_b"]], index=False)
        df = df.assign(_pair_shard=(h % num_shards).astype("int32"))
        return df

    def dedup_shard(g: pd.DataFrame) -> pa.Table:
        # Arrow out: the verify joins read Arrow types off this schema,
        # and a pandas block types string ids as Python ``str``
        g = g.drop_duplicates(["doc_a", "doc_b"]).drop(columns=["_pair_shard"])
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        pairs.map_batches(add_shard, batch_format="pandas")
        .groupby("_pair_shard")
        .map_groups(dedup_shard, batch_format="pandas")
    )


def minhash_lsh_pairs(
    docs: ray.data.Dataset,
    threshold: float = 0.7,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 3,
    exact_verify: bool = True,
    num_shards: int | None = None,
    max_bucket_size: int = 256,
    persist_threshold: int = 2_000_000,
    sig_spill_dir: Optional[str] = None,
) -> ray.data.Dataset:
    """documents (doc_id, text) → near-duplicate pairs
    (doc_a, doc_b, jaccard), distinct, doc_a < doc_b.

    shingle+minhash (vectorized map_batches) → band explode (only
    ``(shard, bucket, doc_id)`` crosses the shuffle) → coarse-shard
    groupby → in-shard vectorized pair-gen → coarse-shard distinct →
    packed sigs/shingles of the candidates attached to both pair sides
    (``joins.attach_pair_sides``) → vectorized verify.
    ``jaccard`` is exact (true shingle-set overlap) when ``exact_verify``
    else the signature estimate. ``num_shards`` (default
    ``default_num_shards()``) sets the shard-key range of the band and
    pair-distinct exchanges (their task count follows the input blocks)
    and the width of the verify joins' shard plan.
    """
    from .workercache import worker_cached

    if num_shards is None:
        num_shards = default_num_shards()
    rows_per_band = num_perm // bands
    # MinHasher state (permutation coefficient arrays) is cheap → task
    # pool + worker-local cache instead of an actor pool (no spin-up;
    # stages/workercache.py); Ray sizes the task pool itself.
    feats = docs.map_batches(
        worker_cached(
            MinHasher,
            num_perm=num_perm,
            shingle_k=shingle_k,
            keep_shingles=exact_verify,
        ),
        batch_format="pyarrow",
        batch_size=256,
    )
    # consumed twice (band rows, then the verify side): persist the
    # compact signature table (~1KB/doc) once instead of re-hashing the
    # corpus. Above ``persist_threshold`` docs it goes to parquet, re-read
    # column-pruned per consumer, so it never has to live in plasma. The
    # doc count comes from source metadata (free for bare reads), else
    # from the materialized table, so upstream never runs twice.
    try:
        n_docs = docs._meta_count()
    except Exception:
        n_docs = None

    def _spill(ds):
        # multi-node: this directory is read back by tasks on OTHER
        # nodes — it must resolve to shared storage (state/scratch.py)
        from ..state.scratch import scratch_dir

        d = scratch_dir("p2t_minhash_sigs_", sig_spill_dir)
        ds.write_parquet(d)
        return ray.data.read_parquet(d)

    if n_docs is not None and n_docs > persist_threshold:
        feats = _spill(feats)
    else:
        feats = feats.materialize()
        if n_docs is None and feats.count() > persist_threshold:
            feats = _spill(feats)

    band_rows = feats.map_batches(
        lambda b: lsh_band_rows(b, bands, rows_per_band, num_shards),
        batch_format="pyarrow",
    )
    # hand-rolled, like _distinct_pairs: Ray's sampled sort makes as many
    # tasks as input blocks (2 on the curate store), where
    # groupby_apply_table makes num_shards. Routed through it, this site
    # alone took minhash_lsh_pairs over 1,500 docs in 30 files from
    # 1.1-1.3 s to 2.0-2.3 s (min of 5, 1 CPU).
    cands = band_rows.groupby("shard").map_groups(
        lambda g: _shard_candidate_pairs(g, max_bucket_size),
        batch_format="pandas",
    )
    distinct = _distinct_pairs(cands, num_shards).materialize()

    n_pairs = distinct.count()
    if n_pairs == 0:
        # the caller's id type comes from the features: an empty
        # ``distinct`` may carry no typed doc_a at all
        schema = feats.schema()
        types = dict(zip(schema.names, schema.types)) if schema else {}
        id_type = types.get("doc_id", pa.string())
        empty = pa.table(
            {
                "doc_a": pa.array([], id_type),
                "doc_b": pa.array([], id_type),
                "jaccard": pa.array([], pa.float64()),
            }
        )
        return ray.data.from_arrow(empty)

    from .joins import attach_pair_sides

    # exact verify reads only the shingle sets, the estimate only the sigs
    feat_cols = ["shingles"] if exact_verify else ["minhash_sig"]
    def verify_joined(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        if exact_verify:
            sa, sb = (_u32_rows(batch.column(c)) for c in ("shingles_a", "shingles_b"))
            jac = np.empty(m, dtype=np.float64)
            for i, (A, B) in enumerate(zip(sa, sb)):
                inter = np.intersect1d(A, B, assume_unique=True).size
                union = A.size + B.size - inter
                jac[i] = inter / union if union else 0.0
        else:
            A = _sig_matrix(batch.column("minhash_sig_a"), num_perm)
            B = _sig_matrix(batch.column("minhash_sig_b"), num_perm)
            jac = (A == B).mean(axis=1)
        keep = jac >= threshold
        return pa.table(
            {
                "doc_a": batch.column("doc_a").filter(pa.array(keep)),
                "doc_b": batch.column("doc_b").filter(pa.array(keep)),
                "jaccard": pa.array(jac[keep], pa.float64()),
            }
        )

    return attach_pair_sides(
        distinct, feats.select_columns(["doc_id"] + feat_cols),
        "doc_a", "doc_b", "doc_id", feat_cols, num_shards, post=verify_joined,
    )


def exact_dedup(
    docs: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Keep the smallest id per identical content (SURVEY.md O6).

    Expressed as ``groupby(content_hash).aggregate(Min(id))`` — a
    hash-partitioned aggregate, fully vectorized (vs. per-group python of
    ``map_groups``, which pays per-group overhead on millions of tiny
    groups at scale)."""

    def add_hash(batch: pa.Table) -> pa.Table:
        import hashlib as h

        hashes = [
            h.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "content_hash": pa.array(hashes, type=pa.string()),
            }
        )

    hashed = docs.map_batches(add_hash, batch_format="pyarrow")
    out = hashed.groupby("content_hash").aggregate(Min(id_col, alias_name=id_col))
    return out.map_batches(
        lambda b: b.select([id_col, "content_hash"]), batch_format="pyarrow"
    )


# --- SimHash ----------------------------------------------------------------

_BIT_SHIFTS = np.arange(64, dtype=np.uint64)

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount on uint64 (numpy<2 lacks bitwise_count).
    Small temporaries only — the 256-entry-LUT path expands 8× to int64,
    which stalls on first-touch page faults for big buckets."""
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & _M1)
        x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
        x = (x + (x >> np.uint64(4))) & _M4
        return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def _simhash_from_token_hashes(h: np.ndarray) -> int:
    """Charikar SimHash from a doc's token-hash array (unique features)."""
    if h.size == 0:
        return 0
    u = np.unique(h)
    bits = ((u[:, None] >> _BIT_SHIFTS[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    code = np.uint64(0)
    with np.errstate(over="ignore"):
        code = ((acc > 0).astype(np.uint64) << _BIT_SHIFTS).sum(dtype=np.uint64)
    return int(code)


def simhash64(text: str) -> int:
    """Charikar-style 64-bit SimHash over word features."""
    return _simhash_from_token_hashes(_batch_token_hashes([text])[0])


def add_simhash(batch: pa.Table) -> pa.Table:
    tok = _batch_token_hashes(batch.column("text").to_pylist())
    vals = [_simhash_from_token_hashes(h) for h in tok]
    return batch.append_column("simhash", pa.array(vals, type=pa.uint64()))


def simhash_pairs(
    docs: ray.data.Dataset,
    max_hamming: int = 3,
    chunks: int | None = None,
    num_shards: int | None = None,
    max_bucket_size: int = 4096,
) -> ray.data.Dataset:
    """Near-dup pairs by SimHash: pigeonhole on 64/chunks-bit chunks (a
    pair within Hamming distance ≤ chunks-1 must agree on ≥1 chunk —
    hence the default ``chunks = max_hamming + 1`` for full recall), then
    exact Hamming verify inside the bucket (Manku et al. WWW'07).

    The 8-byte simhash rides the shuffle inline (cheaper than a join-back
    at any scale), through ``groupby_apply_table`` keyed on the bucket,
    ``num_shards`` wide (default ``default_num_shards()``).
    """
    if chunks is None:
        chunks = min(max_hamming + 1, 16)
    width = 64 // chunks
    mask = np.uint64((1 << width) - 1)

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sims = np.asarray(batch.column("simhash").to_numpy(zero_copy_only=False))
        ids = batch.column("doc_id")
        chunk_ids = np.tile(np.arange(chunks, dtype=np.uint64), n)
        rep_sims = np.repeat(sims, chunks)
        with np.errstate(over="ignore"):
            vals = (rep_sims >> (chunk_ids * np.uint64(width))) & mask
            bucket = vals ^ (chunk_ids * _MIX_ODD)
        take_idx = pa.array(np.repeat(np.arange(n), chunks))
        return pa.table(
            {
                "bucket": pa.array(bucket.view(np.int64), type=pa.int64()),
                "chunk_id": pa.array(chunk_ids.astype(np.int8)),
                "doc_id": ids.take(take_idx),
                "simhash": pa.array(rep_sims, type=pa.uint64()),
            }
        )

    chunk_shifts = (np.arange(chunks, dtype=np.uint64) * np.uint64(width))[None, :]

    def shard_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Verified pairs from this shard's buckets. Each global pair is
        emitted exactly once — by the LOWEST chunk index on which the two
        hashes agree — so no global dedup shuffle is needed.

        Pure-numpy bucket walk (lexsort + run boundaries; no per-bucket
        pandas). Members with IDENTICAL simhash collapse to one
        representative before the pairwise matrix — template corpora
        produce huge equal-hash clusters, whose pairs expand
        combinatorially at emit time instead of paying B² popcount."""
        bkt = df["bucket"].to_numpy()
        sh = df["simhash"].to_numpy(dtype=np.uint64)
        ids = df["doc_id"].to_numpy()
        ck = df["chunk_id"].to_numpy()
        order = np.lexsort((ids, sh, bkt))
        bkt, sh, ids, ck = bkt[order], sh[order], ids[order], ck[order]
        n = len(bkt)
        b_starts = np.flatnonzero(np.concatenate(([True], bkt[1:] != bkt[:-1])))
        b_ends = np.append(b_starts[1:], n)
        acc_a, acc_b, acc_d = [], [], []
        for s, e in zip(b_starts, b_ends):
            if e - s < 2:
                continue
            e = min(e, s + max_bucket_size)
            chunk = int(ck[s])
            shs, idss = sh[s:e], ids[s:e]
            g_starts = np.flatnonzero(
                np.concatenate(([True], shs[1:] != shs[:-1]))
            )
            g_ends = np.append(g_starts[1:], len(shs))
            uh = shs[g_starts]
            gsize = g_ends - g_starts
            u = len(uh)
            # identical-hash pairs: hamming 0 ⇒ first agreeing chunk is 0
            if chunk == 0:
                for gs, m in zip(g_starts, gsize):
                    if m > 1:
                        grp = idss[gs : gs + m]
                        ai, bj = np.triu_indices(m, 1)
                        acc_a.append(grp[ai])
                        acc_b.append(grp[bj])
                        acc_d.append(np.zeros(len(ai), dtype=np.int64))
            if u < 2:
                continue
            # cross-representative pairs: SWAR Hamming on the upper
            # triangle VECTOR (u²/2) — never a (u,u,8) matrix
            ai, bj = np.triu_indices(u, 1)
            xor_p = uh[ai] ^ uh[bj]
            d_p = popcount64(xor_p)
            ok = d_p <= max_hamming
            if not ok.any():
                continue
            ai, bj, xor_p, d_p = ai[ok], bj[ok], xor_p[ok], d_p[ok]
            with np.errstate(over="ignore"):
                agree = ((xor_p[:, None] >> chunk_shifts) & mask) == 0
            keep = np.argmax(agree, axis=1) == chunk
            ai, bj, d_p = ai[keep], bj[keep], d_p[keep]
            if ai.size == 0:
                continue
            single = (gsize[ai] == 1) & (gsize[bj] == 1)
            if single.any():
                rep0 = idss[g_starts]
                la, lb = rep0[ai[single]], rep0[bj[single]]
                swap = la > lb
                acc_a.append(np.where(swap, lb, la))
                acc_b.append(np.where(swap, la, lb))
                acc_d.append(d_p[single])
            for k in np.flatnonzero(~single):
                i, j = ai[k], bj[k]
                ga = idss[g_starts[i] : g_ends[i]]
                gb = idss[g_starts[j] : g_ends[j]]
                la = np.repeat(ga, len(gb))
                lb = np.tile(gb, len(ga))
                swap = la > lb
                acc_a.append(np.where(swap, lb, la))
                acc_b.append(np.where(swap, la, lb))
                acc_d.append(np.full(la.size, d_p[k], dtype=np.int64))
        if not acc_a:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype=df["doc_id"].dtype),
                    "doc_b": pd.Series([], dtype=df["doc_id"].dtype),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(acc_a),
                "doc_b": np.concatenate(acc_b),
                "hamming": np.concatenate(acc_d),
            }
        )

    hashed = docs.map_batches(add_simhash, batch_format="pyarrow")
    exploded = hashed.map_batches(explode, batch_format="pyarrow")
    # the exchange's sort makes num_shards reduce blocks even from ONE
    # input block, so the shards run as parallel tasks at any input size
    return groupby_apply_table(
        exploded, "bucket", lambda t: shard_pairs(t.to_pandas()),
        num_shards=num_shards,
    )


_JACCARD_WORD_RE = None  # compiled lazily per worker


def _word_trigrams(text: str) -> list:
    """Lowercased ``[a-z0-9]+`` word trigrams, distinct, as strings —
    the exact tokenization the DuckDB oracle replicates."""
    global _JACCARD_WORD_RE
    if _JACCARD_WORD_RE is None:
        import re

        _JACCARD_WORD_RE = re.compile(r"[a-z0-9]+")
    ws = _JACCARD_WORD_RE.findall(text.lower())
    return list({f"{ws[i]} {ws[i + 1]} {ws[i + 2]}" for i in range(len(ws) - 2)})


def trigram_rows(batch: pa.Table) -> pa.Table:
    """``(doc_id, text)`` batch → one ``(doc_id, sh)`` row per distinct
    word trigram of each doc."""
    # the pair key packs (doc_a, doc_b) into one int64 as
    # (lo << 32) | hi — bijective only for ids in [0, 2^32); anything
    # larger would silently merge/corrupt pair counts, so fail loudly
    # here (corpora with wider ids should pre-map to a dense range)
    raw = batch.column("doc_id")
    if len(raw):
        lo_hi = pc.min_max(raw)
        lo_id, hi_id = lo_hi["min"].as_py(), lo_hi["max"].as_py()
        if lo_id is not None and (lo_id < 0 or hi_id >= 1 << 32):
            raise ValueError(
                "exact_jaccard_pairs requires 0 <= doc_id < 2**32 "
                f"(got range [{lo_id}, {hi_id}]); remap ids to a dense "
                "range before calling"
            )
    ids, shs = [], []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        tri = _word_trigrams(text or "")
        shs.extend(tri)
        ids.extend([doc_id] * len(tri))
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "sh": pa.array(shs, type=pa.string()),
        }
    )


def exact_jaccard_pairs(
    docs: ray.data.Dataset,
    threshold: float = 0.6,
    num_shards: int | None = None,
) -> ray.data.Dataset:
    """EXACT word-trigram Jaccard near-dup pairs — the verification
    baseline for the LSH family (``minhash_lsh_pairs`` is the scale
    path, same relationship as ``exact_embedding_dedup`` to the sign-LSH
    variant).

    Shape: docs → distinct (shingle, doc_id) rows → coarse-shard groupby
    on hash(shingle) emits intersection-count contributions per doc pair
    (combined to unique (pair, count) within the shard before the
    exchange) → groupby(packed pair key) sums intersections → hash-join
    per-doc set sizes onto both pair sides → vectorized jaccard +
    threshold. Exactness requires every co-occurrence to be counted, so
    hot shingles are NOT capped here and pair GENERATION is
    Σ C(|shingle group|, 2) — quadratic on hot shingles by definition.
    At corpus scale use the LSH variant (``minhash_lsh_pairs``) and
    reserve this op for verification slices, which is also why it is
    not in the bench suite.
    """
    from .joins import hash_join

    shingles = docs.map_batches(trigram_rows, batch_format="pyarrow")

    # per-doc set sizes: tiny aggregate (one int per doc)
    from ray.data.aggregate import Count

    sizes = shingles.groupby("doc_id").aggregate(Count(alias_name="n_sh"))

    # intersection contributions: per shingle group, every (a<b) pair
    # counts 1. Coarse-shard groupby → vectorized per-group pair-gen.
    def shard_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["sh", "doc_id"], kind="stable")
        ids = df["doc_id"].to_numpy()
        # run boundaries per shingle
        sh = df["sh"].to_numpy()
        starts = np.flatnonzero(np.r_[True, sh[1:] != sh[:-1]])
        ends = np.r_[starts[1:], len(sh)]
        acc_a, acc_b = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            grp = ids[s:e]
            iu = np.triu_indices(m, k=1)
            acc_a.append(grp[iu[0]])
            acc_b.append(grp[iu[1]])
        if not acc_a:
            return pd.DataFrame(
                {
                    "pk": np.empty(0, dtype=np.int64),
                    "cnt": np.empty(0, dtype=np.int64),
                }
            )
        a = np.concatenate(acc_a)
        b = np.concatenate(acc_b)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        # within-shard combiner: hot shingles emit the same pair many
        # times — collapse to (pk, count) BEFORE the exchange so the
        # global aggregate sees unique pairs per shard, not raw
        # co-occurrence rows (the difference is quadratic on hot keys)
        pk, cnt = np.unique((lo << np.int64(32)) | hi, return_counts=True)
        return pd.DataFrame({"pk": pk, "cnt": cnt.astype(np.int64)})

    from ray.data.aggregate import Sum as _Sum

    pair_rows = groupby_apply_table(
        shingles, "sh", lambda t: shard_pairs(t.to_pandas()), num_shards=num_shards
    )
    inter = pair_rows.groupby("pk").aggregate(_Sum("cnt", alias_name="inter"))

    def unpack(batch: pa.Table) -> pa.Table:
        # unsigned view: ids in [2^31, 2^32) make the packed int64 negative
        # (two's complement); an arithmetic >> would sign-extend doc_a
        pk = batch.column("pk").to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "doc_a": pa.array(
                    (pk >> np.uint64(32)).astype(np.int64), type=pa.int64()
                ),
                "doc_b": pa.array(
                    (pk & np.uint64(0xFFFFFFFF)).astype(np.int64), type=pa.int64()
                ),
                "inter": batch.column("inter"),
            }
        )

    # the candidate pair set is bounded by true near-dups — small relative
    # to the corpus; materializing it also gives the empty degenerate case
    # (no doc shares a trigram) a definite answer without schema-less
    # empty blocks reaching the join build
    pairs = inter.map_batches(unpack, batch_format="pyarrow").materialize()
    if pairs.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    pairs = hash_join(pairs, sizes, "doc_a", "doc_id", ["n_sh"]).map_batches(
        lambda b: b.rename_columns(
            [c if c != "n_sh" else "n_a" for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
    pairs = hash_join(pairs, sizes, "doc_b", "doc_id", ["n_sh"])

    def finish(batch: pa.Table) -> pa.Table:
        inter_np = batch.column("inter").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        na = batch.column("n_a").to_numpy(zero_copy_only=False)
        nb = batch.column("n_sh").to_numpy(zero_copy_only=False)
        j = inter_np / (na + nb - inter_np)
        keep = np.flatnonzero(j >= threshold)
        out = batch.take(pa.array(keep))
        return pa.table(
            {
                "doc_a": out.column("doc_a"),
                "doc_b": out.column("doc_b"),
                "jaccard": pa.array(np.round(j[keep], 6), type=pa.float64()),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


def near_dup_clusters(
    pairs: ray.data.Dataset,
    max_iter: int = 30,
) -> ray.data.Dataset:
    """Collapse a near-duplicate PAIR set into clusters: (doc_id,
    cluster_id) for every doc appearing in a pair, cluster_id = the
    smallest doc_id in its connected component. This is the step that
    turns candidate pairs into dedup ACTIONS (keep cluster_id, drop the
    rest).

    Distributed hash-to-min label propagation (Rastogi et al., ICDE'13):
    labels start as each node's own id; every iteration ships each
    node's current label to its neighbors and keeps the min. Converges
    in O(log diameter) rounds for the shallow components near-dup graphs
    produce. Each round is one hash-join + one groupby over the EDGE
    table — O(E) work, never all-pairs — and the slim label table
    (nodes-in-pairs only, not the corpus) is materialized per round to
    stop lineage re-execution. Driver sees only per-round change counts.
    """
    from ray.data.aggregate import Min as _Min

    from .joins import hash_join

    edges = pairs.map_batches(
        lambda b: pa.table(
            {
                "src": pa.chunked_array(
                    [b.column("doc_a").combine_chunks(), b.column("doc_b").combine_chunks()]
                ).combine_chunks(),
                "dst": pa.chunked_array(
                    [b.column("doc_b").combine_chunks(), b.column("doc_a").combine_chunks()]
                ).combine_chunks(),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    labels = (
        edges.groupby("src")
        .aggregate(_Min("dst", alias_name="nbr_min"))
        .map_batches(
            lambda b: pa.table(
                {
                    "node": b.column("src"),
                    "label": pc.min_element_wise(
                        b.column("src"), b.column("nbr_min")
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def lower(candidate: str, old: str):
        # label ← min(label, candidate), keeping the round-start label
        # (column ``old``) for the round's convergence count
        def fn(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b.column("node"),
                    "label": pc.min_element_wise(
                        b.column("label"),
                        pc.fill_null(
                            b.column(candidate), pa.scalar(2**62, pa.int64())
                        ),
                    ),
                    "old": b.column(old),
                }
            )

        return fn

    for _ in range(max_iter):
        # ship each src's label to dst, take the min incoming per node
        incoming = (
            hash_join(edges, labels, "src", "node", ["label"])
            .groupby("dst")
            .aggregate(_Min("label", alias_name="in_min"))
        )
        new_labels = hash_join(
            labels, incoming, "node", "dst", ["in_min"], how="left"
        ).map_batches(lower("in_min", "label"), batch_format="pyarrow").materialize()

        # pointer doubling: label[v] ← min(label[v], label[label[v]]) —
        # halves the label forest's depth each round, so convergence is
        # O(log diameter) instead of O(diameter) (a long chain of
        # near-identical docs would otherwise need diameter rounds)
        lbl_of_lbl = new_labels.map_batches(
            lambda b: pa.table({"lnode": b.column("node"), "llabel": b.column("label")}),
            batch_format="pyarrow",
        )
        labels = hash_join(
            new_labels, lbl_of_lbl, "label", "lnode", ["llabel"], how="left"
        ).map_batches(lower("llabel", "old"), batch_format="pyarrow").materialize()

        # labels never increase, so the round changed nothing iff every
        # node still holds its round-start label
        changed = labels.map_batches(
            lambda b: b.filter(pc.not_equal(b.column("label"), b.column("old"))),
            batch_format="pyarrow",
        )
        if changed.count() == 0:
            break

    return labels.map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("node"), "cluster_id": b.column("label")}
        ),
        batch_format="pyarrow",
    )
