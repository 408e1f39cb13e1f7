"""Text analysis operators for training-data pipelines.

Vectorized ``map_batches`` stages over a ``documents``-shaped table
(``doc_id``, ``text``): token counting, quality scoring, language ID,
content fingerprinting. These are first-class engine operators (driver
brief) beyond the reference's inventory; each has a ``queries()`` entry and
— where SQL-expressible — a DuckDB oracle whose regex/semantics match these
implementations **exactly** (token regex is ASCII ``[A-Za-z0-9_]+`` so
Python ``re`` and DuckDB RE2 agree).
"""

from __future__ import annotations

import hashlib
import re
from typing import List

import numpy as np
import pyarrow as pa

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
PUNCT_RE = re.compile(r"[.,;:!?]")
WS_RE = re.compile(r"\s+")

# Stopword sets for the n-gram/stopword language heuristic. Deterministic
# tie-break: priority order en > es > de > fr; zero hits → "und".
STOPWORDS = {
    "en": frozenset(
        "the and of to a in is was for on with as by that it from at this are be".split()
    ),
    "es": frozenset(
        "el la los las de del y en es un una para con por que se al lo como".split()
    ),
    "de": frozenset(
        "der die das und von zu mit den im für ist nicht ein eine auf des".split()
    ),
    "fr": frozenset(
        "le la les de des et en un une pour avec par que se au du dans est".split()
    ),
}
_LANG_PRIORITY = ("en", "es", "de", "fr")


def canonical_text(text: str) -> str:
    """lower + trim + whitespace-collapse; matches the oracle's
    ``lower(trim(regexp_replace(text, '\\s+', ' ', 'g')))``."""
    return WS_RE.sub(" ", text).strip().lower()


def fingerprint_md5(text: str) -> str:
    return hashlib.md5(canonical_text(text).encode("utf-8")).hexdigest()


def add_text_features(batch: pa.Table) -> pa.Table:
    """token_count, word_chars, avg_word_len, punct_count, punct_ratio,
    fingerprint — all reproducible in ANSI SQL (see oracle_sql)."""
    texts = batch.column("text").to_pylist()
    n = len(texts)
    token_count = np.empty(n, dtype=np.int64)
    word_chars = np.empty(n, dtype=np.int64)
    punct_count = np.empty(n, dtype=np.int64)
    n_chars = np.empty(n, dtype=np.int64)
    fingerprints: List[str] = []
    for i, t in enumerate(texts):
        t = t or ""
        toks = TOKEN_RE.findall(t)
        token_count[i] = len(toks)
        word_chars[i] = sum(len(w) for w in toks)
        punct_count[i] = len(PUNCT_RE.findall(t))
        n_chars[i] = len(t)
        fingerprints.append(fingerprint_md5(t))
    avg_word_len = word_chars / np.maximum(1, token_count)
    punct_ratio = punct_count / np.maximum(1, n_chars)
    return (
        batch.append_column("token_count", pa.array(token_count))
        .append_column("word_chars", pa.array(word_chars))
        .append_column("avg_word_len", pa.array(avg_word_len))
        .append_column("punct_count", pa.array(punct_count))
        .append_column("punct_ratio", pa.array(punct_ratio))
        .append_column("fingerprint", pa.array(fingerprints, type=pa.string()))
    )


class LanguageId:
    """Stopword-hit language heuristic. Callable class → worker-cached
    task stage (stopword sets + compiled regex built once per worker)."""

    def __init__(self):
        self.token_re = TOKEN_RE
        self.stops = {lang: set(words) for lang, words in STOPWORDS.items()}

    def classify(self, text: str) -> str:
        toks = [t.lower() for t in self.token_re.findall(text or "")]
        if not toks:
            return "und"
        best_lang, best_hits = "und", 0
        for lang in _LANG_PRIORITY:
            hits = sum(1 for t in toks if t in self.stops[lang])
            if hits > best_hits:
                best_lang, best_hits = lang, hits
        return best_lang

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = [self.classify(t) for t in batch.column("text").to_pylist()]
        return batch.append_column("lang_pred", pa.array(langs, type=pa.string()))


def add_quality_score(batch: pa.Table) -> pa.Table:
    """Heuristic document quality in [0, 1]: length band + stopword ratio +
    punctuation sanity (the usual pre-training quality-filter trio).
    Requires add_text_features columns."""
    texts = batch.column("text").to_pylist()
    token_count = batch.column("token_count").to_numpy()
    punct_ratio = batch.column("punct_ratio").to_numpy()
    en_stop = STOPWORDS["en"]
    stop_ratio = np.empty(len(texts))
    for i, t in enumerate(texts):
        toks = [w.lower() for w in TOKEN_RE.findall(t or "")]
        stop_ratio[i] = (
            sum(1 for w in toks if w in en_stop) / len(toks) if toks else 0.0
        )
    length_score = np.clip(token_count / 100.0, 0.0, 1.0)
    stop_score = np.clip(stop_ratio / 0.4, 0.0, 1.0)
    punct_penalty = np.clip(punct_ratio / 0.25, 0.0, 1.0)
    # summed left to right as the curate_docs oracle SQL does: grouping
    # ``(1.0 - punct_penalty)`` first moves the last bit of some scores,
    # enough to flip a doc across a ``min_quality`` threshold
    score = (length_score + stop_score + 1.0 - punct_penalty) / 3.0
    return batch.append_column("quality_score", pa.array(score))


# --- winnowing-style rolling-hash fingerprint (non-SQL extra) ---------------

_BASE = np.uint64(1099511628211)
_OFFSET = np.uint64(14695981039346656037)


def _fnv1a_tokens(tokens: List[str]) -> np.ndarray:
    out = np.empty(len(tokens), dtype=np.uint64)
    for i, tok in enumerate(tokens):
        h = _OFFSET
        for b in tok.encode("utf-8"):
            h = np.uint64((int(h) ^ b) * int(_BASE) & 0xFFFFFFFFFFFFFFFF)
        out[i] = h
    return out


def winnow_fingerprints(text: str, k: int = 5, window: int = 8) -> List[int]:
    """Winnowing (Schleimer et al., SIGMOD'03): k-gram rolling hashes, keep
    the min hash of each sliding window → a compact, position-robust
    document sketch."""
    tokens = TOKEN_RE.findall(canonical_text(text))
    if len(tokens) < k:
        return []
    th = _fnv1a_tokens(tokens)
    n = len(tokens) - k + 1
    grams = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            grams = grams * _BASE + th[j : j + n]
    if n <= window:
        return [int(grams.min())]
    sl = np.lib.stride_tricks.sliding_window_view(grams, window)
    mins = sl.min(axis=1)
    return sorted(set(int(x) for x in mins))


# --- PII / pattern redaction -------------------------------------------------

# ASCII-only patterns so Python re and DuckDB RE2 agree byte-for-byte.
# Order matters: emails first (their local parts contain digits), then
# long digit runs (phone-ish), applied sequentially.
REDACT_PATTERNS: List[tuple] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\+?[0-9][0-9() .-]{7,}[0-9]", "<PHONE>"),
    (r"[0-9]{4,}", "<NUM>"),
]


class Redactor:
    """Actor-pool batch UDF: adds ``redacted`` (the scrubbed text) and
    ``n_redactions`` per document. Patterns are compiled ONCE per actor
    in ``__init__`` — the standard stateful-stage shape. PII scrubbing is
    a stock pre-training curation stage; the stub patterns here are
    deliberately simple and deterministic so the DuckDB oracle can
    replicate them with ``regexp_replace(..., 'g')`` exactly."""

    def __init__(self, patterns=None):
        self.patterns = [
            (re.compile(p), repl) for p, repl in (patterns or REDACT_PATTERNS)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        red, counts = [], []
        for t in texts:
            t = t or ""
            n = 0
            for rx, repl in self.patterns:
                t, k = rx.subn(repl, t)
                n += k
            red.append(t)
            counts.append(n)
        return batch.append_column(
            "redacted", pa.array(red, pa.string())
        ).append_column("n_redactions", pa.array(counts, pa.int64()))
