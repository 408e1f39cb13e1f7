"""Seeded inputs for the three workloads.

Everything here is a pure function of ``seed`` and a size, so the same
seed always gives the same inputs. Input generation runs before any
timing and is never counted as engine time.

The base table is ``documents``-shaped (``doc_id: int64``, ``text``,
``lang``). Text is ASCII only, so Python ``re`` and DuckDB agree on every
token.

Every rate below is an assumption, not a measurement: the repository
holds no sample of real documents to calibrate it against. Each was
chosen for what it makes the workloads exercise, and the reason is given
with it. Nothing here claims that the mix is representative of a real
corpus. Once a real ``documents`` sample is committed to the repository,
these rates should be measured from it and replaced.

- language, 50 % ``en``, 30 % ``es``, 20 % ``und`` (no stopwords): both
  kept languages are present in quantity, and a share of docs is dropped
  by the language filter;
- 3-12 sentences of 6-16 words and at least 30 characters: docs differ in
  length, some reach ``NEAR_DUP_MIN_WORDS`` words, and no sentence is
  short enough to meet the known extract fault (see the probe in
  ``workloads.py``);
- about a third of the words stopwords for en/es: enough for
  ``LanguageId`` to tell the two languages apart;
- a vocabulary of ``VOCAB_SIZE`` random letter strings, drawn uniformly
  (real word frequencies are not uniform): large enough that unrelated
  docs share few word trigrams, so the near-duplicate stages find mostly
  the planted pairs;
- 6 % of docs are exact copies of an earlier doc: exact dedup and the
  hash join drop rows on every seed;
- 6 % of docs are one-word edits of an earlier doc of at least
  ``NEAR_DUP_MIN_WORDS`` words (planted near duplicates, returned by
  ``make_documents``): the MinHash recall check has about 90 pairs to
  find at 1,500 docs. One edit moves at most 3 of a long doc's word
  trigrams, so a planted pair's Jaccard similarity is about 0.94 or
  more, where MinHash LSH misses a pair with odds under one in a million.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pyarrow as pa

from paper2table_ray.stages.textqc import STOPWORDS

# assumed rates, not measured; see the module docstring
LANG_MIX = (("en", 0.5), ("es", 0.3), ("und", 0.2))
EXACT_DUP_RATE = 0.06
NEAR_DUP_RATE = 0.06
VOCAB_SIZE = 4000
NEAR_DUP_MIN_WORDS = 100
MIN_SENTENCE_CHARS = 30


def _vocabulary(rng: random.Random) -> List[str]:
    stop = set().union(*STOPWORDS.values())
    words: set = set()
    while len(words) < VOCAB_SIZE:
        w = "".join(rng.choice("abcdefghijklmnoprstuvwy") for _ in range(rng.randint(4, 10)))
        if w not in stop:
            words.add(w)
    return sorted(words)


def _sentence(rng: random.Random, vocab: List[str], stops: List[str]) -> List[str]:
    words: List[str] = []
    n = rng.randint(6, 16)
    # at least MIN_SENTENCE_CHARS: a shorter paragraph inside an html span
    # meets a known fault (see the extract probe in workloads.py)
    while len(words) < n or len(" ".join(words)) < MIN_SENTENCE_CHARS:
        if stops and rng.random() < 0.35:
            words.append(rng.choice(stops))
        else:
            words.append(rng.choice(vocab))
    return words


def _text(sentences: List[List[str]]) -> str:
    return " ".join(" ".join(s).capitalize() + "." for s in sentences)


def make_documents(seed: int, n_docs: int) -> Tuple[pa.Table, List[Tuple[int, int]]]:
    """→ (documents table, planted near-duplicate ``(original, copy)`` id
    pairs). Doc ids run from 0 to ``n_docs - 1``."""
    rng = random.Random(f"perfbench:{seed}")
    vocab = _vocabulary(rng)
    stops = {lang: sorted(STOPWORDS[lang]) for lang in ("en", "es")}
    texts: List[str] = []
    langs: List[str] = []
    words_of: List[List[List[str]]] = []
    near: List[Tuple[int, int]] = []
    long_docs: List[int] = []
    for i in range(n_docs):
        roll = rng.random()
        if i >= 10 and roll < EXACT_DUP_RATE:
            src = rng.randrange(i)
            texts.append(texts[src])
            langs.append(langs[src])
            words_of.append(words_of[src])
            continue
        if long_docs and roll < EXACT_DUP_RATE + NEAR_DUP_RATE:
            src = rng.choice(long_docs)
            sentences = [list(s) for s in words_of[src]]
            s = rng.randrange(len(sentences))
            w = rng.randrange(len(sentences[s]))
            sentences[s][w] = rng.choice(vocab)
            texts.append(_text(sentences))
            langs.append(langs[src])
            words_of.append(sentences)
            if texts[-1] != texts[src]:
                near.append((src, i))
            continue
        r, lang = rng.random(), LANG_MIX[-1][0]
        for name, share in LANG_MIX:
            if r < share:
                lang = name
                break
            r -= share
        sentences = [
            _sentence(rng, vocab, stops.get(lang, []))
            for _ in range(rng.randint(3, 12))
        ]
        texts.append(_text(sentences))
        langs.append(lang)
        words_of.append(sentences)
        if sum(map(len, sentences)) >= NEAR_DUP_MIN_WORDS:
            long_docs.append(i)
    table = pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    return table, near


def resultset_files(documents: pa.Table, seed: int, runs: int = 3) -> Dict[str, Dict[str, dict]]:
    """Reference-format ``.tables.json`` objects for ``runs`` extraction
    runs of every paper: ``{run_uuid: {doc_id: json_obj}}``."""
    from paper2table_ray.schema import records_to_tablesfiles, table_to_row_records
    from paper2table_ray.sources.resultsets import synth_resultsets_batch
    from paper2table_ray.sources.tablesfile_json import tablesfile_to_json_obj

    cells = synth_resultsets_batch(documents.select(["doc_id"]), seed, runs)
    by_doc: Dict[str, List[dict]] = {}
    for rec in table_to_row_records(cells):
        by_doc.setdefault(rec["doc_id"], []).append(rec)
    out: Dict[str, Dict[str, dict]] = {}
    for doc_id, records in by_doc.items():
        for uuid, tf in records_to_tablesfiles(records).items():
            out.setdefault(uuid, {})[doc_id] = tablesfile_to_json_obj(tf)
    return out
