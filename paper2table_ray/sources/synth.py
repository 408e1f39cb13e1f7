"""Deterministic interleaved-document corpus synthesis (FIXTURES.md F1/F2).

Builds the BASELINE.json input shape — ``(doc_id, spans)`` with interleaved
text / heading / html / table_row / caption / media spans — from the driver's
``documents.parquet`` text at any scale, plus the **expected** extraction
output derived from the generation plan (not by running the extractor), so
span-sequence equality tests are a genuine oracle.

Everything is a pure function of ``(seed, doc_id, source text)``:
per-doc ``random.Random(f"{seed}:{doc_id}")`` — so synthesis can run
distributed inside ``map_batches`` and reproduces bit-identically at any
parallelism, block order, or scale factor.

Noise injected (and the transformer expected to undo it):

- table title rows            → FilterTitleRowsTransformer
- ``"N. "`` row-number prefix → LeadingRowNumberTransformer
- dash/quote/ellipsis noise   → NormalizePunctuationTransformer
- empty rows                  → FilterEmptyRowsTransformer
- HTML nav/header/footer/link boilerplate → BoilerplateStripper
- messy whitespace / dashes in text spans → normalize_str

~10% of docs carry no table (reference writes nothing for those,
src/paper2table/writers/file.py:16-18 — here they still yield text spans);
docs where ``hash(doc_id) % 23 == 0`` are long-doc skew probes.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Tuple

import pyarrow as pa

from ..functions.text import normalize_punctuation, normalize_str
from ..schema import DOC_SCHEMA, SPANS_OUT_SCHEMA
from ..stages.boilerplate import BoilerplateStripper
from ..stages.extract import CELL_SEP

DEFAULT_SEED = 42

FAMILIES = [
    "Apiaceae", "Rosaceae", "Lamiaceae", "Asteraceae", "Fabaceae",
    "Poaceae", "Brassicaceae", "Solanaceae", "Orchidaceae", "Pinaceae",
]
SPECIES = [
    "Ammi majus L.", "Rosa canina L.", "Mentha spicata L.",
    "Helianthus annuus", "Vicia faba L.", "Zea mays L.",
    "Brassica napus L.", "Solanum lycopersicum", "Orchis mascula",
    "Pinus sylvestris L.",
]
COMMON_NAMES = [
    "bishop's weed", "dog rose", "spearmint", "sunflower", "broad bean",
    "maize", "rapeseed", "tomato", "early purple orchid", "scots pine",
]
STATUSES = ["stable", "vulnerable", "endangered", "rare", "unknown"]

HEADER_POOLS = {
    "family": FAMILIES,
    "scientific_name": SPECIES,
    "common_name": COMMON_NAMES,
    "status": STATUSES,
    "count": [str(n) for n in (3, 17, 42, 120, 7050, 88, 256, 19)],
}
HEADER_LABELS = {
    "family": "Family",
    "scientific_name": "Scientific Name",
    "common_name": "Common Name",
    "status": "Status",
    "count": "Count",
}

_DASH_VARIANTS = "–—−"
_SKEW_MOD = 23
_SKEW_FACTOR = 15


def _doc_hash(doc_id: str) -> int:
    return int.from_bytes(hashlib.sha1(doc_id.encode()).digest()[:8], "little")


def _sentences(text: str) -> List[str]:
    parts = [p.strip() for p in text.replace("\n", " ").split(". ")]
    return [p if p.endswith(".") else p + "." for p in parts if len(p) > 10]


def _noisy_text(rng: random.Random, text: str) -> str:
    """Whitespace/dash mess that normalize_str undoes."""
    if rng.random() < 0.5:
        text = text.replace(" ", "  ", 1)
    if rng.random() < 0.4 and "-" in text:
        text = text.replace("-", rng.choice(_DASH_VARIANTS), 1)
    if rng.random() < 0.3:
        text = " " + text + "  "
    return text


def _make_table(
    rng: random.Random, table_no: int
) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """Returns (raw table_row span texts, expected output spans)."""
    headers = rng.sample(list(HEADER_POOLS), k=rng.randint(2, 4))
    n_rows = rng.randint(2, 7)
    with_header = rng.random() < 0.55

    clean_rows: List[List[str]] = []
    for i in range(n_rows):
        clean_rows.append([rng.choice(HEADER_POOLS[h]) for h in headers])

    noisy_rows = [list(r) for r in clean_rows]

    # punctuation noise on some cells (undone by NormalizePunctuation)
    for r in noisy_rows:
        for j in range(len(r)):
            if rng.random() < 0.25:
                cell = r[j]
                style = rng.random()
                if style < 0.4:
                    cell = "“" + cell + "”"
                elif style < 0.7 and " " in cell:
                    cell = cell.replace(" ", " – ", 1)
                else:
                    cell = cell + "…"
                r[j] = cell

    # expected cell = punctuation-normalized noisy cell
    expected_rows = [[normalize_punctuation(c) for c in r] for r in noisy_rows]

    # leading row numbers on column 0 (undone by LeadingRowNumberTransformer)
    if rng.random() < 0.3 and n_rows >= 2:
        for i, r in enumerate(noisy_rows):
            r[0] = f"{i + 1}. {r[0]}"

    raw: List[str] = []
    if with_header:
        raw.append(CELL_SEP.join(HEADER_LABELS[h] for h in headers))
        columns = headers
    else:
        # title row only for headerless tables (kept out of the header-
        # promotion path); dropped by FilterTitleRowsTransformer
        if rng.random() < 0.35:
            title = [f"Table {table_no}. Survey overview"] + [""] * (len(headers) - 1)
            raw.append(CELL_SEP.join(title))
        columns = [str(i) for i in range(len(headers))]

    empty_at = rng.randint(0, n_rows) if rng.random() < 0.3 else None
    for i, r in enumerate(noisy_rows):
        if empty_at == i:
            raw.append(CELL_SEP.join([""] * len(headers)))
        raw.append(CELL_SEP.join(r))
    if empty_at == n_rows:
        raw.append(CELL_SEP.join([""] * len(headers)))

    expected: List[Tuple[str, str, str]] = [
        ("table", CELL_SEP.join(columns), "")
    ]
    for r in expected_rows:
        expected.append(("row", CELL_SEP.join(r), ""))
    return raw, expected


def _make_html(paragraphs: List[str]) -> Tuple[str, List[Tuple[str, str, str]]]:
    import html as html_lib

    content = "".join(f"<p>{html_lib.escape(p)}</p>" for p in paragraphs)
    html = (
        "<html><head><title>t</title><style>body{color:red}</style>"
        "<script>var x=1;</script></head><body>"
        '<header><h1>Journal Site</h1></header>'
        '<nav><a href="/">Home</a> <a href="/browse">Browse</a> '
        '<a href="/about">About</a></nav>'
        f'<div class="content">{content}</div>'
        '<div class="related"><a href="/p1">Related paper one</a> '
        '<a href="/p2">Related paper two</a></div>'
        "<footer>© 2020 The Publisher</footer>"
        "</body></html>"
    )
    # the stripper drops blocks shorter than its min_text_len as boilerplate
    min_len = BoilerplateStripper().min_text_len
    expected = [
        ("text", text, "")
        for text in map(normalize_str, paragraphs)
        if len(text) >= min_len
    ]
    return html, expected


def build_doc(
    doc_id: str, text: str, seed: int = DEFAULT_SEED
) -> Tuple[List[dict], List[Tuple[str, str, str]]]:
    """→ (input spans, expected output (kind, text, media_ref) sequence)."""
    rng = random.Random(f"{seed}:{doc_id}")
    sentences = _sentences(text) or ["Placeholder sentence for an empty source document."]
    # paragraphs of 1-3 sentences, long enough to clear the boilerplate
    # min-length bar when used as html content
    paragraphs: List[str] = []
    i = 0
    while i < len(sentences):
        k = rng.randint(1, 3)
        paragraphs.append(" ".join(sentences[i : i + k]))
        i += k
    if _doc_hash(doc_id) % _SKEW_MOD == 0:
        paragraphs = paragraphs * _SKEW_FACTOR  # long-doc skew probe

    spans: List[dict] = []
    expected: List[Tuple[str, str, str]] = []
    offset = 0

    def emit(kind: str, text: str = "", media_ref: str = ""):
        nonlocal offset
        spans.append(
            {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}
        )
        offset += rng.randint(1, 3)

    # heading
    title = " ".join(sentences[0].split()[:6]).rstrip(".").title()
    emit("heading", _noisy_text(rng, title))
    expected.append(("heading", normalize_str(title), ""))

    n_tables = 0 if rng.random() < 0.10 else rng.randint(1, 2)
    table_positions = sorted(
        rng.sample(range(1, max(2, len(paragraphs) + 1)), k=min(n_tables, len(paragraphs)))
        if n_tables
        else []
    )
    html_at: Optional[int] = (
        rng.randrange(len(paragraphs)) if len(paragraphs) >= 2 and rng.random() < 0.6 else None
    )
    media_at: Optional[int] = (
        rng.randrange(len(paragraphs)) if rng.random() < 0.4 else None
    )

    table_no = 0
    for p_idx, para in enumerate(paragraphs):
        if p_idx == html_at:
            html_paras = [para]
            html, html_expected = _make_html(html_paras)
            emit("html", html)
            expected.extend(html_expected)
        else:
            noisy = _noisy_text(rng, para)
            emit("text", noisy)
            norm = normalize_str(noisy)
            if norm:
                expected.append(("text", norm, ""))

        if p_idx == media_at:
            ref = "img://" + hashlib.sha1(f"{doc_id}:{p_idx}".encode()).hexdigest()[:12]
            emit("media", "", ref)
            expected.append(("media", "", ref))
            caption = f"Figure {p_idx + 1}. Illustration of the sampling site"
            emit("caption", _noisy_text(rng, caption))
            expected.append(("caption", normalize_str(caption), ""))

        if table_positions and p_idx + 1 == table_positions[0]:
            table_positions.pop(0)
            table_no += 1
            raw_rows, table_expected = _make_table(rng, table_no)
            for row_text in raw_rows:
                emit("table_row", row_text)
            expected.extend(table_expected)

    return spans, expected


# --- batch-level synthesis (distributable) ----------------------------------


def _doc_id_of(raw) -> str:
    return f"doc_{int(raw):06d}"


def synth_docs_batch(batch: pa.Table, seed: int = DEFAULT_SEED) -> pa.Table:
    """``documents.parquet`` batch (doc_id:int64, text:string, ...) →
    DOC_SCHEMA batch. Pure per-row function — safe under any partitioning."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    doc_ids, spans_col = [], []
    for raw_id, text in zip(ids, texts):
        doc_id = _doc_id_of(raw_id)
        spans, _ = build_doc(doc_id, text or "", seed)
        doc_ids.append(doc_id)
        spans_col.append(spans)
    return pa.Table.from_arrays(
        [
            pa.array(doc_ids, type=pa.string()),
            pa.array(spans_col, type=DOC_SCHEMA.field("spans").type),
        ],
        schema=DOC_SCHEMA,
    )


def _mapped_table_block(
    raw: List[str], cm: dict, transformers: list
) -> List[Tuple[str, str, str]]:
    """Independent re-derivation of one MAPPED table run (the semantics of
    reference document.py:77-123 as described in stages/extract.py's
    mapped path, re-implemented here so the q_extract_mapped oracle does
    not execute the extractor's own code): candidate parse gated on the
    highest mapped ordinal, all_pages header drop, ordinal select +
    rename, then the default transformer chain."""
    import re

    from .. import rowmodel as rm
    from ..functions.text import normalize_column_name

    multispace = re.compile(r" {2,}")
    strategies = (
        lambda rows: [r.split(CELL_SEP) for r in rows],
        lambda rows: [multispace.split(r.strip()) for r in rows],
        lambda rows: [
            [c.strip() for c in r.strip().strip("|").split("|")] for r in rows
        ],
    )
    ordinals = sorted(cm)
    min_width = ordinals[-1] + 1
    grids = None
    for parse in strategies:
        try:
            g = parse(raw)
        except Exception:
            continue
        if max(len(r) for r in g) >= min_width:
            grids = g
            break
    if grids is None:
        return []  # no candidate covers the highest mapped ordinal
    width = max(len(r) for r in grids)
    grids = [r + [""] * (width - len(r)) for r in grids]
    body = grids[1:]  # header_mode=all_pages (the planner stub's mode)
    columns = [normalize_column_name(cm[o]) for o in ordinals]
    fragment = {
        "rows": [
            rm.make_row(
                {
                    col: row[o].replace("\n", " ")
                    for col, o in zip(columns, ordinals)
                }
            )
            for row in body
        ],
        "page": 1,
    }
    for t in transformers:
        fragment = t.transform_fragment(fragment)
    out_columns = rm.fragment_column_names(fragment) or columns
    out: List[Tuple[str, str, str]] = [("table", CELL_SEP.join(out_columns), "")]
    for row in fragment["rows"]:
        values = []
        for col in out_columns:
            val = row["cells"].get(col)
            if val is None:
                values.append("")
            elif isinstance(val, str):
                values.append(val)
            else:
                values.append(val[0]["value"] if val else "")
        out.append(("row", CELL_SEP.join(values), ""))
    return out


def expected_mapped_spans_batch(
    batch: pa.Table, seed: int = DEFAULT_SEED
) -> pa.Table:
    """Expected output of the MAPPED (hybrid) extraction over the
    generation plan — the oracle side of ``q_extract_mapped``.

    The deterministic planner maps ordinals from the doc's first
    ``table_row`` span (stages/llmclient.DeterministicPlannerClient);
    docs with no table rows get no mapping and extract unmapped, so
    their expected sequence is the plan's unmapped one. For mapped docs
    every table block in the plan's expected sequence is replaced by the
    independently derived mapped block (``_mapped_table_block``) of the
    corresponding raw run."""
    from ..functions.text import normalize_column_name
    from ..stages.transformers import (
        FilterEmptyRowsTransformer,
        FilterTitleRowsTransformer,
        LeadingRowNumberTransformer,
        NormalizePunctuationTransformer,
    )

    transformers = [
        FilterTitleRowsTransformer(),
        LeadingRowNumberTransformer(),
        NormalizePunctuationTransformer(),
        FilterEmptyRowsTransformer(),
    ]
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    doc, idx, kind_col, text_col, ref = [], [], [], [], []
    for raw_id, text in zip(ids, texts):
        doc_id = _doc_id_of(raw_id)
        spans, expected = build_doc(doc_id, text or "", seed)
        runs: List[List[str]] = []
        cur: List[str] = []
        for s in sorted(spans, key=lambda s: s["offset"]):
            if s["kind"] == "table_row":
                cur.append(s["text"])
            elif cur:
                runs.append(cur)
                cur = []
        if cur:
            runs.append(cur)
        if not runs:
            seq = expected
        else:
            first_cells = runs[0][0].split(CELL_SEP)
            cm = {
                i: normalize_column_name(c) or f"col_{i}"
                for i, c in enumerate(first_cells)
            }
            blocks = [_mapped_table_block(r, cm, transformers) for r in runs]
            seq = []
            run_i = 0
            j = 0
            while j < len(expected):
                if expected[j][0] == "table":
                    j += 1
                    while j < len(expected) and expected[j][0] == "row":
                        j += 1
                    seq.extend(blocks[run_i])
                    run_i += 1
                else:
                    seq.append(expected[j])
                    j += 1
            assert run_i == len(runs), f"{doc_id}: {run_i} != {len(runs)}"
        for i, (k, t, r) in enumerate(seq):
            doc.append(doc_id)
            idx.append(i)
            kind_col.append(k)
            text_col.append(t)
            ref.append(r)
    return pa.Table.from_arrays(
        [
            pa.array(doc, type=pa.string()),
            pa.array(idx, type=pa.int32()),
            pa.array(kind_col, type=pa.string()),
            pa.array(text_col, type=pa.string()),
            pa.array(ref, type=pa.string()),
        ],
        schema=SPANS_OUT_SCHEMA,
    )


def expected_spans_batch(batch: pa.Table, seed: int = DEFAULT_SEED) -> pa.Table:
    """Same input → the expected SPANS_OUT_SCHEMA rows (the oracle side)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    doc, idx, kind, text_col, ref = [], [], [], [], []
    for raw_id, text in zip(ids, texts):
        doc_id = _doc_id_of(raw_id)
        _, expected = build_doc(doc_id, text or "", seed)
        for i, (k, t, r) in enumerate(expected):
            doc.append(doc_id)
            idx.append(i)
            kind.append(k)
            text_col.append(t)
            ref.append(r)
    return pa.Table.from_arrays(
        [
            pa.array(doc, type=pa.string()),
            pa.array(idx, type=pa.int32()),
            pa.array(kind, type=pa.string()),
            pa.array(text_col, type=pa.string()),
            pa.array(ref, type=pa.string()),
        ],
        schema=SPANS_OUT_SCHEMA,
    )


def synth_corpus_tables(
    documents_path: str, seed: int = DEFAULT_SEED, limit: Optional[int] = None
) -> Tuple[pa.Table, pa.Table]:
    """Driver-side convenience for tests: (docs, expected spans)."""
    import pyarrow.parquet as pq

    src = pq.read_table(documents_path, columns=["doc_id", "text"])
    if limit is not None:
        src = src.slice(0, limit)
    return synth_docs_batch(src, seed), expected_spans_batch(src, seed)
