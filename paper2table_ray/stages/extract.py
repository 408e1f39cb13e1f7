"""Span extraction: interleaved docs → ordered output span sequences.

The Ray-Data-native analogue of the reference's per-paper reader pipeline
(/root/reference/src/paper2table/readers/document.py:139-206 — table shaping,
header promotion via hints (readers/utils.py:5-10), cell cleanup — plus the
default pretransformer chain, __main__.py:675-688), operating on interleaved
``(doc_id, spans)`` documents instead of PDF bytes (BASELINE.json input_hint).

Output contract (the correctness invariant is span-sequence equality on
``(kind, text, media_ref, order)`` per doc):

- ``heading`` / ``caption`` spans  → same kind, ``normalize_str`` text
- ``text`` spans                   → ``text`` kind, ``normalize_str`` text;
                                     dropped when empty after normalization
- ``html`` spans                   → boilerplate-stripped main-content
                                     blocks, one ``text`` span per block
- ``media`` spans                  → passed through (text="")
- maximal runs of ``table_row``    → one table fragment: cells split on TAB;
  spans                              header promotion when the first row
                                     matches the hints; fragment-transformer
                                     chain; then one ``table`` span (TAB-
                                     joined column names) followed by one
                                     ``row`` span per surviving row (TAB-
                                     joined values in column order)

``SpanExtractor`` is a callable class — in Ray Data it runs as a task-pool
stage via ``map_batches(worker_cached(SpanExtractor, config=cfg))``
(stages/workercache.py), so the per-worker state (compiled regexes, hint
set, transformer chain, boilerplate stripper) is built once per worker
process (SURVEY.md §2.3).

A batch's spans are decoded column-wise, once; only ``table_row`` and
``html`` texts become Python strings. One per-doc core walks each doc's
range for table runs, mappings and page range; a doc that raises (a null
text or offset, a failing table run) becomes one ``error`` span.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import rowmodel as rm
from ..functions.text import normalize_column_name, normalize_str, normalize_str_array
from ..schema import SPAN_STRUCT, SPANS_OUT_SCHEMA
from .boilerplate import BoilerplateStripper
from .transformers import (
    FilterEmptyRowsTransformer,
    FilterTitleRowsTransformer,
    LeadingRowNumberTransformer,
    NormalizePunctuationTransformer,
)

CELL_SEP = "\t"

import re as _re

_MULTISPACE_RE = _re.compile(r" {2,}")


@dataclass(frozen=True)
class ExtractConfig:
    """Flagship extraction configuration. Frozen, so that it is hashable
    and can key the worker cache.

    ``filter_title_rows`` and ``filter_empty_rows`` mirror the reference's
    default-on pretransformers (__main__.py:679-688); the other two are the
    optional transformers, enabled in the flagship pipeline so fixtures
    exercise them.
    """

    hints: Tuple[str, ...] = (
        "family",
        "scientific_name",
        "common_name",
        "species",
        "count",
        "population",
        "status",
    )
    filter_title_rows: bool = True
    leading_row_numbers: bool = True
    normalize_punctuation: bool = True
    filter_empty_rows: bool = True
    min_text_len: int = 25
    max_link_density: float = 0.35
    quarantine: bool = True  # per-doc failures → ("error", msg, "") span
    # cell-split strategy candidates, tried IN ORDER per table run until
    # one yields structure (the reference's extraction-settings sweep,
    # readers/document.py:92-119 + pdfplumber.py:52-66: iterate candidate
    # settings, first successful parse wins, fail only after all fail)
    strategies: Tuple[str, ...] = ("tab", "spaces", "pipe")
    # 1-based inclusive page window (reference 'file.pdf:first:last'
    # syntax, page_range.py:5-14 + split_pages.py page_range): only table
    # runs numbered within the window are extracted; runs outside yield
    # nothing (the reference skips those pages entirely — non-table spans
    # are kept here since this engine's output interleaves them)
    page_range: Optional[Tuple[int, int]] = None


class SpanExtractor:
    """Batch UDF: docs batch (DOC_SCHEMA, plus an optional ``mapping_json``
    column) → spans batch (SPANS_OUT_SCHEMA).

    ``mapping_json``: per-doc mapping JSON, null for docs without one;
    mapped extraction attaches it with a doc_id join
    (pipelines/extract.extract_spans_mapped). A mapping mirrors the
    reference's LLM-produced ``TablesMapping`` (mapping.py:19-43):
    ``{"column_mappings": {ordinal(str|int): name}, "header_mode":
    "all_pages" | "first_page_only" | "none"}`` — mapped extraction
    selects cells by ordinal, renames them, and drops header rows per
    header_mode (document.py:77-123 mapped path).

    ``quarantine``: per-doc failures become one ``("error", message, "")``
    span instead of failing the task — semantic failures are data
    (SURVEY.md §4 stragglers row; reference analogue: warn-continue +
    partial writes, __main__.py:428-440)."""

    def __init__(self, config: Optional[ExtractConfig] = None):
        self.config = config or ExtractConfig()
        self.hints_set = frozenset(self.config.hints)
        self.stripper = BoilerplateStripper(
            min_text_len=self.config.min_text_len,
            max_link_density=self.config.max_link_density,
        )
        chain = []
        if self.config.filter_title_rows:
            chain.append(FilterTitleRowsTransformer())
        if self.config.leading_row_numbers:
            chain.append(LeadingRowNumberTransformer())
        if self.config.normalize_punctuation:
            chain.append(NormalizePunctuationTransformer())
        if self.config.filter_empty_rows:
            chain.append(FilterEmptyRowsTransformer())
        self.transformers = chain

    # -- per-doc core -------------------------------------------------------

    def extract_doc(
        self, spans: List[dict], mapping: Optional[dict] = None
    ) -> List[Tuple[str, str, str]]:
        """One doc's input spans (any order) → ordered (kind, text,
        media_ref) output sequence: a one-doc adapter onto the batch path,
        raising what a batch would quarantine. ``mapping`` accepts both the
        reference's TablesMapping JSON shape and the compact form
        (stages/llmclient.normalize_tables_mapping)."""
        spans = pa.array([spans or []], pa.list_(SPAN_STRUCT))
        mapping_json = [json.dumps(mapping) if mapping else None]
        batch = pa.table({"doc_id": [""], "spans": spans, "mapping_json": mapping_json})
        out = self._extract(batch, quarantine=False)
        return list(zip(*(out.column(c).to_pylist() for c in ("kind", "text", "media_ref"))))

    def _doc_entries(self, codes: List[int], raw: dict, lo: int, hi: int, mapping) -> list:
        """Decoded spans ``lo .. hi`` of one doc → its output entries in
        order: an int is a decoded span emitted as it stands, a tuple a
        made (kind, text, media_ref) span."""
        from .llmclient import normalize_tables_mapping

        norm = normalize_tables_mapping(mapping) if mapping else None
        out: list = []
        table_run: List[str] = []
        table_no = [0]  # fragment counter (for first_page_only header mode)

        page_range = self.config.page_range

        def flush_table():
            if table_run:
                tm = None
                skip = False
                run_no = table_no[0] + 1
                if page_range is not None:
                    if not (page_range[0] <= run_no <= page_range[1]):
                        skip = True
                    # reference split_pages semantics (split_pages.py):
                    # the selected pages are written to a temp PDF and
                    # RENUMBERED 1..k before the inner (possibly mapped)
                    # reader sees them — so any mapping window below is
                    # window-relative, not global
                    run_no = run_no - page_range[0] + 1
                local_idx = run_no - 1
                is_first = local_idx == 0
                if not skip and norm is not None:
                    if norm["apply_to_all"]:
                        tm = norm["tables"][0]
                    elif norm["tables"] and norm["tables"][0].get("first_page"):
                        # reference page-window semantics
                        # (document.py:77-123): only the FIRST table
                        # mapping is read (the trailing ``break`` at
                        # document.py:121), applied to the 1-based page
                        # window [first_page, last_page]; pages outside
                        # the window — including windows entirely past
                        # the document's end (the IndexError
                        # warn-and-abort, document.py:85-90) — yield no
                        # tables. Here a "page" is a table run.
                        tm = norm["tables"][0]
                        first = tm["first_page"]
                        last = tm.get("last_page") or first
                        if not (first <= run_no <= last):
                            skip = True
                        is_first = run_no == first
                    elif local_idx < len(norm["tables"]):
                        # windowless multi-table form: run i → tables[i]
                        tm = norm["tables"][local_idx]
                    else:
                        # reference mapped path reads ONLY mapped tables
                        # (document.py:80-123): unmapped runs are skipped
                        skip = True
                if not skip:
                    out.extend(self._extract_table(table_run, tm, is_first))
                table_no[0] += 1
                table_run.clear()

        for i in range(lo, hi):
            code = codes[i]
            if code == _ROW:
                table_run.append(raw[i])
                continue
            flush_table()
            if code == _EMIT:
                out.append(i)
            elif code == _HTML:
                out.extend(("text", b, "") for b in self.stripper.extract_blocks(raw[i]))
            elif code == _NULL_TEXT:
                normalize_str(None)  # raises the per-value path's TypeError
            # _DROP: a text span empty after normalization, or an unknown
            # kind (quarantine-worthy upstream)
        flush_table()
        return out

    # strategy registry: raw row texts → cell grids (values looked up via
    # the dict, so no descriptor binding). "tab" is the native shape;
    # "spaces" recovers tables whose TABs were flattened to runs of
    # spaces; "pipe" recovers Markdown/ASCII-art style rows.
    _STRATEGIES = {
        "tab": lambda raw: [r.split(CELL_SEP) for r in raw],
        "spaces": lambda raw: [_MULTISPACE_RE.split(r.strip()) for r in raw],
        "pipe": lambda raw: [
            [c.strip() for c in r.strip().strip("|").split("|")] for r in raw
        ],
    }

    def _parse_grids(
        self, raw_rows: List[str], min_width: Optional[int] = None
    ) -> Optional[List[List[str]]]:
        """Candidate sweep (document.py:92-119): first strategy that
        parses AND finds ≥2 columns wins; a raising strategy is skipped;
        if every strategy parses single-column, the first parse is
        accepted (legitimate one-column table); if every strategy raises,
        the last error propagates (→ doc-level quarantine).

        ``min_width`` (mapped path): a candidate must also cover the
        highest mapped column ordinal — the reference's ordinal-select
        raises KeyError inside the same candidate loop (document.py:
        94-119 + 174-177); when NO candidate covers it the page yields
        no table (warn-and-skip) → ``None`` here, never an exception."""
        last_error: Optional[Exception] = None
        fallback: Optional[List[List[str]]] = None
        for name in self.config.strategies:
            parse = self._STRATEGIES[name]
            try:
                grids = parse(raw_rows)
            except Exception as exc:
                last_error = exc
                continue
            width = max(len(g) for g in grids)
            if min_width is not None:
                if width >= min_width:
                    return grids
                continue
            if width >= 2:
                return grids
            if fallback is None:
                fallback = grids
        if min_width is not None:
            return None
        if fallback is not None:
            return fallback
        assert last_error is not None
        raise last_error

    def _extract_table(
        self,
        raw_rows: List[str],
        mapping: Optional[dict] = None,
        is_first: bool = True,
    ) -> List[Tuple[str, str, str]]:
        if mapping:
            cm = {int(k): v for k, v in mapping.get("column_mappings", {}).items()}
            ordinals = sorted(cm)
            min_width = ordinals[-1] + 1 if ordinals else None
            grids = self._parse_grids(raw_rows, min_width=min_width)
            if grids is None:
                # no candidate covers the highest mapped ordinal → the
                # run yields no table (reference warn-and-skip)
                return []
        else:
            grids = self._parse_grids(raw_rows)
        width = max(len(g) for g in grids)
        grids = [g + [""] * (width - len(g)) for g in grids]

        if mapping:
            # mapped path (document.py:77-123): drop header per header_mode,
            # then select by ordinal + rename.
            header_mode = mapping.get("header_mode", "all_pages")
            body = grids
            if body and (
                header_mode == "all_pages"
                or (header_mode == "first_page_only" and is_first)
            ):
                body = body[1:]
            columns = [normalize_column_name(cm[o]) for o in ordinals]
            body = [
                [row[o] if o < len(row) else "" for o in ordinals] for row in body
            ]
        else:
            # header promotion (readers/utils.py:5-10 + read_table header
            # path): first row is a header iff any cell normalizes to a hint.
            columns = [str(i) for i in range(width)]
            body = grids
            if grids and any(
                normalize_column_name(cell) in self.hints_set for cell in grids[0]
            ):
                columns = [normalize_column_name(cell) for cell in grids[0]]
                body = grids[1:]

        # reference read_table strips newlines from cells and normalizes
        # column names (document.py:177-185)
        fragment: rm.Fragment = {
            "rows": [
                rm.make_row(
                    {
                        col: cell.replace("\n", " ")
                        for col, cell in zip(columns, row)
                    }
                )
                for row in body
            ],
            "page": 1,
        }
        for transformer in self.transformers:
            fragment = transformer.transform_fragment(fragment)

        out_columns = rm.fragment_column_names(fragment) or columns
        out = [("table", CELL_SEP.join(out_columns), "")]
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

    # -- batch UDF ----------------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self._extract(batch, self.config.quarantine)

    def _extract(self, batch: pa.Table, quarantine: bool) -> pa.Table:
        """Decode the batch's spans once (flattened, stably sorted on (doc,
        offset), heading/caption/text normalized as one column), run the
        per-doc core over each doc's range, then gather every output
        column with one ``take`` over the decoded spans and the made ones."""
        spans = batch.column("spans").combine_chunks()
        unsorted, parents = pc.list_flatten(spans), pc.list_parent_indices(spans)
        offsets = unsorted.field("offset")
        by = pa.record_batch([parents, offsets], names=["doc", "offset"])
        flat = unsorted.take(pc.sort_indices(by, [("doc", "ascending"), ("offset", "ascending")]))
        kind, text = flat.field("kind"), flat.field("text")
        k = np.asarray(pc.index_in(kind, value_set=_KINDS).fill_null(len(_KINDS)))
        normalized, media = k < 3, pa.array(k == 3)
        mask = pa.array(normalized)
        normed = pc.replace_with_mask(text, mask, normalize_str_array(text.filter(mask)))
        codes = np.array(_KIND_CODES, np.int8)[k]
        codes[(k == 2) & np.asarray(pc.equal(normed, "").fill_null(False))] = _DROP
        codes[normalized & np.asarray(text.is_null())] = _NULL_TEXT
        py_rows = np.flatnonzero((codes == _ROW) | (codes == _HTML))
        raw = dict(zip(py_rows.tolist(), text.take(py_rows).to_pylist()))
        codes = codes.tolist()
        bounds = [0] + np.cumsum(np.asarray(pc.list_value_length(spans).fill_null(0))).tolist()
        unsortable = set(parents.filter(pc.or_(unsorted.is_null(), offsets.is_null())).to_pylist())
        has_maps = "mapping_json" in batch.column_names
        maps_col = batch.column("mapping_json").to_pylist() if has_maps else [None] * batch.num_rows
        src, made, out_doc, out_idx = [], [], [], []
        for d, mapping_json in enumerate(maps_col):
            mapping = json.loads(mapping_json) if mapping_json else None
            lo, hi = bounds[d], bounds[d + 1]
            try:
                if d in unsortable:  # a null span or offset: the per-doc sort's TypeError
                    sorted(unsorted[lo:hi].to_pylist(), key=lambda s: s["offset"])
                entries = self._doc_entries(codes, raw, lo, hi, mapping)
            except Exception as exc:  # quarantine, don't fail the task
                if not quarantine:
                    raise
                entries = [("error", f"{type(exc).__name__}: {exc}", "")]
            for e in entries:
                if not isinstance(e, int):  # a made span, after the decoded ones
                    made.append(e)
                    e = len(kind) + len(made) - 1
                src.append(e)
            out_doc.extend([d] * len(entries))
            out_idx.extend(range(len(entries)))
        media_ref = pc.if_else(media, flat.field("media_ref"), "")
        decoded = [kind, pc.if_else(media, "", normed), media_ref]
        take = pa.array(src, pa.int64())
        columns = [
            pa.concat_arrays([col, pa.array(m, pa.string())]).take(take)
            for col, m in zip(decoded, list(zip(*made)) or [(), (), ()])
        ]
        doc_id = batch.column("doc_id").take(pa.array(out_doc, pa.int64())).cast(pa.string())
        return pa.Table.from_arrays(
            [doc_id, pa.array(out_idx, pa.int32()), *columns], schema=SPANS_OUT_SCHEMA
        )


# per-span codes of a decoded batch, by kind (an unknown kind is dropped)
_DROP, _EMIT, _ROW, _HTML, _NULL_TEXT = range(5)
_KINDS = pa.array(["heading", "caption", "text", "media", "table_row", "html"])
_KIND_CODES = (_EMIT, _EMIT, _EMIT, _EMIT, _ROW, _HTML, _DROP)
