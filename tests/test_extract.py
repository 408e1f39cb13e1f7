"""Extraction pipeline: boilerplate strip, span parser, and the end-to-end
span-sequence-equality invariant (kind, text, media_ref, order) per doc_id
against generator-derived expectations (BASELINE.json north rule)."""

import pyarrow as pa
import pytest

from paper2table_ray.sources.synth import build_doc, synth_corpus_tables
from paper2table_ray.stages.boilerplate import BoilerplateStripper
from paper2table_ray.stages.extract import CELL_SEP, ExtractConfig, SpanExtractor

SF = "/root/testdata/sf0.001"


class TestBoilerplate:
    def setup_method(self):
        self.bs = BoilerplateStripper()

    def test_keeps_long_content_drops_chrome(self):
        html = (
            "<html><body><nav><a href='/'>Home</a> <a>About</a></nav>"
            "<div><p>This is the main content paragraph, long enough to keep.</p>"
            "<p>And a second paragraph of real article text right here.</p></div>"
            "<footer>© 2020</footer></body></html>"
        )
        blocks = self.bs.extract_blocks(html)
        assert blocks == [
            "This is the main content paragraph, long enough to keep.",
            "And a second paragraph of real article text right here.",
        ]

    def test_drops_script_and_style(self):
        html = (
            "<style>p {color: red; font-size: 30px}</style>"
            "<script>var somethingLong = 'aaaaaaaaaaaaaaaaaaaaaaaaaa';</script>"
            "<p>Actual visible text that should definitely survive this.</p>"
        )
        assert self.bs.extract_blocks(html) == [
            "Actual visible text that should definitely survive this."
        ]

    def test_drops_link_farms(self):
        html = (
            "<div><a href='1'>One related article link</a> "
            "<a href='2'>Two related article link</a></div>"
            "<p>Real content sentence that is long enough to be kept.</p>"
        )
        assert self.bs.extract_blocks(html) == [
            "Real content sentence that is long enough to be kept."
        ]

    def test_short_blocks_dropped(self):
        assert self.bs.extract_blocks("<p>too short</p>") == []

    def test_entities_unescaped(self):
        html = "<p>Drake &amp; Josh wrote this long enough paragraph.</p>"
        assert self.bs.extract_blocks(html) == [
            "Drake & Josh wrote this long enough paragraph."
        ]

    def test_header_aside_dropped(self):
        html = (
            "<header><h1>A long enough site title banner thing here</h1></header>"
            "<aside>A long enough sidebar advertisement text block here</aside>"
            "<p>Main body paragraph content that is long enough to keep.</p>"
        )
        assert self.bs.extract_blocks(html) == [
            "Main body paragraph content that is long enough to keep."
        ]


def doc_batch(spans_list):
    from paper2table_ray.schema import DOC_SCHEMA

    return pa.Table.from_arrays(
        [
            pa.array([f"d{i}" for i in range(len(spans_list))]),
            pa.array(spans_list, type=DOC_SCHEMA.field("spans").type),
        ],
        schema=DOC_SCHEMA,
    )


def span(kind, text="", media_ref="", offset=0):
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


class TestSpanExtractor:
    def setup_method(self):
        self.ex = SpanExtractor(ExtractConfig())

    def run_doc(self, spans):
        return self.ex.extract_doc(spans)

    def test_text_normalized_and_ordered_by_offset(self):
        out = self.run_doc(
            [span("text", "second  here", offset=5), span("text", " first ", offset=1)]
        )
        assert out == [("text", "first", ""), ("text", "second here", "")]

    def test_empty_text_dropped(self):
        assert self.run_doc([span("text", "   ")]) == []

    def test_media_passthrough(self):
        assert self.run_doc([span("media", media_ref="img://abc")]) == [
            ("media", "", "img://abc")
        ]

    def test_table_header_promotion(self):
        rows = [
            span("table_row", f"Family{CELL_SEP}Count", offset=0),
            span("table_row", f"Apiaceae{CELL_SEP}3", offset=1),
        ]
        out = self.run_doc(rows)
        assert out == [
            ("table", f"family{CELL_SEP}count", ""),
            ("row", f"Apiaceae{CELL_SEP}3", ""),
        ]

    def test_headerless_numeric_columns(self):
        out = self.run_doc([span("table_row", f"Apiaceae{CELL_SEP}3")])
        assert out == [
            ("table", f"0{CELL_SEP}1", ""),
            ("row", f"Apiaceae{CELL_SEP}3", ""),
        ]

    def test_title_row_dropped(self):
        out = self.run_doc(
            [
                span("table_row", f"Table 1. Overview{CELL_SEP}", offset=0),
                span("table_row", f"Apiaceae{CELL_SEP}3", offset=1),
            ]
        )
        assert out[0] == ("table", f"0{CELL_SEP}1", "")
        assert out[1:] == [("row", f"Apiaceae{CELL_SEP}3", "")]

    def test_leading_numbers_stripped(self):
        out = self.run_doc(
            [
                span("table_row", "1. Rose", offset=0),
                span("table_row", "2. Tulip", offset=1),
            ]
        )
        assert out[1:] == [("row", "Rose", ""), ("row", "Tulip", "")]

    def test_empty_rows_dropped(self):
        out = self.run_doc(
            [
                span("table_row", f"a{CELL_SEP}b", offset=0),
                span("table_row", f"{CELL_SEP}", offset=1),
            ]
        )
        assert len([o for o in out if o[0] == "row"]) == 1

    def test_two_table_runs_split_by_text(self):
        out = self.run_doc(
            [
                span("table_row", "x", offset=0),
                span("text", "long enough separator text between two tables", offset=1),
                span("table_row", "y", offset=2),
            ]
        )
        kinds = [o[0] for o in out]
        assert kinds == ["table", "row", "text", "table", "row"]

    def test_batch_udf_schema(self):
        batch = doc_batch([[span("text", "hello world out there")]])
        out = self.ex(batch)
        from paper2table_ray.schema import SPANS_OUT_SCHEMA

        assert out.schema.equals(SPANS_OUT_SCHEMA)
        assert out.num_rows == 1
        assert out.column("span_idx").to_pylist() == [0]


class TestEndToEndSpanEquality:
    """The correctness gate: extractor output == generator expectation,
    (kind, text, media_ref, order) per doc_id, over the sf0.001 corpus."""

    def test_span_sequences_match(self):
        docs, expected = synth_corpus_tables(f"{SF}/documents.parquet", limit=120)
        ex = SpanExtractor(ExtractConfig())
        got = ex(docs)

        def to_map(tbl):
            m = {}
            d = tbl.to_pydict()
            for doc_id, idx, kind, text, ref in zip(
                d["doc_id"], d["span_idx"], d["kind"], d["text"], d["media_ref"]
            ):
                m.setdefault(doc_id, []).append((idx, kind, text, ref))
            return {k: [t[1:] for t in sorted(v)] for k, v in m.items()}

        got_map, exp_map = to_map(got), to_map(expected)
        assert set(got_map) == set(exp_map)
        mismatches = []
        for doc_id in exp_map:
            if got_map[doc_id] != exp_map[doc_id]:
                mismatches.append(doc_id)
        if mismatches:
            doc_id = mismatches[0]
            for i, (g, e) in enumerate(zip(got_map[doc_id], exp_map[doc_id])):
                if g != e:
                    pytest.fail(
                        f"{len(mismatches)} docs mismatch; first {doc_id} span {i}:"
                        f"\n got {g}\n exp {e}"
                    )
            pytest.fail(
                f"{doc_id}: length {len(got_map[doc_id])} vs {len(exp_map[doc_id])};"
                f" tail got={got_map[doc_id][-3:]} exp={exp_map[doc_id][-3:]}"
            )

    def test_corpus_has_variety(self):
        docs, expected = synth_corpus_tables(f"{SF}/documents.parquet", limit=120)
        kinds = set(expected.column("kind").to_pylist())
        assert {"heading", "text", "table", "row", "media", "caption"} <= kinds
        # some docs have no tables
        d = expected.to_pydict()
        by_doc = {}
        for doc_id, kind in zip(d["doc_id"], d["kind"]):
            by_doc.setdefault(doc_id, set()).add(kind)
        assert any("table" not in ks for ks in by_doc.values())
        assert any("table" in ks for ks in by_doc.values())


def test_build_doc_deterministic():
    s1, e1 = build_doc("doc_000001", "Some text. " * 30)
    s2, e2 = build_doc("doc_000001", "Some text. " * 30)
    assert s1 == s2 and e1 == e2
    s3, _ = build_doc("doc_000002", "Some text. " * 30)
    assert s3 != s1


def test_build_doc_plan_leaves_out_short_html_paragraphs():
    # seed 0 puts the 18-character "Short probe three." inside an html
    # span, below the stripper's min_text_len: the plan must not expect it
    spans, expected = build_doc(
        "doc_probe_000", "Short probe one. Short probe two. Short probe three.", 0
    )
    html = [s["text"] for s in spans if s["kind"] == "html"]
    assert html and "<p>Short probe three.</p>" in html[0]
    assert ("text", "Short probe three.", "") not in expected
    assert SpanExtractor(ExtractConfig()).extract_doc(spans) == expected


_MAP_COUNT = '{"header_mode": "all_pages", "column_mappings": {"1": "Count"}}'
_PAGES = ExtractConfig(page_range=(2, 3))
# (docs as (doc_id, spans, mapping_json), config, expected (doc_id, kind, text, media_ref))
DECODE_CASES = {
    "stable_ties_null_and_empty_lists": (
        [
            ("tie", [span("text", "second", offset=1), span("text", "first", offset=0),
                     span("text", "third", offset=1)], None),
            ("null_list", None, None),
            ("empty_list", [], None),
        ],
        ExtractConfig(),
        [("tie", "text", "first", ""), ("tie", "text", "second", ""), ("tie", "text", "third", "")],
    ),
    "text_normalization": (
        [
            ("t", [span("heading", "  Café   crème ", offset=0),
                   span("text", "a(cid:233)b  c", offset=1),
                   span("caption", "tab\there\nnew", offset=2),
                   span("text", "trail \n", offset=3),
                   span("text", " \n", offset=4),
                   span("heading", "  ", offset=5)], None),
        ],
        ExtractConfig(),
        [("t", "heading", "Café crème", ""), ("t", "text", "aéb c", ""),
         ("t", "caption", "tab here new", ""), ("t", "text", "trail", ""),
         ("t", "heading", "", "")],
    ),
    "null_text_offset_and_span_quarantined": (
        [
            ("null_text", [span("heading", "kept"), span("text", None, offset=1)], None),
            ("null_offset", [span("text", "a", offset=0), span("text", "b", offset=None)], None),
            ("null_span", [span("text", "a", offset=0), None], None),
            ("good", [span("text", "fine")], None),
        ],
        ExtractConfig(),
        [("null_text", "error", "TypeError: expected string or bytes-like object, got 'NoneType'", ""),
         ("null_offset", "error", "TypeError: '<' not supported between instances of 'NoneType' and 'int'", ""),
         ("null_span", "error", "TypeError: 'NoneType' object is not subscriptable", ""),
         ("good", "text", "fine", "")],
    ),
    "mapped_next_to_plain": (
        [
            ("mapped", [span("table_row", f"Family{CELL_SEP}Count", offset=0),
                        span("table_row", f"Rosaceae{CELL_SEP}5", offset=1)], _MAP_COUNT),
            ("plain", [span("table_row", f"Family{CELL_SEP}Count", offset=0),
                       span("table_row", f"Rosaceae{CELL_SEP}5", offset=1),
                       span("media", media_ref="img://x", offset=2)], None),
        ],
        ExtractConfig(),
        [("mapped", "table", "count", ""), ("mapped", "row", "5", ""),
         ("plain", "table", f"family{CELL_SEP}count", ""),
         ("plain", "row", f"Rosaceae{CELL_SEP}5", ""), ("plain", "media", "", "img://x")],
    ),
    "page_range_mapped_and_plain": (
        [
            ("mapped", [span("table_row", f"Family{CELL_SEP}Count", offset=0),
                        span("text", "sep", offset=1),
                        span("table_row", f"Name{CELL_SEP}Count", offset=2),
                        span("table_row", f"Rosaceae{CELL_SEP}5", offset=3)], _MAP_COUNT),
            ("plain", [span("table_row", f"a{CELL_SEP}b", offset=0), span("text", "one", offset=1),
                       span("table_row", f"c{CELL_SEP}d", offset=2), span("text", "two", offset=3),
                       span("table_row", f"e{CELL_SEP}f", offset=4), span("text", "three", offset=5),
                       span("table_row", f"g{CELL_SEP}h", offset=6)], None),
        ],
        _PAGES,
        [("mapped", "text", "sep", ""), ("mapped", "table", "count", ""), ("mapped", "row", "5", ""),
         ("plain", "text", "one", ""), ("plain", "table", f"0{CELL_SEP}1", ""),
         ("plain", "row", f"c{CELL_SEP}d", ""), ("plain", "text", "two", ""),
         ("plain", "table", f"0{CELL_SEP}1", ""), ("plain", "row", f"e{CELL_SEP}f", ""),
         ("plain", "text", "three", "")],
    ),
}


def _layout(tbl: pa.Table, how: str) -> pa.Table:
    """The same docs as one chunk, as a slice with a non-zero array offset
    (what ``zero_copy_batch`` hands over), or as several chunks."""
    if how == "sliced":
        return pa.concat_tables([tbl.slice(0, 1), tbl]).combine_chunks().slice(1)
    if how == "multichunk":
        return pa.concat_tables([tbl.slice(i, 1) for i in range(tbl.num_rows)])
    return tbl


@pytest.mark.parametrize("how", ["one_chunk", "sliced", "multichunk"])
@pytest.mark.parametrize("case", list(DECODE_CASES))
def test_column_decode_edge_cases(case, how):
    from paper2table_ray.schema import DOC_SCHEMA

    docs, config, expected = DECODE_CASES[case]
    tbl = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.string()),
            "spans": pa.array([d[1] for d in docs], DOC_SCHEMA.field("spans").type),
            "mapping_json": pa.array([d[2] for d in docs], pa.string()),
        }
    )
    batch = _layout(tbl, how)
    if how == "sliced":
        assert batch.column("spans").chunk(0).offset == 1
    if how == "multichunk":
        assert batch.column("spans").num_chunks == len(docs)
    out = SpanExtractor(config)(batch)
    got = list(zip(*(out.column(c).to_pylist() for c in ("doc_id", "kind", "text", "media_ref"))))
    assert got == expected
    assert out.column("span_idx").to_pylist() == [
        sum(e[0] == row[0] for e in expected[:i]) for i, row in enumerate(expected)
    ]
