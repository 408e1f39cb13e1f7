"""table2html viewer (pipelines/viewer.py) — structural parity with the
reference viewer: TOC anchors, meta columns, rowspan merging, agreement
classes, empty-row skip counts, sources table, scroll-spy shell."""

from pathlib import Path

import pytest

import ray.data

from paper2table_ray import rowmodel as rm
from paper2table_ray.pipelines.viewer import (
    agreement_css_class,
    build_fragment_html,
    build_paper_sources_html,
    build_viewer_html,
    compute_rowspans,
    reader_emoji,
    render_citation,
)

REF_DIR = Path("/root/reference/tests/data/demo_resultsets")


def R(_level=None, _sources=None, _row=None, **cells):
    return rm.make_row(dict(cells), agreement_level=_level, sources=_sources, row_idx=_row)


class TestHelpers:
    def test_reader_emoji(self):
        assert reader_emoji("pdfplumber") == "💻"
        assert reader_emoji("hybrid-gemini") == "☯️"
        assert reader_emoji("gemini") == "🤖"
        assert reader_emoji("") == ""

    def test_render_citation_variants(self):
        assert render_citation(None) == ""
        assert render_citation("Perez 2020") == "Perez 2020"
        assert (
            render_citation([rm.vwa("A 2020", 2), rm.vwa("B 2021", 1)])
            == "A 2020, B 2021"
        )

    def test_agreement_classes(self):
        assert agreement_css_class(0) == "low"
        assert agreement_css_class(1) == "low"
        assert agreement_css_class(2) == "medium"
        assert agreement_css_class(3) == "high"


class TestRowspans:
    def test_equal_cells_in_same_row_group_merge(self):
        rows = [
            R(family="apiaceae", scientific_name="ammi", _row=0),
            R(family="apiaceae", scientific_name="ammi majus", _row=0),
            R(family="rosaceae", scientific_name="rosa", _row=1),
        ]
        spans = compute_rowspans(rows, ["row_", "family", "scientific_name"])
        assert spans[0]["family"] == 2 and spans[1]["family"] == 0
        assert spans[0]["scientific_name"] == 1  # differing values don't merge
        assert spans[0]["row_"] == 2 and spans[1]["row_"] == 0
        assert spans[2]["family"] == 1

    def test_different_row_groups_never_merge(self):
        rows = [R(family="x", _row=0), R(family="x", _row=1)]
        spans = compute_rowspans(rows, ["family"])
        assert spans[0]["family"] == 1 and spans[1]["family"] == 1


class TestFragmentHtml:
    def test_meta_columns_only_when_populated(self):
        frag = {"rows": [R(family="apiaceae")], "page": 1}
        html = "".join(build_fragment_html(1, frag))
        assert "<th>row_</th>" not in html
        assert "<th>agreement_level_</th>" not in html
        assert "<th>sources_</th>" not in html

        frag2 = {
            "rows": [R(family="apiaceae", _level=2, _row=0, _sources=["u1"])],
            "page": 1,
        }
        html2 = "".join(
            build_fragment_html(1, frag2, uuid_to_reader={"u1": "pdfplumber"})
        )
        for col in ("row_", "agreement_level_", "readers_", "sources_"):
            assert f"<th>{col}</th>" in html2
        assert "class='medium'" in html2
        assert "class='row-0'" in html2
        assert "pdfplumber" in html2

    def test_empty_rows_skipped_with_count(self):
        frag = {
            "rows": [R(family="apiaceae"), R(family=""), R(family="  ")],
            "page": 3,
        }
        html = "".join(build_fragment_html(2, frag))
        assert "(2 empty rows not shown)" in html
        assert "Table 2, page 3" in html

    def test_anchor_id_stamped(self):
        frag = {"rows": [R(family="x")], "page": 1}
        html = "".join(build_fragment_html(1, frag, anchor_id="paper-0-table-1-page-1"))
        assert 'id="paper-0-table-1-page-1"' in html


class TestSources:
    def test_sources_details_table(self):
        html = "".join(
            build_paper_sources_html(
                [
                    {"uuid": "u1", "reader": "pdfplumber", "path": "/a"},
                    {"uuid": "u2", "reader": "gemini"},
                ]
            )
        )
        assert "<summary>Sources (2)</summary>" in html
        assert "💻 u1" in html and "🤖 u2" in html


class TestFullPage:
    def _papers(self):
        tf = {
            "tables": [
                {
                    "fragments": [
                        {"rows": [R(family="apiaceae", _row=0, _level=1)], "page": 1},
                        {"rows": [R(family="rosaceae", _row=0, _level=1)], "page": 2},
                    ]
                }
            ],
            "citation": "Perez 2020",
        }
        return [("paperA", tf)]

    def test_shell_toc_scrollspy_and_anchors(self):
        html = build_viewer_html(
            self._papers(),
            title="demo",
            metadata={"uuid": "m1", "reader": "tablemerge"},
            settings={"jaccard_column_alignment": True},
        )
        assert '<nav id="toc">' in html
        assert 'href="#paper-0-table-1-page-1"' in html
        assert 'href="#paper-0-table-1-page-2"' in html
        assert "addEventListener('scroll'" in html  # scroll-spy JS inline
        assert "<h2>Metadata</h2>" in html
        assert "<h2>Settings</h2>" in html
        assert "jaccard_column_alignment" in html
        assert html.count("<html>") == 1


@pytest.mark.usefixtures("ray_session")
class TestDistributedViewer:
    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_write_viewer_html_renders_all_docs(
        self, tmp_path, synth_resultset_dirs, viewer_html_of, n_runs
    ):
        # the streaming sink writes the same bytes as build_viewer_html
        # over the decoded trees; with 3 runs every doc has 3 sources and
        # renders one "<doc> [<uuid>]" paper per source
        from paper2table_ray.pipelines.viewer import write_viewer_html
        from paper2table_ray.sources.tablesfile_json import read_resultsets

        dirs = synth_resultset_dirs(n_docs=30)[:n_runs]
        out = tmp_path / "v.html"
        n = write_viewer_html(read_resultsets(dirs), str(out), title="demo")
        html = out.read_text(encoding="utf-8")
        assert html == viewer_html_of(read_resultsets(dirs), title="demo")
        assert n == 30 * n_runs
        for i in range(n):
            assert f"id='paper-{i}'" in html
        for d in range(30):
            name = f"doc_{d:06d}" if n_runs == 1 else f"doc_{d:06d} [run-aaaa]"
            assert f"<h3>{name}</h3>" in html
        assert '<nav id="toc">' in html

    @pytest.mark.skipif(
        not REF_DIR.exists(), reason="reference checkout unavailable"
    )
    def test_write_viewer_html_streaming_sink_matches_string_path(
        self, tmp_path, viewer_html_of
    ):
        # the streaming file sink must be byte-identical to the
        # driver-assembled string (same sections, same TOC, same order)
        import glob

        from paper2table_ray.pipelines.viewer import write_viewer_html
        from paper2table_ray.sources.tablesfile_json import read_resultsets

        dirs = sorted(glob.glob("/root/reference/tests/data/demo_resultsets/*/"))
        cells = read_resultsets(dirs)
        expected = viewer_html_of(
            read_resultsets(dirs), title="demo", metadata={"datetime": "x"}
        )
        out = tmp_path / "v.html"
        n = write_viewer_html(
            cells, str(out), title="demo", metadata={"datetime": "x"}
        )
        assert n > 0
        assert out.read_text(encoding="utf-8") == expected

    def test_write_viewer_html_empty_corpus(self, tmp_path):
        import ray.data

        from paper2table_ray.pipelines.viewer import write_viewer_html
        from paper2table_ray.schema import CELLS_SCHEMA

        out = tmp_path / "empty.html"
        n = write_viewer_html(
            ray.data.from_arrow(CELLS_SCHEMA.empty_table()), str(out)
        )
        assert n == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!doctype html>") and html.endswith(
            "</body></html>"
        )


@pytest.mark.usefixtures("ray_session")
class TestEmptyCorpus:
    """Every cells sink has a defined result on a zero-row corpus: the
    doc exchange hands back frames without columns for empty shards, so
    the driver-side folds must not index columns that are not there."""

    def _empty(self):
        from paper2table_ray.schema import CELLS_SCHEMA

        return ray.data.from_arrow(CELLS_SCHEMA.empty_table())

    def test_write_viewer_html_matches_build_viewer_html(
        self, tmp_path, viewer_html_of
    ):
        from paper2table_ray.pipelines.viewer import write_viewer_html

        out = tmp_path / "empty.html"
        assert write_viewer_html(self._empty(), str(out), title="demo") == 0
        html = viewer_html_of(self._empty(), title="demo")
        assert html.encode("utf-8") == out.read_bytes()

    def test_collect_unique_columns_is_empty(self):
        from paper2table_ray.stages.stats import collect_unique_columns

        assert collect_unique_columns(self._empty()) == {}

    def test_write_csvs_writes_nothing(self, tmp_path):
        from paper2table_ray.pipelines.export import write_csvs

        out = tmp_path / "csvs"
        assert write_csvs(self._empty(), str(out)) == []
        assert list(out.iterdir()) == []

    def test_global_stats_totals_are_zero(self):
        from paper2table_ray.stages.stats import (
            accumulate_global,
            global_stats,
            paper_stats_dataset,
        )

        got = global_stats(paper_stats_dataset(self._empty()))
        assert got == accumulate_global([])

    def test_write_resultset_summary_keeps_columns(self, tmp_path):
        from paper2table_ray.sources.tablesfile_json import write_resultset

        summary = write_resultset(self._empty(), str(tmp_path), "u-empty")
        assert list(summary.columns) == ["doc_id", "status"]
        assert len(summary) == 0
        assert (tmp_path / "u-empty" / "tables.metadata.json").exists()
