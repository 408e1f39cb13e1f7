"""End-to-end tablemerge over the reference's own demo resultsets:
dirs → merged resultset dir with settings capture, resumable semantics."""

import glob
import json
import os
from pathlib import Path

import pytest

from paper2table_ray.pipelines.tablemerge import (
    merged_uuid_for,
    run_tablemerge,
    settings_to_config,
)
from paper2table_ray.sources.tablesfile_json import read_resultsets
from paper2table_ray.state.settings import MergeSettings

REF_DIR = Path("/root/reference/tests/data/demo_resultsets")
REF_RESULTSETS = sorted(glob.glob(f"{REF_DIR}/*/"))
needs_reference = pytest.mark.skipif(
    not REF_DIR.exists(), reason="reference checkout unavailable"
)


def test_settings_mapping():
    s = MergeSettings(
        agreement_method="distinct-readers",
        jaccard_column_alignment=True,
        column_names_hints="family, species",
        column_aliases="old_name:new_name",
    )
    cfg = settings_to_config(s, {"u1": "pdfplumber"})
    assert cfg.distinct_readers and cfg.jaccard_alignment
    assert cfg.hints == ["family", "species"]
    assert cfg.aliases == {"old_name": "new_name"}
    assert cfg.uuid_to_reader == {"u1": "pdfplumber"}


def test_merged_uuid_deterministic():
    assert merged_uuid_for(["/a/u1", "/b/u2"]) == merged_uuid_for(["/b/u2", "/a/u1/"])


@pytest.mark.usefixtures("ray_session")
class TestEndToEnd:
    @needs_reference
    def test_merge_reference_demo_resultsets(self, tmp_path):
        settings = MergeSettings(jaccard_column_alignment=True)
        summary = run_tablemerge(REF_RESULTSETS, str(tmp_path), settings)
        written = summary[summary["status"] == "written"]
        assert len(written) >= 2  # the demo papers

        out_dirs = os.listdir(tmp_path)
        assert len(out_dirs) == 1
        out = tmp_path / out_dirs[0]
        assert (out / "tables.metadata.json").exists()
        assert (out / "settings.tablemerge.json").exists()
        meta = json.load(open(out / "tables.metadata.json"))
        assert meta["reader"] == "tablemerge"
        assert len(meta["sources"]) == len(REF_RESULTSETS)

        # merged output is readable back as a resultset; rows carry
        # agreement from multiple runs
        back = read_resultsets([str(out)]).to_pandas()
        assert len(back) > 0
        assert (back["agreement_level"].fillna(1) > 1).any()

    def test_rerun_idempotent(self, tmp_path):
        run_tablemerge(REF_RESULTSETS, str(tmp_path))
        out = tmp_path / os.listdir(tmp_path)[0]
        files1 = {p: (out / p).read_text() for p in os.listdir(out)}
        run_tablemerge(REF_RESULTSETS, str(tmp_path), force_update=True)
        files2 = {p: (out / p).read_text() for p in os.listdir(out)}
        assert files1 == files2


@pytest.mark.usefixtures("ray_session")
class TestPaperFilterAndColumns:
    @needs_reference
    def test_paper_regex_filter(self, tmp_path):
        summary = run_tablemerge(
            REF_RESULTSETS, str(tmp_path), paper="large_.*"
        )
        assert set(summary[summary["status"] == "written"]["doc_id"]) == {
            "large_dataset"
        }

    @needs_reference
    def test_collect_unique_columns(self):
        from paper2table_ray.stages.stats import collect_unique_columns

        cells = read_resultsets(REF_RESULTSETS)
        cols = collect_unique_columns(cells)
        assert "scientific_name" in cols
        assert cols["scientific_name"] == "str"
        # estimated_population appears as "1,200" (str) or bare int rows
        assert cols.get("estimated_population") in ("str", "int")

    def test_single_pass_probe_matches_collect_unique_columns(self):
        # the tablestats CLI folds the G7 probe out of the per-paper
        # stats pass; it must agree with the standalone two-pass op
        from paper2table_ray.stages.stats import (
            collect_unique_columns,
            fold_column_probes,
            paper_stats_dataset,
        )

        cells = read_resultsets(REF_RESULTSETS)
        two_pass = collect_unique_columns(cells)
        per_paper = paper_stats_dataset(cells, with_column_probe=True)
        one_pass = fold_column_probes(per_paper)
        assert one_pass == two_pass

    def test_infer_type(self):
        from paper2table_ray.stages.stats import infer_type

        assert infer_type("True") == "bool"
        assert infer_type(" 42 ") == "int"
        assert infer_type("3.5") == "float"
        assert infer_type("1,200") == "str"
        assert infer_type([{"value": "7", "agreement_level": 1}]) == "int"
        assert infer_type([]) == "str"


@pytest.mark.usefixtures("ray_session")
class TestPaperAliases:
    """Doc-level aliasing with page offsets (reference group_tablesfiles,
    __main__.py:149-162) through the full run_tablemerge lifecycle."""

    def _write_tf(self, d, stem, family, page):
        os.makedirs(d, exist_ok=True)
        tf = {
            "tables": [
                {
                    "table_fragments": [
                        {
                            "rows": [{"family": family}],
                            "page": page,
                        }
                    ]
                }
            ],
            "citation": "",
        }
        with open(os.path.join(d, f"{stem}.tables.json"), "w") as f:
            json.dump(tf, f)

    def test_alias_merges_across_dirs_with_offset(self, tmp_path):
        # dir a: paper_v1 on page 10 (alias → paper, offset 3);
        # dir b: paper on page 13 → same adjusted page → rows merge,
        # output keeps the LEFT fragment's display page (10)
        dir_a = str(tmp_path / "run_a")
        dir_b = str(tmp_path / "run_b")
        self._write_tf(dir_a, "paper_v1", "Apiaceae", 10)
        self._write_tf(dir_b, "paper", "Apiaceae", 13)
        settings = MergeSettings(paper_aliases="paper_v1:paper:3")
        out_dir = str(tmp_path / "out")
        summary = run_tablemerge([dir_a, dir_b], out_dir, settings)
        assert summary["doc_id"].tolist() == ["paper"]

        out = glob.glob(os.path.join(out_dir, "*", "paper.tables.json"))
        assert len(out) == 1
        merged = json.load(open(out[0]))
        table = merged["tables"][0]
        # single-fragment tables serialize as TableWithRows
        fragments = table.get("table_fragments") or [table]
        assert len(fragments) == 1
        assert fragments[0]["page"] == 10
        row = fragments[0]["rows"][0]
        # the CLI never enables column agreement (reference
        # __main__.py:223-226; differential oracle) → plain string value;
        # row-level agreement 2 proves the offset aligned the pages and
        # the rows merged
        assert row["family"] == "apiaceae"
        assert row["agreement_level_"] == 2

    def test_paper_filter_strips_tables_json_suffix(self, tmp_path):
        dir_a = str(tmp_path / "run_a")
        self._write_tf(dir_a, "foo", "Apiaceae", 1)
        self._write_tf(dir_a, "bar", "Rosaceae", 1)
        out_dir = str(tmp_path / "out")
        summary = run_tablemerge(
            [dir_a], out_dir, MergeSettings(), paper="foo.tables.json"
        )
        assert summary["doc_id"].tolist() == ["foo"]


@pytest.mark.usefixtures("ray_session")
class TestOutputGuards:
    """Ports of the reference's merge_tablesfiles_paths output-guard
    cases (tests/test_merge.py:2029-2140): write-when-missing, skip-
    when-curated, force-update override, overwrite-when-uncurated."""

    def _write_source(self, tmp_path, rows):
        src = tmp_path / "source"
        src.mkdir(exist_ok=True)
        tf = {
            "tables": [{"table_fragments": [{"rows": rows, "page": 1}]}],
            "citation": "",
        }
        (src / "paper.tables.json").write_text(json.dumps(tf))
        return str(src)

    def _merged_rows(self, out_file):
        obj = json.loads(out_file.read_text())
        rows = obj["tables"][0]["rows"]
        for r in rows:
            r.pop("sources_", None)
        return rows

    def _out_file(self, tmp_path, src):
        return tmp_path / "output" / merged_uuid_for([src]) / "paper.tables.json"

    EXPECT = [{"family": "apiaceae", "agreement_level_": 1, "row_": 0}]

    def test_merge_writes_output_when_file_does_not_exist(self, tmp_path):
        # ref test_merge.py:2029-2043
        src = self._write_source(tmp_path, [{"family": "Apiaceae"}])
        run_tablemerge([src], str(tmp_path / "output"))
        out_file = self._out_file(tmp_path, src)
        assert out_file.exists()
        assert self._merged_rows(out_file) == self.EXPECT

    def _sentinel(self, curations):
        return json.dumps(
            {
                "tables": [],
                "citation": "sentinel",
                "metadata": {"filename": None, "curations": curations},
            }
        )

    def test_merge_skips_when_output_exists_with_curations(self, tmp_path):
        # ref test_merge.py:2045-2064
        src = self._write_source(tmp_path, [{"family": "Apiaceae"}])
        out_file = self._out_file(tmp_path, src)
        out_file.parent.mkdir(parents=True)
        sentinel = self._sentinel([{"curator": "alice"}])
        out_file.write_text(sentinel)
        summary = run_tablemerge([src], str(tmp_path / "output"), force_update=False)
        assert out_file.read_text() == sentinel
        assert list(summary["status"]) == ["skipped-curated"]

    def test_merge_overwrites_when_force_update_and_output_has_curations(
        self, tmp_path
    ):
        # ref test_merge.py:2067-2090
        src = self._write_source(tmp_path, [{"family": "Apiaceae"}])
        out_file = self._out_file(tmp_path, src)
        out_file.parent.mkdir(parents=True)
        out_file.write_text(self._sentinel([{"curator": "alice"}]))
        run_tablemerge([src], str(tmp_path / "output"), force_update=True)
        assert self._merged_rows(out_file) == self.EXPECT

    def test_merge_overwrites_when_output_exists_with_no_curations(self, tmp_path):
        # ref test_merge.py:2093-2110
        src = self._write_source(tmp_path, [{"family": "Apiaceae"}])
        out_file = self._out_file(tmp_path, src)
        out_file.parent.mkdir(parents=True)
        out_file.write_text(json.dumps({"tables": [], "citation": "old content"}))
        run_tablemerge([src], str(tmp_path / "output"), force_update=False)
        assert self._merged_rows(out_file) == self.EXPECT

    def test_merge_overwrites_when_output_exists_with_empty_curations(self, tmp_path):
        # ref test_merge.py:2113-2140
        src = self._write_source(tmp_path, [{"family": "Apiaceae"}])
        out_file = self._out_file(tmp_path, src)
        out_file.parent.mkdir(parents=True)
        out_file.write_text(
            json.dumps(
                {
                    "tables": [],
                    "citation": "old content",
                    "metadata": {"filename": None, "curations": []},
                }
            )
        )
        run_tablemerge([src], str(tmp_path / "output"), force_update=False)
        assert self._merged_rows(out_file) == self.EXPECT


def _two_exchange_tablemerge(dirs, out, settings, paper=None, force_update=False):
    """``run_tablemerge``'s steps composed from the public parts, one
    exchange each: ``merge_pipeline``, then ``write_resultset``."""
    import re

    import pyarrow as pa

    from paper2table_ray.pipelines.merge import merge_pipeline
    from paper2table_ray.pipelines.tablemerge import apply_paper_aliases
    from paper2table_ray.sources.tablesfile_json import load_metadata, write_resultset
    from paper2table_ray.stages.aligners import parse_paper_aliases

    uuid_to_reader = {}
    for d in dirs:
        meta = load_metadata(d)
        uuid_to_reader[meta["uuid"]] = meta["reader"]
    cells = read_resultsets(dirs)
    cfg = settings_to_config(settings, uuid_to_reader)
    aliases = parse_paper_aliases(settings.paper_aliases or "")
    if aliases:
        cells = apply_paper_aliases(cells, aliases)
        cfg.doc_source_offsets = {
            (canonical, os.path.basename(d)): offset
            for d in dirs
            for alias, (canonical, offset) in aliases.items()
            if offset and os.path.exists(os.path.join(d, f"{alias}.tables.json"))
        }
    if paper:
        pattern = re.compile(paper)

        def keep(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            return batch.filter(pa.array([bool(pattern.fullmatch(d)) for d in ids]))

        cells = cells.map_batches(keep, batch_format="pyarrow")
    uuid = merged_uuid_for(dirs)
    summary = write_resultset(
        merge_pipeline(cells, cfg),
        out,
        uuid,
        reader="tablemerge",
        sources=[{"uuid": u, "reader": r} for u, r in sorted(uuid_to_reader.items())],
        force_update=force_update,
        pretty=settings.pretty,
    )
    settings.write_file(os.path.join(out, uuid))
    return summary


def _tree_bytes(root):
    return {
        os.path.relpath(os.path.join(dp, name), root): Path(dp, name).read_bytes()
        for dp, _dirs, names in os.walk(root)
        for name in names
    }


def _rows(summary):
    return summary.sort_values("doc_id").to_dict("records")


@pytest.mark.usefixtures("ray_session")
class TestFusedMergeWrite:
    """``run_tablemerge`` merges and writes in one exchange; its output
    must equal ``merge_pipeline`` → ``write_resultset`` byte for byte."""

    def _both(self, tmp_path, dirs, settings, **kw):
        fused = run_tablemerge(dirs, str(tmp_path / "fused"), settings, **kw)
        two = _two_exchange_tablemerge(dirs, str(tmp_path / "two"), settings, **kw)
        assert _rows(fused) == _rows(two)
        assert _tree_bytes(tmp_path / "fused") == _tree_bytes(tmp_path / "two")
        return fused

    def test_no_options(self, tmp_path, synth_resultset_dirs):
        dirs = synth_resultset_dirs()
        summary = self._both(tmp_path, dirs, MergeSettings())
        assert (summary["status"] == "written").sum() == 40

    def test_paper_regex(self, tmp_path, synth_resultset_dirs):
        dirs = synth_resultset_dirs()
        summary = self._both(tmp_path, dirs, MergeSettings(), paper="doc_00001[0-4]")
        assert sorted(summary["doc_id"]) == [f"doc_00001{i}" for i in range(5)]

    def test_paper_aliases_with_page_offset(self, tmp_path, synth_resultset_dirs):
        dirs = synth_resultset_dirs()
        for doc in ("doc_000003", "doc_000007"):
            os.rename(
                os.path.join(dirs[1], f"{doc}.tables.json"),
                os.path.join(dirs[1], f"{doc}_v2.tables.json"),
            )
        settings = MergeSettings(
            paper_aliases="doc_000003_v2:doc_000003:1, doc_000007_v2:doc_000007"
        )
        summary = self._both(tmp_path, dirs, settings)
        assert not summary["doc_id"].str.endswith("_v2").any()
        assert len(summary) == 40

    def test_curated_output(self, tmp_path, synth_resultset_dirs):
        dirs = synth_resultset_dirs()
        sentinel = json.dumps({
            "tables": [],
            "citation": "sentinel",
            "metadata": {"filename": None, "curations": [{"curator": "alice"}]},
        })
        for out in ("fused", "two"):
            target = tmp_path / out / merged_uuid_for(dirs)
            target.mkdir(parents=True)
            (target / "doc_000005.tables.json").write_text(sentinel)
        summary = self._both(tmp_path, dirs, MergeSettings())
        status = dict(zip(summary["doc_id"], summary["status"]))
        assert status["doc_000005"] == "skipped-curated"
        summary = self._both(tmp_path, dirs, MergeSettings(), force_update=True)
        status = dict(zip(summary["doc_id"], summary["status"]))
        assert status["doc_000005"] == "written"


@pytest.mark.usefixtures("ray_session")
class TestZeroRowFragments:
    """With ``drop_empty_tables=False`` a title-only fragment survives the
    merge with no rows; the written file is the merged tree as merged,
    with every fragment at its own page."""

    ROWS = [{"family": "Apiaceae", "species": "a"}, {"family": "Rosaceae", "species": "b"}]
    TITLE = [{"family": "Table 2. Species"}]

    def test_written_file_is_the_merged_tree(self, tmp_path):
        from paper2table_ray.pipelines.merge import merge_doc_sources
        from paper2table_ray.sources.tablesfile_json import (
            parse_tablesfile,
            tablesfile_to_json_obj,
        )

        src = tmp_path / "run-a"
        src.mkdir()
        pages = {"tail": [(1, self.ROWS), (2, self.TITLE)],
                 "interior": [(1, self.ROWS), (2, self.TITLE), (3, self.ROWS)]}
        for doc, frags in pages.items():
            obj = {
                "tables": [
                    {"table_fragments": [{"rows": r, "page": p} for p, r in frags]}
                ],
                "citation": None,
            }
            (src / f"{doc}.tables.json").write_text(json.dumps(obj))
        settings = MergeSettings(drop_empty_tables=False)
        summary = run_tablemerge([str(src)], str(tmp_path / "out"), settings)
        assert _rows(summary) == [
            {"doc_id": "interior", "status": "written"},
            {"doc_id": "tail", "status": "written"},
        ]
        cfg = settings_to_config(settings, {"run-a": None})
        out = tmp_path / "out" / merged_uuid_for([str(src)])
        for doc in pages:
            tf = parse_tablesfile((src / f"{doc}.tables.json").read_text())
            merged = merge_doc_sources(doc, {"run-a": tf}, cfg)
            got = json.loads((out / f"{doc}.tables.json").read_text())
            assert got == tablesfile_to_json_obj(merged)
            pages_of = [f["page"] for f in got["tables"][0]["table_fragments"]]
            assert pages_of == [p for p, _rows in pages[doc]]

    def test_tree_without_rows_is_skipped_empty(self, tmp_path):
        from paper2table_ray.sources.tablesfile_json import resultset_writer

        write = resultset_writer(str(tmp_path), "u")
        empty = {"tables": [{"fragments": [{"page": 1, "rows": []}]}], "citation": None}
        summary = write([("d", empty)])
        assert summary.to_dict("records") == [{"doc_id": "d", "status": "skipped-empty"}]
        assert not (tmp_path / "u" / "d.tables.json").exists()
