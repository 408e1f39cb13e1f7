"""CLI surface smoke tests (in-process main(), reference demo fixtures)."""

import glob
import json
import os
from pathlib import Path

import pyarrow as pa
import pytest

from paper2table_ray.cli import main

REF_DIR = Path("/root/reference/tests/data/demo_resultsets")
REF = sorted(glob.glob(f"{REF_DIR}/*/"))


def test_usage():
    assert main([]) == 2
    assert main(["--help"]) == 0


@pytest.mark.usefixtures("ray_session")
class TestCliFlows:
    @pytest.mark.skipif(
        not REF_DIR.exists(), reason="reference checkout unavailable"
    )
    def test_merge_stats_csv_html_validate(self, tmp_path, capsys):
        merged = tmp_path / "merged"
        assert main(["tablemerge", *REF, "-o", str(merged)]) == 0
        out_dir = str(next(merged.iterdir()))

        stats_file = tmp_path / "stats.json"
        assert main(["tablestats", out_dir, "-o", str(stats_file)]) == 0
        stats = json.loads(stats_file.read_text())
        assert stats["papers"] == 3 and stats["rows"] > 0

        csv_dir = tmp_path / "csvs"
        assert main(["table2csv", out_dir, "-o", str(csv_dir)]) == 0
        assert any(p.endswith(".csv") for p in os.listdir(csv_dir))

        html_file = tmp_path / "out.html"
        assert main(["table2html", out_dir, "-o", str(html_file)]) == 0
        html_text = html_file.read_text()
        assert "<table class='table'>" in html_text
        assert '<nav id="toc">' in html_text  # interactive viewer shell

        assert main(["tablevalidate", f"{out_dir}/*.tables.json", "--all"]) == 0
        assert main(["tablevalidate", f"{out_dir}/tables.metadata.json"]) == 0

    def test_merge_stats_csv_html_validate_synth(
        self, tmp_path, capsys, synth_resultset_dirs, viewer_html_of
    ):
        # the same chain over synthesized resultsets, so it runs on any
        # checkout: tablestats' column probe and text report and the
        # viewer's section render are reached without the reference
        from paper2table_ray.sources.resultsets import RUN_READERS
        from paper2table_ray.sources.tablesfile_json import (
            load_metadata,
            read_resultsets,
        )

        merged = tmp_path / "merged"
        assert main(["tablemerge", *synth_resultset_dirs(n_docs=12),
                     "-o", str(merged)]) == 0
        out_dir = str(next(merged.iterdir()))

        stats_file = tmp_path / "stats.json"
        assert main(["tablestats", out_dir, "-o", str(stats_file)]) == 0
        stats = json.loads(stats_file.read_text())
        assert stats["papers"] == 12 and stats["rows"] > 0
        assert stats["columns"]  # the column probe ran
        text_file = tmp_path / "stats.txt"
        assert main(["tablestats", out_dir, "--format", "text",
                     "-o", str(text_file)]) == 0
        text = text_file.read_text()
        assert text.startswith("Global Stats:\n  Papers: 12")
        for d in range(12):
            assert f"- doc_{d:06d}.tables.json:" in text
        assert "Unique Columns:" in text

        csv_dir = tmp_path / "csvs"
        assert main(["table2csv", out_dir, "-o", str(csv_dir)]) == 0
        assert any(p.endswith(".csv") for p in os.listdir(csv_dir))

        html_file = tmp_path / "out.html"
        assert main(["table2html", out_dir, "-o", str(html_file)]) == 0
        metadata = load_metadata(out_dir)
        readers = {s["uuid"]: s["reader"] for s in metadata["sources"]}
        assert readers == RUN_READERS
        expected = viewer_html_of(
            read_resultsets([out_dir]),
            title=os.path.basename(out_dir),
            metadata=metadata,
            settings=json.loads(
                (Path(out_dir) / "settings.tablemerge.json").read_text()
            ),
            uuid_to_reader=readers,
        )
        html = html_file.read_text(encoding="utf-8")
        assert html == expected
        assert f"<summary>Sources ({len(RUN_READERS)})</summary>" in html
        for reader in RUN_READERS.values():
            assert f"<td>{reader}</td>" in html

        assert main(["tablevalidate", f"{out_dir}/*.tables.json", "--all"]) == 0
        assert main(["tablevalidate", f"{out_dir}/tables.metadata.json"]) == 0

    def test_tablemerge_settings_file_from_every_path_flag(
        self, tmp_path, synth_resultset_dirs
    ):
        # the flags map onto MergeSettings by name; each *_path flag
        # lands as its file's stripped text in the written settings file
        from paper2table_ray.state.settings import MergeSettings

        texts = {
            "column-names-hints": "family, species",
            "column-aliases": "familia:family",
            "paper-aliases": "doc_000001:doc_000002",
            "schema": "family:str",
        }
        flags = []
        for name, text in texts.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text + "\n", encoding="utf-8")
            flags += [f"--{name}-path", str(path)]
        merged = tmp_path / "merged"
        assert main([
            "tablemerge", *synth_resultset_dirs(n_docs=4), "-o", str(merged),
            *flags, "--jaccard-column-alignment",
            "--agreement-method", "distinct-readers", "--pretty",
            "--filter-schema-columns", "--order-schema-columns",
            "--coerce-schema-column-types", "--remove-header-rows",
        ]) == 0
        expected = MergeSettings(
            column_names_hints=texts["column-names-hints"],
            column_aliases=texts["column-aliases"],
            paper_aliases=texts["paper-aliases"],
            schema=texts["schema"],
            jaccard_column_alignment=True,
            agreement_method="distinct-readers",
            pretty=True,
            filter_schema_columns=True,
            order_schema_columns=True,
            coerce_schema_column_types=True,
            remove_header_rows=True,
        )
        written = next(merged.iterdir()) / "settings.tablemerge.json"
        assert written.read_text(encoding="utf8") == json.dumps(
            expected.to_dict(), ensure_ascii=False, indent=2
        )

    def test_merge_then_csv_on_empty_resultset(self, tmp_path, capsys):
        # a resultset directory with no .tables.json files merges to an
        # empty resultset, and table2csv over that writes no CSVs
        empty = tmp_path / "empty"
        empty.mkdir()
        merged = tmp_path / "merged"
        assert main(["tablemerge", str(empty), "-o", str(merged)]) == 0
        assert "doc_id" in capsys.readouterr().out
        out_dir = str(next(merged.iterdir()))

        csv_dir = tmp_path / "csvs"
        assert main(["table2csv", out_dir, "-o", str(csv_dir)]) == 0
        assert os.listdir(csv_dir) == []

    def test_extract_resume_roundtrip(self, tmp_path):
        import ray.data

        from paper2table_ray.pipelines.extract import synth_docs_dataset

        docs_dir = tmp_path / "docs"
        synth_docs_dataset("/root/testdata/sf0.001").write_parquet(str(docs_dir))
        out = tmp_path / "spans"
        assert main(["extract", str(docs_dir), "-o", str(out),
                     "--resume", "--partitions", "4"]) == 0
        assert len(list((out / "_lineage").glob("*.json"))) == 4
        n1 = ray.data.read_parquet(str(out), file_extensions=["parquet"]).count()
        assert n1 > 0
        # second run skips everything, output unchanged
        assert main(["extract", str(docs_dir), "-o", str(out),
                     "--resume", "--partitions", "4"]) == 0
        n2 = ray.data.read_parquet(str(out), file_extensions=["parquet"]).count()
        assert n2 == n1

    def test_extract_resume_on_empty_input_prints_the_summary_header(
        self, tmp_path, capsys
    ):
        import pyarrow.parquet as pq
        import ray.data

        from paper2table_ray.schema import DOC_SCHEMA
        from paper2table_ray.state.lineage import LineageSink

        columns = ["partition_id", "stage", "doc_count", "row_count", "wall_ms", "status"]
        empty = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], pa.string()), "text": pa.array([], pa.string())})
        )
        sink = LineageSink(str(tmp_path / "direct"), num_partitions=4)
        summary = sink.write(sink.add_partition_column(empty))
        assert len(summary) == 0 and list(summary.columns) == columns

        docs_dir = tmp_path / "docs"
        docs_dir.mkdir()
        pq.write_table(DOC_SCHEMA.empty_table(), str(docs_dir / "empty.parquet"))
        capsys.readouterr()
        assert main(["extract", str(docs_dir), "-o", str(tmp_path / "spans"),
                     "--resume", "--partitions", "4"]) == 0
        assert f"Columns: [{', '.join(columns)}]" in capsys.readouterr().out

    def test_extract_mapped_with_cache_dir(self, tmp_path):
        import ray.data

        from paper2table_ray.pipelines.extract import synth_docs_dataset

        docs_dir = tmp_path / "docs"
        synth_docs_dataset("/root/testdata/sf0.001").write_parquet(str(docs_dir))
        out = tmp_path / "spans_mapped"
        cache = tmp_path / "mappings"
        assert main(["extract", str(docs_dir), "-o", str(out),
                     "--mappings", str(cache)]) == 0
        assert ray.data.read_parquet(str(out)).count() > 0
        # planner cache files were written in-task
        assert len(list(cache.glob("*.mapping.json"))) > 0

    def test_extract_force_mapping_generation(self, tmp_path):
        # reference --force-mapping-generation: replan + overwrite cache
        import json as _json

        import ray.data

        from paper2table_ray.pipelines.extract import synth_docs_dataset

        docs_dir = tmp_path / "docs"
        synth_docs_dataset("/root/testdata/sf0.001").write_parquet(str(docs_dir))
        cache = tmp_path / "mappings"
        out1 = tmp_path / "s1"
        assert main(["extract", str(docs_dir), "-o", str(out1),
                     "--mappings", str(cache)]) == 0
        a_file = sorted(cache.glob("*.mapping.json"))[0]
        original = a_file.read_text()
        # poison the cached mapping; a plain rerun must TRUST the cache
        a_file.write_text(_json.dumps({"tables": [], "citation": "posioned"}))
        out2 = tmp_path / "s2"
        assert main(["extract", str(docs_dir), "-o", str(out2),
                     "--mappings", str(cache)]) == 0
        assert "posioned" in a_file.read_text()
        # --force-mapping-generation replans and overwrites it
        out3 = tmp_path / "s3"
        assert main(["extract", str(docs_dir), "-o", str(out3),
                     "--mappings", str(cache),
                     "--force-mapping-generation"]) == 0
        assert a_file.read_text() == original

    def test_extract_column_names_hints_flag(self, tmp_path):
        # reference -p: hints drive header-row detection
        import pyarrow.parquet as pq
        import ray.data

        from paper2table_ray.schema import DOC_SCHEMA
        from paper2table_ray.stages.extract import CELL_SEP
        import pyarrow as pa

        spans = [
            {"kind": "table_row", "text": CELL_SEP.join(["widget", "krakkle"]),
             "media_ref": "", "offset": 0},
            {"kind": "table_row", "text": CELL_SEP.join(["a", "b"]),
             "media_ref": "", "offset": 1},
        ]
        tbl = pa.Table.from_arrays(
            [pa.array(["dhint"]), pa.array([spans], DOC_SCHEMA.field("spans").type)],
            schema=DOC_SCHEMA,
        )
        docs_dir = tmp_path / "docs"
        docs_dir.mkdir()
        pq.write_table(tbl, str(docs_dir / "d.parquet"))

        def kinds(out_dir):
            t = ray.data.read_parquet(str(out_dir)).to_pandas()
            return t.sort_values("span_idx")["kind"].tolist()

        out_default = tmp_path / "o1"
        assert main(["extract", str(docs_dir), "-o", str(out_default)]) == 0
        # 'widget'/'krakkle' are not default hints → both rows are data
        assert kinds(out_default).count("row") == 2

        out_hinted = tmp_path / "o2"
        assert main(["extract", str(docs_dir), "-o", str(out_hinted),
                     "-p", "krakkle, something_else"]) == 0
        # hinted → row 0 promoted to the table header
        k = kinds(out_hinted)
        assert k.count("row") == 1 and "table" in k

    def test_filenorm_plan_and_apply(self, tmp_path):
        d = tmp_path / "files"
        d.mkdir()
        (d / "My Paper.TXT").write_text("same")
        (d / "my_paper_copy.txt").write_text("same")
        (d / "Other One.txt").write_text("other")
        assert main(["filenorm", str(d)]) == 0  # plan only
        assert sorted(os.listdir(d)) == [
            "My Paper.TXT", "Other One.txt", "my_paper_copy.txt",
        ]
        assert main(["filenorm", str(d), "--apply"]) == 0
        assert sorted(os.listdir(d)) == ["my_paper.txt", "other_one.txt"]


@pytest.mark.usefixtures("ray_session")
class TestSchemaCoercion:
    """--schema drives per-column filter/order/coercion end-to-end
    (reference --schema + --coerce-schema-column-types,
    utils/column_schema.py:44-71 + postprocessor.py:39-152)."""

    def _resultset(self, tmp_path):
        d = tmp_path / "run_a"
        d.mkdir()
        tf = {
            "tables": [
                {
                    "rows": [
                        {"family": "Rosaceae", "count": "3.0", "keep": "Yes"},
                        {"family": "Apiaceae", "count": "nope", "keep": "False"},
                    ],
                    "page": 1,
                }
            ],
            "citation": "",
        }
        (d / "paper.tables.json").write_text(json.dumps(tf))
        return str(d)

    def test_schema_coercion_through_cli(self, tmp_path):
        src = self._resultset(tmp_path)
        out = tmp_path / "out"
        assert main([
            "tablemerge", src, "-o", str(out),
            "--agreement-method", "none",
            "--schema", "family:str count:int keep:bool",
            "--coerce-schema-column-types",
            "--order-schema-columns",
        ]) == 0
        merged_file = glob.glob(str(out / "*" / "paper.tables.json"))[0]
        merged = json.load(open(merged_file))
        table = merged["tables"][0]
        rows = (table.get("table_fragments") or [table])[0]["rows"]
        data = [
            {k: v for k, v in r.items() if not k.endswith("_")} for r in rows
        ]
        # "3.0" → "3" (int via float), "nope" unchanged (failed parse),
        # "Yes"/"false" → canonical bools (coerce.py:5-26 semantics)
        assert data == [
            {"family": "rosaceae", "count": "3", "keep": "True"},
            {"family": "apiaceae", "count": "nope", "keep": "False"},
        ]
        # --order-schema-columns: schema order first
        assert list(data[0]) == ["family", "count", "keep"]

    def test_schema_path_file(self, tmp_path):
        src = self._resultset(tmp_path)
        schema_file = tmp_path / "schema.txt"
        schema_file.write_text("family:str\ncount:int\n")
        out = tmp_path / "out2"
        assert main([
            "tablemerge", src, "-o", str(out),
            "--agreement-method", "none",
            "--schema-path", str(schema_file),
            "--coerce-schema-column-types",
        ]) == 0
        merged_file = glob.glob(str(out / "*" / "paper.tables.json"))[0]
        merged = json.load(open(merged_file))
        table = merged["tables"][0]
        rows = (table.get("table_fragments") or [table])[0]["rows"]
        assert rows[0]["count"] == "3"
