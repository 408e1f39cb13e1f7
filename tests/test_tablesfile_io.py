"""tables.json interchange: parse/validate/serialize round-trip, Ray
resultset read/write, CSV sink, settings persistence. Conformance:
the reference's own demo resultsets parse losslessly."""

import glob
import json
import os
from pathlib import Path

import pandas as pd
import pytest

import ray.data

from paper2table_ray.pipelines.export import write_csvs
from paper2table_ray.sources.resultsets import synth_resultsets_dataset
from paper2table_ray.sources.tablesfile_json import (
    TablesFileError,
    parse_tablesfile,
    read_resultsets,
    tablesfile_to_json_obj,
    validate_tablesfile_obj,
    write_resultset,
)
from paper2table_ray.state.settings import MergeSettings

REF_RESULTSETS = "/root/reference/tests/data/demo_resultsets"
needs_reference = pytest.mark.skipif(
    not Path(REF_RESULTSETS).exists(), reason="reference checkout unavailable"
)
SF = "/root/testdata/sf0.001"


class TestParseValidate:
    def test_rows_and_fragments_shapes_normalize(self):
        obj = {
            "tables": [
                {"rows": [{"a": "1"}], "page": 2},
                {
                    "table_fragments": [
                        {"rows": [{"a": "3"}], "page": 4},
                        {"rows": [{"a": "5", "row_": 0}], "page": 5},
                    ]
                },
            ],
            "citation": "C",
        }
        tf = parse_tablesfile(obj)
        assert len(tf["tables"]) == 2
        assert tf["tables"][0]["fragments"][0]["page"] == 2
        assert len(tf["tables"][1]["fragments"]) == 2
        assert tf["tables"][1]["fragments"][1]["rows"][0]["row_idx"] == 0

    def test_special_fields_and_votes(self):
        obj = {
            "tables": [
                {
                    "rows": [
                        {
                            "name": [
                                {"value": "x", "agreement_level": 2},
                                {"value": "y", "agreement_level": 1},
                            ],
                            "agreement_level_": 2,
                            "sources_": ["u1", "u2"],
                            "row_": 3,
                        }
                    ],
                    "page": 1,
                }
            ],
            "citation": None,
        }
        tf = parse_tablesfile(obj)
        row = tf["tables"][0]["fragments"][0]["rows"][0]
        assert row["agreement_level"] == 2
        assert row["sources"] == ["u1", "u2"]
        assert row["cells"]["name"][0]["value"] == "x"

    def test_invalid_shapes_rejected(self):
        # verdicts calibrated against the reference pydantic schema
        # (tests/test_reference_differential_tools.py)
        assert validate_tablesfile_obj([]) != []
        assert validate_tablesfile_obj({"tables": {}}) != []
        assert validate_tablesfile_obj(
            {"tables": [{"page": 1}], "citation": None}
        ) != []
        # citation is a REQUIRED key in the reference schema
        assert validate_tablesfile_obj(
            {"tables": [{"rows": [{"a": 7}], "page": 1}]}
        ) != []
        # extra="allow" leaves non-list cells unvalidated: bare scalars
        # AND nested objects pass the reference schema
        assert validate_tablesfile_obj(
            {"tables": [{"rows": [{"a": 7}], "page": 1}], "citation": None}
        ) == []
        assert validate_tablesfile_obj(
            {"tables": [{"rows": [{"a": {"nested": "object"}}], "page": 1}],
             "citation": None}
        ) == []
        with pytest.raises(TablesFileError):
            parse_tablesfile(b"{not json")

    def test_json_roundtrip(self):
        obj = {
            "tables": [
                {"rows": [{"a": "1", "b": None, "row_": 0}], "page": 1},
                {
                    "table_fragments": [
                        {"rows": [{"c": "2"}], "page": 2},
                        {"rows": [{"c": "3"}], "page": 3},
                    ]
                },
            ],
            "citation": "Cite",
        }
        out = tablesfile_to_json_obj(parse_tablesfile(obj))
        assert out == obj

    @needs_reference
    def test_reference_demo_resultsets_parse(self):
        paths = glob.glob(f"{REF_RESULTSETS}/*/*.tables.json")
        assert len(paths) >= 10
        for p in paths:
            obj = json.load(open(p))
            assert validate_tablesfile_obj(obj) == []
            tf = parse_tablesfile(obj)
            n_rows = sum(
                len(f["rows"]) for t in tf["tables"] for f in t["fragments"]
            )
            assert n_rows > 0
            # lossless: re-parse of our serialization gives the same tree
            assert parse_tablesfile(tablesfile_to_json_obj(tf))["tables"] == tf["tables"]


@pytest.mark.usefixtures("ray_session")
class TestRayReadWrite:
    @needs_reference
    def test_reference_resultsets_to_cells(self):
        dirs = sorted(glob.glob(f"{REF_RESULTSETS}/*/"))
        cells = read_resultsets(dirs)
        df = cells.to_pandas()
        assert len(df) > 50
        assert set(df["source_uuid"]) == {
            os.path.basename(os.path.normpath(d)) for d in dirs
        }
        # per-fragment ordering survives
        g = df[df["doc_id"] == df["doc_id"].iloc[0]]
        assert (g.groupby(["source_uuid", "table_idx", "fragment_idx"])["pos"]
                  .apply(lambda s: (sorted(s) == list(range(len(s))))).all())

    def test_write_then_read_roundtrip(self, tmp_path):
        cells = synth_resultsets_dataset(SF, runs=1).materialize()
        summary = write_resultset(
            cells, str(tmp_path), "run-aaaa", reader="pdfplumber"
        )
        assert (summary["status"] == "written").any()
        meta = json.load(open(tmp_path / "run-aaaa" / "tables.metadata.json"))
        assert meta["reader"] == "pdfplumber"

        back = read_resultsets([str(tmp_path / "run-aaaa")]).to_pandas()
        orig = cells.to_pandas()
        written_docs = set(summary[summary["status"] == "written"]["doc_id"])
        orig = orig[orig["doc_id"].isin(written_docs)]
        key = ["doc_id", "table_idx", "fragment_idx", "pos"]
        b = back.sort_values(key).reset_index(drop=True)
        o = orig.sort_values(key).reset_index(drop=True)
        assert len(b) == len(o)
        assert b["page"].tolist() == o["page"].tolist()
        assert [sorted(c.items()) if isinstance(c, dict) else c for c in b["cells"]] \
            == [sorted(c.items()) if isinstance(c, dict) else c for c in o["cells"]]

    def test_curated_output_not_overwritten(self, tmp_path):
        cells = synth_resultsets_dataset(SF, runs=1).materialize()
        write_resultset(cells, str(tmp_path), "u1")
        out_dir = tmp_path / "u1"
        written = [p for p in os.listdir(out_dir) if p.endswith(".tables.json")]
        victim = out_dir / written[0]
        obj = json.load(open(victim))
        obj["metadata"] = {"filename": "x", "curations": [{"curator": "me"}]}
        json.dump(obj, open(victim, "w"))
        before = victim.read_text()
        s2 = write_resultset(cells, str(tmp_path), "u1")
        doc = written[0].removesuffix(".tables.json")
        assert (s2[s2["doc_id"] == doc]["status"] == "skipped-curated").all()
        assert victim.read_text() == before
        s3 = write_resultset(cells, str(tmp_path), "u1", force_update=True)
        assert (s3[s3["doc_id"] == doc]["status"] == "written").all()


@pytest.mark.usefixtures("ray_session")
class TestReadShape:
    """The read hands the exchange few, contiguous blocks: at most
    ``default_num_shards()`` of them, each one Arrow chunk per column."""

    def test_blocks_are_few_and_single_chunk(self, synth_resultset_dirs):
        import pyarrow as pa
        import ray

        from paper2table_ray.schema import (
            rows_to_table,
            table_to_row_records,
            tablesfile_to_records,
        )
        from paper2table_ray.stages.shuffle import default_num_shards

        dirs = synth_resultset_dirs(n_docs=48)
        files = [
            (d, name) for d in dirs for name in sorted(os.listdir(d))
            if name.endswith(".tables.json")
        ]
        assert len(dirs) >= 3
        assert all(sum(f[0] == d for f in files) >= 40 for d in dirs)

        blocks = ray.get(read_resultsets(dirs).to_arrow_refs())
        assert 0 < len(blocks) <= default_num_shards()
        for block in blocks:
            assert [c.num_chunks for c in block.columns] == [1] * block.num_columns

        expected = []
        for d, name in files:
            with open(os.path.join(d, name), encoding="utf-8") as f:
                tf = parse_tablesfile(json.load(f))
            expected.extend(tablesfile_to_records(
                name.removesuffix(".tables.json"), os.path.basename(d), tf
            ))

        def canon(records):
            return sorted(json.dumps(r, sort_keys=True) for r in records)

        got = table_to_row_records(pa.concat_tables(blocks))
        assert canon(got) == canon(table_to_row_records(rows_to_table(expected)))

    def test_empty_dir_gives_empty_cells_table(self, tmp_path):
        import pyarrow as pa
        import ray

        from paper2table_ray.schema import CELLS_SCHEMA

        (tmp_path / "run").mkdir()
        blocks = ray.get(read_resultsets([str(tmp_path / "run")]).to_arrow_refs())
        assert pa.concat_tables(blocks).equals(CELLS_SCHEMA.empty_table())


@pytest.mark.usefixtures("ray_session")
class TestExportSinks:
    @needs_reference
    def test_csv_sink(self, tmp_path):
        dirs = sorted(glob.glob(f"{REF_RESULTSETS}/*/"))[:1]
        cells = read_resultsets(dirs)
        paths = write_csvs(cells, str(tmp_path))
        assert paths
        df = pd.read_csv(paths[0])
        assert "$page" in df.columns and len(df) > 0


class TestSettings:
    def test_roundtrip_ignores_unknown(self, tmp_path):
        s = MergeSettings(jaccard_column_alignment=True, schema="a:str")
        s.write_file(str(tmp_path))
        raw = json.load(open(tmp_path / "settings.tablemerge.json"))
        raw["bogus_future_field"] = 1
        json.dump(raw, open(tmp_path / "settings.tablemerge.json", "w"))
        back = MergeSettings.read_file(str(tmp_path))
        assert back == s
        assert back.drop_empty_columns is True  # default preserved
