"""Extraction variants: windowed (split_pages analogue) equals unwindowed,
mapped (hybrid analogue) extraction + mapping cache, quarantine path."""

import json
import os
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from paper2table_ray.pipelines.extract import (
    extract_pipeline,
    extract_spans,
    extract_spans_mapped,
    extract_spans_windowed,
    plan_mappings_ds,
    synth_docs_dataset,
)
from paper2table_ray.schema import DOC_SCHEMA, SPAN_STRUCT
from paper2table_ray.stages.extract import CELL_SEP, ExtractConfig, SpanExtractor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"
REF_MAPPING = Path("/root/reference/tests/data/mappings/demo_table.mapping.json")


def _spans_df(ds):
    df = ds.to_pandas()
    return df.sort_values(["doc_id", "span_idx"]).reset_index(drop=True)


def _doc(doc_id, spans):
    return pa.table(
        {
            "doc_id": pa.array([doc_id], pa.string()),
            "spans": pa.array(
                [
                    [
                        {"kind": k, "text": t, "media_ref": m, "offset": i}
                        for i, (k, t, m) in enumerate(spans)
                    ]
                ],
                pa.list_(SPAN_STRUCT),
            ),
        }
    )


@pytest.mark.usefixtures("ray_session")
class TestWindowed:
    def test_windowed_equals_unwindowed(self):
        docs = synth_docs_dataset(SF).materialize()
        plain = _spans_df(extract_spans(docs))
        windowed = _spans_df(extract_spans_windowed(docs, window_spans=7))
        pd.testing.assert_frame_equal(plain, windowed)

    def test_window_never_cuts_a_table_run(self):
        rows = [("text", f"intro {i} " + "x" * 30, "") for i in range(6)]
        rows += [("table_row", CELL_SEP.join(["family", "count"]), "")]
        rows += [
            ("table_row", CELL_SEP.join([f"Fam{i}", str(i)]), "") for i in range(10)
        ]
        rows += [("text", "outro " + "y" * 30, "")]
        docs = ray.data.from_arrow(_doc("docw", rows))
        plain = _spans_df(extract_spans(docs))
        win = _spans_df(extract_spans_windowed(docs, window_spans=3))
        pd.testing.assert_frame_equal(plain, win)
        # the table stayed one fragment: exactly one 'table' header span
        assert (win["kind"] == "table").sum() == 1


@pytest.mark.usefixtures("ray_session")
class TestMapped:
    def _table_doc(self):
        rows = [
            ("table_row", CELL_SEP.join(["Family", "Common Name", "Count"]), ""),
            ("table_row", CELL_SEP.join(["Rosaceae", "rose", "5"]), ""),
            ("table_row", CELL_SEP.join(["Poaceae", "grass", "9"]), ""),
        ]
        return ray.data.from_arrow(_doc("docm", rows))

    def test_mapping_selects_and_renames(self):
        mapping = {
            "header_mode": "all_pages",
            "column_mappings": {"0": "family", "2": "population"},
        }
        out = _spans_df(
            extract_spans_mapped(self._table_doc(), {"docm": mapping})
        )
        header = out[out["kind"] == "table"]["text"].iloc[0]
        assert header == CELL_SEP.join(["family", "population"])
        rows = out[out["kind"] == "row"]["text"].tolist()
        assert rows == [
            CELL_SEP.join(["Rosaceae", "5"]),
            CELL_SEP.join(["Poaceae", "9"]),
        ]

    def test_header_mode_none_keeps_header_row(self):
        mapping = {
            "header_mode": "none",
            "column_mappings": {"0": "family"},
        }
        out = _spans_df(
            extract_spans_mapped(self._table_doc(), {"docm": mapping})
        )
        rows = out[out["kind"] == "row"]["text"].tolist()
        assert rows[0] == "Family"  # header row kept as data

    def test_docs_without_mapping_fall_back_to_hints(self):
        out_mapped = _spans_df(extract_spans_mapped(self._table_doc(), {}))
        out_plain = _spans_df(extract_spans(self._table_doc()))
        pd.testing.assert_frame_equal(out_mapped, out_plain)

    def test_shardjoin_path_bit_identical_to_broadcast(self, force_shard_plan):
        # force the hash join's shard plan and compare against the
        # broadcast plan over the full sf corpus
        docs = synth_docs_dataset(SF).materialize()
        mappings_ds = plan_mappings_ds(docs).materialize()
        broadcast = _spans_df(extract_spans_mapped(docs, mappings_ds))
        force_shard_plan()
        joined = _spans_df(extract_spans_mapped(docs, mappings_ds, num_shards=8))
        pd.testing.assert_frame_equal(broadcast, joined)

    def test_plan_mappings_cache_roundtrip(self, tmp_path):
        def planned(docs):
            return {
                r["doc_id"]: json.loads(r["mapping_json"])
                for r in plan_mappings_ds(docs, cache_dir=str(tmp_path)).take_all()
            }

        m1 = planned(self._table_doc())
        assert "docm" in m1
        assert os.path.exists(tmp_path / "docm.mapping.json")
        # poison the cache: a second plan must NOT re-invoke the planner
        poisoned = {"header_mode": "none", "column_mappings": {"1": "zzz"}}
        json.dump(poisoned, open(tmp_path / "docm.mapping.json", "w"))
        m2 = planned(self._table_doc())
        assert m2["docm"] == poisoned


@pytest.mark.usefixtures("ray_session")
class TestQuarantine:
    def _poisoned_doc(self):
        # None text inside a table_row → .split raises inside extract_doc
        return pa.table(
            {
                "doc_id": pa.array(["bad", "good"], pa.string()),
                "spans": pa.array(
                    [
                        [{"kind": "table_row", "text": None, "media_ref": "", "offset": 0}],
                        [{"kind": "text", "text": "fine " + "z" * 30, "media_ref": "", "offset": 0}],
                    ],
                    pa.list_(SPAN_STRUCT),
                ),
            }
        )

    def test_poisoned_doc_quarantined_not_fatal(self):
        out = _spans_df(extract_spans(ray.data.from_arrow(self._poisoned_doc())))
        bad = out[out["doc_id"] == "bad"]
        assert bad["kind"].tolist() == ["error"]
        assert "TypeError" in bad["text"].iloc[0] or "AttributeError" in bad["text"].iloc[0]
        assert (out[out["doc_id"] == "good"]["kind"] == "text").all()

    def test_quarantine_off_raises(self):
        cfg = ExtractConfig(quarantine=False)
        ex = SpanExtractor(cfg)
        with pytest.raises(Exception):
            ex(self._poisoned_doc())


@pytest.mark.usefixtures("ray_session")
class TestStrategySweep:
    """Candidate-strategy fallback (reference readers/document.py:92-119):
    a table whose separators are corrupted parses under a later strategy
    and yields the same output as the intact TAB table."""

    ROWS = [
        ["Family", "Common Name", "Count"],
        ["Rosaceae", "rose", "5"],
        ["Poaceae", "grass", "9"],
    ]

    def _doc(self, doc_id, joiner):
        rows = [("table_row", joiner(cells), "") for cells in self.ROWS]
        return ray.data.from_arrow(_doc(doc_id, rows))

    def test_spaces_corrupted_table_parses_like_tab(self):
        tab = _spans_df(extract_spans(self._doc("d", CELL_SEP.join)))
        spaces = _spans_df(
            extract_spans(self._doc("d", lambda c: "   ".join(c)))
        )
        pd.testing.assert_frame_equal(tab, spaces)
        assert (spaces["kind"] == "table").sum() == 1  # parsed as a table

    def test_pipe_corrupted_table_parses_like_tab(self):
        tab = _spans_df(extract_spans(self._doc("d", CELL_SEP.join)))
        piped = _spans_df(
            extract_spans(self._doc("d", lambda c: "| " + " | ".join(c) + " |"))
        )
        pd.testing.assert_frame_equal(tab, piped)

    def test_single_column_table_still_accepted(self):
        rows = [("table_row", "only_one_cell", ""), ("table_row", "another", "")]
        out = _spans_df(extract_spans(ray.data.from_arrow(_doc("d1", rows))))
        assert (out["kind"] == "table").sum() == 1
        assert out[out["kind"] == "row"]["text"].tolist() == [
            "only_one_cell",
            "another",
        ]

    def test_all_strategies_raise_quarantines(self):
        rows = [("table_row", None, "")]
        out = _spans_df(extract_spans(ray.data.from_arrow(_doc("dq", rows))))
        assert out["kind"].tolist() == ["error"]


@pytest.mark.usefixtures("ray_session")
class TestReferenceMappingFormat:
    """A reference user's ``*.mapping.json`` cache files (the full
    TablesMapping shape, mapping.py:19-52) load unmodified — including
    multi-table mappings where unmapped table runs are SKIPPED, matching
    the reference's read-only-mapped-tables semantics."""

    def _two_table_doc(self):
        rows = [
            ("table_row", CELL_SEP.join(["Name", "Height", "Species"]), ""),
            ("table_row", CELL_SEP.join(["Rose", "1m", "Rosa canina"]), ""),
            ("text", "interlude " + "z" * 30, ""),
            ("table_row", CELL_SEP.join(["ignored", "also ignored"]), ""),
        ]
        return ray.data.from_arrow(_doc("docref", rows))

    @pytest.mark.skipif(
        not REF_MAPPING.exists(), reason="reference checkout unavailable"
    )
    def test_reference_demo_mapping_shape_applies(self):
        reference_mapping = json.load(open(REF_MAPPING))
        out = _spans_df(
            extract_spans_mapped(self._two_table_doc(), {"docref": reference_mapping})
        )
        header = out[out["kind"] == "table"]["text"].iloc[0]
        assert header == CELL_SEP.join(["name", "species"])
        assert out[out["kind"] == "row"]["text"].tolist() == [
            CELL_SEP.join(["Rose", "Rosa canina"])
        ]
        # only ONE mapped table in the file → the second run is skipped
        assert (out["kind"] == "table").sum() == 1

    def test_compact_form_unchanged_applies_to_all_runs(self):
        compact = {"header_mode": "all_pages", "column_mappings": {"0": "name"}}
        out = _spans_df(
            extract_spans_mapped(self._two_table_doc(), {"docref": compact})
        )
        # compact single mapping keeps the apply-to-every-run behavior
        assert (out["kind"] == "table").sum() == 2


@pytest.mark.usefixtures("ray_session")
class TestMappedReaderEdgeCases:
    """Ports of the reference reader's mapped edge cases
    (tests/test_pdfplumber.py:155-401 / test_pymupdf.py:149-391) onto
    ``extract_spans_mapped`` — document "page" ↔ interleaved table run,
    1-based, per the window semantics in stages/extract.py flush_table."""

    def _ref_mapping(self, first_page, last_page, header_mode="all_pages",
                     columns=None):
        cms = [
            {"from_column_number": o, "to_column_name": n}
            for o, n in (columns or [(0, "vernacular_name"), (1, "scientific_name")])
        ]
        return {
            "tables": [
                {
                    "title": "Plants",
                    "header_mode": header_mode,
                    "first_page": first_page,
                    "last_page": last_page,
                    "column_mappings": cms,
                }
            ],
            "citation": "A citation",
        }

    def _doc_runs(self, n_runs=1, doc_id="docp"):
        rows = []
        for run in range(n_runs):
            rows.append(
                ("table_row", CELL_SEP.join(["common_name", "scientific_name"]), "")
            )
            rows.append(
                ("table_row", CELL_SEP.join([f"Rose{run}", f"Rosa r{run}"]), "")
            )
            rows.append(("text", f"interlude {run} " + "z" * 30, ""))
        return ray.data.from_arrow(_doc(doc_id, rows))

    def test_mapping_that_matches_page(self):
        # ref test_pdfplumber.py:155-228: window [1,1] over a 1-run doc →
        # header dropped (all_pages), cells selected + renamed
        out = _spans_df(
            extract_spans_mapped(self._doc_runs(1), {"docp": self._ref_mapping(1, 1)})
        )
        assert out[out["kind"] == "table"]["text"].tolist() == [
            CELL_SEP.join(["vernacular_name", "scientific_name"])
        ]
        assert out[out["kind"] == "row"]["text"].tolist() == [
            CELL_SEP.join(["Rose0", "Rosa r0"])
        ]

    def test_mapping_without_headers_keeps_header_row(self):
        # ref test_pdfplumber.py:230-307: header_mode "none" → the header
        # row is mapped through as the first data row
        out = _spans_df(
            extract_spans_mapped(
                self._doc_runs(1),
                {"docp": self._ref_mapping(1, 1, header_mode="none")},
            )
        )
        assert out[out["kind"] == "row"]["text"].tolist() == [
            CELL_SEP.join(["common_name", "scientific_name"]),
            CELL_SEP.join(["Rose0", "Rosa r0"]),
        ]

    def test_mapping_that_doesnt_match_page(self):
        # ref test_pdfplumber.py:309-335: window [2,2] over a 1-run doc →
        # zero tables
        out = _spans_df(
            extract_spans_mapped(self._doc_runs(1), {"docp": self._ref_mapping(2, 2)})
        )
        assert (out["kind"] == "table").sum() == 0
        assert (out["kind"] == "row").sum() == 0

    def test_mapping_page_window_beyond_doc_end(self):
        # ref test_pdfplumber.py:378-401: window [11,11], doc has 1 run →
        # zero tables, and NOT a quarantine error
        out = _spans_df(
            extract_spans_mapped(
                self._doc_runs(1), {"docp": self._ref_mapping(11, 11)}
            )
        )
        assert (out["kind"] == "table").sum() == 0
        assert (out["kind"] == "error").sum() == 0

    def test_mapping_window_spans_multiple_runs(self):
        # window [1,2] over a 3-run doc: the FIRST mapping applies to
        # runs 1 and 2 (one fragment per page, document.py:83-105); run 3
        # is outside the window and skipped
        out = _spans_df(
            extract_spans_mapped(self._doc_runs(3), {"docp": self._ref_mapping(1, 2)})
        )
        assert (out["kind"] == "table").sum() == 2
        assert out[out["kind"] == "row"]["text"].tolist() == [
            CELL_SEP.join(["Rose0", "Rosa r0"]),
            CELL_SEP.join(["Rose1", "Rosa r1"]),
        ]

    def test_mapping_window_truncated_at_doc_end(self):
        # window [1,5] over a 2-run doc: reference reads pages 1..2 then
        # aborts at the IndexError (document.py:85-90) — both valid runs
        # are extracted
        out = _spans_df(
            extract_spans_mapped(self._doc_runs(2), {"docp": self._ref_mapping(1, 5)})
        )
        assert (out["kind"] == "table").sum() == 2

    def test_header_mode_first_page_only_drops_header_on_first_window_run(self):
        # header dropped on run first_page only; later runs keep row 0
        out = _spans_df(
            extract_spans_mapped(
                self._doc_runs(2),
                {"docp": self._ref_mapping(1, 2, header_mode="first_page_only")},
            )
        )
        rows = out[out["kind"] == "row"]["text"].tolist()
        assert rows == [
            CELL_SEP.join(["Rose0", "Rosa r0"]),
            CELL_SEP.join(["common_name", "scientific_name"]),
            CELL_SEP.join(["Rose1", "Rosa r1"]),
        ]

    def test_out_of_range_column_ordinal_skips_table(self):
        # ref KeyError path (document.py:94-119 + 174-177): ordinal 5 on
        # a 2-column table → no candidate covers it → run yields no
        # table, no quarantine error
        out = _spans_df(
            extract_spans_mapped(
                self._doc_runs(1),
                {"docp": self._ref_mapping(1, 1, columns=[(5, "nope")])},
            )
        )
        assert (out["kind"] == "table").sum() == 0
        assert (out["kind"] == "error").sum() == 0

    def test_out_of_range_for_tab_recovered_by_pipe_strategy(self):
        # candidate sweep: the tab parse is 1 column wide, but the pipe
        # parse covers ordinal 1 → the later candidate wins (reference
        # candidate iteration, document.py:94-105)
        rows = [
            ("table_row", "| a | b |", ""),
            ("table_row", "| 1 | 2 |", ""),
        ]
        docs = ray.data.from_arrow(_doc("docq", rows))
        out = _spans_df(
            extract_spans_mapped(
                docs,
                {"docq": self._ref_mapping(1, 1, columns=[(1, "second")])},
            )
        )
        assert out[out["kind"] == "table"]["text"].tolist() == [
            CELL_SEP.join(["second"])
        ]
        assert out[out["kind"] == "row"]["text"].tolist() == ["2"]


@pytest.mark.usefixtures("ray_session")
class TestPageRange:
    """ExtractConfig.page_range — the reference's 'file.pdf:first:last'
    page window (page_range.py:5-14 + split_pages.py page_range), applied
    to 1-based table runs (ports of test_split_pages.py:135-160)."""

    def _three_run_doc(self):
        rows = []
        for run in range(3):
            rows.append(("table_row", CELL_SEP.join([f"a{run}", f"b{run}"]), ""))
            rows.append(("text", f"between {run} " + "q" * 30, ""))
        return ray.data.from_arrow(_doc("docpr", rows))

    def test_range_includes_matching_runs(self):
        # ref test_read_tables_page_range_includes_matching_page
        cfg = ExtractConfig(page_range=(1, 2))
        out = _spans_df(extract_spans(self._three_run_doc(), config=cfg))
        assert (out["kind"] == "table").sum() == 2

    def test_range_skips_runs_outside(self):
        # ref test_read_tables_page_range_skips_pages_outside_range:
        # window entirely past the runs → zero tables
        cfg = ExtractConfig(page_range=(4, 6))
        out = _spans_df(extract_spans(self._three_run_doc(), config=cfg))
        assert (out["kind"] == "table").sum() == 0

    def test_no_range_processes_all_runs(self):
        # ref test_read_tables_no_page_range_processes_all_pages
        out = _spans_df(extract_spans(self._three_run_doc()))
        assert (out["kind"] == "table").sum() == 3

    def test_page_range_renumbers_runs_for_mapping_window(self):
        # split_pages.py writes the selected pages to a temp PDF renumbered
        # 1..k BEFORE the mapped reader runs, so a mapping window of
        # first_page=1 combined with a CLI range (2, 3) selects the
        # RANGE's first run (global run 2), not global run 1
        cms = [
            {"from_column_number": 0, "to_column_name": "vernacular_name"},
            {"from_column_number": 1, "to_column_name": "scientific_name"},
        ]
        mapping = {
            "tables": [
                {
                    "title": "Plants",
                    "header_mode": "none",
                    "first_page": 1,
                    "last_page": 1,
                    "column_mappings": cms,
                }
            ],
            "citation": "A citation",
        }
        rows = []
        for run in range(3):
            rows.append(
                ("table_row", CELL_SEP.join([f"Rose{run}", f"Rosa r{run}"]), "")
            )
            rows.append(("text", f"interlude {run} " + "z" * 30, ""))
        docs = ray.data.from_arrow(_doc("docpr2", rows))
        out = _spans_df(
            extract_spans_mapped(
                docs, {"docpr2": mapping}, config=ExtractConfig(page_range=(2, 3))
            )
        )
        # window-relative run 1 == global run 2 → Rose1 extracted
        assert out[out["kind"] == "row"]["text"].tolist() == [
            CELL_SEP.join(["Rose1", "Rosa r1"])
        ]

    def test_cli_page_range_suffix(self, tmp_path):
        # e2e through the CLI's 'path:first:last' syntax (M9 wired)
        import subprocess
        import sys

        import pyarrow.parquet as pq

        src = tmp_path / "docs.parquet"
        rows = []
        for run in range(3):
            rows.append(("table_row", CELL_SEP.join([f"a{run}", f"b{run}"]), ""))
            rows.append(("text", f"between {run} " + "q" * 30, ""))
        pq.write_table(_doc("docpr", rows), src)
        out_dir = tmp_path / "spans"
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "paper2table_ray.cli",
                "extract",
                f"{src}:2:2",
                "-o",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=dict(os.environ, PYTHONPATH=REPO),
        )
        assert r.returncode == 0, r.stderr
        got = ray.data.read_parquet(str(out_dir)).to_pandas()
        tables = got[got["kind"] == "table"]
        assert len(tables) == 1
        assert tables["text"].iloc[0] == CELL_SEP.join(["0", "1"])
        rows_out = got[got["kind"] == "row"]["text"].tolist()
        assert rows_out == [CELL_SEP.join(["a1", "b1"])]
