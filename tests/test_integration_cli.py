"""Subprocess CLI integration tests — the reference's integration shape
(tests/test_integration.py:26-253 runs its console scripts as real
subprocesses and asserts whole-output dicts). The in-process CLI tests
(test_cli.py) cover the same flows faster; these pin the REAL process
boundary: argv parsing, module entry, exit codes, stdout/file contracts.

Marked ``integration`` like the reference's.
"""

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.integration

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_DIR = Path("/root/reference/tests/data/demo_resultsets")
REF_RESULTSETS = sorted(glob.glob(f"{REF_DIR}/*/"))


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.run(
        [sys.executable, "-m", "paper2table_ray.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
        env=env,
        timeout=600,
    )


@pytest.mark.skipif(not REF_DIR.exists(), reason="reference checkout unavailable")
def test_tablemerge_then_tablestats_subprocess(tmp_path):
    """tablemerge → tablestats through real subprocesses; the stats JSON
    is asserted as a WHOLE dict (reference integration style), and the
    merged files must be dict-identical to the in-process pipeline the
    parity suites gate."""
    merged_dir = tmp_path / "merged"
    r = run_cli("tablemerge", *REF_RESULTSETS, "-o", str(merged_dir))
    assert r.returncode == 0, r.stderr[-2000:]
    assert "written" in r.stdout
    out_dirs = sorted(merged_dir.iterdir())
    assert len(out_dirs) == 1
    out = out_dirs[0]

    stats_file = tmp_path / "stats.json"
    r = run_cli("tablestats", str(out), "-o", str(stats_file))
    assert r.returncode == 0, r.stderr[-2000:]
    stats = json.loads(stats_file.read_text())
    uuid = out.name
    assert stats == {
        "papers": 3,
        "tables": 6,
        "fragments": 13,
        "rows": 215,
        "unique_rows": 41,
        "rows_with_agreement": 53,
        "rows_in_shared_groups": 215,
        "rows_with_shared_values": 165,
        "global_agreement_percentage": 24.651162790697676,
        "global_shared_values_percentage": 76.74418604651163,
        "empty_papers": 0,
        "columns": {
            "authors": "str",
            "year": "int",
            "journal": "str",
            "volume": "int",
            "issue": "int",
            "pages": "str",
            "doi": "str",
            "publisher": "str",
            "scientific_name": "str",
            "common_name": "str",
            "endangered_level": "str",
            "distribution": "str",
            "notes": "str",
            "estimated_population": "str",
        },
        "papers_by_tables": [
            {"doc_id": "large_dataset", "source_uuid": uuid, "tables": 1},
            {"doc_id": "synthetic_overview", "source_uuid": uuid, "tables": 2},
            {"doc_id": "extended_overview", "source_uuid": uuid, "tables": 3},
        ],
    }

    # whole-output fidelity: subprocess files == in-process pipeline files
    from paper2table_ray.cli import main as inproc_main

    merged2 = tmp_path / "merged_inproc"
    assert inproc_main(["tablemerge", *REF_RESULTSETS, "-o", str(merged2)]) == 0
    out2 = next(merged2.iterdir())
    names = sorted(p.name for p in out.glob("*.tables.json"))
    assert names == sorted(p.name for p in out2.glob("*.tables.json"))
    assert names  # non-empty
    for name in names:
        a = json.loads((out / name).read_text())
        b = json.loads((out2 / name).read_text())
        assert a == b, name

    # validate every produced file through the subprocess surface too
    r = run_cli("tablevalidate", str(out / "*.tables.json"), "--all")
    assert r.returncode == 0, r.stdout + r.stderr


def test_extract_subprocess_matches_expected_spans(tmp_path):
    """extract via subprocess on a small synthesized corpus; output spans
    must equal the generation plan's expected sequence (whole-frame)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from paper2table_ray.sources.synth import synth_corpus_tables

    docs, expected = synth_corpus_tables(
        "/root/testdata/sf0.001/documents.parquet", limit=20
    )
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    pq.write_table(docs, str(docs_dir / "docs.parquet"))

    out = tmp_path / "spans"
    r = run_cli("extract", str(docs_dir), "-o", str(out))
    assert r.returncode == 0, r.stderr[-2000:]

    got = (
        pq.read_table(str(out))
        .to_pandas()
        .sort_values(["doc_id", "span_idx"])
        .reset_index(drop=True)
    )
    exp = (
        expected.to_pandas()
        .sort_values(["doc_id", "span_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[exp.columns.tolist()], exp, check_dtype=False
    )


def test_usage_exit_codes_subprocess():
    assert run_cli().returncode == 2
    assert run_cli("--help").returncode == 0
    assert run_cli("not-a-command").returncode == 2
