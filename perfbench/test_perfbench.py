"""Tests of the benchmark itself: every workload's check passes on a
tiny run and fails when one output is corrupted; the command runs from a
directory outside the checkout; it refuses to run without the engine.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT))

from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def ray_1cpu():
    import ray

    os.environ["PYTHONPATH"] = str(ROOT)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    ray.data.DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


def _pass(name: str, tmp_path: Path):
    wl = WORKLOADS[name](seed=5, tmp=str(tmp_path), n_docs=60)
    wl.prepare()
    out = str(tmp_path / "out")
    wl.run_pass(out)
    failed, problems = wl.check(out)
    assert failed == wl.known_faults and not problems
    return wl, out


def test_extract_check_sees_dropped_span(ray_1cpu, tmp_path):
    wl, out = _pass("extract", tmp_path)
    tables = {p: pq.read_table(os.path.join(out, p)) for p in os.listdir(out) if p.startswith("part-")}
    part, tbl = next((p, t) for p, t in sorted(tables.items())
                     if not wl.known_faults & set(t.column("doc_id").to_pylist()))
    doc = tbl.column("doc_id")[1].as_py()
    pq.write_table(pa.concat_tables([tbl.slice(0, 1), tbl.slice(2)]), os.path.join(out, part))
    failed, problems = wl.check(out)
    assert doc in failed - wl.known_faults
    assert problems  # the lineage row_count no longer matches the file


def test_extract_check_sees_probe_change(ray_1cpu, tmp_path):
    """The known-fault probe is tolerated only with its known-faulty output."""
    wl, out = _pass("extract", tmp_path)
    probe = wl.PROBE[0]
    part, tbl = next((p, pq.read_table(os.path.join(out, p))) for p in sorted(os.listdir(out))
                     if p.startswith("part-")
                     and probe in pq.read_table(os.path.join(out, p)).column("doc_id").to_pylist())
    texts = tbl.column("text").to_pylist()
    ids = tbl.column("doc_id").to_pylist()
    i = ids.index(probe)
    texts[i] = texts[i] + " changed"
    tbl = tbl.set_column(tbl.schema.get_field_index("text"), "text", pa.array(texts, pa.string()))
    pq.write_table(tbl, os.path.join(out, part))
    failed, problems = wl.check(out)
    assert probe in failed
    assert any(probe in p for p in problems)


def test_tablemerge_check_sees_changed_cell(ray_1cpu, tmp_path):
    wl, out = _pass("tablemerge", tmp_path)
    target = wl._out_dir(out)
    name = sorted(n for n in os.listdir(target) if n.endswith(".tables.json"))[0]
    path = os.path.join(target, name)
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    table = obj["tables"][0]
    rows = table["rows"] if "rows" in table else table["table_fragments"][0]["rows"]
    col = next(k for k in rows[0] if not k.endswith("_"))
    rows[0][col] = "changed"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)
    failed, _ = wl.check(out)
    assert failed == {name.removesuffix(".tables.json")}


def test_curate_check_sees_extra_survivor(ray_1cpu, tmp_path):
    from paper2table_ray.state.lineage import partition_of

    wl, out = _pass("curate", tmp_path)
    kept = set(wl.expected.column("doc_id").to_pylist())
    extra = next(d for d in wl.documents.column("doc_id").to_pylist() if d not in kept)
    store = os.path.join(out, "store")
    part = os.path.join(store, f"part-{partition_of(str(extra), wl.partitions):05d}.parquet")
    row = pa.table({"doc_id": [extra], "text": ["x"], "lang_pred": ["en"], "quality_score": [0.5]})
    tbl = pq.read_table(part) if os.path.exists(part) else row.schema.empty_table()
    pq.write_table(pa.concat_tables([tbl, row.cast(tbl.schema)]), part)
    failed, _ = wl.check(out)
    assert extra in failed


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


@pytest.mark.parametrize("trace", [0, 1])
def test_runs_from_outside_the_checkout(tmp_path, trace):
    args = ["--workload", "extract", "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--docs", "40"]
    p = subprocess.run(RUN + args, cwd=tmp_path, env=_env(), capture_output=True,
                       text=True, timeout=400)
    assert p.returncode == 0, p.stderr[-3000:]
    result = _last_json(p.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        trace_file = ROOT / ".perfbench_out" / "trace-extract-seed3.json"
        spans = json.loads(trace_file.read_text())["spans"]
        assert {"extract.pass", "tablemerge.pass", "curate.pass"} <= {s["name"] for s in spans}
    assert not os.listdir(tmp_path)


def test_runs_in_a_deep_checkout(tmp_path):
    """Ray's socket paths would not fit under this checkout's temp dir."""
    root = tmp_path / ("deep-" * 12) / "checkout"
    shutil.copytree(ROOT / "paper2table_ray", root / "paper2table_ray",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tablemerge", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--docs", "20"],
        cwd=root, env=_env(), capture_output=True, text=True, timeout=400,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    assert _last_json(p.stdout)["correct"]
    assert not (root / ".perfbench_tmp").exists()


# Runs a command as a child of a subreaper, so that the command's
# orphaned descendants come back here, and prints what is left of them the
# moment the command exits.
_WATCH = """
import json, os, subprocess, sys
sys.path.insert(0, sys.argv[1])
from measure import _proc_table, _tree, adopt_orphans
adopt_orphans()
rc = subprocess.call(sys.argv[2:], stdout=subprocess.DEVNULL)
me = os.getpid()
print(json.dumps({"rc": rc, "left": [p for p in _tree(_proc_table(), me) if p != me]}))
"""


def test_leaves_no_process_running(tmp_path):
    p = subprocess.run(
        [sys.executable, "-c", _WATCH, str(HERE)] + RUN
        + ["--workload", "curate", "--seed", "4", "--seconds", "1", "--trace", "0",
           "--docs", "60"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=400,
    )
    assert _last_json(p.stdout) == {"rc": 0, "left": []}, p.stderr[-3000:]


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert not p.stdout.strip()
