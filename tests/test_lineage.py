"""Checkpointed partitioned output + resume (state/lineage.py)."""

import io
import json
import os

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from paper2table_ray.state import lineage
from paper2table_ray.state.lineage import (
    LineageSink,
    partition_ids,
    partition_of,
    read_extracted,
    resumable_extract,
)

SF = "/root/testdata/sf0.001"


def test_partition_of_deterministic():
    assert partition_of("doc_000001", 32) == partition_of("doc_000001", 32)
    assert 0 <= partition_of("anything", 7) < 7


@pytest.mark.parametrize(
    "ids, texts",
    [
        # a multi-chunk string column with ids repeated within and across chunks
        (
            pa.chunked_array([["b", "a", "b"], ["c", "a"], [], ["b"]]),
            ["b", "a", "b", "c", "a", "b"],
        ),
        # int64 ids place by their text
        (
            pa.chunked_array([pa.array([7, -3, 7], pa.int64()), pa.array([2**40, 0, -3], pa.int64())]),
            ["7", "-3", "7", str(2**40), "0", "-3"],
        ),
    ],
    ids=["multichunk_strings", "int64"],
)
def test_partition_ids_hash_each_distinct_id_once(monkeypatch, ids, texts):
    calls = []

    def counted(doc_id, num_partitions):
        calls.append(doc_id)
        return partition_of(doc_id, num_partitions)

    monkeypatch.setattr(lineage, "partition_of", counted)
    got = partition_ids(ids, 8)
    assert got.type == pa.int32()
    assert got.to_pylist() == [partition_of(t, 8) for t in texts]
    assert sorted(calls) == sorted(set(texts))


def test_partition_ids_null_id_raises():
    # a dictionary stamp that skipped nulls would give a null partition_id
    with pytest.raises(AttributeError):
        partition_ids(pa.chunked_array([["a"], [None, "a"]]), 8)


def _assert_lineage_counts(out: str) -> None:
    """Each lineage row's doc_count and row_count are those of its file."""
    recs = LineageSink(out).lineage_records()
    assert recs
    for rec in recs:
        part = pd.read_parquet(os.path.join(out, f"part-{rec['partition_id']:05d}.parquet"))
        assert rec["row_count"] == len(part)
        assert rec["doc_count"] == part["doc_id"].nunique()


@pytest.mark.usefixtures("ray_session")
class TestResume:
    @pytest.fixture(autouse=True)
    def _out(self, tmp_path):
        self.out = str(tmp_path / "lineage")

    def test_write_then_resume_skips_everything(self):
        summary1 = resumable_extract(SF, self.out, num_partitions=8)
        assert len(summary1) == 8
        assert (summary1["status"] == "ok").all()
        total_rows = summary1["row_count"].sum()

        # full output readable and matches span count
        ds = read_extracted(self.out)
        assert ds.count() == total_rows

        # second run: all partitions complete → nothing written
        summary2 = resumable_extract(SF, self.out, num_partitions=8)
        assert len(summary2) == 0

    def test_partial_resume(self):
        resumable_extract(SF, self.out, num_partitions=8)
        before = read_extracted(self.out).count()
        # sabotage two partitions: drop their lineage + files
        sink = LineageSink(self.out, num_partitions=8)
        for pid in (1, 5):
            os.remove(os.path.join(self.out, "_lineage", f"{pid:05d}.json"))
            os.remove(os.path.join(self.out, f"part-{pid:05d}.parquet"))
        assert sink.completed_partitions() == {0, 2, 3, 4, 6, 7}

        summary = resumable_extract(SF, self.out, num_partitions=8)
        assert sorted(summary["partition_id"]) == [1, 5]
        assert read_extracted(self.out).count() == before

    def test_lineage_records_shape(self):
        resumable_extract(SF, self.out, num_partitions=4)
        recs = LineageSink(self.out, num_partitions=4).lineage_records()
        assert len(recs) == 4
        for rec in recs:
            assert rec["stage"] == "extract"
            assert rec["doc_count"] > 0
            assert rec["wall_ms"] >= 0
            assert rec["status"] == "ok"
        _assert_lineage_counts(self.out)


class TestScratchContract:
    """state/scratch.py: every spill/cache path resolves through ONE
    config point so a real cluster can redirect it to shared storage."""

    def test_env_var_redirects_scratch(self, tmp_path, monkeypatch):
        from paper2table_ray.state import scratch

        monkeypatch.setenv(scratch.ENV_VAR, str(tmp_path / "shared"))
        root = scratch.scratch_root()
        assert root == str(tmp_path / "shared")
        assert os.path.isdir(root)
        d = scratch.scratch_dir("unit_")
        assert d.startswith(root)

    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        from paper2table_ray.state import scratch

        monkeypatch.setenv(scratch.ENV_VAR, str(tmp_path / "env"))
        assert scratch.scratch_root(str(tmp_path / "arg")) == str(tmp_path / "arg")

    def test_no_hardcoded_tmp_on_scale_paths(self):
        # the spill sites must route through state/scratch.py, not "/tmp"
        import glob

        import paper2table_ray

        pkg = os.path.dirname(paper2table_ray.__file__)
        offenders = []
        for path in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
            src = open(path, encoding="utf-8").read()
            for i, line in enumerate(src.splitlines(), 1):
                if '"/tmp' in line or "'/tmp" in line:
                    offenders.append(f"{path}:{i}")
        assert offenders == []


@pytest.mark.usefixtures("ray_session")
class TestResumableMerge:
    """state/lineage.resumable_merge: shuffle-free merge over the
    bucketed cells store, resuming only pending partitions (verdict r2
    item 8)."""

    def _build_store(self, tmp_path, n_docs=30, num_partitions=6):
        import pyarrow.parquet as pq

        from paper2table_ray.sources.resultsets import synth_resultsets_batch

        src = pq.read_table(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
        ).slice(0, n_docs)
        cells = synth_resultsets_batch(src)
        store = str(tmp_path / "store")
        sink = LineageSink(store, num_partitions=num_partitions, stage="cells")
        ds = sink.add_partition_column(ray.data.from_arrow(cells))
        sink.write(ds)
        return store, cells

    def test_full_merge_matches_shuffled_pipeline(self, tmp_path):
        from paper2table_ray.pipelines.merge import MergeConfig, merge_pipeline
        from paper2table_ray.schema import table_to_row_records
        from paper2table_ray.state.lineage import read_extracted, resumable_merge

        store, cells = self._build_store(tmp_path)
        cfg = MergeConfig()
        out = str(tmp_path / "merged")
        summary = resumable_merge(store, out, cfg)
        assert (summary["status"] == "ok").all()
        _assert_lineage_counts(store)
        _assert_lineage_counts(out)

        def comparable(records):
            rows = [
                (
                    r["doc_id"], r["table_idx"], r["fragment_idx"], r["pos"],
                    r["row_idx"], r["agreement_level"],
                    tuple(r["sources"] or ()), repr(sorted(r["cells"].items())),
                )
                for r in records
            ]
            return sorted(rows)

        got = []
        for batch in read_extracted(out).iter_batches(batch_format="pyarrow"):
            got.extend(table_to_row_records(batch))
        exp = []
        for batch in merge_pipeline(
            ray.data.from_arrow(cells).repartition(4), cfg
        ).iter_batches(batch_format="pyarrow"):
            exp.extend(table_to_row_records(batch))
        assert comparable(got) == comparable(exp)

    def test_killed_merge_reruns_only_pending(self, tmp_path):
        from paper2table_ray.pipelines.merge import MergeConfig
        from paper2table_ray.state.lineage import resumable_merge

        store, _ = self._build_store(tmp_path)
        out = str(tmp_path / "merged")
        first = resumable_merge(store, out, MergeConfig())
        pids = sorted(first["partition_id"])

        # simulate a crash that lost partitions 0 and 1: remove their
        # lineage rows + output files
        for pid in pids[:2]:
            os.remove(os.path.join(out, "_lineage", f"{pid:05d}.json"))
            os.remove(os.path.join(out, f"part-{pid:05d}.parquet"))
        # sentinel-stamp a completed partition to prove it is not rewritten
        sentinel = os.path.join(out, f"part-{pids[2]:05d}.parquet")
        before = os.stat(sentinel).st_mtime_ns
        open(sentinel + ".marker", "w").write("x")

        second = resumable_merge(store, out, MergeConfig())
        by_pid = dict(zip(second["partition_id"], second["status"]))
        assert by_pid[pids[0]] == "ok" and by_pid[pids[1]] == "ok"
        assert all(by_pid[p] == "skipped" for p in pids[2:])
        assert os.stat(sentinel).st_mtime_ns == before
        # the re-merged partitions exist again
        for pid in pids[:2]:
            assert os.path.exists(os.path.join(out, f"part-{pid:05d}.parquet"))

    def test_empty_store_summary_has_the_sink_columns(self, tmp_path):
        from paper2table_ray.state.lineage import LINEAGE_COLUMNS, resumable_merge

        store = tmp_path / "store"
        store.mkdir()
        summary = resumable_merge(str(store), str(tmp_path / "merged"))
        assert summary.empty and list(summary.columns) == LINEAGE_COLUMNS


@pytest.mark.usefixtures("ray_session")
class TestCuratePipeline:
    """pipelines/curate.py: the composed curation funnel + resumable
    job (its per-component semantics are oracled via curate_docs)."""

    SF = "/root/testdata/sf0.001/documents.parquet"

    def test_curate_to_dir_and_resume(self, tmp_path):
        from paper2table_ray.pipelines.curate import curate_to_dir
        from paper2table_ray.state.lineage import read_extracted

        out = str(tmp_path / "curated")
        first = curate_to_dir(self.SF, out, langs=["en", "es"],
                              min_quality=0.2, num_partitions=8)
        assert (first["status"] == "ok").all()
        curated = read_extracted(out).to_pandas()
        assert len(curated) > 0
        assert set(curated["lang_pred"]) <= {"en", "es"}
        assert (curated["quality_score"] >= 0.2).all()

        # resume: drop two partitions' lineage + files, re-run, only they
        # are re-processed (others filtered out pre-pipeline)
        pids = sorted(first["partition_id"])[:2]
        for pid in pids:
            os.remove(os.path.join(out, "_lineage", f"{pid:05d}.json"))
            os.remove(os.path.join(out, f"part-{pid:05d}.parquet"))
        second = curate_to_dir(self.SF, out, langs=["en", "es"],
                               min_quality=0.2, num_partitions=8)
        assert sorted(second["partition_id"]) == pids
        # full output restored, identical row count
        assert len(read_extracted(out).to_pandas()) == len(curated)

    def test_int_ids_place_by_their_text(self, tmp_path):
        # int64 doc ids are stamped through a string cast: each curated
        # row lands in partition_of(str(doc_id)), as a hand-made key would
        import pyarrow as pa
        import ray.data

        from paper2table_ray.pipelines.curate import curate_to_dir

        ids = pa.array([0, 7, -3, 2**40, 123456789], pa.int64())
        sink = LineageSink(str(tmp_path / "stamp"), num_partitions=8)
        stamped = sink.add_partition_column(
            ray.data.from_arrow(pa.table({"doc_id": ids}))
        ).to_pandas()
        assert list(stamped["partition_id"]) == [
            partition_of(str(d), 8) for d in stamped["doc_id"]
        ]

        out = str(tmp_path / "curated")
        summary = curate_to_dir(self.SF, out, num_partitions=8)
        assert (summary["status"] == "ok").all()
        for pid in summary["partition_id"]:
            part = pd.read_parquet(os.path.join(out, f"part-{pid:05d}.parquet"))
            assert len(part) > 0
            assert {partition_of(str(d), 8) for d in part["doc_id"]} == {pid}

    def test_dedup_semi_join_drops_duplicates(self):
        import pyarrow as pa
        import ray.data

        from paper2table_ray.pipelines.curate import curate_pipeline

        docs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(
                        ["the same text here", "the same text here",
                         "the other text is here"],
                        pa.string(),
                    ),
                }
            )
        )
        out = curate_pipeline(docs, dedup=True).to_pandas()
        assert sorted(out["doc_id"]) == [1, 3]

    def test_redact_attaches_columns(self):
        import pyarrow as pa
        import ray.data

        from paper2table_ray.pipelines.curate import curate_pipeline

        docs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1], pa.int64()),
                    "text": pa.array(
                        ["write to me me@example.com or 12345678"], pa.string()
                    ),
                }
            )
        )
        out = curate_pipeline(docs, dedup=False, redact=True).to_pandas()
        assert out["n_redactions"].iloc[0] == 2
        assert "<EMAIL>" in out["redacted"].iloc[0]
        assert "<NUM>" in out["redacted"].iloc[0]


# --- the commit protocol (state/lineage.commit_file) --------------------------


class _Torn(Exception):
    """Stands in for a writer stopped mid-write."""


def _torn(write_fn):
    """A ``write_fn`` that writes the first half of ``write_fn``'s bytes,
    then raises."""

    def write(f):
        buf = io.BytesIO()
        write_fn(buf)
        f.write(buf.getvalue()[: len(buf.getvalue()) // 2])
        raise _Torn

    return write


@pytest.mark.parametrize("existing", [b"old bytes", None], ids=["replace", "create"])
def test_commit_file_raising_write_keeps_path(tmp_path, existing):
    path = tmp_path / "out.json"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(_Torn):
        lineage.commit_file(str(path), _torn(lambda f: f.write(b"new bytes, longer")))
    if existing is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == ["out.json"]
        assert path.read_bytes() == existing
    lineage.commit_file(str(path), lambda f: f.write(b"new"))
    assert os.listdir(tmp_path) == ["out.json"]
    assert path.read_bytes() == b"new"


def test_killed_metadata_write_leaves_no_truncated_file(monkeypatch, tmp_path):
    """A writer stopped inside the ``tables.metadata.json`` write leaves no
    file at all, so the next run writes it whole (an in-place dump left a
    truncated file behind the ``os.path.exists`` guard)."""
    from paper2table_ray.sources import tablesfile_json as tfj

    sources = [{"uuid": "run-a", "reader": "é"}]
    monkeypatch.setattr(
        tfj, "commit_file", lambda path, fn: lineage.commit_file(path, _torn(fn))
    )
    with pytest.raises(_Torn):
        tfj.resultset_writer(str(tmp_path), "merged-x", sources=sources)
    assert os.listdir(tmp_path / "merged-x") == []
    assert tfj.load_metadata(str(tmp_path / "merged-x")) is None

    monkeypatch.undo()
    tfj.resultset_writer(str(tmp_path), "merged-x", sources=sources)
    assert os.listdir(tmp_path / "merged-x") == ["tables.metadata.json"]
    assert tfj.load_metadata(str(tmp_path / "merged-x")) == {
        "reader": "merged", "uuid": "merged-x", "sources": sources,
    }


def test_every_commit_site_fsyncs_before_replace(monkeypatch, tmp_path):
    """Each checkpointed file is fsynced as its tmp file, then replaced
    onto its name. The Ray-side writers run in-process here: the sink's
    exchange is one call over the whole table, and ``resumable_merge``'s
    task runs inline."""
    import pyarrow.parquet as pq
    import ray

    from paper2table_ray.pipelines import oracle_dumps
    from paper2table_ray.pipelines.extract import plan_mappings_ds
    from paper2table_ray.schema import table_to_doc_tablesfiles
    from paper2table_ray.sources.resultsets import synth_resultsets_batch
    from paper2table_ray.sources.synth import synth_docs_batch
    from paper2table_ray.sources.tablesfile_json import resultset_writer
    from paper2table_ray.state import scratch

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.realpath(src), os.path.realpath(dst)))
        real_replace(src, dst)

    class _Inline:
        """``groupby_apply_table``, ``ray.remote`` and ``Dataset.map_batches``
        stand-in: runs the function here."""

        def __init__(self, fn):
            self.fn = fn

        def remote(self, *args):
            return self.fn(*args)

        def to_pandas(self):
            return self.fn

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(
        lineage, "groupby_apply_table",
        lambda ds, key, table_fn, num_shards: _Inline(table_fn(ds)),
    )
    monkeypatch.setattr(lineage, "write_width", lambda num_partitions: 1)
    monkeypatch.setattr(ray, "remote", _Inline)
    monkeypatch.setattr(ray, "get", lambda refs: refs)
    monkeypatch.setenv(scratch.ENV_VAR, str(tmp_path / "scratch"))

    cells = synth_resultsets_batch(pa.table({"doc_id": pa.array(range(6), pa.int64())}))
    store, merged = tmp_path / "store", tmp_path / "merged"
    sink = LineageSink(str(store), num_partitions=3, stage="cells")
    pids = partition_ids(cells.column("doc_id"), 3)
    sink.write(cells.append_column("partition_id", pids))
    lineage.resumable_merge(str(store), str(merged))

    write = resultset_writer(str(tmp_path / "rs"), "merged-x")
    written = write(
        (doc_id, next(iter(trees.values()))) for doc_id, trees in table_to_doc_tablesfiles(cells)
    )

    docs = synth_docs_batch(pq.read_table(f"{SF}/documents.parquet").slice(0, 8))

    class _Capture:
        def map_batches(self, fn, **kwargs):
            return fn

    plan_mappings_ds(_Capture(), cache_dir=str(tmp_path / "maps"))(docs)
    oracle_dumps.ensure_simhash_dump(SF)

    replaced = [e for e in events if e[0] == "replace"]
    for i, e in enumerate(events):
        if e[0] == "replace":
            assert events[i - 1] == ("fsync", e[1]), e
    published = {os.path.relpath(dst, os.path.realpath(tmp_path)) for _, _, dst in replaced}
    for pid in set(pids.to_pylist()):
        for out in ("store", "merged"):
            assert f"{out}/part-{pid:05d}.parquet" in published
            assert f"{out}/_lineage/{pid:05d}.json" in published
    assert (written["status"] == "written").sum() == 6
    assert {f"rs/merged-x/{d}.tables.json" for d in written["doc_id"]} < published
    assert "rs/merged-x/tables.metadata.json" in published
    assert any(p.startswith("maps/") and p.endswith(".mapping.json") for p in published)
    assert any(p.startswith("scratch/p2t_oracle_dumps/") for p in published)
    assert len(published) == len(replaced)


_KILL_SCRIPT = '''
import os
import sys

import pyarrow.parquet as pq
import ray

root, sf = sys.argv[1], sys.argv[2]


def die_at_first_lineage_commit():
    """Worker setup hook: in an output dir named ``killed*``, the first
    lineage commit (its part file already replaced) writes a marker
    beside the dir and kills the worker."""
    from paper2table_ray.state import lineage

    commit = lineage.commit_file

    def commit_or_die(path, write_fn):
        lineage_dir, name = os.path.split(path)
        out = os.path.dirname(lineage_dir)
        if os.path.basename(lineage_dir) == "_lineage" and os.path.basename(out).startswith("killed"):
            try:
                fd = os.open(out + ".marker", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                part = os.path.join(out, "part-" + name.replace(".json", ".parquet"))
                os.write(fd, str(os.path.exists(part)).encode())
                os.close(fd)
                os._exit(1)
        commit(path, write_fn)

    lineage.commit_file = commit_or_die


ray.init(
    address="local",
    num_cpus=2,
    include_dashboard=False,
    logging_level="ERROR",
    runtime_env={"worker_process_setup_hook": die_at_first_lineage_commit},
)
ray.data.DataContext.get_current().enable_progress_bars = False

from paper2table_ray.sources.resultsets import synth_resultsets_batch
from paper2table_ray.state.lineage import LineageSink, resumable_extract, resumable_merge

for run in ("clean", "killed"):
    resumable_extract(sf, os.path.join(root, run + "_extract"), num_partitions=8)

cells = synth_resultsets_batch(pq.read_table(sf + "/documents.parquet", columns=["doc_id"]).slice(0, 30))
store = LineageSink(os.path.join(root, "store"), num_partitions=6, stage="cells")
store.write(store.add_partition_column(ray.data.from_arrow(cells)))
for run in ("clean", "killed"):
    resumable_merge(store.output_dir, os.path.join(root, run + "_merge"))
ray.shutdown()
'''


def test_worker_killed_between_part_and_lineage_commit_retries_to_clean_run(tmp_path):
    """A worker killed after a part file's commit and before its lineage
    commit: Ray retries the task (Ray Data map tasks retry a dead worker
    without limit; ``resumable_merge``'s task keeps Ray's default
    retries), and the output equals a clean run's, with no tmp file."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "kill_run.py"
    script.write_text(_KILL_SCRIPT)
    root = tmp_path / "runs"
    root.mkdir()
    # the workers import the package before the driver's sys.path reaches them
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [repo, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(script), str(root), SF],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]

    def outputs(out):
        files = sorted(n for n in os.listdir(out) if n.endswith(".parquet"))
        rows = {f: sorted(pq.read_table(os.path.join(out, f)).to_pylist(), key=repr) for f in files}
        counts = sorted(
            (r["partition_id"], r["doc_count"], r["row_count"], r["status"])
            for r in LineageSink(out).lineage_records()
        )
        return rows, counts

    for stage in ("extract", "merge"):
        killed = root / f"killed_{stage}"
        assert (root / f"killed_{stage}.marker").read_text() == "True"
        clean_rows, clean_counts = outputs(root / f"clean_{stage}")
        assert len(clean_rows) > 3
        assert outputs(killed) == (clean_rows, clean_counts)
        assert [n for _, _, names in os.walk(killed) for n in names if n.endswith(".tmp")] == []
