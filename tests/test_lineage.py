"""Checkpointed partitioned output + resume (state/lineage.py)."""

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
