"""The three workloads: inputs, the timed pass, the traced pass, checks.

Each workload is a closed loop of passes: one job at a time, and the next
pass starts when the last one's output is on disk.

- ``run_pass`` is the production call, timed from outside as one unit.
- ``traced_pass`` makes the same output from the same public functions,
  but materializes each layer before the next starts, and records a span
  per layer call. ``kernels`` times the in-process kernels with
  ``time.process_time``.
- ``check`` compares a pass's output with a computation made apart from
  the engine and returns the ids of the docs that failed.
"""

from __future__ import annotations

import html as html_lib
import json
import os
import re
import time
from typing import Dict, List, Set

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from corpus import make_documents, resultset_files
from measure import task_s


def _write_shards(table: pa.Table, path: str, rows_per_file: int) -> None:
    os.makedirs(path, exist_ok=True)
    for i, start in enumerate(range(0, table.num_rows, rows_per_file)):
        pq.write_table(
            table.slice(start, rows_per_file), os.path.join(path, f"{i:05d}.parquet")
        )


def _read_parts(path: str) -> Dict[int, pa.Table]:
    """``part-XXXXX.parquet`` files of a lineage store, by partition id."""
    return {
        int(name[5:10]): pq.read_table(os.path.join(path, name))
        for name in sorted(os.listdir(path))
        if name.startswith("part-") and name.endswith(".parquet")
    }


def _lineage_problems(path: str, parts: Dict[int, pa.Table], key_of, num_partitions: int):
    """Docs placed in the wrong partition file, and lineage rows that do
    not match the files they describe."""
    from paper2table_ray.state.lineage import partition_of

    misplaced: Set = set()
    for pid, tbl in parts.items():
        for doc in set(tbl.column("doc_id").to_pylist()):
            if partition_of(key_of(doc), num_partitions) != pid:
                misplaced.add(doc)
    problems = []
    lineage_dir = os.path.join(path, "_lineage")
    rows = {}
    for name in os.listdir(lineage_dir):
        if name.endswith(".json"):
            with open(os.path.join(lineage_dir, name), encoding="utf-8") as f:
                rec = json.load(f)
            rows[rec["partition_id"]] = rec["row_count"]
    total = sum(t.num_rows for t in parts.values())
    if sum(rows.values()) != total:
        problems.append(f"lineage row_count sum {sum(rows.values())} != {total} output rows")
    for pid, tbl in parts.items():
        if rows.get(pid) != tbl.num_rows:
            problems.append(f"partition {pid}: lineage {rows.get(pid)} != file {tbl.num_rows}")
    return misplaced, problems


def _layer(tracer, m: dict, name: str, make, with_task_s: bool = True):
    """One layer call, materialized inside its span; records the span's
    wall time, the call's ``ds.stats()`` and its summed task time."""
    with tracer.span(name) as attrs:
        ds = make().materialize()
    attrs["stats"] = ds.stats()
    m[name + ".wall_s"] = m.get(name + ".wall_s", 0.0) + tracer.spans[-1]["wall_s"]
    if with_task_s:
        m[name + ".task_s"] = task_s(ds, tracer.spans[-1]["t0"])
    return ds


def _sink(tracer, m: dict, name: str, write):
    """A sink call; its task time is read from Ray's timeline later."""
    with tracer.span(name):
        summary = write()
    m[name + ".wall_s"] = tracer.spans[-1]["wall_s"]
    return summary


def _summary_skew(summary) -> float:
    counts = summary["row_count"].to_numpy()
    return float(counts.max() / np.median(counts))


class Workload:
    name = ""
    default_docs = 0
    first_output_suffix = ""
    # docs that fail on every pass because of a fault in the engine; they
    # count as failed, but do not make the run incorrect
    known_faults: Set = frozenset()

    def __init__(self, seed: int, tmp: str, n_docs: int = 0):
        self.seed = seed
        self.n_docs = n_docs or self.default_docs
        self.inputs = os.path.join(tmp, "inputs", self.name)

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, out: str, warm: bool = False) -> None:
        raise NotImplementedError

    def check(self, out: str) -> tuple:
        """→ (failed doc ids, problems that are not tied to one doc)."""
        raise NotImplementedError

    def traced_pass(self, out: str, tracer) -> Dict[str, float]:
        raise NotImplementedError

    def kernels(self, tracer) -> Dict[str, float]:
        return {}


# --- extract ----------------------------------------------------------------


class Extract(Workload):
    """Interleaved docs → ``extract --resume`` (lineage sink)."""

    name = "extract"
    default_docs = 3000
    first_output_suffix = ".parquet"
    partitions = 64  # the CLI's --partitions default
    rows_per_file = 250
    # The same doc on every seed: its plan puts a paragraph shorter than
    # BoilerplateStripper's 25 characters inside an html span.
    # ``build_doc`` expects that paragraph as a text span; the extractor
    # drops it as boilerplate. The corpus itself never writes a sentence
    # that short, so this doc is the only one that fails. Its output is
    # still checked: it must equal the plan without that paragraph.
    PROBE = ("doc_probe_000", "Short probe one. Short probe two. Short probe three.", 0)
    known_faults = frozenset({PROBE[0]})

    def prepare(self) -> None:
        from paper2table_ray.schema import DOC_SCHEMA, SPANS_OUT_SCHEMA
        from paper2table_ray.sources.synth import build_doc, expected_spans_batch, synth_docs_batch

        documents, _ = make_documents(self.seed, self.n_docs)
        src = documents.select(["doc_id", "text"])
        probe_spans, probe_expected = build_doc(*self.PROBE)
        doc_id = self.PROBE[0]
        self.docs = pa.concat_tables([
            synth_docs_batch(src, self.seed),
            pa.Table.from_pylist([{"doc_id": doc_id, "spans": probe_spans}], schema=DOC_SCHEMA),
        ])
        self.expected = pa.concat_tables([
            expected_spans_batch(src, self.seed),
            pa.Table.from_pylist(
                [{"doc_id": doc_id, "span_idx": i, "kind": k, "text": t, "media_ref": r}
                 for i, (k, t, r) in enumerate(probe_expected)],
                schema=SPANS_OUT_SCHEMA,
            ),
        ])
        self.probe_faulty = _without_short_html_paras(probe_spans, probe_expected)
        self.n_docs += 1
        _write_shards(self.docs, os.path.join(self.inputs, "docs"), self.rows_per_file)
        _write_shards(self.docs.slice(0, 64), os.path.join(self.inputs, "warm"), 32)

    def _input(self, warm: bool) -> str:
        return os.path.join(self.inputs, "warm" if warm else "docs")

    def run_pass(self, out: str, warm: bool = False) -> None:
        from paper2table_ray.pipelines.extract import extract_spans
        from paper2table_ray.sources.io import read_table
        from paper2table_ray.state.lineage import LineageSink

        sink = LineageSink(out, num_partitions=self.partitions)
        docs = sink.filter_pending(sink.add_partition_column(read_table(self._input(warm))))
        sink.write(sink.add_partition_column(extract_spans(docs)))

    def traced_pass(self, out: str, tracer) -> Dict[str, float]:
        from paper2table_ray.pipelines.extract import extract_spans
        from paper2table_ray.sources.io import read_table
        from paper2table_ray.state.lineage import LineageSink

        m: Dict[str, float] = {}
        docs = _layer(tracer, m, "sources.io.read", lambda: read_table(self._input(False)), False)
        m["sources.io.read.mb"] = docs.size_bytes() / 1e6
        sink = LineageSink(out, num_partitions=self.partitions)
        stamp = "state.lineage.stamp"
        docs = _layer(tracer, m, stamp, lambda: sink.filter_pending(sink.add_partition_column(docs)), False)
        spans = _layer(tracer, m, "stages.extract", lambda: extract_spans(docs))
        m["stages.extract.spans"] = spans.count()
        spans = _layer(tracer, m, stamp, lambda: sink.add_partition_column(spans), False)
        summary = _sink(tracer, m, "state.lineage.write", lambda: sink.write(spans))
        m["state.lineage.write.partitions"] = len(summary)
        m["state.lineage.write.skew"] = _summary_skew(summary)
        return m

    def kernels(self, tracer) -> Dict[str, float]:
        from paper2table_ray.stages.extract import ExtractConfig, SpanExtractor

        extractor = SpanExtractor(ExtractConfig())
        with tracer.span("stages.extract.kernel"):
            t0 = time.process_time()
            extractor(self.docs)
            cpu = time.process_time() - t0
        return {"stages.extract.kernel_cpu_s": cpu}

    def check(self, out: str) -> tuple:
        parts = _read_parts(out)
        misplaced, problems = _lineage_problems(out, parts, lambda d: d, self.partitions)
        got = pa.concat_tables(parts.values()) if parts else self.expected.schema.empty_table()
        failed = set(misplaced) | set(
            got.filter(pc.equal(got.column("kind"), "error")).column("doc_id").to_pylist()
        )
        cols = ["span_idx", "kind", "text", "media_ref"]
        failed |= _diff_by_doc(got, self.expected, cols)
        probe = self.PROBE[0]
        if probe in failed:
            rows = _rows_by_doc(got.filter(pc.equal(got.column("doc_id"), probe)), cols)
            if probe in misplaced or rows.get(probe) != self.probe_faulty:
                problems.append(f"{probe} differs from its plan and from its known-faulty output")
        return failed, problems


def _without_short_html_paras(spans: List[dict], expected: list) -> List[tuple]:
    """The probe's plan as the extractor is known to get it wrong: without
    the text spans of html paragraphs shorter than the boilerplate
    stripper's ``min_text_len``, renumbered."""
    from paper2table_ray.stages.extract import ExtractConfig

    short = {
        ("text", html_lib.unescape(p))
        for span in spans
        if span["kind"] == "html"
        for p in re.findall(r"<p>(.*?)</p>", span["text"])
        if len(html_lib.unescape(p)) < ExtractConfig().min_text_len
    }
    kept = [e for e in expected if (e[0], e[1]) not in short]
    return [(i, *e) for i, e in enumerate(kept)]


def _diff_by_doc(got: pa.Table, want: pa.Table, cols: List[str]) -> Set:
    """Ids of docs whose ordered rows differ between ``got`` and ``want``
    (rows compared on ``cols`` after sorting by doc and ``cols[0]``)."""

    g, w = _rows_by_doc(got, cols), _rows_by_doc(want, cols)
    return {d for d in g.keys() | w.keys() if g.get(d) != w.get(d)}


def _rows_by_doc(t: pa.Table, cols: List[str]) -> Dict:
    """doc id → the doc's rows as tuples of ``cols``, ordered by ``cols[0]``."""
    t = t.sort_by([("doc_id", "ascending"), (cols[0], "ascending")])
    out: Dict = {}
    for row in zip(t.column("doc_id").to_pylist(), *(t.column(c).to_pylist() for c in cols)):
        out.setdefault(row[0], []).append(row[1:])
    return out


# --- tablemerge ---------------------------------------------------------------


class Tablemerge(Workload):
    """Three runs of resultsets → ``run_tablemerge`` → merged resultset."""

    name = "tablemerge"
    default_docs = 160
    first_output_suffix = ".tables.json"
    warm_docs = 8

    def prepare(self) -> None:
        from paper2table_ray.sources.resultsets import RUN_READERS

        documents, _ = make_documents(self.seed, self.n_docs)
        self.dirs = self._write_runs(resultset_files(documents, self.seed), "runs", RUN_READERS)
        warm = resultset_files(documents.slice(0, self.warm_docs), self.seed)
        self.warm_dirs = self._write_runs(warm, "warm", RUN_READERS)
        self.expected = self._sequential_merge()

    def _write_runs(self, runs: Dict[str, Dict[str, dict]], sub: str, readers) -> List[str]:
        dirs = []
        for uuid, files in sorted(runs.items()):
            d = os.path.join(self.inputs, sub, uuid)
            os.makedirs(d)
            with open(os.path.join(d, "tables.metadata.json"), "w", encoding="utf-8") as f:
                json.dump({"uuid": uuid, "reader": readers[uuid]}, f)
            for doc_id, obj in files.items():
                with open(os.path.join(d, f"{doc_id}.tables.json"), "w", encoding="utf-8") as f:
                    json.dump(obj, f)
            dirs.append(d)
        return dirs

    def _config(self):
        from paper2table_ray.pipelines.tablemerge import settings_to_config
        from paper2table_ray.state.settings import MergeSettings

        readers = {}
        for d in self.dirs:
            with open(os.path.join(d, "tables.metadata.json"), encoding="utf-8") as f:
                meta = json.load(f)
            readers[meta["uuid"]] = meta["reader"]
        return settings_to_config(MergeSettings(), readers)

    def _sequential_merge(self) -> Dict[str, dict]:
        """doc id → the merged ``.tables.json`` object, from a per-doc
        ``merge_doc_records`` over the input files parsed with stdlib
        ``json`` (no Ray, no Arrow)."""
        from paper2table_ray.pipelines.merge import merge_doc_records
        from paper2table_ray.schema import records_to_tablesfiles, tablesfile_to_records
        from paper2table_ray.sources.tablesfile_json import parse_tablesfile, tablesfile_to_json_obj

        cfg = self._config()
        records: Dict[str, List[dict]] = {}
        for d in self.dirs:
            uuid = os.path.basename(d)
            for name in sorted(os.listdir(d)):
                if name.endswith(".tables.json"):
                    doc_id = name.removesuffix(".tables.json")
                    with open(os.path.join(d, name), encoding="utf-8") as f:
                        tf = parse_tablesfile(json.load(f))
                    records.setdefault(doc_id, []).extend(tablesfile_to_records(doc_id, uuid, tf))
        expected = {}
        for doc_id, recs in records.items():
            merged = records_to_tablesfiles(merge_doc_records(recs, cfg))
            tables, citation = [], None
            for uuid in sorted(merged):
                tables.extend(merged[uuid]["tables"])
                citation = citation or merged[uuid].get("citation")
            if any(f["rows"] for t in tables for f in t["fragments"]):
                expected[doc_id] = json.loads(
                    json.dumps(tablesfile_to_json_obj({"tables": tables, "citation": citation}))
                )
        return expected

    def _out_dir(self, out: str) -> str:
        from paper2table_ray.pipelines.tablemerge import merged_uuid_for

        return os.path.join(out, merged_uuid_for(self.dirs))

    def run_pass(self, out: str, warm: bool = False) -> None:
        from paper2table_ray.pipelines.tablemerge import run_tablemerge

        run_tablemerge(self.warm_dirs if warm else self.dirs, out)

    def traced_pass(self, out: str, tracer) -> Dict[str, float]:
        import ray

        from paper2table_ray.pipelines.merge import merge_pipeline
        from paper2table_ray.pipelines.tablemerge import merged_uuid_for
        from paper2table_ray.sources.tablesfile_json import read_resultsets, write_resultset
        from paper2table_ray.stages.shuffle import groupby_apply_table

        m: Dict[str, float] = {}
        read = "sources.tablesfile_json.read"
        cells = _layer(tracer, m, read, lambda: read_resultsets(self.dirs))
        m[read + ".files"] = sum(
            name.endswith(".tables.json") for d in self.dirs for name in os.listdir(d)
        )
        m[read + ".chunks"] = sum(t.column(0).num_chunks for t in ray.get(cells.to_arrow_refs()))
        # the exchange alone: the merge's shuffle with an identity function
        _layer(tracer, m, "stages.shuffle.exchange", lambda: groupby_apply_table(cells, "doc_id", lambda t: t))
        merged = _layer(tracer, m, "pipelines.merge", lambda: merge_pipeline(cells, self._config()))
        m["pipelines.merge.rows"] = merged.count()
        self._cells = cells
        sources = sorted(os.path.basename(d) for d in self.dirs)
        uuid = merged_uuid_for(self.dirs)
        write = "sources.tablesfile_json.write"
        summary = _sink(
            tracer, m, write,
            lambda: write_resultset(merged, out, uuid, reader="tablemerge", sources=sources),
        )
        m[write + ".files"] = int((summary["status"] == "written").sum())
        return m

    def kernels(self, tracer) -> Dict[str, float]:
        import ray

        from paper2table_ray.pipelines.merge import MERGED_UUID, merge_doc_sources
        from paper2table_ray.schema import CellsTableBuilder, table_to_doc_tablesfiles

        tbl = pa.concat_tables(ray.get(self._cells.to_arrow_refs())).combine_chunks()
        cfg = self._config()
        with tracer.span("pipelines.merge.kernel"):
            t0 = time.process_time()
            docs = table_to_doc_tablesfiles(tbl)
            t1 = time.process_time()
            merged = [(d, merge_doc_sources(d, s, cfg, owns_rows=True)) for d, s in docs]
            t2 = time.process_time()
            builder = CellsTableBuilder()
            for doc_id, tf in merged:
                if tf is not None:
                    builder.append_tablesfile(doc_id, MERGED_UUID, tf)
            builder.build()
            t3 = time.process_time()
        return {
            "pipelines.merge.decode_cpu_s": t1 - t0,
            "pipelines.merge.merge_cpu_s": t2 - t1,
            "pipelines.merge.encode_cpu_s": t3 - t2,
        }

    def check(self, out: str) -> tuple:
        target = self._out_dir(out)
        got = {
            name.removesuffix(".tables.json")
            for name in os.listdir(target)
            if name.endswith(".tables.json")
        }
        failed = got ^ set(self.expected)
        for doc_id in got & set(self.expected):
            with open(os.path.join(target, f"{doc_id}.tables.json"), encoding="utf-8") as f:
                if json.load(f) != self.expected[doc_id]:
                    failed.add(doc_id)
        return failed, []


# --- curate -------------------------------------------------------------------


class Curate(Workload):
    """documents → ``curate_to_dir`` → SimHash and MinHash pairs over the
    curated store, pairs written out."""

    name = "curate"
    default_docs = 1500
    first_output_suffix = ".parquet"
    langs = ["en", "es"]
    min_quality = 0.4
    partitions = 32  # curate_to_dir's default
    max_hamming = 6
    threshold = 0.5

    def prepare(self) -> None:
        documents, self.near = make_documents(self.seed, self.n_docs)
        self.documents = documents.select(["doc_id", "text"])
        _write_shards(self.documents, os.path.join(self.inputs, "docs"), 250)
        _write_shards(self.documents.slice(0, 80), os.path.join(self.inputs, "warm"), 40)
        self._oracles()

    def _oracles(self) -> None:
        """Expected curated rows from DuckDB over the generated corpus;
        expected SimHash pairs from a brute-force Hamming self-join; the
        exact-Jaccard pair set from DuckDB over the curated docs."""
        import duckdb

        from paper2table_ray.pipelines.queries import ORACLE_SQL
        from paper2table_ray.stages.dedup import add_simhash

        con = duckdb.connect()
        con.register("documents", self.documents)
        cur = con.execute(ORACLE_SQL["curate_docs"]).arrow()
        self.expected = cur
        ids = set(cur.column("doc_id").to_pylist())
        kept = self.documents.filter(pc.is_in(self.documents.column("doc_id"), pa.array(sorted(ids))))
        sims = add_simhash(kept)
        self.expected_simhash = _hamming_pairs(
            sims.column("doc_id").to_numpy(), sims.column("simhash").to_numpy(), self.max_hamming
        )
        con.unregister("documents")
        con.register("documents", kept)
        exact = con.execute(ORACLE_SQL["minhash_pairs"]).fetchall()
        self.exact_jaccard = {(a, b): j for a, b, j in exact}
        self.planted = {
            (min(a, b), max(a, b)) for a, b in self.near if a in ids and b in ids
        } & set(self.exact_jaccard)
        con.close()

    def _input(self, warm: bool) -> str:
        return os.path.join(self.inputs, "warm" if warm else "docs")

    def run_pass(self, out: str, warm: bool = False) -> None:
        import ray.data

        from paper2table_ray.pipelines.curate import curate_to_dir
        from paper2table_ray.stages.dedup import minhash_lsh_pairs, simhash_pairs

        store = os.path.join(out, "store")
        curate_to_dir(
            self._input(warm), store, langs=self.langs, min_quality=self.min_quality,
            num_partitions=self.partitions,
        )
        docs = ray.data.read_parquet(store, file_extensions=["parquet"])
        simhash_pairs(docs, max_hamming=self.max_hamming).write_parquet(os.path.join(out, "simhash"))
        docs = ray.data.read_parquet(store, file_extensions=["parquet"])
        minhash_lsh_pairs(docs, threshold=self.threshold).write_parquet(os.path.join(out, "minhash"))

    def traced_pass(self, out: str, tracer) -> Dict[str, float]:
        """``curate_to_dir``'s composition, one public call per layer."""
        import ray.data

        from paper2table_ray.pipelines.curate import curate_pipeline
        from paper2table_ray.stages.dedup import exact_dedup, minhash_lsh_pairs, simhash_pairs
        from paper2table_ray.stages.joins import hash_join
        from paper2table_ray.state.lineage import LineageSink

        def with_key(b: pa.Table) -> pa.Table:
            return b.append_column("doc_key", pc.cast(b.column("doc_id"), pa.string()))

        def without(*cols):
            return lambda b: b.drop_columns(list(cols))

        def read_docs():
            return ray.data.read_parquet(self._input(False), columns=["doc_id", "text"])

        def read_store():
            return ray.data.read_parquet(store, file_extensions=["parquet"])

        m: Dict[str, float] = {}
        store = os.path.join(out, "store")
        sink = LineageSink(store, num_partitions=self.partitions, stage="curate")
        stamp = "state.lineage.stamp"
        docs = _layer(
            tracer, m, stamp,
            lambda: sink.filter_pending(
                sink.add_partition_column(read_docs().map_batches(with_key, batch_format="pyarrow"), id_col="doc_key")
            ).map_batches(without("partition_id", "doc_key"), batch_format="pyarrow"),
            False,
        )
        kept = _layer(
            tracer, m, "stages.textqc",
            lambda: curate_pipeline(docs, langs=self.langs, min_quality=self.min_quality, dedup=False),
        )
        survivors = _layer(tracer, m, "stages.dedup.exact", lambda: exact_dedup(read_docs()))
        m["stages.dedup.exact.survivors"] = survivors.count()
        joined = _layer(
            tracer, m, "stages.joins.hash_join",
            lambda: hash_join(kept, survivors, "doc_id", "doc_id", ["content_hash"]).map_batches(
                without("content_hash"), batch_format="pyarrow"
            ),
        )
        stamped = _layer(
            tracer, m, stamp,
            lambda: sink.add_partition_column(
                joined.map_batches(with_key, batch_format="pyarrow"), id_col="doc_key"
            ).map_batches(without("doc_key"), batch_format="pyarrow"),
            False,
        )
        summary = _sink(tracer, m, "state.lineage.write", lambda: sink.write(stamped))
        m["state.lineage.write.partitions"] = len(summary)
        m["state.lineage.write.skew"] = _summary_skew(summary)
        sim = _layer(
            tracer, m, "stages.dedup.simhash",
            lambda: simhash_pairs(read_store(), max_hamming=self.max_hamming),
        )
        sim.write_parquet(os.path.join(out, "simhash"))
        m["stages.dedup.simhash.pairs"] = sim.count()
        mh = _layer(
            tracer, m, "stages.dedup.minhash",
            lambda: minhash_lsh_pairs(read_store(), threshold=self.threshold),
        )
        mh.write_parquet(os.path.join(out, "minhash"))
        m["stages.dedup.minhash.pairs"] = mh.count()
        self._store = store
        return m

    def kernels(self, tracer) -> Dict[str, float]:
        import ray.data

        from paper2table_ray.stages.dedup import minhash_lsh_pairs
        from paper2table_ray.stages.textqc import LanguageId, add_quality_score, add_text_features

        with tracer.span("stages.textqc.kernel"):
            t0 = time.process_time()
            add_quality_score(add_text_features(self.documents))
            t1 = time.process_time()
            LanguageId()(self.documents)
            t2 = time.process_time()
        with tracer.span("stages.dedup.minhash.candidates"):
            docs = ray.data.read_parquet(self._store, file_extensions=["parquet"])
            # threshold 0 on signature estimates keeps every candidate
            candidates = minhash_lsh_pairs(docs, threshold=0.0, exact_verify=False).count()
        verified = len(_pairs(os.path.join(os.path.dirname(self._store), "minhash"), "jaccard"))
        return {
            "stages.textqc.features_cpu_s": t1 - t0,
            "stages.textqc.langid_cpu_s": t2 - t1,
            "stages.dedup.minhash.verified_per_candidate": verified / candidates if candidates else 0.0,
        }

    def check(self, out: str) -> tuple:
        from paper2table_ray.pipelines.queries import round_sql

        store = os.path.join(out, "store")
        parts = _read_parts(store)
        misplaced, problems = _lineage_problems(store, parts, str, self.partitions)
        got = pa.concat_tables(parts.values()) if parts else self.expected.schema.empty_table()
        got = got.select(["doc_id", "lang_pred", "quality_score"]).set_column(
            2, "quality_score", pa.array(round_sql(got.column("quality_score"), 6))
        )
        failed = set(misplaced) | _diff_by_doc(got, self.expected, ["lang_pred", "quality_score"])
        sim_got = set(_pairs(os.path.join(out, "simhash"), "hamming"))
        for a, b, _ in sim_got ^ self.expected_simhash:
            failed |= {a, b}
        found = set()
        for a, b, j in _pairs(os.path.join(out, "minhash"), "jaccard"):
            found.add((a, b))
            if self.exact_jaccard.get((a, b)) != float(round_sql(j, 4)):
                failed |= {a, b}
        for a, b in self.planted - found:
            failed |= {a, b}
        return failed, problems


def _pairs(path: str, measure: str) -> List[tuple]:
    """``(doc_a, doc_b, measure)`` rows of a written pair set. Ray writes
    no file at all for an empty Dataset."""
    if not os.path.exists(path):
        return []
    t = pq.read_table(path)
    return list(zip(*(t.column(c).to_pylist() for c in ("doc_a", "doc_b", measure))))


def _hamming_pairs(ids: np.ndarray, sims: np.ndarray, max_hamming: int) -> Set:
    """Every ``(a, b, hamming)`` with ``a < b`` and Hamming distance at
    most ``max_hamming``, by brute force over all pairs."""
    order = np.argsort(ids)
    ids, sims = ids[order], sims[order].astype(np.uint64)
    out = set()
    for i in range(len(ids) - 1):
        x = np.bitwise_xor(sims[i + 1 :], sims[i])
        d = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
        for j in np.flatnonzero(d <= max_hamming):
            out.add((int(ids[i]), int(ids[i + 1 + j]), int(d[j])))
    return out


WORKLOADS = {w.name: w for w in (Extract, Tablemerge, Curate)}
