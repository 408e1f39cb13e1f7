#!/usr/bin/env python
"""Benchmark harness (driver contract).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and print ONE JSON line:

    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N, ...}

The headline (and ``--stats``) times the composition production runs,
``extract_spans(synth_docs_dataset(SF_DIR, repeat=REPEAT))``, which Ray
Data fuses into one synth→extract task stage.

--scaling: run the headline pipeline twice in FRESH processes at 8 and 32
CPUs on the same input (the sandbox substitute for the N vs 4N node
criterion) and report both throughputs + scaling efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# corpus replication factor — the scaling audit uses >1 so the flagship is
# CPU-bound (at repeat=1 it finishes in ~4s and fixed overheads dominate,
# which measures scheduler latency, not scaling)
REPEAT = int(os.environ.get("RAY_GRAFT_REPEAT", "1"))
FLAGSHIP_ONLY = os.environ.get("GRAFT_FLAGSHIP_ONLY") == "1"
# measurement repeats per timed section (headline + each query). The host
# swings 2-10x between noise windows; single-shot numbers are unusable for
# round-over-round comparison, so report BOTH the min (noise floor — the
# comparable number) and the mean across repeats.
BENCH_RUNS = max(1, int(os.environ.get("GRAFT_BENCH_RUNS", "3")))

BENCH_QUERIES = [
    "lineitem_agg",
    "orders_by_nation",
    "filter_project",
    "events_hourly",
    "doc_features",
    "exact_dedup",
    "minhash_pairs",
    "simhash_pairs",
    "knn_cosine",
    "revenue_by_brand",
    "user_sessions",
    "merge_cells",
    "curate_docs",  # composed curation funnel (quality → lang → dedup)
]


def _consume(result) -> int:
    """Force execution; return row count."""
    import pandas as pd

    if isinstance(result, pd.DataFrame):
        return len(result)
    return int(result.count())  # ray.data.Dataset


def run_bench() -> dict:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from paper2table_ray.pipelines.extract import (
        extract_spans,
        synth_docs_dataset,
    )
    from paper2table_ray.pipelines.queries import QUERIES

    # warm-up (untimed): page cache + Ray worker processes (the extractor
    # is cached per worker — see pipelines/extract.py)
    n_docs = synth_docs_dataset(SF_DIR).count() * REPEAT
    extract_spans(synth_docs_dataset(SF_DIR)).count()
    import ray.data as rd

    if not FLAGSHIP_ONLY:
        for t in ("lineitem", "orders", "customer", "nation", "events", "documents", "embeddings"):
            rd.read_parquet(f"{SF_DIR}/{t}.parquet").count()

    # headline: flagship extraction (synth → parse → spans, the
    # composition extract_pipeline runs; Ray fuses the two maps into one
    # task), consumed fully, BENCH_RUNS times — min is the comparable number on this
    # noisy host, mean is reported alongside
    headline_runs = []
    n_spans = 0
    for _ in range(BENCH_RUNS):
        t0 = time.perf_counter()
        n_spans = extract_spans(synth_docs_dataset(SF_DIR, repeat=REPEAT)).count()
        headline_runs.append(time.perf_counter() - t0)
    headline = min(headline_runs)

    timings, timings_mean = {}, {}
    if not FLAGSHIP_ONLY:
        for name in BENCH_QUERIES:
            runs = []
            for _ in range(BENCH_RUNS):
                t0 = time.perf_counter()
                _consume(QUERIES[name](SF_DIR))
                runs.append(time.perf_counter() - t0)
            timings[name] = round(min(runs), 3)
            timings_mean[name] = round(sum(runs) / len(runs), 3)

    result = {
        "metric": "flagship extraction wall time (synth -> span parse -> spans) + operator suite",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "queries_mean": timings_mean,
        "bench_runs": BENCH_RUNS,
        "value_mean": round(sum(headline_runs) / len(headline_runs), 3),
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs": n_docs,
        "spans": n_spans,
        "docs_per_sec": round(n_docs / headline, 2),
    }
    ray.shutdown()
    return result


def run_shuffle_job() -> dict:
    """One leg of the SHUFFLE-BEARING scaling audit: synth resultsets
    (REPEAT-replicated doc ids) → LineageSink.write — the one placement
    shuffle (groupby partition_id) — → resumable_merge over the bucketed
    store (one task per partition file). Partition count is FIXED (64)
    across legs so only parallelism varies, never job shape."""
    import shutil

    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data as rd

    from paper2table_ray.pipelines.merge import MergeConfig
    from paper2table_ray.sources.resultsets import synth_resultsets_batch
    from paper2table_ray.state.lineage import LineageSink, resumable_merge
    from paper2table_ray.state.scratch import scratch_dir

    repeat = max(1, REPEAT)

    def cells_ds():
        docs = rd.read_parquet(
            f"{SF_DIR}/documents.parquet", columns=["doc_id"]
        ).repartition(4 * NUM_CPUS)

        def synth(batch):
            tables = []
            for rep in range(repeat):
                t = synth_resultsets_batch(batch, seed=42 + rep)
                if rep:
                    idx = t.schema.get_field_index("doc_id")
                    t = t.set_column(
                        idx,
                        "doc_id",
                        pc.binary_join_element_wise(
                            t.column("doc_id"), pa.scalar(f"r{rep}"), "~"
                        ),
                    )
                tables.append(t)
            return pa.concat_tables(tables)

        return docs.map_batches(synth, batch_format="pyarrow", batch_size=64)

    n_src = rd.read_parquet(f"{SF_DIR}/documents.parquet").count()
    root = scratch_dir("p2t_scalejob_")
    try:
        # warm-up (untimed): worker spawn + imports on a small slice
        warm = scratch_dir("p2t_scalejob_warm_", root)
        wsink = LineageSink(os.path.join(warm, "store"), num_partitions=8,
                            stage="cells")
        wcells = rd.read_parquet(
            f"{SF_DIR}/documents.parquet", columns=["doc_id"]
        ).limit(64).map_batches(
            synth_resultsets_batch, batch_format="pyarrow"
        )
        wsink.write(wsink.add_partition_column(wcells))
        resumable_merge(
            os.path.join(warm, "store"), os.path.join(warm, "merged"),
            MergeConfig(column_agreement=True),
        )

        t0 = time.perf_counter()
        store = os.path.join(root, "store")
        sink = LineageSink(store, num_partitions=64, stage="cells")
        sink.write(sink.add_partition_column(cells_ds()))
        summary = resumable_merge(
            store, os.path.join(root, "merged"),
            MergeConfig(column_agreement=True),
        )
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(root, ignore_errors=True)

    n_docs = n_src * repeat
    result = {
        "metric": "shuffle-bearing pipeline wall time (synth cells -> "
                  "placement shuffle write -> bucketed resumable merge)",
        "value": round(wall, 3),
        "unit": "sec",
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs": n_docs,
        "partitions": int(len(summary)),
        "docs_per_sec": round(n_docs / wall, 2),
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """N vs 4N audit: the flagship over a replicated corpus (large enough
    to be CPU-bound — repeat=1 finishes in ~4s where fixed startup costs,
    not throughput, set the wall time) in FRESH processes.

    ``--scaling-shuffle`` runs the same pair protocol over the
    shuffle-bearing composed pipeline (see ``run_shuffle_job``)."""
    shuffle_mode = "--scaling-shuffle" in sys.argv

    def run(ncpu: int) -> dict:
        extra = (
            ["--shuffle-job"] if shuffle_mode else []
        )
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            # shuffle mode defaults to 24 (120k docs): at repeat=8 the
            # 16-cpu leg finishes in ~8s and fixed ramp dominates the
            # ratio (measured 0.61 vs 0.73 at steady state — BASELINE.md)
            RAY_GRAFT_REPEAT=os.environ.get(
                "RAY_GRAFT_REPEAT", "24" if shuffle_mode else "128"
            ),
            GRAFT_FLAGSHIP_ONLY="1",
            # adjacent-pairing is the scaling audit's noise strategy;
            # single-shot legs keep the pairs adjacent in time
            GRAFT_BENCH_RUNS="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *extra],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # N and 4N. Default window 4→16: this sandbox VM's memory subsystem
    # saturates near ~16-24 active cores (pure-CPU control scales 8→32 at
    # 0.83, but first-touch page zeroing runs ~15 MB/s and even plain
    # multiprocessing of the identical extraction work caps at ~0.73-0.78
    # over 8→32 — the binding constraint is the box, not the pipeline; see
    # BASELINE.md). Override with GRAFT_SCALE_LO/HI.
    lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))
    reps = int(os.environ.get("GRAFT_SCALE_RUNS", "2"))
    # The shared sandbox host has noise windows that can halve throughput
    # for minutes at a time. Run the two legs as ADJACENT pairs so both
    # sample the same window, and report the best pair's efficiency — a
    # noisy window then cancels in the ratio instead of poisoning one leg.
    pairs = [(run(lo), run(hi)) for _ in range(reps)]
    ratios = sorted(
        p[1]["docs_per_sec"] / max(p[0]["docs_per_sec"], 1e-9) / (hi / lo)
        for p in pairs
    )
    # headline = MEDIAN pair efficiency (max over pairs is upward-biased:
    # one pair landing in a lucky noise window would overstate scaling);
    # the best pair is reported alongside for context.
    median_eff = ratios[len(ratios) // 2] if len(ratios) % 2 else (
        (ratios[len(ratios) // 2 - 1] + ratios[len(ratios) // 2]) / 2
    )
    best_eff = ratios[-1]
    r_lo, r_hi = max(
        pairs,
        key=lambda p: p[1]["docs_per_sec"] / max(p[0]["docs_per_sec"], 1e-9),
    )
    tp_lo = r_lo["docs_per_sec"]
    tp_hi = r_hi["docs_per_sec"]
    return {
        "metric": (
            f"scaling efficiency (docs/sec @{hi} cpus) / "
            f"({hi // lo} x docs/sec @{lo} cpus), median of {reps} adjacent pairs"
        ),
        f"sec_{lo}": r_lo["value"],
        f"sec_{hi}": r_hi["value"],
        f"docs_per_sec_{lo}": tp_lo,
        f"docs_per_sec_{hi}": tp_hi,
        "docs": r_hi["docs"],
        "scaling_efficiency": round(median_eff, 3),
        "scaling_efficiency_best_pair": round(best_eff, 3),
        "scaling_pair_ratios": [round(r, 3) for r in ratios],
        "sf": SF_DIR,
    }


def run_stats() -> None:
    """Print the flagship pipeline's per-stage ``ds.stats()`` — the
    feedback loop for keeping wall time dominated by useful compute."""
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from paper2table_ray.pipelines.extract import extract_spans, synth_docs_dataset

    ds = extract_spans(synth_docs_dataset(SF_DIR, repeat=REPEAT)).materialize()
    print(ds.stats())
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv or "--scaling-shuffle" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--shuffle-job" in sys.argv:
        print(json.dumps(run_shuffle_job()))
    elif "--stats" in sys.argv:
        run_stats()
    else:
        print(json.dumps(run_bench()))
