#!/usr/bin/env python3
"""Benchmark of the engine's three production paths.

    python3 perfbench/run.py --workload {extract,tablemerge,curate}
        --seed N --seconds S --trace {0,1} [--docs N]

One workload per fresh process. Inputs are made from ``--seed`` before
any timing. Ray starts with as many CPUs as ``nproc`` reports, from this
process alone. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

- ``--trace 0`` runs closed-loop passes of the workload until their
  summed wall time reaches ``--seconds`` and reports the end-to-end
  metrics (medians over passes, the driver's peak RSS of the first pass,
  set-up as the median of several Ray starts).
- ``--trace 1`` materializes each layer call before the next, records a
  span per call and reports the per-layer metrics. The named workload's
  path is repeated for ``--seconds``; the other two paths run once, so
  every layer is measured on every traced run. Spans go to
  ``.perfbench_out/trace-<workload>-seed<N>.json``.

Every output, Ray's session files and ``P2T_SCRATCH_DIR`` live in a temp
dir under ``.perfbench_tmp/`` of the checkout, removed at exit.
See ``perfbench/README.md`` for inputs, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # Ray starts per untraced run; setup_s takes their median
# Ray puts its sockets at <temp dir>/session_<date>_<pid>/sockets/..., and a
# Unix socket path is limited to 107 bytes
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")
SINK_SPANS = ("state.lineage.write", "sources.tablesfile_json.write")


def host_cpus() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return os.cpu_count() or 1


def ray_temp_dir(tmp: str, system_tmp: str) -> tuple:
    """→ (Ray's temp dir, a symlink to remove at exit or None). The dir is
    ``<tmp>/ray``. When that path is too long for Ray's sockets, Ray gets a
    short symlink to it in the system temp dir, so the files still live
    in the checkout."""
    path = os.path.join(tmp, "ray")
    os.makedirs(path)
    if len(path) + _SOCKET_SUFFIX <= 107:
        return path, None
    link = os.path.join(system_tmp, f"perfbench-{os.getpid()}")
    os.symlink(path, link)
    return link, link


def start_ray(cpus: int, ray_dir: str) -> None:
    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        _temp_dir=ray_dir,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray
    from measure import stop_descendants

    if ray.is_initialized():
        ray.shutdown()
    left = stop_descendants()
    if left:
        raise RuntimeError(f"processes {left} outlived SIGKILL")


def median_metrics(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def timed_pass(wl, out: str) -> dict:
    from measure import PassMonitor, dir_mb, first_mtime

    start = time.time()
    t0 = time.perf_counter()
    with PassMonitor() as mon:
        wl.run_pass(out)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "docs_per_s": wl.n_docs / wall,
        "first_output_s": first_mtime(out, wl.first_output_suffix) - start,
        "cpu_s": mon.cpu_s,
        "driver_peak_rss_mb": mon.peak_rss_mb,
        "output_mb": dir_mb(out),
    }


class Tally:
    """Docs attempted and failed, and problems not tied to one doc."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, wl, out: str) -> None:
        failed, problems = wl.check(out)
        self.attempted += wl.n_docs
        self.failed += len(failed)
        self.problems.extend(f"{wl.name}: {p}" for p in problems)
        unexpected = failed - wl.known_faults
        if unexpected:
            self.problems.append(
                f"{wl.name}: {len(unexpected)} docs failed, e.g. {sorted(unexpected)[:3]}"
            )

    def result(self, metrics: dict, units: dict) -> dict:
        for p in self.problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


E2E_UNITS = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "first_output_s": "s",
    "cpu_s": "CPU-s",
    "driver_peak_rss_mb": "MB",
    "output_mb": "MB",
}


def run_untraced(wl, args, tmp: str, ray_dir: str, cpus: int, import_s: float) -> dict:
    starts = []
    for _ in range(SETUPS):
        stop_ray()
        t0 = time.perf_counter()
        start_ray(cpus, ray_dir)
        starts.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.run_pass(os.path.join(tmp, "out", "warm"), warm=True)
    warm_s = time.perf_counter() - t0
    tally, passes, measured = Tally(), [], 0.0
    while measured < args.seconds:
        out = os.path.join(tmp, "out", f"pass-{len(passes)}")
        m = timed_pass(wl, out)
        tally.add(wl, out)
        shutil.rmtree(out)
        measured += m.pop("wall_s")
        passes.append(m)
    metrics = {
        "setup_s": import_s + statistics.median(starts) + warm_s,
        **median_metrics(passes),
        # the driver's RSS grows from pass to pass, so a median over a
        # speed-dependent number of passes would move with throughput
        "driver_peak_rss_mb": passes[0]["driver_peak_rss_mb"],
    }
    print(f"perfbench: import_s={import_s} ray_starts={starts} warm_s={warm_s} passes={passes}",
          file=sys.stderr)
    return tally.result(metrics, E2E_UNITS)


def layer_unit(name: str) -> str:
    if name.endswith("cpu_s"):
        return "CPU-s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith(("skew", "per_candidate")):
        return "ratio"
    return "count"


def _sink_task_s(tracer) -> None:
    """Summed remote task time inside each sink span, from Ray's task
    timeline: the sinks run their Dataset internally, so no ``ds.stats()``
    reaches the caller."""
    import ray

    time.sleep(2.0)  # task events reach the GCS about once a second
    events = [e for e in ray.timeline() if e.get("name") == "task:execute"]
    for span in tracer.spans:
        if span["name"] in SINK_SPANS:
            lo, hi = span["start"] * 1e6, span["end"] * 1e6
            span["attrs"]["task_s"] = sum(e["dur"] for e in events if lo <= e["ts"] <= hi) / 1e6


def run_traced(named, others, args, tmp: str, ray_dir: str, cpus: int) -> dict:
    from measure import Tracer

    tally = Tally()
    tracer = Tracer(f"{named.name}-seed{args.seed}-{os.getpid()}")
    start_ray(cpus, ray_dir)
    per_wl = {}
    for wl in [named] + others:
        wl.run_pass(os.path.join(tmp, "out", f"warm-{wl.name}"), warm=True)
        rows, measured = [], 0.0
        while True:
            out = os.path.join(tmp, "out", f"{wl.name}-{len(rows)}")
            pass_id = len(tracer.spans)
            with tracer.span(f"{wl.name}.pass"):
                m = wl.traced_pass(out, tracer)
            m["pass.wall_s"] = tracer.spans[pass_id]["wall_s"]
            measured += m["pass.wall_s"]
            rows.append((m, pass_id))
            tally.add(wl, out)
            if wl is not named or measured >= args.seconds:
                break
            shutil.rmtree(out)
        kernels = wl.kernels(tracer)
        shutil.rmtree(out)
        per_wl[wl.name] = (rows, kernels)
    _sink_task_s(tracer)
    layers: dict = {}
    for name in [named.name] + [w.name for w in others]:
        rows, kernels = per_wl[name]
        for m, pass_id in rows:
            for span in tracer.spans:
                if span["parent"] == pass_id and span["name"] in SINK_SPANS:
                    m[span["name"] + ".task_s"] = span["attrs"]["task_s"]
        merged = {**median_metrics([m for m, _ in rows]), **kernels}
        if name != named.name:
            merged.pop("pass.wall_s")
        for k, v in merged.items():
            layers.setdefault(k, v)
    trace_path = ROOT / ".perfbench_out" / f"trace-{named.name}-seed{args.seed}.json"
    tracer.dump(str(trace_path))
    print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
    return tally.result(dict(sorted(layers.items())), {k: layer_unit(k) for k in layers})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["extract", "tablemerge", "curate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--docs", type=int, default=0, help="input size override (tests)")
    args = p.parse_args(argv)

    # Ray workers do not inherit this process's sys.path: hand the
    # checkout to them through PYTHONPATH, which the raylet passes on
    sys.path.insert(0, str(ROOT))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    t0 = time.perf_counter()
    try:
        import duckdb  # noqa: F401
        import ray  # noqa: F401

        import paper2table_ray
        import paper2table_ray.pipelines.curate  # noqa: F401
        import paper2table_ray.pipelines.extract  # noqa: F401
        import paper2table_ray.pipelines.tablemerge  # noqa: F401
        import paper2table_ray.stages.dedup  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT}: {exc}", file=sys.stderr)
        return 2
    if Path(paper2table_ray.__file__).resolve().parent.parent != ROOT:
        print(f"perfbench: paper2table_ray found outside {ROOT}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    from measure import adopt_orphans
    from workloads import WORKLOADS

    adopt_orphans()

    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="r", dir=base)
    system_tmp, link = tempfile.gettempdir(), None
    os.environ["P2T_SCRATCH_DIR"] = os.environ["TMPDIR"] = os.path.join(tmp, "scratch")
    os.makedirs(os.environ["TMPDIR"])
    tempfile.tempdir = None  # re-read TMPDIR
    cpus = host_cpus()
    print(f"perfbench: {args.workload} seed={args.seed} nproc={cpus}", file=sys.stderr)
    # a plain SIGTERM would skip the clean-up below and leave Ray running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        ray_dir, link = ray_temp_dir(tmp, system_tmp)
        named = WORKLOADS[args.workload](args.seed, tmp, args.docs)
        others = [cls(args.seed, tmp, args.docs) for n, cls in WORKLOADS.items() if n != args.workload]
        for wl in [named] + (others if args.trace else []):
            wl.prepare()
        if args.trace:
            result = run_traced(named, others, args, tmp, ray_dir, cpus)
        else:
            result = run_untraced(named, args, tmp, ray_dir, cpus, import_s)
    finally:
        try:
            stop_ray()
        finally:
            if link:
                os.unlink(link)
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                base.rmdir()
            except OSError:
                pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
