"""Offline benchmark for promptrefine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` the end-to-end metrics
are measured with no instrumentation. With ``--trace 1`` half the time runs
untraced and the same units then run traced; the per-layer metrics and the
tracing overhead come from that pair. Every unit's output is checked against
its script; the last line of standard output is one JSON object, and the exit
code is 1 if any check failed. ``--workload all`` runs the three workloads
one after another (for people, not for the JSON contract).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import paths

paths.use_checkout_src()

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = paths.ROOT / "perfbench" / "out"
# Set-ups are timed before and after the measured units, since machine speed
# drifts over seconds; the first one is a warm-up that compiles bytecode.
SETUP_RUNS_BEFORE, SETUP_RUNS_AFTER = 3, 4
SPAN_UNITS_WRITTEN = 20  # units whose spans are written to the span file

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "cpu_ms_per_unit": "ms",
    "requests_per_unit": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class UnitResult:
    name: str
    wall_s: float
    cpu_s: float
    requests: Counter
    image_dirs: int
    errors: List[str] = field(default_factory=list)


def tail(values: List[float]):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile). Below eleven samples no percentile has ten
    beyond it; the maximum is reported and labelled p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def best_of(results: List[UnitResult]) -> List[UnitResult]:
    """Each distinct unit's best (lowest) wall and CPU time over its repeats.

    On a shared host the same unit runs up to ~40% slower while other tenants
    load the machine, and the share of a run that this covers changes from run
    to run. The best of many repeats is what the program itself costs (the
    convention of ``timeit``); the tail metric keeps the slow repeats.
    """
    by_name: Dict[str, List[UnitResult]] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
    return [UnitResult(name, min(r.wall_s for r in rs), min(r.cpu_s for r in rs), rs[0].requests, 0)
            for name, rs in by_name.items()]


class ImageDirs:
    """Counts the promptrefine-img-* directories each unit creates, then
    deletes them so a leak cannot fill the disk. A name seen before (a
    directory the program reuses across runs) is not counted again."""

    def __init__(self, root: Path):
        self.root = root
        self.seen = set()

    def collect(self) -> int:
        new = [d for d in self.root.glob("promptrefine-img-*") if d.name not in self.seen]
        for d in new:
            self.seen.add(d.name)
            shutil.rmtree(d, ignore_errors=True)
        return len(new)


def run_unit(wl, unit, image_dirs: ImageDirs) -> UnitResult:
    wl.before_unit()
    before = wl.request_counts()
    start_cpu, start = time.process_time(), time.perf_counter()
    output = wl.run(unit)
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    got = wl.request_counts() - before
    errors = workloads.check_requests(wl.expected_requests(unit), got) + wl.check(unit, output)
    wl.after_unit(output)
    name = unit.name if hasattr(unit, "name") else "batch"
    return UnitResult(name, wall, cpu, got, image_dirs.collect(), errors)


def measure(wl, image_dirs: ImageDirs, budget_s: Optional[float] = None, cycles: Optional[int] = None,
            tracer=None, totals=None, span_file=None) -> List[UnitResult]:
    """Run whole cycles of the workload's units, one after another.

    With a modeled (sleeping) latency the cycle count is fixed from it, so
    every run covers the same units; with zero latency cycles run until the
    budget is spent. ``cycles`` overrides both.
    """
    cycle = wl.cycle()
    modeled = sum(wl.modeled_s(u) for u in cycle)
    if cycles is None and modeled > 0:
        cycles = max(1, int(budget_s // modeled))
    results: List[UnitResult] = []
    start = time.perf_counter()
    done = 0
    while True:
        for unit in cycle:
            if tracer is not None:
                tracer.run_id = len(results)
            results.append(run_unit(wl, unit, image_dirs))
            if tracer is not None:
                spans = tracer.take()
                totals.add_unit(spans)
                if span_file is not None and len(results) <= SPAN_UNITS_WRITTEN:
                    for s in spans:
                        span_file.write(json.dumps(s.doc()) + "\n")
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - start >= budget_s:
            break
    return results


def probe_setup(config_path: Path, runs: int) -> List[Dict[str, float]]:
    """Time ``runs`` set-ups, each in a fresh interpreter (setup_probe.py)."""
    cmd = [sys.executable, str(paths.ROOT / "perfbench" / "setup_probe.py"), str(config_path)]
    out = []
    for _ in range(runs):
        proc = subprocess.run(cmd, cwd=paths.ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def median_setup(runs: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def end_to_end(wl, results: List[UnitResult], setup: Dict[str, float]) -> Dict[str, float]:
    walls = [r.wall_s for r in results]
    best = best_of(results)
    n = len(results)
    return {
        "setup_s": setup["total_s"],
        "latency_p50_s": statistics.median(r.wall_s for r in best),
        "latency_tail_s": tail(walls)[0],
        "throughput_per_s": wl.items_per_unit * len(best) / sum(r.wall_s for r in best),
        "cpu_ms_per_unit": 1000.0 * statistics.fmean(r.cpu_s for r in best),
        "requests_per_unit": sum(sum(r.requests.values()) for r in results) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_lines(name, results: List[UnitResult], metrics: Dict[str, float]) -> List[str]:
    n = len(results)
    walls = [r.wall_s for r in results]
    _, pct = tail(walls)
    beyond = "the maximum, fewer than 11 units" if pct == 100.0 else "10 samples beyond"
    failed = sum(1 for r in results if r.errors)
    kinds = len(best_of(results))
    best = f"best of {n // kinds} repeats of each of {kinds} units"
    notes = {
        "setup_s": f"median of {SETUP_RUNS_BEFORE + SETUP_RUNS_AFTER} fresh set-ups",
        "latency_p50_s": f"{best}; median of all {n}: {statistics.median(walls):.4f}",
        "latency_tail_s": f"p{pct:.1f}, n={n}, {beyond}",
        "throughput_per_s": ("bench items" if name == "bench-batch" else "run_single runs") + f" per second, {best}",
        "cpu_ms_per_unit": best,
        "requests_per_unit": "transport requests incl. retries",
    }
    lines = [f"{k:<18} {v:>12.4f} {END_TO_END_UNITS[k]:<6} {notes.get(k, '')}" for k, v in metrics.items()]
    lines.append(f"{'failed_share':<18} {failed / n:>12.4f} {'':<6} {failed}/{n} units differ from the script")
    return lines


def run_workload(name: str, seed: int, seconds: float, traced: bool, latency=None) -> dict:
    """Run one workload; returns the result object the last line prints."""
    kind = workloads.WORKLOADS[name]
    latency = dict(kind.latency if latency is None else latency)
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    image_dirs = ImageDirs(tmp)
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(tmp)  # image dirs of this run only; counted, then removed
    saved_env = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(tmp)
    wl = kind(seed, workdir, latency)
    try:
        wl.start()
        setups = probe_setup(wl.config_path, SETUP_RUNS_BEFORE + 1)[1:]
        floor_ms = wl.floor_ms()
        # The benchmark's own objects (scripts, expectations) must not slow the
        # program's garbage collections.
        gc.freeze()
        if sum(wl.modeled_s(u) for u in wl.cycle()) == 0:
            measure(wl, image_dirs, cycles=1)  # warm-up: first-call costs are not what users pay per run
        if not traced:
            results = measure(wl, image_dirs, budget_s=seconds)
            setup = median_setup(setups + probe_setup(wl.config_path, SETUP_RUNS_AFTER))
            metrics = end_to_end(wl, results, setup)
            lines = report_lines(name, results, metrics)
        else:
            plain = measure(wl, image_dirs, budget_s=seconds / 2)
            cycles = len(plain) // len(wl.cycle())
            tracer = tracing.Tracer()
            totals = tracing.LayerTotals()
            instrumentation = tracing.Instrumentation(tracer).install()
            span_path = OUT / f"spans-{name}-{seed}.jsonl"
            try:
                with span_path.open("w", encoding="utf-8") as span_file:
                    traced_results = measure(wl, image_dirs, cycles=cycles, tracer=tracer, totals=totals,
                                             span_file=span_file)
            finally:
                instrumentation.uninstall()
            results = plain + traced_results
            setup = median_setup(setups + probe_setup(wl.config_path, SETUP_RUNS_AFTER))
            metrics = totals.metrics(tracer.digest_calls, tracer.digest_cpu_s)
            metrics["backends.http.floor_ms"] = floor_ms
            metrics["backends.image_dirs_created"] = sum(r.image_dirs for r in traced_results) / len(traced_results)
            metrics["config.load_config.time_ms"] = setup["load_config_s"] * 1000.0
            metrics["templates.default_template_set.time_ms"] = setup["templates_s"] * 1000.0

            def per_unit(rs, attr):
                return sum(getattr(r, attr) for r in rs) / len(rs)

            metrics["trace.overhead_cpu_share"] = per_unit(traced_results, "cpu_s") / per_unit(plain, "cpu_s") - 1
            metrics["trace.overhead_wall_share"] = per_unit(traced_results, "wall_s") / per_unit(plain, "wall_s") - 1
            lines = [f"{k:<52} {v:>14.6f}" for k, v in metrics.items()]
            lines.append(f"spans of the first {SPAN_UNITS_WRITTEN} traced units: {span_path.relative_to(paths.ROOT)}")
    finally:
        gc.unfreeze()
        wl.close()
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if r.errors]
    print(f"workload {name} seed {seed} trace {int(traced)}: {len(results)} units, "
          f"{sum(r.wall_s for r in results):.2f} s in units")
    for line in lines:
        print("  " + line)
    for r in failed[:5]:
        print(f"  CHECK FAILED {r.name}: " + "; ".join(r.errors)[:400])
    units = tracing.PER_LAYER if traced else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set drifted: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"  # the stub is on loopback
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    result = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
