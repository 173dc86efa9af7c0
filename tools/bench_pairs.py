"""Compare the benchmark at a git revision with this checkout, in alternating
pairs of runs.

    python tools/bench_pairs.py BASE [--pairs 10] [--workload W ...]
                                [--out bench_pairs.json]

BASE is exported with ``git archive`` into a temporary directory, which is
removed afterwards. For each workload of ``BENCHMARK.json`` (or each
``--workload``), pair i (from 1) runs both trees' own ``perfbench/run.py
--workload W --seed i --seconds S --trace 0``, with S the benchmark's
``run_seconds``, the base first in odd pairs and the checkout first in even
ones. Each run's last stdout line is its result; runs whose metric sets
differ are not compared, and the tool exits 2.

The output file holds, per workload and metric, each side's median and
quartiles, the number of pairs in which the checkout was better (by the
metric's ``better`` in ``BENCHMARK.json``), the relative change of the median
and its bound; and whether every run was correct, the command, the seeds, the
host and the base revision. The exit status is 1 if a run was incorrect or a
median is worse than its bound, else 0. It uses only the standard library
and git, and may be run from any directory.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    """Runs that cannot be compared."""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, check=True, cwd=ROOT).stdout


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12+, 3.11.4+
            tar.extractall(dest, filter="data")
        else:  # the archive is this repository's own
            tar.extractall(dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of ``tree``'s own benchmark: its correctness and its metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise Refused(f"{tree}: {workload} seed {seed} gave no result line "
                      f"(exit {done.returncode}): {done.stderr.strip()[-400:]}") from None
    return {
        "correct": bool(result["correct"]) and done.returncode == 0,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def metric_names(runs: list) -> frozenset:
    """The metric set the runs share; Refused if they do not share one."""
    names = {frozenset(r["metrics"]) for r in runs}
    if len(names) > 1:
        raise Refused(f"metric sets differ: {sorted(frozenset.union(*names) - frozenset.intersection(*names))}")
    return names.pop()


def compare(base: list, change: list, spec: dict) -> dict:
    """The summary of one workload's pairs of runs; ``spec`` maps a metric
    to its ``better`` and ``bound``."""
    metrics = {}
    for name in sorted(metric_names(base + change)):
        b = [r["metrics"][name] for r in base]
        c = [r["metrics"][name] for r in change]
        better, bound = map(spec.get(name, {}).get, ("better", "bound"))
        b_med, c_med = statistics.median(b), statistics.median(c)
        relative = (c_med - b_med) / b_med if b_med else (0.0 if c_med == b_med else None)
        sign = {"lower": 1, "higher": -1}.get(better, 0)
        if relative is None:
            worse = sign * (c_med - b_med) > 0
        else:
            worse = bound is not None and sign * relative > bound
        metrics[name] = {
            "base": {"median": b_med, "quartiles": quartiles(b)},
            "change": {"median": c_med, "quartiles": quartiles(c)},
            "better": better,
            "wins": None if not sign else sum(sign * (y - x) < 0 for x, y in zip(b, c)),
            "pairs": len(b),
            "relative_change": relative,
            "bound": bound,
            "within_bound": not worse,
        }
    return metrics


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out", default="bench_pairs.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    spec = {m["name"]: m for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}
    try:
        rev = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}").decode().strip()
    except subprocess.CalledProcessError:
        print(f"bench_pairs.py: unknown revision {args.base!r}", file=sys.stderr)
        return 2
    seconds = benchmark["run_seconds"]
    seeds = list(range(1, args.pairs + 1))
    summary = {}
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        export(rev, Path(tmp))
        trees = {"base": Path(tmp), "change": ROOT}
        try:
            for workload in workloads:
                runs = {"base": [], "change": []}
                for i, seed in enumerate(seeds):
                    for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                        run = run_once(trees[side], workload, seed, seconds)
                        runs[side].append(run)
                        metric_names(runs["base"] + runs["change"])
                        correct &= run["correct"]
                        print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                              f"{'correct' if run['correct'] else 'INCORRECT'}", file=sys.stderr)
                summary[workload] = {
                    "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
                    "metrics": compare(runs["base"], runs["change"], spec),
                }
        except Refused as exc:
            print(f"bench_pairs.py: {exc}", file=sys.stderr)
            return 2
    within = all(m["within_bound"] for w in summary.values() for m in w["metrics"].values())
    head = git("rev-parse", "HEAD").decode().strip()
    doc = {
        "base": rev,
        "change": head + (" with uncommitted changes" if git("status", "--porcelain", "--untracked-files=no") else ""),
        "command": ["python", "tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "run_command": ["perfbench/run.py", "--workload", "W", "--seed", "SEED", "--seconds", f"{seconds:g}",
                        "--trace", "0"],
        "seeds": seeds,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "all_correct": correct,
        "within_bounds": within,
        "workloads": summary,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if correct and within else 1


if __name__ == "__main__":
    sys.exit(main())
