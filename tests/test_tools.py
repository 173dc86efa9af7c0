"""tools/code_lines.py, the count behind every claim that src/ shrinks: a
line counts if it holds a token other than a comment and is not part of a
docstring."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)
count = code_lines.code_lines


@pytest.mark.parametrize(
    "source",
    [
        "",
        "\n\n   \n",
        "# a comment\n    # an indented one\n",
        '"""A module docstring\n\nover three lines."""\n',
    ],
)
def test_blank_comment_and_docstring_lines_count_zero(source):
    assert count(source) == 0


def test_function_and_class_docstrings_count_zero():
    source = (
        "class A:\n"
        '    """Class doc."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Method doc,\n"
        "        two lines.'''\n"
        "        # why\n"
        "        return 1  # trailing comment\n"
    )
    assert count(source) == 3  # class, def and return


def test_a_split_statement_counts_each_line_that_holds_a_token():
    source = "x = (\n    1,\n\n    # between\n    2,\n)\n"
    assert count(source) == 4  # "x = (", "1,", "2," and ")"


def test_a_hash_inside_a_string_is_code():
    assert count('s = "# not a comment"\n') == 1
    assert count("s = '''\n# still the string\n'''\n") == 3


def test_a_string_that_is_not_a_docstring_counts():
    assert count('x = 1\n"""Not first, so not a docstring."""\n') == 2


@pytest.fixture
def checkout(tmp_path):
    """A git repository holding the tool and one committed source file."""
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "a"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=tmp_path, check=True)
    return tmp_path


def run_tool(checkout, *args):
    return subprocess.run(
        [sys.executable, str(checkout / "tools" / "code_lines.py"), *args], capture_output=True, text=True
    )


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_module_docstring(checkout, flag):
    done = run_tool(checkout, flag)
    assert (done.returncode, done.stdout.strip()) == (0, code_lines.__doc__.strip())


def test_an_unknown_revision_is_named_on_one_line(checkout):
    done = run_tool(checkout, "no-such-rev")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == ["code_lines.py: unknown revision 'no-such-rev'"]


def test_a_tracked_file_deleted_from_the_working_tree_counts_zero(checkout):
    (checkout / "src" / "a.py").unlink()
    now, since = run_tool(checkout), run_tool(checkout, "HEAD")
    assert (now.returncode, now.stdout.split()) == (0, ["0", "src/a.py", "0", "total"])
    assert (since.returncode, since.stdout.splitlines()) == (
        0, ["     2 ->      0  src/a.py", "     2 ->      0  total (-2)"]
    )


@pytest.mark.parametrize("args", [[], ["-h"]], ids=["count", "help"])
def test_a_closed_stdout_exits_1_without_a_traceback(checkout, args):
    read, write = os.pipe()
    os.close(read)  # as in `python tools/code_lines.py | true`
    try:
        done = subprocess.run(
            [sys.executable, str(checkout / "tools" / "code_lines.py"), *args],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


# -- tools/bench_pairs.py -----------------------------------------------------

PAIRS_TOOL = TOOL.parent / "bench_pairs.py"
_PAIRS_SPEC = importlib.util.spec_from_file_location("bench_pairs", PAIRS_TOOL)
bench_pairs = importlib.util.module_from_spec(_PAIRS_SPEC)
_PAIRS_SPEC.loader.exec_module(bench_pairs)

# Stands in for perfbench/run.py: logs its side, workload, seed and seconds,
# prints a report line, then one result line whose metric values are those of
# its own tree's canned.json plus the seed.
CANNED_RUN = '''\
import json, os, sys
from pathlib import Path

args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
canned = json.loads((Path(__file__).resolve().parent / "canned.json").read_text())
with open(os.environ["CANNED_LOG"], "a") as log:
    log.write(f"{canned['side']} {args[args.index('--workload') + 1]} {seed} {args[args.index('--seconds') + 1]}\\n")
print("workload report")
metrics = {name: {"value": value + seed, "unit": "s"} for name, value in canned["metrics"].items()}
print(json.dumps({"correct": canned["correct"], "attempted": 1, "failed": 0, "metrics": metrics}))
sys.exit(0 if canned["correct"] else 1)
'''
PAIRS_BENCHMARK = {
    "run_seconds": 30,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [{"name": "latency_s", "better": "lower", "bound": 0.25},
                   {"name": "throughput", "better": "higher", "bound": 0.25}],
}


def canned(side, correct=True, **metrics):
    return json.dumps({"side": side, "correct": correct, "metrics": metrics or {"latency_s": 10, "throughput": 5}})


@pytest.fixture
def pairs_checkout(tmp_path, monkeypatch):
    """A git repository holding the tool, a BENCHMARK.json and a canned
    perfbench/run.py, committed as the base; each run logs its side."""
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    shutil.copy(PAIRS_TOOL, repo / "tools")
    (repo / "perfbench").mkdir()
    (repo / "perfbench" / "run.py").write_text(CANNED_RUN, encoding="utf-8")
    (repo / "perfbench" / "canned.json").write_text(canned("base"), encoding="utf-8")
    (repo / "BENCHMARK.json").write_text(json.dumps(PAIRS_BENCHMARK), encoding="utf-8")
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "base"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=repo, check=True)
    monkeypatch.setenv("CANNED_LOG", str(tmp_path / "log"))
    return repo


def run_pairs(repo, change, *args):
    """Run the tool on ``repo`` with ``change`` as the checkout's canned.json."""
    (repo / "perfbench" / "canned.json").write_text(change, encoding="utf-8")
    done = subprocess.run([sys.executable, str(repo / "tools" / "bench_pairs.py"), "HEAD", "--pairs", "3",
                           "--out", str(repo / "out.json"), *args],
                          capture_output=True, text=True, timeout=120)
    out = repo / "out.json"
    return done, json.loads(out.read_text(encoding="utf-8")) if out.exists() else None


def test_pairs_alternate_on_the_same_seeds_and_each_tree_runs_its_own_benchmark(pairs_checkout):
    done, doc = run_pairs(pairs_checkout, canned("change", latency_s=9, throughput=6))
    assert done.returncode == 0, done.stderr
    log = (pairs_checkout.parent / "log").read_text().split("\n")[:-1]
    assert log == [f"{side} {w} {seed} 30" for w in ("w1", "w2") for seed, order in
                   ((1, ("base", "change")), (2, ("change", "base")), (3, ("base", "change"))) for side in order]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=pairs_checkout, capture_output=True, text=True).stdout
    assert doc["base"] == head.strip() and doc["change"] == head.strip() + " with uncommitted changes"
    assert (doc["seeds"], doc["all_correct"], doc["within_bounds"]) == ([1, 2, 3], True, True)
    assert doc["command"][1:] == ["tools/bench_pairs.py", "HEAD", "--pairs", "3",
                                  "--out", str(pairs_checkout / "out.json")]
    assert {"cpus", "python"} <= set(doc["host"])
    assert doc["workloads"]["w2"]["correct"] == {"base": [True] * 3, "change": [True] * 3}
    latency = doc["workloads"]["w1"]["metrics"]["latency_s"]
    assert latency == {
        "base": {"median": 12, "quartiles": [11.5, 12, 12.5]},
        "change": {"median": 11, "quartiles": [10.5, 11, 11.5]},
        "better": "lower", "wins": 3, "pairs": 3,
        "relative_change": pytest.approx(-1 / 12), "bound": 0.25, "within_bound": True,
    }
    assert doc["workloads"]["w1"]["metrics"]["throughput"]["wins"] == 3  # higher is better


@pytest.mark.parametrize(
    "latency, throughput, code",
    [(13, 5, 0),  # median 15 against 12: +25 %, at the bound
     (14, 5, 1),  # 16 against 12: +33 %
     (10, 3, 1)],  # 5 against 7 per second: -29 %
    ids=["at-the-bound", "slower", "less-throughput"],
)
def test_a_median_worse_than_its_bound_exits_1(pairs_checkout, latency, throughput, code):
    done, doc = run_pairs(pairs_checkout, canned("change", latency_s=latency, throughput=throughput), "--workload", "w1")
    assert (done.returncode, doc["within_bounds"], doc["all_correct"]) == (code, code == 0, True)


def test_an_incorrect_run_exits_1(pairs_checkout):
    done, doc = run_pairs(pairs_checkout, canned("change", correct=False), "--workload", "w1")
    assert (done.returncode, doc["all_correct"], doc["within_bounds"]) == (1, False, True)
    assert doc["workloads"]["w1"]["correct"] == {"base": [True] * 3, "change": [False] * 3}


def test_runs_whose_metric_sets_differ_are_not_compared(pairs_checkout):
    done, doc = run_pairs(pairs_checkout, canned("change", latency_s=10, throughput=5, rss=1))
    assert (done.returncode, doc) == (2, None)
    assert done.stderr.splitlines()[-1] == "bench_pairs.py: metric sets differ: ['rss']"
    # the first pair's change run is refused at once
    assert (pairs_checkout.parent / "log").read_text().split() == ["base", "w1", "1", "30", "change", "w1", "1", "30"]


def test_an_unknown_base_is_named_on_one_line(pairs_checkout):
    done = subprocess.run([sys.executable, str(pairs_checkout / "tools" / "bench_pairs.py"), "no-such-rev"],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (2, "bench_pairs.py: unknown revision 'no-such-rev'\n")


def test_the_export_holds_the_committed_tree_only(pairs_checkout, tmp_path):
    (pairs_checkout / "untracked.txt").write_text("not committed", encoding="utf-8")
    (pairs_checkout / "perfbench" / "canned.json").write_text("edited", encoding="utf-8")
    dest = tmp_path / "export"
    dest.mkdir()
    monkey = pytest.MonkeyPatch()
    monkey.setattr(bench_pairs, "ROOT", pairs_checkout)
    try:
        bench_pairs.export("HEAD", dest)
    finally:
        monkey.undo()
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == ["BENCHMARK.json", "perfbench/canned.json", "perfbench/run.py", "tools/bench_pairs.py"]
    assert json.loads((dest / "perfbench" / "canned.json").read_text())["side"] == "base"


def test_a_zero_base_median_is_worse_only_if_the_change_moved_the_wrong_way():
    spec = {"failed": {"better": "lower", "bound": 0.05}}
    runs = lambda *values: [{"metrics": {"failed": v}} for v in values]  # noqa: E731
    same = bench_pairs.compare(runs(0, 0), runs(0, 0), spec)["failed"]
    assert (same["relative_change"], same["within_bound"], same["wins"]) == (0.0, True, 0)
    worse = bench_pairs.compare(runs(0, 0), runs(1, 1), spec)["failed"]
    assert (worse["relative_change"], worse["within_bound"]) == (None, False)
    unjudged = bench_pairs.compare(runs(1, 2), runs(9, 9), {})["failed"]
    assert (unjudged["better"], unjudged["wins"], unjudged["bound"], unjudged["within_bound"]) == (None, None, None, True)


# -- the committed BENCH_*.json files -----------------------------------------

REPO = TOOL.parents[1]


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_a_committed_bench_file_compares_every_end_to_end_metric_over_correct_runs(path):
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in benchmark["end_to_end"]}
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["workloads"] and doc["all_correct"] is True
    for workload, summary in doc["workloads"].items():
        assert set(summary["metrics"]) == names, workload
        assert summary["correct"] == {side: [True] * len(doc["seeds"]) for side in ("base", "change")}, workload
        for name, metric in summary["metrics"].items():
            for side in ("base", "change"):
                low, mid, high = metric[side]["quartiles"]
                assert low <= metric[side]["median"] == mid <= high, (workload, name, side)
