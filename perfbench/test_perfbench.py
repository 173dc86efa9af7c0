"""Self-tests for the benchmark: generator determinism, the latency model,
span arithmetic, output checks, and a tiny run of each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
import requests

import paths

paths.use_checkout_src()

from promptrefine import pipeline  # noqa: E402
from promptrefine.backends import ImageGenRequest, ImageRef, TextGenRequest, VqaRequest  # noqa: E402
from promptrefine.templates import default_template_set  # noqa: E402

import run  # noqa: E402
import script  # noqa: E402
import stub  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((paths.ROOT / "BENCHMARK.json").read_text())
# A sleeping hook may overrun its declared latency by scheduler delay only.
LATENCY_TOLERANCE_S = 0.015


def _structure(specs):
    return sorted(
        (s.name, s.graph.size, s.status, tuple(sorted(s.requests.items())),
         tuple((r.score, len(r.missing), r.vqa_calls) for r in s.reports))
        for s in specs
    )


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generator_is_deterministic_per_seed(name):
    a, specs_a = workloads.build(name, 3)
    b, specs_b = workloads.build(name, 3)
    assert [s.prompt for s in specs_a] == [s.prompt for s in specs_b]
    assert a.text == b.text and a.answers == b.answers and a.faults == b.faults
    assert {k: hashlib.sha256(v).digest() for k, v in a.images.items()} == {
        k: hashlib.sha256(v).digest() for k, v in b.images.items()
    }
    _, specs_c = workloads.build(name, 4)
    assert {s.prompt for s in specs_a}.isdisjoint({s.prompt for s in specs_c})
    assert _structure(specs_a) == _structure(specs_c)


def test_refine_workloads_use_mebibyte_images_and_large_graphs():
    http, _ = workloads.build("refine-http", 1)
    local, local_specs = workloads.build("refine-local", 1)
    assert {len(v) for v in http.images.values()} == {workloads.MIB}
    assert {len(v) for v in local.images.values()} == {workloads.MIB}
    assert sorted(s.graph.size for s in local_specs) == [40, 48, 56, 64, 72, 80]


@pytest.mark.parametrize("op", script.OPS)
def test_script_backend_sleeps_for_declared_latency(op):
    spec_script, specs = workloads.build("bench-batch", 1)
    backend = script.ScriptBackend(spec_script, script.LATENCY_S)
    spec = specs[0]
    digest = spec.image_digests[0]
    question = spec.graph.questions[0]
    calls = {
        "complete": lambda: backend._send_text(
            TextGenRequest(preamble=_preamble("dependencies"), exemplars=(), input=spec.prompt)),
        "answer_binary": lambda: backend._send_vqa(
            VqaRequest(image=ImageRef(path="x", digest=digest), question=question)),
        "generate_image": lambda: backend._send_image(ImageGenRequest(prompt=spec.prompt)),
        "embed": lambda: backend._send_embed(spec.prompt),
    }
    start = time.perf_counter()
    try:
        calls[op]()
    except Exception:  # noqa: BLE001 - faults and misses still sleep first
        pass
    elapsed = time.perf_counter() - start
    declared = script.LATENCY_S[op]
    assert declared <= elapsed <= declared + LATENCY_TOLERANCE_S


def _preamble(stage):
    return default_template_set().stage(stage).preamble


def test_stub_holds_requests_for_declared_latency_and_answers_like_the_mock():
    spec_script, specs = workloads.build("refine-http", 1)
    spec = specs[0]
    proc = stub.StubProcess(paths.ROOT, "refine-http", 1, script.LATENCY_S)
    try:
        session = requests.Session()
        payload = {
            "model": "m",
            "messages": [{"role": "system", "content": _preamble("tuples")},
                         {"role": "user", "content": spec.prompt}],
            "temperature": 0.0,
            "max_tokens": 16,
        }
        session.post(proc.endpoint + "/chat/completions", json=payload, timeout=10)  # connect
        start = time.perf_counter()
        resp = session.post(proc.endpoint + "/chat/completions", json=payload, timeout=10)
        elapsed = time.perf_counter() - start
        held = float(resp.headers["X-Stub-Service-Ms"]) / 1000.0
        declared = script.LATENCY_S["complete"]
        assert declared <= held <= declared + LATENCY_TOLERANCE_S
        assert held <= elapsed <= held + LATENCY_TOLERANCE_S
        assert resp.json()["choices"][0]["message"]["content"] == spec.graph.tuple_lines()
        assert proc.requests() == {"complete": 2}
    finally:
        proc.close()
    assert proc.proc.returncode is not None


def _span(sid, name, start, end, parent=None, **attrs):
    return tracing.Span(sid, name, start, end, parent, 0, attrs)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, "p", 0.0, 10.0)
    children = [_span(2, "c", 1.0, 3.0, 1), _span(3, "c", 2.0, 5.0, 1), _span(4, "c", 7.0, 8.0, 1)]
    assert tracing.self_time(parent, children) == pytest.approx(5.0)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)
    assert tracing.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_round_trips_count_sequential_waits():
    serial = [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0)]
    per_level = [(0.0, 1.0), (0.01, 1.2), (1.2, 2.0), (1.25, 2.1), (1.3, 1.9)]
    assert tracing.round_trips(serial) == 3
    assert tracing.round_trips(per_level) == 2
    assert tracing.round_trips([(0.0, 2.0), (1.0, 3.0), (2.5, 4.0)]) == 1
    assert tracing.round_trips([]) == 0


def test_max_overlap_counts_items_in_flight():
    assert tracing.max_overlap([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) == 1
    assert tracing.max_overlap(iter([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)])) == 3


def test_layer_totals_on_hand_built_spans():
    spans = [
        _span(1, "pipeline.run_single", 0.0, 10.0),
        _span(2, "reflection.evaluate_image", 1.0, 5.0, 1, questions=4, vqa_calls=3),
        _span(3, "backends.answer_binary", 1.0, 2.0, 2),
        _span(4, tracing.TRANSPORT, 1.1, 1.9, 3, op="answer_binary", attempt=1, digest="a"),
        _span(5, "backends.answer_binary", 2.0, 3.5, 2),
        _span(6, tracing.TRANSPORT, 2.1, 2.5, 5, op="answer_binary", attempt=1, digest="b", error=True),
        _span(7, tracing.TRANSPORT, 2.6, 3.4, 5, op="answer_binary", attempt=2, digest="b"),
        _span(8, "backends.answer_binary", 2.2, 3.0, 2),
        _span(9, tracing.TRANSPORT, 2.3, 2.9, 8, op="answer_binary", attempt=1, digest="c"),
    ]
    totals = tracing.LayerTotals()
    totals.add_unit(spans)
    m = totals.metrics(digest_calls=3, digest_cpu_s=0.003)
    assert m["backends.answer_binary.calls"] == 3
    assert m["backends.answer_binary.requests"] == 4
    assert m["backends.answer_binary.retried"] == 1
    assert m["backends.answer_binary.busy_s"] == pytest.approx(3.3)
    assert m["backends.answer_binary.wait_s"] == pytest.approx(3.3 - 2.6)
    assert m["reflection.evaluate_image.vqa_round_trips"] == 2
    assert m["reflection.evaluate_image.vqa_saved_by_pruning"] == pytest.approx(0.25)
    assert m["pipeline.run_single.self_s"] == pytest.approx(6.0)
    assert m["backends.request_digest.cpu_ms"] == pytest.approx(3.0)
    assert set(m) | {"backends.http.floor_ms", "backends.image_dirs_created", "config.load_config.time_ms",
                     "templates.default_template_set.time_ms", "trace.overhead_cpu_share",
                     "trace.overhead_wall_share"} == set(tracing.PER_LAYER)


def test_best_of_takes_each_units_fastest_repeat():
    def unit(name, wall, cpu):
        return run.UnitResult(name, wall, cpu, Counter(complete=2), 0)

    results = [unit("a", 0.30, 0.20), unit("b", 0.10, 0.09), unit("a", 0.20, 0.25), unit("b", 0.50, 0.05)]
    best = {r.name: (r.wall_s, r.cpu_s) for r in run.best_of(results)}
    assert best == {"a": (0.20, 0.20), "b": (0.10, 0.05)}


def test_check_record_reports_a_wrong_answer(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec_script, specs = workloads.build("refine-local", 5)
    spec = next(s for s in specs if not s.converged)
    # the final image is evaluated last, so a changed answer there changes only the report
    key = (spec.image_digests[-1], script.question_key(spec.graph.questions[1]))
    spec_script.answers[key] = "no"
    wl = workloads.RefineLocal(5, tmp_path, script.ZERO_LATENCY)
    wl.script, wl.specs = spec_script, specs
    wl.start()
    record = pipeline.run_single(spec.prompt, wl.cfg)
    errors = workloads.check_record(spec, record)
    assert record.status == "completed"
    assert any("missing" in e for e in errors)
    assert any("score" in e for e in errors)
    assert any("VQA calls" in e for e in errors)


def test_instrumentation_restores_every_wrapped_attribute():
    before = {(m, f): getattr(sys.modules[m], f) for m, f in tracing.FUNCTIONS}
    run_before = tracing.backends_base.Backend.__dict__["_run"]
    inst = tracing.Instrumentation(tracing.Tracer()).install()
    assert pipeline.run_single is not before[("promptrefine.pipeline", "run_single")]
    inst.uninstall()
    assert {(m, f): getattr(sys.modules[m], f) for m, f in tracing.FUNCTIONS} == before
    assert tracing.backends_base.Backend.__dict__["_run"] is run_before


SMOKE_LATENCY = {op: v * 0.02 for op, v in script.LATENCY_S.items()}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, traced, capsys):
    latency = None if name == "refine-local" else SMOKE_LATENCY
    result = run.run_workload(name, 11, 0.2, traced, latency=latency)
    assert result["correct"], capsys.readouterr().out
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if traced else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if traced:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "bench-batch":
            assert metrics["bench.run_benchmark.items_in_flight_max"] == 1
            assert metrics["templates.run_stage.retry_success_ratio"] == pytest.approx(0.5)
        if name == "refine-http":
            assert metrics["backends.http.answer_binary.request_bytes"] > workloads.MIB


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(paths.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "refine-local", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_image_dirs_counts_each_new_directory_once(tmp_path):
    dirs = run.ImageDirs(tmp_path)
    (tmp_path / "promptrefine-img-a").mkdir()
    (tmp_path / "promptrefine-img-b").mkdir()
    (tmp_path / "other").mkdir()
    assert dirs.collect() == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other"]
    (tmp_path / "promptrefine-img-a").mkdir()  # a directory the program reuses
    assert dirs.collect() == 0
    assert (tmp_path / "promptrefine-img-a").is_dir()
