"""Acceptance suite: one test per release criterion, all runnable on mocks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import csv
import functools
import io
import random
import string
from concurrent.futures import Future

import pytest

from promptrefine import reflection
from promptrefine import scene_graph as sg
from promptrefine.backends import CallJournal, ImageRef, MockBackend, recording
from promptrefine.bench import clip_relevance, render_report, run_benchmark
from promptrefine.optimizer import (
    decorate_prompt,
    default_keyword_table,
    expand_concepts,
    regenerate_prompt,
)
from promptrefine.pipeline import (
    Backends,
    PipelineConfig,
    RunRecord,
    record_from_doc,
    record_to_doc,
    run_single,
)
from promptrefine.reflection import (
    NO,
    PRUNED_NO,
    YES,
    AnswerValue,
    ReflectionReport,
    alignment_score,
    build_dsg,
    evaluate_image,
)
from promptrefine.templates import STAGE_ATTEMPTS, StageExhausted, default_template_set

from fixtures import (
    DECORATED_MOTORCYCLE,
    FENCE_EXPANSION,
    MOTORCYCLE_DEPENDENCIES,
    MOTORCYCLE_PROMPT,
    MOTORCYCLE_QUESTIONS,
    MOTORCYCLE_TUPLES,
    PNG_WHITE,
    REGENERATED_MOTORCYCLE,
    STAGE_MARKERS,
    Gauge,
    SlowMock,
    chain_graph,
    motorcycle_backends,
    random_dag,
    stage_llm,
)
from oracles import bf_prune_simulation
from test_pipeline import normalized

TEMPLATES = default_template_set()


def image_ref(tmp_path):
    p = tmp_path / "img.png"
    p.write_bytes(PNG_WHITE)
    return ImageRef.from_file(p)


def vqa_for(script, cls=MockBackend):
    backend = cls(name="vqa")
    for qid, value in script.items():
        backend.script_vqa(f"Is there thing {qid}?", value)
    return backend


def done(label):
    print(f"PASS: {label}", flush=True)


def test_pruning_oracle_equivalence_and_call_count_law(tmp_path):
    """Criteria 1 + 2: 500 random DAGs vs the brute-force oracle, exactly."""
    rng = random.Random(20240601)
    img = image_ref(tmp_path)
    for case in range(500):
        ids, pairs = random_dag(rng, max_nodes=12)
        graph = chain_graph(f"case {case}", len(ids), pairs)
        script = {i: rng.choice(["yes", "no"]) for i in ids}
        vqa = vqa_for(script)
        with recording(CallJournal()) as journal:
            report = evaluate_image(img, graph, vqa)

        queried, pruned, missing, score = bf_prune_simulation(ids, pairs, script)
        got_queried = {
            i for i, a in report.answers.items() if a.source.value == "vqa"
        }
        got_pruned = {i for i, a in report.answers.items() if a is PRUNED_NO}
        assert got_queried == queried
        assert got_pruned == pruned
        assert report.missing_ids == missing
        assert report.score == score  # exact, zero tolerance
        # call-count law
        assert report.vqa_call_count == len(journal)
        assert report.vqa_call_count == len(ids) - len(got_pruned)
    done("pruning oracle equivalence over 500 random DAGs (criterion 1)")
    done("vqa_call_count == journal length == questions - pruned (criterion 2)")


def test_fan_out_changes_timing_only(tmp_path):
    """Concurrency law: asking a DAG level's questions at once gives the same
    report (answer order included) and the same journal as asking one at a time."""
    rng = random.Random(20240601)
    img = image_ref(tmp_path)
    peaks = []
    for case in range(50):
        ids, pairs = random_dag(rng, max_nodes=12)
        graph = chain_graph(f"case {case}", len(ids), pairs)
        script = {i: rng.choice(["yes", "no"]) for i in ids}
        serial_vqa, slow_vqa = vqa_for(script), vqa_for(script, SlowMock)
        with recording(CallJournal()) as serial_journal:
            serial = evaluate_image(img, graph, serial_vqa)
        with recording(CallJournal()) as fanned_journal:
            fanned = evaluate_image(img, graph, slow_vqa)
        assert fanned == serial
        assert list(fanned.answers.items()) == list(serial.answers.items())
        journal = [(r.op, r.digest, r.ok) for r in fanned_journal.records()]
        assert journal == [(r.op, r.digest, r.ok) for r in serial_journal.records()]
        peaks.append(slow_vqa.gauge.peak["answer_binary"])
    assert max(peaks) > 1  # some levels really were asked at once
    done("fan-out keeps reports and journal order over 50 random DAGs")


class InlinePool:
    """Stands in for a thread pool: runs a task on the caller's thread as it is
    submitted, so the run makes its calls one after another. The task's calls
    are still journaled where its result is collected."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - a pool hands errors to the future
            future.set_exception(exc)
        return future


def test_overlap_changes_timing_only(tmp_path, monkeypatch):
    """Concurrency law: building the question graph while the first image
    generates, and fanning VQA out, give the same records as running every
    call one after another."""
    gauge = Gauge()
    slow = functools.partial(
        SlowMock, gauge=gauge, op_delays={"complete": 0.002, "generate_image": 0.01}
    )
    cases = [(answers, rounds) for answers in [("no", "yes"), ("yes",), ("no",)] for rounds in (1, 2)]

    def run_cases(cls):
        records = []
        for fence_answers, rounds in cases:
            backends = motorcycle_backends(tmp_path / "images", fence_answers, cls=cls)
            cfg = PipelineConfig(backends=backends, rounds=rounds, width=64, height=64, seed=1234)
            records.append(run_single(MOTORCYCLE_PROMPT, cfg))
        return records

    overlapped = run_cases(slow)
    with monkeypatch.context() as m:
        m.setattr(reflection, "POOL", InlinePool())
        m.setattr(reflection, "FAN_OUT_MIN_S", float("inf"))
        serial = run_cases(MockBackend)

    for got, want in zip(overlapped, serial):
        assert got.status == "completed"
        journal = [(e["op"], e["digest"], e["ok"]) for e in got.backend_journal]
        assert journal == [(e["op"], e["digest"], e["ok"]) for e in want.backend_journal]
        assert [list(r.answers.items()) for r in got.reports] == [
            list(r.answers.items()) for r in want.reports
        ]
        assert got.prompt_history == want.prompt_history
        assert normalized(got) == normalized(want)
    assert frozenset({"complete", "generate_image"}) in gauge.together
    assert gauge.peak["answer_binary"] > 1
    done("graph build beside the first generate keeps records over 6 runs")


def test_score_arithmetic():
    """Criterion 3: hand score cases, exact."""
    # 6 yes of 8 questions
    g8 = chain_graph("p", 8, set())
    answers = {i: (YES if i <= 6 else NO) for i in range(1, 9)}
    report = ReflectionReport(g8, answers, frozenset({7, 8}), 0.75, 8)
    assert alignment_score(report) == 0.75

    # 2 yes, 2 no, 1 pruned
    g5 = chain_graph("p", 5, {(3, 5)})
    answers = {1: YES, 2: YES, 3: NO, 4: NO, 5: PRUNED_NO}
    report = ReflectionReport(g5, answers, frozenset({3, 4, 5}), 0.4, 4)
    assert alignment_score(report) == 0.4

    # empty graph
    g0 = chain_graph("p", 0, set())
    report = ReflectionReport(g0, {}, frozenset(), 1.0, 0)
    assert alignment_score(report) == 1.0
    done("score arithmetic: 6/8 = 0.75, 2Y/2N/1P = 0.4, empty = 1.0 (criterion 3)")


def test_short_circuit_law_over_random_prompts(tmp_path):
    """Criterion 4: all-yes evaluation leaves the prompt untouched, 50 prompts."""
    rng = random.Random(7)
    llm = stage_llm(
        tuples="1 | entity - whole (subject)",
        questions="1 | Is the subject depicted?",
        dependencies="1 | 0",
    )
    vqa = MockBackend(name="vqa").script_vqa("*", "yes")
    t2i = MockBackend(name="t2i", image_dir=tmp_path / "img").script_image("*", PNG_WHITE)
    cfg = PipelineConfig(
        backends=Backends(llm=llm, vqa=vqa, t2i=t2i), width=64, height=64, seed=5
    )
    for i in range(50):
        words = [
            "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        prompt = f"prompt {i}: " + " ".join(words)
        record = run_single(prompt, cfg)
        assert record.status == "completed"
        assert record.converged is True
        assert len(record.image_refs) == 1
        assert record.outcome.modified is False
        assert record.final_prompt() == prompt  # byte-equal
    done("short-circuit law over 50 random prompts (criterion 4)")


def _random_text(rng, allow=string.ascii_letters + string.digits + " ,.'-!?"):
    n = rng.randint(1, 24)
    text = "".join(rng.choice(allow) for _ in range(n)).strip()
    return text or "x"


def _random_graph(rng):
    ids, pairs = random_dag(rng, max_nodes=10)
    tuples = [
        sg.ConceptTuple(
            id=i,
            category=rng.choice(list(sg.Category)),
            detail=_random_text(rng, string.ascii_letters + " -"),
            content=_random_text(rng) + rng.choice(["", " (x, y)", ")("]),
        )
        for i in ids
    ]
    questions = [
        sg.Question(id=i, text=_random_text(rng) + "?") for i in ids
    ]
    edges = {sg.DependencyEdge(p, c) for p, c in pairs}
    return sg.build_graph(_random_text(rng), tuples, questions, edges)


def _random_record(rng, graph):
    answers = {}
    order = sg.topological_order(graph)
    for qid in order:
        if qid in answers:
            continue
        if rng.random() < 0.3:
            answers[qid] = NO
            for d in sg.descendants(graph, qid):
                if d not in answers:
                    answers[d] = PRUNED_NO
        else:
            answers[qid] = YES
    missing = frozenset(i for i, a in answers.items() if a.value is not AnswerValue.YES)
    vqa_calls = sum(1 for a in answers.values() if a is not PRUNED_NO)
    yes = len(answers) - len(missing)
    report = ReflectionReport(
        graph, answers, missing, yes / len(answers) if answers else 1.0, vqa_calls
    )
    return RunRecord(
        run_id="fixed",
        created_at="2024-06-01T00:00:00+00:00",
        status="completed",
        failed_stage=None,
        error=None,
        error_kind=None,
        converged=bool(rng.random() < 0.5),
        prompt_history=[("user", graph.source_prompt), ("round-1.optimized", _random_text(rng))],
        image_refs=[("round-1", ImageRef(remote_id=f"img-{rng.randint(0, 999)}"), rng.randint(0, 99))],
        graph=graph,
        reports=[report],
        outcome=None,
        backend_journal=[{"op": "complete", "digest": "d", "ok": True}],
        timings={"round-1.generate": 0.25},
    )


def test_grammar_round_trips():
    """Criterion 5: parse-render identity for every format, zero tolerance."""
    rng = random.Random(99)
    for _ in range(200):
        graph = _random_graph(rng)
        assert sg.parse_tuples(sg.render_tuples(graph.tuples)) == list(graph.tuples)
        assert sg.parse_questions(sg.render_questions(graph.questions)) == list(graph.questions)
        rendered = sg.render_dependencies(graph.question_ids(), graph.edges)
        assert sg.parse_dependencies(rendered) == set(graph.edges)
        assert sg.parse_graph(sg.serialize_graph(graph)) == graph
    for _ in range(50):
        graph = _random_graph(rng)
        if not graph.question_ids():
            continue
        record = _random_record(rng, graph)
        assert record_from_doc(record_to_doc(record)) == record
    done("grammar round-trips: tuples, questions, dependencies, graph, record (criterion 5)")


def test_retry_contract(tmp_path):
    """Criterion 6: fail (n-1) times then succeed => exactly n calls; n failures
    => StageExhausted naming the stage."""
    attempts = STAGE_ATTEMPTS
    graph = sg.build_graph(
        MOTORCYCLE_PROMPT,
        sg.parse_tuples(MOTORCYCLE_TUPLES),
        sg.parse_questions(MOTORCYCLE_QUESTIONS),
        sg.parse_dependencies(MOTORCYCLE_DEPENDENCIES),
    )
    answers = {1: YES, 2: YES, 3: NO, 4: PRUNED_NO, 5: PRUNED_NO}
    report = ReflectionReport(graph, answers, frozenset({3, 4, 5}), 0.4, 3)

    valid = {
        "tuples": MOTORCYCLE_TUPLES,
        "questions": MOTORCYCLE_QUESTIONS,
        "dependencies": MOTORCYCLE_DEPENDENCIES,
        "expansion": FENCE_EXPANSION,
        "regeneration": REGENERATED_MOTORCYCLE,
        "decoration": "best quality, soft lighting",
    }
    garbage = {stage: "bad\noutput ~ ~" for stage in valid}

    def drive(stage, llm):
        if stage in ("tuples", "questions", "dependencies"):
            build_dsg(MOTORCYCLE_PROMPT, llm, TEMPLATES)
        elif stage == "expansion":
            expand_concepts(MOTORCYCLE_PROMPT, graph, report, llm, TEMPLATES)
        elif stage == "regeneration":
            regenerate_prompt(MOTORCYCLE_PROMPT, graph.tuples, llm, TEMPLATES)
        else:
            decorate_prompt(MOTORCYCLE_PROMPT, llm, default_keyword_table(), TEMPLATES)

    for stage in valid:
        # fail (attempts - 1) times, then succeed
        responses = dict(valid)
        responses[stage] = [garbage[stage]] * (attempts - 1) + [valid[stage]]
        llm = stage_llm(**responses)
        with recording(CallJournal()) as journal:
            drive(stage, llm)
        digests = [r.digest for r in journal.records()]
        assert max(digests.count(d) for d in digests) == attempts
        stage_calls = sum(
            1 for d in digests if digests.count(d) == attempts
        )
        assert stage_calls == attempts

        # fail every time
        responses[stage] = garbage[stage]
        llm = stage_llm(**responses)
        with pytest.raises(StageExhausted) as exc:
            drive(stage, llm)
        assert exc.value.stage == stage
        assert exc.value.attempts == attempts
    done("retry contract for all six text-model stages (criterion 6)")


def test_end_to_end_mock_reproducibility(tmp_path):
    """Criterion 7: the walkthrough fixture is bit-reproducible."""
    records = []
    for _ in range(2):
        backends = motorcycle_backends(tmp_path / "images")
        cfg = PipelineConfig(backends=backends, width=64, height=64, seed=1234)
        records.append(run_single(MOTORCYCLE_PROMPT, cfg))
    first, second = records
    assert normalized(first) == normalized(second)
    assert first.run_id != second.run_id
    assert len(first.image_refs) == 2
    assert len(first.reports) == 2
    assert first.reports[0].score == 0.4
    assert first.reports[1].score == 1.0
    assert first.final_prompt() == DECORATED_MOTORCYCLE
    done("end-to-end mock reproducibility, 2 images / 2 reports / final 1.0 (criterion 7)")


def test_bench_aggregation(tmp_path):
    """Criterion 8: the 4-item fixture reports 75.0 in both formats."""
    from test_bench import bench_cfg, four_item_dataset

    items, vqa = four_item_dataset()
    report = run_benchmark(items, bench_cfg(tmp_path, vqa), mode="baseline")
    scores = [i.baseline_score for i in report.items]
    assert scores == [1.0, 0.5, 0.75, 0.75]
    assert report.category_means["desk"]["baseline"] == 0.75

    markdown = render_report(report, "markdown")
    assert "| baseline | 75.0 | 75.0 |" in markdown
    rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
    assert rows[1] == ["baseline", "75.0", "75.0"]
    done("bench aggregation: category mean 75.0 in markdown and csv (criterion 8)")


def test_clip_relevance_laws():
    """Criterion 9: identity, orthogonality, clipping, rescale invariance."""
    assert clip_relevance([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 100.0
    assert clip_relevance([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert clip_relevance([1.0, 0.0], [-0.6, 0.8]) == 0.0
    rng = random.Random(3)
    for _ in range(100):
        a = [rng.uniform(-1, 1) for _ in range(16)]
        b = [rng.uniform(-1, 1) for _ in range(16)]
        base = clip_relevance(a, b)
        scaled = clip_relevance([17.3 * v for v in a], [0.004 * v for v in b])
        assert abs(base - scaled) <= 1e-9
    done("clip relevance: 100/0/clip and rescale invariance to 1e-9 (criterion 9)")


def test_decoration_laws():
    """Criterion 10: prefix, keyword budget, per-class cap, deduplication."""
    rng = random.Random(11)
    table = default_keyword_table()
    table_keywords = [kw for _, kws in table.classes for kw in kws]
    prompts = ["a quiet harbor at dawn", "two foxes in deep snow", "a brass telescope"]
    for _ in range(80):
        prompt = rng.choice(prompts)
        pool = (
            table_keywords
            + ["hand-tuned palette", "wide shot", "a" * 40, "bad!punct", "dawn", "snow"]
        )
        selection = [rng.choice(pool) for _ in range(rng.randint(0, 15))]
        if rng.random() < 0.3 and selection:
            selection += [selection[0]]  # force a duplicate
        llm = stage_llm(decoration=", ".join(selection))
        decorated = decorate_prompt(prompt, llm, table, TEMPLATES)

        assert decorated.startswith(prompt)  # prefix law, verbatim
        suffix = decorated[len(prompt):]
        if suffix:
            assert suffix.startswith(", ")
            keywords = suffix[2:].split(", ")
            assert len(keywords) <= 10
            lowered = [k.lower() for k in keywords]
            assert len(set(lowered)) == len(lowered)  # deduplicated
            per_class = {}
            for kw in keywords:
                cls = table.class_of(kw)
                if cls is not None:
                    per_class[cls] = per_class.get(cls, 0) + 1
            assert all(v <= 2 for v in per_class.values())
            assert not any(k in prompt.lower() for k in lowered)
    done("decoration laws: prefix, <=10 keywords, <=2 per class, deduped (criterion 10)")
