"""Acceptance suite: one test per release criterion, all runnable on mocks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import csv
import functools
import io
import random
import string
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptrefine import reflection
from promptrefine import scene_graph as sg
from promptrefine.backends import (
    CallJournal,
    CallRecord,
    ImageRef,
    MockBackend,
    VqaRequest,
    recording,
    request_digest,
)
from promptrefine.bench import DatasetItem, clip_relevance, render_report, run_benchmark
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
    Answer,
    ReflectionReport,
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
    drawn,
    inline,
    motorcycle_backends,
    submits,
    random_dag,
    scheduled,
    stage_llm,
    warmed,
)
from oracles import bf_ask_order, bf_prune_simulation
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


def asked(img, qids):
    """The request digests of chain_graph questions ``qids`` about ``img``."""
    return [request_digest(VqaRequest(image=img, question=f"Is there thing {i}?")) for i in qids]


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
def test_pruning_oracle_equivalence_and_call_count_law(tmp_path, monkeypatch, pooled):
    """Criteria 1 + 2: 500 random DAGs vs the brute-force oracle, exactly,
    under each gate; the journal holds the asked questions in (level, id) order."""
    if not pooled:
        monkeypatch.setattr(reflection, "FAN_OUT_MIN_S", float("inf"))
    rng = random.Random(20240601)
    img = image_ref(tmp_path)
    for case in range(500):
        ids, pairs = random_dag(rng, max_nodes=12)
        graph = chain_graph(f"case {case}", len(ids), pairs)
        script = {i: rng.choice(["yes", "no"]) for i in ids}
        vqa = vqa_for(script) if pooled else warmed(vqa_for(script), img)
        with submits() as submitted, recording(CallJournal()) as journal:
            report = evaluate_image(img, graph, vqa)
        assert len(submitted) == (report.vqa_call_count if pooled else 0)

        queried, pruned, missing, score = bf_prune_simulation(ids, pairs, script)
        got_queried = {
            i for i, a in report.answers.items() if a.source.value == "vqa"
        }
        got_pruned = {i for i, a in report.answers.items() if a is Answer.PRUNED_NO}
        assert got_queried == queried
        assert got_pruned == pruned
        assert report.missing_ids == missing
        assert report.score == score  # exact, zero tolerance
        # call-count law
        assert report.vqa_call_count == len(journal)
        assert report.vqa_call_count == len(ids) - len(got_pruned)
        assert [r.digest for r in journal.records()] == asked(img, bf_ask_order(ids, pairs, queried))
    gate = "pooled" if pooled else "serial"
    done(f"pruning oracle equivalence over 500 random DAGs, {gate} (criterion 1)")
    done(f"vqa_call_count == journal length == questions - pruned, {gate} (criterion 2)")


@pytest.fixture(scope="module")
def img(tmp_path_factory):
    return image_ref(tmp_path_factory.mktemp("img"))


def serial_evaluation(img, graph, script):
    """The reference for the fan-out law: the report and the journal of
    asking one question at a time under the serial gate."""
    vqa = warmed(vqa_for(script), img)
    with pytest.MonkeyPatch.context() as m, submits() as submitted, recording(CallJournal()) as journal:
        m.setattr(reflection, "FAN_OUT_MIN_S", float("inf"))
        report = evaluate_image(img, graph, vqa)
    assert not submitted
    return report, journal


def assert_same_evaluation(got, got_journal, want, want_journal):
    assert got == want
    assert list(got.answers.items()) == list(want.answers.items())
    journal = [(r.op, r.digest, r.ok) for r in got_journal.records()]
    assert journal == [(r.op, r.digest, r.ok) for r in want_journal.records()]


def test_fan_out_changes_timing_only(img):
    """Concurrency law: asking each question on the pool as soon as its
    parents are answered yes gives the same report (answer order included)
    and the same journal as asking one at a time under the serial gate,
    whichever order the pool starts the asks in."""

    @settings(max_examples=50, deadline=None)
    @given(rng=st.randoms(use_true_random=False), data=st.data())
    def law(rng, data):
        ids, pairs = random_dag(rng, max_nodes=12)
        graph = chain_graph("case", len(ids), pairs)
        script = {i: rng.choice(["yes", "no"]) for i in ids}
        with scheduled(drawn(data)), recording(CallJournal()) as journal:
            report = evaluate_image(img, graph, vqa_for(script))
        assert_same_evaluation(report, journal, *serial_evaluation(img, graph, script))

    law()
    done("fan-out keeps reports and journal order over 50 random DAGs and schedules")


@pytest.mark.real_threads
def test_fan_out_changes_timing_only_on_threads(img):
    """The same law on the real pool, where sleeping asks finish out of id order."""
    rng = random.Random(20240601)
    peaks = []
    for case in range(50):
        ids, pairs = random_dag(rng, max_nodes=12)
        graph = chain_graph(f"case {case}", len(ids), pairs)
        script = {i: rng.choice(["yes", "no"]) for i in ids}
        slow_vqa = vqa_for(script, SlowMock)
        with submits() as submitted, recording(CallJournal()) as journal:
            report = evaluate_image(img, graph, slow_vqa)
        assert len(submitted) == report.vqa_call_count
        assert_same_evaluation(report, journal, *serial_evaluation(img, graph, script))
        peaks.append(slow_vqa.gauge.peak["answer_binary"])
    assert max(peaks) > 1  # some questions really were asked at once
    done("fan-out on threads keeps reports and journal order over 50 random DAGs")


OVERLAP_CASES = [(answers, rounds) for answers in [("no", "yes"), ("yes",), ("no",)] for rounds in (1, 2)]


def overlap_run(images, case, cls=MockBackend):
    fence_answers, rounds = case
    backends = motorcycle_backends(images, fence_answers, cls=cls)
    cfg = PipelineConfig(backends=backends, rounds=rounds, width=64, height=64, seed=1234)
    return run_single(MOTORCYCLE_PROMPT, cfg)


@pytest.fixture(scope="module")
def overlap_images(tmp_path_factory):
    return tmp_path_factory.mktemp("images")


@pytest.fixture(scope="module")
def serial_runs(overlap_images):
    """The reference for the overlap law: each case's record with every
    task run as it is submitted, so the graph build's calls come before
    the first generate's, and every question asked one at a time."""
    with scheduled(inline, fan_out_min_s=float("inf")):
        return {case: overlap_run(overlap_images, case) for case in OVERLAP_CASES}


def assert_same_run(got, want):
    assert got.status == "completed"
    journal = [(e.op, e.digest, e.ok) for e in got.backend_journal]
    assert journal == [(e.op, e.digest, e.ok) for e in want.backend_journal]
    assert [list(r.answers.items()) for r in got.reports] == [
        list(r.answers.items()) for r in want.reports
    ]
    assert got.prompt_history == want.prompt_history
    assert normalized(got) == normalized(want)


def test_overlap_changes_timing_only(overlap_images, serial_runs):
    """Concurrency law: building the question graph while the first image
    generates, and fanning VQA out, give the same records as running every
    call one after another, whichever order the pool starts its tasks in
    and however few workers it has. With one worker the build holds it, and
    asks its questions stage on a worker of its own."""

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(OVERLAP_CASES),
        workers=st.sampled_from([1, 2, reflection.POOL_WORKERS]),
        data=st.data(),
    )
    def law(case, workers, data):
        with scheduled(drawn(data), workers=workers):
            record = overlap_run(overlap_images, case)
        assert_same_run(record, serial_runs[case])

    law()
    done("graph build beside the first generate keeps records over drawn schedules")


@pytest.mark.real_threads
def test_overlap_changes_timing_only_on_threads(overlap_images, serial_runs):
    """The same law on the real pool, with sleeping text and image calls."""
    gauge = Gauge()
    slow = functools.partial(
        SlowMock, gauge=gauge, op_delays={"complete": 0.002, "generate_image": 0.01}
    )
    for case in OVERLAP_CASES:
        assert_same_run(overlap_run(overlap_images, case, cls=slow), serial_runs[case])
    assert frozenset({"complete", "generate_image"}) in gauge.together
    assert gauge.peak["answer_binary"] > 1
    done("graph build beside the first generate on threads keeps records over 6 runs")


def motorcycle_run(cfg):
    record = run_single(MOTORCYCLE_PROMPT, cfg)
    assert record.status == "completed" and len(record.backend_journal) == 16
    return normalized(record)


def motorcycle_bench(cfg):
    """The report of a one-item benchmark and its embeds' journal."""
    with recording(CallJournal()) as journal:
        report = run_benchmark([DatasetItem("motorcycle", "vehicles", MOTORCYCLE_PROMPT)], cfg)
    assert report.failed_count == 0 and len(report.items[0].clip) == 3
    return report, [(r.op, r.digest, r.ok) for r in journal.records()]


@pytest.mark.parametrize("run", [motorcycle_run, motorcycle_bench], ids=["run_single", "run_benchmark"])
def test_a_run_made_as_a_task_on_a_one_worker_pool_finishes(tmp_path, run):
    """Deadlock freedom: a run made as a task on a pool of one worker holds
    that worker, and fans its own work out (the graph build, the first
    evaluation's questions, bench embeds) on workers of its own. The run
    finishes with the record of the same run made off the pool."""

    def cfg():
        backends = motorcycle_backends(tmp_path / "images")
        backends.embed = MockBackend(name="embed").script_embed("*", [1.0, 0.0])
        return PipelineConfig(backends=backends, width=64, height=64, seed=1234)

    with scheduled(inline, workers=1, fan_out_min_s=float("inf")):
        pooled = reflection.submit(run, cfg()).result()
        assert pooled == run(cfg())
    done(f"{run.__name__} as a task on a one-worker pool finishes")


@pytest.mark.real_threads
def test_runs_made_as_tasks_that_fill_the_pool_finish(tmp_path):
    """Deadlock freedom on threads: POOL_WORKERS runs submitted at once hold
    every worker of the submitting thread's executor, and each still fans its
    build and its evaluations out, on workers of its own."""
    slow = functools.partial(SlowMock, delays={q.text: 0.01 for q in sg.parse_questions(MOTORCYCLE_QUESTIONS)})

    def cfg():
        backends = motorcycle_backends(tmp_path / "images", cls=slow)
        return PipelineConfig(backends=backends, width=64, height=64, seed=1234)

    reference = motorcycle_run(cfg())
    records = []

    def submit_runs():
        tasks = [reflection.submit(motorcycle_run, cfg()) for _ in range(reflection.POOL_WORKERS)]
        records.extend(task.result() for task in tasks)

    submitter = threading.Thread(target=submit_runs, daemon=True)
    submitter.start()
    submitter.join(timeout=60)
    assert not submitter.is_alive(), "the pooled runs did not finish"
    assert records == [reference] * reflection.POOL_WORKERS
    done(f"{reflection.POOL_WORKERS} runs as tasks that fill the pool finish on threads")


def test_score_arithmetic():
    """Criterion 3: hand score cases, exact."""
    # 6 yes of 8 questions
    g8 = chain_graph("p", 8, set())
    answers = {i: (Answer.YES if i <= 6 else Answer.NO) for i in range(1, 9)}
    assert ReflectionReport(g8, answers).score == 0.75

    # 2 yes, 2 no, 1 pruned
    g5 = chain_graph("p", 5, {(3, 5)})
    answers = {1: Answer.YES, 2: Answer.YES, 3: Answer.NO, 4: Answer.NO, 5: Answer.PRUNED_NO}
    assert ReflectionReport(g5, answers).score == 0.4

    # empty graph
    g0 = chain_graph("p", 0, set())
    assert ReflectionReport(g0, {}).score == 1.0
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
            answers[qid] = Answer.NO
            for d in sg.descendants(graph, qid):
                if d not in answers:
                    answers[d] = Answer.PRUNED_NO
        else:
            answers[qid] = Answer.YES
    report = ReflectionReport(graph, answers)
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
        backend_journal=[CallRecord(op="complete", digest="d", ok=True, attempts=1, latency_s=0.25)],
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
    answers = {1: Answer.YES, 2: Answer.YES, 3: Answer.NO, 4: Answer.PRUNED_NO, 5: Answer.PRUNED_NO}
    report = ReflectionReport(graph, answers)

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
