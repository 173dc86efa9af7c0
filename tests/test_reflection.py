import itertools
import random
import threading
import time
from types import SimpleNamespace

import pytest

from promptrefine import reflection
from promptrefine.backends import base as backends_base
from promptrefine.backends import (
    AuthFailure,
    ContentRejected,
    MockBackend,
    TextGenRequest,
    UnparseableAnswer,
    VqaRequest,
    request_digest,
)
from promptrefine.reflection import (
    NO,
    PRUNED_NO,
    YES,
    Answer,
    AnswerSource,
    AnswerValue,
    ReflectionReport,
    alignment_score,
    build_dsg,
    evaluate_image,
    render_prompt_tuples_input,
)
from promptrefine.scene_graph import parse_questions, parse_tuples
from promptrefine.templates import (
    StageExhausted,
    default_template_set,
    load_template_set,
)

from fixtures import (
    MOTORCYCLE_DEPENDENCIES,
    MOTORCYCLE_PROMPT,
    MOTORCYCLE_QUESTIONS,
    MOTORCYCLE_TUPLES,
    PNG_WHITE,
    SlowMock,
    chain_graph,
    journal,
    motorcycle_graph,
    random_dag,
)
from oracles import bf_prune_simulation


@pytest.fixture(scope="module")
def templates():
    return default_template_set()


def scripted_llm(tuples=MOTORCYCLE_TUPLES, questions=MOTORCYCLE_QUESTIONS, deps=MOTORCYCLE_DEPENDENCIES):
    return (
        MockBackend(name="llm")
        .script_text("*", tuples, preamble="*Decompose*")
        .script_text("*", questions, preamble="*yes/no verification questions*")
        .script_text("*", deps, preamble="*presume*")
    )


def image(tmp_path):
    from promptrefine.backends import ImageRef

    p = tmp_path / "img.png"
    p.write_bytes(PNG_WHITE)
    return ImageRef.from_file(p)


def vqa_for(answers):
    """Mock VQA answering exact question texts of chain_graph questions."""
    backend = MockBackend(name="vqa")
    for qid, value in answers.items():
        backend.script_vqa(f"Is there thing {qid}?", value)
    return backend


class TestAnswerTypes:
    def test_pruned_requires_pruned_source(self):
        with pytest.raises(ValueError):
            Answer(AnswerValue.PRUNED_NO, AnswerSource.VQA)
        with pytest.raises(ValueError):
            Answer(AnswerValue.YES, AnswerSource.PRUNED)

    def test_report_invariants_enforced(self):
        g = chain_graph("p", 2, set())
        with pytest.raises(ValueError):
            ReflectionReport(
                graph=g,
                answers={1: YES, 2: YES},
                missing_ids=frozenset({2}),
                score=1.0,
                vqa_call_count=2,
            )
        with pytest.raises(ValueError):
            ReflectionReport(
                graph=g,
                answers={1: YES},
                missing_ids=frozenset(),
                score=1.0,
                vqa_call_count=1,
            )


class TestBuildDsg:
    def test_motorcycle_three_stage_fixture(self, templates, journal):
        # DERIVED: the scripted blocks assemble into the validated fixture graph.
        llm = scripted_llm()
        graph = build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert graph == motorcycle_graph()
        # three stages, one call each
        assert len(journal) == 3

    def test_stage_order_is_tuples_questions_dependencies(self, templates, journal):
        llm = scripted_llm()
        build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        blocks = (MOTORCYCLE_TUPLES, MOTORCYCLE_QUESTIONS, MOTORCYCLE_DEPENDENCIES)
        assert [r.response_digest for r in journal.records()] == [backends_base.sha256_hex(b) for b in blocks]

    def test_questions_stage_sees_prompt_and_tuples(self, templates):
        seen = render_prompt_tuples_input(
            MOTORCYCLE_PROMPT, parse_tuples(MOTORCYCLE_TUPLES)
        )
        llm = (
            MockBackend(name="llm")
            .script_text("*", MOTORCYCLE_TUPLES, preamble="*Decompose*")
            .script_text(seen, MOTORCYCLE_QUESTIONS, preamble="*yes/no verification questions*")
            .script_text("*", MOTORCYCLE_DEPENDENCIES, preamble="*presume*")
        )
        build_dsg(MOTORCYCLE_PROMPT, llm, templates)

    def test_invalid_tuple_output_retried(self, templates, journal):
        llm = scripted_llm()
        llm._text[0].responses = ["garbage", "more garbage", MOTORCYCLE_TUPLES]
        graph = build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert graph == motorcycle_graph()
        assert len(journal) == 5  # 3 tuple attempts + questions + dependencies

    def test_all_attempts_invalid_raises_stage_exhausted(self, templates):
        llm = MockBackend(name="llm").script_text("*", "garbage")
        with pytest.raises(StageExhausted) as exc:
            build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert exc.value.stage == "tuples"
        assert exc.value.attempts == 3

    def test_question_id_mismatch_retries_question_stage(self, templates):
        llm = scripted_llm()
        llm._text[1].responses = ["1 | Only one question?", MOTORCYCLE_QUESTIONS]
        graph = build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert graph == motorcycle_graph()

    def test_cyclic_dependencies_retry_dependency_stage(self, templates):
        llm = scripted_llm()
        llm._text[2].responses = [
            "1 | 2\n2 | 1\n3 | 0\n4 | 0\n5 | 0",
            MOTORCYCLE_DEPENDENCIES,
        ]
        graph = build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert graph == motorcycle_graph()

    def test_empty_prompt_rejected(self, templates):
        with pytest.raises(ValueError):
            build_dsg("  ", MockBackend(), templates)


class TestEvaluateImage:
    def test_pruned_fixture(self, tmp_path):
        # DERIVED: pruned set equals descendants(3) per the reachability oracle.
        g = motorcycle_graph()
        vqa = (
            MockBackend(name="vqa")
            .script_vqa("Is there a motorcycle?", "yes")
            .script_vqa("Is the motorcycle blue?", "yes")
            .script_vqa("Is there a fence?", "no")
        )
        report = evaluate_image(image(tmp_path), g, vqa)
        assert report.answers == {1: YES, 2: YES, 3: NO, 4: PRUNED_NO, 5: PRUNED_NO}
        assert report.missing_ids == {3, 4, 5}
        assert report.score == pytest.approx(0.4)
        assert report.vqa_call_count == 3
        queried, pruned, missing, score = bf_prune_simulation(
            g.question_ids(),
            [(e.parent, e.child) for e in g.edges],
            {1: "yes", 2: "yes", 3: "no", 4: "yes", 5: "yes"},
        )
        assert pruned == {4, 5} and missing == report.missing_ids

    def test_all_yes(self, tmp_path):
        g = motorcycle_graph()
        vqa = MockBackend(name="vqa").script_vqa("*", "yes")
        report = evaluate_image(image(tmp_path), g, vqa)
        assert report.missing_ids == frozenset()
        assert report.score == 1.0
        assert report.vqa_call_count == 5

    def test_single_question_no(self, tmp_path):
        g = chain_graph("p", 1, set())
        vqa = MockBackend(name="vqa").script_vqa("*", "no")
        report = evaluate_image(image(tmp_path), g, vqa)
        assert report.missing_ids == {1}
        assert report.score == 0.0
        assert report.vqa_call_count == 1

    def test_empty_graph_scores_one(self, tmp_path):
        g = chain_graph("p", 0, set())
        report = evaluate_image(image(tmp_path), g, MockBackend(name="vqa"))
        assert report.score == 1.0
        assert report.vqa_call_count == 0

    def test_pruned_questions_never_reach_backend(self, tmp_path, journal):
        g = motorcycle_graph()
        vqa = MockBackend(name="vqa").script_vqa("Is there*", "no").script_vqa("*", "yes")
        report = evaluate_image(image(tmp_path), g, vqa)
        # 1 and 3 answered no; everything else pruned, so exactly 2 calls
        assert report.vqa_call_count == 2
        assert len(journal) == 2
        asked = {r.digest for r in journal.records()}
        assert len(asked) == 2

    def test_multi_parent_conflict_prunes(self, tmp_path):
        # 5 depends on both 1 and 3; a no on 3 prunes it even though 1 is yes
        g = motorcycle_graph()
        vqa = (
            MockBackend(name="vqa")
            .script_vqa("Is there a fence?", "no")
            .script_vqa("*", "yes")
        )
        report = evaluate_image(image(tmp_path), g, vqa)
        assert report.answers[5] == PRUNED_NO

    def test_matches_oracle_on_random_dags(self, tmp_path):
        rng = random.Random(42)
        img = image(tmp_path)
        for _ in range(100):
            ids, pairs = random_dag(rng)
            g = chain_graph("p", len(ids), pairs)
            script = {i: rng.choice(["yes", "no"]) for i in ids}
            report = evaluate_image(img, g, vqa_for(script))
            queried, pruned, missing, score = bf_prune_simulation(ids, pairs, script)
            got_pruned = {i for i, a in report.answers.items() if a == PRUNED_NO}
            assert got_pruned == pruned
            assert report.missing_ids == missing
            assert report.score == pytest.approx(score)
            assert report.vqa_call_count == len(queried)

    def test_pruning_equals_forced_full_evaluation(self, tmp_path):
        # forcing every descendant of a no to no, then evaluating everything,
        # must give the same score as pruned evaluation
        rng = random.Random(9)
        img = image(tmp_path)
        for _ in range(60):
            ids, pairs = random_dag(rng, max_nodes=10)
            g = chain_graph("p", len(ids), pairs)
            script = {i: rng.choice(["yes", "no"]) for i in ids}
            report = evaluate_image(img, g, vqa_for(script))
            _, pruned, _, _ = bf_prune_simulation(ids, pairs, script)
            forced = {i: ("no" if i in pruned else script[i]) for i in ids}
            full_yes = sum(1 for v in forced.values() if v == "yes")
            assert report.score == pytest.approx(full_yes / len(ids))

    def test_deterministic_given_scripts(self, tmp_path):
        g = motorcycle_graph()
        img = image(tmp_path)
        reports = []
        for _ in range(2):
            vqa = MockBackend(name="vqa").script_vqa("Is there a fence?", "no").script_vqa("*", "yes")
            reports.append(evaluate_image(img, g, vqa))
        assert reports[0] == reports[1]

    def test_unparseable_answer_propagates(self, tmp_path):
        g = chain_graph("p", 2, set())
        vqa = MockBackend(name="vqa").script_vqa("*", "hard to say")
        with pytest.raises(UnparseableAnswer):
            evaluate_image(image(tmp_path), g, vqa)


class TestFanOut:
    def test_wide_level_overlaps_within_the_worker_bound(self, tmp_path, journal):
        g = chain_graph("p", 24, set())  # one level of 24 questions
        vqa = SlowMock(name="vqa").script_vqa("*", "yes")
        report = evaluate_image(image(tmp_path), g, vqa)
        assert report.score == 1.0 and len(journal) == 24
        assert 1 < vqa.gauge.peak["answer_binary"] <= reflection.POOL_WORKERS

    def test_lowest_failing_id_raises_after_the_level_completes(self, tmp_path, journal):
        # Roots 1-6 form one level; 7 depends on 1. Questions 3 and 5 fail
        # with errors that are not retried, 5 first.
        g = chain_graph("p", 7, {(1, 7)})
        vqa = (
            SlowMock(name="vqa", delays={"Is there thing 3?": 0.02})
            .script_vqa("Is there thing 5?", ContentRejected("five"))
            .script_vqa("Is there thing 3?", AuthFailure("three"))
            .script_vqa("*", "yes")
        )
        img = image(tmp_path)
        with pytest.raises(AuthFailure, match="three"):
            evaluate_image(img, g, vqa)
        records = journal.records()
        asked = [VqaRequest(image=img, question=f"Is there thing {i}?") for i in range(1, 7)]
        # every call made is journaled, in id order; 7 waits on level 1 and is never asked
        assert [r.digest for r in records] == [request_digest(q) for q in asked]
        assert [r.ok for r in records] == [True, True, False, True, False, True]

    def test_join_journals_tasks_in_task_order(self, journal):
        # Each task waits for the next one to finish, so they finish in
        # reverse order; tasks 1 and 2 fail, 2 first.
        llm = (
            MockBackend(name="llm")
            .script_text("t1", ContentRejected("one"))
            .script_text("t2", AuthFailure("two"))
            .script_text("*", "ok")
        )
        requests = [TextGenRequest(preamble="p", exemplars=(), input=f"t{i}") for i in range(4)]
        finished = [threading.Event() for _ in requests]
        order = []

        def complete(i):
            try:
                if i + 1 < len(requests):
                    assert finished[i + 1].wait(timeout=10)
                return llm.complete(requests[i])
            finally:
                order.append(i)
                finished[i].set()

        tasks = [reflection.submit(complete, i) for i in range(len(requests))]
        with pytest.raises(ContentRejected, match="one"):
            reflection.join(tasks)
        assert order == [3, 2, 1, 0]
        assert [r.digest for r in journal.records()] == [request_digest(r) for r in requests]
        assert [r.ok for r in journal.records()] == [True, False, False, True]

    def test_first_call_under_the_gate_keeps_the_evaluation_serial(self, tmp_path, monkeypatch):
        def no_submit(*args):
            raise AssertionError("answers under FAN_OUT_MIN_S must not fan out")

        # A fake clock makes every call the backend records take half the
        # gate, however loaded the host.
        clock = itertools.count(0.0, reflection.FAN_OUT_MIN_S / 2)
        fake_time = SimpleNamespace(monotonic=lambda: next(clock), sleep=time.sleep)
        monkeypatch.setattr(backends_base, "time", fake_time)
        monkeypatch.setattr(reflection, "POOL", SimpleNamespace(submit=no_submit))
        g = chain_graph("p", 12, set())
        vqa = MockBackend(name="vqa").script_vqa("*", "yes")
        # the first evaluation reads its first answer's latency, the second the last answer's
        for _ in range(2):
            assert evaluate_image(image(tmp_path), g, vqa).vqa_call_count == 12
        assert vqa.last_latency_s("answer_binary") == pytest.approx(reflection.FAN_OUT_MIN_S / 2)

    def test_a_backend_that_has_answered_asks_a_first_level_together(self, tmp_path):
        # Every root waits until all of them are in flight; asked one at a time
        # they break the barrier.
        roots = 6
        barrier = threading.Barrier(roots)

        class GatedMock(MockBackend):
            def _send_vqa(self, req):
                if req.question.startswith("Is there thing"):
                    barrier.wait(timeout=5)
                else:
                    time.sleep(2 * reflection.FAN_OUT_MIN_S)
                return super()._send_vqa(req)

        img = image(tmp_path)
        vqa = GatedMock(name="vqa").script_vqa("*", "yes")
        assert vqa.answer_binary(VqaRequest(image=img, question="Warm up?"))
        report = evaluate_image(img, chain_graph("p", roots, set()), vqa)
        assert report.score == 1.0 and report.vqa_call_count == roots

    def test_a_backend_that_never_answered_asks_its_first_question_alone(self, tmp_path):
        lock, in_flight, overlaps = threading.Lock(), set(), set()

        class OverlapMock(SlowMock):
            def _send_vqa(self, req):
                with lock:
                    overlaps.update(frozenset((req.question, other)) for other in in_flight)
                    in_flight.add(req.question)
                try:
                    return super()._send_vqa(req)
                finally:
                    with lock:
                        in_flight.discard(req.question)

        vqa = OverlapMock(name="vqa").script_vqa("*", "yes")
        evaluate_image(image(tmp_path), chain_graph("p", 6, set()), vqa)
        assert overlaps  # the other five went out together
        assert not any("Is there thing 1?" in pair for pair in overlaps)


class TestAlignmentScore:
    def _report(self, yes, no, pruned):
        n = yes + no + pruned
        edges = set()
        # give pruned questions a no-answered parent (question 1 must be a no)
        if pruned:
            assert no >= 1
            edges = {(1, i) for i in range(yes + no + 1, n + 1)}
        g = chain_graph("p", n, edges)
        answers = {}
        for i in range(1, n + 1):
            if i <= yes:
                answers[i] = YES
            elif i <= yes + no:
                answers[i] = NO
            else:
                answers[i] = PRUNED_NO
        # move the no-answered parent to id 1 when pruning is involved
        if pruned:
            answers[1], answers[yes + 1] = answers[yes + 1], answers[1]
        missing = frozenset(i for i, a in answers.items() if a is not YES)
        calls = sum(1 for a in answers.values() if a is not PRUNED_NO)
        score = yes / n if n else 1.0
        return ReflectionReport(g, answers, missing, score, calls)

    def test_six_of_eight(self):
        assert alignment_score(self._report(6, 2, 0)) == pytest.approx(0.75)

    def test_empty_graph_convention(self):
        g = chain_graph("p", 0, set())
        report = ReflectionReport(g, {}, frozenset(), 1.0, 0)
        assert alignment_score(report) == 1.0

    def test_two_yes_two_no_one_pruned(self):
        assert alignment_score(self._report(2, 2, 1)) == pytest.approx(0.4)


class TestTemplateData:
    def test_default_set_has_all_stages(self, templates):
        for stage in ("tuples", "questions", "dependencies", "expansion", "regeneration", "decoration"):
            st = templates.stage(stage)
            assert st.preamble
            assert len(st.exemplars) >= 10

    def test_bundled_dsg_exemplars_parse_and_build(self, templates):
        from promptrefine.scene_graph import build_graph, parse_dependencies

        tuple_shots = templates.stage("tuples").exemplars
        question_shots = templates.stage("questions").exemplars
        dep_shots = templates.stage("dependencies").exemplars
        for (prompt, t_out), (_, q_out), (_, d_out) in zip(tuple_shots, question_shots, dep_shots):
            graph = build_graph(
                prompt, parse_tuples(t_out), parse_questions(q_out), parse_dependencies(d_out)
            )
            assert graph.question_ids()

    def test_bundled_expansion_exemplars_parse(self, templates):
        from promptrefine.scene_graph import parse_tuple_line

        for _, out in templates.stage("expansion").exemplars:
            for no, line in enumerate(out.splitlines(), 1):
                if line.strip():
                    parse_tuple_line(line, no)

    def test_bundled_regeneration_outputs_pass_validators(self, templates):
        for _, out in templates.stage("regeneration").exemplars:
            assert out.strip()
            assert "|" not in out
            assert len(out) <= 480

    def test_missing_stage_raises(self, tmp_path):
        from promptrefine.templates import TemplateError

        stage_dir = tmp_path / "tuples"
        (stage_dir / "examples").mkdir(parents=True)
        (stage_dir / "preamble.txt").write_text("p")
        ts = load_template_set(tmp_path)
        with pytest.raises(TemplateError):
            ts.stage("questions")
