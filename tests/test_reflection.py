import contextvars
import functools
import itertools
import random
import threading
import time
from contextlib import nullcontext
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptrefine import reflection
from promptrefine.backends import base as backends_base
from promptrefine.backends import (
    AuthFailure,
    CallJournal,
    ContentRejected,
    MockBackend,
    TextGenRequest,
    UnparseableAnswer,
    VqaRequest,
    recording,
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
    drawn,
    inline,
    journal,
    motorcycle_graph,
    random_dag,
    replay,
    scheduled,
    warmed,
)
from oracles import bf_ask_order, bf_prune_simulation


@pytest.fixture(scope="module")
def templates():
    return default_template_set()


def scripted_llm(tuples=MOTORCYCLE_TUPLES, questions=MOTORCYCLE_QUESTIONS, deps=MOTORCYCLE_DEPENDENCIES,
                 cls=MockBackend):
    return (
        cls(name="llm")
        .script_text("*", tuples, preamble="*Decompose*")
        .script_text("*", questions, preamble="*yes/no verification questions*")
        .script_text("*", deps, preamble="*presume*")
    )


def image(tmp_path):
    from promptrefine.backends import ImageRef

    p = tmp_path / "img.png"
    p.write_bytes(PNG_WHITE)
    return ImageRef.from_file(p)


@pytest.fixture(scope="module")
def png(tmp_path_factory):
    return image(tmp_path_factory.mktemp("png"))


def unpooled(options):
    """A schedule for code that must not pool: any choice fails the test."""
    raise AssertionError("calls under FAN_OUT_MIN_S must not go to the pool")


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
        llm._entries["complete"][0].responses = ["garbage", "more garbage", MOTORCYCLE_TUPLES]
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
        llm._entries["complete"][1].responses = ["1 | Only one question?", MOTORCYCLE_QUESTIONS]
        graph = build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert graph == motorcycle_graph()

    def test_cyclic_dependencies_retry_dependency_stage(self, templates):
        llm = scripted_llm()
        llm._entries["complete"][2].responses = [
            "1 | 2\n2 | 1\n3 | 0\n4 | 0\n5 | 0",
            MOTORCYCLE_DEPENDENCIES,
        ]
        graph = build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert graph == motorcycle_graph()

    def test_empty_prompt_rejected(self, templates):
        with pytest.raises(ValueError):
            build_dsg("  ", MockBackend(), templates)


QUESTIONS_MARK = "yes/no verification questions"
DEPENDENCIES_MARK = "presume"


def slow_llm(cls=SlowMock, **stages):
    """scripted_llm on a mock whose text calls take twice FAN_OUT_MIN_S."""
    return scripted_llm(cls=functools.partial(cls, op_delays={"complete": 2 * reflection.FAN_OUT_MIN_S}), **stages)


def response_digests(*blocks):
    return [backends_base.sha256_hex(b) for b in blocks]


class TestConcurrentBuildDsg:
    """A slow llm is asked the questions and dependencies stages together."""

    @pytest.mark.real_threads
    def test_both_stages_are_in_flight_at_once(self, templates, journal):
        # Each stage waits until the other is in flight; asked one after the
        # other they break the barrier.
        barrier = threading.Barrier(2)

        class BarrierLlm(SlowMock):
            def _send_text(self, req):
                if QUESTIONS_MARK in req.preamble or DEPENDENCIES_MARK in req.preamble:
                    barrier.wait(timeout=5)
                return super()._send_text(req)

        graph = build_dsg(MOTORCYCLE_PROMPT, slow_llm(BarrierLlm), templates)
        assert graph == motorcycle_graph() and len(journal) == 3

    def test_a_fast_llm_stays_serial(self, templates, journal):
        with scheduled(unpooled, fan_out_min_s=reflection.FAN_OUT_MIN_S):
            assert build_dsg(MOTORCYCLE_PROMPT, scripted_llm(), templates) == motorcycle_graph()
        assert len(journal) == 3

    @pytest.mark.real_threads
    def test_journal_keeps_the_serial_order_when_dependencies_answer_first(self, templates, journal):
        answered = threading.Event()

        class DependenciesFirst(SlowMock):
            def _send_text(self, req):
                if QUESTIONS_MARK in req.preamble:
                    assert answered.wait(timeout=5)
                try:
                    return super()._send_text(req)
                finally:
                    if DEPENDENCIES_MARK in req.preamble:
                        answered.set()

        graph = build_dsg(MOTORCYCLE_PROMPT, slow_llm(DependenciesFirst), templates)
        assert graph == motorcycle_graph()
        assert [r.response_digest for r in journal.records()] == response_digests(
            MOTORCYCLE_TUPLES, MOTORCYCLE_QUESTIONS, MOTORCYCLE_DEPENDENCIES
        )

    # The laws below hold whichever schedule the pool follows: the questions
    # stage may run at its submit, before the dependencies stage is asked, or
    # be taken back by settle once the dependencies stage has parsed.

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_question_id_mismatch_reasks_only_the_questions_stage(self, templates, data):
        llm = scripted_llm()
        llm._entries["complete"][1].responses = ["1 | Only one question?", MOTORCYCLE_QUESTIONS]
        with scheduled(drawn(data)), recording(CallJournal()) as journal:
            assert build_dsg(MOTORCYCLE_PROMPT, llm, templates) == motorcycle_graph()
        assert [r.response_digest for r in journal.records()] == response_digests(
            MOTORCYCLE_TUPLES, "1 | Only one question?", MOTORCYCLE_QUESTIONS, MOTORCYCLE_DEPENDENCIES
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_cycle_reasks_only_the_dependencies_stage(self, templates, data):
        cyclic = "1 | 2\n2 | 1\n3 | 0\n4 | 0\n5 | 0"
        llm = scripted_llm()
        llm._entries["complete"][2].responses = [cyclic, MOTORCYCLE_DEPENDENCIES]
        with scheduled(drawn(data)), recording(CallJournal()) as journal:
            assert build_dsg(MOTORCYCLE_PROMPT, llm, templates) == motorcycle_graph()
        assert [r.response_digest for r in journal.records()] == response_digests(
            MOTORCYCLE_TUPLES, MOTORCYCLE_QUESTIONS, cyclic, MOTORCYCLE_DEPENDENCIES
        )

    @pytest.mark.parametrize(
        "dispatch, deps, dependency_calls",
        [
            ("serial", MOTORCYCLE_DEPENDENCIES, 0),  # never asked
            ("scheduled", MOTORCYCLE_DEPENDENCIES, 1),  # parses, then waits for the questions
            ("scheduled", "garbage", 3),  # runs out of attempts on its own
            pytest.param("threads", MOTORCYCLE_DEPENDENCIES, 1, marks=pytest.mark.real_threads),
            pytest.param("threads", "garbage", 3, marks=pytest.mark.real_threads),
        ],
        ids=["serial", "dependencies-valid", "dependencies-invalid", "threads-valid", "threads-invalid"],
    )
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_an_exhausted_questions_stage_raises_its_own_error(
        self, templates, dispatch, deps, dependency_calls, data
    ):
        if dispatch == "threads":
            llm, pool = slow_llm(questions="garbage", deps=deps), nullcontext()
        else:
            llm = scripted_llm(questions="garbage", deps=deps)
            pool = scheduled(drawn(data), fan_out_min_s=0.0 if dispatch == "scheduled" else float("inf"))
        with pool, recording(CallJournal()) as journal, pytest.raises(StageExhausted) as exc:
            build_dsg(MOTORCYCLE_PROMPT, llm, templates)
        assert (exc.value.stage, exc.value.attempts) == ("questions", 3)
        # the dependencies calls an overlapping build made stay in the journal, after the questions
        assert [r.response_digest for r in journal.records()] == response_digests(
            MOTORCYCLE_TUPLES, *["garbage"] * 3, *[deps] * dependency_calls
        )

    def test_settle_runs_a_task_no_worker_has_started_here(self, journal):
        llm = MockBackend(name="llm").script_text("*", "ok")
        req = TextGenRequest(preamble="p", exemplars=(), input="x")
        # the first submit goes on with its task queued; the second starts its task
        with scheduled(replay([1, 0])) as pool:
            queued = reflection.submit(llm.complete, req)
            assert reflection.join([reflection.settle(queued)]) == ["ok"]
            assert queued[0].cancelled()  # taken back: no worker will run it again
            started = reflection.submit(llm.complete, req)
            assert started[0].done()
            assert reflection.join([reflection.settle(started)]) == ["ok"]
            assert not started[0].cancelled()
        assert pool.schedule == [1, 0]
        assert [r.digest for r in journal.records()] == [request_digest(req)] * 2

    def test_a_task_taken_back_by_settle_journals_in_its_own_slot(self, journal):
        llm = MockBackend(name="llm").script_text("*", "ok")
        queued_req, later_req = (TextGenRequest(preamble="p", exemplars=(), input=x) for x in ("queued", "later"))
        with scheduled(replay([1])):
            queued = reflection.submit(llm.complete, queued_req)
            llm.complete(later_req)
            # taken back under another recording, it still journals where it was submitted
            with recording(CallJournal()) as elsewhere:
                assert reflection.join([reflection.settle(queued)]) == ["ok"]
        assert queued[0].cancelled() and len(elsewhere) == 0
        assert [r.digest for r in journal.records()] == [request_digest(queued_req), request_digest(later_req)]


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
    @pytest.mark.real_threads
    def test_wide_level_overlaps_within_the_worker_bound(self, tmp_path, journal):
        g = chain_graph("p", 24, set())  # one level of 24 questions
        vqa = SlowMock(name="vqa").script_vqa("*", "yes")
        report = evaluate_image(image(tmp_path), g, vqa)
        assert report.score == 1.0 and len(journal) == 24
        assert 1 < vqa.gauge.peak["answer_binary"] <= reflection.POOL_WORKERS

    @pytest.mark.real_threads
    def test_lowest_failing_id_raises_after_the_calls_in_flight_finish(self, tmp_path, journal):
        # Roots 1-6 are asked together; 7 depends on 1. Question 1 answers at
        # once, so 7 is asked while 3 and 5 are in flight. Both then fail with
        # errors that are not retried, 5 first.
        seven_started, five_failed = threading.Event(), threading.Event()

        class Ordered(MockBackend):
            def _send_vqa(self, req):
                if req.question in ("Is there thing 3?", "Is there thing 5?"):
                    assert seven_started.wait(timeout=5)
                if req.question == "Is there thing 3?":
                    assert five_failed.wait(timeout=5)
                if req.question == "Is there thing 7?":
                    seven_started.set()
                try:
                    return super()._send_vqa(req)
                finally:
                    if req.question == "Is there thing 5?":
                        five_failed.set()

        g = chain_graph("p", 7, {(1, 7)})
        vqa = (
            Ordered(name="vqa")
            .script_vqa("Is there thing 5?", ContentRejected("five"))
            .script_vqa("Is there thing 3?", AuthFailure("three"))
            .script_vqa("*", "yes")
        )
        img = image(tmp_path)
        with pytest.raises(AuthFailure, match="three"):
            evaluate_image(img, g, vqa)
        records = journal.records()
        asked = [VqaRequest(image=img, question=f"Is there thing {i}?") for i in range(1, 8)]
        # every call made is journaled, in (level, id) order
        assert [r.digest for r in records] == [request_digest(q) for q in asked]
        assert [r.ok for r in records] == [True, True, False, True, False, True, True]

    def test_nothing_is_asked_after_a_failure(self, tmp_path, journal):
        # Roots 1 and 2 stay queued until the evaluation waits; then 1 runs and
        # fails, the evaluation takes that in, 2 answers yes, and its child 3
        # is never asked.
        vqa = MockBackend(name="vqa").script_vqa("Is there thing 1?", AuthFailure("one")).script_vqa("*", "yes")
        img = image(tmp_path)
        # go on at both submits; at the wait start root 1, then go on
        with scheduled(replay([1, 2, 0, 1])) as pool, pytest.raises(AuthFailure, match="one"):
            evaluate_image(img, chain_graph("p", 3, {(2, 3)}), vqa)
        assert pool.schedule == [1, 2, 0, 1]
        asked = [VqaRequest(image=img, question=f"Is there thing {i}?") for i in (1, 2)]
        assert [(r.digest, r.ok) for r in journal.records()] == [
            (request_digest(asked[0]), False), (request_digest(asked[1]), True)
        ]

    @pytest.mark.real_threads
    def test_a_child_is_asked_while_an_unrelated_root_is_unanswered(self, tmp_path, journal):
        # Root A (1) is held until C (3), whose only parent is root B (2), has
        # started. D (4) depends on A. A level barrier would hold C until A
        # answers, and A would wait out its timeout.
        c_started, a_answered = threading.Event(), threading.Event()
        a_answered_at_start = {}

        class Held(MockBackend):
            def _send_vqa(self, req):
                a_answered_at_start[req.question] = a_answered.is_set()
                if req.question == "Is there thing 3?":
                    c_started.set()
                if req.question != "Is there thing 1?":
                    return super()._send_vqa(req)
                a_answered_at_start["C started first"] = c_started.wait(timeout=5)
                try:
                    return super()._send_vqa(req)
                finally:
                    a_answered.set()

        img = image(tmp_path)
        vqa = Held(name="vqa").script_vqa("*", "yes")
        report = evaluate_image(img, chain_graph("p", 4, {(2, 3), (1, 4)}), vqa)
        assert report.score == 1.0 and report.vqa_call_count == 4
        assert a_answered_at_start["C started first"]
        assert a_answered_at_start["Is there thing 3?"] is False
        assert a_answered_at_start["Is there thing 4?"] is True  # no child of A before A answers
        asked = [VqaRequest(image=img, question=f"Is there thing {i}?") for i in range(1, 5)]
        assert [r.digest for r in journal.records()] == [request_digest(q) for q in asked]

    @pytest.mark.parametrize("pool", ["scheduled", pytest.param("threads", marks=pytest.mark.real_threads)])
    @settings(max_examples=40, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        answers=st.lists(st.sampled_from(["yes", "no"]), min_size=12, max_size=12),
        data=st.data(),
    )
    def test_dataflow_gives_the_serial_report_and_journal(self, png, pool, rng, answers, data):
        """On a drawn schedule, or on the real pool with each question
        sleeping a drawn time, the dataflow walk gives the serial report and
        journal."""
        ids, pairs = random_dag(rng)
        g = chain_graph("p", len(ids), pairs)
        texts = {i: f"Is there thing {i}?" for i in ids}
        if pool == "scheduled":
            flowing, dispatch = MockBackend(name="vqa"), scheduled(drawn(data))
        else:
            delays = data.draw(st.lists(st.sampled_from([0.0, 0.001, 0.003]), min_size=len(ids), max_size=len(ids)))
            flowing, dispatch = SlowMock(name="vqa", delays={texts[i]: delays[i - 1] for i in ids}), nullcontext()
        serial_vqa = warmed(MockBackend(name="vqa"), png)
        for i in ids:
            flowing.script_vqa(texts[i], answers[i - 1])
            serial_vqa.script_vqa(texts[i], answers[i - 1])
        with dispatch, recording(CallJournal()) as flowing_journal:
            assert reflection._fan_out(flowing, "answer_binary")
            got = evaluate_image(png, g, flowing)
        with pytest.MonkeyPatch.context() as m, recording(CallJournal()) as serial_journal:
            m.setattr(reflection, "FAN_OUT_MIN_S", float("inf"))
            assert not reflection._fan_out(serial_vqa, "answer_binary")
            want = evaluate_image(png, g, serial_vqa)
        assert list(got.answers.items()) == list(want.answers.items())
        assert (got.missing_ids, got.score, got.vqa_call_count) == (
            want.missing_ids, want.score, want.vqa_call_count
        )
        queried, _, _, _ = bf_prune_simulation(ids, pairs, {i: answers[i - 1] for i in ids})
        want_journal = [request_digest(VqaRequest(image=png, question=texts[i]))
                        for i in bf_ask_order(ids, pairs, queried)]
        assert [r.digest for r in flowing_journal.records()] == want_journal
        assert [r.digest for r in serial_journal.records()] == want_journal

    @pytest.mark.real_threads
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
        # A fake clock makes every call the backend records take half the
        # gate, however loaded the host.
        clock = itertools.count(0.0, reflection.FAN_OUT_MIN_S / 2)
        fake_time = SimpleNamespace(monotonic=lambda: next(clock), sleep=time.sleep)
        monkeypatch.setattr(backends_base, "time", fake_time)
        g = chain_graph("p", 12, set())
        img = image(tmp_path)
        vqa = MockBackend(name="vqa").script_vqa("*", "yes")
        # a backend that has never answered fans out, so this one answers first
        assert vqa.answer_binary(VqaRequest(image=img, question="Warm up?"))
        # each evaluation reads the last answer's latency
        with scheduled(unpooled, fan_out_min_s=reflection.FAN_OUT_MIN_S):
            for _ in range(2):
                assert evaluate_image(img, g, vqa).vqa_call_count == 12
        assert vqa.last_latency_s("answer_binary") == pytest.approx(reflection.FAN_OUT_MIN_S / 2)

    @pytest.mark.real_threads
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

    @pytest.mark.real_threads
    def test_a_backend_that_never_answered_asks_its_first_level_together(self, tmp_path):
        # Every root waits until all of them are in flight; asked one at a time
        # they break the barrier.
        roots = 6
        barrier = threading.Barrier(roots)

        class GatedMock(SlowMock):
            def _send_vqa(self, req):
                barrier.wait(timeout=5)
                return super()._send_vqa(req)

        vqa = GatedMock(name="vqa").script_vqa("*", "yes")
        assert vqa.last_latency_s("answer_binary") is None
        report = evaluate_image(image(tmp_path), chain_graph("p", roots, set()), vqa)
        assert report.score == 1.0 and report.vqa_call_count == roots
        assert vqa.gauge.peak["answer_binary"] == roots

    @pytest.mark.real_threads
    def test_a_pooled_task_is_journaled_where_it_was_submitted(self, journal):
        # The task's call returns after a later call on this thread; it is
        # still journaled first, in the slot that its submit took.
        llm = MockBackend(name="llm").script_text("*", "ok")
        first, later = (TextGenRequest(preamble="p", exemplars=(), input=x) for x in ("first", "later"))
        asked_later = threading.Event()

        def ask_first():
            assert asked_later.wait(timeout=10)
            return llm.complete(first)

        task = reflection.submit(ask_first)
        llm.complete(later)
        asked_later.set()
        assert reflection.join([task]) == ["ok"]
        assert [r.digest for r in journal.records()] == [request_digest(first), request_digest(later)]


# A context variable that pooled tasks read and set.
SEEN = contextvars.ContextVar("seen", default="unset")


class TestSubmitContext:
    """A pooled task runs in a copy of its submitter's context."""

    @staticmethod
    def read_then_set():
        seen = SEEN.get()
        SEEN.set("set by the task")
        return seen

    @pytest.mark.parametrize("dispatch", [pytest.param("threads", marks=pytest.mark.real_threads), "scheduled"])
    def test_a_task_sees_its_submitters_value_and_keeps_its_own(self, dispatch):
        # Submitted one after another, the tasks share workers: a value one
        # task set stays out of the next task on its worker, and out of here.
        token = SEEN.set("submitter")
        try:
            with scheduled(inline) if dispatch == "scheduled" else nullcontext():
                for _ in range(2 * reflection.POOL_WORKERS):
                    assert reflection.join([reflection.submit(self.read_then_set)]) == ["submitter"]
            assert SEEN.get() == "submitter"
        finally:
            SEEN.reset(token)

    def test_a_task_taken_back_by_settle_sees_its_submitters_value(self):
        token = SEEN.set("submitter")
        try:
            with scheduled(replay([1])):  # the submit goes on with its task queued
                queued = reflection.submit(self.read_then_set)
                SEEN.set("settler")
                assert reflection.join([reflection.settle(queued)]) == ["submitter"]
            assert queued[0].cancelled() and SEEN.get() == "settler"
        finally:
            SEEN.reset(token)


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
