"""Self-reflection: build the question graph for a prompt, then evaluate a
generated image against it with entailment-based pruning."""

from __future__ import annotations

import contextvars
import functools
import heapq
import logging
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from promptrefine import scene_graph as sg
from promptrefine.backends.base import (
    Backend,
    CallJournal,
    ImageRef,
    VqaRequest,
    current_journal,
    recording,
)
from promptrefine.templates import StageExhausted, TemplateSet, run_stage

logger = logging.getLogger(__name__)


class AnswerValue(str, Enum):
    YES = "yes"
    NO = "no"
    PRUNED_NO = "pruned_no"


class AnswerSource(str, Enum):
    VQA = "vqa"
    PRUNED = "pruned"


@dataclass(frozen=True)
class Answer:
    value: AnswerValue
    source: AnswerSource

    def __post_init__(self):
        if (self.value is AnswerValue.PRUNED_NO) != (self.source is AnswerSource.PRUNED):
            raise ValueError(f"inconsistent answer: {self.value} from {self.source}")


YES = Answer(AnswerValue.YES, AnswerSource.VQA)
NO = Answer(AnswerValue.NO, AnswerSource.VQA)
PRUNED_NO = Answer(AnswerValue.PRUNED_NO, AnswerSource.PRUNED)


@dataclass(frozen=True)
class ReflectionReport:
    """Per-question answers for one image, the missing set, and the score."""

    graph: sg.SceneGraph
    answers: Dict[int, Answer]
    missing_ids: FrozenSet[int]
    score: float
    vqa_call_count: int

    def __post_init__(self):
        # Each fault names its field, so a record read back reports it at
        # reports[i].<field>.
        ids = set(self.graph.question_ids())
        if set(self.answers) != ids:
            raise sg.SchemaViolation("answers", "must cover every question id exactly")
        expect_missing = {
            i for i, a in self.answers.items() if a.value is not AnswerValue.YES
        }
        if set(self.missing_ids) != expect_missing:
            raise sg.SchemaViolation("missing_ids", "inconsistent with answers")
        if self.vqa_call_count != sum(
            1 for a in self.answers.values() if a.source is AnswerSource.VQA
        ):
            raise sg.SchemaViolation("vqa_call_count", "inconsistent with answers")
        if not abs(self.score - _score(self.answers)) <= 1e-12:  # NaN included
            raise sg.SchemaViolation("score", "inconsistent with answers")


def _score(answers: Dict[int, Answer]) -> float:
    if not answers:
        return 1.0
    yes = sum(1 for a in answers.values() if a.value is AnswerValue.YES)
    return yes / len(answers)


def render_prompt_tuples_input(prompt: str, tuples: Iterable[sg.ConceptTuple]) -> str:
    """The input of the questions and the dependencies stages."""
    return f"Prompt: {prompt}\nTuples:\n{sg.render_tuples(tuples)}"


def build_dsg(
    prompt: str,
    llm: Backend,
    templates: TemplateSet,
) -> sg.SceneGraph:
    """Three staged text-model calls: tuples, then questions and dependencies.

    Each stage's output is parsed and validated; invalid output re-invokes that
    stage up to STAGE_ATTEMPTS times before StageExhausted. The questions and
    the dependencies stages both take the prompt and the tuples. If the llm's
    last call took at least FAN_OUT_MIN_S, the questions stage is asked on the
    shared pool while the dependencies stage is asked here; otherwise they are
    asked one after the other. The graph, the journal order and the error
    raised are the same either way, but when the questions stage fails the
    dependencies stage has been asked too.
    """
    if not prompt.strip():
        raise ValueError("prompt must be non-empty")

    tuples = run_stage(llm, templates.stage("tuples"), prompt, sg.parse_tuples)

    def parse_matching_questions(raw: str):
        questions = sg.parse_questions(raw)
        if sorted(q.id for q in questions) != [t.id for t in tuples]:
            raise sg.CountMismatch(
                f"question ids {sorted(q.id for q in questions)} "
                f"do not cover tuple ids 1..{len(tuples)}"
            )
        return questions

    prompt_and_tuples = render_prompt_tuples_input(prompt, tuples)
    ask_questions = functools.partial(
        run_stage, llm, templates.stage("questions"), prompt_and_tuples, parse_matching_questions
    )

    def ask_dependencies(questions: Callable[[], Sequence[sg.Question]]) -> sg.SceneGraph:
        def parse_and_assemble(raw: str):
            edges = sg.parse_dependencies(raw)  # invalid syntax re-asks without waiting for questions
            return sg.build_graph(prompt, tuples, questions(), edges)

        return run_stage(llm, templates.stage("dependencies"), prompt_and_tuples, parse_and_assemble)

    if not _fan_out(llm, "complete"):
        questions = ask_questions()
        return ask_dependencies(lambda: questions)

    task = submit(ask_questions)  # its slot comes before every dependencies call

    def asked_questions():
        nonlocal task
        task = settle(task)
        return task[0].result()  # a failed questions stage ends the dependencies stage

    try:
        return ask_dependencies(asked_questions)
    finally:
        # A failed questions stage raises its own error, as it would have
        # before the dependencies.
        join([settle(task)])


# At most 8 pooled requests in flight per process; one run's evaluation thus
# stays under urllib3's 10 pooled connections per host.
POOL_WORKERS = 8
# A thread handoff costs ~50 us of CPU per question; only slower calls gain from overlap.
FAN_OUT_MIN_S = 0.001

# Shared by the VQA fan-out, the question-graph build that run_single starts
# beside the first generate, the build's questions stage and bench embeds.
# A task on it may wait only on a task that it can take back and run itself
# (``settle``), so sharing cannot deadlock: the build settles its questions
# stage. Threads start on the first submit, so an unused pool costs nothing.
# Each task runs in a copy of its submitter's context (see ``submit``), so a
# worker thread carries no context from one task to the next.
# Pooled work meets the rest of the program at three scheduling points only:
# ``POOL.submit``, this module's ``wait`` and ``Future.cancel``. Whoever owns
# those three (the pool, or a test's scheduler) decides every interleaving.
POOL = ThreadPoolExecutor(max_workers=POOL_WORKERS, thread_name_prefix="promptrefine-io")


def _ask(vqa: Backend, image: ImageRef, graph: sg.SceneGraph, qid: int) -> bool:
    return vqa.answer_binary(VqaRequest(image=image, question=graph.question_by_id(qid).text))


Task = Tuple[Future, Callable[[], Any]]  # a pooled task's future, and the closure the pool runs


def submit(fn, *args, slot: Optional[CallJournal] = None) -> Task:
    """Start ``fn(*args)`` on POOL (the ``POOL.submit`` scheduling point);
    collect it with ``join``. It runs in a copy of the submitter's context,
    on a worker or, taken back by ``settle``, wherever it is settled, so it
    sees the context variables set where it was submitted (such as the HTTP
    backend's image slot), and those it sets stay its own. Its calls are
    journaled where it was submitted: in ``slot``, a slot reserved earlier,
    or else in a new slot of the current journal."""
    journal = current_journal()
    if slot is None and journal is not None:
        slot = journal.slot()

    def run():
        with recording(slot):
            return fn(*args)

    run = functools.partial(contextvars.copy_context().run, run)
    return POOL.submit(run), run


def join(tasks: Sequence[Task]) -> list:
    """Wait for every task (the ``wait`` scheduling point) and return their
    results; the first failing task in order raises its error."""
    wait([future for future, _ in tasks])
    return [future.result() for future, _ in tasks]


def settle(task: Task) -> Task:
    """``task`` once it is done. If no worker has started it (the
    ``Future.cancel`` scheduling point succeeds), it is taken back and run on
    this thread: a pool task waiting on a queued task could otherwise hold a
    worker that the queued task needs. Else it waits for the worker (the
    ``wait`` scheduling point). Collect the result with ``join``."""
    future, run = task
    if not future.cancel():
        wait([future])
        return task
    done: Future = Future()
    try:
        done.set_result(run())
    except Exception as exc:  # noqa: BLE001 - kept for join, as a pool keeps it
        done.set_exception(exc)
    return done, run


def _fan_out(backend: Backend, op: str) -> bool:
    """Whether ``op`` calls may overlap: unless the last one took under FAN_OUT_MIN_S."""
    latency = backend.last_latency_s(op)
    return latency is None or latency >= FAN_OUT_MIN_S


def evaluate_image(image: ImageRef, graph: sg.SceneGraph, vqa: Backend) -> ReflectionReport:
    """Answer the graph's questions about an image.

    A question is asked once all its parents are answered yes, so a No
    answer marks every dependent question as missing without querying it.
    If the backend's last answer took under FAN_OUT_MIN_S, the ready
    questions are asked here, one at a time, lowest (level, id) first.
    Otherwise they go to the shared pool as they become ready, unless one is
    ready and none is in flight: that one is asked here. Pooled calls are
    journaled in slots reserved in (level, id) order, so answers, pruning,
    the call count and the journal are the same either way. After a failure
    nothing new is asked; the calls in flight finish, and the first failing
    question's error in (level, id) order is raised.
    """
    pooled = _fan_out(vqa, "answer_binary")
    order, rank = graph.order, graph.rank
    journal = current_journal()
    slots = {qid: journal.slot() for qid in order} if pooled and journal is not None else {}
    waiting = dict(graph.parent_counts)  # parents not yet answered yes
    ready = [i for i, qid in enumerate(order) if not waiting[qid]]  # a heap of ranks
    in_flight: Dict[Future, int] = {}
    asked: Dict[int, bool] = {}
    failures: Dict[int, BaseException] = {}
    while ready or in_flight:
        if not pooled:
            qid = order[heapq.heappop(ready)]
            is_yes = _ask(vqa, image, graph, qid)
        elif len(ready) == 1 and not in_flight:
            qid = order[ready.pop()]
            with recording(slots.get(qid)):  # nothing else in flight: its error is the first
                is_yes = _ask(vqa, image, graph, qid)
        else:
            for i in sorted(ready):
                qid = order[i]
                future, _ = submit(_ask, vqa, image, graph, qid, slot=slots.get(qid))
                in_flight[future] = qid
            ready = []
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            future = min(done, key=lambda f: rank[in_flight[f]])
            qid = in_flight.pop(future)
            if future.exception() is not None:
                failures[qid] = future.exception()
                continue
            is_yes = future.result()
        asked[qid] = is_yes
        if is_yes and not failures:
            for child in graph.children_of(qid):
                waiting[child] -= 1
                if not waiting[child]:
                    heapq.heappush(ready, rank[child])
    if failures:
        raise failures[min(failures, key=rank.__getitem__)]
    answers = {qid: (YES if asked[qid] else NO) if qid in asked else PRUNED_NO for qid in order}
    missing = frozenset(i for i, a in answers.items() if a.value is not AnswerValue.YES)
    return ReflectionReport(
        graph=graph,
        answers=answers,
        missing_ids=missing,
        score=_score(answers),
        vqa_call_count=len(asked),
    )


def alignment_score(report: ReflectionReport) -> float:
    """The fraction of questions answered yes; recomputed as a consistency check."""
    recomputed = _score(report.answers)
    if abs(recomputed - report.score) > 1e-12:
        raise ValueError(f"report score {report.score} != recomputed {recomputed}")
    return report.score
