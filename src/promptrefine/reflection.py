"""Self-reflection: build the question graph for a prompt, then evaluate a
generated image against it with entailment-based pruning."""

from __future__ import annotations

import contextvars
import heapq
import logging
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, FrozenSet, Iterable

from promptrefine import scene_graph as sg
from promptrefine.backends.base import (
    Backend,
    ImageRef,
    VqaRequest,
    current_journal,
    recording,
)
from promptrefine.templates import StageExhausted, TemplateSet, run_stage

logger = logging.getLogger(__name__)


class AnswerSource(str, Enum):
    VQA = "vqa"
    PRUNED = "pruned"


class Answer(str, Enum):
    """A question's answer: yes or no from the VQA model, or no because an
    ancestor was answered no, so it was never asked."""

    YES = "yes"
    NO = "no"
    PRUNED_NO = "pruned_no"

    @property
    def source(self) -> AnswerSource:
        return AnswerSource.PRUNED if self is Answer.PRUNED_NO else AnswerSource.VQA


@dataclass(frozen=True)
class ReflectionReport:
    """Per-question answers for one image; the missing set, the score and the
    call count follow from them, computed once on first use (cached_property
    writes to the instance __dict__, so it works on a frozen dataclass)."""

    graph: sg.SceneGraph
    answers: Dict[int, Answer]

    def __post_init__(self):
        # A record read back reports the fault at reports[i].answers.
        if set(self.answers) != set(self.graph.question_ids()):
            raise sg.SchemaViolation("answers", "must cover every question id exactly")

    @cached_property
    def missing_ids(self) -> FrozenSet[int]:
        return frozenset(i for i, a in self.answers.items() if a is not Answer.YES)

    @cached_property
    def score(self) -> float:
        """The fraction of questions answered yes; 1.0 for an empty graph."""
        if not self.answers:
            return 1.0
        return sum(1 for a in self.answers.values() if a is Answer.YES) / len(self.answers)

    @cached_property
    def vqa_call_count(self) -> int:
        return sum(1 for a in self.answers.values() if a is not Answer.PRUNED_NO)


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
    stage up to STAGE_ATTEMPTS times before StageExhausted. The tuples stage
    must give at least one tuple line. The questions and the dependencies
    stages both take the prompt and the tuples: the questions stage is
    submitted while the dependencies stage is asked here, on every backend.
    The journal keeps the order tuples, questions, dependencies, and a failed
    questions stage raises its own error; by then the dependencies stage has
    been asked too, 1 to 3 times (until its answer parsed or its attempts ran
    out), and those calls stay in the journal.
    """
    if not prompt.strip():
        raise ValueError("prompt must be non-empty")

    def parse_some_tuples(raw: str):
        tuples = sg.parse_tuples(raw)
        if not tuples:
            raise sg.CountMismatch("no tuple lines")
        return tuples

    tuples = run_stage(llm, templates.stage("tuples"), prompt, parse_some_tuples)

    def parse_matching_questions(raw: str):
        questions = sg.parse_questions(raw)
        if sorted(q.id for q in questions) != [t.id for t in tuples]:
            raise sg.CountMismatch(
                f"question ids {sorted(q.id for q in questions)} "
                f"do not cover tuple ids 1..{len(tuples)}"
            )
        return questions

    def parse_and_assemble(raw: str):
        edges = sg.parse_dependencies(raw)  # invalid syntax re-asks without waiting for questions
        return sg.build_graph(prompt, tuples, questions.result(), edges)  # a failed questions stage ends this one

    prompt_and_tuples = render_prompt_tuples_input(prompt, tuples)
    # its slot comes before every dependencies call
    questions = submit(run_stage, llm, templates.stage("questions"), prompt_and_tuples, parse_matching_questions)
    try:
        return run_stage(llm, templates.stage("dependencies"), prompt_and_tuples, parse_and_assemble)
    finally:
        # A failed questions stage raises its own error, as it would have
        # before the dependencies.
        questions.result()


# At most 8 pooled requests in flight per submitting thread; one run's
# evaluation thus stays under urllib3's 10 pooled connections per host.
POOL_WORKERS = 8
# A thread handoff costs ~50 us of CPU per question; only slower answers gain from overlap.
FAN_OUT_MIN_S = 0.001

# Pooled work (the VQA fan-out, the graph build beside run_single's first
# generate, the build's questions stage, bench embeds) has one schedule per
# step; only an evaluation chooses, by FAN_OUT_MIN_S, whether to pool. It
# runs on an executor of the submitting thread's own, started on its first
# submit; its workers exit once that thread has ended.
# Invariant: a task is collected only by the thread that submitted it. A
# waiting thread thus never holds a worker that its own tasks need, and
# pooled work cannot deadlock at any bound.
# Pooled work meets the rest of the program at three scheduling points only:
# ``submit``, this module's ``wait`` and ``Future.result``. Whoever owns them
# (the executors, or a test's scheduler through ``_pool``) decides every
# interleaving.
_pools = threading.local()


def _pool() -> ThreadPoolExecutor:
    """This thread's executor, started on its first call."""
    if not hasattr(_pools, "executor"):
        _pools.executor = ThreadPoolExecutor(max_workers=POOL_WORKERS, thread_name_prefix="promptrefine-io")
    return _pools.executor


def _ask(vqa: Backend, image: ImageRef, graph: sg.SceneGraph, qid: int) -> bool:
    return vqa.answer_binary(VqaRequest(image=image, question=graph.question_by_id(qid).text))


def submit(fn, *args) -> Future:
    """Start ``fn(*args)`` on this thread's executor; collect it here with
    ``Future.result``. It runs in a copy of the submitter's context, so it
    sees the context variables set where it was submitted (such as the HTTP
    backend's image slot), and those it sets stay its own. Its calls are
    journaled where it was submitted, in a new slot of the current journal."""
    journal = current_journal()
    slot = journal.slot() if journal is not None else None

    def run():
        with recording(slot):
            return fn(*args)

    return _pool().submit(contextvars.copy_context().run, run)


def evaluate_image(image: ImageRef, graph: sg.SceneGraph, vqa: Backend) -> ReflectionReport:
    """Answer the graph's questions about an image.

    A question is asked once all its parents are answered yes, so a No
    answer marks every dependent question as missing without querying it.
    If the backend's last answer took under FAN_OUT_MIN_S, the ready
    questions are asked here, one at a time, lowest (level, id) first.
    Otherwise (a backend that has never answered included) every question
    is submitted as it becomes ready. Pooled calls are journaled in slots
    reserved in (level, id) order, so answers, pruning, the call count and
    the journal are the same either way. After a failure nothing new is
    asked; the calls in flight finish, and the first failing question's
    error in (level, id) order is raised.
    """
    latency = vqa.last_latency_s("answer_binary")
    pooled = latency is None or latency >= FAN_OUT_MIN_S
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
        else:
            for i in sorted(ready):
                qid = order[i]
                with recording(slots.get(qid)):
                    in_flight[submit(_ask, vqa, image, graph, qid)] = qid
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
    answers = {qid: (Answer.YES if asked[qid] else Answer.NO) if qid in asked else Answer.PRUNED_NO for qid in order}
    return ReflectionReport(graph, answers)
