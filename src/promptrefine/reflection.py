"""Self-reflection: build the question graph for a prompt, then evaluate a
generated image against it with entailment-based pruning."""

from __future__ import annotations

import logging
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from promptrefine import scene_graph as sg
from promptrefine.backends.base import Backend, CallJournal, ImageRef, VqaRequest, journal_calls, recording
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
        ids = set(self.graph.question_ids())
        if set(self.answers) != ids:
            raise ValueError("answers must cover every question id exactly")
        expect_missing = {
            i for i, a in self.answers.items() if a.value is not AnswerValue.YES
        }
        if set(self.missing_ids) != expect_missing:
            raise ValueError("missing_ids inconsistent with answers")
        if self.vqa_call_count != sum(
            1 for a in self.answers.values() if a.source is AnswerSource.VQA
        ):
            raise ValueError("vqa_call_count inconsistent with answers")
        if abs(self.score - _score(self.answers)) > 1e-12:
            raise ValueError("score inconsistent with answers")


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
    """Three staged text-model calls: tuples, then questions, then dependencies.

    Each stage's output is parsed and validated; invalid output re-invokes that
    stage up to STAGE_ATTEMPTS times before StageExhausted.
    """
    if not prompt.strip():
        raise ValueError("prompt must be non-empty")

    tuples, _ = run_stage(llm, templates.stage("tuples"), prompt, sg.parse_tuples)

    def parse_matching_questions(raw: str):
        questions = sg.parse_questions(raw)
        if sorted(q.id for q in questions) != [t.id for t in tuples]:
            raise sg.CountMismatch(
                f"question ids {sorted(q.id for q in questions)} "
                f"do not cover tuple ids 1..{len(tuples)}"
            )
        return questions

    prompt_and_tuples = render_prompt_tuples_input(prompt, tuples)
    questions, _ = run_stage(llm, templates.stage("questions"), prompt_and_tuples, parse_matching_questions)

    def parse_and_assemble(raw: str):
        edges = sg.parse_dependencies(raw)
        return sg.build_graph(prompt, tuples, questions, edges)

    graph, _ = run_stage(llm, templates.stage("dependencies"), prompt_and_tuples, parse_and_assemble)
    return graph


# At most 8 pooled requests in flight per process; one run's evaluation thus
# stays under urllib3's 10 pooled connections per host.
POOL_WORKERS = 8
# A thread handoff costs ~50 us of CPU per question; only slower calls gain from overlap.
FAN_OUT_MIN_S = 0.001

# Shared by the VQA fan-out and the question-graph build that run_single starts
# beside the first generate. No task on it submits to it or waits on it, so
# sharing cannot deadlock. Threads start on the first submit, so an unused
# pool costs nothing.
POOL = ThreadPoolExecutor(max_workers=POOL_WORKERS, thread_name_prefix="promptrefine-io")


def _ask(vqa: Backend, image: ImageRef, graph: sg.SceneGraph, qid: int) -> bool:
    return vqa.answer_binary(VqaRequest(image=image, question=graph.question_by_id(qid).text))


def submit(fn, *args) -> Tuple[Future, CallJournal]:
    """Start ``fn(*args)`` on POOL; collect it with ``join``. Its calls go to
    a journal of its own, set inside the task: pool threads start outside."""
    journal = CallJournal()

    def task():
        with recording(journal):
            return fn(*args)

    return POOL.submit(task), journal


def join(tasks: Sequence[Tuple[Future, CallJournal]]) -> list:
    """Wait for every task and return their results; the first failing task
    in order raises its error. A pooled task's calls are journaled where its
    result is collected: here, in task order, as if run one after another."""
    wait([future for future, _ in tasks])
    for _, journal in tasks:
        journal_calls(journal.records())
    return [future.result() for future, _ in tasks]


def _fan_out(vqa: Backend) -> Optional[bool]:
    """Whether VQA calls are slow enough to overlap; None before the first answer."""
    latency = vqa.last_latency_s("answer_binary")
    return None if latency is None else latency >= FAN_OUT_MIN_S


def evaluate_image(image: ImageRef, graph: sg.SceneGraph, vqa: Backend) -> ReflectionReport:
    """Answer the graph's questions about an image, one DAG level at a time.

    A No answer marks every dependent question as missing without querying it.
    If the backend's last answer took at least FAN_OUT_MIN_S, the unpruned
    questions of each level are asked together on the shared pool. A backend
    that has never answered is asked the first question alone, and its
    latency decides. Answers, pruning, the call count and the journal order
    are the same either way.
    """
    answers: Dict[int, Answer] = {}
    calls = 0
    fan_out = _fan_out(vqa)
    for level in sg.topological_levels(graph):
        pending = [qid for qid in level if qid not in answers]  # others pruned by an earlier No
        results: List[bool] = []
        if pending and fan_out is None:
            results.append(_ask(vqa, image, graph, pending[0]))
            fan_out = _fan_out(vqa)
        rest = pending[len(results):]
        if fan_out and len(rest) > 1:
            results += join([submit(_ask, vqa, image, graph, qid) for qid in rest])
        else:
            results += [_ask(vqa, image, graph, qid) for qid in rest]
        for qid, is_yes in zip(pending, results):
            calls += 1
            if is_yes:
                answers[qid] = YES
            else:
                answers[qid] = NO
                for dep in sg.descendants(graph, qid):
                    if dep not in answers:
                        answers[dep] = PRUNED_NO
    missing = frozenset(i for i, a in answers.items() if a.value is not AnswerValue.YES)
    return ReflectionReport(
        graph=graph,
        answers=answers,
        missing_ids=missing,
        score=_score(answers),
        vqa_call_count=calls,
    )


def alignment_score(report: ReflectionReport) -> float:
    """The fraction of questions answered yes; recomputed as a consistency check."""
    recomputed = _score(report.answers)
    if abs(recomputed - report.score) > 1e-12:
        raise ValueError(f"report score {report.score} != recomputed {recomputed}")
    return report.score
