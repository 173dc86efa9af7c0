"""Shared fixture data: the motorcycle/fence graph, tiny PNG payloads, and a
scheduled stand-in for the pooled-work executors."""

import base64
import collections
import contextvars
import functools
import itertools
import random
import threading
import time
from concurrent.futures import ALL_COMPLETED, FIRST_COMPLETED, Future
from contextlib import contextmanager, suppress

import pytest
from hypothesis import note
from hypothesis.errors import InvalidArgument
from hypothesis import strategies as st

from promptrefine import reflection
from promptrefine.backends import CallJournal, MockBackend, VqaRequest, recording

from promptrefine.scene_graph import (
    DependencyEdge,
    SceneGraph,
    build_graph,
    parse_dependencies,
    parse_questions,
    parse_tuples,
)

MOTORCYCLE_PROMPT = "a blue motorcycle parked beside a white fence"

MOTORCYCLE_TUPLES = """\
1 | entity - whole (motorcycle)
2 | attribute - color (motorcycle, blue)
3 | entity - whole (fence)
4 | attribute - color (fence, white)
5 | relation - spatial (motorcycle, beside, fence)"""

MOTORCYCLE_QUESTIONS = """\
1 | Is there a motorcycle?
2 | Is the motorcycle blue?
3 | Is there a fence?
4 | Is the fence white?
5 | Is the motorcycle beside the fence?"""

MOTORCYCLE_DEPENDENCIES = """\
1 | 0
2 | 1
3 | 0
4 | 3
5 | 1, 3"""

MOTORCYCLE_EDGES = {(1, 2), (3, 4), (1, 5), (3, 5)}

# Two distinct valid single-pixel PNGs (white and black).
PNG_WHITE = base64.b64decode(
    "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAIAAACQd1PeAAAADElEQVR4nGP4"
    "//8/AAX+Av4N70a4AAAAAElFTkSuQmCC"
)
PNG_BLACK = base64.b64decode(
    "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAIAAACQd1PeAAAADElEQVR4nGNg"
    "YGAAAAAEAAH2FzhVAAAAAElFTkSuQmCC"
)


def motorcycle_graph() -> SceneGraph:
    return build_graph(
        MOTORCYCLE_PROMPT,
        parse_tuples(MOTORCYCLE_TUPLES),
        parse_questions(MOTORCYCLE_QUESTIONS),
        parse_dependencies(MOTORCYCLE_DEPENDENCIES),
    )


def chain_graph(prompt: str, n: int, edges) -> SceneGraph:
    """Graph with n generically named questions and the given (parent, child) edges."""
    tuples = parse_tuples(
        "\n".join(f"{i} | entity - whole (thing {i})" for i in range(1, n + 1))
    )
    questions = parse_questions(
        "\n".join(f"{i} | Is there thing {i}?" for i in range(1, n + 1))
    )
    return build_graph(
        prompt, tuples, questions, {DependencyEdge(p, c) for p, c in edges}
    )


def random_dag(rng: random.Random, max_nodes: int = 12):
    """Random DAG as (ids, edge pairs); edges only go from lower to higher id."""
    n = rng.randint(1, max_nodes)
    ids = list(range(1, n + 1))
    edges = set()
    for child in range(2, n + 1):
        for parent in range(1, child):
            if rng.random() < 0.3:
                edges.add((parent, child))
    return ids, edges


@contextmanager
def submits():
    """The names of the functions submitted to the pool within the block:
    how a test sees whether a step sent its work to the pool, whatever in
    the program decided it."""
    names = []
    real = reflection.submit

    def counting(fn, *args):
        names.append(fn.__name__)
        return real(fn, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(reflection, "submit", counting)
        yield names


def warmed(vqa, image):
    """``vqa`` once it has answered: under an infinite FAN_OUT_MIN_S its
    evaluations then ask one question at a time."""
    assert vqa.script_vqa("Warm up?", "yes").answer_binary(VqaRequest(image=image, question="Warm up?"))
    return vqa


class Deadlock(AssertionError):
    """A wait on pooled work that no startable task can bring closer."""


class ScheduledFuture(Future):
    """A pooled task's future, whose ``result`` is a scheduling point."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool._point(self.done)
        return super().result(timeout)


class ScheduledPool:
    """Stands in for ``reflection._pool`` and ``reflection.wait`` on the
    test's one thread, so that the test chooses how pooled work interleaves
    instead of sampling it with sleeps (systematic concurrency testing, as
    in CHESS).

    It models one lane per logical thread: the test thread, or a task now
    running. ``submit`` queues a ``ScheduledFuture`` in the current lane; no
    task starts until a scheduling point. Every ``submit``, every ``wait``
    and every ``ScheduledFuture.result`` is one. At a point with more than one
    option, ``choose(n)`` picks one of n: option i < k starts the i-th
    oldest of the k startable tasks, and option k, offered once the caller
    may go on, returns to it. A ``wait`` or a ``result`` goes on only when
    its condition holds. A task runs to completion on the test's thread, in
    a fresh context and a lane of its own, as on a worker thread; its own
    submits, waits and results are scheduling points too, and whatever it
    raises goes to its future, as on an executor.

    At most ``workers`` tasks of each lane run at once, as on an executor of
    that many threads per submitting thread: a task started while others
    wait counts until it returns. A wait whose condition no startable task
    can bring about raises ``Deadlock`` naming the schedule so far, instead
    of hanging.

    ``schedule`` lists the choices made; ``inline`` (always 0) starts each
    task at its submit. Under ``drawn``, a failing test prints its falsifying
    arguments with a ``schedule: [...]`` note, and a Deadlock's message holds
    the schedule so far. Re-running the test replays the failure first from
    hypothesis's example database. To pin it, run the test body with the
    printed arguments under ``scheduled(replay(schedule), workers=N)``, N
    being the worker bound the example ran at (``POOL_WORKERS`` unless the
    test draws one): replay makes the same choices, then goes on inline.
    """

    def __init__(self, choose, workers=reflection.POOL_WORKERS):
        self.choose, self.workers = choose, workers
        self.queued = []  # (future, task, lane) submitted and not started, oldest first
        self.running = collections.Counter()  # tasks running per lane
        self.lanes = itertools.count(1)
        self.lane = 0  # the test's thread
        self.schedule = []
        self.deadlock = None

    def submit(self, fn, *args):
        future = ScheduledFuture(self)
        self.queued.append((future, functools.partial(fn, *args), self.lane))
        self._point(lambda: True)
        return future

    def wait(self, fs, timeout=None, return_when=ALL_COMPLETED):
        assert timeout is None and return_when in (ALL_COMPLETED, FIRST_COMPLETED)
        fs = set(fs)

        def holds():
            done = sum(f.done() for f in fs)
            return done == len(fs) or (done > 0 and return_when == FIRST_COMPLETED)

        self._point(holds)
        done = {f for f in fs if f.done()}
        return done, fs - done

    def _point(self, may_go_on):
        """Start startable tasks, as chosen, until the caller goes on."""
        while True:
            startable = [i for i, (_, _, lane) in enumerate(self.queued) if self.running[lane] < self.workers]
            options = len(startable) + may_go_on()
            if not options:
                self.deadlock = self.deadlock or Deadlock(
                    f"a wait cannot finish: {len(self.queued)} tasks queued, each in a lane whose "
                    f"{self.workers} workers are busy; schedule so far: {self.schedule}"
                )
                raise self.deadlock
            choice = 0
            if options > 1:
                choice = self.choose(options)
                assert 0 <= choice < options, (choice, options)
                self.schedule.append(choice)
            if choice == len(startable):
                return
            self._start(*self.queued.pop(startable[choice]))

    def _start(self, future, task, lane):
        future.set_running_or_notify_cancel()
        self.running[lane] += 1
        submitter, self.lane = self.lane, next(self.lanes)
        try:
            result = contextvars.Context().run(task)
        except BaseException as exc:  # noqa: BLE001 - an executor hands every error to the future
            future.set_exception(exc)
        else:
            future.set_result(result)
        finally:
            self.lane = submitter
            self.running[lane] -= 1


def inline(options):
    """The inline schedule: every task starts as it is submitted."""
    return 0


def replay(schedule):
    """Choose as ``schedule`` lists, then inline."""
    choices = iter(schedule)
    return lambda options: next(choices, 0)


def drawn(data):
    """Choose as hypothesis draws: a failing schedule shrinks towards inline."""
    return lambda options: data.draw(st.integers(0, options - 1))


@contextmanager
def scheduled(choose, workers=reflection.POOL_WORKERS, fan_out_min_s=0.0):
    """Install a ScheduledPool as ``reflection._pool`` and ``reflection.wait``,
    with ``FAN_OUT_MIN_S`` at ``fan_out_min_s`` (0: every gate pools). A
    Deadlock fails the block even where the program caught it as a run's
    failure; a block that ends with a task never started fails too."""
    pool = ScheduledPool(choose, workers)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(reflection, "_pool", lambda: pool)
        m.setattr(reflection, "wait", pool.wait)
        m.setattr(reflection, "FAN_OUT_MIN_S", fan_out_min_s)
        try:
            yield pool
        finally:
            with suppress(InvalidArgument):  # raised outside a hypothesis test
                note(f"schedule: {pool.schedule}")
            if pool.deadlock is not None:
                raise pool.deadlock
        assert not pool.queued, f"{len(pool.queued)} pooled tasks never started; schedule: {pool.schedule}"


@pytest.fixture
def journal():
    """The backend calls the test makes, journaled as a run journals its own."""
    with recording(CallJournal()) as calls:
        yield calls


# -- end-to-end mock bundle ---------------------------------------------------

FENCE_EXPANSION = (
    "6 | attribute - material (fence, wooden)\n"
    "7 | attribute - state (fence, clearly visible)"
)
REGENERATED_MOTORCYCLE = (
    "A blue motorcycle parked beside a clearly visible white wooden fence."
)
DECORATED_MOTORCYCLE = REGENERATED_MOTORCYCLE + ", best quality, soft lighting"

# distinguishing substrings of the bundled stage preambles
STAGE_MARKERS = {
    "tuples": "*Decompose*",
    "questions": "*yes/no verification questions*",
    "dependencies": "*presume*",
    "expansion": "*enrich prompts*",
    "regeneration": "*compose prompts*",
    "decoration": "*aesthetic keywords*",
}


class Gauge:
    """Requests in flight per op. Mocks that share one gauge record which ops
    were ever in flight at the same time."""

    def __init__(self):
        self.lock = threading.Lock()
        self.now = collections.Counter()
        self.peak = collections.Counter()
        self.together = set()  # frozensets of two ops once in flight at once

    @contextmanager
    def tracking(self, op):
        with self.lock:
            busy = [other for other, n in self.now.items() if n and other != op]
            self.together.update(frozenset((op, other)) for other in busy)
            self.now[op] += 1
            self.peak[op] = max(self.peak[op], self.now[op])
        try:
            yield
        finally:
            with self.lock:
                self.now[op] -= 1


class SlowMock(MockBackend):
    """Mock whose requests sleep, slow enough for the pipeline to overlap them.

    A VQA question sleeps a fixed 2 to 4 ms chosen by its text, or the time
    given in ``delays``, so requests finish out of id order and
    evaluate_image fans questions out. Other ops sleep ``op_delays.get(op, 0)``
    seconds. ``gauge`` counts requests in flight; mocks given the same one
    share it.
    """

    def __init__(self, *args, delays=None, op_delays=None, gauge=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.delays = dict(delays or {})
        self.op_delays = dict(op_delays or {})
        self.gauge = gauge or Gauge()

    def _slow(self, op, seconds, send, req):
        with self.gauge.tracking(op):
            time.sleep(seconds)
            return send(req)

    def _send_text(self, req):
        delay = self.op_delays.get("complete", 0)
        return self._slow("complete", delay, super()._send_text, req)

    def _send_image(self, req):
        delay = self.op_delays.get("generate_image", 0)
        return self._slow("generate_image", delay, super()._send_image, req)

    def _send_embed(self, payload):
        delay = self.op_delays.get("embed", 0)
        return self._slow("embed", delay, super()._send_embed, payload)

    def _send_vqa(self, req):
        delay = self.delays.get(req.question, random.Random(req.question).uniform(0.002, 0.004))
        return self._slow("answer_binary", delay, super()._send_vqa, req)


def stage_llm(cls=MockBackend, **stage_responses):
    """Mock text backend scripted per stage via preamble markers."""
    backend = cls(name="llm")
    for stage, response in stage_responses.items():
        backend.script_text("*", response, preamble=STAGE_MARKERS[stage])
    return backend


def motorcycle_backends(image_dir, fence_answers=("no", "yes"), cls=MockBackend):
    """Fully scripted (llm, vqa, t2i) for the motorcycle/fence walkthrough.

    Round 1 finds the fence missing (prunes 4 and 5), optimization yields the
    decorated prompt, and the regenerated image answers all-yes. ``cls``
    makes each of the three mocks.
    """
    from promptrefine.pipeline import Backends

    llm = stage_llm(
        cls,
        tuples=MOTORCYCLE_TUPLES,
        questions=MOTORCYCLE_QUESTIONS,
        dependencies=MOTORCYCLE_DEPENDENCIES,
        expansion=FENCE_EXPANSION,
        regeneration=REGENERATED_MOTORCYCLE,
        decoration="best quality, soft lighting",
    )
    vqa = (
        cls(name="vqa")
        .script_vqa("Is there a fence?", list(fence_answers))
        .script_vqa("*", "yes")
    )
    t2i = (
        cls(name="t2i", image_dir=image_dir)
        .script_image(MOTORCYCLE_PROMPT, PNG_WHITE)
        .script_image(DECORATED_MOTORCYCLE, PNG_BLACK)
    )
    return Backends(llm=llm, vqa=vqa, t2i=t2i)
