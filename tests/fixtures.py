"""Shared fixture data: the motorcycle/fence graph and tiny PNG payloads."""

import base64
import collections
import random
import threading
import time
from contextlib import contextmanager

import pytest

from promptrefine.backends import CallJournal, MockBackend, recording

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
    evaluate_image fans levels out. Other ops sleep ``op_delays.get(op, 0)``
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
