"""Shared fixture data: the motorcycle/fence graph and tiny PNG payloads."""

import base64
import random
import threading
import time

from promptrefine.backends import MockBackend

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


class SlowVqa(MockBackend):
    """Mock VQA whose requests take about 3 ms, slow enough for evaluate_image
    to fan a level's questions out.

    Each question text gets its own fixed delay between 2 and 4 ms, or the
    one given in ``delays``, so requests finish out of id order. ``gauge``
    counts requests in flight and is shared by journal views.
    """

    def __init__(self, *args, delays=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.delays = dict(delays or {})
        self.gauge = {"now": 0, "peak": 0, "lock": threading.Lock()}

    def _send_vqa(self, req):
        gauge = self.gauge
        with gauge["lock"]:
            gauge["now"] += 1
            gauge["peak"] = max(gauge["peak"], gauge["now"])
        try:
            time.sleep(self.delays.get(req.question, random.Random(req.question).uniform(0.002, 0.004)))
            return super()._send_vqa(req)
        finally:
            with gauge["lock"]:
                gauge["now"] -= 1


def stage_llm(**stage_responses):
    """Mock text backend scripted per stage via preamble markers."""
    backend = MockBackend(name="llm")
    for stage, response in stage_responses.items():
        backend.script_text("*", response, preamble=STAGE_MARKERS[stage])
    return backend


def motorcycle_backends(image_dir, fence_answers=("no", "yes")):
    """Fully scripted (llm, vqa, t2i) for the motorcycle/fence walkthrough.

    Round 1 finds the fence missing (prunes 4 and 5), optimization yields the
    decorated prompt, and the regenerated image answers all-yes.
    """
    from promptrefine.pipeline import Backends

    llm = stage_llm(
        tuples=MOTORCYCLE_TUPLES,
        questions=MOTORCYCLE_QUESTIONS,
        dependencies=MOTORCYCLE_DEPENDENCIES,
        expansion=FENCE_EXPANSION,
        regeneration=REGENERATED_MOTORCYCLE,
        decoration="best quality, soft lighting",
    )
    vqa = (
        MockBackend(name="vqa")
        .script_vqa("Is there a fence?", list(fence_answers))
        .script_vqa("*", "yes")
    )
    t2i = (
        MockBackend(name="t2i", image_dir=image_dir)
        .script_image(MOTORCYCLE_PROMPT, PNG_WHITE)
        .script_image(DECORATED_MOTORCYCLE, PNG_BLACK)
    )
    return Backends(llm=llm, vqa=vqa, t2i=t2i)
