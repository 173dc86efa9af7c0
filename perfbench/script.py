"""Seeded workload scripts: prompts, question graphs, scripted model answers,
and the outcome every unit must produce.

Responses are keyed on request content, never on call order:

* text: (stage, prompt line), where the stage is recognised by its preamble
  and the prompt line is the first line of the input without ``Prompt: ``;
* VQA: (image digest, question up to its first ``?``), so the stricter
  re-ask of an unparseable answer maps to the same question;
* images: the generation prompt;
* embeddings: a pure function of the payload (text or image digest).

A unit repeated in a run therefore sends identical requests and gets identical
answers. Scripted faults are keyed the same way plus the attempt number within
the current unit; ``TransportStats.reset`` starts a new unit.

The seed chooses words, image bytes and unit order. The structure of every
workload (graph sizes, which questions are answered "no", where faults sit) is
fixed, so request counts and modeled latency do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from promptrefine.backends import (
    BackendConfig,
    MockBackend,
    MockMiss,
    RateLimited,
    TransportError,
)

# Seconds per transport request: about 1/10 of typical hosted service times,
# the same factor for every op. Client CPU is not scaled.
LATENCY_S = {"complete": 0.100, "answer_binary": 0.040, "generate_image": 0.300, "embed": 0.010}
OPS = tuple(LATENCY_S)
ZERO_LATENCY = {op: 0.0 for op in OPS}

# Fails every grammar and every single-line check the pipeline applies.
GARBAGE = "no answer |\nsecond line"
UNPARSEABLE_VQA = "maybe"
PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
ONCE_FAULTS = ("transport_once", "rate_limited_once", "garbage_once", "unparseable_once")

NOUNS = (
    "kite bench lamp boat bicycle teapot violin lantern clock umbrella chair "
    "piano rocket tractor canoe mailbox guitar kettle statue fountain barrel "
    "ladder wagon anchor compass helmet drum vase mirror basket scooter "
    "trumpet windmill tent bucket globe camera candle sofa hammock "
    "motorcycle fence bridge tower crate easel cart"
).split()
ADJECTIVES = (
    "red blue green white black yellow orange purple golden silver wooden "
    "metal glass striped dotted tiny huge shiny rusty old new tall short "
    "round square polished painted broken open folded"
).split()
RELATIONS = (
    "beside behind above below near under facing leaning-on left-of right-of"
).split()
ACTIONS = "spinning glowing tilting floating shaking swaying rolling dripping".split()
LEADS = ("A detailed view of", "A clear picture of", "A vivid scene with", "A sharp photo of")


def prompt_line(text: str) -> str:
    first = text.split("\n", 1)[0]
    return first[len("Prompt: "):] if first.startswith("Prompt: ") else first


def question_key(question: str) -> str:
    end = question.find("?")
    return question if end < 0 else question[: end + 1]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def image_bytes(seed: int, prompt: str, size: int) -> bytes:
    rng = random.Random(f"{seed}|{prompt}")
    return PNG_MAGIC + rng.randbytes(size - len(PNG_MAGIC))


def embed_vector(key: str) -> List[float]:
    """Deterministic positive 8-d vector for an embedding payload."""
    return [(b + 1) / 256.0 for b in hashlib.sha256(key.encode("utf-8")).digest()[:8]]


def clip_relevance(a: Sequence[float], b: Sequence[float]) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return 100.0 * max(dot / (na * nb), 0.0)


# --------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class GraphSpec:
    """Question graph in benchmark terms; ids are 1-based list positions."""

    tuples: Tuple[Tuple[str, str, str], ...]  # (category, detail, content)
    questions: Tuple[str, ...]
    parents: Tuple[Tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.questions)

    def tuple_lines(self) -> str:
        return "\n".join(
            f"{i} | {cat} - {detail} ({content})"
            for i, (cat, detail, content) in enumerate(self.tuples, start=1)
        )

    def question_lines(self) -> str:
        return "\n".join(f"{i} | {q}" for i, q in enumerate(self.questions, start=1))

    def dependency_lines(self) -> str:
        return "\n".join(
            f"{i} | " + (", ".join(str(p) for p in ps) if ps else "0")
            for i, ps in enumerate(self.parents, start=1)
        )

    def doc(self, prompt: str) -> dict:
        return {
            "source_prompt": prompt,
            "tuples": [
                {"id": i, "category": c, "detail": d, "content": x}
                for i, (c, d, x) in enumerate(self.tuples, start=1)
            ],
            "questions": [{"id": i, "text": q} for i, q in enumerate(self.questions, start=1)],
            "edges": sorted([p, i] for i, ps in enumerate(self.parents, start=1) for p in ps),
        }

    def descendants(self, qid: int) -> set:
        children: Dict[int, List[int]] = {}
        for child, ps in enumerate(self.parents, start=1):
            for p in ps:
                children.setdefault(p, []).append(child)
        out, stack = set(), list(children.get(qid, ()))
        while stack:
            node = stack.pop()
            if node not in out:
                out.add(node)
                stack.extend(children.get(node, ()))
        return out

    def outcome(self, no_ids: FrozenSet[int]) -> Tuple[FrozenSet[int], int]:
        """(missing ids, questions asked) under entailment pruning.

        A question is skipped exactly when it descends from a question answered
        "no"; the topmost "no" on every path is therefore always asked.
        """
        pruned = set()
        for qid in no_ids:
            pruned |= self.descendants(qid)
        return frozenset(no_ids) | frozenset(pruned), self.size - len(pruned)


def _attribute(g, noun, adj, parent):
    g["tuples"].append(("attribute", "property", f"{noun}, {adj}"))
    g["questions"].append(f"Is the {noun} {adj}?")
    g["parents"].append((parent,))
    return len(g["questions"])


def _entity(g, noun):
    g["tuples"].append(("entity", "whole", noun))
    g["questions"].append(f"Is there a {noun}?")
    g["parents"].append(())
    return len(g["questions"])


def _relation(g, a, rel, b, pa, pb):
    g["tuples"].append(("relation", "spatial", f"{a}, {rel}, {b}"))
    g["questions"].append(f"Is the {a} {rel.replace('-', ' ')} the {b}?")
    g["parents"].append((pa, pb))
    return len(g["questions"])


def _freeze(g) -> GraphSpec:
    return GraphSpec(tuple(g["tuples"]), tuple(g["questions"]), tuple(g["parents"]))


def _new():
    return {"tuples": [], "questions": [], "parents": []}


def mix_graph(rng: random.Random) -> Tuple[str, GraphSpec, Dict[str, int]]:
    """The motorcycle/fence shape: two entities, a colour each, one relation."""
    a, b = rng.sample(NOUNS, 2)
    ca, cb = rng.sample(ADJECTIVES, 2)
    rel = rng.choice(RELATIONS)
    g = _new()
    ea = _entity(g, a)
    _attribute(g, a, ca, ea)
    eb = _entity(g, b)
    _attribute(g, b, cb, eb)
    _relation(g, a, rel, b, ea, eb)
    prompt = f"a {ca} {a} {rel.replace('-', ' ')} a {cb} {b}"
    return prompt, _freeze(g), {"second": eb}


def wide_graph(rng: random.Random, n: int) -> Tuple[str, GraphSpec, Dict[str, int]]:
    """Depth 2: three entities, then n-3 attributes and relations on them."""
    nouns = rng.sample(NOUNS, 3)
    g = _new()
    roots = [_entity(g, noun) for noun in nouns]
    adjs = {noun: rng.sample(ADJECTIVES, 6) for noun in nouns}
    rels = rng.sample(RELATIONS, len(RELATIONS))
    phrases, relphrases = {noun: [] for noun in nouns}, []
    for j in range(n - 3):
        if j % 2 == 0:
            k = (j // 2) % 3
            adj = adjs[nouns[k]].pop()
            _attribute(g, nouns[k], adj, roots[k])
            phrases[nouns[k]].append(adj)
        else:
            k = j % 3
            a, b = nouns[k], nouns[(k + 1) % 3]
            rel = rels.pop()
            _relation(g, a, rel, b, roots[k], roots[(k + 1) % 3])
            relphrases.append(f"the {a} {rel.replace('-', ' ')} the {b}")
    prompt = ", ".join(f"a {' '.join(phrases[noun])} {noun}".replace("  ", " ") for noun in nouns)
    prompt += ", with " + " and ".join(relphrases)
    leaf = len(g["questions"])
    return prompt, _freeze(g), {"root": roots[0], "leaf": leaf}


def chain_graph(rng: random.Random, n: int) -> Tuple[str, GraphSpec, Dict[str, int]]:
    """Depth n: every question presumes the one before it."""
    noun = rng.choice(NOUNS)
    adjs = rng.sample(ADJECTIVES, n - 1)
    g = _new()
    prev = _entity(g, noun)
    for adj in adjs:
        prev = _attribute(g, noun, adj, prev)
    prompt = f"a {noun} that is " + ", then ".join(adjs)
    return prompt, _freeze(g), {}


def big_graph(rng: random.Random, n: int) -> Tuple[str, GraphSpec, Dict[str, int]]:
    """Depth 3, n questions: n//4 entities, attributes, relations, actions."""
    k = n // 4
    nouns = rng.sample(NOUNS, k)
    g = _new()
    roots = [_entity(g, noun) for noun in nouns]
    adj_pool = {noun: rng.sample(ADJECTIVES, len(ADJECTIVES)) for noun in nouns}
    attrs: List[Tuple[int, str, str]] = []
    used_rel = set()
    j = 0
    while len(g["questions"]) < n:
        kind = j % 5
        if kind in (0, 2) or not attrs:
            i = (j // 2) % k
            adj = adj_pool[nouns[i]].pop()
            attrs.append((_attribute(g, nouns[i], adj, roots[i]), nouns[i], adj))
        elif kind in (1, 3):
            i = j % k
            i2 = (i + 1 + j // k) % k
            if i2 == i:
                i2 = (i + 1) % k
            rel = RELATIONS[(j // 2) % len(RELATIONS)]
            if (i, rel, i2) in used_rel:
                rel = next(r for r in RELATIONS if (i, r, i2) not in used_rel)
            used_rel.add((i, rel, i2))
            _relation(g, nouns[i], rel, nouns[i2], roots[i], roots[i2])
        else:
            aid, noun, adj = attrs[(j // 5) % len(attrs)]
            verb = ACTIONS[(j // 5) % len(ACTIONS)]
            g["tuples"].append(("action", "state", f"{noun}, {verb}"))
            g["questions"].append(f"Is the {adj} {noun} {verb}?")
            g["parents"].append((aid,))
        j += 1
    if len(set(g["questions"])) != n:
        raise ValueError("big graph produced duplicate questions")
    prompt = "a scene with " + ", ".join(f"a {adj_pool[noun][-1]} {noun}" for noun in nouns)
    leaves = [i for i in range(1, n + 1) if not any(i in ps for ps in g["parents"])]
    return prompt, _freeze(g), {"root": roots[0], "leaf": leaves[-1], "leaf2": leaves[-2]}


# --------------------------------------------------------------------------
# scripts and expectations


@dataclass(frozen=True)
class Report:
    score: float
    missing: FrozenSet[int]
    vqa_calls: int


@dataclass
class UnitSpec:
    """One scripted unit and the outcome it must produce."""

    name: str
    category: str
    prompt: str
    graph: GraphSpec
    inline: bool
    status: str = "completed"
    failure: Optional[Tuple[str, str]] = None  # (failed stage, exception class)
    history: Tuple[str, ...] = ()
    reports: Tuple[Report, ...] = ()
    converged: bool = False
    requests: Counter = field(default_factory=Counter)
    image_digests: Tuple[str, ...] = ()

    @property
    def final_prompt(self) -> str:
        return self.history[-1]


class Script:
    """Content-keyed responses shared by the in-process and HTTP workloads."""

    def __init__(self, seed: int, stage_of: Dict[str, str], keyword_classes, image_size: int):
        self.seed = seed
        self.stage_of = dict(stage_of)  # preamble -> stage name
        self.keyword_classes = keyword_classes  # ((class, (keywords...)), ...)
        self.image_size = image_size
        self.text: Dict[Tuple[str, str], str] = {}
        self.images: Dict[str, bytes] = {}
        self.answers: Dict[Tuple[str, str], str] = {}
        self.faults: Dict[Tuple[str, object], str] = {}
        self._rng = random.Random(f"script|{seed}")
        self._regenerated = set()

    # -- registration --------------------------------------------------------
    def _image(self, prompt: str) -> str:
        data = self.images.get(prompt)
        if data is None:
            data = self.images[prompt] = image_bytes(self.seed, prompt, self.image_size)
        return sha256_hex(data)

    def _answer(self, digest: str, graph: GraphSpec, no_ids: FrozenSet[int]) -> None:
        for qid, question in enumerate(graph.questions, start=1):
            self.answers[(digest, question_key(question))] = "no" if qid in no_ids else "yes"

    def _dsg(self, prompt: str, graph: GraphSpec) -> None:
        self.text[("tuples", prompt)] = graph.tuple_lines()
        self.text[("questions", prompt)] = graph.question_lines()
        self.text[("dependencies", prompt)] = graph.dependency_lines()

    def _optimize(self, current: str, graph: GraphSpec, missing: FrozenSet[int]) -> str:
        rng = self._rng
        targets = sorted(missing)[:2]
        self.text[("expansion", current)] = "\n".join(
            f"{i} | attribute - clarity ({graph.tuples[qid - 1][2].split(',')[0]}, clearly visible)"
            for i, qid in enumerate(targets, start=1)
        )
        entities = [c for cat, _, c in graph.tuples if cat == "entity"][:3]
        shown = [graph.tuples[qid - 1][2].replace(",", "") for qid in targets]
        while True:
            regenerated = (
                f"{rng.choice(LEADS)} the {', the '.join(entities)} showing {' and '.join(shown)}"
                f" in {rng.choice(ADJECTIVES)} light"
            )
            if regenerated not in self._regenerated:
                break
        self._regenerated.add(regenerated)
        if len(regenerated) > 480:
            raise ValueError("scripted regeneration exceeds the prompt cap")
        lower = regenerated.lower()
        keywords = []
        for name, words in rng.sample(list(self.keyword_classes), 2):
            choices = [kw for kw in words if kw.lower() not in lower and kw not in keywords]
            keywords.append(rng.choice(choices))
        self.text[("regeneration", current)] = regenerated
        self.text[("decoration", regenerated)] = ", ".join(keywords)
        return regenerated + ", " + ", ".join(keywords)

    def unit(
        self,
        name: str,
        category: str,
        prompt: str,
        graph: GraphSpec,
        evals: Sequence[FrozenSet[int]],
        rounds: int = 1,
        inline: bool = False,
    ) -> UnitSpec:
        """Script one run_single call and derive what it must return.

        ``evals`` holds the ids answered "no" for each image evaluated, in
        order: one per round until the loop converges, plus the final image
        when it never does.
        """
        spec = UnitSpec(name=name, category=category, prompt=prompt, graph=graph, inline=inline)
        current, history, reports, digests = prompt, [prompt], [], []
        req = Counter()

        def evaluate(image_prompt: str) -> Report:
            digest = self._image(image_prompt)
            digests.append(digest)
            req["generate_image"] += 1
            no_ids = frozenset(evals[len(reports)])
            self._answer(digest, graph, no_ids)
            missing, asked = graph.outcome(no_ids)
            req["answer_binary"] += asked
            return Report((graph.size - len(missing)) / graph.size, missing, asked)

        converged = False
        for round_no in range(rounds):
            if round_no == 0 and not inline:
                self._dsg(prompt, graph)
                req["complete"] += 3
            report = evaluate(current)
            reports.append(report)
            if not report.missing:
                converged = True
                break
            current = self._optimize(current, graph, report.missing)
            req["complete"] += 3
            history.append(current)
        if not converged:
            reports.append(evaluate(current))
        if len(reports) != len(evals):
            raise ValueError(f"{name}: {len(evals)} evaluations scripted, {len(reports)} reached")
        spec.history, spec.reports, spec.converged = tuple(history), tuple(reports), converged
        spec.requests, spec.image_digests = req, tuple(digests)
        return spec

    def failing_unit(self, name: str, category: str, prompt: str, graph: GraphSpec, attempts: int) -> UnitSpec:
        """A unit whose question graph can never be built."""
        self._image(prompt)
        self.faults[("complete", ("tuples", prompt))] = "garbage_always"
        return UnitSpec(
            name=name,
            category=category,
            prompt=prompt,
            graph=graph,
            inline=False,
            status="failed",
            failure=("build_dsg", "StageExhausted"),
            history=(prompt,),
            requests=Counter({"generate_image": 1, "complete": attempts}),
        )

    def fault(self, spec: UnitSpec, op: str, key, kind: str) -> None:
        """Fail the first attempt of a request the unit is known to send."""
        if kind not in ONCE_FAULTS:
            raise ValueError(f"unknown fault {kind!r}")
        if (op, key) in self.faults:
            raise ValueError(f"fault already scripted for {op} {key!r}")
        self.faults[(op, key)] = kind
        spec.requests[op] += 1


# --------------------------------------------------------------------------
# transport


class TransportStats:
    """Requests per op and attempts per request key; shared by journal views."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = Counter()
        self._attempts = Counter()

    def count(self, op: str, key) -> int:
        with self._lock:
            self.requests[op] += 1
            self._attempts[(op, key)] += 1
            return self._attempts[(op, key)]

    def snapshot(self) -> Counter:
        with self._lock:
            return Counter(self.requests)

    def reset(self) -> None:
        """Start a new unit: first-attempt faults fire again."""
        with self._lock:
            self._attempts.clear()


class ScriptBackend(MockBackend):
    """MockBackend whose transport hooks answer from a Script.

    Each hook sleeps for its op's declared latency, counts the request, then
    applies any scripted fault before answering.
    """

    def __init__(self, script: Script, latency: Optional[Dict[str, float]] = None, name: str = "script"):
        config = BackendConfig(model=name, backoff_base=0.0, supports_embedding=True)
        super().__init__(config, name=name)
        self.script = script
        self.latency = dict(latency or ZERO_LATENCY)
        self.stats = TransportStats()

    def _serve(self, op: str, key, answer, bad):
        delay = self.latency.get(op, 0.0)
        if delay:
            time.sleep(delay)
        attempt = self.stats.count(op, key)
        fault = self.script.faults.get((op, key))
        if fault == "garbage_always" or (attempt == 1 and fault in ("garbage_once", "unparseable_once")):
            return bad
        if attempt == 1 and fault == "transport_once":
            raise TransportError("scripted transport failure")
        if attempt == 1 and fault == "rate_limited_once":
            raise RateLimited("scripted rate limit", retry_after=0.0)
        try:
            return answer(key)
        except KeyError:
            raise MockMiss(op, str(key)[:64], hint="not in the workload script") from None

    def _send_text(self, req) -> str:
        key = (self.script.stage_of.get(req.preamble, "?"), prompt_line(req.input))
        return self._serve("complete", key, self.script.text.__getitem__, GARBAGE)

    def _send_vqa(self, req) -> str:
        key = (req.image.locator(), question_key(req.question))
        return self._serve("answer_binary", key, self.script.answers.__getitem__, UNPARSEABLE_VQA)

    def _send_image(self, req) -> bytes:
        return self._serve("generate_image", req.prompt, self.script.images.__getitem__, b"")

    def _send_embed(self, payload) -> List[float]:
        key = payload if isinstance(payload, str) else payload.locator()
        return self._serve("embed", key, embed_vector, [])
