"""Concept scene-graph data model, line grammars, and DAG operations.

A prompt is decomposed into atomic concept tuples, one binary question per
tuple, and a dependency DAG over the questions. The three line grammars here
are the canonical interchange format emitted by the text-model stages:

    tuples:        <id> | <category> - <detail> (<content>)
    questions:     <id> | <question text>
    dependencies:  <child_id> | <parent_id>[, <parent_id>...]   (0 = no parents)

Tuples and graphs are persisted as the JSON documents of ``tuple_to_doc`` and
``graph_to_doc``, read back with checked types by ``tuple_from_doc`` and
``graph_from_doc``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

# Guard against runaway model output.
MAX_QUESTIONS = 200


class GraphError(ValueError):
    """Base class for grammar and graph validation failures."""


class MalformedLine(GraphError):
    def __init__(self, line_no: int, line: str, reason: str = ""):
        self.line_no = line_no
        self.line = line
        detail = f": {reason}" if reason else ""
        super().__init__(f"malformed line {line_no}{detail}: {line!r}")


class DuplicateId(GraphError):
    def __init__(self, dup_id: int):
        self.dup_id = dup_id
        super().__init__(f"duplicate id {dup_id}")


class NonContiguousIds(GraphError):
    def __init__(self, ids: Sequence[int]):
        self.ids = sorted(ids)
        super().__init__(f"ids are not contiguous from 1: {self.ids}")


class UnknownCategory(GraphError):
    def __init__(self, category: str):
        self.category = category
        super().__init__(f"unknown category {category!r}")


class SelfDependency(GraphError):
    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"question {node_id} depends on itself")


class CycleDetected(GraphError):
    def __init__(self, cycle: Sequence[int]):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(str(i) for i in self.cycle))


class DanglingEdge(GraphError):
    def __init__(self, missing_id: int):
        self.missing_id = missing_id
        super().__init__(f"edge references unknown question id {missing_id}")


class CountMismatch(GraphError):
    pass


class UnknownId(GraphError):
    def __init__(self, missing_id: int):
        self.missing_id = missing_id
        super().__init__(f"unknown question id {missing_id}")


class GraphTooLarge(GraphError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"graph has {count} questions, limit is {limit}")


class SchemaViolation(GraphError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class Category(str, Enum):
    """The four kinds of atomic concept."""

    ENTITY = "entity"
    ATTRIBUTE = "attribute"
    RELATION = "relation"
    ACTION = "action"


@dataclass(frozen=True)
class ConceptTuple:
    """One atomic semantic unit extracted from a prompt."""

    id: int
    category: Category
    detail: str
    content: str

    def __post_init__(self):
        if self.id < 1:
            raise GraphError(f"tuple id must be >= 1, got {self.id}")
        if not isinstance(self.category, Category):
            raise UnknownCategory(str(self.category))
        if not self.content.strip():
            raise GraphError(f"tuple {self.id} has empty content")

    def render(self) -> str:
        return f"{self.id} | {self.category.value} - {self.detail} ({self.content})"


@dataclass(frozen=True)
class Question:
    """A binary verification question for one concept tuple."""

    id: int
    text: str

    def __post_init__(self):
        if self.id < 1:
            raise GraphError(f"question id must be >= 1, got {self.id}")
        if not self.text.strip():
            raise GraphError(f"question {self.id} has empty text")

    def render(self) -> str:
        return f"{self.id} | {self.text}"


@dataclass(frozen=True, order=True)
class DependencyEdge:
    """Entailment dependency: the child question presumes the parent holds."""

    parent: int
    child: int

    def __post_init__(self):
        if self.parent == self.child:
            raise SelfDependency(self.parent)


@dataclass(frozen=True)
class SceneGraph:
    """Validated concept graph for one prompt. Immutable; build via build_graph."""

    source_prompt: str
    tuples: Tuple[ConceptTuple, ...]
    questions: Tuple[Question, ...]
    edges: FrozenSet[DependencyEdge]

    # The indexes below are computed once per graph, on first use, and kept in
    # the instance __dict__ (cached_property writes there directly, so it works
    # on a frozen dataclass). They are pure functions of the frozen fields and
    # take no part in equality or repr; if two threads race to fill one, both
    # compute the same value.

    @cached_property
    def _by_id(self) -> Dict[int, Question]:
        return {q.id: q for q in self.questions}

    @cached_property
    def _children(self) -> Dict[int, Tuple[int, ...]]:
        adj: Dict[int, List[int]] = {q.id: [] for q in self.questions}
        for e in sorted(self.edges):
            adj[e.parent].append(e.child)
        return {qid: tuple(kids) for qid, kids in adj.items()}

    @cached_property
    def _levels(self) -> Tuple[Tuple[int, ...], ...]:
        indegree = {q.id: 0 for q in self.questions}
        for e in self.edges:
            indegree[e.child] += 1
        levels: List[Tuple[int, ...]] = []
        ready = sorted(i for i, n in indegree.items() if n == 0)
        while ready:
            levels.append(tuple(ready))
            next_ready: List[int] = []
            for node in ready:
                for child in self._children[node]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        next_ready.append(child)
            ready = sorted(next_ready)
        return tuple(levels)

    def question_ids(self) -> List[int]:
        return [q.id for q in self.questions]

    def question_by_id(self, qid: int) -> Question:
        try:
            return self._by_id[qid]
        except KeyError:
            raise UnknownId(qid) from None

    def children(self) -> Dict[int, List[int]]:
        return {qid: list(kids) for qid, kids in self._children.items()}

    def max_id(self) -> int:
        return max((t.id for t in self.tuples), default=0)


def _split_lines(raw: str) -> List[Tuple[int, str]]:
    """Non-blank lines with their 1-based line numbers."""
    out = []
    for no, line in enumerate(raw.splitlines(), start=1):
        if line.strip():
            out.append((no, line))
    return out


def _split_id(line: str, line_no: int) -> Tuple[int, str]:
    """Split a `<id> | <rest>` line into its positive integer id and the rest."""
    head, sep, rest = line.partition("|")
    if not sep:
        raise MalformedLine(line_no, line, "missing '|' separator")
    head = head.strip()
    if not head.isdecimal():
        raise MalformedLine(line_no, line, "id is not a positive integer")
    value = int(head)
    if value < 1:
        raise MalformedLine(line_no, line, "id must be >= 1")
    return value, rest


def parse_tuple_line(line: str, line_no: int = 0) -> ConceptTuple:
    """Parse one `<id> | <category> - <detail> (<content>)` line."""
    tid, rest = _split_id(line, line_no)
    cat_part, dash, qualifier = rest.partition("-")
    if not dash:
        raise MalformedLine(line_no, line, "missing '-' between category and detail")
    cat_text = cat_part.strip()
    try:
        category = Category(cat_text.lower())
    except ValueError:
        raise UnknownCategory(cat_text) from None
    qualifier = qualifier.strip()
    open_idx = qualifier.find("(")
    if open_idx < 0 or not qualifier.endswith(")"):
        raise MalformedLine(line_no, line, "content must be enclosed in parentheses")
    detail = qualifier[:open_idx].strip()
    content = qualifier[open_idx + 1 : -1].strip()
    if not content:
        raise MalformedLine(line_no, line, "empty content")
    return ConceptTuple(id=tid, category=category, detail=detail, content=content)


def parse_tuple_lines(raw: str) -> List[ConceptTuple]:
    """Parse every non-blank line as a tuple, keeping the ids as written."""
    return [parse_tuple_line(line, no) for no, line in _split_lines(raw)]


def parse_tuples(raw: str) -> List[ConceptTuple]:
    """Parse a tuple block. Ids must be unique and contiguous from 1."""
    tuples = parse_tuple_lines(raw)
    seen: Set[int] = set()
    for t in tuples:
        if t.id in seen:
            raise DuplicateId(t.id)
        seen.add(t.id)
    if tuples and sorted(seen) != list(range(1, len(tuples) + 1)):
        raise NonContiguousIds(seen)
    return tuples


def parse_questions(raw: str) -> List[Question]:
    """Parse a question block of `<id> | <question text>` lines."""
    questions = []
    seen: Set[int] = set()
    for no, line in _split_lines(raw):
        qid, text = _split_id(line, no)
        text = text.strip()
        if not text:
            raise MalformedLine(no, line, "empty question text")
        if qid in seen:
            raise DuplicateId(qid)
        seen.add(qid)
        questions.append(Question(id=qid, text=text))
    return questions


def parse_dependencies(raw: str) -> Set[DependencyEdge]:
    """Parse a dependency block. `<id> | 0` declares a root (no parents)."""
    edges: Set[DependencyEdge] = set()
    for no, line in _split_lines(raw):
        child, rest = _split_id(line, no)
        parts = [p.strip() for p in rest.split(",")]
        if not parts or any(not p.isdecimal() for p in parts):
            raise MalformedLine(no, line, "parent list must be comma-separated integers")
        parents = [int(p) for p in parts]
        if 0 in parents:
            if len(parents) > 1:
                raise MalformedLine(no, line, "'0' (no parents) cannot be combined with parent ids")
            continue
        for parent in parents:
            if parent == child:
                raise SelfDependency(child)
            edges.add(DependencyEdge(parent=parent, child=child))
    return edges


def render_tuples(tuples: Iterable[ConceptTuple]) -> str:
    return "\n".join(t.render() for t in sorted(tuples, key=lambda t: t.id))


def render_questions(questions: Iterable[Question]) -> str:
    return "\n".join(q.render() for q in sorted(questions, key=lambda q: q.id))


def render_dependencies(question_ids: Iterable[int], edges: Iterable[DependencyEdge]) -> str:
    parents: Dict[int, List[int]] = {qid: [] for qid in question_ids}
    for e in edges:
        parents.setdefault(e.child, []).append(e.parent)
    lines = []
    for qid in sorted(parents):
        ps = sorted(parents[qid])
        lines.append(f"{qid} | " + (", ".join(str(p) for p in ps) if ps else "0"))
    return "\n".join(lines)


def _cycle_among(unplaced: Set[int], edges: Iterable[DependencyEdge]) -> List[int]:
    """One cycle through questions that a Kahn pass never placed, as a path
    along edges with its first node repeated at the end.

    Each such question keeps an unplaced parent, so walking from parent to
    parent must come back to a question already walked.
    """
    parent: Dict[int, int] = {}
    for e in sorted(edges):
        if e.child in unplaced and e.parent in unplaced:
            parent.setdefault(e.child, e.parent)
    node = min(unplaced)
    walk: List[int] = []
    while node not in walk:
        walk.append(node)
        node = parent[node]
    return [node] + walk[walk.index(node):][::-1]


def build_graph(
    prompt: str,
    tuples: Sequence[ConceptTuple],
    questions: Sequence[Question],
    edges: Iterable[DependencyEdge],
) -> SceneGraph:
    """Assemble and fully validate a SceneGraph from parsed parts."""
    tuples = tuple(sorted(tuples, key=lambda t: t.id))
    questions = tuple(sorted(questions, key=lambda q: q.id))
    edge_set = frozenset(edges)

    if len(questions) > MAX_QUESTIONS:
        raise GraphTooLarge(len(questions), MAX_QUESTIONS)
    if len(tuples) != len(questions):
        raise CountMismatch(f"{len(tuples)} tuples vs {len(questions)} questions")

    tuple_ids = [t.id for t in tuples]
    question_ids = [q.id for q in questions]
    for ids in (tuple_ids, question_ids):
        seen: Set[int] = set()
        for i in ids:
            if i in seen:
                raise DuplicateId(i)
            seen.add(i)
    if tuple_ids != list(range(1, len(tuples) + 1)):
        raise NonContiguousIds(tuple_ids)
    if tuple_ids != question_ids:
        raise CountMismatch(f"tuple ids {tuple_ids} do not match question ids {question_ids}")

    id_set = set(question_ids)
    for e in edge_set:
        for endpoint in (e.parent, e.child):
            if endpoint not in id_set:
                raise DanglingEdge(endpoint)

    graph = SceneGraph(source_prompt=prompt, tuples=tuples, questions=questions, edges=edge_set)
    # The Kahn pass is the cycle check, and it fills the graph's level cache.
    placed = {qid for level in graph._levels for qid in level}
    if len(placed) < len(question_ids):
        raise CycleDetected(_cycle_among(id_set - placed, edge_set))
    return graph


def topological_levels(graph: SceneGraph) -> List[List[int]]:
    """Question ids in Kahn generations: the roots first, then each question
    once all its parents are in earlier generations; ascending id within each.

    No question depends on another of its own generation, so a generation's
    questions can be asked in any order, or all at once.
    """
    return [list(level) for level in graph._levels]


def topological_order(graph: SceneGraph) -> List[int]:
    """Question ids with every parent before its children: the generations of
    ``topological_levels`` in turn."""
    return [qid for level in topological_levels(graph) for qid in level]


def descendants(graph: SceneGraph, qid: int) -> Set[int]:
    """Transitive closure of children of qid, excluding qid itself."""
    children = graph._children
    if qid not in children:
        raise UnknownId(qid)
    out: Set[int] = set()
    stack = list(children[qid])
    while stack:
        node = stack.pop()
        if node in out:
            continue
        out.add(node)
        stack.extend(children[node])
    return out


def tuple_to_doc(t: ConceptTuple) -> dict:
    return {"id": t.id, "category": t.category.value, "detail": t.detail, "content": t.content}


def graph_to_doc(graph: SceneGraph) -> dict:
    return {
        "source_prompt": graph.source_prompt,
        "tuples": [tuple_to_doc(t) for t in sorted(graph.tuples, key=lambda t: t.id)],
        "questions": [
            {"id": q.id, "text": q.text} for q in sorted(graph.questions, key=lambda q: q.id)
        ],
        "edges": [[e.parent, e.child] for e in sorted(graph.edges)],
    }


def serialize_graph(graph: SceneGraph) -> str:
    """Canonical, byte-stable JSON document for a graph: one line of UTF-8
    JSON, compact so that CPython's C encoder writes it."""
    return json.dumps(graph_to_doc(graph), ensure_ascii=False) + "\n"


def _expect(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise SchemaViolation(f"{path}.{key}" if path else key, "missing field")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        want = kind[0].__name__ if isinstance(kind, tuple) else kind.__name__
        raise SchemaViolation(f"{path}.{key}" if path else key, f"expected {want}")
    return value


def tuple_from_doc(item, path: str) -> ConceptTuple:
    """Read a ``tuple_to_doc`` object, checking every field's type."""
    if not isinstance(item, dict):
        raise SchemaViolation(path, "expected object")
    tid = _expect(item, "id", int, path)
    cat_text = _expect(item, "category", str, path)
    detail = _expect(item, "detail", str, path)
    content = _expect(item, "content", str, path)
    try:
        category = Category(cat_text.lower())
    except ValueError:
        raise UnknownCategory(cat_text) from None
    return ConceptTuple(id=tid, category=category, detail=detail, content=content)


def graph_from_doc(doc: dict) -> SceneGraph:
    if not isinstance(doc, dict):
        raise SchemaViolation("", "document is not an object")
    prompt = _expect(doc, "source_prompt", str, "")
    raw_tuples = _expect(doc, "tuples", list, "")
    raw_questions = _expect(doc, "questions", list, "")
    raw_edges = _expect(doc, "edges", list, "")

    tuples = [tuple_from_doc(item, f"tuples[{i}]") for i, item in enumerate(raw_tuples)]
    questions = []
    for i, item in enumerate(raw_questions):
        path = f"questions[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolation(path, "expected object")
        qid = _expect(item, "id", int, path)
        text = _expect(item, "text", str, path)
        questions.append(Question(id=qid, text=text))

    edges = set()
    for i, item in enumerate(raw_edges):
        path = f"edges[{i}]"
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise SchemaViolation(path, "expected [parent, child] integer pair")
        edges.add(DependencyEdge(parent=item[0], child=item[1]))

    return build_graph(prompt, tuples, questions, edges)


def parse_graph(text: str) -> SceneGraph:
    """Parse and validate a graph document. Inverse of serialize_graph."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("", f"invalid JSON: {exc}") from None
    return graph_from_doc(doc)
