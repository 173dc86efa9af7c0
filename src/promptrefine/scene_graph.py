"""Concept scene-graph data model, line grammars, and DAG operations.

A prompt is decomposed into atomic concept tuples, one binary question per
tuple, and a dependency DAG over the questions. The three line grammars here
are the canonical interchange format emitted by the text-model stages:

    tuples:        <id> | <category> - <detail> (<content>)
    questions:     <id> | <question text>
    dependencies:  <child_id> | <parent_id>[, <parent_id>...]   (0 = no parents)

Tuples and graphs are persisted as the JSON documents of the Schemas
``TUPLE`` and ``GRAPH``. ``read`` is the one reader of every JSON document the
program reads back (records, graphs, datasets, mock scripts): it checks each
field against a ``Schema`` and names the field of the first fault. ``write``
is its inverse, and the one writer: a document written through a Schema reads
back through it.
``declared`` gives the Fields of a dataclass, for a Schema that builds one.
"""

from __future__ import annotations

import dataclasses
import json
from copy import copy
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple
from typing import get_args, get_type_hints

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
        super().__init__(f"{path}: {reason}" if path else reason)


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
    def parent_counts(self) -> Dict[int, int]:
        """How many parents each question has. Shared: copy it to change it."""
        counts = {q.id: 0 for q in self.questions}
        for e in self.edges:
            counts[e.child] += 1
        return counts

    @cached_property
    def order(self) -> Tuple[int, ...]:
        """Question ids in (level, id) order: each Kahn generation in turn."""
        return tuple(qid for level in self._levels for qid in level)

    @cached_property
    def rank(self) -> Dict[int, int]:
        """Each question id's position in ``order``. Shared: do not change it."""
        return {qid: i for i, qid in enumerate(self.order)}

    @cached_property
    def _levels(self) -> Tuple[Tuple[int, ...], ...]:
        indegree = dict(self.parent_counts)
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

    def children_of(self, qid: int) -> Tuple[int, ...]:
        """The ids of the questions that depend directly on ``qid``, ascending."""
        try:
            return self._children[qid]
        except KeyError:
            raise UnknownId(qid) from None

    def max_id(self) -> int:
        return max((t.id for t in self.tuples), default=0)


def split_lines(raw: str) -> List[Tuple[int, str]]:
    """Non-blank lines with their 1-based line numbers. Lines end at a line
    feed, and a carriage return before it is dropped. Unlike
    ``str.splitlines``, U+2028, U+2029 and U+0085 stay inside a line, as
    ``json.dumps(..., ensure_ascii=False)`` writes them raw."""
    out = []
    for no, line in enumerate(raw.split("\n"), start=1):
        line = line.removesuffix("\r")
        if line.strip():
            out.append((no, line))
    return out


def _category(text: str) -> Category:
    try:
        return Category(text.lower())
    except ValueError:
        raise UnknownCategory(text) from None


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
    category = _category(cat_part.strip())
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
    return [parse_tuple_line(line, no) for no, line in split_lines(raw)]


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
    for no, line in split_lines(raw):
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
    for no, line in split_lines(raw):
        child, rest = _split_id(line, no)
        parts = [p.strip() for p in rest.split(",")]
        if not parts or any(not p.isdecimal() for p in parts):
            raise MalformedLine(no, line, "parent list must be comma-separated integers")
        parents = [int(p) for p in parts]
        if 0 in parents:
            if len(parents) > 1:
                raise MalformedLine(no, line, "'0' (no parents) cannot be combined with parent ids")
            continue
        for parent in parents:  # DependencyEdge refuses a self-dependency
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
    return list(graph.order)


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


REQUIRED = object()  # the default of a Field that must be present


class Field(NamedTuple):
    """A key of a JSON object: the kind of its value (see ``read``), REQUIRED
    or the value it reads as when absent (a None default also reads null),
    an optional converter of the value read, and an optional ``emit`` that
    writes the attribute as its document instead of ``write`` (see there)."""

    name: str
    kind: Any
    default: Any = REQUIRED
    convert: Optional[Callable[[Any], Any]] = None
    emit: Optional[Callable[[Any], Any]] = None


class Schema:
    """A JSON object read into ``build(**fields)``, and written from the
    attributes of the same names; keys no field names are ignored."""

    def __init__(self, build: Callable[..., Any], *fields: Field):
        self.build = build
        self.fields = fields


def declared(cls, skip=()) -> Tuple[Field, ...]:
    """A Field for each field of the dataclass ``cls`` not in ``skip``, of its
    declared type (X for Optional[X]) and with its default, or REQUIRED if it
    has no default value (a default_factory included). A field of any other
    hint (a container, a Union of two types) is a TypeError, as ``read``
    would check its values against the wrong kind."""
    hints = get_type_hints(cls)
    out = []
    for f in (f for f in dataclasses.fields(cls) if f.name not in skip):
        hint = hints[f.name]
        kind = next((a for a in get_args(hint) if a is not type(None)), hint)  # X for Optional[X]
        if kind is Any or not isinstance(kind, type) or hint not in (kind, Optional[kind]):
            raise TypeError(f"{cls.__name__}.{f.name}: {hint} is not a type or Optional of one")
        out.append(Field(f.name, kind, REQUIRED if f.default is dataclasses.MISSING else f.default))
    return tuple(out)


def loads(text: str, path: str = ""):
    """``json.loads``; text that is not JSON is a SchemaViolation at ``path``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(path, f"invalid JSON: {exc}") from None


def _join(path: str, sub: str) -> str:
    if not path or not sub:
        return path or sub
    return path + sub if sub.startswith("[") else f"{path}.{sub}"


def _within(path: str, call: Callable[..., Any], /, *args, **kwargs):
    """``call(*args, **kwargs)``. A SchemaViolation it raises has its path
    taken as relative to ``path``; a ValueError (GraphError included) or
    OverflowError becomes a SchemaViolation at ``path``."""
    try:
        return call(*args, **kwargs)
    except SchemaViolation as exc:
        raise SchemaViolation(_join(path, exc.path), exc.reason) from exc
    except (OverflowError, ValueError) as exc:
        raise SchemaViolation(path, str(exc)) from exc


def read(value, kind, path: str = ""):
    """``value``, a parsed JSON document, checked against ``kind`` and built.

    A kind is a type (``int`` and ``float`` refuse booleans, and ``float``
    takes integers), a Schema, ``[k]`` (an array of k), ``(k1, ..., kn)`` (an
    array of n values, read as a tuple), ``{str: k}`` (an object of k values)
    or a function of the value. What does not fit, and a ValueError or
    OverflowError from a converter, build or function, is a SchemaViolation
    whose path names the value (``reports[0].score``, ``image_refs[1][1].path``).
    """
    if isinstance(kind, Schema):
        if not isinstance(value, dict):
            raise SchemaViolation(path, "document is not an object")
        fields = {}
        for f in kind.fields:
            at = _join(path, f.name)
            if f.name not in value or (value[f.name] is None and f.default is None):
                if f.default is REQUIRED:
                    raise SchemaViolation(at, "missing field")
                fields[f.name] = copy(f.default)
            else:
                got = read(value[f.name], f.kind, at)
                fields[f.name] = got if f.convert is None else _within(at, f.convert, got)
        return _within(path, kind.build, **fields)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise SchemaViolation(path, "expected array")
        return [read(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if not isinstance(value, list) or len(value) != len(kind):
            raise SchemaViolation(path, f"expected array of {len(kind)}")
        return tuple(read(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(value, kind)))
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise SchemaViolation(path, "expected object")
        return {k: read(v, kind[str], _join(path, k)) for k, v in value.items()}
    if not isinstance(kind, type):
        return _within(path, kind, value)
    accepted = (int, float) if kind is float else kind  # JSON has one number type
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        return value
    raise SchemaViolation(path, f"expected {kind.__name__}")


def write(value, kind):
    """The document that ``read(document, kind)`` builds ``value`` from.

    A Schema writes an object of its fields in order, each the attribute of
    that name: None as null, otherwise the field's ``emit`` of it, or the
    attribute written as the field's kind. ``[k]`` and ``(k1, ..., kn)``
    write arrays and ``{str: k}`` an object, element by element; any other
    kind writes the value as it is, so a field whose convert changes the
    value needs an emit that undoes it.
    """
    if isinstance(kind, Schema):
        doc = {}
        for f in kind.fields:
            v = getattr(value, f.name)
            # A plain type writes the value as it is, without a call per value:
            # a record's graph holds hundreds of them.
            if v is None or f.emit is None and isinstance(f.kind, type):
                doc[f.name] = v
            else:
                doc[f.name] = f.emit(v) if f.emit is not None else write(v, f.kind)
        return doc
    if isinstance(kind, list):
        return list(value) if isinstance(kind[0], type) else [write(v, kind[0]) for v in value]
    if isinstance(kind, tuple):
        return [write(v, k) for v, k in zip(value, kind)]
    if isinstance(kind, dict):
        return {k: write(v, kind[str]) for k, v in value.items()}
    return value


TUPLE = Schema(
    ConceptTuple,
    Field("id", int),
    Field("category", str, convert=_category, emit=lambda category: category.value),
    Field("detail", str),
    Field("content", str),
)


def _graph(source_prompt: str, tuples, questions, edges) -> SceneGraph:
    return build_graph(source_prompt, tuples, questions, {DependencyEdge(*pair) for pair in edges})


GRAPH = Schema(
    _graph,
    Field("source_prompt", str),
    Field("tuples", [TUPLE]),
    Field("questions", [Schema(Question, *declared(Question))]),
    Field("edges", [(int, int)], emit=lambda edges: [[e.parent, e.child] for e in sorted(edges)]),
)


def serialize_graph(graph: SceneGraph) -> str:
    """Canonical, byte-stable JSON document for a graph: one line of UTF-8
    JSON, compact so that CPython's C encoder writes it."""
    return json.dumps(write(graph, GRAPH), ensure_ascii=False) + "\n"


def parse_graph(text: str) -> SceneGraph:
    """Parse and validate a graph document. Inverse of serialize_graph. A
    graph rule that it breaks (an unknown category, mismatched ids, a cycle)
    raises that rule's own GraphError, where a record or dataset line reports
    a SchemaViolation at its graph field."""
    try:
        return read(loads(text), GRAPH)
    except SchemaViolation as exc:
        if isinstance(exc.__cause__, GraphError) and not isinstance(exc.__cause__, SchemaViolation):
            raise exc.__cause__ from None
        raise
