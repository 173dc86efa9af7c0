"""Targeted prompt optimization: expand missing concepts into enriched tuples,
regenerate a complete prompt from the full concept set, and append aesthetic
keywords chosen from fixed classes."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from promptrefine import scene_graph as sg
from promptrefine.backends.base import Backend
from promptrefine.reflection import AnswerValue, ReflectionReport
from promptrefine.templates import STAGE_ATTEMPTS, StageExhausted, TemplateSet, run_stage

logger = logging.getLogger(__name__)

KEYWORD_CLASSES = ("quality", "style", "background", "light", "aesthetics")
MAX_KEYWORDS_PER_CLASS = 2
MAX_PROMPT_CHARS = 480

# Created keywords: at most 4 words, no punctuation besides hyphens.
_CREATED_KEYWORD = re.compile(r"[A-Za-z0-9][A-Za-z0-9 -]*")


class EmptyExpansion(Exception):
    """The model produced no new tuples for a non-empty missing set."""


@dataclass(frozen=True)
class KeywordClassTable:
    """Ordered keyword classes with example keywords for each."""

    classes: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def __post_init__(self):
        names = [name for name, _ in self.classes]
        if sorted(names) != sorted(KEYWORD_CLASSES):
            raise ValueError(f"keyword table must define exactly {KEYWORD_CLASSES}, got {names}")
        for name, keywords in self.classes:
            if not keywords:
                raise ValueError(f"keyword class {name!r} has no examples")

    def class_names(self) -> List[str]:
        return [name for name, _ in self.classes]

    def class_of(self, keyword: str) -> Optional[str]:
        k = keyword.strip().lower()
        for name, keywords in self.classes:
            if k in (w.lower() for w in keywords):
                return name
        return None

    def render(self) -> str:
        return "\n".join(f"{name}: {', '.join(kws)}" for name, kws in self.classes)


def load_keyword_table(path: Union[str, Path]) -> KeywordClassTable:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("keyword file must be a JSON object of class -> keyword list")
    classes = []
    for name, keywords in doc.items():
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise ValueError(f"keyword class {name!r} must map to a list of strings")
        classes.append((name, tuple(keywords)))
    return KeywordClassTable(classes=tuple(classes))


def default_keyword_table() -> KeywordClassTable:
    path = resources.files("promptrefine").joinpath("data", "keywords.json")
    return load_keyword_table(Path(str(path)))


@dataclass(frozen=True)
class ExpansionResult:
    """New enriching tuples whose ids continue after the original graph."""

    new_tuples: Tuple[sg.ConceptTuple, ...]
    targeted_ids: FrozenSet[int]
    raw_transcript: str


@dataclass(frozen=True)
class OptimizationOutcome:
    original_prompt: str
    regenerated_prompt: str
    decorated_prompt: str
    expansion: Optional[ExpansionResult]
    modified: bool
    transcripts: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.modified:
            if self.regenerated_prompt != self.original_prompt or self.expansion is not None:
                raise ValueError("unmodified outcome must carry the original prompt only")


def _status_text(answer_value: AnswerValue) -> str:
    if answer_value is AnswerValue.YES:
        return "yes"
    if answer_value is AnswerValue.NO:
        return "no"
    return "no (pruned)"


def render_expansion_input(prompt: str, graph: sg.SceneGraph, report: ReflectionReport) -> str:
    lines = [f"Prompt: {prompt}", "Concepts:"]
    for t in sorted(graph.tuples, key=lambda t: t.id):
        status = _status_text(report.answers[t.id].value)
        lines.append(f"{t.render()} => {status}")
    return "\n".join(lines)


def render_regeneration_input(original: str, all_tuples) -> str:
    return f"Prompt: {original}\nConcepts:\n{sg.render_tuples(all_tuples)}"


def render_decoration_input(prompt: str, table: KeywordClassTable) -> str:
    return f"Prompt: {prompt}\nKeyword classes:\n{table.render()}"


def expand_concepts(
    prompt: str,
    graph: sg.SceneGraph,
    report: ReflectionReport,
    llm: Backend,
    templates: TemplateSet,
) -> ExpansionResult:
    """Ask the model for additional tuples that enrich only the missing concepts.

    Emitted ids are renumbered to continue after the original graph's max id;
    original tuples are never altered.
    """
    if not report.missing_ids:
        raise ValueError("expand_concepts requires a non-empty missing set")
    if report.graph != graph:
        raise ValueError("report was produced from a different graph")

    stage = templates.stage("expansion")
    request = stage.request(render_expansion_input(prompt, graph, report))
    last_error: Optional[Exception] = None
    empty_retried = False
    for _ in range(STAGE_ATTEMPTS):
        raw = llm.complete(request)
        try:
            emitted = sg.parse_tuple_lines(raw)
        except ValueError as exc:
            last_error = exc
            continue
        if not emitted:
            if empty_retried:
                raise EmptyExpansion(
                    f"model returned no new tuples for missing ids {sorted(report.missing_ids)}"
                )
            empty_retried = True
            last_error = EmptyExpansion("empty expansion output")
            continue
        base = graph.max_id()
        renumbered = tuple(
            sg.ConceptTuple(id=base + i, category=t.category, detail=t.detail, content=t.content)
            for i, t in enumerate(emitted, start=1)
        )
        return ExpansionResult(
            new_tuples=renumbered,
            targeted_ids=frozenset(report.missing_ids),
            raw_transcript=raw,
        )
    raise StageExhausted("expansion", STAGE_ATTEMPTS, last_error)


def regenerate_prompt(
    original: str,
    all_tuples,
    llm: Backend,
    templates: TemplateSet,
) -> str:
    """Compose a single-line prompt from the full concept set."""

    def parse(raw: str) -> str:
        text = raw.strip()
        if not text:
            raise ValueError("empty prompt")
        if "\n" in text:
            raise ValueError("prompt must be a single line")
        if "|" in text:
            raise ValueError("prompt contains tuple-grammar artifacts")
        if len(text) > MAX_PROMPT_CHARS:
            raise ValueError(f"prompt length {len(text)} exceeds cap {MAX_PROMPT_CHARS}")
        return text

    text, _ = run_stage(
        llm, templates.stage("regeneration"), render_regeneration_input(original, all_tuples), parse
    )
    return text


def select_keywords(raw_line: str, prompt: str, table: KeywordClassTable) -> List[str]:
    """Filter a comma-separated keyword line down to the admissible set.

    Keeps emission order; drops duplicates, keywords already present in the
    prompt, malformed created keywords, and anything beyond two per class.
    Keywords not in the table count against the first class with room.
    """
    counts = {name: 0 for name in table.class_names()}
    chosen: List[str] = []
    seen = set()
    prompt_lower = prompt.lower()
    for part in raw_line.split(","):
        keyword = part.strip()
        if not keyword:
            continue
        key = keyword.lower()
        if key in seen or key in prompt_lower:
            continue
        cls = table.class_of(keyword)
        if cls is None:
            if len(keyword.split()) > 4 or not _CREATED_KEYWORD.fullmatch(keyword):
                continue
            cls = next((c for c in table.class_names() if counts[c] < MAX_KEYWORDS_PER_CLASS), None)
            if cls is None:
                continue
        if counts[cls] >= MAX_KEYWORDS_PER_CLASS:
            continue
        counts[cls] += 1
        seen.add(key)
        chosen.append(keyword)
    return chosen


def _parse_keyword_line(raw: str) -> str:
    line = raw.strip()
    if "\n" in line:
        raise ValueError("keyword list must be a single line")
    return line


def decorate_prompt(
    prompt: str,
    llm: Backend,
    keyword_table: KeywordClassTable,
    templates: TemplateSet,
) -> str:
    """Append model-selected aesthetic keywords to the prompt.

    The result is the prompt verbatim followed by the selected keywords,
    comma-separated; with no keywords the prompt is returned unchanged.
    """
    if not prompt.strip():
        raise ValueError("prompt must be non-empty")

    line, _ = run_stage(
        llm, templates.stage("decoration"), render_decoration_input(prompt, keyword_table), _parse_keyword_line
    )
    keywords = select_keywords(line, prompt, keyword_table)
    if not keywords:
        return prompt
    return prompt + ", " + ", ".join(keywords)


def optimize(
    prompt: str,
    graph: sg.SceneGraph,
    report: ReflectionReport,
    llm: Backend,
    templates: TemplateSet,
    keywords: Optional[KeywordClassTable] = None,
    decorate: bool = True,
) -> OptimizationOutcome:
    """Expansion, regeneration, then optional decoration.

    With no missing concepts nothing is modified and the original prompt is
    returned in every field. Decoration uses the bundled keyword table unless
    ``keywords`` is given.
    """
    if report.graph != graph:
        raise ValueError("report was produced from a different graph")

    if not report.missing_ids:
        return OptimizationOutcome(
            original_prompt=prompt,
            regenerated_prompt=prompt,
            decorated_prompt=prompt,
            expansion=None,
            modified=False,
        )

    expansion = expand_concepts(prompt, graph, report, llm, templates)
    all_tuples = list(graph.tuples) + list(expansion.new_tuples)
    regenerated = regenerate_prompt(prompt, all_tuples, llm, templates)
    transcripts = {"expansion": expansion.raw_transcript, "regeneration": regenerated}
    decorated = regenerated
    if decorate:
        table = keywords if keywords is not None else default_keyword_table()
        decorated = decorate_prompt(regenerated, llm, table, templates)
        transcripts["decoration"] = decorated
    return OptimizationOutcome(
        original_prompt=prompt,
        regenerated_prompt=regenerated,
        decorated_prompt=decorated,
        expansion=expansion,
        modified=True,
        transcripts=transcripts,
    )
