"""Few-shot stage templates: preamble plus exemplar files, with retrying stage runs.

Directory layout, one subdirectory per stage::

    <dir>/tuples/preamble.txt
    <dir>/tuples/examples/001.input.txt
    <dir>/tuples/examples/001.output.txt
    ...

Exemplars are loaded in ascending filename order. The bundled default set
lives under ``promptrefine/data/templates``.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from promptrefine.backends.base import Backend, TextGenRequest

logger = logging.getLogger(__name__)

T = TypeVar("T")

# Every few-shot stage is asked at most this many times before StageExhausted.
STAGE_ATTEMPTS = 3


class TemplateError(Exception):
    pass


class StageExhausted(Exception):
    """A text-model stage kept producing invalid output."""

    def __init__(self, stage: str, attempts: int, last_error: Exception):
        self.stage = stage
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"stage {stage!r} still invalid after {attempts} attempts: {last_error}"
        )


@dataclass(frozen=True)
class StageTemplate:
    name: str
    preamble: str
    exemplars: Tuple[Tuple[str, str], ...]

    def request(self, input_text: str) -> TextGenRequest:
        return TextGenRequest(preamble=self.preamble, exemplars=self.exemplars, input=input_text)


@dataclass(frozen=True)
class TemplateSet:
    stages: Dict[str, StageTemplate]

    def stage(self, name: str) -> StageTemplate:
        try:
            return self.stages[name]
        except KeyError:
            raise TemplateError(
                f"template set has no stage {name!r} (have: {sorted(self.stages)})"
            ) from None


_INPUT_FILE = re.compile(r"^(\d+)\.input\.txt$")


def _load_stage(stage_dir: Path) -> StageTemplate:
    preamble_path = stage_dir / "preamble.txt"
    if not preamble_path.is_file():
        raise TemplateError(f"missing preamble: {preamble_path}")
    preamble = preamble_path.read_text(encoding="utf-8").strip()
    exemplars = []
    examples_dir = stage_dir / "examples"
    if examples_dir.is_dir():
        for input_path in sorted(examples_dir.iterdir()):
            m = _INPUT_FILE.match(input_path.name)
            if not m:
                continue
            output_path = examples_dir / f"{m.group(1)}.output.txt"
            if not output_path.is_file():
                raise TemplateError(f"exemplar {input_path.name} has no output file")
            exemplars.append(
                (
                    input_path.read_text(encoding="utf-8").strip("\n"),
                    output_path.read_text(encoding="utf-8").strip("\n"),
                )
            )
    return StageTemplate(name=stage_dir.name, preamble=preamble, exemplars=tuple(exemplars))


def load_template_set(directory: Union[str, Path]) -> TemplateSet:
    directory = Path(directory)
    if not directory.is_dir():
        raise TemplateError(f"template directory not found: {directory}")
    stages = {}
    for stage_dir in sorted(directory.iterdir()):
        if stage_dir.is_dir():
            stages[stage_dir.name] = _load_stage(stage_dir)
    if not stages:
        raise TemplateError(f"no stage directories in {directory}")
    return TemplateSet(stages=stages)


@functools.cache
def default_template_set() -> TemplateSet:
    """The bundled set, read once per process and shared by every caller."""
    root = resources.files("promptrefine").joinpath("data", "templates")
    return load_template_set(Path(str(root)))


def run_stage(
    llm: Backend,
    stage: StageTemplate,
    input_text: str,
    parse: Callable[[str], T],
) -> T:
    """Invoke a stage until its output parses, up to STAGE_ATTEMPTS times.

    Returns the parsed value. Invalid output (any ValueError from ``parse``)
    triggers a re-invocation; backend errors propagate.
    """
    request = stage.request(input_text)
    last_error: Optional[Exception] = None
    for attempt in range(1, STAGE_ATTEMPTS + 1):
        raw = llm.complete(request)
        try:
            return parse(raw)
        except ValueError as exc:
            last_error = exc
            logger.debug("stage %s attempt %d invalid: %s", stage.name, attempt, exc)
    raise StageExhausted(stage.name, STAGE_ATTEMPTS, last_error)
