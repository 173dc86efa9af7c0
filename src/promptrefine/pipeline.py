"""End-to-end orchestration: generate, reflect, optimize, regenerate.

One run produces a RunRecord holding every prompt, image reference, report,
and backend call summary. A failed stage, or a record that cannot be written,
marks the record failed and keeps the partial state; run_single raises only
for an empty prompt.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from promptrefine import scene_graph as sg
from promptrefine.backends.base import (
    MAX_IMAGE_DIM,
    MIN_IMAGE_DIM,
    Backend,
    BackendError,
    CallJournal,
    ImageGenRequest,
    ImageRef,
    image_suffix,
    recording,
    write_file_atomic,
)
from promptrefine.optimizer import (
    EmptyExpansion,
    ExpansionResult,
    KeywordClassTable,
    OptimizationOutcome,
    optimize,
)
from promptrefine.reflection import (
    Answer,
    AnswerSource,
    AnswerValue,
    ReflectionReport,
    build_dsg,
    evaluate_image,
    join,
    submit,
)
from promptrefine.templates import StageExhausted, TemplateSet, default_template_set

logger = logging.getLogger(__name__)


class IoFailure(Exception):
    pass


@dataclass
class Backends:
    """The model services one pipeline run talks to."""

    llm: Backend
    vqa: Backend
    t2i: Backend
    embed: Optional[Backend] = None


@dataclass
class PipelineConfig:
    backends: Backends
    rounds: int = 1
    seed: int = 0
    decorate: bool = True
    parallelism: int = 1
    width: int = 1024
    height: int = 1024
    templates: Optional[TemplateSet] = None
    keywords: Optional[KeywordClassTable] = None
    out_dir: Optional[Path] = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        for name in ("width", "height"):
            if not MIN_IMAGE_DIM <= getattr(self, name) <= MAX_IMAGE_DIM:
                raise ValueError(f"{name} must be from {MIN_IMAGE_DIM} to {MAX_IMAGE_DIM}")

    def template_set(self) -> TemplateSet:
        return self.templates if self.templates is not None else default_template_set()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(kw_only=True)
class RunRecord:
    """Persisted trace of one pipeline execution. Only the prompt history is
    required: a new record is completed and empty, with a fresh run id."""

    run_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    created_at: str = field(default_factory=_now)
    status: str = "completed"  # "completed" | "failed"
    failed_stage: Optional[str] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    converged: bool = False
    prompt_history: List[Tuple[str, str]]
    image_refs: List[Tuple[str, ImageRef, int]] = field(default_factory=list)
    graph: Optional[sg.SceneGraph] = None
    reports: List[ReflectionReport] = field(default_factory=list)
    outcome: Optional[OptimizationOutcome] = None
    backend_journal: List[dict] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.prompt_history:
            raise sg.SchemaViolation("prompt_history", "must start with the user prompt")
        if self.status == "completed" and not self.image_refs:
            raise sg.SchemaViolation("image_refs", "a completed record must reference at least one image")

    def final_prompt(self) -> str:
        return self.prompt_history[-1][1]


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, BackendError):
        return "backend"
    if isinstance(exc, (StageExhausted, EmptyExpansion)):
        return "stage_exhausted"
    if isinstance(exc, sg.GraphError):
        return "graph"
    if isinstance(exc, (IoFailure, OSError)):
        return "io"
    return "other"


def _failure(stage: str, exc: Exception) -> dict:
    """The RunRecord fields of a run that ``exc`` ended at ``stage``."""
    error = f"{type(exc).__name__}: {exc}"
    return dict(status="failed", failed_stage=stage, error=error, error_kind=_error_kind(exc))


def run_single(
    prompt: str,
    cfg: PipelineConfig,
    graph: Optional[sg.SceneGraph] = None,
    *,
    evaluate_only: bool = False,
) -> RunRecord:
    """Execute the full refinement loop for one prompt.

    Each of ``cfg.rounds`` rounds generates an image, evaluates it and, unless
    every question was answered yes (the run converged), optimizes the prompt.
    If no round converged, a "final" step generates and evaluates the last
    optimized prompt. With ``evaluate_only`` the run stops after the round-1
    evaluation.

    The concept graph depends only on the user prompt, so it is built on the
    shared pool while the round-1 image generates, and reused; pass ``graph``
    to skip construction entirely. The build's calls are journaled before the
    generate's, where the build was submitted. If the generate fails, its
    error is the run's, and the build's calls are still journaled. The run's
    journal is its own: an enclosing ``recording`` sees none of its calls.

    With ``cfg.out_dir`` set, the record is persisted there. The run never
    raises for a stage's error or for a record it cannot write (only for an
    empty prompt): a failed stage ends the run failed at that stage, and a
    failed write fails it at ``persist`` with error_kind ``io``, unless the
    run had already failed, which keeps its first failure. Either way the
    record keeps what the run had done.
    """
    if not prompt.strip():
        raise ValueError("prompt must be non-empty")

    templates = cfg.template_set()

    timings: Dict[str, float] = {}

    @contextmanager
    def timed(label: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            timings[label] = time.perf_counter() - start

    def build_graph() -> sg.SceneGraph:
        with timed("build_dsg"):
            return build_dsg(prompt, cfg.backends.llm, templates)

    prompt_history: List[Tuple[str, str]] = [("user", prompt)]
    image_refs: List[Tuple[str, ImageRef, int]] = []
    reports: List[ReflectionReport] = []
    outcome: Optional[OptimizationOutcome] = None
    converged = False
    failure: dict = {}

    build, build_error = None, None
    current = prompt
    stage = "generate"
    try:
        with recording(CallJournal()) as journal:
            if graph is None:
                build = submit(build_graph)
            for step in range(1, cfg.rounds + 2):
                final = step > cfg.rounds
                label = "final" if final else f"round-{step}"
                seed = cfg.seed + step - 1
                stage = "final_generate" if final else "generate"
                try:
                    with timed(f"{label}.generate"):
                        ref = cfg.backends.t2i.generate_image(
                            ImageGenRequest(prompt=current, seed=seed, width=cfg.width, height=cfg.height)
                        )
                finally:
                    if build is not None:
                        try:
                            [graph] = join([build])
                        except Exception as exc:  # noqa: BLE001 - raised once the generate is done
                            build_error = exc
                        build = None
                image_refs.append((label, ref, seed))
                if build_error is not None:
                    stage = "build_dsg"
                    raise build_error

                stage = "final_evaluate" if final else "evaluate"
                with timed(f"{label}.evaluate"):
                    report = evaluate_image(ref, graph, cfg.backends.vqa)
                reports.append(report)
                if final or evaluate_only:
                    break

                if not report.missing_ids:
                    converged = True
                    if outcome is None:
                        outcome = optimize(
                            current, graph, report, cfg.backends.llm, templates, cfg.keywords, cfg.decorate
                        )
                    break

                stage = "optimize"
                with timed(f"{label}.optimize"):
                    outcome = optimize(
                        current, graph, report, cfg.backends.llm, templates, cfg.keywords, cfg.decorate
                    )
                current = outcome.decorated_prompt
                prompt_history.append((f"{label}.optimized", current))
    except Exception as exc:  # noqa: BLE001 - stage failures become failed records
        failure = _failure(stage, exc)
        logger.warning("run failed at stage %s: %s", stage, failure["error"])

    record = RunRecord(
        converged=converged,
        prompt_history=prompt_history,
        image_refs=image_refs,
        graph=graph,
        reports=reports,
        outcome=outcome,
        backend_journal=journal.summaries(),
        timings=timings,
        **failure,
    )
    if cfg.out_dir is not None:
        try:
            persist_record(record, cfg.out_dir)
        except IoFailure as exc:
            logger.warning("run %s was not persisted: %s", record.run_id, exc)
            if not failure:  # a run that failed before keeps its first failure
                record = replace(record, **_failure("persist", exc))
    return record


def run_batch(prompts: List[str], cfg: PipelineConfig) -> List[RunRecord]:
    """Run many prompts with a worker pool; output order matches input order."""
    if not prompts:
        raise ValueError("prompts must be non-empty")

    def one(prompt: str) -> RunRecord:
        try:
            return run_single(prompt, cfg)
        except Exception as exc:  # noqa: BLE001 - a batch survives any item
            logger.error("unexpected failure for prompt %r: %s", prompt, exc)
            return RunRecord(prompt_history=[("user", prompt)], **_failure("setup", exc))

    with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
        records = list(pool.map(one, prompts))
    summary = summarize_batch(records)
    logger.info("batch finished: %s", summary)
    return records


def summarize_batch(records: List[RunRecord]) -> dict:
    completed = [r for r in records if r.status == "completed"]
    before = [r.reports[0].score for r in completed if r.reports]
    after = [r.reports[-1].score for r in completed if r.reports]
    return {
        "total": len(records),
        "completed": len(completed),
        "failed": len(records) - len(completed),
        "mean_score_before": sum(before) / len(before) if before else None,
        "mean_score_after": sum(after) / len(after) if after else None,
    }


# --------------------------------------------------------------------------
# serialization


def _answer(value: str) -> Answer:
    v = AnswerValue(value)
    return Answer(v, AnswerSource.PRUNED if v is AnswerValue.PRUNED_NO else AnswerSource.VQA)


# Reports are read by _record, which gives each one the record's graph.
_REPORT = sg.Schema(
    ReflectionReport,
    sg.Field(
        "answers",
        {str: _answer},
        convert=lambda answers: {int(k): a for k, a in answers.items()},
        emit=lambda answers: {str(qid): a.value.value for qid, a in sorted(answers.items())},
    ),
    sg.Field("missing_ids", [int], convert=frozenset, emit=sorted),
    sg.Field("score", float, convert=float),  # an integer too large for a float is refused here
    sg.Field("vqa_call_count", int),
)
_EXPANSION = sg.Schema(
    ExpansionResult,
    sg.Field("new_tuples", [sg.TUPLE], convert=tuple),
    sg.Field("targeted_ids", [int], convert=frozenset, emit=sorted),
    sg.Field("raw_transcript", str),
)
_OUTCOME = sg.Schema(
    OptimizationOutcome,
    sg.Field("original_prompt", str),
    sg.Field("regenerated_prompt", str),
    sg.Field("decorated_prompt", str),
    sg.Field("modified", bool),
    sg.Field("expansion", _EXPANSION, None),
    sg.Field("transcripts", {str: str}, {}),
)
_IMAGE_REF = sg.Schema(ImageRef, *sg.declared(ImageRef))


def _record(graph, reports, **fields) -> RunRecord:
    if reports and graph is None:
        raise sg.SchemaViolation("reports", "reports present but graph missing")
    report = sg.Schema(partial(ReflectionReport, graph), *_REPORT.fields)
    return RunRecord(graph=graph, reports=sg.read(reports, [report], "reports"), **fields)


# The record.json document, in its key order; a field added later has a default.
RECORD = sg.Schema(
    _record,
    sg.Field("run_id", str),
    sg.Field("created_at", str, ""),
    sg.Field("status", str),
    sg.Field("failed_stage", str, None),
    sg.Field("error", str, None),
    sg.Field("error_kind", str, None),
    sg.Field("converged", bool, False),
    sg.Field("prompt_history", [(str, str)]),
    sg.Field("image_refs", [(str, _IMAGE_REF, int)]),
    sg.Field("graph", sg.GRAPH, None),
    sg.Field("reports", list, emit=lambda reports: [sg.write(r, _REPORT) for r in reports]),
    sg.Field("outcome", _OUTCOME, None),
    sg.Field("backend_journal", [dict], []),
    sg.Field("timings", {str: float}, {}, emit=lambda timings: dict(sorted(timings.items()))),
)


def record_to_doc(record: RunRecord) -> dict:
    return sg.write(record, RECORD)


def record_from_doc(doc, base: Optional[Path] = None) -> RunRecord:
    """Read a ``record_to_doc`` document; an image path relative to ``base``
    becomes absolute. A malformed one raises SchemaViolation naming the field."""
    record = sg.read(doc, RECORD)
    if base is not None:
        record.image_refs = [
            (label, ref if ref.path is None or Path(ref.path).is_absolute()
             else replace(ref, path=str((base / ref.path).resolve())), seed)
            for label, ref, seed in record.image_refs
        ]
    return record


# What os.link raises when the filesystem cannot link these two paths.
_NO_LINK = frozenset({errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP})


def _link_or_copy(src: str, dest: Path) -> None:
    """Hard-link ``src`` at ``dest``, or copy it where the filesystem cannot link.

    A run's images are content-addressed files that are only ever replaced
    whole, never rewritten in place, so a link cannot change under a record.
    A copy goes through a temp file: persist_record skips an image that
    exists, so one cut short must never appear at ``dest``.
    """
    try:
        os.link(src, dest)
    except OSError as exc:
        if exc.errno not in _NO_LINK:
            raise
        write_file_atomic(dest, Path(src).read_bytes())


def _dumps_with_graph(doc: dict, graph_text: str) -> str:
    """``json.dumps(doc, ensure_ascii=False)`` for a ``record_to_doc`` document
    whose ``doc["graph"]`` is already encoded as ``graph_text``: the keys either
    side of "graph" are encoded as two objects and joined around it."""
    keys = list(doc)
    at = keys.index("graph")  # neither the first key nor the last
    head = json.dumps({k: doc[k] for k in keys[:at]}, ensure_ascii=False)
    tail = json.dumps({k: doc[k] for k in keys[at + 1:]}, ensure_ascii=False)
    return f'{head[:-1]}, "graph": {graph_text}, {tail[1:]}'


def persist_record(record: RunRecord, out_dir: Union[str, Path]) -> Path:
    """Write a run directory: record.json, graph.json, images/, transcripts/.

    Image files are hard-linked into the run directory, or copied where the
    filesystem cannot link, and referenced by paths relative to it as
    ``images/<label>.<ext>``. record.json is encoded before anything is
    written, and it, graph.json and the transcripts are each replaced whole,
    so a record that cannot be encoded, or a failed write, leaves the previous
    files intact. Returns the record.json path.
    """
    try:
        run_dir = Path(out_dir) / record.run_id
        links: List[Tuple[str, Path]] = []
        rebased: List[Tuple[str, ImageRef, int]] = []
        for label, ref, seed in record.image_refs:
            if ref.path is not None and Path(ref.path).exists():
                rel = f"images/{label}{image_suffix(ref.media_type)}"
                links.append((ref.path, run_dir / rel))
                rebased.append((label, ImageRef(path=rel, digest=ref.digest, media_type=ref.media_type), seed))
            else:
                rebased.append((label, ref, seed))

        doc = record_to_doc(replace(record, image_refs=rebased))
        try:
            graph_text = json.dumps(doc["graph"], ensure_ascii=False)
            text = _dumps_with_graph(doc, graph_text) + "\n"
        except (TypeError, ValueError) as exc:
            raise IoFailure(f"could not serialize record: {exc}") from exc

        run_dir.mkdir(parents=True, exist_ok=True)
        for src, dest in links:
            dest.parent.mkdir(parents=True, exist_ok=True)
            if not dest.exists():
                _link_or_copy(src, dest)
        if doc["graph"] is not None:  # the text record.json holds, as serialize_graph writes it
            write_file_atomic(run_dir / "graph.json", (graph_text + "\n").encode("utf-8"))
        if record.outcome is not None and record.outcome.transcripts:
            tdir = run_dir / "transcripts"
            tdir.mkdir(exist_ok=True)
            for stage, t in record.outcome.transcripts.items():
                write_file_atomic(tdir / f"{stage}.txt", (t + "\n").encode("utf-8"))
        path = run_dir / "record.json"
        write_file_atomic(path, text.encode("utf-8"))
        return path
    except OSError as exc:
        raise IoFailure(f"could not persist record: {exc}") from exc


def load_record(path: Union[str, Path]) -> RunRecord:
    """Load a record.json (or a run directory containing one)."""
    path = Path(path)
    if path.is_dir():
        path = path / "record.json"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"could not read record: {exc}") from exc
    return record_from_doc(sg.loads(text), base=path.parent)
