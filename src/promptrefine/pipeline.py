"""End-to-end orchestration: generate, reflect, optimize, regenerate.

One run produces a RunRecord holding every prompt, image reference, report,
and backend call summary. Stage failures mark the record failed and keep the
partial state; run_single never raises for stage-level errors.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import shutil
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from promptrefine import scene_graph as sg
from promptrefine.backends.base import (
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

    def template_set(self) -> TemplateSet:
        if self.templates is None:
            object.__setattr__(self, "templates", default_template_set())
        return self.templates


@dataclass
class RunRecord:
    """Persisted trace of one pipeline execution."""

    run_id: str
    created_at: str
    status: str  # "completed" | "failed"
    failed_stage: Optional[str]
    error: Optional[str]
    error_kind: Optional[str]
    converged: bool
    prompt_history: List[Tuple[str, str]]
    image_refs: List[Tuple[str, ImageRef, int]]
    graph: Optional[sg.SceneGraph]
    reports: List[ReflectionReport]
    outcome: Optional[OptimizationOutcome]
    backend_journal: List[dict]
    timings: Dict[str, float]

    def __post_init__(self):
        if not self.prompt_history:
            raise ValueError("prompt_history must start with the user prompt")
        if self.status == "completed" and not self.image_refs:
            raise ValueError("a completed record must reference at least one image")

    def final_prompt(self) -> str:
        return self.prompt_history[-1][1]


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, BackendError):
        return "backend"
    if isinstance(exc, (StageExhausted, EmptyExpansion)):
        return "stage_exhausted"
    if isinstance(exc, sg.GraphError):
        return "graph"
    return "other"


def _timed_build(prompt: str, llm: Backend, templates: TemplateSet):
    """build_dsg on a pool thread: (graph or None, its error or None, seconds)."""
    start = time.perf_counter()
    try:
        return build_dsg(prompt, llm, templates), None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - run_single raises it once the generate is done
        return None, exc, time.perf_counter() - start


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
    to skip construction entirely. The build's calls are journaled after the
    generate's, where its result is collected. If the generate fails, its error
    is the run's, and the build's calls are still journaled. The run's journal
    is its own: an enclosing ``recording`` sees none of its calls.
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

    prompt_history: List[Tuple[str, str]] = [("user", prompt)]
    image_refs: List[Tuple[str, ImageRef, int]] = []
    reports: List[ReflectionReport] = []
    outcome: Optional[OptimizationOutcome] = None
    converged = False
    status, failed_stage, error, error_kind = "completed", None, None, None

    build, build_error = None, None
    if graph is None:
        build = submit(_timed_build, prompt, cfg.backends.llm, templates)

    current = prompt
    stage = "generate"
    try:
        with recording(CallJournal()) as journal:
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
                        [(graph, build_error, timings["build_dsg"])] = join([build])
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
        status = "failed"
        failed_stage = stage
        error = f"{type(exc).__name__}: {exc}"
        error_kind = _error_kind(exc)
        logger.warning("run failed at stage %s: %s", stage, error)

    record = RunRecord(
        run_id=uuid.uuid4().hex,
        created_at=datetime.now(timezone.utc).isoformat(),
        status=status,
        failed_stage=failed_stage,
        error=error,
        error_kind=error_kind,
        converged=converged,
        prompt_history=prompt_history,
        image_refs=image_refs,
        graph=graph,
        reports=reports,
        outcome=outcome,
        backend_journal=journal.summaries(),
        timings=timings,
    )
    if cfg.out_dir is not None:
        persist_record(record, cfg.out_dir)
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
            return RunRecord(
                run_id=uuid.uuid4().hex,
                created_at=datetime.now(timezone.utc).isoformat(),
                status="failed",
                failed_stage="setup",
                error=f"{type(exc).__name__}: {exc}",
                error_kind=_error_kind(exc),
                converged=False,
                prompt_history=[("user", prompt)],
                image_refs=[],
                graph=None,
                reports=[],
                outcome=None,
                backend_journal=[],
                timings={},
            )

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


def _image_ref_to_doc(ref: ImageRef) -> dict:
    return {
        "path": ref.path,
        "digest": ref.digest,
        "remote_id": ref.remote_id,
        "media_type": ref.media_type,
    }


def _image_ref_from_doc(doc: dict, base: Optional[Path]) -> ImageRef:
    path = doc.get("path")
    if path is not None and base is not None and not Path(path).is_absolute():
        path = str((base / path).resolve())
    return ImageRef(
        path=path,
        digest=doc.get("digest"),
        remote_id=doc.get("remote_id"),
        media_type=doc.get("media_type", "image/png"),
    )


def _report_to_doc(report: ReflectionReport) -> dict:
    return {
        "answers": {str(qid): a.value.value for qid, a in sorted(report.answers.items())},
        "missing_ids": sorted(report.missing_ids),
        "score": report.score,
        "vqa_call_count": report.vqa_call_count,
    }


def _report_from_doc(doc: dict, graph: sg.SceneGraph, path: str) -> ReflectionReport:
    try:
        answers = {}
        for key, value in doc["answers"].items():
            v = AnswerValue(value)
            source = AnswerSource.PRUNED if v is AnswerValue.PRUNED_NO else AnswerSource.VQA
            answers[int(key)] = Answer(v, source)
        return ReflectionReport(
            graph=graph,
            answers=answers,
            missing_ids=frozenset(doc["missing_ids"]),
            score=doc["score"],
            vqa_call_count=doc["vqa_call_count"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise sg.SchemaViolation(path, f"invalid report: {exc}") from exc


def _outcome_to_doc(outcome: OptimizationOutcome) -> dict:
    expansion = None
    if outcome.expansion is not None:
        expansion = {
            "new_tuples": [sg.tuple_to_doc(t) for t in outcome.expansion.new_tuples],
            "targeted_ids": sorted(outcome.expansion.targeted_ids),
            "raw_transcript": outcome.expansion.raw_transcript,
        }
    return {
        "original_prompt": outcome.original_prompt,
        "regenerated_prompt": outcome.regenerated_prompt,
        "decorated_prompt": outcome.decorated_prompt,
        "modified": outcome.modified,
        "expansion": expansion,
        "transcripts": dict(outcome.transcripts),
    }


def _outcome_from_doc(doc: dict, path: str) -> OptimizationOutcome:
    try:
        expansion = None
        if doc.get("expansion") is not None:
            e = doc["expansion"]
            expansion = ExpansionResult(
                new_tuples=tuple(
                    sg.tuple_from_doc(t, f"{path}.expansion.new_tuples[{i}]")
                    for i, t in enumerate(e["new_tuples"])
                ),
                targeted_ids=frozenset(e["targeted_ids"]),
                raw_transcript=e["raw_transcript"],
            )
        return OptimizationOutcome(
            original_prompt=doc["original_prompt"],
            regenerated_prompt=doc["regenerated_prompt"],
            decorated_prompt=doc["decorated_prompt"],
            expansion=expansion,
            modified=doc["modified"],
            transcripts=dict(doc.get("transcripts", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise sg.SchemaViolation(path, f"invalid outcome: {exc}") from exc


def record_to_doc(record: RunRecord) -> dict:
    return {
        "run_id": record.run_id,
        "created_at": record.created_at,
        "status": record.status,
        "failed_stage": record.failed_stage,
        "error": record.error,
        "error_kind": record.error_kind,
        "converged": record.converged,
        "prompt_history": [[label, text] for label, text in record.prompt_history],
        "image_refs": [
            [label, _image_ref_to_doc(ref), seed] for label, ref, seed in record.image_refs
        ],
        "graph": sg.graph_to_doc(record.graph) if record.graph is not None else None,
        "reports": [_report_to_doc(r) for r in record.reports],
        "outcome": _outcome_to_doc(record.outcome) if record.outcome is not None else None,
        "backend_journal": record.backend_journal,
        "timings": {k: record.timings[k] for k in sorted(record.timings)},
    }


def record_from_doc(doc: dict, base: Optional[Path] = None) -> RunRecord:
    if not isinstance(doc, dict):
        raise sg.SchemaViolation("", "record document is not an object")
    for key in ("run_id", "status", "prompt_history", "image_refs", "reports"):
        if key not in doc:
            raise sg.SchemaViolation(key, "missing field")
    graph = sg.graph_from_doc(doc["graph"]) if doc.get("graph") is not None else None
    reports = []
    for i, rdoc in enumerate(doc["reports"]):
        if graph is None:
            raise sg.SchemaViolation(f"reports[{i}]", "report present but graph missing")
        reports.append(_report_from_doc(rdoc, graph, f"reports[{i}]"))
    try:
        image_refs = [
            (label, _image_ref_from_doc(rdoc, base), seed)
            for label, rdoc, seed in doc["image_refs"]
        ]
        prompt_history = [(label, text) for label, text in doc["prompt_history"]]
    except (TypeError, ValueError) as exc:
        raise sg.SchemaViolation("image_refs", f"malformed entry: {exc}") from exc
    outcome = _outcome_from_doc(doc["outcome"], "outcome") if doc.get("outcome") else None
    return RunRecord(
        run_id=doc["run_id"],
        created_at=doc.get("created_at", ""),
        status=doc["status"],
        failed_stage=doc.get("failed_stage"),
        error=doc.get("error"),
        error_kind=doc.get("error_kind"),
        converged=doc.get("converged", False),
        prompt_history=prompt_history,
        image_refs=image_refs,
        graph=graph,
        reports=reports,
        outcome=outcome,
        backend_journal=list(doc.get("backend_journal", [])),
        timings=dict(doc.get("timings", {})),
    )


# What os.link raises when the filesystem cannot link these two paths.
_NO_LINK = frozenset({errno.EXDEV, errno.EPERM, errno.EMLINK, errno.ENOTSUP})


def _link_or_copy(src: str, dest: Path) -> None:
    """Hard-link ``src`` at ``dest``, or copy it where the filesystem cannot link.

    A run's images are content-addressed files that are only ever replaced
    whole, never rewritten in place, so a link cannot change under a record.
    """
    try:
        os.link(src, dest)
    except OSError as exc:
        if exc.errno not in _NO_LINK:
            raise
        shutil.copyfile(src, dest)


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

        doc = record_to_doc(record)
        doc["image_refs"] = [
            [label, _image_ref_to_doc(ref), seed] for label, ref, seed in rebased
        ]
        try:
            text = json.dumps(doc, ensure_ascii=False) + "\n"
        except (TypeError, ValueError) as exc:
            raise IoFailure(f"could not serialize record: {exc}") from exc

        run_dir.mkdir(parents=True, exist_ok=True)
        for src, dest in links:
            dest.parent.mkdir(parents=True, exist_ok=True)
            if not dest.exists():
                _link_or_copy(src, dest)
        if record.graph is not None:
            write_file_atomic(run_dir / "graph.json", sg.serialize_graph(record.graph).encode("utf-8"))
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise sg.SchemaViolation("", f"invalid JSON: {exc}") from None
    return record_from_doc(doc, base=path.parent)
