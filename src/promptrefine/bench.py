"""Benchmark harness: dataset loading, baseline vs optimized scoring, per-
category aggregation, CLIP-style relevance, and report rendering."""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from promptrefine import scene_graph as sg
from promptrefine.pipeline import PipelineConfig, RunRecord, _error_kind, run_single
from promptrefine.reflection import join, submit

logger = logging.getLogger(__name__)

MODES = ("baseline", "optimized", "both")

# CLIP-score scale (Hessel et al., 2021): relevance is 100 x clipped cosine.
CLIP_SCALE = 100.0


class DuplicateItemId(ValueError):
    def __init__(self, item_id: str):
        self.item_id = item_id
        super().__init__(f"duplicate item_id {item_id!r}")


class DimensionMismatch(ValueError):
    pass


class ZeroVector(ValueError):
    pass


@dataclass(frozen=True)
class DatasetItem:
    item_id: str
    category: str
    prompt: str
    graph: Optional[sg.SceneGraph] = None


@dataclass
class ItemResult:
    item_id: str
    category: str
    baseline_score: Optional[float] = None
    optimized_score: Optional[float] = None
    clip: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    error_kind: Optional[str] = None  # the run's, or the classification of the error raised

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class BenchReport:
    mode: str
    items: List[ItemResult]
    category_means: Dict[str, Dict[str, Optional[float]]]
    overall: Dict[str, Optional[float]]
    failed_count: int


def load_dataset(path: Union[str, Path]) -> List[DatasetItem]:
    """Load a line-delimited dataset: one JSON record per line.

    Records carry ``item_id``, ``category``, ``prompt``, and optionally an
    inline ``graph`` in the graph-document schema.
    """
    items: List[DatasetItem] = []
    seen = set()
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise sg.SchemaViolation(f"line {line_no}", f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise sg.SchemaViolation(f"line {line_no}", "record is not an object")
        for key in ("item_id", "category", "prompt"):
            if key not in doc or not isinstance(doc[key], str):
                raise sg.SchemaViolation(f"line {line_no}.{key}", "missing or non-string field")
        if not doc["prompt"].strip():
            raise sg.SchemaViolation(f"line {line_no}.prompt", "prompt is empty")
        if doc["item_id"] in seen:
            raise DuplicateItemId(doc["item_id"])
        seen.add(doc["item_id"])
        graph = None
        if doc.get("graph") is not None:
            try:
                graph = sg.graph_from_doc(doc["graph"])
            except sg.SchemaViolation as exc:
                path = f"line {line_no}.graph.{exc.path}".rstrip(".")
                raise sg.SchemaViolation(path, exc.reason) from None
            except sg.GraphError as exc:  # a cycle, a dangling edge, bad ids
                raise sg.SchemaViolation(f"line {line_no}.graph", str(exc)) from None
        items.append(
            DatasetItem(
                item_id=doc["item_id"],
                category=doc["category"],
                prompt=doc["prompt"],
                graph=graph,
            )
        )
    return items


def _try_embed(embedder, payload):
    """(vector, None), or (None, the error): one failed embed keeps the others."""
    try:
        return embedder.embed(payload), None
    except Exception as exc:  # noqa: BLE001 - relevance scoring is best-effort
        return None, exc


def _clip_pairings(result: ItemResult, item: DatasetItem, record: RunRecord,
                   cfg: PipelineConfig, optimized: bool) -> None:
    """Relevance of the user prompt to the round-1 image and, for an optimized
    run, of both prompts to the final image. The embeds are sent together; a
    pairing is recorded when both of its embeds succeed."""
    embedder = cfg.backends.embed
    if embedder is None:
        return
    payloads = [item.prompt, record.image_refs[0][1]]
    pairings = {"baseline": (0, 1)}  # name -> (text, image) indices into payloads
    if optimized:
        payloads += [record.image_refs[-1][1], record.final_prompt(), item.prompt]
        pairings.update(optimized_prompt=(3, 2), original_prompt=(4, 2))
    embeds = join([submit(_try_embed, embedder, payload) for payload in payloads])
    errors = [error for _, error in embeds if error is not None]
    for name, (text, image) in pairings.items():
        (text_vec, _), (image_vec, _) = embeds[text], embeds[image]
        if text_vec is None or image_vec is None:
            continue
        try:
            result.clip[name] = clip_relevance(text_vec, image_vec)
        except ValueError as exc:  # mismatched or zero vectors
            errors.append(exc)
    if errors:
        logger.warning("clip scoring failed for %s: %s", result.item_id, errors[0])


def run_benchmark(
    dataset: Sequence[DatasetItem],
    cfg: PipelineConfig,
    mode: str = "both",
) -> BenchReport:
    """Score every dataset item; failures are recorded and excluded from means.

    Every item runs through ``run_single``. Baseline stops after scoring the
    image generated from the raw prompt; optimized runs the full pipeline and
    also scores the final image. Items with embedded graphs skip graph
    construction. With ``cfg.out_dir`` set, each item's run directory is
    written there, in either mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    optimized = mode != "baseline"
    results: List[ItemResult] = []
    for item in dataset:
        result = ItemResult(item_id=item.item_id, category=item.category)
        try:
            record = run_single(item.prompt, cfg, graph=item.graph, evaluate_only=not optimized)
            if record.status != "completed":
                result.error_kind = record.error_kind
                raise RuntimeError(f"pipeline failed at {record.failed_stage}: {record.error}")
            result.baseline_score = record.reports[0].score
            if optimized:
                result.optimized_score = record.reports[-1].score
            _clip_pairings(result, item, record, cfg, optimized)
        except Exception as exc:  # noqa: BLE001 - one bad item must not sink the run
            result.error = f"{type(exc).__name__}: {exc}"
            result.error_kind = result.error_kind or _error_kind(exc)
            logger.warning("item %s failed: %s", item.item_id, result.error)
        results.append(result)
    return aggregate(results, mode)


def _mean(values: List[float]) -> Optional[float]:
    return math.fsum(values) / len(values) if values else None


def aggregate(items: List[ItemResult], mode: str = "both") -> BenchReport:
    """Fold item results into per-category and overall means."""
    categories: Dict[str, List[ItemResult]] = {}
    for item in items:
        if not item.failed:
            categories.setdefault(item.category, []).append(item)
    category_means = {
        cat: {
            "baseline": _mean([i.baseline_score for i in members if i.baseline_score is not None]),
            "optimized": _mean(
                [i.optimized_score for i in members if i.optimized_score is not None]
            ),
            "count": len(members),
        }
        for cat, members in sorted(categories.items())
    }
    ok = [i for i in items if not i.failed]
    overall = {
        "baseline": _mean([i.baseline_score for i in ok if i.baseline_score is not None]),
        "optimized": _mean([i.optimized_score for i in ok if i.optimized_score is not None]),
    }
    return BenchReport(
        mode=mode,
        items=items,
        category_means=category_means,
        overall=overall,
        failed_count=sum(1 for i in items if i.failed),
    )


def clip_relevance(text_vec: Sequence[float], image_vec: Sequence[float]) -> float:
    """CLIP_SCALE times the zero-clipped cosine similarity of two embeddings."""
    if len(text_vec) != len(image_vec):
        raise DimensionMismatch(f"dimensions differ: {len(text_vec)} vs {len(image_vec)}")
    dot = math.fsum(a * b for a, b in zip(text_vec, image_vec))
    norm_a = math.sqrt(math.fsum(a * a for a in text_vec))
    norm_b = math.sqrt(math.fsum(b * b for b in image_vec))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("embeddings must be nonzero")
    return CLIP_SCALE * max(dot / (norm_a * norm_b), 0.0)


def _cell(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}"


def render_report(report: BenchReport, format: str = "markdown") -> str:
    """Deterministic table: one row per mode, one column per category plus average."""
    if format not in ("markdown", "csv"):
        raise ValueError("format must be 'markdown' or 'csv'")
    categories = list(report.category_means)
    header = ["method"] + categories + ["average"]
    rows = []
    for method in ("baseline", "optimized"):
        if report.mode != "both" and method != report.mode:
            continue
        row = [method]
        for cat in categories:
            row.append(_cell(report.category_means[cat][method]))
        row.append(_cell(report.overall[method]))
        rows.append(row)

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()

    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
