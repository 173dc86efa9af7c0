"""Benchmark harness: dataset loading, baseline vs optimized scoring, per-
category aggregation, CLIP-style relevance, and report rendering."""

from __future__ import annotations

import csv
import io
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from promptrefine import scene_graph as sg
from promptrefine.pipeline import PipelineConfig, RunRecord, _error_kind, run_single
from promptrefine.reflection import submit

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


def _nonblank(prompt: str) -> str:
    if not prompt.strip():
        raise ValueError("prompt is empty")
    return prompt


_ITEM = sg.Schema(
    DatasetItem,
    sg.Field("item_id", str),
    sg.Field("category", str),
    sg.Field("prompt", str, convert=_nonblank),
    sg.Field("graph", sg.GRAPH, None),
)


def load_dataset(path: Union[str, Path]) -> List[DatasetItem]:
    """Load a line-delimited dataset: one JSON record per line.

    Records carry ``item_id``, ``category``, ``prompt``, and optionally an
    inline ``graph`` in the graph-document schema. A malformed record raises
    SchemaViolation naming its line and field (``line 3.graph``).
    """
    items: List[DatasetItem] = []
    seen = set()
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in sg.split_lines(text):
        item = sg.read(sg.loads(line, f"line {line_no}"), _ITEM, f"line {line_no}")
        if item.item_id in seen:
            raise DuplicateItemId(item.item_id)
        seen.add(item.item_id)
        items.append(item)
    return items


def _try_embed(embedder, payload):
    """(vector, None), or (None, the error): one failed embed keeps the others."""
    try:
        return embedder.embed(payload), None
    except Exception as exc:  # noqa: BLE001 - relevance scoring is best-effort
        return None, exc


def _clip_pairings(result: ItemResult, item: DatasetItem, record: RunRecord,
                   cfg: PipelineConfig, optimized: bool) -> Callable[[], None]:
    """Send the embeds that score the relevance of the user prompt to the
    round-1 image and, for an optimized run, of both prompts to the final
    image, together on this thread's executor (``reflection.submit``).
    Returns the step that collects them, to be called on this thread: it
    records a pairing when both of its embeds succeed."""
    embedder = cfg.backends.embed
    if embedder is None:
        return lambda: None
    payloads = [item.prompt, record.image_refs[0][1]]
    pairings = {"baseline": (0, 1)}  # name -> (text, image) indices into payloads
    if optimized:
        payloads += [record.image_refs[-1][1], record.final_prompt(), item.prompt]
        pairings.update(optimized_prompt=(3, 2), original_prompt=(4, 2))
    tasks = [submit(_try_embed, embedder, payload) for payload in payloads]

    def collect() -> None:
        embeds = [task.result() for task in tasks]
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

    return collect


@contextmanager
def _item_errors(result: ItemResult) -> Iterator[None]:
    """Record an exception as the item's error: one bad item must not sink the run."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001
        result.error = f"{type(exc).__name__}: {exc}"
        result.error_kind = result.error_kind or _error_kind(exc)
        logger.warning("item %s failed: %s", result.item_id, result.error)


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
    written there, in either mode. An item's relevance embeds are in flight
    while the next items run; they are collected, in item order, once the
    last item has run, before the report is made.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    optimized = mode != "baseline"
    results: List[ItemResult] = []
    scoring: List[Tuple[ItemResult, Callable[[], None]]] = []  # each item's, in flight
    for item in dataset:
        result = ItemResult(item_id=item.item_id, category=item.category)
        results.append(result)
        with _item_errors(result):
            record = run_single(item.prompt, cfg, graph=item.graph, evaluate_only=not optimized)
            if record.status != "completed":
                result.error_kind = record.error_kind
                raise RuntimeError(f"pipeline failed at {record.failed_stage}: {record.error}")
            result.baseline_score = record.reports[0].score
            if optimized:
                result.optimized_score = record.reports[-1].score
            scoring.append((result, _clip_pairings(result, item, record, cfg, optimized)))
    for result, collect in scoring:
        with _item_errors(result):
            collect()
    return aggregate(results, mode)


def _mean(values: Iterable[Optional[float]]) -> Optional[float]:
    scores = [v for v in values if v is not None]
    return math.fsum(scores) / len(scores) if scores else None


def _means(items: List[ItemResult]) -> Dict[str, Optional[float]]:
    """The mean baseline and optimized scores of ``items``, over those that have one."""
    return {
        "baseline": _mean(i.baseline_score for i in items),
        "optimized": _mean(i.optimized_score for i in items),
    }


def aggregate(items: List[ItemResult], mode: str = "both") -> BenchReport:
    """Fold item results into per-category and overall means."""
    ok = [i for i in items if not i.failed]
    categories: Dict[str, List[ItemResult]] = {}
    for item in ok:
        categories.setdefault(item.category, []).append(item)
    category_means = {
        cat: {**_means(members), "count": len(members)} for cat, members in sorted(categories.items())
    }
    return BenchReport(
        mode=mode,
        items=items,
        category_means=category_means,
        overall=_means(ok),
        failed_count=sum(1 for i in items if i.failed),
    )


def clip_relevance(text_vec: Sequence[float], image_vec: Sequence[float]) -> float:
    """CLIP_SCALE times the cosine similarity of two embeddings, clipped to
    [0, 1]. Any two finite vectors of one length have one, unless either is
    all zeros (ZeroVector)."""
    if len(text_vec) != len(image_vec):
        raise DimensionMismatch(f"dimensions differ: {len(text_vec)} vs {len(image_vec)}")
    text_vec, image_vec = _scaled(text_vec), _scaled(image_vec)
    dot = math.fsum(a * b for a, b in zip(text_vec, image_vec))
    norm_a = math.sqrt(math.fsum(a * a for a in text_vec))
    norm_b = math.sqrt(math.fsum(b * b for b in image_vec))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("embeddings must be nonzero")
    # Rounding can put the cosine of two parallel vectors a little above 1.
    return CLIP_SCALE * min(max(dot / (norm_a * norm_b), 0.0), 1.0)


def _scaled(vec: Sequence[float]) -> List[float]:
    """``vec`` times the power of two that puts its largest magnitude in
    [0.5, 1). The cosine does not change, and the scaling is exact, so no
    square overflows and a nonzero vector keeps a nonzero norm."""
    shift = math.frexp(max(map(abs, vec), default=0.0))[1]
    return [math.ldexp(v, -shift) for v in vec]


def _cell(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}"


def render_report(report: BenchReport, format: str = "markdown") -> str:
    """Deterministic table: one row per mode, one column per category plus average.

    A ``|`` in a markdown cell is escaped as ``\\|``; CSV quotes as it needs."""
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

    def markdown_row(cells):
        return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"

    lines = [markdown_row(header), markdown_row("---" for _ in header)] + [markdown_row(row) for row in rows]
    return "\n".join(lines) + "\n"
