"""Command-line entry points.

Exit codes: 0 success, 2 config error, 3 backend failure, 4 stage exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional

from promptrefine import bench as bench_mod
from promptrefine.backends.base import BackendError, ImageRef
from promptrefine.config import ConfigError, load_config
from promptrefine.optimizer import EmptyExpansion
from promptrefine.pipeline import IoFailure, RunRecord, run_single
from promptrefine.reflection import build_dsg, evaluate_image
from promptrefine.scene_graph import GraphError, serialize_graph
from promptrefine.templates import StageExhausted

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_STAGE = 4
EXIT_OTHER = 1

_KIND_CODES = {"backend": EXIT_BACKEND, "stage_exhausted": EXIT_STAGE}


def _record_exit_code(record: RunRecord) -> int:
    if record.status == "completed":
        return EXIT_OK
    return _KIND_CODES.get(record.error_kind or "", EXIT_OTHER)


def _print_record(record: RunRecord) -> None:
    print(f"run {record.run_id}: {record.status}")
    for label, text in record.prompt_history:
        print(f"  [{label}] {text}")
    for i, report in enumerate(record.reports, start=1):
        missing = sorted(report.missing_ids)
        print(f"  report {i}: score={report.score:.3f} missing={missing}")
    if record.outcome is not None:
        print(f"  modified: {record.outcome.modified}")
    if record.status == "failed":
        print(f"  failed at {record.failed_stage}: {record.error}")


def cmd_optimize(args) -> int:
    cfg = load_config(args.config, out_dir=Path(args.out) if args.out else None)
    overrides = {k: v for k, v in (("rounds", args.rounds), ("seed", args.seed)) if v is not None}
    if args.no_decorate:
        overrides["decorate"] = False
    # replace() re-runs PipelineConfig's checks on the overridden values.
    cfg = dataclasses.replace(cfg, **overrides)
    record = run_single(args.prompt, cfg)
    _print_record(record)
    if cfg.out_dir is not None:
        print(f"  record dir: {Path(cfg.out_dir) / record.run_id}")
    return _record_exit_code(record)


def cmd_reflect(args) -> int:
    cfg = load_config(args.config)
    image = ImageRef.from_file(args.image)
    graph = build_dsg(args.prompt, cfg.backends.llm, cfg.template_set())
    report = evaluate_image(image, graph, cfg.backends.vqa)
    print(f"score: {report.score:.3f}  ({report.vqa_call_count} questions asked)")
    for qid in sorted(report.answers):
        question = graph.question_by_id(qid)
        print(f"  {qid}. {question.text} -> {report.answers[qid].value.value}")
    return EXIT_OK


def cmd_dsg(args) -> int:
    cfg = load_config(args.config)
    graph = build_dsg(args.prompt, cfg.backends.llm, cfg.template_set())
    print(serialize_graph(graph), end="")
    return EXIT_OK


def cmd_run_bench(args) -> int:
    out_dir = Path(args.out) if args.out else None
    cfg = load_config(args.config, out_dir=out_dir)
    dataset = bench_mod.load_dataset(args.dataset)
    if args.limit is not None:
        dataset = dataset[: args.limit]
    report = bench_mod.run_benchmark(dataset, cfg, mode=args.mode)
    table = bench_mod.render_report(report, format=args.format)
    print(table, end="")
    print(f"failed items: {report.failed_count}", file=sys.stderr)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        ext = "md" if args.format == "markdown" else "csv"
        (out_dir / f"bench-report.{ext}").write_text(table, encoding="utf-8")
        rows = [dataclasses.asdict(i) for i in report.items]
        (out_dir / "bench-items.json").write_text(
            json.dumps(rows, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptrefine",
        description="Feedback-driven prompt refinement for text-to-image generation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="refine one prompt end to end")
    p.add_argument("--prompt", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="directory for run records")
    p.add_argument("--rounds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-decorate", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("reflect", help="score an existing image against a prompt")
    p.add_argument("--prompt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("dsg", help="print the question graph for a prompt")
    p.add_argument("--prompt", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_dsg)

    p = sub.add_parser("run-bench", help="run a benchmark dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--mode", choices=list(bench_mod.MODES), default="both")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--limit", type=_positive_int, help="run only the first N items")
    p.set_defaults(func=cmd_run_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (StageExhausted, EmptyExpansion) as exc:
        print(f"stage exhausted: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (GraphError, IoFailure, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
