"""Spans around the calls into each promptrefine layer, recorded from outside.

``Instrumentation.install`` wraps module attributes and backend hooks in
place; ``uninstall`` restores them. Nothing in the program changes. Each span
holds a name, start, end, parent and run id (the unit it belongs to). The
span stack lives in a ``contextvars`` variable, and pool submissions carry the
submitter's context, so spans opened in worker threads keep their parent.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import requests

from promptrefine.backends import base as backends_base

OPS = ("complete", "answer_binary", "generate_image", "embed")
HTTP_OPS = ("complete", "answer_binary", "generate_image")
TRANSPORT = "transport"

# (module, function) pairs timed as spans; every promptrefine module attribute
# bound to the same function object is replaced, so calls through
# ``from x import f`` names are seen too.
FUNCTIONS = (
    ("promptrefine.scene_graph", "build_graph"),
    ("promptrefine.scene_graph", "topological_order"),
    ("promptrefine.scene_graph", "descendants"),
    ("promptrefine.templates", "run_stage"),
    ("promptrefine.reflection", "build_dsg"),
    ("promptrefine.reflection", "evaluate_image"),
    ("promptrefine.optimizer", "optimize"),
    ("promptrefine.optimizer", "expand_concepts"),
    ("promptrefine.optimizer", "regenerate_prompt"),
    ("promptrefine.optimizer", "decorate_prompt"),
    ("promptrefine.pipeline", "run_single"),
    ("promptrefine.pipeline", "persist_record"),
    ("promptrefine.bench", "run_benchmark"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, sid, name, start, end=None, parent=None, run_id=None, attrs=None):
        self.id = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def doc(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
            "id": self.id,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.run_id = None
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)
        self.digest_calls = 0
        self.digest_cpu_s = 0.0
        self._lock = threading.Lock()

    def open(self, name: str, **attrs):
        parent = self._current.get()
        span = Span(next(self._ids), name, time.perf_counter(), None,
                    parent.id if parent else None, self.run_id, attrs)
        self.spans.append(span)
        return span, self._current.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)

    def current(self) -> Optional[Span]:
        return self._current.get()

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def add_digest(self, cpu_s: float) -> None:
        with self._lock:
            self.digest_calls += 1
            self.digest_cpu_s += cpu_s


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.attrs["error"] = True
            raise
        finally:
            tracer.close(span, token)
        if after is not None:
            after(span, result)
        return result

    return wrapper


def _evaluate_attrs(span, report):
    span.attrs["questions"] = len(report.graph.questions)
    span.attrs["vqa_calls"] = report.vqa_call_count


class Instrumentation:
    """Installs and removes the tracing wrappers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("promptrefine") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> "Instrumentation":
        tracer = self.tracer
        for module_name, fn_name in FUNCTIONS:
            module = sys.modules[module_name]
            original = getattr(module, fn_name)
            after = _evaluate_attrs if fn_name == "evaluate_image" else None
            layer = module_name.rsplit(".", 1)[1]
            self._replace_everywhere(original, _spanned(tracer, f"{layer}.{fn_name}", original, after))

        digest = backends_base.request_digest

        @functools.wraps(digest)
        def counted_digest(req):
            start = time.thread_time()
            try:
                return digest(req)
            finally:
                tracer.add_digest(time.thread_time() - start)

        self._replace_everywhere(digest, counted_digest)

        Backend = backends_base.Backend
        for op in OPS:
            self._patch(Backend, op, _spanned(tracer, f"backends.{op}", Backend.__dict__[op]))

        run = Backend.__dict__["_run"]

        @functools.wraps(run)
        def traced_run(backend, op, digest_hex, send):
            attempts = itertools.count(1)

            def timed_send():
                span, token = tracer.open(TRANSPORT, op=op, attempt=next(attempts), digest=digest_hex)
                try:
                    return send()
                except BaseException:
                    span.attrs["error"] = True
                    raise
                finally:
                    tracer.close(span, token)

            return run(backend, op, digest_hex, timed_send)

        self._patch(Backend, "_run", traced_run)

        post = requests.Session.__dict__["post"]

        @functools.wraps(post)
        def observed_post(session, *args, **kwargs):
            resp = post(session, *args, **kwargs)
            span = tracer.current()
            if span is not None and span.name == TRANSPORT and "X-Stub-Service-Ms" in resp.headers:
                span.attrs["service_ms"] = float(resp.headers["X-Stub-Service-Ms"])
                span.attrs["request_bytes"] = int(resp.headers["X-Stub-Request-Bytes"])
            return resp

        self._patch(requests.Session, "post", observed_post)

        submit = concurrent.futures.ThreadPoolExecutor.__dict__["submit"]

        @functools.wraps(submit)
        def submit_in_context(executor, fn, /, *args, **kwargs):
            return submit(executor, contextvars.copy_context().run, fn, *args, **kwargs)

        self._patch(concurrent.futures.ThreadPoolExecutor, "submit", submit_in_context)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------------------
# span arithmetic


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part its children cover."""
    return span.duration - covered(((c.start, c.end) for c in children), span.start, span.end)


def round_trips(intervals: Iterable[Tuple[float, float]]) -> int:
    """Intervals that start after every interval started before them has ended."""
    count, last_end = 0, -math.inf
    for s, e in sorted(intervals):
        if s >= last_end:
            count += 1
        last_end = max(last_end, e)
    return count


def max_overlap(intervals: Iterable[Tuple[float, float]]) -> int:
    """Most intervals open at one instant; an interval ending as another starts does not overlap it."""
    intervals = list(intervals)
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    best = cur = 0
    for _, step in events:
        cur += step
        best = max(best, cur)
    return best


class SpanIndex:
    def __init__(self, spans: Sequence[Span]):
        self.by_id = {s.id: s for s in spans}
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[s.parent].append(s)

    def under(self, span: Span, name: str) -> List[Span]:
        """Descendants of ``span`` called ``name`` (not looking inside them)."""
        out, stack = [], list(self.children[span.id])
        while stack:
            s = stack.pop()
            if s.name == name:
                out.append(s)
            else:
                stack.extend(self.children[s.id])
        return out


class LayerTotals:
    """Per-layer sums over traced units; ``metrics`` divides by the unit count."""

    def __init__(self):
        self.units = 0
        self.sums: Dict[str, float] = defaultdict(float)
        self.in_flight_max = 0
        self.http = {op: [0.0, 0.0, 0] for op in HTTP_OPS}  # overhead ms, bytes, n

    def add_unit(self, spans: Sequence[Span]) -> None:
        self.units += 1
        idx = SpanIndex(spans)
        add = self.sums
        for op in OPS:
            calls = idx.by_name[f"backends.{op}"]
            sends = [s for s in idx.by_name[TRANSPORT] if s.attrs["op"] == op]
            add[f"{op}.calls"] += len(calls)
            add[f"{op}.requests"] += len(sends)
            add[f"{op}.busy_s"] += sum(s.duration for s in calls)
            add[f"{op}.wait_s"] += sum(s.duration for s in calls) - sum(s.duration for s in sends)
            add[f"{op}.failed"] += sum(1 for s in calls if s.attrs.get("error"))
            add[f"{op}.retried"] += sum(1 for s in sends if s.attrs["attempt"] > 1)
            if op in self.http:
                for s in sends:
                    if "service_ms" in s.attrs:
                        acc = self.http[op]
                        acc[0] += s.duration * 1000.0 - s.attrs["service_ms"]
                        acc[1] += s.attrs["request_bytes"]
                        acc[2] += 1
        for s in idx.by_name["reflection.build_dsg"]:
            add["build_dsg.time_s"] += s.duration
            add["build_dsg.llm_requests"] += len(idx.under(s, TRANSPORT))
        for s in idx.by_name["reflection.evaluate_image"]:
            vqa = idx.under(s, "backends.answer_binary")
            add["evaluate.time_s"] += s.duration
            add["evaluate.vqa_calls"] += len(vqa)
            add["evaluate.round_trips"] += round_trips((v.start, v.end) for v in vqa)
            add["evaluate.questions"] += s.attrs.get("questions", 0)
            add["evaluate.asked"] += s.attrs.get("vqa_calls", 0)
        for name in ("optimize", "expand_concepts", "regenerate_prompt", "decorate_prompt"):
            add[f"optimizer.{name}.time_s"] += sum(s.duration for s in idx.by_name[f"optimizer.{name}"])
        for s in idx.by_name["templates.run_stage"]:
            attempts = idx.under(s, "backends.complete")
            digests = {t.attrs["digest"] for a in attempts for t in idx.under(a, TRANSPORT)}
            add["run_stage.attempts"] += len(attempts)
            add["run_stage.retries"] += max(len(attempts) - 1, 0)
            add["run_stage.retries_parsed"] += int(len(attempts) > 1 and not s.attrs.get("error"))
            add["run_stage.distinct"] += len(digests)
        for name in ("build_graph", "topological_order", "descendants"):
            add[f"scene_graph.{name}.time_s"] += sum(s.duration for s in idx.by_name[f"scene_graph.{name}"])
        for s in idx.by_name["pipeline.run_single"]:
            add["run_single.self_s"] += self_time(s, idx.children[s.id])
        add["persist_record.time_s"] += sum(s.duration for s in idx.by_name["pipeline.persist_record"])
        for s in idx.by_name["bench.run_benchmark"]:
            items = idx.under(s, "pipeline.run_single")
            self.in_flight_max = max(self.in_flight_max, max_overlap((i.start, i.end) for i in items))

    def metrics(self, digest_calls: int, digest_cpu_s: float) -> Dict[str, float]:
        n = max(self.units, 1)
        s = self.sums
        out: Dict[str, float] = {}
        for op in OPS:
            for field in ("calls", "requests", "busy_s", "wait_s", "failed", "retried"):
                out[f"backends.{op}.{field}"] = s[f"{op}.{field}"] / n
        for op, (overhead, size, count) in self.http.items():
            out[f"backends.http.{op}.client_overhead_ms"] = overhead / count if count else 0.0
            out[f"backends.http.{op}.request_bytes"] = size / count if count else 0.0
        out["backends.request_digest.calls"] = digest_calls / n
        out["backends.request_digest.cpu_ms"] = digest_cpu_s * 1000.0 / n
        out["reflection.build_dsg.time_s"] = s["build_dsg.time_s"] / n
        out["reflection.build_dsg.llm_requests"] = s["build_dsg.llm_requests"] / n
        out["reflection.evaluate_image.time_s"] = s["evaluate.time_s"] / n
        out["reflection.evaluate_image.vqa_calls"] = s["evaluate.vqa_calls"] / n
        out["reflection.evaluate_image.vqa_round_trips"] = s["evaluate.round_trips"] / n
        questions = s["evaluate.questions"]
        out["reflection.evaluate_image.vqa_saved_by_pruning"] = (
            (questions - s["evaluate.asked"]) / questions if questions else 0.0
        )
        for name in ("optimize", "expand_concepts", "regenerate_prompt", "decorate_prompt"):
            out[f"optimizer.{name}.time_s"] = s[f"optimizer.{name}.time_s"] / n
        out["templates.run_stage.attempts"] = s["run_stage.attempts"] / n
        retries = s["run_stage.retries"]
        out["templates.run_stage.retry_success_ratio"] = s["run_stage.retries_parsed"] / retries if retries else 0.0
        attempts = s["run_stage.attempts"]
        out["templates.run_stage.distinct_request_ratio"] = s["run_stage.distinct"] / attempts if attempts else 0.0
        for name in ("build_graph", "topological_order", "descendants"):
            out[f"scene_graph.{name}.time_ms"] = s[f"scene_graph.{name}.time_s"] * 1000.0 / n
        out["pipeline.run_single.self_s"] = s["run_single.self_s"] / n
        out["pipeline.persist_record.time_ms"] = s["persist_record.time_s"] * 1000.0 / n
        out["bench.run_benchmark.items_in_flight_max"] = float(self.in_flight_max)
        return out


def _per_layer_units() -> Dict[str, str]:
    units = {}
    for op in OPS:
        for name in ("calls", "requests", "failed", "retried"):
            units[f"backends.{op}.{name}"] = "count/unit"
        units[f"backends.{op}.busy_s"] = "s/unit"
        units[f"backends.{op}.wait_s"] = "s/unit"
    for op in HTTP_OPS:
        units[f"backends.http.{op}.client_overhead_ms"] = "ms"
        units[f"backends.http.{op}.request_bytes"] = "B"
    units.update({
        "backends.http.floor_ms": "ms",
        "backends.request_digest.calls": "count/unit",
        "backends.request_digest.cpu_ms": "ms/unit",
        "backends.image_dirs_created": "count/unit",
        "reflection.build_dsg.time_s": "s/unit",
        "reflection.build_dsg.llm_requests": "count/unit",
        "reflection.evaluate_image.time_s": "s/unit",
        "reflection.evaluate_image.vqa_calls": "count/unit",
        "reflection.evaluate_image.vqa_round_trips": "count/unit",
        "reflection.evaluate_image.vqa_saved_by_pruning": "ratio",
    })
    for name in ("optimize", "expand_concepts", "regenerate_prompt", "decorate_prompt"):
        units[f"optimizer.{name}.time_s"] = "s/unit"
    units.update({
        "templates.run_stage.attempts": "count/unit",
        "templates.run_stage.retry_success_ratio": "ratio",
        "templates.run_stage.distinct_request_ratio": "ratio",
    })
    for name in ("build_graph", "topological_order", "descendants"):
        units[f"scene_graph.{name}.time_ms"] = "ms/unit"
    units.update({
        "pipeline.run_single.self_s": "s/unit",
        "pipeline.persist_record.time_ms": "ms/unit",
        "bench.run_benchmark.items_in_flight_max": "count",
        "config.load_config.time_ms": "ms",
        "templates.default_template_set.time_ms": "ms",
        "trace.overhead_cpu_share": "ratio",
        "trace.overhead_wall_share": "ratio",
    })
    return units


# Every per-layer metric a traced run prints, with its unit. Per-unit values
# are means over the traced units; "ms" and "B" values are means per request.
PER_LAYER = _per_layer_units()
