"""The three workloads: their scripts, what one unit runs, and its checks.

refine-http   one client calls run_single prompt after prompt through
              HttpBackend against the loopback stub (stub.py), 1 MiB images.
bench-batch   one unit is run_benchmark(mode="both") over 8 items with
              in-process ScriptBackends that sleep per the latency model;
              scripted faults and one item that always fails.
refine-local  run_single with zero-latency ScriptBackends, rounds: 2,
              40-80 question graphs, 1 MiB images, every record persisted.

See README.md for why each was chosen.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence

import yaml

import paths
from promptrefine import bench, pipeline
from promptrefine.backends import BackendConfig, HttpBackend, TextGenRequest
from promptrefine.config import load_config
from promptrefine.optimizer import default_keyword_table
from promptrefine.reflection import AnswerSource
from promptrefine.templates import default_template_set

from script import (
    LATENCY_S,
    ZERO_LATENCY,
    Script,
    ScriptBackend,
    UnitSpec,
    big_graph,
    chain_graph,
    clip_relevance,
    embed_vector,
    mix_graph,
    question_key,
    wide_graph,
)
from stub import StubProcess

MIB = 1 << 20
NONE = frozenset()
CLIP_EMBEDS = 5  # embed requests run_benchmark makes for a completed item


def _script(seed: int, image_size: int) -> Script:
    preambles = {st.preamble: name for name, st in default_template_set().stages.items()}
    return Script(seed, preambles, default_keyword_table().classes, image_size)


def _unique_prompts(specs: Sequence[UnitSpec]) -> None:
    if len({s.prompt for s in specs}) != len(specs):
        raise ValueError("generated prompts collide; responses are keyed on them")


def build_refine_http(seed: int):
    """Ten prompts: wide (8-12 questions, depth 2), chain (depth 5-7) and the
    motorcycle/fence mix; five converge in round 1."""
    rng = random.Random(f"refine-http|{seed}")
    script = _script(seed, MIB)
    specs = []
    for n in (8, 9, 10, 11, 12):
        prompt, g, role = wide_graph(rng, n)
        evals = {9: [{role["root"]}, NONE], 11: [{role["root"]}, {role["leaf"]}]}.get(n, [NONE])
        specs.append(script.unit(f"wide-{n}", "wide", prompt, g, evals))
    for n, evals in ((5, [NONE]), (6, [{4}, NONE]), (7, [{2}, NONE])):
        prompt, g, _ = chain_graph(rng, n)
        specs.append(script.unit(f"chain-{n}", "chain", prompt, g, evals))
    for i, converge in enumerate((False, True)):
        prompt, g, role = mix_graph(rng)
        evals = [NONE] if converge else [{role["second"]}, NONE]
        specs.append(script.unit(f"mix-{i}", "mix", prompt, g, evals))
    _unique_prompts(specs)
    rng.shuffle(specs)
    return script, specs


def build_bench_batch(seed: int):
    """Eight items, half with inline graphs; ~10% of first attempts fail with a
    transport error or rate limit, some stages answer garbage once, and one
    item's graph can never be built."""
    rng = random.Random(f"bench-batch|{seed}")
    script = _script(seed, 64)
    specs: List[UnitSpec] = []

    def item(shape, inline, plan):
        prompt, g, role = {"mix": lambda: mix_graph(rng), "chain": lambda: chain_graph(rng, 5),
                           "wide": lambda: wide_graph(rng, 8)}[shape]()
        name = f"item-{len(specs) + 1}"
        if plan is None:
            spec = script.failing_unit(name, shape, prompt, g, attempts=3)
        else:
            spec = script.unit(name, shape, prompt, g, [frozenset(e(role)) for e in plan], inline=inline)
        specs.append(spec)
        return spec

    conv = [lambda r: ()]
    s1 = item("mix", True, conv)
    s2 = item("mix", False, [lambda r: {r["second"]}, lambda r: ()])
    s3 = item("chain", True, [lambda r: {3}, lambda r: ()])
    item("chain", False, conv)
    s5 = item("wide", True, conv)
    s6 = item("wide", False, [lambda r: {r["leaf"]}, lambda r: ()])
    item("mix", False, None)
    s8 = item("mix", True, [lambda r: {r["second"]}, lambda r: {r["second"]}])

    script.fault(s2, "complete", ("tuples", s2.prompt), "garbage_once")
    script.fault(s3, "generate_image", s3.prompt, "transport_once")
    script.fault(s5, "answer_binary", (s5.image_digests[0], question_key(s5.graph.questions[1])), "unparseable_once")
    script.fault(s6, "complete", ("expansion", s6.prompt), "garbage_once")
    script.fault(s6, "generate_image", s6.prompt, "transport_once")
    script.fault(s6, "embed", s6.prompt, "transport_once")
    script.fault(s1, "embed", s1.prompt, "transport_once")
    regenerated = script.text[("regeneration", s8.prompt)]
    script.fault(s8, "complete", ("decoration", regenerated), "garbage_once")
    for i, spec in enumerate(specs):
        if spec.status == "completed":
            spec.requests["embed"] += CLIP_EMBEDS
            first = (spec.image_digests[0], question_key(spec.graph.questions[0]))
            script.fault(spec, "answer_binary", first, "transport_once" if i % 2 else "rate_limited_once")
    _unique_prompts(specs)
    return script, specs


def build_refine_local(seed: int):
    """Six prompts with 40-80 questions over two rounds: two converge in round
    1, two in round 2, two never (and get a final image)."""
    rng = random.Random(f"refine-local|{seed}")
    script = _script(seed, MIB)
    plans = {
        "round1": lambda r: [NONE],
        "round2": lambda r: [{r["root"], r["leaf"]}, NONE],
        "never": lambda r: [{r["root"], r["leaf"]}, {r["leaf2"]}, {r["leaf"]}],
    }
    specs = []
    for n, plan in zip((40, 48, 56, 64, 72, 80), ("round1", "round2", "never") * 2):
        prompt, g, role = big_graph(rng, n)
        specs.append(script.unit(f"big-{n}-{plan}", "big", prompt, g, plans[plan](role), rounds=2))
    _unique_prompts(specs)
    rng.shuffle(specs)
    return script, specs


BUILDERS = {
    "refine-http": build_refine_http,
    "bench-batch": build_bench_batch,
    "refine-local": build_refine_local,
}


def build(name: str, seed: int):
    return BUILDERS[name](seed)


# --------------------------------------------------------------------------
# checks


def check_requests(expected: Counter, got: Counter) -> List[str]:
    ops = sorted(set(expected) | set(got))
    if all(expected[op] == got[op] for op in ops):
        return []
    return [f"requests {dict(got)} != expected {dict(expected)}"]


def check_record(spec: UnitSpec, record) -> List[str]:
    errs = []
    if record.status != spec.status:
        errs.append(f"status {record.status} ({record.error}) != {spec.status}")
        return errs
    history = tuple(text for _, text in record.prompt_history)
    if history != spec.history:
        errs.append(f"prompt history {history} != {spec.history}")
    if record.converged != spec.converged:
        errs.append(f"converged {record.converged} != {spec.converged}")
    if len(record.reports) != len(spec.reports):
        errs.append(f"{len(record.reports)} reports != {len(spec.reports)}")
        return errs
    for i, (got, want) in enumerate(zip(record.reports, spec.reports)):
        pruned = sum(1 for a in got.answers.values() if a.source is AnswerSource.PRUNED)
        if got.vqa_call_count + pruned != spec.graph.size:
            errs.append(f"report {i}: {got.vqa_call_count} asked + {pruned} pruned != {spec.graph.size}")
        if got.vqa_call_count != want.vqa_calls:
            errs.append(f"report {i}: {got.vqa_call_count} VQA calls != {want.vqa_calls}")
        if set(got.missing_ids) != set(want.missing):
            errs.append(f"report {i}: missing {sorted(got.missing_ids)} != {sorted(want.missing)}")
        if abs(got.score - want.score) > 1e-12:
            errs.append(f"report {i}: score {got.score} != {want.score}")
    return errs


# run_benchmark keeps only the error text of a failed item, so the check pins
# the failed stage and the exception class (StageExhausted is error_kind
# "stage_exhausted" in the pipeline's classification).
_ITEM_ERROR = re.compile(r"^RuntimeError: pipeline failed at (\w+): (\w+):")


def expected_clip(spec: UnitSpec) -> Dict[str, float]:
    prompt, final = embed_vector(spec.prompt), spec.image_digests[-1]
    return {
        "baseline": clip_relevance(prompt, embed_vector(spec.image_digests[0])),
        "optimized_prompt": clip_relevance(embed_vector(spec.final_prompt), embed_vector(final)),
        "original_prompt": clip_relevance(prompt, embed_vector(final)),
    }


def check_bench(specs: Sequence[UnitSpec], report) -> List[str]:
    errs = []
    if [i.item_id for i in report.items] != [s.name for s in specs]:
        return [f"items {[i.item_id for i in report.items]} != {[s.name for s in specs]}"]
    for item, spec in zip(report.items, specs):
        if spec.failure is not None:
            m = _ITEM_ERROR.match(item.error or "")
            if m is None or (m.group(1), m.group(2)) != spec.failure:
                errs.append(f"{item.item_id}: error {item.error!r}, expected {spec.failure}")
            continue
        if item.error is not None:
            errs.append(f"{item.item_id}: unexpected error {item.error}")
            continue
        if abs(item.baseline_score - spec.reports[0].score) > 1e-12:
            errs.append(f"{item.item_id}: baseline {item.baseline_score} != {spec.reports[0].score}")
        if abs(item.optimized_score - spec.reports[-1].score) > 1e-12:
            errs.append(f"{item.item_id}: optimized {item.optimized_score} != {spec.reports[-1].score}")
        want = expected_clip(spec)
        if set(item.clip) != set(want) or any(abs(item.clip[k] - v) > 1e-9 for k, v in want.items()):
            errs.append(f"{item.item_id}: clip {item.clip} != {want}")
    failing = sum(1 for s in specs if s.failure is not None)
    if report.failed_count != failing:
        errs.append(f"failed_count {report.failed_count} != {failing}")
    ok = [s for s in specs if s.failure is None]
    for key, pick in (("baseline", lambda s: s.reports[0].score), ("optimized", lambda s: s.reports[-1].score)):
        want = sum(pick(s) for s in ok) / len(ok)
        if report.overall[key] is None or abs(report.overall[key] - want) > 1e-12:
            errs.append(f"overall {key} {report.overall[key]} != {want}")
    return errs


# --------------------------------------------------------------------------
# workloads


class Workload:
    """One workload instance in a working directory; ``start`` before use."""

    name = ""
    items_per_unit = 1
    latency = LATENCY_S
    config_pipeline: dict = {}

    def __init__(self, seed: int, workdir: Path, latency: Dict[str, float]):
        self.seed = seed
        self.workdir = Path(workdir)
        self.latency = dict(latency)
        self.script, self.specs = build(self.name, seed)
        self.config_path = self.workdir / "config.yaml"
        self.cfg = None

    def backends_doc(self) -> dict:
        return {role: {"type": "mock"} for role in ("llm", "vqa", "t2i")}

    def write_config(self) -> None:
        doc = {"backends": self.backends_doc(), "pipeline": {"seed": self.seed, **self.config_pipeline}}
        self.config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")

    def start(self) -> None:
        self.write_config()
        self.cfg = load_config(self.config_path)
        self.backend = ScriptBackend(self.script, self.latency, name=self.name)
        self.cfg.backends = pipeline.Backends(llm=self.backend, vqa=self.backend, t2i=self.backend)

    def cycle(self) -> list:
        return list(self.specs)

    def modeled_s(self, unit) -> float:
        return sum(n * self.latency[op] for op, n in unit.requests.items())

    def expected_requests(self, unit) -> Counter:
        return unit.requests

    def before_unit(self) -> None:
        self.backend.stats.reset()

    def request_counts(self) -> Counter:
        return self.backend.stats.snapshot()

    def floor_ms(self) -> float:
        return 0.0

    def run(self, unit):
        return pipeline.run_single(unit.prompt, self.cfg)

    def check(self, unit, output) -> List[str]:
        return check_record(unit, output)

    def after_unit(self, output) -> None:
        pass

    def close(self) -> None:
        pass


class RefineHttp(Workload):
    name = "refine-http"
    stub = None

    def start(self) -> None:
        self.stub = StubProcess(paths.ROOT, self.name, self.seed, self.latency)
        self.write_config()
        self.cfg = load_config(self.config_path)

    def backends_doc(self) -> dict:
        endpoint = self.stub.endpoint
        return {role: {"type": "http", "endpoint": endpoint, "model": f"bench-{role}"} for role in ("llm", "vqa", "t2i")}

    def floor_ms(self, samples: int = 30) -> float:
        """Median zero-latency round trip of a text call through HttpBackend."""
        client = HttpBackend(BackendConfig(endpoint=self.stub.endpoint, model="floor"))
        req = TextGenRequest(preamble="", exemplars=(), input="ping")
        times = []
        for _ in range(samples):
            start = time.perf_counter()
            client.complete(req)
            times.append((time.perf_counter() - start) * 1000.0)
        return statistics.median(times)

    def before_unit(self) -> None:
        pass

    def request_counts(self) -> Counter:
        return self.stub.requests()

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


class BenchBatch(Workload):
    name = "bench-batch"
    config_pipeline = {"parallelism": 2}

    def start(self) -> None:
        super().start()
        self.cfg.backends.embed = self.backend
        dataset = self.workdir / "dataset.jsonl"
        with dataset.open("w", encoding="utf-8") as fh:
            for s in self.specs:
                doc = {"item_id": s.name, "category": s.category, "prompt": s.prompt}
                if s.inline:
                    doc["graph"] = s.graph.doc(s.prompt)
                fh.write(json.dumps(doc) + "\n")
        self.dataset = bench.load_dataset(dataset)

    @property
    def items_per_unit(self) -> int:
        return len(self.specs)

    def cycle(self) -> list:
        return [tuple(self.specs)]

    def modeled_s(self, unit) -> float:
        return sum(Workload.modeled_s(self, s) for s in unit)

    def expected_requests(self, unit) -> Counter:
        return sum((s.requests for s in unit), Counter())

    def run(self, unit):
        return bench.run_benchmark(self.dataset, self.cfg, mode="both")

    def check(self, unit, output) -> List[str]:
        return check_bench(unit, output)


class RefineLocal(Workload):
    name = "refine-local"
    latency = ZERO_LATENCY
    config_pipeline = {"rounds": 2}

    def start(self) -> None:
        super().start()
        self.cfg.out_dir = self.workdir / "records"

    def check(self, unit, output) -> List[str]:
        errs = check_record(unit, output)
        loaded = pipeline.load_record(self.cfg.out_dir / output.run_id)
        if loaded.final_prompt() != unit.final_prompt:
            errs.append(f"persisted final prompt {loaded.final_prompt()!r} != {unit.final_prompt!r}")
        if [r.score for r in loaded.reports] != [r.score for r in output.reports]:
            errs.append("persisted scores differ from the returned record")
        return errs

    def after_unit(self, output) -> None:
        shutil.rmtree(self.cfg.out_dir / output.run_id, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RefineHttp, BenchBatch, RefineLocal)}
