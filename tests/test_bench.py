import csv
import io
import json
import logging
import math
import random

import pytest

from promptrefine import bench
from promptrefine.backends import AuthFailure, CallJournal, MockBackend, TransportError, recording
from promptrefine.backends.base import embed_digest
from promptrefine.bench import (
    BenchReport,
    DatasetItem,
    DimensionMismatch,
    DuplicateItemId,
    ItemResult,
    ZeroVector,
    aggregate,
    clip_relevance,
    load_dataset,
    render_report,
    run_benchmark,
)
from promptrefine.pipeline import Backends, PipelineConfig
from promptrefine.scene_graph import (
    SchemaViolation,
    build_graph,
    graph_to_doc,
    parse_questions,
    parse_tuples,
)

from fixtures import (
    DECORATED_MOTORCYCLE,
    MOTORCYCLE_DEPENDENCIES,
    MOTORCYCLE_PROMPT,
    MOTORCYCLE_QUESTIONS,
    MOTORCYCLE_TUPLES,
    PNG_WHITE,
    SlowMock,
    motorcycle_backends,
    stage_llm,
)
from oracles import bf_mean


def tagged_graph(prompt, tag, n):
    tuples = parse_tuples(
        "\n".join(f"{i} | entity - whole ({tag} thing {i})" for i in range(1, n + 1))
    )
    questions = parse_questions(
        "\n".join(f"{i} | Is there {tag} thing {i}?" for i in range(1, n + 1))
    )
    return build_graph(prompt, tuples, questions, set())


def four_item_dataset():
    """One category, four items whose all-questions graphs score 1.0/0.5/0.75/0.75."""
    yes_counts = {"a": 4, "b": 2, "c": 3, "d": 3}
    items, vqa = [], MockBackend(name="vqa")
    for tag, yes in yes_counts.items():
        items.append(
            DatasetItem(
                item_id=f"item-{tag}",
                category="desk",
                prompt=f"prompt {tag}",
                graph=tagged_graph(f"prompt {tag}", tag, 4),
            )
        )
        for i in range(1, 5):
            vqa.script_vqa(f"Is there {tag} thing {i}?", "yes" if i <= yes else "no")
    return items, vqa


def bench_cfg(tmp_path, vqa, embed=None, t2i=None, llm=None):
    backends = Backends(
        llm=llm or MockBackend(name="llm"),
        vqa=vqa,
        t2i=t2i or MockBackend(name="t2i", image_dir=tmp_path / "img").script_image("*", PNG_WHITE),
        embed=embed,
    )
    return PipelineConfig(backends=backends, width=64, height=64, seed=7)


class TestLoadDataset:
    def _write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_inline_graphs(self, tmp_path):
        g = tagged_graph("p one", "x", 2)
        lines = [
            json.dumps({"item_id": "1", "category": "c", "prompt": "p one", "graph": graph_to_doc(g)}),
            json.dumps({"item_id": "2", "category": "c", "prompt": "p two"}),
        ]
        items = load_dataset(self._write(tmp_path, lines))
        assert len(items) == 2
        assert items[0].graph == g
        assert items[1].graph is None

    def test_missing_prompt_field(self, tmp_path):
        lines = [json.dumps({"item_id": "1", "category": "c"})]
        with pytest.raises(SchemaViolation) as exc:
            load_dataset(self._write(tmp_path, lines))
        assert "line 1" in exc.value.path

    def test_duplicate_item_id(self, tmp_path):
        line = json.dumps({"item_id": "1", "category": "c", "prompt": "p"})
        with pytest.raises(DuplicateItemId):
            load_dataset(self._write(tmp_path, [line, line]))

    def test_bad_json_line_number(self, tmp_path):
        lines = [json.dumps({"item_id": "1", "category": "c", "prompt": "p"}), "{oops"]
        with pytest.raises(SchemaViolation) as exc:
            load_dataset(self._write(tmp_path, lines))
        assert "line 2" in exc.value.path

    @pytest.mark.parametrize(
        "edges, reason",
        [([[1, 2], [2, 1]], "dependency cycle: 1 -> 2 -> 1"), ([[1, 9]], "unknown question id 9")],
    )
    def test_invalid_inline_graph_names_its_line(self, tmp_path, edges, reason):
        doc = graph_to_doc(tagged_graph("p two", "x", 2))
        doc["edges"] = edges
        lines = [
            json.dumps({"item_id": "1", "category": "c", "prompt": "p one"}),
            json.dumps({"item_id": "2", "category": "c", "prompt": "p two", "graph": doc}),
        ]
        with pytest.raises(SchemaViolation) as exc:
            load_dataset(self._write(tmp_path, lines))
        assert exc.value.path == "line 2.graph"
        assert reason in str(exc.value)

    def test_non_object_graph_names_its_line(self, tmp_path):
        lines = [json.dumps({"item_id": "1", "category": "c", "prompt": "p", "graph": [1]})]
        with pytest.raises(SchemaViolation) as exc:
            load_dataset(self._write(tmp_path, lines))
        assert str(exc.value) == "line 1.graph: document is not an object"

    def test_blank_lines_skipped(self, tmp_path):
        lines = [json.dumps({"item_id": "1", "category": "c", "prompt": "p"}), ""]
        assert len(load_dataset(self._write(tmp_path, lines))) == 1


class TestRunBenchmark:
    def test_four_item_category_mean(self, tmp_path):
        items, vqa = four_item_dataset()
        report = run_benchmark(items, bench_cfg(tmp_path, vqa), mode="baseline")
        scores = [i.baseline_score for i in report.items]
        assert scores == [1.0, 0.5, 0.75, 0.75]
        assert report.category_means["desk"]["baseline"] == pytest.approx(0.75)
        assert report.overall["baseline"] == pytest.approx(bf_mean(scores))
        assert report.failed_count == 0

    def test_two_equal_categories_overall(self):
        items = [
            ItemResult("1", "low", baseline_score=0.5),
            ItemResult("2", "low", baseline_score=0.5),
            ItemResult("3", "high", baseline_score=1.0),
            ItemResult("4", "high", baseline_score=1.0),
        ]
        report = aggregate(items, mode="baseline")
        assert report.category_means["low"]["baseline"] == pytest.approx(0.5)
        assert report.category_means["high"]["baseline"] == pytest.approx(1.0)
        assert report.overall["baseline"] == pytest.approx(0.75)

    def test_overall_weighted_by_item_count(self):
        # three low items and one high item: overall is not the mean of means
        items = [
            ItemResult("1", "low", baseline_score=0.0),
            ItemResult("2", "low", baseline_score=0.0),
            ItemResult("3", "low", baseline_score=0.0),
            ItemResult("4", "high", baseline_score=1.0),
        ]
        report = aggregate(items, mode="baseline")
        assert report.overall["baseline"] == pytest.approx(0.25)

    def test_failed_item_excluded_from_means(self, tmp_path):
        items, vqa = four_item_dataset()
        t2i = (
            MockBackend(name="t2i", image_dir=tmp_path / "img")
            .script_image("prompt b", TransportError("down"))
            .script_image("*", PNG_WHITE)
        )
        cfg = bench_cfg(tmp_path, vqa, t2i=t2i)
        report = run_benchmark(items, cfg, mode="baseline")
        assert report.failed_count == 1
        assert report.items[1].failed
        assert report.category_means["desk"]["baseline"] == pytest.approx((1.0 + 0.75 + 0.75) / 3)

    def test_all_yes_short_circuit_through_harness(self, tmp_path):
        items, _ = four_item_dataset()
        vqa = MockBackend(name="vqa").script_vqa("*", "yes")
        cfg = bench_cfg(tmp_path, vqa)
        report = run_benchmark(items, cfg, mode="both")
        # no optimization stages ran: the unscripted llm would have failed the item
        assert report.overall == {"baseline": 1.0, "optimized": 1.0}

    def test_means_match_independent_summation(self, tmp_path):
        rng = random.Random(5)
        items = [
            ItemResult(str(i), rng.choice(["a", "b", "c"]), baseline_score=rng.random())
            for i in range(50)
        ]
        report = aggregate(items, mode="baseline")
        for cat, stats in report.category_means.items():
            members = [i.baseline_score for i in items if i.category == cat]
            assert abs(stats["baseline"] - bf_mean(members)) < 1e-12
        assert abs(report.overall["baseline"] - bf_mean([i.baseline_score for i in items])) < 1e-12

    def test_clip_pairings_recorded(self, tmp_path):
        items, vqa = four_item_dataset()
        embed = MockBackend(name="embed")
        embed.script_embed("*", [1.0, 0.0])
        cfg = bench_cfg(tmp_path, vqa, embed=embed)
        report = run_benchmark(items[:1], cfg, mode="baseline")
        assert report.items[0].clip["baseline"] == pytest.approx(100.0)

    def test_clip_embeds_go_out_together(self, tmp_path):
        items, _ = four_item_dataset()
        vqa = MockBackend(name="vqa").script_vqa("*", "yes")
        embed = SlowMock(name="embed", op_delays={"embed": 0.02}).script_embed("*", [1.0, 0.0])
        with recording(CallJournal()) as outer:
            report = run_benchmark(items[:1], bench_cfg(tmp_path, vqa, embed=embed), mode="both")
        assert report.items[0].clip == {
            "baseline": pytest.approx(100.0),
            "optimized_prompt": pytest.approx(100.0),
            "original_prompt": pytest.approx(100.0),
        }
        assert embed.gauge.peak["embed"] == 5
        # journaled in the order sent: prompt, round-1 image, final image, final prompt, prompt
        digests = [r.digest for r in outer.records()]
        assert len(digests) == 5 and digests[0] == digests[4] == embed_digest(items[0].prompt)

    def test_a_failed_final_prompt_embed_drops_only_its_pairing(self, tmp_path, caplog):
        backends = motorcycle_backends(tmp_path / "img")
        embed = (
            MockBackend(name="embed")
            .script_embed(DECORATED_MOTORCYCLE, AuthFailure("denied"))
            .script_embed("*", [1.0, 0.0])
        )
        cfg = bench_cfg(tmp_path, backends.vqa, embed=embed, t2i=backends.t2i, llm=backends.llm)
        item = DatasetItem(item_id="moto", category="road", prompt=MOTORCYCLE_PROMPT)
        with caplog.at_level(logging.WARNING, logger="promptrefine.bench"):
            [result] = run_benchmark([item], cfg, mode="both").items
        assert not result.failed and result.optimized_score == 1.0
        assert result.clip == {"baseline": pytest.approx(100.0), "original_prompt": pytest.approx(100.0)}
        warnings = [r.getMessage() for r in caplog.records if "clip scoring failed" in r.getMessage()]
        assert len(warnings) == 1 and "denied" in warnings[0]

    def test_failed_items_are_classified(self, tmp_path, monkeypatch):
        vqa = MockBackend(name="vqa").script_vqa("*", "yes")
        llm = stage_llm(tuples="not a tuple")
        t2i = (
            MockBackend(name="t2i", image_dir=tmp_path / "img")
            .script_image("broken", AuthFailure("denied"))
            .script_image("*", PNG_WHITE)
        )
        items = [
            DatasetItem(item_id="llm", category="c", prompt="garbled"),
            DatasetItem(item_id="t2i", category="c", prompt="broken", graph=tagged_graph("broken", "b", 1)),
            DatasetItem(item_id="ok", category="c", prompt="fine", graph=tagged_graph("fine", "f", 1)),
        ]
        report = run_benchmark(items, bench_cfg(tmp_path, vqa, t2i=t2i, llm=llm), mode="baseline")
        assert [i.error_kind for i in report.items] == ["stage_exhausted", "backend", None]
        # the error text keeps its form: the failed stage, then the run's error
        assert report.items[0].error.startswith("RuntimeError: pipeline failed at build_dsg: StageExhausted:")
        assert report.items[1].error.startswith("RuntimeError: pipeline failed at generate: AuthFailure:")

        def raising_run(*args, **kwargs):
            raise TransportError("down")

        # an error that escapes run_single rather than ending in a failed record
        monkeypatch.setattr(bench, "run_single", raising_run)
        [outside] = run_benchmark(items[2:], bench_cfg(tmp_path, vqa), mode="baseline").items
        assert (outside.error, outside.error_kind) == ("TransportError: down", "backend")

    def test_baseline_journals_only_clip_embeds_outside_runs(self, tmp_path):
        items, vqa = four_item_dataset()
        items.append(DatasetItem(item_id="moto", category="road", prompt=MOTORCYCLE_PROMPT))
        vqa.script_vqa("*", "yes")
        embed = MockBackend(name="embed").script_embed("*", [1.0, 0.0])
        llm = stage_llm(
            tuples=MOTORCYCLE_TUPLES, questions=MOTORCYCLE_QUESTIONS, dependencies=MOTORCYCLE_DEPENDENCIES
        )
        cfg = bench_cfg(tmp_path, vqa, embed=embed, llm=llm)
        with recording(CallJournal()) as outer:
            report = run_benchmark(items, cfg, mode="baseline")
        assert [i.baseline_score for i in report.items] == [1.0, 0.5, 0.75, 0.75, 1.0]
        assert all("baseline" in i.clip for i in report.items)
        # each run keeps its calls; only the prompt and image embeds land here
        assert [r.op for r in outer.records()] == ["embed"] * 2 * len(items)

    def test_unknown_mode(self, tmp_path):
        items, vqa = four_item_dataset()
        with pytest.raises(ValueError):
            run_benchmark(items, bench_cfg(tmp_path, vqa), mode="nope")


class TestClipRelevance:
    def test_identical_unit_vectors(self):
        assert clip_relevance([1.0, 0.0], [1.0, 0.0]) == pytest.approx(100.0)

    def test_orthogonal(self):
        assert clip_relevance([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_negative_cosine_clipped(self):
        vec = [1.0, 0.0]
        other = [-0.2, math.sqrt(1 - 0.04)]
        assert clip_relevance(vec, other) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            clip_relevance([1.0], [1.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            clip_relevance([0.0, 0.0], [1.0, 0.0])

    def test_rescale_invariance(self):
        rng = random.Random(2)
        for _ in range(50):
            a = [rng.uniform(-1, 1) for _ in range(8)]
            b = [rng.uniform(-1, 1) for _ in range(8)]
            if all(v == 0 for v in a) or all(v == 0 for v in b):
                continue
            base = clip_relevance(a, b)
            scaled = clip_relevance([3.7 * v for v in a], [0.01 * v for v in b])
            assert abs(base - scaled) < 1e-9

    def test_symmetry(self):
        a, b = [0.3, 0.4, 0.5], [0.1, 0.9, 0.2]
        assert clip_relevance(a, b) == pytest.approx(clip_relevance(b, a))


class TestRenderReport:
    def _single_category_report(self, mean):
        items = [ItemResult("1", "solo", baseline_score=mean)]
        return aggregate(items, mode="baseline")

    def test_one_decimal_percentage(self):
        table = render_report(self._single_category_report(0.695), "markdown")
        assert "69.5" in table
        assert "| method | solo | average |" in table

    def test_csv_round_trip(self):
        items = [
            ItemResult("1", "a", baseline_score=0.5, optimized_score=0.75),
            ItemResult("2", "b", baseline_score=1.0, optimized_score=1.0),
        ]
        report = aggregate(items, mode="both")
        text = render_report(report, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["method", "a", "b", "average"]
        assert rows[1] == ["baseline", "50.0", "100.0", "75.0"]
        assert rows[2] == ["optimized", "75.0", "100.0", "87.5"]

    def test_empty_dataset(self):
        report = aggregate([], mode="both")
        table = render_report(report, "markdown")
        assert "n/a" in table
        lines = table.strip().splitlines()
        assert lines[0] == "| method | average |"

    def test_markdown_and_csv_agree(self):
        report = self._single_category_report(0.75)
        md = render_report(report, "markdown")
        cv = render_report(report, "csv")
        assert "75.0" in md and "75.0" in cv
