import csv
import io
import json
import logging
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptrefine import bench
from promptrefine.backends import (
    AuthFailure,
    BackendTimeout,
    CallJournal,
    ContentRejected,
    MockBackend,
    RateLimited,
    TransportError,
    recording,
)
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
    GRAPH,
    SchemaViolation,
    build_graph,
    parse_questions,
    parse_tuples,
    write,
)

from fixtures import (
    DECORATED_MOTORCYCLE,
    MOTORCYCLE_DEPENDENCIES,
    MOTORCYCLE_PROMPT,
    MOTORCYCLE_QUESTIONS,
    MOTORCYCLE_TUPLES,
    PNG_BLACK,
    PNG_WHITE,
    STAGE_MARKERS,
    Gauge,
    SlowMock,
    drawn,
    motorcycle_backends,
    scheduled,
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
            json.dumps({"item_id": "1", "category": "c", "prompt": "p one", "graph": write(g, GRAPH)}),
            json.dumps({"item_id": "2", "category": "c", "prompt": "p two"}),
        ]
        items = load_dataset(self._write(tmp_path, lines))
        assert len(items) == 2
        assert items[0].graph == g
        assert items[1].graph is None

    def test_unicode_line_separators_stay_inside_a_line(self, tmp_path):
        # json.dumps(..., ensure_ascii=False) writes these raw; only "\n" ends a line
        prompts = [f"a cat{sep}on a mat" for sep in ("\u2028", "\u2029", "\u0085")]
        lines = [
            json.dumps({"item_id": str(i), "category": "c", "prompt": p}, ensure_ascii=False)
            for i, p in enumerate(prompts)
        ]
        path = tmp_path / "data.jsonl"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        assert [item.prompt for item in load_dataset(path)] == prompts

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
        doc = write(tagged_graph("p two", "x", 2), GRAPH)
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

    @pytest.mark.real_threads
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

    def test_a_non_finite_embedding_drops_its_pairing(self, tmp_path, caplog):
        items, vqa = four_item_dataset()
        embed = (
            MockBackend(name="embed")
            .script_embed(items[0].prompt, [float("nan"), 1.0])
            .script_embed("*", [1.0, 0.0])
        )
        with caplog.at_level(logging.WARNING, logger="promptrefine.bench"):
            [result] = run_benchmark(items[:1], bench_cfg(tmp_path, vqa, embed=embed), mode="baseline").items
        assert not result.failed and result.clip == {}
        warnings = [r.getMessage() for r in caplog.records if "clip scoring failed" in r.getMessage()]
        assert len(warnings) == 1 and "non-finite" in warnings[0]

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

    def _pipelined(self, tmp_path, gauge=None, failing=None, generate_s=0.02, embed_s=0.01):
        """Four baseline items, each prompt embedding to its own vector, the
        ``failing`` item's with an error; a generate takes ``generate_s`` and
        an embed ``embed_s``, both counted on ``gauge``."""
        items, vqa = four_item_dataset()
        embed = SlowMock(name="embed", op_delays={"embed": embed_s}, gauge=gauge)
        for k, item in enumerate(items):
            embed.script_embed(item.prompt, AuthFailure("denied") if item.item_id == failing else [1.0, float(k)])
        embed.script_embed("*", [1.0, 0.0])  # every item's image
        t2i = SlowMock(name="t2i", image_dir=tmp_path / "img", op_delays={"generate_image": generate_s}, gauge=gauge)
        t2i.script_image("*", PNG_WHITE)
        return items, bench_cfg(tmp_path, vqa, embed=embed, t2i=t2i)

    def test_embeds_keep_their_journal_and_scores_under_any_schedule(self, tmp_path):
        """The journal and score checks of the embed tests above, on drawn
        schedules of the pool: each item keeps its own relevance, and its
        embeds are journaled where they were sent, in item order."""

        @settings(max_examples=30, deadline=None)
        @given(failing=st.sampled_from([None, "item-b"]), data=st.data())
        def law(failing, data):
            items, cfg = self._pipelined(tmp_path, failing=failing, generate_s=0, embed_s=0)
            vqa = MockBackend(name="vqa").script_vqa("*", "yes")
            embed = MockBackend(name="embed").script_embed("*", [1.0, 0.0])
            with scheduled(drawn(data)):
                with recording(CallJournal()) as pipelined:
                    report = run_benchmark(items, cfg, mode="baseline")
                with recording(CallJournal()) as optimized:
                    [item] = run_benchmark(items[:1], bench_cfg(tmp_path, vqa, embed=embed), mode="both").items
            assert [i.clip for i in report.items] == [
                {} if i.item_id == failing else {"baseline": pytest.approx(clip_relevance([1.0, float(k)], [1.0, 0.0]))}
                for k, i in enumerate(items)
            ]
            assert not any(i.failed for i in report.items)
            # each item's prompt embed, then its image embed
            records = pipelined.records()
            assert [r.digest for r in records[::2]] == [embed_digest(i.prompt) for i in items]
            assert [r.ok for r in records] == [ok for i in items for ok in (i.item_id != failing, True)]
            assert item.clip == {
                "baseline": pytest.approx(100.0),
                "optimized_prompt": pytest.approx(100.0),
                "original_prompt": pytest.approx(100.0),
            }
            # prompt, round-1 image, final image, final prompt, prompt
            digests = [r.digest for r in optimized.records()]
            assert len(digests) == 5 and digests[0] == digests[4] == embed_digest(items[0].prompt)

        law()

    @pytest.mark.real_threads
    def test_each_items_embeds_are_in_flight_while_the_next_item_runs(self, tmp_path):
        gauge = Gauge()
        items, cfg = self._pipelined(tmp_path, gauge)
        report = run_benchmark(items, cfg, mode="baseline")
        assert frozenset({"embed", "generate_image"}) in gauge.together
        # item order and each item's relevance are as scored one item at a time
        assert [i.item_id for i in report.items] == [i.item_id for i in items]
        assert [i.clip for i in report.items] == [
            {"baseline": pytest.approx(clip_relevance([1.0, float(k)], [1.0, 0.0]))} for k in range(len(items))
        ]

    def test_an_embed_failure_is_charged_to_its_item(self, tmp_path, caplog, monkeypatch):
        items, cfg = self._pipelined(tmp_path, failing="item-b")
        with caplog.at_level(logging.WARNING, logger="promptrefine.bench"):
            report = run_benchmark(items, cfg, mode="baseline")
        assert [bool(i.clip) for i in report.items] == [True, False, True, True]
        assert not any(i.failed for i in report.items)
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and warnings[0].startswith("clip scoring failed for item-b:")

        # an error that escapes the embeds fails their item alone
        try_embed = bench._try_embed

        def escaping(embedder, payload):
            if payload == "prompt c":
                raise RuntimeError("lost")
            return try_embed(embedder, payload)

        monkeypatch.setattr(bench, "_try_embed", escaping)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="promptrefine.bench"):
            report = run_benchmark(items, cfg, mode="baseline")
        assert [(i.error, i.error_kind) for i in report.items] == [
            (None, None), (None, None), ("RuntimeError: lost", "other"), (None, None)
        ]
        assert report.items[2].baseline_score == 0.75 and report.failed_count == 1
        assert [r.getMessage() for r in caplog.records if "lost" in r.getMessage()] == [
            "item item-c failed: RuntimeError: lost"
        ]

    def test_the_last_items_embeds_are_collected_before_the_report(self, tmp_path, monkeypatch):
        items, cfg = self._pipelined(tmp_path)
        seen = []
        real_aggregate = bench.aggregate

        def aggregate(results, mode):
            seen.extend(dict(i.clip) for i in results)
            return real_aggregate(results, mode)

        monkeypatch.setattr(bench, "aggregate", aggregate)
        run_benchmark(items, cfg, mode="baseline")
        assert all("baseline" in clip for clip in seen) and len(seen) == len(items)

    def test_unknown_mode(self, tmp_path):
        items, vqa = four_item_dataset()
        with pytest.raises(ValueError):
            run_benchmark(items, bench_cfg(tmp_path, vqa), mode="nope")


def nonzero_pairs(component):
    """Two vectors of one length from 1 to 8, each with a nonzero component."""
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(*[st.lists(component, min_size=n, max_size=n).filter(any)] * 2)
    )


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

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_huge_and_tiny_vectors_keep_their_cosine(self, magnitude):
        vec = [magnitude, magnitude]
        assert clip_relevance(vec, vec) == 100.0

    @given(nonzero_pairs(st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_finite_nonzero_pair_scores_within_0_and_100(self, pair):
        assert 0.0 <= clip_relevance(*pair) <= 100.0

    # Components of 0 or of magnitude 2**-830 to 2**830 stay normal when scaled by 2**60 either way.
    @given(nonzero_pairs(st.one_of(st.just(0.0), st.floats(1e-250, 1e250), st.floats(-1e250, -1e-250))),
           st.integers(-60, 60), st.integers(-60, 60))
    def test_scaling_by_a_power_of_two_keeps_the_score_bit_identical(self, pair, j, k):
        a, b = pair
        scaled = clip_relevance([math.ldexp(x, j) for x in a], [math.ldexp(y, k) for y in b])
        assert scaled == clip_relevance(a, b)


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

    def test_a_pipe_in_a_category_stays_in_its_markdown_cell(self):
        items = [ItemResult("1", "a|b", baseline_score=0.5), ItemResult("2", "c", baseline_score=1.0)]
        report = aggregate(items, mode="baseline")
        lines = render_report(report, "markdown").splitlines()
        assert lines[0] == r"| method | a\|b | c | average |"
        # an unescaped | splits a cell: every line has the header's 4 cells
        assert {len(re.split(r"(?<!\\)\|", line)) for line in lines} == {6}
        assert list(csv.reader(io.StringIO(render_report(report, "csv"))))[0] == ["method", "a|b", "c", "average"]

    def test_markdown_and_csv_agree(self):
        report = self._single_category_report(0.75)
        md = render_report(report, "markdown")
        cv = render_report(report, "csv")
        assert "75.0" in md and "75.0" in cv


# -- fault sweep ------------------------------------------------------------

# Each fault's scripted response and the error_kind it ends its item with:
# "garbage" is text no stage parses, "maybe" a VQA reply that neither the
# question nor its stricter re-ask gets past, and "unscripted" a request the
# mock has no entry for.
SWEEP_FAULTS = {
    "transport": (TransportError("down"), "backend"),
    "timeout": (BackendTimeout("slow"), "backend"),
    "rate_limited": (RateLimited(), "backend"),
    "auth": (AuthFailure("denied"), "backend"),
    "content_rejected": (ContentRejected("refused"), "backend"),
    "garbage": ("| garbage |\n| garbage |", "stage_exhausted"),
    "maybe": ("maybe", "backend"),
    "unscripted": (None, "backend"),
}
DSG_STAGES = ("tuples", "questions", "dependencies")
TEXT_STAGES = DSG_STAGES + ("expansion", "regeneration", "decoration")
# The stage a run fails at when the entry of each key fails.
SWEEP_STAGE = {
    **{stage: "build_dsg" if stage in DSG_STAGES else "optimize" for stage in TEXT_STAGES},
    "vqa-present": "evaluate",
    "vqa-red": "evaluate",
    "image": "generate",
    "image-final": "final_generate",
}


def sweep_entries(tag):
    """key -> (op, match, response, filters): every request of the item
    tagged ``tag``, which runs one optimize round and scores 0.5, then 1.0.
    Every match names the tag, so one item's entries answer no other's."""
    prompt, regenerated = f"a kite {tag} in the sky", f"a red kite {tag} in the sky"
    text = {
        "tuples": f"1 | entity - whole (kite {tag})\n2 | attribute - color (kite {tag}, red)",
        "questions": f"1 | Is there a kite {tag} here?\n2 | Is the kite {tag} red?",
        "dependencies": "1 | 0\n2 | 1",
        "expansion": f"3 | attribute - color (kite {tag}, bright red)",
        "regeneration": regenerated,
        "decoration": "best quality, soft lighting",
    }
    entries = {
        stage: ("complete", f"*kite {tag} *", response, {"preamble": STAGE_MARKERS[stage]})
        for stage, response in text.items()
    }
    # A trailing * also matches the stricter re-ask of an unparsed answer.
    entries["vqa-present"] = ("answer_binary", f"Is there a kite {tag} here?*", "yes", {})
    entries["vqa-red"] = ("answer_binary", f"Is the kite {tag} red?*", ["no", "yes"], {})
    entries["image"] = ("generate_image", prompt, PNG_WHITE, {})
    entries["image-final"] = ("generate_image", f"{regenerated}, best quality, soft lighting", PNG_BLACK, {})
    return entries


def sweep_run(tmp_path, n, faults=None, out_dir=None, image_dir=None):
    """run_benchmark over ``n`` tagged items. ``faults`` maps a tag to a
    (fault, entry key): that entry of the item answers with the fault, or is
    left out for "unscripted"."""
    faults = faults or {}
    llm, vqa = MockBackend(name="llm"), MockBackend(name="vqa")
    t2i = MockBackend(name="t2i", image_dir=image_dir or tmp_path / "img")
    script = {"complete": llm.script_text, "answer_binary": vqa.script_vqa, "generate_image": t2i.script_image}
    dataset = []
    for k in range(n):
        tag = f"k{k:02d}"
        dataset.append(DatasetItem(item_id=tag, category="ab"[k % 2], prompt=f"a kite {tag} in the sky"))
        entries = sweep_entries(tag)
        if tag in faults:
            fault, key = faults[tag]
            op, match, _, filters = entries.pop(key)
            if fault != "unscripted":
                entries[key] = (op, match, SWEEP_FAULTS[fault][0], filters)
        for op, match, response, filters in entries.values():
            script[op](match, response, **filters)
    cfg = PipelineConfig(backends=Backends(llm=llm, vqa=vqa, t2i=t2i), width=64, height=64, seed=7, out_dir=out_dir)
    return run_benchmark(dataset, cfg, mode="both")


class TestFaultSweep:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_fault_ends_its_own_item_classified(self, tmp_path, seed):
        rng = random.Random(seed)
        n = len(SWEEP_FAULTS) + 4
        tags = rng.sample([f"k{k:02d}" for k in range(n)], len(SWEEP_FAULTS))
        faults = {}
        for tag, fault in zip(tags, SWEEP_FAULTS):
            keys = {"garbage": TEXT_STAGES, "maybe": ("vqa-present", "vqa-red")}.get(fault, tuple(SWEEP_STAGE))
            faults[tag] = (fault, rng.choice(keys))

        clean = sweep_run(tmp_path / "clean", n)
        report = sweep_run(tmp_path / "faulted", n, faults)
        assert clean.failed_count == 0
        assert report.failed_count == len(faults)
        for item, reference in zip(report.items, clean.items):
            if item.item_id not in faults:
                assert item.error is None
                scores = (item.baseline_score, item.optimized_score)
                assert scores == (reference.baseline_score, reference.optimized_score) == (0.5, 1.0)
                continue
            fault, key = faults[item.item_id]
            assert item.error_kind == SWEEP_FAULTS[fault][1], (fault, key, item.error)
            assert item.error.startswith(f"RuntimeError: pipeline failed at {SWEEP_STAGE[key]}: "), (fault, key)

    @pytest.mark.parametrize("where, stage", [("out_dir", "persist"), ("image_dir", "generate")])
    def test_an_unwritable_directory_fails_every_item_as_io(self, tmp_path, where, stage):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        report = sweep_run(tmp_path, 3, **{where: blocker / "dir"})
        assert report.failed_count == 3
        assert [i.error_kind for i in report.items] == ["io"] * 3
        assert all(i.error.startswith(f"RuntimeError: pipeline failed at {stage}: ") for i in report.items)
        if stage == "persist":  # the form the benchmark's item check reads
            assert report.items[0].error.startswith("RuntimeError: pipeline failed at persist: IoFailure: ")
