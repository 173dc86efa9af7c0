import pytest

from promptrefine.backends import CallJournal, MockBackend, recording
from promptrefine.optimizer import (
    EmptyExpansion,
    KeywordClassTable,
    OptimizationOutcome,
    decorate_prompt,
    default_keyword_table,
    expand_concepts,
    load_keyword_table,
    optimize,
    regenerate_prompt,
    select_keywords,
)
from promptrefine.reflection import NO, PRUNED_NO, YES, ReflectionReport
from promptrefine.templates import STAGE_ATTEMPTS, StageExhausted, default_template_set

from fixtures import chain_graph, motorcycle_graph

FENCE_EXPANSION = (
    "6 | attribute - material (fence, wooden)\n7 | attribute - state (fence, clearly visible)"
)
REGENERATED = "A blue motorcycle parked beside a clearly visible white wooden fence."


@pytest.fixture(scope="module")
def templates():
    return default_template_set()


@pytest.fixture(scope="module")
def table():
    return default_keyword_table()


def fence_missing_report():
    g = motorcycle_graph()
    answers = {1: YES, 2: YES, 3: NO, 4: PRUNED_NO, 5: PRUNED_NO}
    return g, ReflectionReport(
        graph=g,
        answers=answers,
        missing_ids=frozenset({3, 4, 5}),
        score=0.4,
        vqa_call_count=3,
    )


def all_yes_report(g):
    answers = {i: YES for i in g.question_ids()}
    return ReflectionReport(
        graph=g,
        answers=answers,
        missing_ids=frozenset(),
        score=1.0,
        vqa_call_count=len(answers),
    )


def expansion_llm(response):
    return MockBackend(name="llm").script_text("*", response, preamble="*enrich prompts*")


class TestKeywordTable:
    def test_default_table_has_five_classes(self, table):
        assert table.class_names() == ["quality", "style", "background", "light", "aesthetics"]
        for _, kws in table.classes:
            assert kws

    def test_class_lookup_case_insensitive(self, table):
        assert table.class_of("Best Quality") == "quality"
        assert table.class_of("soft lighting") == "light"
        assert table.class_of("nonexistent keyword") is None

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            KeywordClassTable(classes=(("quality", ("4k",)),))

    def test_load_from_file(self, tmp_path):
        import json

        doc = {
            "quality": ["best quality"],
            "style": ["anime"],
            "background": ["blue sky"],
            "light": ["soft lighting"],
            "aesthetics": ["elegant"],
        }
        p = tmp_path / "kw.json"
        p.write_text(json.dumps(doc))
        loaded = load_keyword_table(p)
        assert loaded.class_of("anime") == "style"


class TestExpandConcepts:
    def test_fence_fixture(self, templates):
        # DERIVED: output parses under the tuple grammar and continues ids
        g, report = fence_missing_report()
        result = expand_concepts("p", g, report, expansion_llm(FENCE_EXPANSION), templates)
        assert [t.id for t in result.new_tuples] == [6, 7]
        assert result.targeted_ids == report.missing_ids
        assert result.new_tuples[0].content == "fence, wooden"
        assert result.raw_transcript == FENCE_EXPANSION

    def test_colliding_ids_renumbered(self, templates):
        g, report = fence_missing_report()
        result = expand_concepts(
            "p", g, report, expansion_llm("2 | attribute - material (fence, wooden)"), templates
        )
        assert [t.id for t in result.new_tuples] == [6]
        assert result.new_tuples[0].content == "fence, wooden"

    def test_empty_missing_set_rejected(self, templates):
        g = motorcycle_graph()
        report = all_yes_report(g)
        with pytest.raises(ValueError):
            expand_concepts("p", g, report, expansion_llm("x"), templates)

    def test_mismatched_graph_rejected(self, templates):
        g, report = fence_missing_report()
        other = chain_graph("other", 2, set())
        with pytest.raises(ValueError):
            expand_concepts("p", other, report, expansion_llm("x"), templates)

    def test_empty_output_retried_once_then_error(self, templates):
        g, report = fence_missing_report()
        llm = expansion_llm(["", FENCE_EXPANSION])
        result = expand_concepts("p", g, report, llm, templates)
        assert [t.id for t in result.new_tuples] == [6, 7]

        llm = expansion_llm("")
        with pytest.raises(EmptyExpansion):
            expand_concepts("p", g, report, llm, templates)

    def test_garbage_retried_then_exhausted(self, templates):
        g, report = fence_missing_report()
        llm = expansion_llm(["garbage", "garbage", FENCE_EXPANSION])
        result = expand_concepts("p", g, report, llm, templates)
        assert len(result.new_tuples) == 2

        llm = expansion_llm("garbage")
        with pytest.raises(StageExhausted) as exc:
            expand_concepts("p", g, report, llm, templates)
        assert exc.value.stage == "expansion"

    def test_originals_never_altered(self, templates):
        g, report = fence_missing_report()
        before = [t.render() for t in g.tuples]
        expand_concepts("p", g, report, expansion_llm(FENCE_EXPANSION), templates)
        assert [t.render() for t in g.tuples] == before

    def test_input_carries_statuses(self, templates):
        g, report = fence_missing_report()
        llm = expansion_llm(FENCE_EXPANSION)
        expand_concepts("a blue motorcycle", g, report, llm, templates)
        # the single call's request digest covers the annotated tuple list
        from promptrefine.optimizer import render_expansion_input

        rendered = render_expansion_input("a blue motorcycle", g, report)
        assert "=> yes" in rendered and "=> no" in rendered and "=> no (pruned)" in rendered


def regeneration_llm(response):
    return MockBackend(name="llm").script_text("*", response, preamble="*compose prompts*")


class TestRegeneratePrompt:
    def test_valid_output_returned(self, templates):
        g, _ = fence_missing_report()
        got = regenerate_prompt("orig", g.tuples, regeneration_llm(REGENERATED), templates)
        assert got == REGENERATED

    def test_tuple_artifacts_rejected_and_retried(self, templates):
        g, _ = fence_missing_report()
        llm = regeneration_llm(["1 | entity - whole (cat)", REGENERATED])
        assert regenerate_prompt("orig", g.tuples, llm, templates) == REGENERATED

    def test_overlong_output_rejected(self, templates):
        g, _ = fence_missing_report()
        llm = regeneration_llm(["x" * 600, REGENERATED])
        assert regenerate_prompt("orig", g.tuples, llm, templates) == REGENERATED

    def test_exhaustion(self, templates):
        g, _ = fence_missing_report()
        llm = regeneration_llm("x" * 600)
        with pytest.raises(StageExhausted) as exc:
            with recording(CallJournal()) as journal:
                regenerate_prompt("orig", g.tuples, llm, templates)
        assert exc.value.stage == "regeneration"
        assert exc.value.attempts == STAGE_ATTEMPTS
        assert len(journal.records()) == STAGE_ATTEMPTS


def decoration_llm(response):
    return MockBackend(name="llm").script_text("*", response, preamble="*aesthetic keywords*")


class TestDecoratePrompt:
    def test_paper_table_keywords_appended(self, templates, table):
        got = decorate_prompt(
            "a red fox in snow", decoration_llm("best quality, soft lighting"), table, templates
        )
        assert got == "a red fox in snow, best quality, soft lighting"

    def test_zero_keywords_prompt_unchanged(self, templates, table):
        got = decorate_prompt("a red fox in snow", decoration_llm(""), table, templates)
        assert got == "a red fox in snow"

    def test_duplicates_removed(self, templates, table):
        got = decorate_prompt(
            "a red fox", decoration_llm("best quality, best quality"), table, templates
        )
        assert got == "a red fox, best quality"

    def test_keyword_already_in_prompt_dropped(self, templates, table):
        got = decorate_prompt(
            "an elegant ballroom", decoration_llm("elegant, 4k"), table, templates
        )
        assert got == "an elegant ballroom, 4k"

    def test_per_class_cap(self, templates, table):
        got = decorate_prompt(
            "a fox", decoration_llm("best quality, 4k, 8k, highres"), table, templates
        )
        # all four are quality-class; only the first two survive
        assert got == "a fox, best quality, 4k"

    def test_created_keyword_accepted(self, templates, table):
        got = decorate_prompt(
            "a fox", decoration_llm("glowing autumn palette"), table, templates
        )
        assert got == "a fox, glowing autumn palette"

    def test_invalid_created_keyword_dropped(self, templates, table):
        got = decorate_prompt(
            "a fox",
            decoration_llm("lots; of! punctuation?, one two three four five words"),
            table,
            templates,
        )
        assert got == "a fox"

    def test_multiline_output_retried(self, templates, table):
        llm = decoration_llm(["4k\n8k", "4k"])
        assert decorate_prompt("a fox", llm, table, templates) == "a fox, 4k"

    def test_prefix_law(self, templates, table):
        prompt = "a quiet harbor at dawn"
        got = decorate_prompt(
            prompt, decoration_llm("masterpiece, sun lighting, majestic"), table, templates
        )
        assert got.startswith(prompt)
        suffix = got[len(prompt) :]
        assert suffix.startswith(", ")


class TestSelectKeywords:
    def test_created_keywords_fill_classes_in_order(self, table):
        # 11 created keywords: two land in each of the five classes, one dropped
        kws = ", ".join(f"made-up-{i}" for i in range(11))
        chosen = select_keywords(kws, "a fox", table)
        assert len(chosen) == 10

    def test_emission_order_preserved(self, table):
        chosen = select_keywords("soft lighting, best quality", "a fox", table)
        assert chosen == ["soft lighting", "best quality"]


class TestOptimize:
    def full_llm(self):
        return (
            MockBackend(name="llm")
            .script_text("*", FENCE_EXPANSION, preamble="*enrich prompts*")
            .script_text("*", REGENERATED, preamble="*compose prompts*")
            .script_text("*", "best quality, soft lighting", preamble="*aesthetic keywords*")
        )

    def test_short_circuit_identity(self, templates):
        g = motorcycle_graph()
        report = all_yes_report(g)
        outcome = optimize(g.source_prompt, g, report, MockBackend(name="llm"), templates)
        assert outcome.modified is False
        assert outcome.regenerated_prompt == g.source_prompt
        assert outcome.decorated_prompt == g.source_prompt
        assert outcome.expansion is None

    def test_full_composition(self, templates):
        # DERIVED: composition of the stage fixtures
        g, report = fence_missing_report()
        outcome = optimize(g.source_prompt, g, report, self.full_llm(), templates)
        assert outcome.modified is True
        assert outcome.regenerated_prompt == REGENERATED
        assert outcome.decorated_prompt == REGENERATED + ", best quality, soft lighting"
        assert [t.id for t in outcome.expansion.new_tuples] == [6, 7]
        assert "expansion" in outcome.transcripts

    def test_no_decorate_config(self, templates):
        g, report = fence_missing_report()
        outcome = optimize(g.source_prompt, g, report, self.full_llm(), templates, decorate=False)
        assert outcome.decorated_prompt == REGENERATED

    def test_stage_error_propagates(self, templates):
        g, report = fence_missing_report()
        llm = MockBackend(name="llm").script_text("*", "garbage", preamble="*enrich prompts*")
        with pytest.raises(StageExhausted):
            optimize(g.source_prompt, g, report, llm, templates)

    def test_unmodified_outcome_invariant(self):
        with pytest.raises(ValueError):
            OptimizationOutcome(
                original_prompt="a",
                regenerated_prompt="b",
                decorated_prompt="b",
                expansion=None,
                modified=False,
            )

    def test_determinism(self, templates):
        g, report = fence_missing_report()
        a = optimize(g.source_prompt, g, report, self.full_llm(), templates)
        b = optimize(g.source_prompt, g, report, self.full_llm(), templates)
        assert a == b
