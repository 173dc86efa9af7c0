import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptrefine.scene_graph import (
    MAX_QUESTIONS,
    Category,
    ConceptTuple,
    CountMismatch,
    CycleDetected,
    DanglingEdge,
    DependencyEdge,
    DuplicateId,
    GraphTooLarge,
    MalformedLine,
    NonContiguousIds,
    Question,
    SceneGraph,
    SchemaViolation,
    SelfDependency,
    UnknownCategory,
    UnknownId,
    build_graph,
    descendants,
    parse_dependencies,
    parse_graph,
    parse_questions,
    parse_tuples,
    render_dependencies,
    render_questions,
    render_tuples,
    serialize_graph,
    topological_levels,
    topological_order,
)

from fixtures import (
    MOTORCYCLE_DEPENDENCIES,
    MOTORCYCLE_EDGES,
    MOTORCYCLE_PROMPT,
    MOTORCYCLE_QUESTIONS,
    MOTORCYCLE_TUPLES,
    chain_graph,
    motorcycle_graph,
    random_dag,
)
from oracles import bf_all_topo_orders, bf_has_cycle, bf_is_valid_topo, bf_reachable


class TestParseTuples:
    def test_two_line_block(self):
        got = parse_tuples(
            "1 | entity - whole (motorcycle)\n2 | attribute - color (motorcycle, blue)"
        )
        assert got == [
            ConceptTuple(1, Category.ENTITY, "whole", "motorcycle"),
            ConceptTuple(2, Category.ATTRIBUTE, "color", "motorcycle, blue"),
        ]

    def test_empty_input(self):
        assert parse_tuples("") == []

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory):
            parse_tuples("1 | thing - whole (cat)")

    def test_blank_lines_ignored(self):
        got = parse_tuples("\n1 | entity - whole (cat)\n\n")
        assert len(got) == 1

    def test_missing_separator(self):
        with pytest.raises(MalformedLine) as exc:
            parse_tuples("1 entity - whole (cat)")
        assert exc.value.line_no == 1

    def test_line_number_counts_blank_lines(self):
        with pytest.raises(MalformedLine) as exc:
            parse_tuples("1 | entity - whole (cat)\n\nnot a tuple")
        assert exc.value.line_no == 3

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            parse_tuples("1 | entity - whole (cat)\n1 | entity - whole (dog)")

    def test_non_contiguous_ids(self):
        with pytest.raises(NonContiguousIds):
            parse_tuples("1 | entity - whole (cat)\n3 | entity - whole (dog)")

    def test_empty_content(self):
        with pytest.raises(MalformedLine):
            parse_tuples("1 | entity - whole ()")

    def test_whitespace_trimmed_content_preserved(self):
        got = parse_tuples("  1 |  entity -  whole  ( big cat )  ")
        assert got[0].detail == "whole"
        assert got[0].content == "big cat"

    def test_content_with_nested_parens(self):
        got = parse_tuples("1 | attribute - count (dogs, two (2))")
        assert got[0].content == "dogs, two (2)"


class TestParseQuestions:
    def test_two_questions(self):
        got = parse_questions("1 | Is there a motorcycle?\n2 | Is the motorcycle blue?")
        assert [q.id for q in got] == [1, 2]
        assert got[0].text == "Is there a motorcycle?"

    def test_missing_separator(self):
        with pytest.raises(MalformedLine) as exc:
            parse_questions("1 Is there a fence?")
        assert exc.value.line_no == 1

    def test_superscript_id_is_a_malformed_line(self):
        # "²".isdigit() is true, but int("²") raises
        with pytest.raises(MalformedLine) as exc:
            parse_questions("1 | Is there a dog?\n² | Is there a cat?")
        assert exc.value.line_no == 2

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            parse_questions("1 | A?\n1 | B?")

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separators_stay_inside_a_question(self, sep):
        questions = [Question(1, f"Is there a{sep}cat?"), Question(2, "Is it black?")]
        assert parse_questions(render_questions(questions)) == questions

    def test_crlf_line_ends(self):
        got = parse_questions("1 | Is there a cat?\r\n2 | Is it black?\r\n")
        assert [q.text for q in got] == ["Is there a cat?", "Is it black?"]

    def test_question_text_may_contain_pipe(self):
        got = parse_questions("1 | Is it black | white?")
        assert got[0].text == "Is it black | white?"


class TestParseDependencies:
    def test_mixed_block(self):
        got = parse_dependencies("1 | 0\n2 | 1\n5 | 1, 3")
        assert got == {DependencyEdge(1, 2), DependencyEdge(1, 5), DependencyEdge(3, 5)}

    def test_root_only(self):
        assert parse_dependencies("1 | 0") == set()

    def test_self_dependency(self):
        with pytest.raises(SelfDependency):
            parse_dependencies("2 | 2")

    def test_zero_mixed_with_parents_rejected(self):
        with pytest.raises(MalformedLine):
            parse_dependencies("2 | 0, 1")

    def test_garbage_parent_list(self):
        with pytest.raises(MalformedLine):
            parse_dependencies("2 | one")

    def test_superscript_parent_is_a_malformed_line(self):
        with pytest.raises(MalformedLine) as exc:
            parse_dependencies("1 | 0\n2 | ¹")
        assert exc.value.line_no == 2


class TestBuildGraph:
    def test_motorcycle_fixture_is_valid(self):
        # DERIVED: validated against independent cycle/reference oracles.
        g = motorcycle_graph()
        ids = g.question_ids()
        pairs = [(e.parent, e.child) for e in g.edges]
        assert set(pairs) == MOTORCYCLE_EDGES
        assert not bf_has_cycle(ids, pairs)
        assert all(p in ids and c in ids for p, c in pairs)
        assert len(g.tuples) == len(g.questions) == 5

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            chain_graph("p", 2, {(1, 2), (2, 1)})

    def test_cycle_path_reported(self):
        with pytest.raises(CycleDetected) as exc:
            chain_graph("p", 3, {(1, 2), (2, 3), (3, 1)})
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(set(cycle[:-1])) == len(cycle) - 1

    def test_dangling_edge(self):
        with pytest.raises(DanglingEdge) as exc:
            chain_graph("p", 5, {(7, 1)})
        assert exc.value.missing_id == 7

    def test_count_mismatch(self):
        tuples = parse_tuples("1 | entity - whole (cat)\n2 | entity - whole (dog)")
        questions = parse_questions("1 | Is there a cat?")
        with pytest.raises(CountMismatch):
            build_graph("p", tuples, questions, set())

    def test_id_set_mismatch(self):
        tuples = parse_tuples("1 | entity - whole (cat)\n2 | entity - whole (dog)")
        questions = parse_questions("1 | A?\n3 | B?")
        with pytest.raises((CountMismatch, NonContiguousIds)):
            build_graph("p", tuples, questions, set())

    def test_empty_graph_allowed(self):
        g = build_graph("p", [], [], set())
        assert g.question_ids() == []

    def test_max_questions_guard(self):
        n = MAX_QUESTIONS + 1
        with pytest.raises(GraphTooLarge):
            build_graph(
                "p",
                parse_tuples("\n".join(f"{i} | entity - whole (x{i})" for i in range(1, n + 1))),
                parse_questions("\n".join(f"{i} | Q{i}?" for i in range(1, n + 1))),
                set(),
            )

    def test_cycle_agrees_with_oracle_on_random_digraphs(self):
        rng = random.Random(7)
        cyclic = 0
        for _ in range(200):
            n = rng.randint(1, 8)
            pairs = set()
            for _ in range(rng.randint(0, 12)):
                p, c = rng.randint(1, n), rng.randint(1, n)
                if p != c:
                    pairs.add((p, c))
            tuples = parse_tuples(
                "\n".join(f"{i} | entity - whole (x{i})" for i in range(1, n + 1))
            )
            questions = parse_questions("\n".join(f"{i} | Q{i}?" for i in range(1, n + 1)))
            edges = {DependencyEdge(p, c) for p, c in pairs}
            if bf_has_cycle(list(range(1, n + 1)), pairs):
                with pytest.raises(CycleDetected) as exc:
                    build_graph("p", tuples, questions, edges)
                # the reported cycle is a simple closed path along edges
                cycle = exc.value.cycle
                assert cycle[0] == cycle[-1]
                assert len(set(cycle[:-1])) == len(cycle) - 1
                assert all(pair in pairs for pair in zip(cycle, cycle[1:]))
                cyclic += 1
            else:
                build_graph("p", tuples, questions, edges)
        assert cyclic > 0


class TestTopologicalOrder:
    def test_reference_example(self):
        # DERIVED: frozen expected value; validity confirmed by brute-force
        # enumeration of all topological orders.
        g = motorcycle_graph()
        order = topological_order(g)
        assert order == [1, 3, 2, 4, 5]
        all_orders = bf_all_topo_orders(g.question_ids(), MOTORCYCLE_EDGES)
        assert tuple(order) in all_orders

    def test_no_edges_ascending(self):
        g = chain_graph("p", 3, set())
        assert topological_order(g) == [1, 2, 3]

    def test_single_question(self):
        g = chain_graph("p", 1, set())
        assert topological_order(g) == [1]

    def test_random_dags_valid_and_deterministic(self):
        rng = random.Random(11)
        for _ in range(150):
            ids, pairs = random_dag(rng, max_nodes=9)
            g = chain_graph("p", len(ids), pairs)
            order = topological_order(g)
            assert bf_is_valid_topo(order, ids, pairs)
            assert order == topological_order(g)

    def test_levels_reference_example(self):
        assert topological_levels(motorcycle_graph()) == [[1, 3], [2, 4, 5]]
        assert topological_levels(chain_graph("p", 0, set())) == []

    def test_levels_are_longest_path_depths(self):
        # A question's level is 1 + the deepest level among its parents, so no
        # two questions of one level depend on each other.
        rng = random.Random(12)
        for _ in range(150):
            ids, pairs = random_dag(rng, max_nodes=9)
            g = chain_graph("p", len(ids), pairs)
            levels = topological_levels(g)
            depth = {}
            for child in ids:  # random_dag edges go from lower to higher id
                depth[child] = max((depth[p] + 1 for p, c in pairs if c == child), default=0)
            assert [sorted(lv) for lv in levels] == levels
            assert {qid: i for i, lv in enumerate(levels) for qid in lv} == depth
            assert [qid for lv in levels for qid in lv] == topological_order(g)


class TestDescendants:
    def test_chain(self):
        g = chain_graph("p", 5, {(1, 2), (2, 5)})
        assert descendants(g, 1) == {2, 5}

    def test_leaf(self):
        g = chain_graph("p", 3, {(1, 2)})
        assert descendants(g, 2) == set()

    def test_unknown_id(self):
        g = chain_graph("p", 5, set())
        with pytest.raises(UnknownId):
            descendants(g, 9)

    def test_matches_brute_force_reachability(self):
        rng = random.Random(3)
        for _ in range(200):
            ids, pairs = random_dag(rng)
            g = chain_graph("p", len(ids), pairs)
            for qid in ids:
                assert descendants(g, qid) == bf_reachable(ids, pairs, qid)


class TestGraphIndex:
    def test_question_by_id(self):
        g = motorcycle_graph()
        for q in g.questions:
            assert g.question_by_id(q.id) is q

    @pytest.mark.parametrize("qid", [0, 6, -1])
    @pytest.mark.parametrize("lookup", ["question_by_id", "children_of"])
    def test_question_by_id_unknown(self, qid, lookup):
        with pytest.raises(UnknownId) as exc:
            getattr(motorcycle_graph(), lookup)(qid)
        assert exc.value.missing_id == qid

    def test_returned_lists_are_fresh(self):
        g = motorcycle_graph()
        levels = topological_levels(g)
        assert levels == [[1, 3], [2, 4, 5]]
        levels[0].append(99)
        levels.append([42])
        assert {q: g.children_of(q) for q in g.question_ids()} == {1: (2, 5), 2: (), 3: (4, 5), 4: (), 5: ()}
        assert topological_levels(g) == [[1, 3], [2, 4, 5]]
        assert topological_order(g) == [1, 3, 2, 4, 5]
        assert descendants(g, 3) == {4, 5}

    def test_filled_indexes_change_neither_equality_nor_document(self):
        used = motorcycle_graph()
        used.question_by_id(2)
        used.children_of(1)
        descendants(used, 1)
        topological_levels(used)
        fresh = SceneGraph(used.source_prompt, used.tuples, used.questions, used.edges)
        assert set(vars(used)) > set(vars(fresh))  # the used graph holds its indexes
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert serialize_graph(used) == serialize_graph(fresh)
        assert topological_levels(fresh) == topological_levels(used)


_categories = st.sampled_from(list(Category))
# The Unicode line and paragraph separators and NEL are not line ends in the grammars.
_short_text = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=" \u2028\u2029\u0085"),
    min_size=1,
    max_size=20,
).map(str.strip).filter(bool)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    tuples = [
        ConceptTuple(
            id=i,
            category=draw(_categories),
            detail=draw(_short_text),
            content=draw(_short_text),
        )
        for i in range(1, n + 1)
    ]
    questions = [Question(id=i, text=draw(_short_text) + "?") for i in range(1, n + 1)]
    edges = set()
    for child in range(2, n + 1):
        for parent in range(1, child):
            if draw(st.booleans()):
                edges.add(DependencyEdge(parent, child))
    return build_graph(draw(_short_text), tuples, questions, edges)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_tuple_grammar_round_trip(self, g):
        assert parse_tuples(render_tuples(g.tuples)) == list(g.tuples)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_question_grammar_round_trip(self, g):
        assert parse_questions(render_questions(g.questions)) == list(g.questions)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_dependency_grammar_round_trip(self, g):
        rendered = render_dependencies(g.question_ids(), g.edges)
        assert parse_dependencies(rendered) == set(g.edges)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_graph_document_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_serialization_is_byte_stable(self, g):
        assert serialize_graph(g) == serialize_graph(parse_graph(serialize_graph(g)))

    def test_fixture_round_trip(self):
        g = motorcycle_graph()
        assert parse_tuples(render_tuples(g.tuples)) == list(g.tuples)
        assert parse_dependencies(render_dependencies(g.question_ids(), g.edges)) == set(g.edges)
        assert parse_graph(serialize_graph(g)) == g


class TestGraphDocument:
    def test_empty_questions_document_fails_count_check(self):
        g = motorcycle_graph()
        import json

        doc = json.loads(serialize_graph(g))
        doc["questions"] = []
        with pytest.raises(CountMismatch):
            parse_graph(json.dumps(doc))

    def test_unknown_category_in_document(self):
        g = motorcycle_graph()
        import json

        doc = json.loads(serialize_graph(g))
        doc["tuples"][0]["category"] = "colour"
        with pytest.raises(UnknownCategory):
            parse_graph(json.dumps(doc))

    def test_missing_field_reports_path(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_graph('{"source_prompt": "p", "tuples": [{"id": 1}], "questions": [], "edges": []}')
        assert "tuples[0]" in exc.value.path

    def test_invalid_json(self):
        with pytest.raises(SchemaViolation):
            parse_graph("{not json")

    def test_bad_edge_shape(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_graph(
                '{"source_prompt": "p", "tuples": [], "questions": [], "edges": [[1]]}'
            )
        assert exc.value.path == "edges[0]"


def test_fixture_blocks_parse_to_expected_edges():
    assert {
        (e.parent, e.child) for e in parse_dependencies(MOTORCYCLE_DEPENDENCIES)
    } == MOTORCYCLE_EDGES
    assert len(parse_tuples(MOTORCYCLE_TUPLES)) == 5
    assert len(parse_questions(MOTORCYCLE_QUESTIONS)) == 5
    assert motorcycle_graph().source_prompt == MOTORCYCLE_PROMPT
