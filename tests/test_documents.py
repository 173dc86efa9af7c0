"""The one document reader: records, dataset lines and mock scripts either
load to the objects they describe or raise a SchemaViolation whose path names
the faulty field. Records are written through the schema that reads them, and
a record read back writes the same document."""

import copy
import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from promptrefine.backends import ImageGenRequest, MockBackend, VqaRequest
from promptrefine.bench import load_dataset
from promptrefine.pipeline import (
    PipelineConfig,
    load_record,
    persist_record,
    record_from_doc,
    record_to_doc,
    run_single,
)
from promptrefine.scene_graph import GRAPH, REQUIRED, Field, SchemaViolation, declared, write

from fixtures import MOTORCYCLE_PROMPT, motorcycle_backends, motorcycle_graph

DATA = Path(__file__).parent / "data"
SCRIPT = DATA / "mock_script.json"
# record.json of each motorcycle run (see persisted_motorcycle_runs), one per
# line in run order, and their common graph.json: the bytes that the
# hand-written record writer, which scene_graph.write replaced, produced.
GOLDEN_RECORDS = DATA / "motorcycle_records.jsonl"
GOLDEN_GRAPH = DATA / "motorcycle_graph.json"
FENCE_ANSWERS = {"no-yes": ("no", "yes"), "yes": ("yes",), "no": ("no",)}
DELETE = object()  # an edit that removes the key instead of setting it


def persisted_motorcycle_runs(tmp_path):
    """The run directories of the motorcycle walkthrough for rounds 1-3 and
    each fence answer script, in that order, with the run id, timestamp,
    timings and call latencies fixed so that the files are reproducible. The
    timings are set in reverse key order, which the writer must sort."""
    for rounds in (1, 2, 3):
        for name, answers in FENCE_ANSWERS.items():
            backends = motorcycle_backends(tmp_path / "images", answers)
            record = run_single(MOTORCYCLE_PROMPT, PipelineConfig(backends=backends, rounds=rounds, seed=1234))
            labels = sorted(record.timings, reverse=True)
            record = dataclasses.replace(
                record,
                run_id=f"rounds-{rounds}-fence-{name}",
                created_at="2026-01-01T00:00:00+00:00",
                timings={label: i / 8 for i, label in enumerate(labels)},
                backend_journal=[{**call, "latency_s": 0.001} for call in record.backend_journal],
            )
            yield persist_record(record, tmp_path / "runs").parent


@pytest.fixture(scope="module")
def record_doc(tmp_path_factory):
    """A completed two-image record with reports and an expansion."""
    images = tmp_path_factory.mktemp("images")
    cfg = PipelineConfig(backends=motorcycle_backends(images), width=64, height=64, seed=1234)
    record = run_single(MOTORCYCLE_PROMPT, cfg)
    assert record.status == "completed" and record.outcome.expansion is not None
    return json.loads(json.dumps(record_to_doc(record)))


def edited(doc, at, value):
    """A deep copy of ``doc`` with the value at key path ``at`` replaced
    (or removed, for DELETE); the empty path replaces the whole document."""
    if not at:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return doc


def key_paths(doc, at=()):
    """Every key path in a JSON document, the document's own () first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from key_paths(value, at + (key,))


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def edits(draw, doc):
    at = draw(st.sampled_from(list(key_paths(doc))))
    return at, draw(json_values | (st.just(DELETE) if at else st.nothing()))


class TestRecordBytes:
    def test_record_and_graph_files_keep_their_bytes(self, tmp_path):
        runs = list(persisted_motorcycle_runs(tmp_path))
        written = b"".join((run / "record.json").read_bytes() for run in runs)
        assert written.decode("utf-8").splitlines() == GOLDEN_RECORDS.read_text(encoding="utf-8").splitlines()
        assert written == GOLDEN_RECORDS.read_bytes()
        for run in runs:
            assert (run / "graph.json").read_bytes() == GOLDEN_GRAPH.read_bytes()

    def test_a_record_written_earlier_is_read_and_written_back_unchanged(self, tmp_path):
        for line in GOLDEN_RECORDS.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            assert record_to_doc(record_from_doc(doc)) == doc
            run = tmp_path / doc["run_id"]
            run.mkdir()
            (run / "record.json").write_text(line + "\n", encoding="utf-8")
            record = load_record(run)
            assert [ref.path for _, ref, _ in record.image_refs] == [
                str((run / f"images/{label}.png").resolve()) for label, _, _ in record.image_refs
            ]
            assert record.graph is not None and len(record.reports) == len(record.image_refs)


class TestRecord:
    @pytest.mark.parametrize(
        "at, value, path",
        [
            (("run_id",), 5, "run_id"),
            (("status",), 5, "status"),
            (("created_at",), 5, "created_at"),
            (("converged",), "x", "converged"),
            (("prompt_history",), 5, "prompt_history"),
            (("prompt_history",), [], "prompt_history"),
            (("image_refs",), 5, "image_refs"),
            (("image_refs", 1, 1), 5, "image_refs[1][1]"),
            (("image_refs",), [], "image_refs"),  # a completed record needs an image
            (("reports",), 5, "reports"),
            (("outcome",), [1], "outcome"),
            (("backend_journal",), 5, "backend_journal"),
            (("timings",), [1], "timings"),
            (("graph",), 5, "graph"),
            # deeper fields
            (("prompt_history", 0), ["user"], "prompt_history[0]"),
            (("image_refs", 1, 1, "path"), 5, "image_refs[1][1].path"),
            (("reports", 0, "score"), "x", "reports[0].score"),
            (("reports", 0, "score"), 0.125, "reports[0].score"),  # not the answers' score
            (("reports", 0, "score"), float("nan"), "reports[0].score"),
            (("reports", 0, "score"), 10**400, "reports[0].score"),  # too large for a float
            (("reports", 1, "vqa_call_count"), 0, "reports[1].vqa_call_count"),
            (("reports", 0, "answers", "1"), "maybe", "reports[0].answers.1"),
            (("graph", "edges"), [[1, 2], [2, 1]], "graph"),
            (
                ("outcome", "expansion", "new_tuples", 0, "category"),
                "colour",
                "outcome.expansion.new_tuples[0].category",
            ),
        ],
    )
    def test_a_malformed_field_is_named(self, tmp_path, record_doc, at, value, path):
        record = write_json(tmp_path / "record.json", edited(record_doc, at, value))
        with pytest.raises(SchemaViolation) as exc:
            load_record(record)
        assert exc.value.path == path

    def test_a_record_without_the_later_fields_loads_with_their_defaults(self, tmp_path, record_doc):
        later = ("created_at", "converged", "backend_journal", "timings")
        doc = {k: v for k, v in record_doc.items() if k not in later}
        doc["_comment"] = "unknown keys are ignored"
        loaded = load_record(write_json(tmp_path / "record.json", doc))
        assert (loaded.created_at, loaded.converged, loaded.backend_journal, loaded.timings) == ("", False, [], {})
        assert load_record(write_json(tmp_path / "record.json", doc)).timings is not loaded.timings

    def test_every_value_written_has_a_plain_json_type(self, record_doc):
        # A Category is a str, so json.dumps would write it with the same
        # bytes; the writer must still hand over plain values, which an
        # isinstance check would not tell apart.
        record = record_from_doc(record_doc)
        assert record.outcome.expansion.new_tuples and record.graph.tuples
        leaves = []

        def walk(value):
            if type(value) is dict:
                assert all(type(k) is str for k in value)
                value = value.values()
            elif type(value) is not list:
                leaves.append(value)
                return
            for v in value:
                walk(v)

        walk(record_to_doc(record))
        assert [v for v in leaves if type(v) not in (str, int, float, bool, type(None))] == []

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_value_at_any_field_loads_or_is_a_schema_violation(self, tmp_path, record_doc, data):
        at, value = data.draw(edits(record_doc))
        path = write_json(tmp_path / "record.json", edited(record_doc, at, value))
        try:
            load_record(path)
        except SchemaViolation:
            pass

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_valid_record_document_is_written_back_as_read(self, record_doc, data):
        doc = edited(record_doc, *data.draw(edits(record_doc)))
        try:
            record = record_from_doc(doc)
        except SchemaViolation:
            return
        # The writer keeps all that the reader read, and its document reads
        # back to itself: it differs from ``doc`` only where it fills in a
        # default, drops an unknown key or puts ids and edges in order.
        written = record_to_doc(record)
        assert record_from_doc(written) == record
        assert record_to_doc(record_from_doc(written)) == written


class TestDatasetLine:
    @pytest.fixture
    def line(self):
        graph = write(motorcycle_graph(), GRAPH)
        return {"item_id": "1", "category": "c", "prompt": MOTORCYCLE_PROMPT, "graph": graph}

    @pytest.mark.parametrize(
        "at, value, path",
        [
            (("prompt",), " ", "line 1.prompt"),
            (("graph", "tuples", 0, "id"), True, "line 1.graph.tuples[0].id"),
            (("graph", "edges", 0), [1, 1], "line 1.graph"),  # a self-dependency
            (("graph", "questions"), [], "line 1.graph"),
        ],
    )
    def test_a_malformed_field_is_named(self, tmp_path, line, at, value, path):
        with pytest.raises(SchemaViolation) as exc:
            load_dataset(write_json(tmp_path / "data.jsonl", edited(line, at, value)))
        assert exc.value.path == path

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_value_at_any_field_loads_or_is_a_schema_violation(self, tmp_path, line, data):
        at, value = data.draw(edits(line))
        path = write_json(tmp_path / "data.jsonl", edited(line, at, value))
        try:
            load_dataset(path)
        except SchemaViolation:
            pass


class TestMockScript:
    @pytest.fixture(scope="class")
    def script(self):
        return json.loads(SCRIPT.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "at, value, path",
        [
            ((), [], ""),
            (("text",), 5, "text"),
            (("text", 0, "match"), DELETE, "text[0].match"),
            (("text", 0), "a string", "text[0]"),
            (("text", 1, "responses", 0), {"error": "teapot"}, "text[1].responses[0].error"),
            (("embed", 0, "response"), ["a"], "embed[0].response[0]"),
            (("image", 0, "response"), "!!!", "image[0].response"),
            # and a few more
            (("image", 0, "response"), "", "image[0].response"),  # decodes to no bytes
            (("vqa", 0, "responses"), [], "vqa[0].responses"),
            (("vqa", 1, "response"), DELETE, "vqa[1].response"),
        ],
    )
    def test_a_malformed_field_is_named(self, tmp_path, script, at, value, path):
        with pytest.raises(SchemaViolation) as exc:
            MockBackend.from_file(write_json(tmp_path / "script.json", edited(script, at, value)))
        assert exc.value.path == path

    @pytest.mark.parametrize("response", ["!!!", "", " \n", "iVBOR*w0KGgo=", b""])
    def test_script_image_rejects_text_that_is_not_an_image(self, response):
        with pytest.raises(ValueError):
            MockBackend().script_image("*", response)

    @pytest.mark.parametrize("response", ["iVBORw0KGgo=\n", "iVBO\nRw0K\r\nGgo=", " iVBORw0KGgo= "])
    def test_script_image_skips_whitespace_in_base64(self, tmp_path, response):
        backend = MockBackend(image_dir=tmp_path).script_image("*", response)
        ref = backend.generate_image(ImageGenRequest(prompt="p", width=16, height=16))
        assert Path(ref.path).read_bytes() == b"\x89PNG\r\n\x1a\n"

    def test_a_vqa_entry_keeps_its_image_filter(self, tmp_path):
        images = MockBackend(image_dir=tmp_path).script_image("*", [b"\x89PNG\r\n\x1a\n", b"\x89PNG\r\n\x1a\n\0"])
        a, b = (images.generate_image(ImageGenRequest(prompt=p, width=16, height=16)) for p in "ab")
        doc = {"vqa": [{"match": "*", "image": a.digest, "response": "yes"}, {"match": "*", "response": "no"}]}
        backend = MockBackend.from_file(write_json(tmp_path / "script.json", doc))
        assert [backend.answer_binary(VqaRequest(image=ref, question="Q?")) for ref in (a, b)] == [True, False]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_value_at_any_field_loads_or_is_a_schema_violation(self, tmp_path, script, data):
        at, value = data.draw(edits(script))
        path = write_json(tmp_path / "script.json", edited(script, at, value))
        try:
            MockBackend.from_file(path, image_dir=tmp_path)
        except SchemaViolation:
            pass


class TestDeclared:
    def test_fields_in_order_with_their_type_and_default(self):
        cls = dataclasses.make_dataclass(
            "Throwaway",
            [("a", int), ("b", Optional[str], None), ("c", "float | None", 1.5), ("d", bool, True)],
        )
        assert declared(cls, skip=("d",)) == (Field("a", int), Field("b", str, None), Field("c", float, 1.5))
        assert Field("a", int).default is REQUIRED

    @pytest.mark.parametrize("hint", [Tuple[int, ...], Dict[str, float], Union[int, str], List[int],
                                      Optional[Union[int, str]], Any, list[int]])
    def test_a_field_that_is_not_a_type_or_optional_of_one_is_a_type_error(self, hint):
        cls = dataclasses.make_dataclass("Throwaway", [("ok", int), ("bad", hint)])
        with pytest.raises(TypeError, match="Throwaway.bad"):
            declared(cls)
        assert declared(cls, skip=("bad",)) == (Field("ok", int),)
