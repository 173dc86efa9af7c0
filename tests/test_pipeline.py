import dataclasses
import errno
import functools
import json
import os
import sys
import threading

import pytest

from promptrefine.backends import MockBackend, TransportError
from promptrefine.pipeline import (
    Backends,
    IoFailure,
    PipelineConfig,
    load_record,
    persist_record,
    record_from_doc,
    record_to_doc,
    run_batch,
    run_single,
    summarize_batch,
)
from promptrefine.scene_graph import SchemaViolation, serialize_graph

from fixtures import (
    DECORATED_MOTORCYCLE,
    MOTORCYCLE_PROMPT,
    PNG_BLACK,
    PNG_WHITE,
    Gauge,
    SlowMock,
    journal,
    motorcycle_backends,
    motorcycle_graph,
    stage_llm,
)


def pipeline_cfg(tmp_path, backends=None, **kwargs):
    if backends is None:
        backends = motorcycle_backends(tmp_path / "images")
    kwargs.setdefault("width", 64)
    kwargs.setdefault("height", 64)
    kwargs.setdefault("seed", 1234)
    return PipelineConfig(backends=backends, **kwargs)


def normalized(record):
    """Strip run id, timestamps, and per-run timing noise for comparisons."""
    journal = [
        {k: v for k, v in entry.items() if k != "latency_s"}
        for entry in record.backend_journal
    ]
    return dataclasses.replace(
        record, run_id="", created_at="", timings={}, backend_journal=journal
    )


class TestRunSingle:
    def test_motorcycle_walkthrough(self, tmp_path):
        # DERIVED: end-to-end composition of the module fixtures
        cfg = pipeline_cfg(tmp_path)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "completed"
        assert len(record.image_refs) == 2
        assert len(record.reports) == 2
        assert record.reports[0].score == pytest.approx(0.4)
        assert record.reports[0].missing_ids == {3, 4, 5}
        assert record.reports[1].score == 1.0
        assert record.outcome.modified is True
        assert record.final_prompt() == DECORATED_MOTORCYCLE
        assert record.prompt_history[0] == ("user", MOTORCYCLE_PROMPT)
        assert not record.converged

    def test_seeds_advance_per_round(self, tmp_path):
        cfg = pipeline_cfg(tmp_path)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert [seed for _, _, seed in record.image_refs] == [1234, 1235]

    def test_all_yes_short_circuit(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images", fence_answers=("yes",))
        cfg = pipeline_cfg(tmp_path, backends=backends)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "completed"
        assert record.converged is True
        assert len(record.image_refs) == 1
        assert record.outcome.modified is False
        assert record.final_prompt() == MOTORCYCLE_PROMPT

    def test_graph_built_once_and_shared(self, tmp_path):
        cfg = pipeline_cfg(tmp_path)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.graph == motorcycle_graph()
        for report in record.reports:
            assert report.graph is record.graph

    def test_pregiven_graph_skips_build(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images")
        backends.llm._text = backends.llm._text[3:]  # drop the DSG stage scripts
        cfg = pipeline_cfg(tmp_path, backends=backends)
        record = run_single(MOTORCYCLE_PROMPT, cfg, graph=motorcycle_graph())
        assert record.status == "completed"
        assert "build_dsg" not in record.timings

    def test_graph_builds_while_the_first_image_generates(self, tmp_path):
        gauge = Gauge()
        slow = functools.partial(
            SlowMock, gauge=gauge, op_delays={"complete": 0.01, "generate_image": 0.05}
        )
        cfg = pipeline_cfg(tmp_path, backends=motorcycle_backends(tmp_path / "images", cls=slow))
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "completed"
        # only the round-1 build can have a text call in flight during a generate
        assert frozenset({"complete", "generate_image"}) in gauge.together

    def test_t2i_down_marks_generate_failed(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images")
        backends.t2i = MockBackend(name="t2i").script_image("*", TransportError("down"))
        cfg = pipeline_cfg(tmp_path, backends=backends)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "failed"
        assert record.failed_stage == "generate"
        assert record.error_kind == "backend"
        assert record.error == "TransportError: down"
        assert record.prompt_history == [("user", MOTORCYCLE_PROMPT)]
        assert "round-1.generate" in record.timings
        # the graph built beside the failed generate is paid for, so it is kept
        calls = [(e["op"], e["ok"]) for e in record.backend_journal]
        assert calls == [("generate_image", False)] + [("complete", True)] * 3
        assert record.graph == motorcycle_graph()

    def test_stage_exhausted_marks_build_failed(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images")
        backends.llm = MockBackend(name="llm").script_text("*", "garbage")
        cfg = pipeline_cfg(tmp_path, backends=backends)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "failed"
        assert record.failed_stage == "build_dsg"
        assert record.error_kind == "stage_exhausted"
        calls = [(e["op"], e["ok"]) for e in record.backend_journal]
        assert calls == [("generate_image", True)] + [("complete", True)] * 3
        assert [label for label, _, _ in record.image_refs] == ["round-1"]
        assert "build_dsg" in record.timings

    def test_generate_error_wins_over_build_error(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images")
        backends.t2i = MockBackend(name="t2i").script_image("*", TransportError("down"))
        backends.llm = MockBackend(name="llm").script_text("*", "garbage")
        cfg = pipeline_cfg(tmp_path, backends=backends)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert (record.failed_stage, record.error_kind) == ("generate", "backend")
        assert record.error == "TransportError: down"
        calls = [(e["op"], e["ok"]) for e in record.backend_journal]
        assert calls == [("generate_image", False)] + [("complete", True)] * 3
        assert record.graph is None

    def test_evaluate_only_stops_after_round_one(self, tmp_path):
        cfg = pipeline_cfg(tmp_path)
        record = run_single(MOTORCYCLE_PROMPT, cfg, evaluate_only=True)
        assert record.status == "completed"
        assert [label for label, _, _ in record.image_refs] == ["round-1"]
        assert [r.score for r in record.reports] == [pytest.approx(0.4)]
        assert record.outcome is None
        assert record.prompt_history == [("user", MOTORCYCLE_PROMPT)]
        ops = [e["op"] for e in record.backend_journal]
        assert ops == ["generate_image"] + ["complete"] * 3 + ["answer_binary"] * 3

    def test_every_backend_call_journaled_once(self, tmp_path):
        cfg = pipeline_cfg(tmp_path)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        ops = [entry["op"] for entry in record.backend_journal]
        # 2 generations, 3 DSG stages + 3 optimization stages, 3 + 5 VQA calls
        assert ops.count("generate_image") == 2
        assert ops.count("complete") == 6
        assert ops.count("answer_binary") == 8
        assert len(ops) == 16

    def test_multi_round_halts_at_rounds_cap(self, tmp_path):
        # the fence never appears, so every round optimizes; the loop must
        # still stop after cfg.rounds optimization rounds
        backends = motorcycle_backends(tmp_path / "images", fence_answers=("no",))
        cfg = pipeline_cfg(tmp_path, backends=backends, rounds=3)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "completed"
        assert not record.converged
        optimize_stages = [k for k in record.timings if k.endswith(".optimize")]
        assert len(optimize_stages) == 3
        assert len(record.image_refs) == 4  # three rounds plus the final image
        assert [s for _, _, s in record.image_refs] == [1234, 1235, 1236, 1237]

    def test_multi_round_convergence_keeps_real_outcome(self, tmp_path):
        # round 1 optimizes, round 2 converges: outcome stays modified=True
        backends = motorcycle_backends(tmp_path / "images", fence_answers=("no", "yes"))
        cfg = pipeline_cfg(tmp_path, backends=backends, rounds=2)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "completed"
        assert record.converged is True
        assert record.outcome.modified is True
        assert len(record.image_refs) == 2
        assert record.reports[1].score == 1.0

    def test_unparseable_vqa_fails_with_journal_preserved(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images")
        backends.vqa = MockBackend(name="vqa").script_vqa("*", "hard to say")
        cfg = pipeline_cfg(tmp_path, backends=backends)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert record.status == "failed"
        assert record.failed_stage == "evaluate"
        # the transcript so far survives: generation, DSG stages, and the asks
        assert any(e["op"] == "answer_binary" for e in record.backend_journal)
        assert any(e["op"] == "complete" for e in record.backend_journal)

    def test_run_keeps_its_calls_from_an_enclosing_recording(self, tmp_path, journal):
        cfg = pipeline_cfg(tmp_path)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        assert len(record.backend_journal) == 16
        assert len(journal) == 0

    def test_reproducible_modulo_run_id(self, tmp_path):
        records = []
        for _ in range(2):
            cfg = pipeline_cfg(tmp_path)
            records.append(run_single(MOTORCYCLE_PROMPT, cfg))
        assert normalized(records[0]) == normalized(records[1])

    def test_empty_prompt_rejected(self, tmp_path):
        cfg = pipeline_cfg(tmp_path)
        with pytest.raises(ValueError):
            run_single("   ", cfg)

    def test_out_dir_persists_even_on_failure(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images")
        backends.t2i = MockBackend(name="t2i").script_image("*", TransportError("down"))
        out = tmp_path / "runs"
        cfg = pipeline_cfg(tmp_path, backends=backends, out_dir=out)
        record = run_single(MOTORCYCLE_PROMPT, cfg)
        loaded = load_record(out / record.run_id)
        assert loaded.status == "failed"
        assert loaded.prompt_history == [("user", MOTORCYCLE_PROMPT)]


class TestRunBatch:
    def test_order_preserved(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images", fence_answers=("yes",))
        backends.t2i.script_image("*", PNG_WHITE)
        backends.llm.script_text("*", "1 | entity - whole (thing)", preamble="*Decompose*")
        backends.llm.script_text("*", "1 | Is there a thing?", preamble="*yes/no*")
        backends.llm.script_text("*", "1 | 0", preamble="*presume*")
        cfg = pipeline_cfg(tmp_path, backends=backends, parallelism=2)
        prompts = [MOTORCYCLE_PROMPT, "prompt two", "prompt three"]
        records = run_batch(prompts, cfg)
        assert [r.prompt_history[0][1] for r in records] == prompts
        assert all(r.status == "completed" for r in records)

    def test_partial_failure_counted(self, tmp_path):
        backends = motorcycle_backends(tmp_path / "images", fence_answers=("yes",))
        # only the motorcycle prompt has an image script: others fail
        cfg = pipeline_cfg(tmp_path, backends=backends)
        records = run_batch([MOTORCYCLE_PROMPT, "unscripted one", "unscripted two"], cfg)
        summary = summarize_batch(records)
        assert summary == {
            "total": 3,
            "completed": 1,
            "failed": 2,
            "mean_score_before": 1.0,
            "mean_score_after": 1.0,
        }

    def test_concurrent_runs_keep_their_own_journals(self, tmp_path):
        # more runs in flight than cores, each building its graph and fanning
        # VQA out on the shared pool, with frequent thread switches
        slow = functools.partial(SlowMock, op_delays={"complete": 0.001, "generate_image": 0.003})
        backends = motorcycle_backends(tmp_path / "images", fence_answers=("yes",), cls=slow)
        cfg = pipeline_cfg(tmp_path, backends=backends, parallelism=6)
        reference = normalized(run_single(MOTORCYCLE_PROMPT, cfg))
        batches = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = threading.Thread(
                target=lambda: batches.append(run_batch([MOTORCYCLE_PROMPT] * 24, cfg)), daemon=True
            )
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert [normalized(r) for r in batches[0]] == [reference] * 24

    def test_empty_batch_rejected(self, tmp_path):
        cfg = pipeline_cfg(tmp_path)
        with pytest.raises(ValueError):
            run_batch([], cfg)


class TestPersistence:
    def _record(self, tmp_path):
        cfg = pipeline_cfg(tmp_path)
        return run_single(MOTORCYCLE_PROMPT, cfg)

    def test_round_trip_modulo_paths(self, tmp_path):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        loaded = load_record(path)
        # identical except image paths, which are rebased into the run dir
        def strip_paths(r):
            return dataclasses.replace(
                r,
                image_refs=[(l, ref.digest, s) for l, ref, s in r.image_refs],
            )

        assert strip_paths(normalized(loaded)) == strip_paths(normalized(record))

    def test_images_copied_relative(self, tmp_path):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        doc = json.loads(path.read_text())
        stored = [entry[1]["path"] for entry in doc["image_refs"]]
        assert stored == ["images/round-1.png", "images/final.png"]
        loaded = load_record(path)
        assert loaded.image_refs[0][1].read_bytes() == PNG_WHITE
        assert loaded.image_refs[1][1].read_bytes() == PNG_BLACK

    def test_jpeg_images_keep_their_media_type_and_suffix(self, tmp_path):
        jpeg = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01"
        backends = motorcycle_backends(tmp_path / "images")
        t2i = (
            MockBackend(name="t2i", image_dir=tmp_path / "images")
            .script_image(MOTORCYCLE_PROMPT, jpeg)
            .script_image(DECORATED_MOTORCYCLE, PNG_BLACK)
        )
        record = run_single(MOTORCYCLE_PROMPT, pipeline_cfg(tmp_path, dataclasses.replace(backends, t2i=t2i)))
        first = record.image_refs[0][1]
        assert (first.media_type, os.path.splitext(first.path)[1]) == ("image/jpeg", ".jpg")
        path = persist_record(record, tmp_path / "runs")
        stored = [entry[1]["path"] for entry in json.loads(path.read_text())["image_refs"]]
        assert stored == ["images/round-1.jpg", "images/final.png"]
        loaded = load_record(path)
        assert loaded.image_refs[0][1].read_bytes() == jpeg
        assert loaded.image_refs[0][1].media_type == "image/jpeg"

    def test_images_hard_linked_on_one_filesystem(self, tmp_path):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        for label, ref, _ in record.image_refs:
            stored = path.parent / "images" / f"{label}.png"
            assert os.stat(stored).st_ino == os.stat(ref.path).st_ino

    def test_images_copied_where_links_fail(self, tmp_path, monkeypatch):
        record = self._record(tmp_path)

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", cross_device)
        path = persist_record(record, tmp_path / "runs")
        loaded = load_record(path)
        for (_, ref, _), (_, stored, _) in zip(record.image_refs, loaded.image_refs):
            assert os.stat(stored.path).st_ino != os.stat(ref.path).st_ino
            assert stored.read_bytes() == ref.read_bytes()

    def test_run_dir_layout(self, tmp_path):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        run_dir = path.parent
        assert (run_dir / "graph.json").is_file()
        assert (run_dir / "transcripts" / "expansion.txt").is_file()
        assert (run_dir / "images" / "round-1.png").is_file()

    def test_run_dir_files_get_the_umask_mode(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        run_dir = persist_record(self._record(tmp_path), tmp_path / "runs").parent
        files = [p for p in run_dir.rglob("*") if p.is_file()]
        assert len(files) == 7  # record, graph, two images, three transcripts
        assert {p.stat().st_mode & 0o777 for p in files} == {0o666 & ~umask}

    def test_byte_stable(self, tmp_path):
        record = self._record(tmp_path)
        a = persist_record(record, tmp_path / "one").read_text()
        b = persist_record(record, tmp_path / "two").read_text()
        assert a == b

    def test_file_holds_the_record_document_with_rebased_paths(self, tmp_path):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        expected = record_to_doc(record)
        expected["image_refs"] = [
            [label, {"path": f"images/{label}.png", "digest": ref.digest, "remote_id": None,
                     "media_type": ref.media_type}, seed]
            for label, ref, seed in record.image_refs
        ]
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == expected
        assert text.count("\n") == 1 and text.endswith("\n")
        graph_text = (path.parent / "graph.json").read_text(encoding="utf-8")
        assert graph_text == serialize_graph(record.graph)
        assert graph_text.count("\n") == 1

    def test_non_ascii_prompt_written_unescaped(self, tmp_path):
        record = self._record(tmp_path)
        prompt = "une moto bleue près d’une clôture, 青いバイク 🏍"
        record = dataclasses.replace(
            record,
            prompt_history=[("user", prompt)] + record.prompt_history[1:],
            graph=dataclasses.replace(record.graph, source_prompt=prompt),
        )
        path = persist_record(record, tmp_path / "runs")
        for name in ("record.json", "graph.json"):
            raw = (path.parent / name).read_bytes()
            assert prompt.encode("utf-8") in raw
            assert b"\\u" not in raw
        assert load_record(path).prompt_history[0] == ("user", prompt)
        assert load_record(path).graph.source_prompt == prompt

    def test_reads_a_record_written_with_indent(self, tmp_path):
        # Records written before record.json became one compact line were
        # indented by two spaces; they must still load.
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        compact = load_record(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_record(path) == compact

    def test_truncated_file_schema_violation(self, tmp_path):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SchemaViolation):
            load_record(path)

    def test_missing_field_schema_violation(self, tmp_path):
        record = self._record(tmp_path)
        doc = record_to_doc(record)
        del doc["status"]
        with pytest.raises(SchemaViolation) as exc:
            record_from_doc(doc)
        assert exc.value.path == "status"

    @pytest.mark.parametrize("field, value", [("id", True), ("detail", None)])
    def test_expansion_tuple_types_checked(self, tmp_path, field, value):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        doc = json.loads(path.read_text())
        doc["outcome"]["expansion"]["new_tuples"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation) as exc:
            load_record(path)
        assert f"expansion.new_tuples[0].{field}" in str(exc.value)

    def test_unwritable_destination(self, tmp_path):
        record = self._record(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        with pytest.raises(IoFailure):
            persist_record(record, blocker)

    def test_failed_write_keeps_previous_record(self, tmp_path, monkeypatch):
        record = self._record(tmp_path)
        path = persist_record(record, tmp_path / "runs")
        graph_path = path.parent / "graph.json"
        before, graph_before = path.read_bytes(), graph_path.read_bytes()
        listing = sorted(p.name for p in path.parent.iterdir())
        assert listing == ["graph.json", "images", "record.json", "transcripts"]
        changed = dataclasses.replace(
            record, graph=dataclasses.replace(record.graph, source_prompt="changed")
        )

        bad = dataclasses.replace(changed, backend_journal=[{"op": object()}])
        with pytest.raises(IoFailure):
            persist_record(bad, tmp_path / "runs")
        assert path.read_bytes() == before
        assert graph_path.read_bytes() == graph_before
        assert sorted(p.name for p in path.parent.iterdir()) == listing

        def failing_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(IoFailure):
            persist_record(dataclasses.replace(changed, error="changed"), tmp_path / "runs")
        assert path.read_bytes() == before
        assert graph_path.read_bytes() == graph_before
        assert sorted(p.name for p in path.parent.iterdir()) == listing


class TestConfigValidation:
    def test_bad_rounds(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline_cfg(tmp_path, rounds=0)

    def test_bad_parallelism(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline_cfg(tmp_path, parallelism=0)
