import json
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from promptrefine.backends import (
    BackendConfig,
    CallJournal,
    CapabilityMissing,
    ImageGenRequest,
    ImageRef,
    MockBackend,
    MockMiss,
    TextGenRequest,
    TransportError,
    UnparseableAnswer,
    VqaRequest,
    recording,
    request_digest,
)
from promptrefine.backends import base as backends_base
from promptrefine.backends.base import RateLimited, sha256_hex

from fixtures import PNG_BLACK, PNG_WHITE, journal


def text_req(text: str, preamble: str = "do the thing") -> TextGenRequest:
    return TextGenRequest(preamble=preamble, exemplars=(), input=text)


def image_ref(tmp_path, data=PNG_WHITE) -> ImageRef:
    p = tmp_path / f"{sha256_hex(data)[:8]}.png"
    p.write_bytes(data)
    return ImageRef.from_file(p)


class TestRequestTypes:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            TextGenRequest(preamble="p", exemplars=(), input="  ")

    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            TextGenRequest(preamble="p", exemplars=(), input="x", temperature=2.5)

    def test_digest_insensitive_to_exemplar_container(self):
        a = TextGenRequest(preamble="p", exemplars=(("i", "o"),), input="x")
        b = TextGenRequest(preamble="p", exemplars=[["i", "o"]], input="x")
        assert request_digest(a) == request_digest(b)

    def test_digest_changes_with_preamble(self):
        a = text_req("x", preamble="one")
        b = text_req("x", preamble="two")
        assert request_digest(a) != request_digest(b)

    def test_image_ref_requires_one_locator(self):
        with pytest.raises(ValueError):
            ImageRef()
        with pytest.raises(ValueError):
            ImageRef(path="x.png", digest="d", remote_id="r")
        ImageRef(remote_id="img-1")

    def test_empty_image_prompt_rejected_before_transport(self, journal):
        backend = MockBackend()
        with pytest.raises(ValueError):
            backend.generate_image(ImageGenRequest(prompt="   "))
        assert len(journal) == 0

    @pytest.mark.parametrize(
        "head, media_type",
        [
            (PNG_WHITE[:16], "image/png"),
            (b"\xff\xd8\xff\xe0\x00\x10JFIF\x00", "image/jpeg"),
            (b"GIF87a\x01\x00\x01\x00", "image/gif"),
            (b"GIF89a\x01\x00\x01\x00", "image/gif"),
            (b"RIFF\x24\x00\x00\x00WEBPVP8 ", "image/webp"),
            (b"RIFF\x24\x00\x00\x00WAVEfmt ", "image/png"),  # RIFF, but not WebP
            (b"BM\x36\x00\x00\x00", "image/png"),  # a BMP: unrecognized
            (b"", "image/png"),
        ],
        ids=["png", "jpeg", "gif87a", "gif89a", "webp", "riff-wave", "bmp", "empty"],
    )
    def test_image_ref_media_type_from_magic_bytes(self, tmp_path, head, media_type):
        p = tmp_path / "image.png"  # the suffix does not decide
        p.write_bytes(head)
        assert ImageRef.from_file(p).media_type == media_type

    def test_vqa_question_non_empty(self):
        with pytest.raises(ValueError):
            VqaRequest(image=ImageRef(remote_id="x"), question="")


class TestMockScripting:
    def test_scripted_digest_lookup(self):
        req = text_req("decompose this")
        backend = MockBackend().script_text(
            "sha256:" + request_digest(req), "1 | entity - whole (cat)"
        )
        assert backend.complete(req) == "1 | entity - whole (cat)"

    def test_glob_lookup(self):
        backend = MockBackend().script_text("*decompose*", "ok")
        assert backend.complete(text_req("please decompose this")) == "ok"

    def test_miss_names_digest(self):
        backend = MockBackend()
        req = text_req("nothing scripted")
        with pytest.raises(MockMiss) as exc:
            backend.complete(req)
        assert request_digest(req) in str(exc.value)

    def test_first_matching_entry_wins(self):
        backend = (
            MockBackend()
            .script_text("special input", "specific")
            .script_text("*", "fallback")
        )
        assert backend.complete(text_req("special input")) == "specific"
        assert backend.complete(text_req("anything else")) == "fallback"

    def test_preamble_filter(self):
        backend = (
            MockBackend()
            .script_text("*", "for questions", preamble="*question*")
            .script_text("*", "for tuples", preamble="*tuple*")
        )
        assert backend.complete(text_req("x", preamble="emit question lines")) == "for questions"
        assert backend.complete(text_req("x", preamble="emit tuple lines")) == "for tuples"

    def test_sequence_consumed_then_last_repeats(self):
        backend = MockBackend().script_text("*", ["a", "b"])
        req = text_req("x")
        assert [backend.complete(req) for _ in range(3)] == ["a", "b", "b"]

    def test_trailing_whitespace_stripped(self):
        backend = MockBackend().script_text("*", "answer  \n")
        assert backend.complete(text_req("x")) == "answer"

    def test_pure_function_of_digest(self):
        backend = MockBackend().script_text("*", "same")
        req = text_req("x")
        assert backend.complete(req) == backend.complete(req)


class TestRetryPolicy:
    def test_fail_n_times_then_succeed(self, journal):
        backend = MockBackend(BackendConfig(model="mock", max_retries=2, backoff_base=0.0))
        backend.script_text("*", [TransportError("down"), TransportError("down"), "up"])
        assert backend.complete(text_req("x")) == "up"
        records = journal.records()
        assert len(records) == 1
        assert records[0].attempts == 3

    def test_exhausted_retries_raise(self, journal):
        backend = MockBackend(BackendConfig(model="mock", max_retries=1, backoff_base=0.0))
        backend.script_text("*", TransportError("down"))
        with pytest.raises(TransportError):
            backend.complete(text_req("x"))
        records = journal.records()
        assert records[0].attempts == 2  # max_retries + 1
        assert not records[0].ok

    def test_non_retryable_not_retried(self, journal):
        from promptrefine.backends import AuthFailure

        backend = MockBackend(BackendConfig(model="mock", max_retries=3, backoff_base=0.0))
        backend.script_text("*", [AuthFailure("denied"), "never reached"])
        with pytest.raises(AuthFailure):
            backend.complete(text_req("x"))
        assert journal.records()[0].attempts == 1

    def test_rate_limited_is_retryable(self):
        backend = MockBackend(BackendConfig(model="mock", max_retries=1, backoff_base=0.0))
        backend.script_text("*", [RateLimited(), "ok"])
        assert backend.complete(text_req("x")) == "ok"


class TestLastLatency:
    def test_none_before_the_first_success(self):
        backend = MockBackend(BackendConfig(model="mock", max_retries=0))
        backend.script_text("*", [TransportError("down"), "up"])
        assert backend.last_latency_s("complete") is None
        with pytest.raises(TransportError):
            backend.complete(text_req("x"))
        assert backend.last_latency_s("complete") is None

    def test_the_last_successful_call_per_op_as_journaled(self, monkeypatch, journal):
        # A fake clock: the n-th call's clock reads advance by n seconds.
        now = [0.0]

        def monotonic():
            return now[0]

        backend = MockBackend(BackendConfig(model="mock", max_retries=0))
        send = backend._send_text

        def slow_send(req):
            now[0] += float(req.input)
            return send(req)

        monkeypatch.setattr(backends_base, "time", SimpleNamespace(monotonic=monotonic, sleep=time.sleep))
        monkeypatch.setattr(backend, "_send_text", slow_send)
        backend.script_text("3", TransportError("down")).script_text("*", "ok")
        backend.complete(text_req("2"))
        with pytest.raises(TransportError):
            backend.complete(text_req("3"))  # a failure keeps the last success
        assert backend.last_latency_s("complete") == 2.0
        backend.complete(text_req("5"))
        assert backend.last_latency_s("complete") == 5.0
        assert [r.latency_s for r in journal.records()] == [2.0, 3.0, 5.0]
        assert backend.last_latency_s("answer_binary") is None


class TestAnswerBinary:
    def _backend(self):
        return MockBackend()

    def test_affirmative_sentence(self, tmp_path):
        backend = self._backend().script_vqa("*", "Yes, there is a motorcycle.")
        assert backend.answer_binary(VqaRequest(image=image_ref(tmp_path), question="Is there a motorcycle?")) is True

    def test_bare_no(self, tmp_path):
        backend = self._backend().script_vqa("*", "no")
        assert backend.answer_binary(VqaRequest(image=image_ref(tmp_path), question="Is it red?")) is False

    def test_unparseable_twice_raises(self, tmp_path, journal):
        backend = self._backend().script_vqa("*", "maybe")
        with pytest.raises(UnparseableAnswer):
            backend.answer_binary(VqaRequest(image=image_ref(tmp_path), question="Is it red?"))
        # both the original ask and the strict re-ask reached the transport
        assert len(journal) == 2

    def test_reask_recovers(self, tmp_path):
        backend = self._backend()
        backend.script_vqa("Is it red?", "hmm, unclear")
        backend.script_vqa("Is it red?*", "no")
        assert backend.answer_binary(VqaRequest(image=image_ref(tmp_path), question="Is it red?")) is False

    def test_punctuation_before_token(self, tmp_path):
        backend = self._backend().script_vqa("*", "— YES!")
        assert backend.answer_binary(VqaRequest(image=image_ref(tmp_path), question="Q?")) is True

    def test_image_digest_filter(self, tmp_path):
        ref_a = image_ref(tmp_path, PNG_WHITE)
        ref_b = image_ref(tmp_path, PNG_BLACK)
        backend = (
            self._backend()
            .script_vqa("*", "yes", image_digest=ref_a.digest)
            .script_vqa("*", "no", image_digest=ref_b.digest)
        )
        q = "Is there a fence?"
        assert backend.answer_binary(VqaRequest(image=ref_a, question=q)) is True
        assert backend.answer_binary(VqaRequest(image=ref_b, question=q)) is False


class TestImageGeneration:
    def test_scripted_bytes_persisted(self, tmp_path):
        backend = MockBackend(image_dir=tmp_path).script_image("*", PNG_WHITE)
        ref = backend.generate_image(ImageGenRequest(prompt="a cat"))
        assert ref.digest == sha256_hex(PNG_WHITE)
        assert ref.read_bytes() == PNG_WHITE

    def test_identical_request_identical_artifact(self, tmp_path):
        backend = MockBackend(image_dir=tmp_path).script_image("*", PNG_WHITE)
        req = ImageGenRequest(prompt="a cat", seed=7, width=64, height=64)
        a = backend.generate_image(req)
        b = backend.generate_image(req)
        assert a.digest == b.digest
        assert a.path == b.path

    def test_image_bytes_hashed_once(self, tmp_path, monkeypatch, journal):
        hashed = []

        def counting(data):
            if isinstance(data, bytes):
                hashed.append(data)
            return sha256_hex(data)

        monkeypatch.setattr(backends_base, "sha256_hex", counting)
        backend = MockBackend(image_dir=tmp_path).script_image("*", PNG_WHITE)
        ref = backend.generate_image(ImageGenRequest(prompt="a cat"))
        assert hashed == [PNG_WHITE]
        assert ref.digest == sha256_hex(PNG_WHITE)
        assert journal.records()[0].response_digest == ref.digest

    def test_dim_bounds_checked(self, tmp_path, journal):
        backend = MockBackend(image_dir=tmp_path).script_image("*", PNG_WHITE)
        for width, height in [(8, 64), (8, 8), (5000, 5000)]:
            with pytest.raises(ValueError):
                backend.generate_image(ImageGenRequest(prompt="x", width=width, height=height))
        assert len(journal) == 0


class TestEmbed:
    def test_scripted_unit_vector(self):
        backend = MockBackend().script_embed("cat", [1.0, 0.0, 0.0])
        assert backend.embed("cat") == [1.0, 0.0, 0.0]

    def test_capability_missing(self):
        with pytest.raises(CapabilityMissing):
            MockBackend().embed("cat")

    def test_same_vector_for_text_and_image(self, tmp_path):
        ref = image_ref(tmp_path)
        backend = (
            MockBackend()
            .script_embed("cat", [0.0, 1.0])
            .script_embed(ref.digest, [0.0, 1.0])
        )
        assert backend.embed("cat") == backend.embed(ref)


class TestJournal:
    def test_one_entry_per_invocation(self, tmp_path, journal):
        backend = MockBackend(image_dir=tmp_path)
        backend.script_text("*", "t").script_vqa("*", "yes").script_image("*", PNG_WHITE)
        backend.complete(text_req("a"))
        backend.answer_binary(VqaRequest(image=image_ref(tmp_path), question="q?"))
        backend.generate_image(ImageGenRequest(prompt="p"))
        assert [r.op for r in journal.records()] == [
            "complete",
            "answer_binary",
            "generate_image",
        ]

    def test_calls_outside_a_recording_are_not_kept(self):
        backend = MockBackend().script_text("*", "ok")
        backend.complete(text_req("before"))
        with recording(CallJournal()) as mine:
            backend.complete(text_req("inside"))
        backend.complete(text_req("after"))
        assert [r.digest for r in mine.records()] == [request_digest(text_req("inside"))]

    def test_nested_recording_restores_the_outer_journal(self):
        backend = MockBackend().script_text("*", "ok")
        with recording(CallJournal()) as outer:
            with recording(CallJournal()) as inner:
                backend.complete(text_req("inner"))
            backend.complete(text_req("outer"))
        assert (len(outer), len(inner)) == (1, 1)

    def test_one_image_dir_per_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        backend = MockBackend().script_text("*", "ok")
        backend.complete(text_req("x"))
        assert list(tmp_path.glob("promptrefine-img-*")) == []  # text only: no image dir

        backend.script_image("*", PNG_WHITE)
        refs = [backend.generate_image(ImageGenRequest(prompt=f"p{i}")) for i in range(5)]
        dirs = list(tmp_path.glob("promptrefine-img-*"))
        assert len(dirs) <= 1
        assert {Path(ref.path).parent for ref in refs} <= set(dirs)
        assert [p.name for p in dirs[0].iterdir()] == [Path(refs[0].path).name]

    def test_summaries_redact_response_bodies(self, journal):
        backend = MockBackend().script_text("*", "secret payload")
        backend.complete(text_req("x"))
        summary = journal.summaries()[0]
        assert "secret payload" not in json.dumps(summary)
        assert summary["ok"] is True


class TestScriptFile:
    def test_documented_fixture_loads(self, tmp_path):
        path = Path(__file__).parent / "data" / "mock_script.json"
        backend = MockBackend.from_file(path, image_dir=tmp_path)
        assert backend.complete(text_req("x", preamble="Decompose this")).startswith("1 | entity")
        assert backend.complete(text_req("flaky request")) == "recovered on retry"
        assert backend.complete(text_req("anything")) == "fallback completion"
        ref = backend.generate_image(ImageGenRequest(prompt="p"))
        q = VqaRequest(image=ref, question="Is there a lighthouse?")
        assert backend.answer_binary(q) is False
        assert backend.answer_binary(q) is True
        assert backend.embed("a lighthouse on a cliff") == [1.0, 0.0, 0.0]

    def test_round_trip_through_file(self, tmp_path):
        import base64

        doc = {
            "text": [
                {"match": "*tuples*", "response": "1 | entity - whole (cat)"},
                {"match": "flaky", "responses": [{"error": "transport"}, "recovered"]},
            ],
            "vqa": [{"match": "*", "response": "yes"}],
            "image": [{"match": "*", "response": {"b64": base64.b64encode(PNG_WHITE).decode()}}],
            "embed": [{"match": "cat", "response": [1, 0]}],
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(doc))
        backend = MockBackend.from_file(path, image_dir=tmp_path)
        assert backend.complete(text_req("give me tuples")) == "1 | entity - whole (cat)"
        assert backend.complete(text_req("flaky")) == "recovered"
        assert backend.answer_binary(VqaRequest(image=image_ref(tmp_path), question="q?")) is True
        assert backend.generate_image(ImageGenRequest(prompt="p")).read_bytes() == PNG_WHITE
        assert backend.embed("cat") == [1.0, 0.0]
