import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import promptrefine
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
from promptrefine.backends.base import (
    RateLimited,
    canonical_json,
    embed_digest,
    sha256_hex,
    write_file_atomic,
)

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


def oracle_digest(req) -> str:
    """The definition every request digest must meet."""
    return sha256_hex(canonical_json(req.canonical()))


texts = st.text()
nonblank = st.text().filter(lambda s: s.strip())
temperatures = st.one_of(
    st.floats(min_value=0.0, max_value=2.0), st.integers(0, 2), st.sampled_from([-0.0, 0.0, 1.0, 2.0])
)
text_requests = st.builds(
    TextGenRequest,
    preamble=texts,
    exemplars=st.lists(st.tuples(texts, texts), max_size=4),
    input=nonblank,
    temperature=temperatures,
    max_tokens=st.integers(1, 1 << 40),
)
image_refs = st.one_of(
    st.builds(ImageRef, path=texts, digest=texts, media_type=texts),
    st.builds(ImageRef, remote_id=texts, media_type=texts),
)
vqa_requests = st.builds(VqaRequest, image=image_refs, question=nonblank)
image_gen_requests = st.builds(
    ImageGenRequest,
    prompt=nonblank,
    seed=st.integers(-(1 << 63), 1 << 63),
    width=st.integers(1, 1 << 16),
    height=st.integers(1, 1 << 16),
    extra=st.lists(st.tuples(texts, texts), max_size=3),
)

# Taken from the definition before digests were built from cached fragments.
GOLDEN = [
    (TextGenRequest(preamble='Rate "this"\n', exemplars=(("in ü", "out\t1"), ("\x00", "\u2028")),
                    input="a cat — 猫", temperature=0.7, max_tokens=256),
     "6703a7b02bd846c2a553c6510ce3ada9b42b73ed86025d27eba066852bdc019b"),
    (TextGenRequest(preamble="", exemplars=(), input="x"),
     "e2238fb6f5e14feb3b8f2571a416b643439dd7ca68917bb2fdbccd055db66598"),
    (VqaRequest(ImageRef(path="/x/a.png", digest="ab" * 32, media_type="image/jpeg"), 'Is there a "cat"?'),
     "a1ac22a3425959fcc0612dbd39782e117bbdb8794d307ecf101937a6a733a156"),
    (VqaRequest(ImageRef(remote_id="file-123"), "Is it red?"),
     "2a18a3607b4e4547b1e089598606d796fc741547d93bf6ec003270c4dd2b0bc8"),
    (ImageGenRequest(prompt="a red motorcycle", seed=7, width=512, height=768, extra=(("style", "photo"),)),
     "ea0e81978bfb697dc0c3985a8ddf85bafd8e28f2a42963652c78d605ec0f2358"),
]


class TestDigests:
    @given(st.one_of(text_requests, vqa_requests, image_gen_requests))
    def test_request_digest_is_sha256_of_the_canonical_json(self, req):
        assert request_digest(req) == oracle_digest(req)

    @given(st.one_of(texts, image_refs))
    def test_embed_digest_is_sha256_of_the_canonical_json(self, payload):
        key = payload if isinstance(payload, str) else payload.locator()
        assert embed_digest(payload) == sha256_hex(canonical_json({"kind": "embed", "payload": key}))

    @pytest.mark.parametrize("req,digest", GOLDEN, ids=["text", "text-defaults", "vqa-local", "vqa-remote", "image-gen"])
    def test_golden_digests(self, req, digest):
        assert request_digest(req) == digest

    def test_golden_embed_digests(self):
        assert embed_digest("a cat") == "9bf339136e7bbb9e433a68e15d00cef49eb1c39aa57b5e353f6878ee9f932c5b"
        assert embed_digest(ImageRef(remote_id="file-123")) == (
            "7c847e51b6c39fdbd1efe5cf1b5c8648c9706b0bfa89c0c576932e3264ee1437"
        )

    @pytest.mark.parametrize("temperature", [0.0, -0.0, 0, 1, 1.0, True])
    def test_equal_temperatures_keep_their_own_json(self, temperature):
        # 0.0 == -0.0 == 0 and 1 == 1.0 == True, but each is written differently.
        req = TextGenRequest(preamble="p", exemplars=(("i", "o"),), input="x", temperature=temperature)
        assert request_digest(req) == oracle_digest(req)

    def test_a_cached_fragment_is_not_reused_for_another_value(self):
        reqs = [
            TextGenRequest(preamble=p, exemplars=e, input="x")
            for p in ("one", "two") for e in ((), (("one", "two"),), (("two", "one"),))
        ]
        for req in reqs + reqs:
            assert request_digest(req) == oracle_digest(req)
        assert len({request_digest(r) for r in reqs}) == len(reqs)

    def test_a_scripted_complete_builds_its_canonical_text_once(self, monkeypatch):
        # Backend.complete digests the request for the journal, and the mock's
        # hook digests it to match its script: both take the one kept digest.
        built, canonical_text = [], TextGenRequest.canonical_text
        monkeypatch.setattr(TextGenRequest, "canonical_text", lambda req: built.append(req) or canonical_text(req))
        req = TextGenRequest(preamble="p", exemplars=(), input="x")
        assert MockBackend(name="llm").script_text("*", "ok").complete(req) == "ok"
        assert built == [req]

    @pytest.mark.real_threads
    def test_concurrent_digests_meet_the_definition(self):
        # More distinct preambles than the fragment cache holds, so entries are
        # evicted while other threads read them; images shared by many questions.
        images = [ImageRef(remote_id=f"img-{i}") for i in range(3)]
        reqs = []
        for i in range(400):
            reqs.append(TextGenRequest(preamble=f"p{i % 97}", exemplars=((f"i{i % 5}", "o"),), input=f"x{i}"))
            reqs.append(VqaRequest(image=images[i % 3], question=f"q{i}?"))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(request_digest, reqs, timeout=60))
        finally:
            sys.setswitchinterval(old)
        assert got == [oracle_digest(r) for r in reqs]

    @pytest.mark.parametrize("exemplars", [(("i", 1),), (("i", "o", "x"),), ((b"i", "o"),)])
    def test_exemplars_must_be_text_pairs(self, exemplars):
        with pytest.raises(ValueError, match="exemplars"):
            TextGenRequest(preamble="p", exemplars=exemplars, input="x")

    def test_preamble_must_be_text(self):
        with pytest.raises(ValueError, match="preamble"):
            TextGenRequest(preamble=None, exemplars=(), input="x")

    @pytest.mark.parametrize("raw", ["yes", "No.", "y" * 500])
    def test_response_digest_is_sha256_of_the_text(self, raw, journal):
        backend = MockBackend().script_text("*", raw)
        backend.complete(text_req("x"))
        backend.complete(text_req("x"))
        assert [r.response_digest for r in journal.records()] == [sha256_hex(raw)] * 2


class TestWriteFileAtomic:
    def test_importing_the_package_never_sets_the_umask(self):
        # Setting the umask, even to read it, changes it for every thread.
        code = (
            "import os\n"
            "calls = []\n"
            "real = os.umask\n"
            "os.umask = lambda mask: calls.append(mask) or real(mask)\n"
            "import promptrefine.backends, promptrefine.bench, promptrefine.cli, promptrefine.pipeline\n"
            "assert calls == [], calls\n"
        )
        src = str(Path(promptrefine.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_file_gets_the_umask_mode(self, tmp_path):
        old = os.umask(0o077)
        try:
            write_file_atomic(tmp_path / "a.json", b"{}")
        finally:
            os.umask(old)
        assert (tmp_path / "a.json").stat().st_mode & 0o777 == 0o600
        assert (tmp_path / "a.json").read_bytes() == b"{}"

    def test_a_stale_temp_file_is_stepped_over(self, tmp_path, monkeypatch):
        monkeypatch.setattr(backends_base, "_TEMP_NAMES", itertools.count())
        stale = tmp_path / f".a.json.{os.getpid()}.0.tmp"
        stale.write_bytes(b"stale")
        write_file_atomic(tmp_path / "a.json", b"new")
        assert (tmp_path / "a.json").read_bytes() == b"new"
        assert stale.read_bytes() == b"stale"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "a.json"]

    def test_concurrent_writers_leave_one_whole_file(self, tmp_path):
        target = tmp_path / "a.json"
        payloads = [bytes([65 + i]) * 4096 for i in range(8)]

        def write_many(data):
            for _ in range(50):
                write_file_atomic(target, data)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(payloads)) as pool:
                list(pool.map(write_many, payloads, timeout=60))
        finally:
            sys.setswitchinterval(old)
        assert target.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        (tmp_path / "a.json").write_bytes(b"old")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="No space left"):
            write_file_atomic(tmp_path / "a.json", b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        assert (tmp_path / "a.json").read_bytes() == b"old"


VQA_REQ = VqaRequest(ImageRef(remote_id="img"), "Is it red?")
IMAGE_REQ = ImageGenRequest(prompt="a cat")


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

    def test_a_scripted_rate_limit_keeps_its_retry_after(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(backends_base, "time", SimpleNamespace(monotonic=time.monotonic, sleep=sleeps.append))
        backend = MockBackend().script_text("*", [RateLimited(retry_after=0.5), "ok"])
        assert backend.complete(text_req("x")) == "ok"
        assert sleeps == [0.5]

    @pytest.mark.parametrize(
        "backoff_base, waits",
        [(0.5, [0.5, 1.0, 2.0]), (10.0, [10.0, 20.0, 30.0]), (40.0, [30.0] * 3), (float("inf"), [30.0] * 3)],
    )
    def test_every_backoff_wait_is_at_most_30_s(self, monkeypatch, backoff_base, waits):
        sleeps = []
        monkeypatch.setattr(backends_base, "time", SimpleNamespace(monotonic=time.monotonic, sleep=sleeps.append))
        backend = MockBackend(BackendConfig(model="mock", max_retries=3, backoff_base=backoff_base))
        backend.script_text("*", [TransportError("down")] * 3 + ["ok"])
        assert backend.complete(text_req("x")) == "ok"
        assert sleeps == waits

    def test_a_scripted_transport_error_keeps_its_status(self):
        backend = MockBackend(BackendConfig(model="mock", max_retries=0, backoff_base=0.0))
        backend.script_text("*", TransportError("boom", status=503))
        with pytest.raises(TransportError) as exc:
            backend.complete(text_req("x"))
        assert (exc.value.status, str(exc.value)) == (503, "boom (status 503)")

    @pytest.mark.parametrize(
        "op, script, call, digest, kind",
        [
            ("complete", "script_text", lambda b: b.complete(text_req("x")), request_digest(text_req("x")), "text"),
            ("answer_binary", "script_vqa", lambda b: b.answer_binary(VQA_REQ), request_digest(VQA_REQ), "text"),
            ("generate_image", "script_image", lambda b: b.generate_image(IMAGE_REQ), request_digest(IMAGE_REQ),
             "image bytes"),
            ("embed", "script_embed", lambda b: b.embed("a cat"), embed_digest("a cat"), "a vector"),
        ],
    )
    def test_a_scripted_value_of_the_wrong_type_is_a_miss(self, op, script, call, digest, kind):
        backend = getattr(MockBackend(), script)("*", "text" if op == "embed" else 7)
        with pytest.raises(MockMiss) as exc:
            call(backend)
        assert (exc.value.op, exc.value.digest) == (op, digest)
        assert str(exc.value).endswith(f"{digest} (scripted value is not {kind})")

    def test_a_scripted_mock_miss_is_raised_as_a_new_instance(self):
        miss = MockMiss("complete", "abc")
        backend = MockBackend().script_text("*", miss)
        for _ in range(2):
            with pytest.raises(MockMiss) as exc:
                backend.complete(text_req("x"))
            assert (exc.value.op, exc.value.digest, str(exc.value)) == ("complete", "abc", str(miss))
            assert exc.value is not miss
        assert miss.__traceback__ is None


class TestBackendConfig:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("rate_limit", -1.0),
            ("rate_limit", 0.0),
            ("rate_limit", float("nan")),
            ("backoff_base", -1.0),
            ("backoff_base", float("nan")),
            ("embed_dim", 0),
            ("timeout", 0.0),
            ("timeout", -1.0),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
        ],
    )
    def test_out_of_range_values_are_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            BackendConfig(**{key: value})

    def test_the_boundary_values_are_accepted(self):
        config = BackendConfig(rate_limit=0.01, backoff_base=0.0, embed_dim=1)
        assert (config.rate_limit, config.backoff_base, config.embed_dim) == (0.01, 0.0, 1)
        assert BackendConfig().rate_limit is None  # unlimited


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

    @pytest.mark.parametrize("component", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_component_is_a_transport_error(self, component):
        backend = MockBackend().script_embed("cat", [component, 1.0])
        with pytest.raises(TransportError, match="non-finite"):
            backend.embed("cat")


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

    def test_slots_hold_their_calls_place(self):
        # A slot's calls read where the slot was taken, however late they
        # are made; a slot in a slot reads where it stands in its parent.
        backend = MockBackend().script_text("*", "ok")
        with recording(CallJournal()) as journal:
            backend.complete(text_req("a"))
            outer = journal.slot()
            backend.complete(text_req("e"))
        with recording(outer):
            backend.complete(text_req("b"))
            inner = outer.slot()
            backend.complete(text_req("d"))
        with recording(inner):
            backend.complete(text_req("c"))
        assert [r.digest for r in journal.records()] == [request_digest(text_req(x)) for x in "abcde"]
        assert (len(journal), len(outer), len(inner)) == (5, 3, 1)

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
