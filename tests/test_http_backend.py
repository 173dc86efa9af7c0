"""Wire-format tests for the HTTP backend, driven through a stub session."""

import base64
import json
import json as _json  # StubSession.post's parameter `json` shadows the module name
import threading

import pytest
import requests

from promptrefine.backends import (
    AuthFailure,
    BackendConfig,
    BackendTimeout,
    CallJournal,
    ContentRejected,
    HttpBackend,
    ImageGenRequest,
    ImageRef,
    TextGenRequest,
    TransportError,
    VqaRequest,
    recording,
)

from promptrefine.backends import http
from promptrefine.backends.base import sha256_hex

from fixtures import PNG_BLACK, PNG_WHITE, journal


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None, body=b""):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}
        self.content = body if payload is None else json.dumps(payload).encode()

    @property
    def text(self):
        return self.content.decode("utf-8", "replace")

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class StubSession:
    """Records posts and replays canned responses (exceptions included).

    A ``data=`` body is joined and decoded, so ``json`` holds the payload
    however it was sent; ``body`` and ``body_len`` keep the raw bytes and the
    length the body declared.
    """

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, data=None, headers=None, timeout=None):
        call = {"url": url, "json": json, "headers": headers, "timeout": timeout, "body": None}
        if data is not None:
            call["body"] = b"".join(data)
            call["body_len"] = len(data)
            call["json"] = _json.loads(call["body"])
        self.calls.append(call)
        result = self.responses.pop(0) if len(self.responses) > 1 else self.responses[0]
        if isinstance(result, Exception):
            raise result
        return result


def backend(responses, image_dir=None, **cfg):
    cfg.setdefault("endpoint", "http://models.test/v1")
    cfg.setdefault("model", "test-model")
    cfg.setdefault("backoff_base", 0.0)
    session = StubSession(responses)
    return HttpBackend(BackendConfig(**cfg), image_dir=image_dir, session=session), session


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns a reader of the count."""
    original = getattr(owner, name)
    count = [0]

    def wrapper(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return lambda: count[0]


def chat_payload(content):
    return {"choices": [{"message": {"content": content}}]}


class TestChatCompletions:
    def test_few_shot_message_shape(self):
        be, session = backend([FakeResponse(payload=chat_payload("out"))])
        req = TextGenRequest(
            preamble="instructions",
            exemplars=(("in one", "out one"), ("in two", "out two")),
            input="the input",
            temperature=0.5,
            max_tokens=77,
        )
        assert be.complete(req) == "out"
        call = session.calls[0]
        assert call["url"] == "http://models.test/v1/chat/completions"
        assert call["json"]["model"] == "test-model"
        assert call["json"]["temperature"] == 0.5
        assert call["json"]["max_tokens"] == 77
        roles = [m["role"] for m in call["json"]["messages"]]
        assert roles == ["system", "user", "assistant", "user", "assistant", "user"]
        assert call["json"]["messages"][-1]["content"] == "the input"

    def test_bearer_token_sent_and_never_journaled(self, journal):
        be, session = backend(
            [FakeResponse(payload=chat_payload("ok"))], auth_token="top-secret"
        )
        be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert session.calls[0]["headers"]["Authorization"] == "Bearer top-secret"
        assert "top-secret" not in json.dumps(journal.summaries())

    def test_auth_failure_not_retried(self):
        be, session = backend([FakeResponse(status_code=401)], max_retries=3)
        with pytest.raises(AuthFailure):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert len(session.calls) == 1

    def test_rate_limited_retries_then_succeeds(self):
        be, session = backend(
            [
                FakeResponse(status_code=429, headers={"Retry-After": "0"}),
                FakeResponse(payload=chat_payload("ok")),
            ],
            max_retries=1,
        )
        assert be.complete(TextGenRequest(preamble="", exemplars=(), input="x")) == "ok"
        assert len(session.calls) == 2

    def test_server_error_is_retryable_transport(self):
        be, session = backend([FakeResponse(status_code=503)], max_retries=2)
        with pytest.raises(TransportError):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert len(session.calls) == 3  # max_retries + 1 attempts

    def test_connection_error_maps_to_transport(self):
        be, session = backend([requests.ConnectionError("refused")], max_retries=1)
        with pytest.raises(TransportError):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert len(session.calls) == 2

    def test_timeout_maps_to_backend_timeout(self):
        be, _ = backend([requests.Timeout("slow")], max_retries=0)
        with pytest.raises(BackendTimeout):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))

    def test_malformed_body_is_transport_error(self):
        be, _ = backend([FakeResponse(payload={"nope": []})], max_retries=0)
        with pytest.raises(TransportError):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))


class TestVqaWire:
    def test_image_sent_as_data_url(self, tmp_path):
        p = tmp_path / "img.png"
        p.write_bytes(PNG_WHITE)
        be, session = backend([FakeResponse(payload=chat_payload("yes"))])
        assert be.answer_binary(VqaRequest(image=ImageRef.from_file(p), question="Q?")) is True
        content = session.calls[0]["json"]["messages"][0]["content"]
        assert content[0]["type"] == "image_url"
        url = content[0]["image_url"]["url"]
        assert url.startswith("data:image/png;base64,")
        assert base64.b64decode(url.split(",", 1)[1]) == PNG_WHITE
        assert content[1] == {"type": "text", "text": "Q?"}

    def test_a_jpeg_file_is_sent_as_a_jpeg(self, tmp_path):
        jpeg = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01"
        p = tmp_path / "photo.png"  # the bytes decide, not the suffix
        p.write_bytes(jpeg)
        be, session = backend([FakeResponse(payload=chat_payload("yes"))])
        be.answer_binary(VqaRequest(image=ImageRef.from_file(p), question="Q?"))
        url = session.calls[0]["json"]["messages"][0]["content"][0]["image_url"]["url"]
        assert url == "data:image/jpeg;base64," + base64.b64encode(jpeg).decode()

    def test_remote_image_passed_through(self):
        be, session = backend([FakeResponse(payload=chat_payload("no"))])
        ref = ImageRef(remote_id="https://img.test/1.png")
        assert be.answer_binary(VqaRequest(image=ref, question="Q?")) is False
        content = session.calls[0]["json"]["messages"][0]["content"]
        assert content[0]["image_url"]["url"] == "https://img.test/1.png"
        assert session.calls[0]["body"] is None  # sent as a plain json= payload

    def test_questions_about_one_image_read_and_encode_it_once(self, tmp_path, monkeypatch):
        p = tmp_path / "img.png"
        p.write_bytes(PNG_WHITE)
        ref = ImageRef.from_file(p)
        reads, encodes = counting(monkeypatch, ImageRef, "read_bytes"), counting(monkeypatch, base64, "b64encode")
        be, session = backend([FakeResponse(payload=chat_payload("yes"))])
        for i in range(5):
            assert be.answer_binary(VqaRequest(image=ref, question=f"Q{i}?")) is True
        assert (reads(), encodes()) == (1, 1)
        urls = {c["json"]["messages"][0]["content"][0]["image_url"]["url"] for c in session.calls}
        assert urls == {"data:image/png;base64," + base64.b64encode(PNG_WHITE).decode()}
        assert [c["json"]["messages"][0]["content"][1]["text"] for c in session.calls] == [
            f"Q{i}?" for i in range(5)
        ]

    def test_concurrent_first_questions_share_one_encoding(self, tmp_path, monkeypatch, journal):
        # The first read is held until all 16 requests have asked for the
        # encoding, so each of the others either waits for it or reads again.
        p = tmp_path / "img.png"
        p.write_bytes(PNG_WHITE)
        ref = ImageRef.from_file(p)
        lock, arrived, all_arrived, reads = threading.Lock(), [0], threading.Event(), []
        encoded, read = http._encoded, ImageRef.read_bytes

        def counting_encoded(image):
            with lock:
                arrived[0] += 1
                if arrived[0] == 16:
                    all_arrived.set()
            return encoded(image)

        def held_read(image):
            with lock:
                reads.append(image)
                first = len(reads) == 1
            if first:
                assert all_arrived.wait(timeout=10)
            return read(image)

        monkeypatch.setattr(http, "_encoded", counting_encoded)
        monkeypatch.setattr(ImageRef, "read_bytes", held_read)
        encodes = counting(monkeypatch, base64, "b64encode")
        be, session = backend([FakeResponse(payload=chat_payload("yes"))])
        results, thread_journals = [], []

        def ask(i):
            # a new thread starts outside the test's recording
            with recording(CallJournal()) as own:
                results.append(be.answer_binary(VqaRequest(image=ref, question=f"Q{i}?")))
            thread_journals.append(own)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
        assert results == [True] * 16
        assert (len(reads), encodes()) == (1, 1)
        assert len(session.calls) == 16 and sum(map(len, thread_journals)) == 16 and len(journal) == 0

    def test_body_length_is_the_bytes_sent(self, tmp_path):
        p = tmp_path / "img.png"
        p.write_bytes(PNG_WHITE)
        # a record loaded from disk may carry any media type
        ref = ImageRef(path=str(p), digest=sha256_hex(PNG_WHITE), media_type='image/"png"')
        be, session = backend([FakeResponse(payload=chat_payload("yes"))], model="m\u00e9")
        be.answer_binary(VqaRequest(image=ref, question='Is the caf\u00e9 "open"?'))
        call = session.calls[0]
        assert call["body_len"] == len(call["body"])
        assert call["headers"]["Content-Type"] == "application/json"
        assert call["json"]["model"] == "m\u00e9"
        content = call["json"]["messages"][0]["content"]
        assert content[0]["image_url"]["url"].startswith('data:image/"png";base64,')
        assert content[1]["text"] == 'Is the caf\u00e9 "open"?'


class TestImagesWire:
    def test_a_question_after_a_generate_sends_the_encoding_made_there(self, tmp_path, monkeypatch):
        payload = {"data": [{"b64_json": base64.b64encode(PNG_BLACK).decode()}]}
        be, session = backend(
            [FakeResponse(payload=payload), FakeResponse(payload=chat_payload("yes"))], image_dir=tmp_path
        )
        ref = be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
        reads, encodes = counting(monkeypatch, ImageRef, "read_bytes"), counting(monkeypatch, base64, "b64encode")
        assert be.answer_binary(VqaRequest(image=ref, question="Q?")) is True
        assert (reads(), encodes()) == (0, 0)
        url = session.calls[1]["json"]["messages"][0]["content"][0]["image_url"]["url"]
        assert url == "data:image/png;base64," + base64.b64encode(PNG_BLACK).decode()

    def test_a_generated_jpeg_is_stored_and_sent_as_a_jpeg(self, tmp_path):
        jpeg = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01"
        payload = {"data": [{"b64_json": base64.b64encode(jpeg).decode()}]}
        be, session = backend(
            [FakeResponse(payload=payload), FakeResponse(payload=chat_payload("yes"))], image_dir=tmp_path
        )
        ref = be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
        assert ref.media_type == "image/jpeg" and ref.path.endswith(".jpg")
        assert be.answer_binary(VqaRequest(image=ref, question="Q?")) is True
        url = session.calls[1]["json"]["messages"][0]["content"][0]["image_url"]["url"]
        assert url == "data:image/jpeg;base64," + base64.b64encode(jpeg).decode()

    def test_generation_payload_and_decode(self, tmp_path):
        payload = {"data": [{"b64_json": base64.b64encode(PNG_WHITE).decode()}]}
        be, session = backend([FakeResponse(payload=payload)], image_dir=tmp_path)
        ref = be.generate_image(
            ImageGenRequest(prompt="a fox", seed=9, width=512, height=256, extra=(("steps", "20"),))
        )
        call = session.calls[0]
        assert call["url"].endswith("/images/generations")
        assert call["json"]["prompt"] == "a fox"
        assert call["json"]["seed"] == 9
        assert call["json"]["size"] == "512x256"
        assert call["json"]["steps"] == "20"
        assert call["json"]["response_format"] == "b64_json"
        assert ref.read_bytes() == PNG_WHITE

    def test_content_policy_rejection(self, tmp_path):
        be, _ = backend(
            [FakeResponse(status_code=400, body=b'{"error": "content_policy_violation"}')],
            image_dir=tmp_path,
        )
        with pytest.raises(ContentRejected):
            be.generate_image(ImageGenRequest(prompt="x", width=64, height=64))


class TestEmbeddingsWire:
    def test_text_embedding(self):
        payload = {"data": [{"embedding": [0.5, 0.5]}]}
        be, session = backend([FakeResponse(payload=payload)], supports_embedding=True)
        assert be.embed("a fox") == [0.5, 0.5]
        assert session.calls[0]["url"].endswith("/embeddings")
        assert session.calls[0]["json"]["input"] == "a fox"

    def test_image_embedding_sends_the_vqa_data_url(self, tmp_path, monkeypatch):
        p = tmp_path / "img.png"
        p.write_bytes(PNG_WHITE)
        ref = ImageRef.from_file(p)
        be, session = backend(
            [
                FakeResponse(payload=chat_payload("yes")),
                FakeResponse(payload={"data": [{"embedding": [0.5, 0.5]}]}),
            ],
            supports_embedding=True,
        )
        reads = counting(monkeypatch, ImageRef, "read_bytes")
        be.answer_binary(VqaRequest(image=ref, question="Q?"))
        assert be.embed(ref) == [0.5, 0.5]
        assert reads() == 1
        assert session.calls[1]["body_len"] == len(session.calls[1]["body"])
        vqa_url = session.calls[0]["json"]["messages"][0]["content"][0]["image_url"]["url"]
        embed_input = session.calls[1]["json"]["input"]
        assert embed_input.startswith("data:image/png;base64,")
        assert embed_input == vqa_url
        assert base64.b64decode(embed_input.split(",", 1)[1]) == PNG_WHITE

    def test_declared_dimension_enforced(self):
        payload = {"data": [{"embedding": [0.5, 0.5, 0.5]}]}
        be, _ = backend(
            [FakeResponse(payload=payload)],
            supports_embedding=True,
            embed_dim=2,
            max_retries=0,
        )
        with pytest.raises(TransportError):
            be.embed("a fox")


def test_rate_limiter_spaces_requests():
    be, session = backend(
        [FakeResponse(payload=chat_payload("ok"))], rate_limit=200.0
    )
    import time

    start = time.monotonic()
    for _ in range(4):
        be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
    elapsed = time.monotonic() - start
    assert elapsed >= 3 * (1 / 200.0)
