"""Wire-format tests for the HTTP backend, driven through a stub session."""

import base64
import dataclasses
import gc
import json
import json as _json  # StubSession.post's parameter `json` shadows the module name
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
import yaml
from hypothesis import given
from hypothesis import strategies as st

import promptrefine
from promptrefine import reflection
from promptrefine.backends import (
    AuthFailure,
    BackendConfig,
    BackendTimeout,
    CallJournal,
    ContentRejected,
    HttpBackend,
    ImageGenRequest,
    ImageRef,
    MockBackend,
    RateLimited,
    TextGenRequest,
    TransportError,
    VqaRequest,
    recording,
)

from promptrefine.backends import base as backends_base
from promptrefine.backends import http
from promptrefine.backends.base import sha256_hex
from promptrefine.pipeline import Backends, PipelineConfig, _error_kind, run_batch, run_single
from promptrefine.reflection import POOL_WORKERS, evaluate_image

from fixtures import (
    MOTORCYCLE_PROMPT,
    PNG_BLACK,
    PNG_WHITE,
    chain_graph,
    journal,
    motorcycle_backends,
    motorcycle_graph,
)

# Loopback servers and pooled calls run on real threads.
pytestmark = pytest.mark.real_threads


class FakeResponse:
    """A streamed response: its body is read through ``iter_content``."""

    def __init__(self, status_code=200, payload=None, headers=None, body=b""):
        self.status_code = status_code
        self.headers = headers or {}
        self.content = body if payload is None else json.dumps(payload).encode()

    def iter_content(self, chunk_size=None):
        yield self.content

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class StubSession:
    """Records posts and replays canned responses (exceptions included).

    A ``data=`` body is joined and decoded, so ``json`` holds the payload
    however it was sent; ``body`` and ``body_len`` keep the raw bytes and the
    length the body declared. ``headers`` are the ones sent, after ``auth``.
    """

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, data=None, headers=None, auth=None, timeout=None, stream=False):
        if auth is not None:
            headers = auth(SimpleNamespace(headers=dict(headers))).headers
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


def blanked(record):
    """``record`` without its run id, timestamp, timings and call latencies."""
    journal = [dataclasses.replace(entry, latency_s=0.0) for entry in record.backend_journal]
    return dataclasses.replace(record, run_id="", created_at="", timings={}, backend_journal=journal)


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

    def test_a_run_whose_graph_answers_are_null_fails_its_build(self, tmp_path):
        # ``content: null`` reads as "", which gives no tuple lines
        llm, session = backend([FakeResponse(payload=chat_payload(None))])
        backends = motorcycle_backends(tmp_path / "images")
        backends.llm = llm
        record = run_single(MOTORCYCLE_PROMPT, PipelineConfig(backends=backends, width=64, height=64))
        assert (record.status, record.failed_stage, record.error_kind) == ("failed", "build_dsg", "stage_exhausted")
        assert record.error.endswith("stage 'tuples' still invalid after 3 attempts: no tuple lines")
        assert len(session.calls) == 3
        assert [(e.op, e.ok) for e in record.backend_journal] == [("complete", True)] * 3 + [
            ("generate_image", True)
        ]

    def test_bearer_token_sent_and_never_journaled(self, journal):
        be, session = backend(
            [FakeResponse(payload=chat_payload("ok"))], auth_token="top-secret"
        )
        be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert session.calls[0]["headers"]["Authorization"] == "Bearer top-secret"
        assert "top-secret" not in json.dumps([vars(call) for call in journal.records()])

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

    @pytest.mark.parametrize("value", ["inf", "1e400", "1.5", "-1", "Wed, 21 Oct 2015 07:28:00 GMT"])
    def test_a_retry_after_that_is_not_delay_seconds_counts_as_absent(self, value):
        be, session = backend(
            [
                FakeResponse(status_code=429, headers={"Retry-After": value}),
                FakeResponse(payload=chat_payload("ok")),
            ],
            max_retries=1,
        )
        assert be.complete(TextGenRequest(preamble="", exemplars=(), input="x")) == "ok"
        assert len(session.calls) == 2

    def test_retry_after_delay_seconds_is_kept(self):
        be, _ = backend([FakeResponse(status_code=429, headers={"Retry-After": " 7 "})], max_retries=0)
        with pytest.raises(RateLimited) as exc:
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert exc.value.retry_after == 7

    def test_server_error_is_retryable_transport(self):
        be, session = backend([FakeResponse(status_code=503)], max_retries=2)
        with pytest.raises(TransportError):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert len(session.calls) == 3  # max_retries + 1 attempts

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_a_client_error_fails_on_its_first_request(self, status):
        be, session = backend([FakeResponse(status_code=status)], max_retries=2)
        with pytest.raises(TransportError) as exc:
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert len(session.calls) == 1
        assert (exc.value.status, exc.value.retryable, _error_kind(exc.value)) == (status, False, "backend")

    @pytest.mark.parametrize("status", [408, 425])
    def test_a_request_timeout_or_too_early_is_retried(self, status):
        be, session = backend([FakeResponse(status_code=status), FakeResponse(payload=chat_payload("ok"))])
        assert be.complete(TextGenRequest(preamble="", exemplars=(), input="x")) == "ok"
        assert len(session.calls) == 2

    def test_connection_error_maps_to_transport(self):
        be, session = backend([requests.ConnectionError("refused")], max_retries=1)
        with pytest.raises(TransportError):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert len(session.calls) == 2

    def test_a_body_read_that_fails_is_a_retryable_transport_error(self):
        class BrokenBody(FakeResponse):
            def iter_content(self, chunk_size=None):
                raise requests.exceptions.ChunkedEncodingError("connection broken mid-body")

        be, session = backend([BrokenBody(payload=chat_payload("ok"))], max_retries=1)
        with pytest.raises(TransportError) as exc:
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert exc.value.retryable and "connection broken mid-body" in str(exc.value)
        assert len(session.calls) == 2

    def test_timeout_maps_to_backend_timeout(self):
        be, _ = backend([requests.Timeout("slow")], max_retries=0)
        with pytest.raises(BackendTimeout):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))

    def test_malformed_body_is_transport_error(self):
        be, _ = backend([FakeResponse(payload={"nope": []})], max_retries=0)
        with pytest.raises(TransportError):
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b'{"choices": [{"message": {"content": "caf\xe9"}}]}',  # Latin-1, not UTF-8
            b"\xef\xbb\xbf" + json.dumps(chat_payload("ok")).encode(),
            json.dumps(chat_payload("ok")).encode("utf-16"),
            json.dumps(chat_payload("ok")).encode("utf-32-le"),
        ],
        ids=["not-json", "not-utf-8", "utf-8-bom", "utf-16", "utf-32-le"],
    )
    def test_a_body_is_decoded_as_json_loads_decodes_bytes(self, body):
        be, _ = backend([FakeResponse(body=body)], max_retries=0)
        req = TextGenRequest(preamble="", exemplars=(), input="x")
        try:
            expected = json.loads(body)["choices"][0]["message"]["content"]
        except ValueError:
            with pytest.raises(TransportError, match="^/chat/completions returned non-JSON body$"):
                be.complete(req)
        else:
            assert be.complete(req) == expected


class TestRetryAfterCap:
    """A Retry-After longer than the backend's timeout fails the call at once."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        waits = []
        monkeypatch.setattr(backends_base, "time", SimpleNamespace(monotonic=time.monotonic, sleep=waits.append))
        return waits

    @staticmethod
    def rate_limited_then_ok(value, **cfg):
        return backend(
            [
                FakeResponse(status_code=429, headers={"Retry-After": value}),
                FakeResponse(payload=chat_payload("ok")),
            ],
            max_retries=1,
            **cfg,
        )

    @pytest.mark.parametrize("value, timeout", [("99999999999", 60.0), ("3600", 60.0), ("61", 60.0)])
    def test_a_longer_wait_than_the_timeout_fails_after_one_request(self, sleeps, journal, value, timeout):
        be, session = self.rate_limited_then_ok(value, timeout=timeout)
        with pytest.raises(RateLimited) as exc:
            be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert exc.value.retry_after == int(value)
        assert len(session.calls) == 1
        assert sleeps == []
        [call] = journal.records()
        assert (call.ok, call.attempts) == (False, 1)
        assert call.error.startswith("RateLimited: ")

    @pytest.mark.parametrize("value", ["1", "60"])
    def test_a_wait_within_the_timeout_is_waited_out_and_retried(self, sleeps, value):
        be, session = self.rate_limited_then_ok(value, timeout=60.0)
        assert be.complete(TextGenRequest(preamble="", exemplars=(), input="x")) == "ok"
        assert len(session.calls) == 2
        assert sleeps == [int(value)]

    def test_a_run_whose_generate_is_refused_that_long_fails_as_backend(self, tmp_path, sleeps):
        t2i, session = backend(
            [
                FakeResponse(status_code=429, headers={"Retry-After": "99999999999"}),
                FakeResponse(payload={"data": [{"b64_json": base64.b64encode(PNG_WHITE).decode()}]}),
            ],
            image_dir=tmp_path / "images",
            max_retries=1,
        )
        cfg = PipelineConfig(
            backends=Backends(llm=MockBackend(name="llm"), vqa=MockBackend(name="vqa"), t2i=t2i),
            width=64,
            height=64,
        )
        record = run_single(MOTORCYCLE_PROMPT, cfg, graph=motorcycle_graph())
        assert (record.status, record.failed_stage, record.error_kind) == ("failed", "generate", "backend")
        assert record.error.startswith("RateLimited: ")
        assert len(session.calls) == 1
        assert sleeps == []


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

    def test_a_cold_level_that_fans_out_reads_and_encodes_the_image_once(self, tmp_path, monkeypatch, journal):
        # A fresh backend sends the first level of an evaluation of a file
        # image from pool threads at once; they share one encoding.
        roots = 6
        p = tmp_path / "img.png"
        p.write_bytes(PNG_WHITE)
        ref = ImageRef.from_file(p)
        reads, encodes = counting(monkeypatch, ImageRef, "read_bytes"), counting(monkeypatch, base64, "b64encode")
        barrier = threading.Barrier(roots)

        class GatedSession(StubSession):
            def post(self, *args, **kwargs):
                barrier.wait(timeout=5)  # asked one at a time, the questions break the barrier
                return super().post(*args, **kwargs)

        session = GatedSession([FakeResponse(payload=chat_payload("yes"))])
        be = HttpBackend(BackendConfig(endpoint="http://models.test/v1", model="m"), session=session)
        report = evaluate_image(ref, chain_graph("p", roots, set()), be)
        assert report.score == 1.0 and len(session.calls) == len(journal) == roots
        assert (reads(), encodes()) == (1, 1)

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

    def test_a_generate_parses_its_response_with_at_most_two_copies_alive(self, tmp_path):
        # The body bytes and the text, then the text and the parsed b64_json:
        # the bytes and the parsed document are dropped as soon as they are
        # read, and the previous image's copy before the request goes out.
        class Received(FakeResponse):
            """A body read off the wire: each read makes a fresh copy."""

            def iter_content(self, chunk_size=None):
                yield bytes(memoryview(self.content))

        texts = [
            base64.b64encode(b"\x89PNG\r\n\x1a\n" + random.Random(seed).randbytes((1 << 20) - 8)).decode()
            for seed in (1, 2)
        ]
        be, _ = backend([Received(payload={"data": [{"b64_json": text}]}) for text in texts], image_dir=tmp_path)
        req = ImageGenRequest(prompt="a fox", width=64, height=64)
        tracemalloc.start()
        try:
            be.generate_image(req)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            be.generate_image(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.5 * len(texts[1])

    def test_a_generate_drops_the_copy_that_earlier_pooled_work_holds(self, tmp_path):
        # As a run's graph build, submitted before its first generate, holds
        # the slot of the image that the context generated before.
        texts = [base64.b64encode(png).decode() for png in (PNG_BLACK, PNG_WHITE)]
        be, _ = backend([FakeResponse(payload={"data": [{"b64_json": text}]}) for text in texts], image_dir=tmp_path)
        be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
        generated = threading.Event()

        def held_copy():
            assert generated.wait(timeout=10)
            return http._image_slot.get().b64

        task = reflection.submit(held_copy)
        be.generate_image(ImageGenRequest(prompt="a cat", width=64, height=64))
        generated.set()
        assert task.result() == b""

    def test_a_question_about_an_earlier_image_rereads_its_file(self, tmp_path, journal, monkeypatch):
        texts = {"a fox": base64.b64encode(PNG_BLACK).decode(), "a cat": base64.b64encode(PNG_WHITE).decode()}
        cached_in_flight = []

        class ByPromptSession(StubSession):
            def post(self, url, **kwargs):
                super().post(url, **kwargs)
                if url.endswith("/images/generations"):
                    cached_in_flight.append(bool(http._image_slot.get().b64))
                    return FakeResponse(payload={"data": [{"b64_json": texts[kwargs["json"]["prompt"]]}]})
                return FakeResponse(payload=chat_payload("yes"))

        session = ByPromptSession([None])
        config = BackendConfig(endpoint="http://models.test/v1", model="m")
        be = HttpBackend(config, image_dir=tmp_path, session=session)
        first = be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
        question = VqaRequest(image=first, question="Q?")
        assert be.answer_binary(question) is True
        be.generate_image(ImageGenRequest(prompt="a cat", width=64, height=64))
        reads = counting(monkeypatch, ImageRef, "read_bytes")
        assert be.answer_binary(question) is True
        assert reads() == 1 and cached_in_flight == [False, False]
        urls = [c["json"]["messages"][0]["content"][0]["image_url"]["url"] for c in session.calls if "chat" in c["url"]]
        assert urls == ["data:image/png;base64," + texts["a fox"]] * 2
        asked = [dataclasses.replace(r, latency_s=0.0) for r in journal.records() if r.op == "answer_binary"]
        assert len(asked) == 2 and asked[0] == asked[1]

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

    @pytest.mark.parametrize(
        "image", [PNG_BLACK, PNG_BLACK + b"\x00", PNG_BLACK + b"\x00\x00"], ids=["groups", "tail-1", "tail-2"]
    )
    def test_the_services_canonical_text_is_sent_without_encoding_the_image(self, tmp_path, monkeypatch, image):
        text = base64.b64encode(image).decode()
        be, session = backend(
            [FakeResponse(payload={"data": [{"b64_json": text}]}), FakeResponse(payload=chat_payload("yes"))],
            image_dir=tmp_path,
        )
        encoded, b64encode = [], base64.b64encode
        monkeypatch.setattr(base64, "b64encode", lambda s, *a: encoded.append(s) or b64encode(s, *a))
        reads = counting(monkeypatch, ImageRef, "read_bytes")
        ref = be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
        assert be.answer_binary(VqaRequest(image=ref, question="Q?")) is True
        # at most the last partial group is re-encoded, to check it
        assert all(len(data) < 3 for data in encoded) and reads() == 0
        url = session.calls[1]["json"]["messages"][0]["content"][0]["image_url"]["url"]
        assert url == "data:image/png;base64," + text

    @pytest.mark.parametrize(
        "text, image",
        [("QR==", b"A"), ("QUJD\nREVG", b"ABCDEF"), ("QUI=\n", b"AB"), ("QUJDRA==junk", b"ABCD")],
    )
    def test_a_text_that_is_not_canonical_is_sent_as_the_images_encoding(self, tmp_path, text, image):
        be, session = backend(
            [FakeResponse(payload={"data": [{"b64_json": text}]}), FakeResponse(payload=chat_payload("yes"))],
            image_dir=tmp_path,
        )
        ref = be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
        assert ref.read_bytes() == image
        be.answer_binary(VqaRequest(image=ref, question="Q?"))
        url = session.calls[1]["json"]["messages"][0]["content"][0]["image_url"]["url"]
        assert url == "data:image/png;base64," + base64.b64encode(image).decode()

    @given(st.data())
    def test_every_lenient_rendering_is_sent_as_the_images_encoding(self, data):
        image = data.draw(st.binary(min_size=1, max_size=40), label="image")
        text = lenient_rendering(data, image)
        assert base64.b64decode(text) == image
        session = StubSession(
            [FakeResponse(payload={"data": [{"b64_json": text}]}), FakeResponse(payload=chat_payload("yes"))]
        )
        config = BackendConfig(endpoint="http://models.test/v1", model="m")
        with tempfile.TemporaryDirectory() as images:
            be = HttpBackend(config, image_dir=images, session=session)
            ref = be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
            be.answer_binary(VqaRequest(image=ref, question="Q?"))
        url = session.calls[1]["json"]["messages"][0]["content"][0]["image_url"]["url"]
        assert url == f"data:{ref.media_type};base64," + base64.b64encode(image).decode()

    def test_concurrent_generates_each_send_their_own_image(self, tmp_path, monkeypatch):
        # Thread a's generate hands its text over only after thread b's whole
        # generate has returned, so a handover that one thread could overwrite
        # for another would give a the wrong text.
        images = {"a": PNG_BLACK, "b": PNG_WHITE}
        b_generated = threading.Event()
        write = backends_base.write_file_atomic

        def gated_write(path, data):
            if data == images["a"]:
                assert b_generated.wait(timeout=10)
            write(path, data)

        class ByPromptSession(StubSession):
            def post(self, url, **kwargs):
                super().post(url, **kwargs)
                if url.endswith("/images/generations"):
                    text = base64.b64encode(images[kwargs["json"]["prompt"]]).decode()
                    return FakeResponse(payload={"data": [{"b64_json": text}]})
                return FakeResponse(payload=chat_payload("yes"))

        monkeypatch.setattr(backends_base, "write_file_atomic", gated_write)
        session = ByPromptSession([None])
        config = BackendConfig(endpoint="http://models.test/v1", model="m")
        be = HttpBackend(config, image_dir=tmp_path, session=session)
        errors = []

        def generate_and_ask(name):
            try:
                ref = be.generate_image(ImageGenRequest(prompt=name, width=64, height=64))
                if name == "b":
                    b_generated.set()
                be.answer_binary(VqaRequest(image=ref, question=name))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                b_generated.set()

        threads = [threading.Thread(target=generate_and_ask, args=(name,)) for name in images]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
        assert errors == []
        questions = [c["json"]["messages"][0]["content"] for c in session.calls if "chat" in c["url"]]
        sent = {question[1]["text"]: question[0]["image_url"]["url"] for question in questions}
        assert sent == {name: "data:image/png;base64," + base64.b64encode(images[name]).decode() for name in images}

    def test_batched_runs_each_send_their_own_image_without_reading_it_back(self, tmp_path, monkeypatch):
        # Each request takes a few ms, so the four runs' generates and
        # questions interleave. A VQA reply names the digest of the image it
        # was sent, which the journal's response digest keeps.
        prompts = [f"{MOTORCYCLE_PROMPT} #{i}" for i in range(8)]

        class ImageSession:
            def post(self, url, **kwargs):
                time.sleep(0.003)
                if url.endswith("/images/generations"):
                    image = b"\x89PNG\r\n\x1a\n" + kwargs["json"]["prompt"].encode()
                    return FakeResponse(payload={"data": [{"b64_json": base64.b64encode(image).decode()}]})
                content = _json.loads(b"".join(kwargs["data"]))["messages"][0]["content"]
                image = base64.b64decode(content[0]["image_url"]["url"].partition(",")[2])
                # the fence is missing from every image of a user prompt
                fence = content[1]["text"] == "Is there a fence?" and image[8:].decode() in prompts
                return FakeResponse(payload=chat_payload(f"{'no' if fence else 'yes'} {sha256_hex(image)}"))

        config = BackendConfig(endpoint="http://models.test/v1", model="m")
        vqa = HttpBackend(config, session=ImageSession())
        t2i = HttpBackend(config, image_dir=tmp_path, session=ImageSession())
        llm = motorcycle_backends(tmp_path / "unused").llm
        cfg = PipelineConfig(backends=Backends(llm=llm, vqa=vqa, t2i=t2i), width=64, height=64, parallelism=4)
        serial = run_batch(prompts, dataclasses.replace(cfg, parallelism=1))
        reads = counting(monkeypatch, ImageRef, "read_bytes")
        batched = run_batch(prompts, cfg)
        assert reads() == 0
        for record in batched:
            assert record.status == "completed" and len(record.image_refs) == 2
            sent = {sha256_hex(f"{a} {ref.digest}") for _, ref, _ in record.image_refs for a in ("yes", "no")}
            asked = [e.response_digest for e in record.backend_journal if e.op == "answer_binary"]
            assert len(asked) == 3 + 5 and set(asked) <= sent  # round 1 prunes two
        assert list(map(blanked, batched)) == list(map(blanked, serial))

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_an_empty_image_is_a_retryable_transport_error(self, tmp_path, journal, max_retries):
        be, session = backend(
            [
                FakeResponse(payload={"data": [{"b64_json": ""}]}),
                FakeResponse(payload={"data": [{"b64_json": base64.b64encode(PNG_WHITE).decode()}]}),
            ],
            image_dir=tmp_path,
            max_retries=max_retries,
        )
        req = ImageGenRequest(prompt="a fox", width=64, height=64)
        if max_retries:
            assert be.generate_image(req).read_bytes() == PNG_WHITE
        else:
            with pytest.raises(TransportError, match="^image payload is empty$"):
                be.generate_image(req)
            assert list(tmp_path.iterdir()) == []
        assert len(session.calls) == journal.records()[0].attempts == max_retries + 1


_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def lenient_rendering(data, image: bytes) -> str:
    """A base64 text that a lenient decode reads as ``image``: its canonical
    encoding, perhaps with non-zero pad bits in the last partial group and
    with characters outside the alphabet inserted."""
    text = base64.b64encode(image).decode()
    pad = text.count("=")
    if pad and data.draw(st.booleans(), label="set pad bits"):
        last = len(text) - pad - 1  # holds 2 (one '=') or 4 (two) pad bits
        bits = data.draw(st.integers(1, (1 << (2 * pad)) - 1), label="pad bits")
        text = text[:last] + _ALPHABET[_ALPHABET.index(text[last]) | bits] + text[last + 1:]
    for _ in range(data.draw(st.integers(0, 3), label="insertions")):
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(st.sampled_from(["\n", "\r\n", " ", "\t", "!", "-", "_"])) + text[at:]
    return text


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

    def test_a_nan_in_the_response_is_a_transport_error(self):
        body = b'{"data": [{"embedding": [NaN, 1]}]}'  # json.loads reads NaN
        be, _ = backend([FakeResponse(body=body)], supports_embedding=True, max_retries=0)
        with pytest.raises(TransportError, match="non-finite"):
            be.embed("a fox")

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


@contextmanager
def loopback(handler):
    """Serve ``handler`` on 127.0.0.1; yields the server's endpoint URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1"
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    gc.collect()  # an unclosed socket warns when it is collected
    assert not serving.is_alive()


class TestLoopbackServer:
    """The backend over a real socket, to a keep-alive HTTP/1.1 server on 127.0.0.1."""

    @pytest.mark.filterwarnings("error")
    def test_streamed_bodies_go_back_to_the_connection_pool(self, tmp_path):
        roots = 3
        image = b"\x89PNG\r\n\x1a\n" + random.Random(0).randbytes((1 << 20) - 8)
        image_b64 = base64.b64encode(image).decode()
        lock, connections, paths = threading.Lock(), [0], []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):  # once per connection
                super().setup()
                with lock:
                    connections[0] += 1

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    paths.append(self.path)
                if self.path.endswith("/images/generations"):
                    doc = {"data": [{"b64_json": image_b64}]}
                else:
                    content = payload["messages"][-1]["content"]
                    if isinstance(content, list):  # a question: is it about the generated image?
                        sent = content[0]["image_url"]["url"] == "data:image/png;base64," + image_b64
                        doc = chat_payload("yes" if sent else "no")
                    else:
                        doc = chat_payload(f"echo {content}")
                body = json.dumps(doc).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with loopback(Handler) as endpoint, requests.Session() as session:
            be = HttpBackend(
                BackendConfig(endpoint=endpoint, model="m", timeout=10), image_dir=tmp_path, session=session
            )
            ref = be.generate_image(ImageGenRequest(prompt="a fox", width=64, height=64))
            # a backend that has never answered asks a level's questions together
            report = evaluate_image(ref, chain_graph("p", roots, set()), be)
            text = be.complete(TextGenRequest(preamble="", exemplars=(), input="x"))
        assert ref.read_bytes() == image and report.score == 1.0 and text == "echo x"
        assert sorted(paths) == ["/v1/chat/completions"] * (roots + 1) + ["/v1/images/generations"]
        # No more connections than requests in flight at once: a body left
        # unread would keep its connection out of the pool, and each later
        # request would open another.
        assert connections[0] <= roots < POOL_WORKERS

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "token, sent",
        [("top-secret", "Bearer top-secret"), ("", "Basic " + base64.b64encode(b"alice:secret").decode())],
        ids=["token", "no-token"],
    )
    def test_a_configured_token_wins_over_netrc(self, tmp_path, monkeypatch, token, sent):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login alice password secret\n", encoding="ascii")
        monkeypatch.setenv("NETRC", str(netrc))
        image = tmp_path / "img.png"
        image.write_bytes(PNG_WHITE)
        received = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                received.append((self.headers["Authorization"], payload["messages"][0]["content"][1]["text"]))
                body = json.dumps(chat_payload("yes")).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with loopback(Handler) as endpoint, requests.Session() as session:
            config = BackendConfig(endpoint=endpoint, model="m", auth_token=token, timeout=10)
            be = HttpBackend(config, session=session)
            # a streamed image body, whose length requests re-reads after auth
            assert be.answer_binary(VqaRequest(image=ImageRef.from_file(image), question="Q?")) is True
        assert received == [(sent, "Q?")]


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


# Loads the package the way the CLI and bench do, then a config; prints
# whether the HTTP client stack was imported along the way.
_IMPORT_PROBE = """
import sys
import promptrefine, promptrefine.bench, promptrefine.cli
from promptrefine.config import load_config
load_config(sys.argv[1])
print("requests" in sys.modules)
"""


@pytest.mark.parametrize("http_role", [None, "llm"])
def test_requests_loads_only_with_an_http_backend(tmp_path, http_role):
    # A fresh interpreter: this test process has imported requests itself.
    sections = {role: {"type": "mock"} for role in ("llm", "vqa", "t2i")}
    if http_role is not None:
        sections[http_role] = {"type": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m"}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"backends": sections}), encoding="utf-8")
    src = str(Path(promptrefine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _IMPORT_PROBE, str(config)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(http_role is not None)]
