"""Deterministic scripted backend for tests and offline runs.

Responses are keyed by an exact request digest (``sha256:<hex>``) or by a glob
over the request's primary text field (completion input, VQA question, image
prompt, embedding payload). Entries are tried in insertion order; a list of
responses is consumed call by call (the last one repeats). A response may be a
``BackendError`` instance: each time it comes up, a new error of its type and
attributes (``status``, ``retry_after``) is raised at the transport layer and
is therefore subject to the normal retry policy.

A ``responses`` list belongs to the backend, not to a run: every run that uses
the backend shares its cursor. Under ``pipeline.run_batch`` concurrent runs
consume one list in the order their requests arrive, so which run gets which
response changes from batch to batch. The questions of one DAG level are
asked concurrently too unless the backend's last answer took under 1 ms (see
``reflection.evaluate_image``), so a fresh mock's first level always is, and
so are a bench item's embeds. A list under a glob that matches several of
them is consumed in arrival order, not in question id order. To keep answers
fixed, script each request by its exact text (or digest), and use a list only
where one caller sends that request one call after another.
"""

from __future__ import annotations

import base64
import threading
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, List, Optional, Union

from promptrefine.backends.base import (
    AuthFailure,
    Backend,
    BackendConfig,
    BackendError,
    BackendTimeout,
    ContentRejected,
    ImageGenRequest,
    ImageRef,
    MockMiss,
    RateLimited,
    TextGenRequest,
    TransportError,
    VqaRequest,
    embed_digest,
    request_digest,
)
from promptrefine.scene_graph import Field, Schema, SchemaViolation, loads, read

_ERROR_KINDS = {
    "transport": lambda: TransportError("scripted transport failure"),
    "timeout": lambda: BackendTimeout("scripted timeout"),
    "rate_limited": lambda: RateLimited("scripted rate limit"),
    "auth": lambda: AuthFailure("scripted auth failure"),
    "content_rejected": lambda: ContentRejected("scripted content rejection"),
}


@dataclass
class _Entry:
    match: str
    responses: List[Any]
    preamble: Optional[str] = None
    image_digest: Optional[str] = None
    cursor: int = 0

    def matches(self, digest: str, primary: str, preamble: str = "", image_digest: str = "") -> bool:
        if self.match.startswith("sha256:"):
            if self.match[len("sha256:") :] != digest:
                return False
        elif not fnmatchcase(primary, self.match):
            return False
        if self.preamble is not None and not fnmatchcase(preamble, self.preamble):
            return False
        if self.image_digest is not None and self.image_digest != image_digest:
            return False
        return True

    def next_response(self):
        value = self.responses[min(self.cursor, len(self.responses) - 1)]
        self.cursor += 1
        if isinstance(value, BackendError):
            # A new instance per raise, so that no traceback grows or is shared
            # across threads; __init__ is skipped, as the args are its output.
            error = type(value).__new__(type(value), *value.args)
            error.__dict__.update(value.__dict__)
            raise error
        return value


def _as_list(response) -> List[Any]:
    if isinstance(response, list) and not all(isinstance(v, (int, float)) for v in response):
        return list(response)
    return [response]


class MockBackend(Backend):
    def __init__(self, config: Optional[BackendConfig] = None, image_dir=None, name: str = "mock"):
        if config is None:
            config = BackendConfig(model=name, backoff_base=0.0)
        super().__init__(config, image_dir=image_dir)
        self._text: List[_Entry] = []
        self._vqa: List[_Entry] = []
        self._image: List[_Entry] = []
        self._embed: List[_Entry] = []
        self._script_lock = threading.Lock()

    # -- scripting ---------------------------------------------------------
    def script_text(self, match: str, response, preamble: Optional[str] = None) -> "MockBackend":
        self._text.append(_Entry(match, _as_list(response), preamble=preamble))
        return self

    def script_vqa(self, match: str, response, image_digest: Optional[str] = None) -> "MockBackend":
        self._vqa.append(_Entry(match, _as_list(response), image_digest=image_digest))
        return self

    def script_image(self, match: str, response) -> "MockBackend":
        """Script image bytes, or base64 text (decoded here, see
        ``_image_bytes``); an image of no bytes is a ValueError."""
        self._image.append(_Entry(match, [_image_bytes(v) for v in _as_list(response)]))
        return self

    def script_embed(self, match: str, response) -> "MockBackend":
        self._embed.append(_Entry(match, _as_list(response)))
        if not self.config.supports_embedding:
            self.config = replace(self.config, supports_embedding=True)
        return self

    # -- transport hooks -----------------------------------------------------
    def _lookup(self, entries: List[_Entry], op: str, digest: str, primary: str, **kw):
        with self._script_lock:
            for entry in entries:
                if entry.matches(digest, primary, **kw):
                    return entry.next_response()
        raise MockMiss(op, digest, hint=primary[:80])

    def _send_text(self, req: TextGenRequest) -> str:
        value = self._lookup(self._text, "complete", request_digest(req), req.input, preamble=req.preamble)
        if not isinstance(value, str):
            raise MockMiss("complete", request_digest(req), hint="scripted value is not text")
        return value

    def _send_vqa(self, req: VqaRequest) -> str:
        value = self._lookup(
            self._vqa,
            "answer_binary",
            request_digest(req),
            req.question,
            image_digest=req.image.locator() or "",
        )
        if not isinstance(value, str):
            raise MockMiss("answer_binary", request_digest(req), hint="scripted value is not text")
        return value

    def _send_image(self, req: ImageGenRequest) -> bytes:
        value = self._lookup(self._image, "generate_image", request_digest(req), req.prompt)
        if not isinstance(value, bytes):
            raise MockMiss("generate_image", request_digest(req), hint="scripted value is not image bytes")
        return value

    def _send_embed(self, payload: Union[str, ImageRef]) -> List[float]:
        primary = payload if isinstance(payload, str) else payload.locator()
        digest = embed_digest(payload)
        value = self._lookup(self._embed, "embed", digest, primary)
        if not isinstance(value, list):
            raise MockMiss("embed", digest, hint="scripted value is not a vector")
        return [float(v) for v in value]

    # -- script files -------------------------------------------------------
    @classmethod
    def from_file(
        cls, path: Union[str, Path], config: Optional[BackendConfig] = None, image_dir=None
    ) -> "MockBackend":
        """Load a JSON script document (see tests/data/mock_script.json). A
        malformed one raises SchemaViolation naming the field."""
        script = read(loads(Path(path).read_text(encoding="utf-8")), _SCRIPT)
        backend = cls(config, image_dir=image_dir)
        for e in script["text"]:
            backend.script_text(e["match"], e["responses"], preamble=e["preamble"])
        for e in script["vqa"]:
            backend.script_vqa(e["match"], e["responses"], image_digest=e["image"])
        for e in script["image"]:
            backend.script_image(e["match"], e["responses"])
        for e in script["embed"]:
            backend.script_embed(e["match"], e["responses"])
        return backend


def _image_bytes(value):
    """Scripted image bytes, or base64 text, in which whitespace is skipped
    and any other character outside the alphabet is refused. An image has at
    least one byte."""
    if isinstance(value, str):
        value = base64.b64decode("".join(value.split()), validate=True)
    if value == b"":
        raise ValueError("scripted image has no bytes")
    return value


def _error(error: str) -> BackendError:
    if error not in _ERROR_KINDS:
        raise SchemaViolation("error", f"unknown scripted error kind {error!r}")
    return _ERROR_KINDS[error]()


def _image(value) -> bytes:
    """An image response: base64 text, bare or as ``{"b64": text}``."""
    if isinstance(value, dict):
        value = read(value, _B64)["b64"]
    return _image_bytes(read(value, str))


def _entry(match: str, response=None, responses=None, **extra) -> dict:
    """A script entry, with its one ``response`` or its sequence as ``responses``."""
    if responses is None:
        if response is None:
            raise SchemaViolation("response", "missing field")
        responses = [response]
    if not responses:
        raise SchemaViolation("responses", "expected at least one response")
    return dict(match=match, responses=responses, **extra)


def _entries(kind, *extra: Field) -> list:
    """The kind of a script section: entries whose responses are ``kind``
    values or ``{"error": name}`` objects."""

    def response(value):
        if isinstance(value, dict) and "error" in value:
            return read(value, _ERROR)
        return read(value, kind)

    fields = (Field("match", str), Field("response", response, None), Field("responses", [response], None))
    return [Schema(_entry, *fields, *extra)]


_ERROR = Schema(_error, Field("error", str))
_B64 = Schema(dict, Field("b64", str))
_SCRIPT = Schema(
    dict,
    Field("text", _entries(str, Field("preamble", str, None)), []),
    Field("vqa", _entries(str, Field("image", str, None)), []),
    Field("image", _entries(_image), []),
    Field("embed", _entries([float]), []),
)
