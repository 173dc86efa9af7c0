"""Deterministic scripted backend for tests and offline runs.

Responses are keyed by an exact request digest (``sha256:<hex>``) or by a glob
over the request's primary text field (completion input, VQA question, image
prompt, embedding payload). Entries are tried in insertion order; a list of
responses is consumed call by call (the last one repeats). A response may be a
``BackendError`` instance, which is raised at the transport layer and is
therefore subject to the normal retry policy.

A ``responses`` list belongs to the backend, not to a run: every run that uses
the backend shares its cursor. Under ``pipeline.run_batch`` concurrent runs
consume one list in the order their requests arrive, so which run gets which
response changes from batch to batch. When VQA fans out (a subclass whose
last answer took 1 ms or more, see ``reflection.evaluate_image``), the
questions of one DAG level are asked concurrently too, as are a bench item's
embeds, and a list under a glob that matches several of them is consumed in
arrival order, not in question id order. To keep answers fixed, script each
request by its exact text (or digest), and use a list only where one caller
sends that request one call after another.
"""

from __future__ import annotations

import base64
import json
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
            raise type(value)(*value.args)
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
        self._image.append(_Entry(match, _as_list(response)))
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
        if isinstance(value, str):
            value = base64.b64decode(value)
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
        """Load a JSON script document (see tests/data/mock_script.json)."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        backend = cls(config, image_dir=image_dir)
        for item in doc.get("text", []):
            backend.script_text(item["match"], _decode(item, "text"), preamble=item.get("preamble"))
        for item in doc.get("vqa", []):
            backend.script_vqa(item["match"], _decode(item, "vqa"), image_digest=item.get("image"))
        for item in doc.get("image", []):
            backend.script_image(item["match"], _decode(item, "image"))
        for item in doc.get("embed", []):
            backend.script_embed(item["match"], _decode(item, "embed"))
        return backend


def _decode_one(value, kind: str):
    if isinstance(value, dict) and "error" in value:
        try:
            return _ERROR_KINDS[value["error"]]()
        except KeyError:
            raise ValueError(f"unknown scripted error kind {value['error']!r}") from None
    if kind == "image":
        if isinstance(value, dict) and "b64" in value:
            return base64.b64decode(value["b64"])
        if isinstance(value, str):
            return base64.b64decode(value)
        raise ValueError("image responses must be base64 text")
    if kind == "embed":
        if isinstance(value, list):
            return [float(v) for v in value]
        raise ValueError("embed responses must be numeric arrays")
    if not isinstance(value, str):
        raise ValueError(f"{kind} responses must be text")
    return value


def _decode(item: dict, kind: str):
    if "responses" in item:
        return [_decode_one(v, kind) for v in item["responses"]]
    if "response" not in item:
        raise ValueError(f"script entry {item.get('match')!r} has no response")
    return _decode_one(item["response"], kind)
