"""Deterministic scripted backend for tests and offline runs.

Responses are keyed by an exact request digest (``sha256:<hex>``) or by a glob
over the request's primary text field (completion input, VQA question, image
prompt, embedding payload). Entries are tried in insertion order; a list of
responses is consumed call by call (the last one repeats). A response may be a
``BackendError`` instance: each time it comes up, a new error of its type and
attributes (``status``, ``retry_after``) is raised at the transport layer and
is therefore subject to the normal retry policy.

Each operation has its own entries (see ``_OPS``): ``script_text``,
``script_vqa``, ``script_image`` and ``script_embed`` add them, as do a script
file's ``text``, ``vqa``, ``image`` and ``embed`` sections. A text entry may
also ask for a preamble glob, and a VQA entry for the digest of the image in
question. A scripted value must have its operation's type (text, image bytes
or a vector); a value of another type is a MockMiss, as is a request that no
entry matches.

A ``responses`` list belongs to the backend, not to a run: every run that uses
the backend shares its cursor. Under ``pipeline.run_batch`` concurrent runs
consume one list in the order their requests arrive, so which run gets which
response changes from batch to batch. An evaluation asks each VQA question
as soon as its parents are answered yes; unless the backend's last answer
took under 1 ms, the ready questions are asked concurrently on the
evaluating thread's executor rather than one at a time on that thread (see
``reflection.evaluate_image``). A fresh mock has no last answer, so its
first evaluation is concurrent, and so are a bench item's embeds. Under
such fan-out a list is consumed in schedule order: a list under a glob that
matches several of them goes to whichever request reaches the backend first,
not to the first in (level, id) order, and a scheduler that reorders pooled
tasks hands its entries out differently. To keep answers fixed, script each
request by its exact text (or digest), and use a list only where one caller
sends that request one call after another.
"""

from __future__ import annotations

import base64
import threading
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Union

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
    image: Optional[str] = None  # the digest of the image a VQA request must show
    cursor: int = 0

    def matches(self, digest: str, primary: str, preamble: str = "", image: str = "") -> bool:
        if self.match.startswith("sha256:"):
            if self.match[len("sha256:") :] != digest:
                return False
        elif not fnmatchcase(primary, self.match):
            return False
        if self.preamble is not None and not fnmatchcase(preamble, self.preamble):
            return False
        if self.image is not None and self.image != image:
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


class _Op(NamedTuple):
    section: str  # its script-file section
    type: type  # what its scripted values must be
    hint: str  # the MockMiss hint for a value of another type


_OPS = {
    "complete": _Op("text", str, "text"),
    "answer_binary": _Op("vqa", str, "text"),
    "generate_image": _Op("image", bytes, "image bytes"),
    "embed": _Op("embed", list, "a vector"),
}


class MockBackend(Backend):
    def __init__(self, config: Optional[BackendConfig] = None, image_dir=None, name: str = "mock"):
        if config is None:
            config = BackendConfig(model=name, backoff_base=0.0)
        super().__init__(config, image_dir=image_dir)
        self._entries: Dict[str, List[_Entry]] = {op: [] for op in _OPS}  # op -> its entries in order
        self._script_lock = threading.Lock()

    # -- scripting ---------------------------------------------------------
    def _script(self, op: str, match: str, responses, **filters) -> "MockBackend":
        self._entries[op].append(_Entry(match, _as_list(responses), **filters))
        if op == "embed" and not self.config.supports_embedding:
            self.config = replace(self.config, supports_embedding=True)
        return self

    def script_text(self, match: str, response, preamble: Optional[str] = None) -> "MockBackend":
        return self._script("complete", match, response, preamble=preamble)

    def script_vqa(self, match: str, response, image_digest: Optional[str] = None) -> "MockBackend":
        return self._script("answer_binary", match, response, image=image_digest)

    def script_image(self, match: str, response) -> "MockBackend":
        """Script image bytes, or base64 text (decoded here, see
        ``_image_bytes``); an image of no bytes is a ValueError."""
        return self._script("generate_image", match, [_image_bytes(v) for v in _as_list(response)])

    def script_embed(self, match: str, response) -> "MockBackend":
        return self._script("embed", match, response)

    # -- transport hooks -----------------------------------------------------
    def _answer(self, op: str, digest: str, primary: str, **filters):
        """The next response of the first entry of ``op`` that matches, which
        must be of the op's type; MockMiss if there is none."""
        with self._script_lock:
            for entry in self._entries[op]:
                if entry.matches(digest, primary, **filters):
                    value = entry.next_response()
                    break
            else:
                raise MockMiss(op, digest, hint=primary[:80])
        if not isinstance(value, _OPS[op].type):
            raise MockMiss(op, digest, hint=f"scripted value is not {_OPS[op].hint}")
        return value

    def _send_text(self, req: TextGenRequest) -> str:
        return self._answer("complete", request_digest(req), req.input, preamble=req.preamble)

    def _send_vqa(self, req: VqaRequest) -> str:
        return self._answer("answer_binary", request_digest(req), req.question, image=req.image.locator() or "")

    def _send_image(self, req: ImageGenRequest) -> bytes:
        return self._answer("generate_image", request_digest(req), req.prompt)

    def _send_embed(self, payload: Union[str, ImageRef]) -> List[float]:
        primary = payload if isinstance(payload, str) else payload.locator()
        return [float(v) for v in self._answer("embed", embed_digest(payload), primary)]

    # -- script files -------------------------------------------------------
    @classmethod
    def from_file(
        cls, path: Union[str, Path], config: Optional[BackendConfig] = None, image_dir=None
    ) -> "MockBackend":
        """Load a JSON script document (see tests/data/mock_script.json). A
        malformed one raises SchemaViolation naming the field."""
        script = read(loads(Path(path).read_text(encoding="utf-8")), _SCRIPT)
        backend = cls(config, image_dir=image_dir)
        for op, spec in _OPS.items():
            for entry in script[spec.section]:
                backend._script(op, **entry)
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
