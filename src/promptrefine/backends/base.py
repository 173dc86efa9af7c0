"""Request/response types, call journal, and the shared backend skeleton.

Transport-specific subclasses implement the ``_send_*`` hooks; this module owns
request validation, retry with exponential backoff, rate limiting, binary
answer extraction, content-addressed image persistence, and journaling.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import math
import os
import re
import tempfile
import threading
import time
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

logger = logging.getLogger(__name__)


class BackendError(Exception):
    """Base class for backend failures."""

    retryable = False


class TransportError(BackendError):
    """A failed exchange. With no status (the connection or the body failed),
    a 408 or 425, or a server error it is retried; any other client error
    would meet the same answer again, so it is not."""

    def __init__(self, message: str, status: Optional[int] = None):
        self.status = status
        self.retryable = status is None or status in (408, 425) or status >= 500
        super().__init__(message if status is None else f"{message} (status {status})")


class RateLimited(BackendError):
    retryable = True

    def __init__(self, message: str = "rate limited", retry_after: Optional[float] = None):
        self.retry_after = retry_after
        super().__init__(message)


class BackendTimeout(BackendError):
    retryable = True


class AuthFailure(BackendError):
    retryable = False


class ContentRejected(BackendError):
    retryable = False


class CapabilityMissing(BackendError):
    retryable = False


class UnparseableAnswer(BackendError):
    retryable = False

    def __init__(self, raw: str):
        self.raw = raw
        super().__init__(f"could not extract a yes/no answer from {raw!r}")


class MockMiss(BackendError):
    retryable = False

    def __init__(self, op: str, digest: str, hint: str = ""):
        self.op = op
        self.digest = digest
        extra = f" ({hint})" if hint else ""
        super().__init__(f"no scripted {op} response for digest {digest}{extra}")


# One encoder for every call: json.dumps with non-default options builds a new
# JSONEncoder each time. encode() keeps no state between calls, so sharing it
# across threads is safe.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def sha256_hex(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# The canonical text of a request is built from fragments, each the exact
# canonical_json of one part, so that the parts a run repeats are encoded once:
# a stage's preamble and exemplars, an image reference. Only strings and
# tuples of strings are cached by value; for them equal values encode equally.
FRAGMENT_CACHE = 64


@functools.lru_cache(maxsize=FRAGMENT_CACHE)
def _cached_json(value: Union[str, Tuple[Tuple[str, str], ...]]) -> str:
    return _CANONICAL.encode(value)


def _number_json(value) -> str:
    """canonical_json of a number: json writes ints and finite floats by their repr."""
    kind = type(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return kind.__repr__(value)
    return _CANONICAL.encode(value)


@dataclass(frozen=True)
class TextGenRequest:
    """A few-shot text completion request."""

    preamble: str
    exemplars: Tuple[Tuple[str, str], ...]
    input: str
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self):
        if not self.input.strip():
            raise ValueError("input must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        exemplars = tuple(tuple(p) for p in self.exemplars)
        if not isinstance(self.preamble, str) or not all(
            len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str) for p in exemplars
        ):
            raise ValueError("preamble must be text and exemplars (input, output) text pairs")
        object.__setattr__(self, "exemplars", exemplars)

    def canonical(self) -> dict:
        return {
            "kind": "text",
            "preamble": self.preamble,
            "exemplars": [list(p) for p in self.exemplars],
            "input": self.input,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }

    def canonical_text(self) -> str:
        """``canonical_json(self.canonical())``; the preamble and exemplars
        are encoded once per distinct value."""
        return "".join((
            '{"exemplars":', _cached_json(self.exemplars),
            ',"input":', _CANONICAL.encode(self.input),
            ',"kind":"text","max_tokens":', _number_json(self.max_tokens),
            ',"preamble":', _cached_json(self.preamble),
            ',"temperature":', _number_json(self.temperature), "}",
        ))


def _sniff_media_type(data: bytes) -> str:
    """The media type that an image's magic bytes name; ``image/png`` if none does."""
    if data.startswith(b"\xff\xd8\xff"):
        return "image/jpeg"
    if data.startswith((b"GIF87a", b"GIF89a")):
        return "image/gif"
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        return "image/webp"
    return "image/png"


_SUFFIXES = {"image/png": ".png", "image/jpeg": ".jpg", "image/gif": ".gif", "image/webp": ".webp"}


def image_suffix(media_type: str) -> str:
    """The file suffix for an image of ``media_type``; ``.bin`` for a type not sniffed here."""
    return _SUFFIXES.get(media_type, ".bin")


@dataclass(frozen=True)
class ImageRef:
    """Reference to an image: either a local file (path + content digest) or a
    remote identifier. Exactly one variant is populated."""

    path: Optional[str] = None
    digest: Optional[str] = None
    remote_id: Optional[str] = None
    media_type: str = "image/png"

    def __post_init__(self):
        local = self.path is not None and self.digest is not None
        remote = self.remote_id is not None
        if local == remote:
            raise ValueError("exactly one of (path+digest) or remote_id must be set")

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ImageRef":
        """A local image; its media type is read from the file's magic bytes
        (PNG, JPEG, GIF, WebP; PNG otherwise)."""
        data = Path(path).read_bytes()
        return cls(path=str(path), digest=sha256_hex(data), media_type=_sniff_media_type(data))

    def read_bytes(self) -> bytes:
        if self.path is None:
            raise ValueError(f"remote image {self.remote_id} has no local bytes")
        return Path(self.path).read_bytes()

    def locator(self) -> str:
        return self.remote_id if self.remote_id is not None else self.digest

    def canonical(self) -> dict:
        return {"kind": "image_ref", "locator": self.locator(), "media_type": self.media_type}

    # Kept in the instance __dict__ on first use, as SceneGraph keeps its
    # indexes: a pure function of the frozen fields, outside equality and repr.
    @cached_property
    def _canonical_text(self) -> str:
        return canonical_json(self.canonical())


@dataclass(frozen=True)
class VqaRequest:
    """One binary visual question about one image."""

    image: ImageRef
    question: str

    def __post_init__(self):
        if not self.question.strip():
            raise ValueError("question must be non-empty")

    def canonical(self) -> dict:
        return {"kind": "vqa", "image": self.image.canonical(), "question": self.question}

    def canonical_text(self) -> str:
        """``canonical_json(self.canonical())``; the image part is encoded once per image."""
        return "".join((
            '{"image":', self.image._canonical_text,
            ',"kind":"vqa","question":', _CANONICAL.encode(self.question), "}",
        ))


@dataclass(frozen=True)
class ImageGenRequest:
    """A text-to-image generation request."""

    prompt: str
    seed: int = 0
    width: int = 1024
    height: int = 1024
    extra: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.prompt.strip():
            raise ValueError("prompt must be non-empty")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be positive")
        object.__setattr__(self, "extra", tuple(sorted(tuple(p) for p in self.extra)))

    def canonical(self) -> dict:
        return {
            "kind": "image_gen",
            "prompt": self.prompt,
            "seed": self.seed,
            "width": self.width,
            "height": self.height,
            "extra": [list(p) for p in self.extra],
        }

    def canonical_text(self) -> str:
        return canonical_json(self.canonical())


def request_digest(req) -> str:
    """Stable digest of a canonicalized request: sha256 of
    ``canonical_json(req.canonical())``, which ``req.canonical_text()`` builds.
    It is kept in the frozen request's instance __dict__, as ImageRef keeps
    its canonical text, so an op and its transport hook hash it once."""
    digest = req.__dict__.get("_digest")
    if digest is None:
        digest = req.__dict__["_digest"] = sha256_hex(req.canonical_text())
    return digest


def embed_digest(payload: Union[str, ImageRef]) -> str:
    """Digest of an embedding request: the text, or the image's locator."""
    key = payload if isinstance(payload, str) else payload.locator()
    return sha256_hex(canonical_json({"kind": "embed", "payload": key}))


# A temp name holds the pid and a per-process count, so no two writers in one
# process share one; O_EXCL refuses a name another process left behind.
_TEMP_NAMES = itertools.count()


def write_file_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in the same directory and
    ``os.replace``, so a reader or a concurrent writer never sees a partial file.
    The file gets the mode ``open()`` would give it under the process umask."""
    while True:
        tmp = os.path.join(path.parent, f".{path.name}.{os.getpid()}.{next(_TEMP_NAMES)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
            break
        except FileExistsError:  # left by a process that had this pid
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = ""
    model: str = ""
    auth_token: str = ""
    timeout: float = 60.0
    max_retries: int = 2
    rate_limit: Optional[float] = None  # requests per second; None = unlimited
    backoff_base: float = 0.5
    embed_dim: Optional[int] = None
    supports_embedding: bool = False

    def __post_init__(self):
        if not 0 < self.timeout < math.inf:  # NaN compares false too
            raise ValueError("timeout must be a finite number > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # not ``<= 0``: NaN compares false to everything
        if self.rate_limit is not None and not self.rate_limit > 0:
            raise ValueError("rate_limit must be > 0; leave it out for no limit")
        if not self.backoff_base >= 0:
            raise ValueError("backoff_base must be >= 0")
        if self.embed_dim is not None and self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")


@dataclass
class CallRecord:
    """Journal entry for one operation invocation that reached the transport.

    Never contains auth material; a response is kept only as its digest.
    """

    op: str
    digest: str
    ok: bool
    attempts: int
    latency_s: float
    model: str = ""
    error: Optional[str] = None
    response_digest: Optional[str] = None

    def summary(self) -> dict:
        """The fields by name, in declared order (``__init__`` sets them so)."""
        return dict(vars(self), latency_s=round(self.latency_s, 6))


class CallJournal:
    """Thread-safe append-only log of backend calls. An entry is a call or a
    slot, a child journal that holds its calls' place: ``records`` reads
    every call in entry order, each slot's where the slot stands."""

    def __init__(self):
        self._entries: List[Union[CallRecord, CallJournal]] = []
        self._lock = threading.Lock()

    def append(self, record: CallRecord) -> None:
        with self._lock:
            self._entries.append(record)

    def slot(self) -> "CallJournal":
        """Append an empty child journal and return it."""
        child = CallJournal()
        with self._lock:
            self._entries.append(child)
        return child

    def records(self) -> List[CallRecord]:
        with self._lock:
            entries = list(self._entries)
        records: List[CallRecord] = []
        for entry in entries:
            records += entry.records() if isinstance(entry, CallJournal) else [entry]
        return records

    def summaries(self) -> List[dict]:
        return [r.summary() for r in self.records()]

    def __len__(self) -> int:
        return len(self.records())


_current_journal: ContextVar[Optional[CallJournal]] = ContextVar("promptrefine_journal", default=None)


def current_journal() -> Optional[CallJournal]:
    """The innermost open ``recording``'s journal, or None outside any."""
    return _current_journal.get()


@contextmanager
def recording(journal: Optional[CallJournal]) -> Iterator[Optional[CallJournal]]:
    """Journal every backend call made in this context to ``journal`` (None
    keeps none). Calls made outside any ``recording`` are not kept; a new
    thread starts outside."""
    token = _current_journal.set(journal)
    try:
        yield journal
    finally:
        _current_journal.reset(token)


class _RateLimiter:
    def __init__(self, rate: Optional[float]):
        self._interval = 1.0 / rate if rate else 0.0
        self._last = 0.0
        self._lock = threading.Lock()

    def wait(self) -> None:
        if not self._interval:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._last + self._interval - now
            if delay > 0:
                time.sleep(delay)
                now = time.monotonic()
            self._last = now


# VQA answers repeat ("yes", "no"), so the digests of short text responses
# are kept; a longer text is hashed each time.
SHORT_RESPONSE = 64


@functools.lru_cache(maxsize=FRAGMENT_CACHE)
def _short_text_digest(text: str) -> str:
    return sha256_hex(text)


_FIRST_WORD = re.compile(r"[A-Za-z]+")
_STRICT_SUFFIX = ' Answer strictly with the single word "yes" or "no".'
MIN_IMAGE_DIM, MAX_IMAGE_DIM = 16, 4096
MAX_BACKOFF_S = 30.0  # the longest wait between two attempts, bar a Retry-After


class Backend:
    """Shared plumbing; subclasses provide the transport hooks.

    One instance may serve any subset of the four capabilities. Instances are
    safe to share across threads and keep no record of their calls: each call
    is journaled to the journal of the innermost open ``recording``, if any.
    They keep only each op's last latency, which ``last_latency_s`` reads.
    """

    def __init__(self, config: BackendConfig, image_dir: Optional[Union[str, Path]] = None):
        self.config = config
        self._image_dir = Path(image_dir) if image_dir else None  # else a temp dir on first image
        self._image_dir_lock = threading.Lock()
        self._limiter = _RateLimiter(config.rate_limit)
        self._last_latency: Dict[str, float] = {}  # op -> seconds its last successful call took

    # -- transport hooks -------------------------------------------------
    def _send_text(self, req: TextGenRequest) -> str:
        raise NotImplementedError

    def _send_vqa(self, req: VqaRequest) -> str:
        raise NotImplementedError

    def _send_image(self, req: ImageGenRequest) -> bytes:
        raise NotImplementedError

    def _send_embed(self, payload) -> List[float]:
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------
    def _run(self, op: str, digest: str, send):
        """Run one operation with retry/backoff and journal it; return (response, its digest)."""
        start = time.monotonic()
        attempts = 0
        delay = min(self.config.backoff_base, MAX_BACKOFF_S)
        error = result = rdigest = None
        while True:
            attempts += 1
            self._limiter.wait()
            try:
                result = send()
                break
            except BackendError as exc:
                retry_after = getattr(exc, "retry_after", None) or 0  # set only on RateLimited
                # A wait longer than a request may take fails the call at once.
                if (not exc.retryable or attempts > self.config.max_retries
                        or retry_after > self.config.timeout):
                    error = exc
                    break
                wait = max(delay, retry_after)
                logger.debug("%s failed (attempt %d), retrying in %.2fs: %s", op, attempts, wait, exc)
                if wait > 0:
                    time.sleep(wait)
                delay = min(delay * 2, MAX_BACKOFF_S)
        if error is None and isinstance(result, str) and len(result) <= SHORT_RESPONSE:
            rdigest = _short_text_digest(result)
        elif error is None:
            rdigest = sha256_hex(result if isinstance(result, (str, bytes)) else canonical_json(result))
        latency = time.monotonic() - start
        if error is None:
            self._last_latency[op] = latency
        journal = _current_journal.get()
        if journal is not None:  # not ``if journal``: an empty journal is falsy
            journal.append(CallRecord(
                op=op,
                digest=digest,
                ok=error is None,
                attempts=attempts,
                latency_s=latency,
                model=self.config.model,
                error=None if error is None else f"{type(error).__name__}: {error}",
                response_digest=rdigest,
            ))
        if error is not None:
            raise error
        return result, rdigest

    def last_latency_s(self, op: str) -> Optional[float]:
        """Seconds the last successful ``op`` call took, retries included;
        None before the first one."""
        return self._last_latency.get(op)

    # -- operations --------------------------------------------------------
    def complete(self, req: TextGenRequest) -> str:
        raw, _ = self._run("complete", request_digest(req), lambda: self._send_text(req))
        return raw.rstrip()

    def answer_binary(self, req: VqaRequest) -> bool:
        """True for yes, False for no.

        The first alphabetic token of the reply decides; an unrecognized reply
        is re-asked once with a stricter instruction before failing.
        """
        raw, _ = self._run("answer_binary", request_digest(req), lambda: self._send_vqa(req))
        parsed = _parse_binary(raw)
        if parsed is None:
            strict = VqaRequest(image=req.image, question=req.question + _STRICT_SUFFIX)
            raw, _ = self._run("answer_binary", request_digest(strict), lambda: self._send_vqa(strict))
            parsed = _parse_binary(raw)
            if parsed is None:
                raise UnparseableAnswer(raw)
        return parsed

    def generate_image(self, req: ImageGenRequest) -> ImageRef:
        if not all(MIN_IMAGE_DIM <= d <= MAX_IMAGE_DIM for d in (req.width, req.height)):
            raise ValueError(
                f"image dims {req.width}x{req.height} outside backend bounds "
                f"[{MIN_IMAGE_DIM}, {MAX_IMAGE_DIM}]"
            )
        data, digest = self._run("generate_image", request_digest(req), lambda: self._send_image(req))
        with self._image_dir_lock:
            if self._image_dir is None:
                self._image_dir = Path(tempfile.mkdtemp(prefix="promptrefine-img-"))
            self._image_dir.mkdir(parents=True, exist_ok=True)
        media_type = _sniff_media_type(data)
        path = self._image_dir / f"{digest[:24]}{image_suffix(media_type)}"
        if not path.exists():
            write_file_atomic(path, data)
        return ImageRef(path=str(path), digest=digest, media_type=media_type)

    def embed(self, payload: Union[str, ImageRef]) -> List[float]:
        if not self.config.supports_embedding:
            raise CapabilityMissing(f"backend {self.config.model or type(self).__name__} does not embed")
        vector, _ = self._run("embed", embed_digest(payload), lambda: self._send_embed(payload))
        vector = [float(v) for v in vector]
        if not all(map(math.isfinite, vector)):  # json reads NaN and Infinity
            raise TransportError("embedding has a non-finite component")
        if self.config.embed_dim is not None and len(vector) != self.config.embed_dim:
            raise TransportError(
                f"embedding dimension {len(vector)} != declared {self.config.embed_dim}"
            )
        return vector


def _parse_binary(raw: str) -> Optional[bool]:
    match = _FIRST_WORD.search(raw)
    if match is None:
        return None
    token = match.group(0).lower()
    if token == "yes":
        return True
    if token == "no":
        return False
    return None
