"""Request/response types, call journal, and the shared backend skeleton.

Transport-specific subclasses implement the ``_send_*`` hooks; this module owns
request validation, retry with exponential backoff, rate limiting, binary
answer extraction, content-addressed image persistence, and journaling.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
import threading
import time
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

logger = logging.getLogger(__name__)


class BackendError(Exception):
    """Base class for backend failures."""

    retryable = False


class TransportError(BackendError):
    retryable = True

    def __init__(self, message: str, status: Optional[int] = None):
        self.status = status
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
        object.__setattr__(self, "exemplars", tuple(tuple(p) for p in self.exemplars))

    def canonical(self) -> dict:
        return {
            "kind": "text",
            "preamble": self.preamble,
            "exemplars": [list(p) for p in self.exemplars],
            "input": self.input,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }


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


def request_digest(req) -> str:
    """Stable digest of a canonicalized request; field-order insensitive."""
    return sha256_hex(canonical_json(req.canonical()))


def embed_digest(payload: Union[str, ImageRef]) -> str:
    """Digest of an embedding request: the text, or the image's locator."""
    key = payload if isinstance(payload, str) else payload.locator()
    return sha256_hex(canonical_json({"kind": "embed", "payload": key}))


# mkstemp creates its files 0600; a written file gets the mode open() would
# give it under the process umask, read once here since reading it sets it.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def write_file_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in the same directory and
    ``os.replace``, so a reader or a concurrent writer never sees a partial file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, _FILE_MODE)
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
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


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
        return {
            "op": self.op,
            "digest": self.digest,
            "ok": self.ok,
            "attempts": self.attempts,
            "latency_s": round(self.latency_s, 6),
            "model": self.model,
            "error": self.error,
            "response_digest": self.response_digest,
        }


class CallJournal:
    """Thread-safe append-only log of backend calls."""

    def __init__(self):
        self._records: List[CallRecord] = []
        self._lock = threading.Lock()

    def append(self, record: CallRecord) -> None:
        with self._lock:
            self._records.append(record)

    def records(self) -> List[CallRecord]:
        with self._lock:
            return list(self._records)

    def summaries(self) -> List[dict]:
        return [r.summary() for r in self.records()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


_current_journal: ContextVar[Optional[CallJournal]] = ContextVar("promptrefine_journal", default=None)


def journal_calls(records: Iterable[CallRecord]) -> None:
    """Append calls to the innermost open ``recording``'s journal, if any."""
    journal = _current_journal.get()
    if journal is not None:  # not ``if journal``: an empty journal is falsy
        for record in records:
            journal.append(record)


@contextmanager
def recording(journal: CallJournal) -> Iterator[CallJournal]:
    """Journal every backend call made in this context to ``journal``. Calls
    made outside any ``recording`` are not kept; a new thread starts outside."""
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


_FIRST_WORD = re.compile(r"[A-Za-z]+")
_STRICT_SUFFIX = ' Answer strictly with the single word "yes" or "no".'
MIN_IMAGE_DIM, MAX_IMAGE_DIM = 16, 4096


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
        delay = self.config.backoff_base
        error = result = rdigest = None
        while True:
            attempts += 1
            self._limiter.wait()
            try:
                result = send()
                break
            except BackendError as exc:
                if not exc.retryable or attempts > self.config.max_retries:
                    error = exc
                    break
                wait = delay
                if isinstance(exc, RateLimited) and exc.retry_after:
                    wait = max(wait, exc.retry_after)
                logger.debug("%s failed (attempt %d), retrying in %.2fs: %s", op, attempts, wait, exc)
                if wait > 0:
                    time.sleep(wait)
                delay = min(delay * 2 if delay else 0.0, 30.0)
        if error is None and isinstance(result, bytes):
            rdigest = sha256_hex(result)
        elif error is None:
            rdigest = sha256_hex(result if isinstance(result, str) else canonical_json(result))
        latency = time.monotonic() - start
        if error is None:
            self._last_latency[op] = latency
        journal_calls([
            CallRecord(
                op=op,
                digest=digest,
                ok=error is None,
                attempts=attempts,
                latency_s=latency,
                model=self.config.model,
                error=None if error is None else f"{type(error).__name__}: {error}",
                response_digest=rdigest,
            )
        ])
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
