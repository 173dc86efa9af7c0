"""OpenAI-compatible HTTP backend.

Text and VQA go through ``POST {endpoint}/chat/completions`` (the image rides
along as a base64 data URL), generation through ``POST
{endpoint}/images/generations``, embeddings through ``POST
{endpoint}/embeddings``. Bearer-token auth, which wins over a netrc entry for
the host; timeouts, retries, and rate limit come from BackendConfig.

``requests`` is imported by the first ``HttpBackend``, not with the package,
so a process whose backends are all mocks never loads the HTTP client stack.
"""

from __future__ import annotations

import base64
import json
import threading
from contextvars import ContextVar
from typing import List, Optional, Tuple, Union

from promptrefine.backends.base import (
    AuthFailure,
    Backend,
    BackendConfig,
    BackendTimeout,
    ContentRejected,
    ImageGenRequest,
    ImageRef,
    RateLimited,
    TextGenRequest,
    TransportError,
    VqaRequest,
)

# Stands in for a local image's data URL in a payload until _ImageBody fills it.
_URL_SLOT = "\x00image-url\x00"


def _image_url(image: ImageRef) -> str:
    """A remote image's identifier, or the slot for a local image's data URL."""
    return image.remote_id if image.path is None else _URL_SLOT


_HEADERS = {"Content-Type": "application/json"}


class _ImageSlot:
    """A local image and its base64 bytes: the one encoding that every
    question about the image sends. 1 MiB is ~1.4 MB of base64. ``lock`` is
    held while the fields are read or changed, so questions that arrive
    together wait for one encoding rather than each making their own."""

    def __init__(self):
        self.lock = threading.Lock()
        self.image: Optional[ImageRef] = None
        self.b64 = b""


# The slot of the image that this context generated last. generate_image sets
# a fresh one in its caller's context, and pooled work runs in a copy of its
# submitter's context, so a run's questions find its image's encoding and
# concurrent runs keep their own. Work outside any generate, such as questions
# about a file image, shares the default slot.
_image_slot: ContextVar[_ImageSlot] = ContextVar("promptrefine_image_slot", default=_ImageSlot())


def _encoded(image: ImageRef) -> bytes:
    """A local image's base64 bytes, from this context's slot, which is
    filled from the file on a miss."""
    slot = _image_slot.get()
    with slot.lock:
        if slot.image != image:
            slot.image, slot.b64 = image, base64.b64encode(image.read_bytes())
        return slot.b64


def _is_canonical(b64: bytes, data: bytes) -> bool:
    """Whether ``b64``, which decodes to ``data``, is ``base64.b64encode(data)``.

    A lenient decode skips characters outside the alphabet and ignores the
    low bits of a last partial group. A text of the canonical length has no
    character to skip, and one whose last group re-encodes to itself has no
    stray bits; its full groups map one to one.
    """
    n = len(data)
    if len(b64) != 4 * -(-n // 3):
        return False
    return n % 3 == 0 or b64[-4:] == base64.b64encode(data[-(n % 3):])


class _Bearer:
    """requests' ``auth=`` hook: sends the token as a Bearer header.

    requests gives a request sent without ``auth`` the netrc entry for its
    host, which would replace a header set by hand. Any callable is a valid
    hook, so this module still does not import requests on load.
    """

    def __init__(self, token: str):
        self._header = f"Bearer {token}"

    def __call__(self, request):
        request.headers["Authorization"] = self._header
        return request


class _ImageBody:
    """A JSON body whose _URL_SLOT is the image's data URL, sent in parts so
    concurrent requests share one encoded copy. ``len()`` lets requests set
    Content-Length; each iteration yields the whole body again."""

    def __init__(self, payload: dict, image: ImageRef, b64: bytes):
        head, _, tail = json.dumps(payload).partition(json.dumps(_URL_SLOT))
        head += json.dumps(f"data:{image.media_type};base64,")[:-1]  # the URL up to its base64
        self._parts = (head.encode("ascii"), b64, b'"' + tail.encode("ascii"))

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __iter__(self):
        return iter(self._parts)


class HttpBackend(Backend):
    def __init__(self, config: BackendConfig, image_dir=None, session=None):
        if not config.endpoint:
            raise ValueError("HttpBackend requires an endpoint")
        import requests

        super().__init__(config, image_dir=image_dir)
        self._session = session or requests.Session()
        self._auth = _Bearer(config.auth_token) if config.auth_token else None

    def generate_image(self, req: ImageGenRequest) -> ImageRef:
        # Before the request goes out, this context's previous image's copy
        # is dropped, also where pooled work submitted earlier (such as the
        # graph build beside a run's first generate) still holds the old
        # slot, and a fresh slot is set; _send_image leaves the new image's
        # base64 in it. Only this thread sees the new slot until the generate
        # returns. The copy is made here, on the calling thread: the
        # questions about the new image may all go out at once from pool
        # threads, which would hold it in their own malloc arenas.
        old = _image_slot.get()
        with old.lock:
            old.image, old.b64 = None, b""
        slot = _ImageSlot()
        _image_slot.set(slot)
        slot.image = super().generate_image(req)
        return slot.image

    def _post(self, path: str, payload: dict, image: Optional[ImageRef] = None) -> dict:
        """POST ``payload`` as JSON; a local ``image`` fills its _URL_SLOT."""
        import requests  # loaded by __init__, so only a sys.modules lookup

        url = self.config.endpoint.rstrip("/") + path
        if image is not None and image.path is not None:
            body = {"data": _ImageBody(payload, image, _encoded(image))}
        else:
            body = {"json": payload}
        try:
            # Streamed, so the body is read in one call rather than in 10 KiB
            # chunks; a fully read body returns its connection to the pool.
            with self._session.post(
                url, headers=_HEADERS, auth=self._auth, timeout=self.config.timeout, stream=True, **body
            ) as resp:
                content = b"".join(resp.iter_content(chunk_size=None))
        except requests.Timeout as exc:
            raise BackendTimeout(f"request to {path} timed out") from exc
        except requests.RequestException as exc:
            raise TransportError(f"request to {path} failed: {exc}") from exc
        if resp.status_code in (401, 403):
            raise AuthFailure(f"authentication rejected by {path}")
        if resp.status_code == 429:
            # RFC 9110 delay-seconds is digits only; any other value, such as
            # an HTTP-date or "inf", counts as absent.
            delay = resp.headers.get("Retry-After", "").strip()
            raise RateLimited(retry_after=int(delay) if delay.isascii() and delay.isdigit() else None)
        if resp.status_code == 400 and b"content_policy" in content:
            reason = content[:200].decode("utf-8", "replace")
            raise ContentRejected(f"service rejected the request: {reason}")
        if resp.status_code >= 400:
            raise TransportError(f"{path} returned an error", status=resp.status_code)
        try:
            # json.loads(content) decodes the same way, but would keep the
            # bytes alive next to the text and the parsed document.
            text = content.decode(json.detect_encoding(content), "surrogatepass")
            del content
            return json.loads(text)
        except ValueError as exc:  # UnicodeDecodeError included
            raise TransportError(f"{path} returned non-JSON body") from exc

    def _chat(
        self, messages: list, temperature: float, max_tokens: int, image: Optional[ImageRef] = None
    ) -> str:
        data = self._post(
            "/chat/completions",
            {
                "model": self.config.model,
                "messages": messages,
                "temperature": temperature,
                "max_tokens": max_tokens,
            },
            image,
        )
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("malformed chat completion response") from exc
        return content or ""

    def _send_text(self, req: TextGenRequest) -> str:
        messages = []
        if req.preamble:
            messages.append({"role": "system", "content": req.preamble})
        for shot_in, shot_out in req.exemplars:
            messages.append({"role": "user", "content": shot_in})
            messages.append({"role": "assistant", "content": shot_out})
        messages.append({"role": "user", "content": req.input})
        return self._chat(messages, req.temperature, req.max_tokens)

    def _send_vqa(self, req: VqaRequest) -> str:
        messages = [
            {
                "role": "user",
                "content": [
                    {"type": "image_url", "image_url": {"url": _image_url(req.image)}},
                    {"type": "text", "text": req.question},
                ],
            }
        ]
        return self._chat(messages, temperature=0.0, max_tokens=16, image=req.image)

    def _send_image(self, req: ImageGenRequest) -> bytes:
        payload = {
            "model": self.config.model,
            "prompt": req.prompt,
            "n": 1,
            "size": f"{req.width}x{req.height}",
            "seed": req.seed,
            "response_format": "b64_json",
        }
        payload.update(dict(req.extra))
        doc = self._post("/images/generations", payload)
        try:
            b64 = doc["data"][0]["b64_json"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("malformed image generation response") from exc
        del doc  # so the text is freed once encoded below
        try:
            b64 = b64.encode("ascii")
            data = base64.b64decode(b64)
        except (AttributeError, ValueError) as exc:  # not text, not ASCII, or not base64
            raise TransportError("image payload is not valid base64") from exc
        if not data:
            raise TransportError("image payload is empty")
        # The service's text is what the questions about this image send,
        # unless a decode that skipped or dropped something made it differ;
        # it goes to the slot that generate_image set.
        _image_slot.get().b64 = b64 if _is_canonical(b64, data) else base64.b64encode(data)
        return data

    def _send_embed(self, payload: Union[str, ImageRef]) -> List[float]:
        image = payload if isinstance(payload, ImageRef) else None
        text = payload if image is None else _image_url(image)
        data = self._post("/embeddings", {"model": self.config.model, "input": text}, image)
        try:
            return [float(v) for v in data["data"][0]["embedding"]]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError("malformed embeddings response") from exc
