"""OpenAI-compatible HTTP backend.

Text and VQA go through ``POST {endpoint}/chat/completions`` (the image rides
along as a base64 data URL), generation through ``POST
{endpoint}/images/generations``, embeddings through ``POST
{endpoint}/embeddings``. Bearer-token auth; timeouts, retries, and rate limit
come from BackendConfig.
"""

from __future__ import annotations

import base64
import functools
import json
import threading
from typing import List, Optional, Tuple, Union

import requests

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

# A run evaluates one image at a time, so only that image's questions reuse
# its encoding; 1 MiB is ~1.4 MB of base64.
ENCODED_IMAGES = 1
# Stands in for a local image's data URL in a payload until _ImageBody fills it.
_URL_SLOT = "\x00image-url\x00"


def _image_url(image: ImageRef) -> str:
    """A remote image's identifier, or the slot for a local image's data URL."""
    return image.remote_id if image.path is None else _URL_SLOT


@functools.lru_cache(maxsize=ENCODED_IMAGES)
def _encode(image: ImageRef) -> Tuple[bytes, bytes]:
    prefix = json.dumps(f"data:{image.media_type};base64,")[1:-1].encode("ascii")
    return prefix, base64.b64encode(image.read_bytes())


_ENCODE_LOCK = threading.Lock()


def _encoded(image: ImageRef) -> Tuple[bytes, bytes]:
    """A local image's JSON-escaped ``data:`` URL prefix and base64 bytes,
    shared by every request that sends it. Callers that arrive together wait
    for one encoding rather than each making their own."""
    with _ENCODE_LOCK:
        return _encode(image)


class _ImageBody:
    """A JSON body whose _URL_SLOT is the image's data URL, sent in parts so
    concurrent requests share one encoded copy. ``len()`` lets requests set
    Content-Length; each iteration yields the whole body again."""

    def __init__(self, payload: dict, encoded: Tuple[bytes, bytes]):
        head, _, tail = json.dumps(payload).partition(json.dumps(_URL_SLOT))
        self._parts = (head.encode("ascii") + b'"', *encoded, b'"' + tail.encode("ascii"))

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __iter__(self):
        return iter(self._parts)


class HttpBackend(Backend):
    def __init__(self, config: BackendConfig, image_dir=None, session=None):
        if not config.endpoint:
            raise ValueError("HttpBackend requires an endpoint")
        super().__init__(config, image_dir=image_dir)
        self._session = session or requests.Session()

    def generate_image(self, req: ImageGenRequest) -> ImageRef:
        image = super().generate_image(req)
        # Encode on the calling thread: the questions about the new image may
        # all go out at once from pool threads, which would hold the copy in
        # their own malloc arenas.
        _encoded(image)
        return image

    def _post(self, path: str, payload: dict, image: Optional[ImageRef] = None) -> dict:
        """POST ``payload`` as JSON; a local ``image`` fills its _URL_SLOT."""
        url = self.config.endpoint.rstrip("/") + path
        headers = {"Content-Type": "application/json"}
        if self.config.auth_token:
            headers["Authorization"] = f"Bearer {self.config.auth_token}"
        if image is not None and image.path is not None:
            body = {"data": _ImageBody(payload, _encoded(image))}
        else:
            body = {"json": payload}
        try:
            resp = self._session.post(url, headers=headers, timeout=self.config.timeout, **body)
        except requests.Timeout as exc:
            raise BackendTimeout(f"request to {path} timed out") from exc
        except requests.RequestException as exc:
            raise TransportError(f"request to {path} failed: {exc}") from exc
        if resp.status_code in (401, 403):
            raise AuthFailure(f"authentication rejected by {path}")
        if resp.status_code == 429:
            retry_after = None
            try:
                retry_after = float(resp.headers.get("Retry-After", ""))
            except ValueError:
                pass
            raise RateLimited(retry_after=retry_after)
        if resp.status_code == 400 and b"content_policy" in resp.content:
            raise ContentRejected(f"service rejected the request: {resp.text[:200]}")
        if resp.status_code >= 400:
            raise TransportError(f"{path} returned an error", status=resp.status_code)
        try:
            return resp.json()
        except ValueError as exc:
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
        data = self._post("/images/generations", payload)
        try:
            b64 = data["data"][0]["b64_json"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("malformed image generation response") from exc
        try:
            return base64.b64decode(b64)
        except Exception as exc:
            raise TransportError("image payload is not valid base64") from exc

    def _send_embed(self, payload: Union[str, ImageRef]) -> List[float]:
        image = payload if isinstance(payload, ImageRef) else None
        text = payload if image is None else _image_url(image)
        data = self._post("/embeddings", {"model": self.config.model, "input": text}, image)
        try:
            return [float(v) for v in data["data"][0]["embedding"]]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError("malformed embeddings response") from exc
