"""OpenAI-compatible HTTP backend.

Text and VQA go through ``POST {endpoint}/chat/completions`` (the image rides
along as a base64 data URL), generation through ``POST
{endpoint}/images/generations``, embeddings through ``POST
{endpoint}/embeddings``. Bearer-token auth; timeouts, retries, and rate limit
come from BackendConfig.
"""

from __future__ import annotations

import base64
from typing import List, Union

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


def _image_url(image: ImageRef) -> str:
    """A local image as a base64 data URL; a remote image by its identifier."""
    if image.path is None:
        return image.remote_id
    b64 = base64.b64encode(image.read_bytes()).decode("ascii")
    return f"data:{image.media_type};base64,{b64}"


class HttpBackend(Backend):
    def __init__(self, config: BackendConfig, image_dir=None, session=None):
        if not config.endpoint:
            raise ValueError("HttpBackend requires an endpoint")
        super().__init__(config, image_dir=image_dir)
        self._session = session or requests.Session()

    def _post(self, path: str, payload: dict) -> dict:
        url = self.config.endpoint.rstrip("/") + path
        headers = {"Content-Type": "application/json"}
        if self.config.auth_token:
            headers["Authorization"] = f"Bearer {self.config.auth_token}"
        try:
            resp = self._session.post(url, json=payload, headers=headers, timeout=self.config.timeout)
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

    def _chat(self, messages: list, temperature: float, max_tokens: int) -> str:
        data = self._post(
            "/chat/completions",
            {
                "model": self.config.model,
                "messages": messages,
                "temperature": temperature,
                "max_tokens": max_tokens,
            },
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
        return self._chat(messages, temperature=0.0, max_tokens=16)

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
        text = _image_url(payload) if isinstance(payload, ImageRef) else payload
        data = self._post("/embeddings", {"model": self.config.model, "input": text})
        try:
            return [float(v) for v in data["data"][0]["embedding"]]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError("malformed embeddings response") from exc
