"""Loopback OpenAI-compatible stub for the refine-http workload.

Run as its own process: ``python3 perfbench/stub.py --workload W --seed N``.
It rebuilds the workload's Script from the seed, binds 127.0.0.1 on a free
port, prints the port, and serves until its standard input closes.

Each chat or image request is turned back into the pipeline's request type and
answered by ``ScriptBackend``'s transport hooks, so the HTTP path answers
exactly as the in-process mocks would. The stub holds every request for the
op's declared latency, measured from the moment its headers are parsed, and
reports that hold time and the request body size in ``X-Stub-Service-Ms`` and
``X-Stub-Request-Bytes``. A request for model ``floor`` is answered at once;
it measures the client's zero-latency round trip.

Responses go out in a single send on a TCP_NODELAY socket: writing headers and
body separately lets Nagle's algorithm and delayed ACKs add ~40 ms per call.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import http.client
import json
import subprocess
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import paths

paths.use_checkout_src()

from promptrefine.backends import (  # noqa: E402 - needs the checkout's src/ on sys.path
    BackendError,
    ContentRejected,
    ImageGenRequest,
    ImageRef,
    RateLimited,
    TextGenRequest,
    VqaRequest,
)

HERE = Path(__file__).resolve().parent
FLOOR_MODEL = "floor"
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests", 500: "Internal Server Error"}


class StubApp:
    """Maps wire payloads to ScriptBackend hooks; holds no socket state."""

    def __init__(self, backend, latency):
        self.backend = backend
        self.latency = dict(latency)
        self.floor_calls = 0
        self._lock = threading.Lock()

    def handle(self, path: str, payload: dict):
        """Return (status, body document, op, extra headers)."""
        op = "unknown"
        try:
            if path.endswith("/chat/completions"):
                if payload.get("model") == FLOOR_MODEL:
                    with self._lock:
                        self.floor_calls += 1
                    return 200, _chat("ok"), FLOOR_MODEL, {}
                req = self._chat_request(payload)
                if isinstance(req, VqaRequest):
                    op = "answer_binary"
                    return 200, _chat(self.backend._send_vqa(req)), op, {}
                op = "complete"
                return 200, _chat(self.backend._send_text(req)), op, {}
            if path.endswith("/images/generations"):
                op = "generate_image"
                data = self.backend._send_image(self._image_request(payload))
                return 200, {"data": [{"b64_json": base64.b64encode(data).decode("ascii")}]}, op, {}
            return 404, {"error": f"no route {path}"}, op, {}
        except RateLimited as exc:
            return 429, {"error": str(exc)}, op, {"Retry-After": str(exc.retry_after or 0)}
        except ContentRejected as exc:
            return 400, {"error": {"code": "content_policy", "message": str(exc)}}, op, {}
        except BackendError as exc:
            print(f"stub: {op}: {exc}", file=sys.stderr)
            return 500, {"error": str(exc)}, op, {}

    @staticmethod
    def _chat_request(payload: dict):
        messages = payload["messages"]
        last = messages[-1]["content"]
        if isinstance(last, list):
            parts = {part["type"]: part for part in last}
            url = parts["image_url"]["image_url"]["url"]
            data = base64.b64decode(url.split(",", 1)[1])
            image = ImageRef(path="inline", digest=hashlib.sha256(data).hexdigest())
            return VqaRequest(image=image, question=parts["text"]["text"])
        preamble = messages[0]["content"] if messages[0]["role"] == "system" else ""
        turns = messages[1:-1] if preamble else messages[:-1]
        exemplars = tuple((turns[i]["content"], turns[i + 1]["content"]) for i in range(0, len(turns), 2))
        return TextGenRequest(
            preamble=preamble,
            exemplars=exemplars,
            input=last,
            temperature=payload.get("temperature", 0.0),
            max_tokens=payload.get("max_tokens", 1024),
        )

    @staticmethod
    def _image_request(payload: dict):
        width, height = (int(v) for v in payload.get("size", "1024x1024").split("x"))
        known = {"model", "prompt", "n", "size", "seed", "response_format"}
        extra = tuple((k, v) for k, v in payload.items() if k not in known)
        return ImageGenRequest(
            prompt=payload["prompt"], seed=payload.get("seed", 0), width=width, height=height, extra=extra
        )

    def stats(self) -> dict:
        with self._lock:
            floor = self.floor_calls
        return {"requests": dict(self.backend.stats.snapshot()), "floor": floor}


def _chat(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on the accepted socket

    def do_POST(self):
        start = time.perf_counter()
        size = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(size)
        app = self.server.app
        status, doc, op, extra = app.handle(self.path, json.loads(body))
        out = json.dumps(doc).encode("utf-8")
        remaining = app.latency.get(op, 0.0) - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)
        extra = dict(extra)
        extra["X-Stub-Service-Ms"] = f"{(time.perf_counter() - start) * 1000.0:.4f}"
        extra["X-Stub-Request-Bytes"] = str(size)
        self._send(status, out, extra)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, json.dumps(self.server.app.stats()).encode("utf-8"), {})
        else:
            self._send(404, b"{}", {})

    def _send(self, status: int, out: bytes, headers: dict) -> None:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}", "Content-Type: application/json"]
        lines.append(f"Content-Length: {len(out)}")
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        self.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + out)

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler signature
        pass


def serve(workload: str, seed: int, latency: dict) -> None:
    import workloads
    from script import ScriptBackend

    script, _ = workloads.build(workload, seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.app = StubApp(ScriptBackend(script, name="stub"), latency)

    def stop_on_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


class StubProcess:
    """Client-side handle: starts the stub, queries it, and stops it."""

    def __init__(self, root: Path, workload: str, seed: int, latency: dict):
        cmd = [
            sys.executable,
            str(HERE / "stub.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--latency",
            json.dumps(latency),
        ]
        self.proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"stub did not start (printed {line!r})")
        self.port = int(line)
        self.endpoint = f"http://127.0.0.1:{self.port}/v1"
        self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def stats(self) -> dict:
        self._conn.request("GET", "/stats")
        resp = self._conn.getresponse()
        return json.loads(resp.read())

    def requests(self) -> Counter:
        return Counter(self.stats()["requests"])

    def close(self) -> None:
        if getattr(self, "_conn", None) is not None:
            self._conn.close()
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--latency", required=True, help="JSON object: op -> seconds")
    args = parser.parse_args(argv)
    serve(args.workload, args.seed, json.loads(args.latency))
    return 0


if __name__ == "__main__":
    sys.exit(main())
