"""Chat-completions stub for the model_stub workload.

Serves ``POST /v1/chat/completions`` from a script written by
``inputs.make_model_stub`` after a fixed sleep, and ``GET /stats`` with the
request count, error count and summed service time. Every completion is a
pure function of the request body (prompt, ``n``, temperature), never of
arrival order, so concurrent clients get the same answers as serial ones.

    python3 bench/stub.py --script stub_script.json --latency-ms 20

prints the port it listens on (127.0.0.1) and serves until terminated.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

TAG_RE = re.compile(r"\[(c\d\ds\d{3})\]")


def completions(script: dict, prompt: str, n: int) -> list[str]:
    """Mine requests (n > 1) get the sample's candidate list. Refine
    requests get the generator answer, or, when the prompt quotes one of
    the sample's failed statements, the debugger's fix for the longest one
    quoted."""
    tag = TAG_RE.search(prompt).group(1)
    if n > 1:
        candidates = script["mine"][tag]
        return [candidates[i % len(candidates)] for i in range(n)]
    entry = script["refine"][tag]
    quoted = [sql for sql in entry["fixes"] if sql in prompt]
    if quoted:
        return [entry["fixes"][max(quoted, key=len)]]
    return [entry["answer"]]


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.service_s = 0.0

    def add(self, service_s: float, ok: bool) -> None:
        with self._lock:
            self.requests += 1
            self.errors += 0 if ok else 1
            self.service_s += service_s

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "errors": self.errors,
                    "service_s": self.service_s}


def make_handler(script: dict, latency_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without TCP_NODELAY
        # the client's delayed ACK would add ~40 ms to every response.
        disable_nagle_algorithm = True

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, stats.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            start = time.perf_counter()
            try:
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                prompt = body["messages"][-1]["content"]
                texts = completions(script, prompt, int(body.get("n", 1)))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                self._send(400, {"error": f"{type(exc).__name__}: {exc}"})
                stats.add(time.perf_counter() - start, ok=False)
                return
            time.sleep(latency_s)
            self._send(200, {
                "object": "chat.completion",
                "model": "bench-stub",
                "choices": [
                    {"index": i, "message": {"role": "assistant", "content": t},
                     "finish_reason": "stop"}
                    for i, t in enumerate(texts)
                ],
                "usage": {"prompt_tokens": len(prompt.split()),
                          "completion_tokens": sum(len(t.split()) for t in texts)},
            })
            stats.add(time.perf_counter() - start, ok=True)

        def log_message(self, format, *args):
            pass

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args()
    with open(args.script, encoding="utf-8") as fh:
        script = json.load(fh)
    stats = Stats()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(script, args.latency_ms / 1000.0, stats)
    )
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
