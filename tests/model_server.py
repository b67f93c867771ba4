"""A chat-completions endpoint on localhost for tests of the HTTP client path.

Every reply that is not scripted is a pure function of the request body,
never of arrival order, so a run's outputs do not depend on how many
requests overlap. The server counts requests in flight and keeps the peak.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DEBUG_MARKER = "-- The following SQL is invalid"


def reply(prompt: str, n: int) -> list[str]:
    """``n`` completions for ``prompt``: counts over the prompt's tables, a
    query on a missing table and a constant, picked by the prompt's digest.
    Debug prompts always get a count over the first table."""
    tables = re.findall(r"^CREATE TABLE (.+?)\(", prompt, re.MULTILINE)
    counts = [f'SELECT count(*) FROM "{t}"' for t in tables]
    if DEBUG_MARKER in prompt:
        return counts[:1] * n
    options = counts + ["SELECT * FROM no_such_table", "SELECT 1"]
    digest = hashlib.sha256(prompt.encode()).digest()
    return [options[digest[i % len(digest)] % len(options)] for i in range(n)]


class ModelServer:
    """``ThreadingHTTPServer`` on 127.0.0.1. Each request sleeps
    ``latency_s``, or ``slow_s`` when its prompt contains one of
    ``slow_prompts``, before it is answered. While ``script`` holds
    ``(status, raw body)`` or ``(status, raw body, headers)`` entries, each
    request is answered with the first one, which is taken off the queue;
    then requests get ``reply``. ``headers`` keeps every request's headers;
    a GET is recorded there and answered 405."""

    def __init__(self, latency_s: float = 0.01, slow_s: float = 0.5):
        self.latency_s = latency_s
        self.slow_s = slow_s
        self.slow_prompts: set[str] = set()
        self.script: deque[tuple] = deque()
        self.prompts: list[str] = []
        self.headers: list = []
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def start(self) -> "ModelServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def _handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                with server._lock:
                    server.headers.append(self.headers)
                self.send_error(405)

            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                prompt = body["messages"][0]["content"]
                with server._lock:
                    server.headers.append(self.headers)
                    server.prompts.append(prompt)
                    server.in_flight += 1
                    server.peak_in_flight = max(server.peak_in_flight, server.in_flight)
                    slow = any(p in prompt for p in server.slow_prompts)
                    scripted = server.script.popleft() if server.script else None
                try:
                    time.sleep(server.slow_s if slow else server.latency_s)
                    extra = {}
                    if scripted:
                        status, data, *more = scripted
                        extra = more[0] if more else {}
                    else:
                        choices = [{"message": {"content": c}} for c in reply(prompt, body["n"])]
                        status = 200
                        data = json.dumps({"model": body["model"], "choices": choices}).encode()
                finally:
                    with server._lock:
                        server.in_flight -= 1
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in extra.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        return Handler
