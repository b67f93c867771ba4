"""A chat-completions endpoint on localhost for tests of the HTTP client path.

Every reply that is not scripted is a pure function of the request body,
never of arrival order, so a run's outputs do not depend on how many
requests overlap. The server counts requests in flight and keeps the peak.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import socket
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
    """``ThreadingHTTPServer`` on 127.0.0.1 that speaks HTTP/1.1 and keeps
    connections open between requests, as real endpoints do. Each request
    sleeps ``latency_s``, or ``slow_s`` when its prompt contains one of
    ``slow_prompts``, before it is answered. While ``script`` holds
    ``(status, raw body)`` or ``(status, raw body, headers)`` entries, each
    request is answered with the first one, which is taken off the queue;
    then requests get ``reply``. A scripted header replaces the default
    of its name, and ``Connection: close`` closes the connection.
    ``headers`` keeps every request's headers and ``targets`` its method
    and target, as ``"POST /v1/..."``; a GET or CONNECT is recorded there
    and answered 405. ``connections`` counts the connections accepted."""

    def __init__(self, latency_s: float = 0.01, slow_s: float = 0.5):
        self.latency_s = latency_s
        self.slow_s = slow_s
        self.slow_prompts: set[str] = set()
        self.script: deque[tuple] = deque()
        self.prompts: list[str] = []
        self.headers: list = []
        self.targets: list[str] = []
        self.connections = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self._open: set[socket.socket] = set()
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
        self.drop_connections()

    def drop_connections(self) -> None:
        """Close every open connection from the server's side, without
        notice, as a server does to a keep-alive connection left idle past
        its timeout."""
        with self._lock:
            for sock in self._open:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)

    def _handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body go out in separate writes; without TCP_NODELAY
            # the client's delayed ACK would hold up every reply.
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with server._lock:
                    server.connections += 1
                    server._open.add(self.connection)

            def finish(self):
                with server._lock:
                    server._open.discard(self.connection)
                super().finish()

            def _record(self):
                server.headers.append(self.headers)
                server.targets.append(f"{self.command} {self.path}")

            def do_GET(self):
                with server._lock:
                    self._record()
                self.send_error(405)

            do_CONNECT = do_GET

            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                prompt = body["messages"][0]["content"]
                with server._lock:
                    self._record()
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
                headers = {"Content-Type": "application/json",
                           "Content-Length": str(len(data)), **extra}
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        return Handler
