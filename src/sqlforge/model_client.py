"""Generation clients: a chat-completions HTTP client with retry/backoff
and a deterministic scripted mock for tests and offline runs.

``extract_sql`` turns a completion into one statement: markdown fences are
stripped, and the text is cut at its first ``;`` outside quotes and
comments, which ``sql_analysis.mask_quoted`` reads as SQLite's tokenizer
does, so an unterminated quote or comment runs to the end of the text.

Mock script files are JSON-lines; each entry is
``{"match": <optional prompt substring>, "responses": [...], "cycle": <bool>}``.
Entries are consulted in file order; the first matching entry with
responses remaining serves the request. ``cycle`` entries never exhaust.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import os
import queue
import re
import ssl
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import SplitResult, unquote, urlsplit

from .errors import (
    AuthError,
    EndpointUnreachable,
    MalformedResponse,
    MockExhausted,
)
from .metrics import read_json_lines, record_fields
from .sql_analysis import mask_quoted

DEFAULT_MAX_TOKENS = 512
DEFAULT_STOP_SEQUENCES = (";\n\n",)
API_KEY_ENV = "SQLFORGE_API_KEY"
MAX_RETRIES = 3
BACKOFF_BASE_SECS = 0.5
REQUEST_TIMEOUT_SECS = 120.0
#: The longest reply body read; a longer one is a MalformedResponse. Far
#: above ``n`` completions of ``DEFAULT_MAX_TOKENS`` tokens each.
MAX_REPLY_BYTES = 16_000_000
#: How much of a refused reply's body its error shows.
REPLY_PREVIEW_BYTES = 200


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    temperature: float = 0.5
    n: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and non-negative: {self.temperature}")
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class GenerationResponse:
    completions: tuple[str, ...]
    usage: dict = field(default_factory=dict)


def extract_sql(completion: str) -> str:
    """Strip markdown code fences and keep the first SQL statement: the text
    before the first ``;`` outside quotes and comments, read as SQLite reads
    them, so that an unterminated one runs to the end of the text."""
    text = completion.strip()
    if text.startswith("```"):
        text = text.split("\n", 1)[1] if "\n" in text else text[3:]
        fence_end = text.rfind("```")
        if fence_end != -1:
            text = text[:fence_end]
        text = text.strip()
    end = mask_quoted(text).find(";")
    return (text if end == -1 else text[:end]).strip()


def _split_url(what: str, url: str, schemes: tuple[str, ...]) -> SplitResult:
    """The parts of ``url``. A URL no request could be sent to is a
    ValueError naming ``what``, so it fails before anything is posted, not
    after every retry."""
    try:
        if re.search(r"[\x00-\x20\x7f]", url):
            raise ValueError("it contains whitespace or a control character")
        parts = urlsplit(url)
        parts.port  # a port out of range or not a number raises here
        if parts.scheme not in schemes:
            raise ValueError(f"its scheme is not {' or '.join(schemes)}")
        if not parts.hostname:
            raise ValueError("it has no host")
    except ValueError as exc:
        raise ValueError(f"{what} {url!r} is malformed: {exc}") from None
    return parts


def _proxy_variable(name: str) -> str:
    """Environment variable ``name`` as urllib reads it: the lower-case form
    wins, even when empty. Under CGI, where a request header can set it,
    ``HTTP_PROXY`` is ignored. urllib's own reader decodes every variable
    of the environment, so it costs more than the rest of ``__init__``."""
    value = os.environ.get(name)
    if value is None and not (name == "http_proxy" and "REQUEST_METHOD" in os.environ):
        value = os.environ.get(name.upper())
    return value or ""


class HttpModelClient:
    """Chat-completions JSON-over-HTTP client with exponential backoff.

    The client keeps up to ``max_in_flight`` connections open between
    requests and closes them in ``close()``; use it in a ``with`` block."""

    max_in_flight = 4  # requests open at once; mine and refine run this many samples

    def __init__(self, endpoint_url: str, model_name: str = "default"):
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        parts = _split_url("endpoint URL", endpoint_url, ("http", "https"))
        if parts.username is not None:
            raise ValueError(
                f"endpoint URL {endpoint_url!r} holds credentials; set {API_KEY_ENV} instead"
            )
        self._https = parts.scheme == "https"
        self._host, self._port = parts.hostname, parts.port
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._headers = {"Content-Type": "application/json"}
        self._proxy: tuple[str, int | None] | None = None
        self._tunnel_headers: dict[str, str] = {}
        proxy_url = _proxy_variable(f"{parts.scheme}_proxy")
        bypass = {"no": _proxy_variable("no_proxy")}
        if proxy_url and not urllib.request.proxy_bypass_environment(parts.netloc, bypass):
            # The proxy is spoken to in plain HTTP, whatever the endpoint's scheme.
            proxy = _split_url(
                "proxy", proxy_url if "://" in proxy_url else f"http://{proxy_url}", ("http",)
            )
            self._proxy = (proxy.hostname, proxy.port)
            auth = {}
            if proxy.username is not None:
                creds = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                auth["Proxy-Authorization"] = f"Basic {base64.b64encode(creds.encode()).decode()}"
            if self._https:
                self._tunnel_headers = auth
            else:  # a plain-HTTP proxy takes the request in absolute form
                self._target = f"http://{parts.netloc}{self._target}"
                self._headers.update(auth)
        self._tls = ssl.create_default_context() if self._https else None
        # One slot per request in flight: an idle connection, or None when
        # the slot has none open. Last in, first out, so a sequential
        # caller keeps reusing one connection.
        self._slot_count = self.max_in_flight
        self._slots: queue.LifoQueue[http.client.HTTPConnection | None] = queue.LifoQueue()
        for _ in range(self._slot_count):
            self._slots.put(None)

    def __enter__(self) -> "HttpModelClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every pooled connection, after waiting for the requests in
        flight. A later request opens a new connection."""
        slots = [self._slots.get() for _ in range(self._slot_count)]
        for conn in slots:
            if conn is not None:
                conn.close()
        for _ in slots:
            self._slots.put(None)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        payload = json.dumps({
            "model": self.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "n": request.n,
            "max_tokens": DEFAULT_MAX_TOKENS,
            "stop": list(DEFAULT_STOP_SEQUENCES),
        }).encode()
        headers = dict(self._headers)
        if key := os.environ.get(API_KEY_ENV):
            headers["Authorization"] = f"Bearer {key}"
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(BACKOFF_BASE_SECS * (2 ** (attempt - 1)))
            try:
                status, body = self._post(payload, headers)
            except (http.client.HTTPException, OSError) as exc:
                last_error = exc
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({status})")
            if status >= 500 or status == 429:
                last_error = EndpointUnreachable(f"HTTP {status} from {self.endpoint_url}")
                continue
            if not 200 <= status < 300:
                start = repr(body[:REPLY_PREVIEW_BYTES])
                why = "redirects are not followed" if status < 400 else start
                raise MalformedResponse(f"HTTP {status} from {self.endpoint_url}: {why}")
            return self._parse_response(body, request)
        raise EndpointUnreachable(
            f"{self.endpoint_url} unreachable after {MAX_RETRIES + 1} attempts: {last_error}"
        )

    def _post(self, payload: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One attempt: POST ``payload`` and return the reply's status and
        body. A pooled connection that fails with a ``ConnectionError`` was
        most likely closed by the server while it sat idle, so the request
        is sent again at once on a new connection, within this attempt. A
        connection goes back to the pool only after a reply read to its end."""
        conn = self._slots.get()
        try:
            if conn is not None:
                try:
                    return self._exchange(conn, payload, headers)
                except ConnectionError:
                    conn.close()
            conn = self._connect()
            return self._exchange(conn, payload, headers)
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        finally:
            # After a reply that ends the connection, http.client has closed it.
            self._slots.put(conn if conn is not None and conn.sock is not None else None)

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._proxy or (self._host, self._port)
        if self._https:
            conn = http.client.HTTPSConnection(
                host, port, timeout=REQUEST_TIMEOUT_SECS, context=self._tls
            )
            if self._proxy:
                conn.set_tunnel(self._host, self._port, self._tunnel_headers)
            return conn
        return http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_SECS)

    def _exchange(
        self, conn: http.client.HTTPConnection, payload: bytes, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        conn.request("POST", self._target, payload, headers)
        with conn.getresponse() as resp:
            body = resp.read(MAX_REPLY_BYTES + 1)
            if len(body) > MAX_REPLY_BYTES:
                raise MalformedResponse(
                    f"reply from {self.endpoint_url} is over {MAX_REPLY_BYTES} bytes"
                )
            if resp.length:  # the server closed before the Content-Length it sent
                raise http.client.IncompleteRead(body, resp.length)
            return resp.status, body

    def _parse_response(self, raw: bytes, request: GenerationRequest) -> GenerationResponse:
        try:
            body = json.loads(raw)
            choices = body["choices"]
            completions = tuple(c["message"]["content"] for c in choices)
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(f"cannot parse endpoint response: {exc}") from exc
        if not all(isinstance(c, str) for c in completions):
            raise MalformedResponse("endpoint response content is not a string")
        if len(completions) != request.n:
            raise MalformedResponse(
                f"asked for {request.n} completions, got {len(completions)}"
            )
        return GenerationResponse(completions=completions, usage=body.get("usage", {}))


@dataclass
class _MockEntry:
    responses: list[str]
    match: str | None = None
    cycle: bool = False
    cursor: int = 0

    def exhausted(self) -> bool:
        return not self.cycle and self.cursor == len(self.responses)

    def take(self) -> str:
        value = self.responses[self.cursor % len(self.responses)]
        self.cursor += 1
        return value

    @staticmethod
    def of(entry, which: str) -> "_MockEntry":
        """The entry of script record ``entry``, named by ``which``; a
        record of the wrong shape is a ValueError naming it."""
        (responses,) = record_fields(entry, ("responses",), which)
        if not (
            isinstance(responses, list)
            and responses
            and all(isinstance(r, str) for r in responses)
        ):
            raise ValueError(f"{which}: 'responses' must be a non-empty list of strings")
        match = entry.get("match")
        if match is not None and not isinstance(match, str):
            raise ValueError(f"{which}: 'match' must be a string")
        return _MockEntry(responses=responses, match=match, cycle=bool(entry.get("cycle", False)))


class MockModelClient:
    """Deterministic scripted stand-in for a model endpoint."""

    max_in_flight = 1  # entries are consumed in arrival order: serial keeps replies deterministic

    def __init__(self, entries: list[dict]):
        self._entries = [_MockEntry.of(e, f"script entry {n}") for n, e in enumerate(entries, 1)]
        self._lock = threading.Lock()

    def __enter__(self) -> "MockModelClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release; here so either client can be closed."""

    @classmethod
    def from_script(cls, path: str | Path) -> "MockModelClient":
        """The client that plays the JSON-lines script at ``path``; a line
        that is not an entry is a ValueError naming the file and line."""
        client = cls([])
        client._entries = [_MockEntry.of(e, f"{path} line {n}") for n, e in read_json_lines(path)]
        return client

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        with self._lock:
            completions = []
            for _ in range(request.n):
                entry = self._find_entry(request.prompt)
                if entry is None:
                    raise MockExhausted(
                        f"no scripted response for prompt starting "
                        f"{request.prompt[:60]!r}"
                    )
                completions.append(entry.take())
            return GenerationResponse(completions=tuple(completions))

    def _find_entry(self, prompt: str) -> _MockEntry | None:
        for entry in self._entries:
            if not entry.exhausted() and (entry.match is None or entry.match in prompt):
                return entry
        return None


def make_client(spec: str) -> HttpModelClient | MockModelClient:
    """The client for ``spec``: ``http(s)://...`` or ``mock:<path>``."""
    if spec.startswith(("http://", "https://")):
        return HttpModelClient(spec)
    if spec.startswith("mock:"):
        return MockModelClient.from_script(spec[len("mock:") :])
    raise ValueError(f"endpoint spec must be http(s)://... or mock:<path>, got {spec!r}")
