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

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    temperature: float = 0.5
    n: int = 1

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class GenerationResponse:
    completions: tuple[str, ...]
    model_name: str = ""
    usage: dict = field(default_factory=dict)


def extract_sql(completion: str) -> str:
    """Strip markdown code fences and keep the first SQL statement: the text
    before the first ``;`` outside quotes and comments, read as SQLite reads
    them, so that an unterminated one runs to the end of the text."""
    text = completion.strip()
    if text.startswith("```"):
        first_newline = text.find("\n")
        if first_newline != -1:
            text = text[first_newline + 1 :]
        else:
            text = text[3:]
        fence_end = text.rfind("```")
        if fence_end != -1:
            text = text[:fence_end]
        text = text.strip()
    end = mask_quoted(text).find(";")
    return (text if end == -1 else text[:end]).strip()


class HttpModelClient:
    """Chat-completions JSON-over-HTTP client with exponential backoff."""

    def __init__(
        self,
        endpoint_url: str,
        model_name: str = "default",
        max_retries: int = 3,
        backoff_base: float = 0.5,
        request_timeout: float = 120.0,
        max_in_flight: int = 4,
    ):
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.request_timeout = request_timeout
        self.max_in_flight = max_in_flight
        self._gate = threading.Semaphore(max_in_flight)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        payload = json.dumps({
            "model": self.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "n": request.n,
            "max_tokens": DEFAULT_MAX_TOKENS,
            "stop": list(DEFAULT_STOP_SEQUENCES),
        }).encode()
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            post = urllib.request.Request(
                self.endpoint_url, payload, {"Content-Type": "application/json"}
            )
            if key := os.environ.get(API_KEY_ENV):
                # Unredirected: urllib copies ordinary headers to any host a 3xx points at.
                post.add_unredirected_header("Authorization", f"Bearer {key}")
            try:
                with self._gate:
                    try:
                        with urllib.request.urlopen(post, timeout=self.request_timeout) as resp:
                            status, body = resp.status, resp.read()
                    except urllib.error.HTTPError as exc:
                        with exc:
                            status, body = exc.code, exc.read()
            except (http.client.HTTPException, OSError) as exc:
                last_error = exc
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({status})")
            if status >= 500 or status == 429:
                last_error = EndpointUnreachable(f"HTTP {status} from {self.endpoint_url}")
                continue
            return self._parse_response(body, request)
        raise EndpointUnreachable(
            f"{self.endpoint_url} unreachable after {self.max_retries + 1} attempts: {last_error}"
        )

    def _parse_response(self, raw: bytes, request: GenerationRequest) -> GenerationResponse:
        try:
            body = json.loads(raw)
            choices = body["choices"]
            completions = tuple(c["message"]["content"] for c in choices)
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(f"cannot parse endpoint response: {exc}") from exc
        if len(completions) != request.n:
            raise MalformedResponse(
                f"asked for {request.n} completions, got {len(completions)}"
            )
        return GenerationResponse(
            completions=completions,
            model_name=body.get("model", self.model_name),
            usage=body.get("usage", {}),
        )


@dataclass
class _MockEntry:
    responses: list[str]
    match: str | None = None
    cycle: bool = False
    cursor: int = 0

    def remaining(self) -> int:
        if self.cycle:
            return 1 << 30
        return len(self.responses) - self.cursor

    def take(self) -> str:
        if self.cycle:
            value = self.responses[self.cursor % len(self.responses)]
        else:
            value = self.responses[self.cursor]
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

    def __init__(self, entries: list[dict], model_name: str = "mock"):
        self._entries = [_MockEntry.of(e, f"script entry {n}") for n, e in enumerate(entries, 1)]
        self.model_name = model_name
        self.call_count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_script(cls, path: str | Path) -> "MockModelClient":
        """The client that plays the JSON-lines script at ``path``; a line
        that is not an entry is a ValueError naming the file and line."""
        client = cls([], model_name=f"mock:{path}")
        client._entries = [_MockEntry.of(e, f"{path} line {n}") for n, e in read_json_lines(path)]
        return client

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        with self._lock:
            self.call_count += 1
            completions = []
            for _ in range(request.n):
                entry = self._find_entry(request.prompt)
                if entry is None:
                    raise MockExhausted(
                        f"no scripted response for prompt starting "
                        f"{request.prompt[:60]!r}"
                    )
                completions.append(entry.take())
            return GenerationResponse(
                completions=tuple(completions), model_name=self.model_name
            )

    def _find_entry(self, prompt: str) -> _MockEntry | None:
        for entry in self._entries:
            if entry.remaining() <= 0:
                continue
            if entry.match is None or entry.match in prompt:
                return entry
        return None


def make_client(spec: str) -> HttpModelClient | MockModelClient:
    """The client for ``spec``: ``http(s)://...`` or ``mock:<path>``."""
    if spec.startswith(("http://", "https://")):
        return HttpModelClient(spec)
    if spec.startswith("mock:"):
        return MockModelClient.from_script(spec[len("mock:") :])
    raise ValueError(f"endpoint spec must be http(s)://... or mock:<path>, got {spec!r}")
