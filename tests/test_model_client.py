import base64
import json
import re
import socket
import sqlite3
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from model_server import ModelServer, reply
from sqlforge import model_client
from sqlforge.errors import AuthError, EndpointUnreachable, MalformedResponse, MockExhausted
from sqlforge.model_client import (
    API_KEY_ENV,
    GenerationRequest,
    HttpModelClient,
    MockModelClient,
    extract_sql,
    make_client,
)


class TestExtractSql:
    @pytest.mark.parametrize(
        "completion,expected",
        [
            ("SELECT 1", "SELECT 1"),
            ("  SELECT 1 ;  ", "SELECT 1"),
            ("```sql\nSELECT count(*) FROM singer\n```", "SELECT count(*) FROM singer"),
            ("```\nSELECT a FROM t\n```", "SELECT a FROM t"),
            ("```sql\nSELECT a FROM t;\nSELECT b FROM u;\n```", "SELECT a FROM t"),
            ("SELECT 'x;y' FROM t; SELECT 2", "SELECT 'x;y' FROM t"),
            ('SELECT a AS "x;y" FROM t', 'SELECT a AS "x;y" FROM t'),
            ("SELECT `x;y` FROM t; SELECT 2", "SELECT `x;y` FROM t"),
            ("SELECT [x;y] FROM t; SELECT 2", "SELECT [x;y] FROM t"),
            ("SELECT a -- it's\nFROM t; DROP TABLE t", "SELECT a -- it's\nFROM t"),
            ("SELECT a /* it's; */ FROM t; DROP TABLE t", "SELECT a /* it's; */ FROM t"),
            ("SELECT 'it''s;' FROM t; SELECT 2", "SELECT 'it''s;' FROM t"),
            ("SELECT 4 - 2 / 1; SELECT 2", "SELECT 4 - 2 / 1"),
            # Text sqlite3.complete_statement raises on: a NUL, a lone surrogate.
            ("SELECT 'a\x00b' FROM t; SELECT 2", "SELECT 'a\x00b' FROM t"),
            ("SELECT [\ud800;] FROM t; SELECT 2", "SELECT [\ud800;] FROM t"),
            # An unterminated quote or comment runs to the end, as in SQLite.
            ("SELECT 'x; SELECT 2", "SELECT 'x; SELECT 2"),
            ('SELECT "x; SELECT 2', 'SELECT "x; SELECT 2'),
            ("SELECT `x; SELECT 2", "SELECT `x; SELECT 2"),
            ("SELECT [x; SELECT 2", "SELECT [x; SELECT 2"),
            ("SELECT 1 /* x; SELECT 2", "SELECT 1 /* x; SELECT 2"),
        ],
    )
    def test_variants(self, completion, expected):
        assert extract_sql(completion) == expected

    @staticmethod
    def _quote(kind: str, text: str) -> str:
        if kind == "string":
            return "'" + text.replace("'", "''") + "'"
        if kind == "double":
            return '"' + text.replace('"', '""') + '"'
        if kind == "backtick":
            return "`" + text.replace("`", "") + "`"
        if kind == "bracket":
            return "[" + text.replace("]", "") + "]"
        if kind == "line_comment":
            return "-- " + text.replace("\n", " ").replace("\r", " ") + "\n"
        while "*/" in text:  # removing one "*/" from "**//" leaves another
            text = text.replace("*/", "")
        return "/* " + text + " */"

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(
            ["string", "double", "backtick", "bracket", "line_comment", "block_comment"]
        ),
        text=st.text(alphabet=st.sampled_from(";'\"`[]-/*\n ax"), max_size=12),
    )
    def test_quoted_semicolons_and_quotes_survive(self, kind, text):
        statement = f"SELECT a, {self._quote(kind, text)} FROM t"
        assert extract_sql(statement) == statement
        assert extract_sql(statement + "; DROP TABLE t") == statement

    @staticmethod
    def _first_complete_statement(text: str) -> str:
        """The text before the first ``;`` that ends a statement SQLite's
        ``sqlite3_complete`` calls complete, or all of it."""
        for i, ch in enumerate(text):
            if ch == ";" and sqlite3.complete_statement(text[: i + 1]):
                return text[:i].strip()
        return text.strip()

    # No letters of CREATE, so no CREATE TRIGGER, whose body may hold ';'.
    @settings(max_examples=1000, deadline=None)
    @given(text=st.text(alphabet=st.sampled_from("'\"`[];-/*\n abxyz"), max_size=30))
    def test_first_statement_is_the_one_sqlite_calls_complete(self, text):
        assume(not text.strip().startswith("```"))
        assert extract_sql(text) == self._first_complete_statement(text)

    def test_no_fence_characters_or_padding_ever(self):
        for raw in ("```sql\n SELECT 1 \n```", "\n\nSELECT 1\n\n", "```SELECT 1```"):
            out = extract_sql(raw)
            assert "`" not in out
            assert out == out.strip()


class TestGenerationRequest:
    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", temperature=-0.1)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_temperature_that_is_not_finite(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            GenerationRequest(prompt="p", temperature=temperature)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", n=0)


class TestMockClient:
    def test_scripted_echo(self):
        client = MockModelClient([{"responses": ["SELECT 1"]}])
        resp = client.generate(GenerationRequest(prompt="anything"))
        assert resp.completions == ("SELECT 1",)

    def test_n_completions_in_scripted_order(self):
        client = MockModelClient([{"responses": ["a", "b", "c", "d"]}])
        resp = client.generate(GenerationRequest(prompt="p", n=4))
        assert resp.completions == ("a", "b", "c", "d")

    def test_match_routes_by_prompt_substring(self):
        client = MockModelClient(
            [
                {"match": "singers", "responses": ["SELECT count(*) FROM singer"]},
                {"match": "stadium", "responses": ["SELECT count(*) FROM stadium"]},
            ]
        )
        resp = client.generate(GenerationRequest(prompt="-- How many singers?"))
        assert resp.completions[0] == "SELECT count(*) FROM singer"

    def test_exhausted_raises(self):
        client = MockModelClient([{"responses": ["only one"]}])
        client.generate(GenerationRequest(prompt="p"))
        with pytest.raises(MockExhausted):
            client.generate(GenerationRequest(prompt="p"))

    def test_unmatched_prompt_raises(self):
        client = MockModelClient([{"match": "nope", "responses": ["x"]}])
        with pytest.raises(MockExhausted):
            client.generate(GenerationRequest(prompt="other"))

    def test_cycle_entry_never_exhausts(self):
        client = MockModelClient([{"responses": ["again"], "cycle": True}])
        for _ in range(10):
            assert client.generate(GenerationRequest(prompt="p")).completions == ("again",)

    def test_replay_from_script_file_is_identical(self, tmp_path):
        script = tmp_path / "script.jsonl"
        entries = [
            {"match": "alpha", "responses": ["SELECT 1", "SELECT 2"]},
            {"responses": ["SELECT 3"]},
        ]
        script.write_text("\n".join(json.dumps(e) for e in entries) + "\n")

        def play():
            client = MockModelClient.from_script(script)
            out = []
            out.extend(client.generate(GenerationRequest(prompt="alpha q", n=2)).completions)
            out.extend(client.generate(GenerationRequest(prompt="beta q")).completions)
            return out

        assert play() == play() == ["SELECT 1", "SELECT 2", "SELECT 3"]

    def test_script_line_that_is_not_json_names_file_and_line(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text('{"responses": ["SELECT 1"]}\n\n{"responses": [\n')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(script))} line 3: Expecting"):
            MockModelClient.from_script(script)

    @pytest.mark.parametrize("line,message", [
        ({"match": "x"}, "has no 'responses' key"),
        (["SELECT 1"], "is not a JSON object"),
        ("SELECT 1", "is not a JSON object"),
        ({"responses": "SELECT 1"}, "'responses' must be a non-empty list of strings"),
        ({"responses": []}, "'responses' must be a non-empty list of strings"),
        ({"responses": ["SELECT 1", 2]}, "'responses' must be a non-empty list of strings"),
        ({"responses": ["SELECT 1"], "match": 7}, "'match' must be a string"),
    ])
    def test_script_line_that_is_not_an_entry_names_file_and_line(self, tmp_path, line,
                                                                   message):
        script = tmp_path / "script.jsonl"
        script.write_text(f'{{"responses": ["SELECT 1"]}}\n\n{json.dumps(line)}\n')
        with pytest.raises(ValueError) as raised:
            MockModelClient.from_script(script)
        assert str(raised.value).startswith(f"{script} line 3")
        assert message in str(raised.value)

    def test_entry_of_the_wrong_shape_is_named_by_its_position(self):
        with pytest.raises(ValueError, match=r"^script entry 2: 'responses' must be"):
            MockModelClient([{"responses": ["SELECT 1"]}, {"responses": "SELECT 1"}])


class TestEndpointConfig:
    def test_parse_url(self):
        client = make_client("https://models.example/v1/chat")
        assert isinstance(client, HttpModelClient)
        assert client.endpoint_url == "https://models.example/v1/chat"

    def test_parse_mock(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps({"responses": ["SELECT 1"]}) + "\n")
        client = make_client(f"mock:{script}")
        assert isinstance(client, MockModelClient)
        # It plays the script at the path.
        assert client.generate(GenerationRequest(prompt="p")).completions == ("SELECT 1",)

    def test_parse_garbage_rejected(self):
        with pytest.raises(ValueError):
            make_client("ftp://nope")


class TestHttpClient:
    """HttpModelClient against a chat-completions server on localhost."""

    @pytest.fixture(autouse=True)
    def quick_retries(self, monkeypatch):
        monkeypatch.setattr(model_client, "MAX_RETRIES", 2)
        monkeypatch.setattr(model_client, "BACKOFF_BASE_SECS", 0.0)

    @pytest.fixture(autouse=True)
    def clients(self):
        with ExitStack() as stack:
            self._clients = stack
            yield

    def client(self, url):
        """A client of ``url``, closed when the test ends."""
        return self._clients.enter_context(HttpModelClient(url))

    def test_retries_then_unreachable(self, model_server):
        model_server.script.extend([(503, b"busy")] * 3)
        with pytest.raises(EndpointUnreachable, match="HTTP 503"):
            self.client(model_server.url).generate(GenerationRequest(prompt="p"))
        assert len(model_server.prompts) == 3

    @pytest.mark.parametrize("status", [503, 429])
    def test_retryable_status_then_success(self, model_server, status):
        model_server.script.append((status, b""))
        resp = self.client(model_server.url).generate(GenerationRequest(prompt="p"))
        assert resp.completions == tuple(reply("p", 1))
        assert len(model_server.prompts) == 2

    @pytest.mark.parametrize("status", [401, 403])
    def test_rejected_credentials_are_not_retried(self, model_server, status):
        model_server.script.append((status, b'{"error": "no"}'))
        with pytest.raises(AuthError, match=str(status)):
            self.client(model_server.url).generate(GenerationRequest(prompt="p"))
        assert len(model_server.prompts) == 1

    @pytest.mark.parametrize("status", [301, 302, 303, 307])
    def test_redirect_is_not_followed(self, model_server, monkeypatch, status):
        """A chat completion is a POST, which a client following a 301-303
        resends as a GET. So a 3xx is a malformed reply, and its target
        gets nothing."""
        monkeypatch.setenv(API_KEY_ENV, "secret")
        elsewhere = ModelServer().start()
        try:
            model_server.script.append((status, b"", {"Location": elsewhere.url}))
            with pytest.raises(MalformedResponse, match=f"HTTP {status} .*not followed"):
                self.client(model_server.url).generate(GenerationRequest(prompt="p"))
            assert [h["Authorization"] for h in model_server.headers] == ["Bearer secret"]
            assert elsewhere.targets == []
        finally:
            elsewhere.stop()
    @pytest.mark.parametrize("status", [400, 404, 405, 409, 410, 413, 422])
    def test_other_4xx_is_malformed_and_not_retried(self, model_server, status):
        """A 4xx is not a completion, even when its body holds a valid list
        of choices: the error names the status and the start of the body."""
        body = {"choices": [{"message": {"content": "SELECT 1"}}], "error": "x" * 400}
        model_server.script.append((status, json.dumps(body).encode()))
        with pytest.raises(MalformedResponse, match=f"HTTP {status} from .*choices") as raised:
            self.client(model_server.url).generate(GenerationRequest(prompt="p"))
        assert len(str(raised.value)) < 400
        assert len(model_server.prompts) == 1

    def test_completion_count_checked(self, model_server):
        one = {"choices": [{"message": {"content": "SELECT 1"}}]}
        model_server.script.append((200, json.dumps(one).encode()))
        with pytest.raises(MalformedResponse, match="asked for 2 completions, got 1"):
            self.client(model_server.url).generate(GenerationRequest(prompt="p", n=2))
        assert len(model_server.prompts) == 1

    def test_body_that_is_not_json_is_malformed(self, model_server):
        model_server.script.append((200, b"<html>not json</html>"))
        with pytest.raises(MalformedResponse):
            self.client(model_server.url).generate(GenerationRequest(prompt="p"))

    @pytest.mark.parametrize("content", [None, 5, ["SELECT 1"], {"text": "SELECT 1"}],
                             ids=["null", "number", "list", "object"])
    def test_content_that_is_not_a_string_is_malformed(self, model_server, content):
        body = {"choices": [{"message": {"content": content}}]}
        model_server.script.append((200, json.dumps(body).encode()))
        with pytest.raises(MalformedResponse, match="not a string"):
            self.client(model_server.url).generate(GenerationRequest(prompt="p"))
        assert len(model_server.prompts) == 1

    def test_reply_is_read_up_to_max_reply_bytes(self, model_server, monkeypatch):
        monkeypatch.setattr(model_client, "MAX_REPLY_BYTES", 200)
        reply_body = json.dumps({"choices": [{"message": {"content": "SELECT 1"}}]}).encode()
        at_cap = reply_body.ljust(200)
        model_server.script.extend([(200, at_cap), (200, at_cap + b" ")])
        client = self.client(model_server.url)
        assert client.generate(GenerationRequest(prompt="p")).completions == ("SELECT 1",)
        with pytest.raises(MalformedResponse, match="over 200 bytes"):
            client.generate(GenerationRequest(prompt="p"))
        assert len(model_server.prompts) == 2  # not retried
        client.generate(GenerationRequest(prompt="p"))
        assert model_server.connections == 2  # the oversized reply's connection was closed

    def test_reply_cut_short_is_retried(self, model_server):
        """A reply that ends before its Content-Length is a failed attempt."""
        model_server.script.append(
            (200, b'{"choices": [', {"Content-Length": "100", "Connection": "close"})
        )
        resp = self.client(model_server.url).generate(GenerationRequest(prompt="p"))
        assert resp.completions == tuple(reply("p", 1))
        assert len(model_server.prompts) == model_server.connections == 2

    def test_sequential_calls_share_one_connection(self, model_server, http_connections):
        client = self.client(model_server.url)
        for i in range(5):
            client.generate(GenerationRequest(prompt=f"p{i}"))
        assert model_server.connections == len(http_connections) == 1
        client.close()
        assert http_connections[0].sock is None
        client.generate(GenerationRequest(prompt="again"))  # a closed client reconnects
        assert model_server.connections == 2

    def test_connection_closed_while_idle_is_sent_again_at_once(self, model_server,
                                                                monkeypatch):
        """A server closes a keep-alive connection that idles too long. The
        request that finds it closed is sent again on a new connection
        without a backoff sleep, and that is not a retry."""
        monkeypatch.setattr(model_client, "MAX_RETRIES", 0)
        caller, sleep, sleeps = threading.get_ident(), time.sleep, []

        def recording_sleep(secs):
            if threading.get_ident() == caller:
                sleeps.append(secs)
            sleep(secs)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        client = self.client(model_server.url)
        client.generate(GenerationRequest(prompt="p1"))
        model_server.drop_connections()
        assert client.generate(GenerationRequest(prompt="p2")).completions == tuple(
            reply("p2", 1)
        )
        assert sleeps == []
        assert model_server.prompts == ["p1", "p2"]
        assert model_server.connections == 2

    def test_proxy_from_the_environment(self, model_server, monkeypatch):
        """``http_proxy`` gets the request in absolute form, with the
        proxy's credentials; a host in ``no_proxy`` is reached directly."""
        for name in ("http_proxy", "https_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        proxy = ModelServer().start()
        try:
            host, port = proxy.url.split("/")[2].split(":")
            monkeypatch.setenv("http_proxy", f"http://us%40r:pw@{host}:{port}")
            self.client(model_server.url).generate(GenerationRequest(prompt="p"))
            assert proxy.targets == [f"POST {model_server.url}"]
            assert proxy.headers[0]["Proxy-Authorization"] == (
                "Basic " + base64.b64encode(b"us@r:pw").decode()
            )
            assert model_server.targets == []

            monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
            self.client(model_server.url).generate(GenerationRequest(prompt="p"))
            assert len(proxy.targets) == 1
            assert model_server.targets == ["POST /v1/chat/completions"]
            assert model_server.headers[0]["Proxy-Authorization"] is None
        finally:
            proxy.stop()

    def test_https_goes_through_a_proxy_tunnel(self, monkeypatch):
        """An ``https`` endpoint behind ``https_proxy`` is reached through a
        CONNECT tunnel; the proxy here refuses it, which is a failed attempt."""
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        proxy = ModelServer().start()
        try:
            monkeypatch.setenv("https_proxy", proxy.url.split("/v1/")[0])
            with pytest.raises(EndpointUnreachable, match="Tunnel connection failed: 405"):
                self.client("https://models.example:8443/v1").generate(
                    GenerationRequest(prompt="p")
                )
            assert proxy.targets == ["CONNECT models.example:8443"] * 3
        finally:
            proxy.stop()

    @pytest.mark.parametrize("env", [
        {"HTTP_PROXY": "http://a:1", "NO_PROXY": "a"},
        {"http_proxy": "http://b:2", "HTTP_PROXY": "http://a:1", "no_proxy": "b", "NO_PROXY": "a"},
        {"http_proxy": "", "HTTP_PROXY": "http://a:1", "no_proxy": "", "NO_PROXY": "a"},
        {"HTTP_PROXY": "http://a:1", "HTTPS_PROXY": "http://a:1", "REQUEST_METHOD": "GET"},
        {"https_proxy": "http://c:3"},
    ])
    def test_proxy_variables_are_read_as_urllib_reads_them(self, monkeypatch, env):
        for name in ("http_proxy", "https_proxy", "no_proxy", "request_method"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        expected = urllib.request.getproxies_environment()
        for scheme in ("http", "https", "no"):
            assert model_client._proxy_variable(f"{scheme}_proxy") == expected.get(scheme, "")

    @pytest.mark.parametrize("proxy", ["https://127.0.0.1:3128", "socks5://127.0.0.1:1080",
                                       "http://127.0.0.1:99999"])
    def test_proxy_that_cannot_be_used_is_a_value_error(self, monkeypatch, proxy):
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        monkeypatch.setenv("http_proxy", proxy)
        with pytest.raises(ValueError, match="proxy"):
            HttpModelClient("http://models.example/v1")

    def test_refused_port_is_unreachable(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(EndpointUnreachable, match="after 3 attempts"):
            self.client(f"http://127.0.0.1:{port}/v1").generate(GenerationRequest(prompt="p"))

    def test_shared_client_keeps_max_in_flight(self, model_server, monkeypatch):
        model_server.latency_s = 0.05
        monkeypatch.setattr(HttpModelClient, "max_in_flight", 2)
        client = self.client(model_server.url)
        prompts = [f"p{i}" for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(client.generate, GenerationRequest(prompt=p)) for p in prompts]
            results = [f.result(timeout=30) for f in futures]
        assert [r.completions for r in results] == [tuple(reply(p, 1)) for p in prompts]
        assert model_server.peak_in_flight == model_server.connections == 2
