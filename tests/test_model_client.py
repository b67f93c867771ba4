import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlforge.errors import MalformedResponse, MockExhausted
from sqlforge.model_client import (
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
        return "/* " + text.replace("*/", "") + " */"

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

    def test_no_fence_characters_or_padding_ever(self):
        for raw in ("```sql\n SELECT 1 \n```", "\n\nSELECT 1\n\n", "```SELECT 1```"):
            out = extract_sql(raw)
            assert "`" not in out
            assert out == out.strip()


class TestGenerationRequest:
    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", temperature=-0.1)

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
        assert client.model_name == f"mock:{script}"

    def test_parse_garbage_rejected(self):
        with pytest.raises(ValueError):
            make_client("ftp://nope")


class TestHttpClient:
    def test_retries_then_unreachable(self, monkeypatch):
        from sqlforge import model_client as mc

        calls = {"n": 0}

        class FakeSession:
            def post(self, *a, **k):
                calls["n"] += 1
                raise mc.requests.ConnectionError("refused")

        client = mc.HttpModelClient(
            "http://localhost:1", max_retries=2, backoff_base=0.0
        )
        client._session = FakeSession()
        with pytest.raises(mc.EndpointUnreachable):
            client.generate(GenerationRequest(prompt="p"))
        assert calls["n"] == 3

    def test_completion_count_checked(self):
        from sqlforge.model_client import HttpModelClient

        class FakeResponse:
            status_code = 200

            def json(self):
                return {"choices": [{"message": {"content": "SELECT 1"}}]}

        client = HttpModelClient("http://x")
        with pytest.raises(MalformedResponse):
            client._parse_response(FakeResponse(), GenerationRequest(prompt="p", n=2))
