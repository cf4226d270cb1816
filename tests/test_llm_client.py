from __future__ import annotations

import json
import socket
import time
from http.client import HTTPResponse
from urllib.parse import urlsplit

import pytest

from fuzzymt import _http, llm_client
from fuzzymt.embedding import EmbeddingProviderConfig, embed_batch
from fuzzymt.errors import ArgumentError, ContractViolationError, PromptError, TransportError
from fuzzymt.llm_client import (
    DecodingParams,
    TranslationRequestBatch,
    make_batches,
    run_mock_server,
    translate_all,
    translate_batch,
    truncate_at_stop,
)
from fuzzymt.prompting import LanguageNames, RenderedPrompt, render_few_shot, render_zero_shot
from fuzzymt.retrieval import FuzzyMatch
from fuzzymt.corpus import SegmentPair, read_jsonl

from conftest import ConnectionLog, counted, local_endpoint

LANGS = LanguageNames()


def _prompts(sources):
    return [render_zero_shot(s, LANGS) for s in sources]


class TestDecodingParams:
    def test_default_is_greedy(self):
        params = DecodingParams()
        assert params.temperature == 0.0
        assert params.top_p == 1.0

    def test_validation(self):
        with pytest.raises(ArgumentError):
            DecodingParams(temperature=-1)
        with pytest.raises(ArgumentError):
            DecodingParams(top_p=0.0)


class TestMakeBatches:
    def test_chunking_45_into_20_20_5(self):
        sources = [f"palabra {i}" for i in range(45)]
        batches = make_batches(_prompts(sources), batch_size=20)
        assert [len(b.prompts) for b in batches] == [20, 20, 5]

    def test_max_tokens_rule(self):
        sources = ["uno dos", " ".join(["w"] * 12), "tres"]
        batches = make_batches(_prompts(sources), batch_size=20, token_multiplier=4)
        assert batches[0].max_tokens == 48

    def test_per_batch_max_tokens(self):
        sources = [" ".join(["a"] * 10), " ".join(["b"] * 3)]
        batches = make_batches(_prompts(sources), batch_size=1, token_multiplier=4)
        assert [b.max_tokens for b in batches] == [40, 12]

    def test_empty_input(self):
        assert make_batches([], batch_size=20) == []

    def test_max_tokens_from_the_prompts_query(self):
        # the query source of a prompt with other names and a fuzzy example, read from the prompt alone
        match = FuzzyMatch(pair=SegmentPair(0, " ".join(["ejemplo"] * 9), "t"), score=0.9)
        prompt = render_few_shot("una\nconsulta corta", [match], LanguageNames("French", "German"))
        assert make_batches([prompt], token_multiplier=4)[0].max_tokens == 12

    def test_prompt_that_does_not_parse_rejected(self):
        with pytest.raises(ArgumentError, match="target stub"):
            make_batches(_prompts(["a"]) + [RenderedPrompt("Spanish: b")])

    def test_prompt_that_does_not_parse_named_by_index(self):
        with pytest.raises(PromptError, match="prompt 2: prompt must end") as err:
            make_batches(_prompts(["a", "b"]) + [RenderedPrompt("Spanish: b")] + _prompts(["c"]))
        assert (err.value.index, err.value.reason) == (2, "prompt must end with the bare target stub line")

    def test_ids_preserved_in_order(self):
        sources = ["x", "y", "z"]
        batches = make_batches(_prompts(sources), batch_size=2, ids=[7, 8, 9])
        assert batches[0].ids == [7, 8] and batches[1].ids == [9]


def test_truncate_at_stop():
    assert truncate_at_stop("hello world\nextra") == "hello world"
    assert truncate_at_stop("  spaced  ") == "spaced"
    assert truncate_at_stop("a|b\nc") == "a|b"


class TestMockServerModes:
    def test_echo_fuzzy_returns_last_completed_target(self):
        match = FuzzyMatch(pair=SegmentPair(0, "fuente", "translated text"), score=0.9)
        prompt = render_few_shot("consulta", [match], LANGS)
        with run_mock_server("echo-fuzzy") as server:
            batches = make_batches([prompt])
            results = translate_batch(batches[0], server.endpoint)
        assert results[0].text == "translated text"

    def test_echo_fuzzy_zero_shot_empty(self):
        prompt = render_zero_shot("consulta", LANGS)
        with run_mock_server("echo-fuzzy") as server:
            batches = make_batches([prompt])
            results = translate_batch(batches[0], server.endpoint)
        assert results[0].text == ""

    @pytest.mark.parametrize("mode", ["echo-fuzzy", "dictionary"])
    def test_prompt_that_does_not_parse_400(self, mode):
        # both modes read prompts with parse_prompt, so neither answers a prompt it cannot read
        with run_mock_server(mode, fixtures={"a": "b"}) as server:
            reply = _http.post_json(server.endpoint + "/v1/completions", {"prompt": ["Spanish: a"]})
        assert reply.status == 400 and "target stub" in reply.error

    @pytest.mark.parametrize("path, payload", [
        ("/v1/completions", {"prompt": [5]}),
        ("/v1/completions", {"prompt": ["Spanish: a\nEnglish:", None]}),
        ("/v1/completions", {"prompt": 5}),
        ("/v1/embeddings", {"input": [5]}),
        ("/v1/embeddings", {"input": {"text": "a"}}),
        ("/v1/completions", [1, 2]),
    ], ids=["int-prompt", "null-prompt", "prompt-not-a-list", "int-input", "object-input", "not-an-object"])
    def test_value_that_is_no_text_400_once(self, sleeps, path, payload):
        with run_mock_server("echo-fuzzy", embed_dim=16) as server:
            reply = _http.post_json(server.endpoint + path, payload)
        assert (reply.status, reply.attempts) == (400, 1)
        assert "must be a string or a list of strings" in reply.error
        assert sleeps == []

    def test_dictionary_lookup(self):
        with run_mock_server("dictionary", fixtures={"Hola.": "Hello."}) as server:
            batches = make_batches([render_zero_shot("Hola.", LANGS)])
            results = translate_batch(batches[0], server.endpoint)
        assert results[0].text == "Hello."

    def test_dictionary_reply_by_content_and_missing_source(self):
        prompts = [render_zero_shot(s, LANGS).text for s in ("uno", "dos")]
        with run_mock_server("dictionary", fixtures={"uno": "one", "dos": "two"}) as server:
            url = server.endpoint + "/v1/completions"
            # the same request gets the same reply, whatever came before it
            for _ in range(2):
                for prompt, expected in zip(prompts, ("one", "two")):
                    reply = _http.post_json(url, {"prompt": [prompt]})
                    assert reply.body["choices"][0]["text"] == expected
            lacking = prompts + [render_zero_shot("tres", LANGS).text]
            reply = _http.post_json(url, {"prompt": lacking})
            assert reply.status == 400 and "'tres'" in reply.error

    def test_dictionary_stop_truncation(self):
        with run_mock_server("dictionary", fixtures={"x": "hello world\nextra"}) as server:
            batches = make_batches([render_zero_shot("x", LANGS)])
            results = translate_batch(batches[0], server.endpoint)
        assert results[0].text == "hello world"

    def test_greedy_temperature_on_wire(self):
        with run_mock_server("dictionary", fixtures={"x": "ok"}) as server:
            batches = make_batches([render_zero_shot("x", LANGS)], params=DecodingParams())
            translate_batch(batches[0], server.endpoint)
            sent = server.state.request_log[-1]["payload"]
        assert sent["temperature"] == 0.0
        assert sent["stop"] == ["\n"]
        assert sent["max_tokens"] == 4


class TestTransport:
    def test_endpoint_down_names_prompt_ids(self):
        sources = ["a", "b"]
        batches = make_batches(_prompts(sources), ids=[4, 5])
        with pytest.raises(TransportError) as err:
            translate_batch(batches[0], "http://127.0.0.1:9")
        assert err.value.prompt_ids == [4, 5]

    def test_malformed_response_contract_violation(self):
        raw = json.dumps({"choices": [{"index": 0, "text": "only one"}]}).encode()
        with local_endpoint([(200, raw)]) as (endpoint, _):
            sources = ["a", "b"]
            batches = make_batches(_prompts(sources))
            with pytest.raises(ContractViolationError):
                translate_batch(batches[0], endpoint)

    @pytest.mark.parametrize("client", ["translate_batch", "embed_batch"])
    def test_non_json_body_contract_violation(self, client):
        trace = []
        with local_endpoint([(200, b"<html>busy</html>")]) as (endpoint, paths):
            with pytest.raises(ContractViolationError):
                if client == "translate_batch":
                    batches = make_batches(_prompts(["a"]))
                    translate_batch(batches[0], endpoint, trace=trace)
                else:
                    cfg = EmbeddingProviderConfig(
                        kind="remote-http", endpoint=endpoint, dim=4
                    )
                    embed_batch(["texto"], cfg)
        # a 200 reply ends the retry loop even when its body is unusable
        assert len(paths) == 1
        if client == "translate_batch":
            [record] = trace
            assert record["response"] is None
            assert "not JSON" in record["error"]

    def test_falsy_body_traced_as_received(self):
        trace = []
        with local_endpoint([(200, b"{}")]) as (endpoint, _):
            batches = make_batches(_prompts(["a"]))
            with pytest.raises(ContractViolationError):
                translate_batch(batches[0], endpoint, trace=trace)
        [record] = trace
        assert record["response"] == {} and record["error"] is None

    @pytest.mark.parametrize(
        "choices",
        [
            [{"index": 0, "text": "a"}, {"index": -1, "text": "b"}],
            [{"index": True, "text": "a"}, {"index": 0, "text": "b"}],
            [{"index": "0", "text": "a"}, {"index": 1, "text": "b"}],
            [{"index": 1.7, "text": "a"}, {"index": 0, "text": "b"}],
            [{"index": 0, "text": "a"}, {"index": 2, "text": "b"}],
            [{"index": 1, "text": "a"}, {"index": 1, "text": "b"}],
            [{"index": 0, "text": "a"}, {"text": "b"}],
            [{"index": 0, "text": "a"}, {"index": 1}],
            [{"index": 0, "text": "a"}, "b"],
        ],
        ids=["negative", "bool", "str", "float", "out-of-range", "repeated", "no-index", "no-text",
             "not-object"],
    )
    def test_bad_choice_contract_violation(self, choices):
        body = json.dumps({"choices": choices}).encode()
        with local_endpoint([(200, body)]) as (endpoint, _):
            batches = make_batches(_prompts(["a", "b"]))
            with pytest.raises(ContractViolationError, match="choice"):
                translate_batch(batches[0], endpoint)

    @pytest.mark.parametrize(
        "choices",
        [
            [{"index": 0, "text": None}, {"index": 1, "text": 5}],
            [{"index": 0, "text": "a"}, {"index": 1, "text": None}],
            [{"index": 0, "text": 5}, {"index": 1, "text": "b"}],
        ],
        ids=["null-and-number", "null", "number"],
    )
    def test_non_string_text_contract_violation(self, choices):
        # a null or numeric text is not a translation, not the words "None" or "5"
        body = json.dumps({"choices": choices}).encode()
        with local_endpoint([(200, body)]) as (endpoint, _):
            batches = make_batches(_prompts(["a", "b"]))
            with pytest.raises(ContractViolationError, match="string text"):
                translate_batch(batches[0], endpoint)

    def test_choices_placed_by_index(self):
        body = json.dumps({"choices": [{"index": 1, "text": "b"}, {"index": 0, "text": "a"}]}).encode()
        with local_endpoint([(200, body)]) as (endpoint, _):
            batches = make_batches(_prompts(["x", "y"]), ids=[7, 8])
            results = translate_batch(batches[0], endpoint)
        assert [(r.id, r.text) for r in results] == [(7, "a"), (8, "b")]

    def test_retry_schedule(self, sleeps):
        # the dictionary mock's 400 for a source it lacks would fail again: it is sent once, with no backoff
        with run_mock_server("dictionary", fixtures={}) as server:
            batches = make_batches(_prompts(["a"]), ids=[3])
            with pytest.raises(TransportError) as err:
                translate_batch(batches[0], server.endpoint)
            assert len(server.state.request_log) == 1
        assert sleeps == []
        assert "HTTP 400" in str(err.value) and err.value.prompt_ids == [3]


class TestTranslateAll:
    def test_order_preserved_across_batches(self):
        sources = [f"word{i}" for i in range(10)]
        fixtures = [f"out{i}" for i in range(10)]
        prompts = _prompts(sources)
        batches = make_batches(prompts, batch_size=3)
        with run_mock_server("dictionary", fixtures=dict(zip(sources, fixtures))) as server:
            results = translate_all(batches, server.endpoint, max_concurrent_batches=1)
        assert [r.id for r in results] == list(range(10))
        assert [r.text for r in results] == fixtures

    def test_concurrent_echo_idempotent(self):
        sources = [f"frase numero {i}" for i in range(8)]
        prompts = _prompts(sources)
        with run_mock_server("echo-fuzzy") as server:
            batches = make_batches(prompts, batch_size=2)
            first = translate_all(batches, server.endpoint, max_concurrent_batches=2)
            second = translate_all(batches, server.endpoint, max_concurrent_batches=2)
        assert [(r.id, r.text) for r in first] == [(r.id, r.text) for r in second]

    def test_stop_token_law(self):
        sources = ["a", "b", "c"]
        fixtures = ["x\ny", "plain", "q\n"]
        prompts = _prompts(sources)
        batches = make_batches(prompts, batch_size=2)
        with run_mock_server("dictionary", fixtures=dict(zip(sources, fixtures))) as server:
            results = translate_all(batches, server.endpoint)
        assert all("\n" not in r.text for r in results)

    def test_trace_file_written(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        sources = ["a"]
        batches = make_batches(_prompts(sources))
        with run_mock_server("dictionary", fixtures={"a": "ok"}) as server:
            translate_all(batches, server.endpoint, trace_path=trace)
        [record] = read_jsonl(trace)
        assert record["request"]["prompt"] == [batches[0].prompts[0].text]
        assert record["response"]["choices"][0]["text"] == "ok"
        assert (record["status"], record["attempts"], record["error"]) == (200, 1, None)
        assert isinstance(record["latency_ms"], int) and record["latency_ms"] >= 0

    @pytest.mark.parametrize("max_concurrent_batches", [1, 2])
    def test_failed_batch_traced_in_batch_order(self, max_concurrent_batches, tmp_path):
        trace = tmp_path / "trace.jsonl"
        sources = [f"s{i}" for i in range(8)]
        batches = make_batches(_prompts(sources), batch_size=2)
        # the dictionary mock answers batches 0 and 1 and refuses the rest, which hold s4-s7
        with run_mock_server("dictionary", fixtures={f"s{i}": "t" for i in range(4)}) as server:
            with pytest.raises(TransportError) as err:
                translate_all(batches, server.endpoint, max_concurrent_batches=max_concurrent_batches,
                              trace_path=trace)
        assert err.value.prompt_ids == [4, 5]
        records = read_jsonl(trace)
        # every batch sent has its line, in batch order; an unsent batch has none
        sent = [[p.text for p in b.prompts] for b in batches][: len(records)]
        assert [r["request"]["prompt"] for r in records] == sent
        # one at a time, the batch after the failed one is never sent; two at a time it may be
        assert len(records) == 3 if max_concurrent_batches == 1 else len(records) in (3, 4)
        assert [r["status"] for r in records[:3]] == [200, 200, 400]
        assert records[2]["attempts"] == 1 and "HTTP 400" in records[2]["error"]

    @pytest.mark.parametrize("max_concurrent_batches", [1, 2])
    def test_failed_batch_keeps_finished_generations(self, max_concurrent_batches, tmp_path):
        generations = tmp_path / "generations.jsonl"
        sources = [f"s{i}" for i in range(8)]
        batches = make_batches(_prompts(sources), batch_size=2)
        with run_mock_server("dictionary", fixtures={f"s{i}": f"t{i}" for i in range(4)}) as server:
            with pytest.raises(TransportError):
                translate_all(batches, server.endpoint, max_concurrent_batches=max_concurrent_batches,
                              generations=generations)
        assert read_jsonl(generations) == [{"id": i, "text": f"t{i}"} for i in range(4)]

    def test_max_concurrent_batches_below_one_rejected(self, tmp_path):
        batches = make_batches(_prompts(["a"]))
        with pytest.raises(ArgumentError, match="max_concurrent_batches"):
            translate_all(batches, "http://127.0.0.1:9", max_concurrent_batches=0,
                          trace_path=tmp_path / "trace.jsonl", generations=tmp_path / "generations.jsonl")
        assert not (tmp_path / "trace.jsonl").exists() and not (tmp_path / "generations.jsonl").exists()


def test_mock_server_rejects_unknown_mode():
    with pytest.raises(ArgumentError):
        run_mock_server("surprise")


@pytest.fixture
def mock_connections(monkeypatch) -> ConnectionLog:
    """The connections of every mock server the test starts."""
    log = ConnectionLog()
    monkeypatch.setattr(llm_client, "_MockHandler", counted(llm_client._MockHandler, log))
    return log


class TestMockConnections:
    def test_translate_all_keeps_one_connection_per_batch_in_flight(self, mock_connections):
        batches = make_batches(_prompts([f"s{i}" for i in range(25)]), batch_size=1)
        with run_mock_server("echo-fuzzy") as server:
            assert len(translate_all(batches, server.endpoint, max_concurrent_batches=2)) == 25
            assert mock_connections.wait_closed() == 0
        assert len(mock_connections.requests) <= 2 and sum(mock_connections.requests) == 25

    @pytest.mark.parametrize("max_concurrent_batches", [1, 2])
    def test_no_connection_left_open_by_a_failed_batch(self, max_concurrent_batches, mock_connections):
        batches = make_batches(_prompts([f"s{i}" for i in range(25)]), batch_size=1)
        with run_mock_server("dictionary", fixtures={f"s{i}": "t" for i in range(10)}) as server:
            with pytest.raises(TransportError):
                translate_all(batches, server.endpoint, max_concurrent_batches=max_concurrent_batches)
            assert mock_connections.wait_closed() == 0
        assert len(mock_connections.requests) <= max_concurrent_batches

    def test_remote_embedding_keeps_one_connection_per_request_in_flight(self, mock_connections):
        with run_mock_server("echo-fuzzy", embed_dim=8) as server:
            provider = EmbeddingProviderConfig(kind="remote-http", endpoint=server.endpoint + "/v1/embeddings",
                                               dim=8, batch_size=2, max_in_flight=3)
            assert embed_batch([f"text {i}" for i in range(30)], provider).shape == (30, 8)
            assert mock_connections.wait_closed() == 0
        assert len(mock_connections.requests) <= 3 and sum(mock_connections.requests) == 15

    def test_sequential_requests_do_not_wait_for_delayed_acks(self, mock_connections):
        """A reply's body goes out without waiting for the ACK of its headers: with Nagle's
        algorithm, each of these 20 requests on one connection would take about 40 ms."""
        payload = {"prompt": [_prompts(["a"])[0].text]}
        with run_mock_server("echo-fuzzy") as server:
            url = server.endpoint + "/v1/completions"
            start = time.monotonic()
            replies = _http.map_ordered(lambda _: _http.post_json(url, payload), range(20), 1)
            elapsed = time.monotonic() - start
        assert [reply.status for reply in replies] == [200] * 20 and mock_connections.requests == [20]
        assert elapsed < 0.4

    @pytest.mark.parametrize("length", [None, "abc", "-1"], ids=["missing", "not-a-number", "negative"])
    def test_body_without_a_byte_count_400_and_closed(self, length):
        """The mock cannot tell where such a body ends, so it reads none of it as the next request."""
        head = "POST /v1/completions HTTP/1.1\r\nHost: mock\r\n"
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        with run_mock_server("echo-fuzzy") as server:
            address = urlsplit(server.endpoint)
            with socket.create_connection((address.hostname, address.port), timeout=5) as sock:
                sock.sendall(head.encode() + b"\r\n{}")
                response = HTTPResponse(sock)
                response.begin()
                body = json.loads(response.read())
                assert (response.status, response.getheader("Connection")) == (400, "close")
                assert "Content-Length" in body["error"] and sock.recv(1) == b""
            assert server.state.request_log == []
