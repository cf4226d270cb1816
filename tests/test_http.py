"""The remote boundary: one retry rule for both endpoint clients, kept in ``_http``."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from fuzzymt import _http
from fuzzymt.embedding import EmbeddingProviderConfig, embed_batch
from fuzzymt.errors import ProviderError, TransportError
from fuzzymt.corpus import read_jsonl
from fuzzymt.llm_client import make_batches, translate_all, translate_batch
from fuzzymt.prompting import render_zero_shot

from conftest import ConnectionLog, local_endpoint

CLOSED_PORT = "http://127.0.0.1:9"
# one 200 body that both clients accept for a single text
OK_BODY = json.dumps({"choices": [{"index": 0, "text": "ok"}], "data": [{"embedding": [0.6, 0.8]}]}).encode()
CLIENTS = ["translate_batch", "embed_batch"]

# (replies, or None for a closed port; requests sent; whether the call succeeds)
RETRY_RULE = [
    pytest.param([(400, b"{}")], 1, False, id="400"),
    pytest.param([(404, b"{}")], 1, False, id="404"),
    pytest.param([(429, b"{}")], 4, False, id="429"),
    pytest.param([(503, b"{}")], 4, False, id="503"),
    pytest.param(None, 4, False, id="closed-port"),
    pytest.param([(503, b"{}"), (200, OK_BODY)], 2, True, id="503-then-200"),
]


def _call(client: str, endpoint: str, trace: list) -> None:
    if client == "translate_batch":
        [batch] = make_batches([render_zero_shot("a")])
        translate_batch(batch, endpoint, trace=trace)
    else:
        embed_batch(["a"], EmbeddingProviderConfig(kind="remote-http", endpoint=endpoint, dim=2))


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("replies, attempts, succeeds", RETRY_RULE)
def test_retry_rule(client, replies, attempts, succeeds, sleeps):
    trace: list[dict] = []
    status = replies[-1][0] if replies else None
    error = TransportError if client == "translate_batch" else ProviderError
    server = local_endpoint(replies) if replies else nullcontext((CLOSED_PORT, None))
    with server as (endpoint, paths):
        with nullcontext() if succeeds else pytest.raises(error) as err:
            _call(client, endpoint, trace)
    assert sleeps == [1.0, 2.0, 4.0][: attempts - 1]
    if paths is not None:
        assert len(paths) == attempts
    if client == "translate_batch":
        [record] = trace
        assert (record["status"], record["attempts"]) == (status, attempts)
    elif not succeeds:
        assert err.value.status == status and f"attempts: {attempts}" in str(err.value)


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("replies, attempts, succeeds", [p for p in RETRY_RULE if p.values[0] is not None])
def test_retry_rule_over_a_kept_alive_connection(client, replies, attempts, succeeds, sleeps):
    """Each attempt that gets a reply leaves its connection to the next, and none stays open after the call."""
    log = ConnectionLog()
    error = TransportError if client == "translate_batch" else ProviderError
    with local_endpoint(replies, connection="keep-alive", log=log) as (endpoint, paths):
        with nullcontext() if succeeds else pytest.raises(error):
            _call(client, endpoint, [])
        assert log.wait_closed() == 0
    assert sleeps == [1.0, 2.0, 4.0][: attempts - 1]
    assert (len(paths), log.requests) == (attempts, [attempts])


def test_connection_closed_while_idle_is_sent_again_at_once(sleeps, tmp_path):
    """A server that closes each connection after its reply, while advertising keep-alive, gets each
    request once: the send that finds the pooled connection closed is repeated on a new one, at once."""
    log = ConnectionLog()
    batches = make_batches([render_zero_shot(s) for s in ("a", "b", "c")], batch_size=1)
    with local_endpoint([(200, OK_BODY)], connection="drop", log=log) as (endpoint, paths):
        translate_all(batches, endpoint, max_concurrent_batches=1, trace_path=tmp_path / "trace.jsonl")
    assert [record["attempts"] for record in read_jsonl(tmp_path / "trace.jsonl")] == [1, 1, 1]
    assert (len(paths), log.requests, sleeps) == (3, [1, 1, 1], [])


def test_request_headers(monkeypatch):
    """urllib's User-Agent, the JSON content type and the API key as a bearer token."""
    monkeypatch.setenv(_http.API_KEY_ENV, "key")
    log = ConnectionLog()
    with local_endpoint([(200, b"{}")], log=log) as (endpoint, _):
        _http.post_json(endpoint, {})
    [headers] = log.headers
    assert headers["User-Agent"] == "Python-urllib/%d.%d" % sys.version_info[:2]
    assert (headers["Content-Type"], headers["Authorization"]) == ("application/json", "Bearer key")


PROXY_SCRIPT = "import sys; from fuzzymt import _http; print(_http.post_json(sys.argv[1], {}).status)"


@pytest.mark.parametrize("bypass", [False, True], ids=["http_proxy", "no_proxy"])
def test_proxy_from_the_environment(bypass):
    """The http_proxy of the environment gets the request with its absolute URL as the
    path, unless no_proxy names the host, which is then reached directly."""
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(_http.__file__).resolve().parents[1]),
                                                      os.environ.get("PYTHONPATH")]))
    with local_endpoint([(200, b"{}")]) as (proxy, proxied), local_endpoint([(200, b"{}")]) as (direct, reached):
        env["http_proxy"] = proxy
        if bypass:
            env["no_proxy"] = "127.0.0.1"
        url = direct + "/v1/completions" if bypass else "http://example.invalid/v1/completions"
        proc = subprocess.run([sys.executable, "-c", PROXY_SCRIPT, url], capture_output=True, text=True, env=env,
                              timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "200\n")
    if bypass:
        assert (proxied, reached) == ([], ["/v1/completions"])
    else:
        assert (proxied, reached) == (["http://example.invalid/v1/completions"], [])


def test_reply_reports_attempts_and_latency():
    with local_endpoint([(500, b"busy"), (200, b'{"x": 1}')]) as (endpoint, _):
        reply = _http.post_json(endpoint, {})
    assert (reply.body, reply.status, reply.error, reply.attempts) == ({"x": 1}, 200, None, 2)
    assert isinstance(reply.latency_ms, int) and reply.latency_ms >= 0


@pytest.mark.parametrize("status, body", [(200, OK_BODY), (503, b"busy")], ids=["200", "503"])
def test_short_body_is_a_final_failure(status, body, sleeps):
    """A reply that ends before its declared Content-Length is not retried and raises nothing."""
    with local_endpoint([(status, body)], short_by=10) as (endpoint, paths):
        reply = _http.post_json(endpoint, {})
    assert (reply.body, reply.status, reply.attempts, len(paths), sleeps) == (None, None, 1, 1, [])
    assert "IncompleteRead" in reply.error


@pytest.mark.parametrize(
    "url, payload, error",
    [
        ("example.invalid/v1", {}, ("ValueError", "unknown url type")),
        ("127.0.0.1:9/v1", {}, ("ValueError", "not an http or https URL")),
        ("file:///dev/null", {}, ("ValueError", "not an http or https URL")),
        ("http:///v1", {}, ("URLError", "no host given")),
        (CLOSED_PORT, {"x": float("nan")}, ("ValueError", "not JSON compliant")),
    ],
    ids=["no-scheme", "host-as-scheme", "file-scheme", "no-host", "nan-payload"],
)
def test_unsendable_request_is_a_final_failure(url, payload, error, sleeps):
    reply = _http.post_json(url, payload)
    assert (reply.body, reply.status, reply.attempts, sleeps) == (None, None, 1, [])
    assert reply.error.startswith(error[0] + "(") and error[1] in reply.error


def test_clients_run_without_requests():
    """Every module imports, and both clients reach the mock, with ``requests`` unimportable."""
    script = """
import importlib, pkgutil, sys
sys.modules["requests"] = None
import fuzzymt
for module in pkgutil.iter_modules(fuzzymt.__path__):
    importlib.import_module("fuzzymt." + module.name)
from fuzzymt.embedding import EmbeddingProviderConfig, embed_batch
from fuzzymt.llm_client import make_batches, run_mock_server, translate_batch
from fuzzymt.prompting import render_zero_shot
with run_mock_server("dictionary", fixtures={"uno": "one"}, embed_dim=2) as server:
    [batch] = make_batches([render_zero_shot("uno")])
    print(translate_batch(batch, server.endpoint)[0].text)
    provider = EmbeddingProviderConfig(kind="remote-http", endpoint=server.endpoint + "/v1/embeddings", dim=2)
    print(embed_batch(["uno"], provider).shape)
"""
    src = str(Path(_http.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["one", "(1, 2)"]


def test_map_ordered_keeps_item_order():
    assert _http.map_ordered(lambda i: i * i, range(7), 3) == [i * i for i in range(7)]
    assert _http.map_ordered(lambda i: i, [], 2) == []


# the names through which code could send a request, open a connection, sleep or start a pool itself
BOUNDARY_NAMES = {"requests", "urllib", "urlopen", "client", "HTTPConnection", "HTTPSConnection", "sleep",
                  "ThreadPoolExecutor"}


def test_only_http_module_sends_sleeps_or_pools():
    src = Path(__file__).resolve().parents[1] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "_http.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names & BOUNDARY_NAMES)]
    assert offenders == []
