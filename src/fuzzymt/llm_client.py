"""Completion-endpoint client with paper-style batching, plus a mock server.

The wire protocol is the OpenAI-compatible completions shape:
POST {endpoint}/v1/completions with {"model", "prompt" (array), "temperature",
"top_p", "max_tokens", "stop"} returning {"choices": [{"index", "text"}]}.
The user chooses only ``temperature`` (0, the default, is greedy decoding)
and ``top_p``. The stop is always ``prompting.STOP``, the newline that ends
every line of the prompt format, and ``make_batches`` sets each batch's
``max_tokens`` from the query sources its prompts hold.
Each batch is one request under the one retry rule of ``_http``: 4
attempts, 1, 2 and 4 s apart, for a connection error, a timeout, a 429 or a
5xx, and one for any other reply. A batch without a 200 reply raises
``TransportError`` naming its prompt ids, and a reply that is not JSON or
does not match the shape raises ``ContractViolationError``. ``translate_all``
writes two files in batch order, also when a batch fails: the trace, one line
per batch sent with its status, attempts and latency, and the generations,
one record {id, text} per prompt of every batch that got its reply. The
bundled mock server speaks the same protocol (and the embeddings shape) for
offline end-to-end runs, over HTTP/1.1 connections kept open between
requests and with TCP_NODELAY set, and each reply depends only on the
request's content. It answers 400, and closes the connection, to a request
whose Content-Length is missing or not a count of bytes. Both modes read
each prompt with ``prompting.parse_prompt`` and answer 400 to a request
holding one it rejects, or a prompt or embedding input that is not a
string. ``echo-fuzzy`` answers each prompt's last example target, even a
blank one (never an earlier example's), or nothing without an example, and
``dictionary`` looks each query source up in a lexicon, answering 400, with
the first source it lacks, to a request that holds one.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence, TextIO

from . import _http
from . import embedding as embedding_mod
from .corpus import write_jsonl_records
from .errors import ArgumentError, ContractViolationError, CorpusEncodingError, PromptError, StateError, TransportError
from .prompting import STOP, RenderedPrompt, parse_prompt

DEFAULT_BATCH_SIZE = 20
DEFAULT_TOKEN_MULTIPLIER = 4


@dataclass
class DecodingParams:
    temperature: float = 0.0  # 0 is greedy (argmax)
    top_p: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ArgumentError(f"temperature must be a finite number >= 0, got {self.temperature}")
        if not (0.0 < self.top_p <= 1.0):
            raise ArgumentError(f"top_p must be in (0,1], got {self.top_p}")


@dataclass
class TranslationRequestBatch:
    prompts: list[RenderedPrompt]
    params: DecodingParams
    ids: list[int]
    max_tokens: int


@dataclass(frozen=True)
class TranslationResult:
    id: int
    text: str


def make_batches(
    prompts: Sequence[RenderedPrompt],
    batch_size: int = DEFAULT_BATCH_SIZE,
    token_multiplier: int = DEFAULT_TOKEN_MULTIPLIER,
    params: DecodingParams | None = None,
    ids: Sequence[int] | None = None,
) -> list[TranslationRequestBatch]:
    """Chunk prompts in order; each batch's max_tokens comes from its own prompts.

    max_tokens = (largest query source word count in the batch) * token_multiplier,
    each query source as ``parse_prompt`` reads it; PromptError names the
    index of the first prompt it cannot read.
    """
    if batch_size <= 0:
        raise ArgumentError(f"batch_size must be positive, got {batch_size}")
    if token_multiplier <= 0:
        raise ArgumentError(f"token_multiplier must be positive, got {token_multiplier}")
    if ids is None:
        ids = list(range(len(prompts)))
    elif len(ids) != len(prompts):
        raise ArgumentError(f"{len(prompts)} prompts vs {len(ids)} ids")
    params = params if params is not None else DecodingParams()
    words = []
    for i, prompt in enumerate(prompts):
        try:
            words.append(len(parse_prompt(prompt.text)[1].split()))
        except ArgumentError as exc:
            raise PromptError(i, str(exc)) from None
    return [
        TranslationRequestBatch(
            prompts=list(prompts[start : start + batch_size]),
            params=params,
            ids=list(ids[start : start + batch_size]),
            max_tokens=max(words[start : start + batch_size]) * token_multiplier,
        )
        for start in range(0, len(prompts), batch_size)
    ]


def truncate_at_stop(text: str) -> str:
    """The text before the first ``STOP``, stripped."""
    return text.partition(STOP)[0].strip()


def translate_batch(
    batch: TranslationRequestBatch,
    endpoint: str,
    model: str = "default",
    trace: list[dict] | None = None,
) -> list[TranslationResult]:
    """Send one batch; returns one result per prompt in prompt order. The
    request's record is appended to ``trace`` before any error is raised."""
    payload = {
        "model": model,
        "prompt": [p.text for p in batch.prompts],
        "temperature": batch.params.temperature,
        "top_p": batch.params.top_p,
        "max_tokens": batch.max_tokens,
        "stop": [STOP],
    }
    url = endpoint.rstrip("/") + "/v1/completions"
    reply = _http.post_json(url, payload)
    if trace is not None:
        trace.append({"url": url, "request": payload, "response": reply.body, "error": reply.error,
                      "status": reply.status, "attempts": reply.attempts, "latency_ms": reply.latency_ms})
    if reply.malformed:
        raise ContractViolationError(f"{url} for prompt ids {batch.ids}: {reply.error}")
    if reply.error is not None:
        raise TransportError(
            f"{url} failed for prompt ids {batch.ids} ({reply.error})", prompt_ids=batch.ids
        )

    n = len(batch.prompts)
    choices = reply.body.get("choices") if isinstance(reply.body, dict) else None
    if not isinstance(choices, list) or len(choices) != n:
        raise ContractViolationError(f"expected {n} choices, got {choices if choices is None else len(choices)}")
    texts = [None] * n
    for choice in choices:
        index = choice.get("index") if isinstance(choice, dict) else None
        # each index an int (not a bool) in [0, n), once; with n choices they cover every prompt
        if (type(index) is not int or not 0 <= index < n or texts[index] is not None
                or not isinstance(choice.get("text"), str)):
            raise ContractViolationError(f"malformed choice {choice!r}: needs a string text and a distinct int "
                                         f"index in [0, {n})")
        texts[index] = choice["text"]
    return [TranslationResult(id=pid, text=truncate_at_stop(text)) for pid, text in zip(batch.ids, texts)]


def translate_all(
    batches: Sequence[TranslationRequestBatch],
    endpoint: str,
    model: str = "default",
    max_concurrent_batches: int = 2,
    trace_path: str | Path | None = None,
    generations: str | Path | TextIO | None = None,
) -> list[TranslationResult]:
    """Run batches (up to max_concurrent_batches in flight), results in input order.

    The trace and the generations (see the module docstring) are written
    once, when the batches are done or one has failed; ``generations`` is a
    path or an open text stream.
    """
    if max_concurrent_batches < 1:
        raise ArgumentError(f"max_concurrent_batches must be >= 1, got {max_concurrent_batches}")
    traces: list[list[dict]] = [[] for _ in batches]
    parts: list[list[TranslationResult]] = [[] for _ in batches]
    try:
        _http.map_ordered(lambda i: parts[i].extend(translate_batch(batches[i], endpoint, model, traces[i])),
                          range(len(batches)), max_concurrent_batches)
    finally:
        if trace_path is not None:
            write_jsonl_records(trace_path, (record for trace in traces for record in trace))
        if generations is not None:
            write_jsonl_records(generations, ({"id": r.id, "text": r.text} for part in parts for r in part))
    return [result for part in parts for result in part]


# -- mock server ---------------------------------------------------------------

MOCK_MODES = ("echo-fuzzy", "dictionary")


class _MockState:
    def __init__(self, mode: str, fixtures, provider: embedding_mod.EmbeddingProviderConfig):
        self.mode = mode
        self.fixtures = fixtures
        self.provider = provider
        self.lock = threading.Lock()
        self.request_log: list[dict] = []


class _MockHandler(BaseHTTPRequestHandler):
    state: _MockState
    # keep each connection open for the client's next request, and send the
    # body, written after the headers, without waiting for their ACK
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def _reply(self, code: int, payload: dict, close: bool = False) -> None:
        raw = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        if close:
            self.send_header("Connection", "close")  # also ends this connection after the reply
        self.end_headers()
        self.wfile.write(raw)

    def do_POST(self):
        length = self.headers.get("Content-Length", "")
        if not (length.isascii() and length.isdigit()):
            # the body's end is unknown, so the next request's start is too
            self._reply(400, {"error": f"Content-Length must be a count of bytes, got {length!r}"}, close=True)
            return
        try:
            payload = json.loads(self.rfile.read(int(length)).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "invalid JSON"})
            return
        state = self.state
        with state.lock:
            state.request_log.append({"path": self.path, "payload": payload})
        if self.path == "/v1/completions":
            self._completions(payload)
        elif self.path == "/v1/embeddings":
            self._embeddings(payload)
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def _completions(self, payload) -> None:
        prompts = _texts(payload, "prompt")
        if prompts is None:
            self._reply(400, {"error": "'prompt' must be a string or a list of strings"})
            return
        try:
            parsed = [parse_prompt(p) for p in prompts]
        except ArgumentError as exc:
            self._reply(400, {"error": str(exc)})
            return
        state = self.state
        if state.mode == "echo-fuzzy":
            texts = [examples[-1][1] if examples else "" for examples, _ in parsed]
        else:  # dictionary
            lexicon = state.fixtures or {}
            sources = [query for _, query in parsed]
            missing = next((s for s in sources if s not in lexicon), None)
            if missing is not None:
                self._reply(400, {"error": f"no lexicon entry for source {missing!r}"})
                return
            texts = [lexicon[s] for s in sources]
        choices = [{"index": i, "text": t} for i, t in enumerate(texts)]
        self._reply(200, {"choices": choices})

    def _embeddings(self, payload) -> None:
        inputs = _texts(payload, "input")
        if inputs is None:
            self._reply(400, {"error": "'input' must be a string or a list of strings"})
            return
        try:
            matrix = embedding_mod.embed_batch(inputs, self.state.provider)
        except (ArgumentError, CorpusEncodingError) as exc:  # no input, or a lone surrogate
            self._reply(400, {"error": str(exc)})
            return
        data = [{"index": i, "embedding": row} for i, row in enumerate(matrix.tolist())]
        self._reply(200, {"data": data})


def _texts(payload, key: str) -> list[str] | None:
    """``payload[key]`` as a list of strings, one string as a list of one and
    a missing key as none; None for any other value or a payload that is no
    JSON object."""
    texts = payload.get(key, []) if isinstance(payload, dict) else None
    if isinstance(texts, str):
        return [texts]
    if isinstance(texts, list) and all(isinstance(t, str) for t in texts):
        return texts
    return None


class MockServerHandle:
    """Running mock endpoint; close() (or the context manager) shuts it down."""

    def __init__(self, server: ThreadingHTTPServer, state: _MockState):
        self._server = server
        self.state = state
        # a short poll, so close() returns within about 0.05 s
        self._thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MockServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_mock_server(
    mode: str,
    fixtures=None,
    embed_dim: int = 384,
    embed_seed: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
) -> MockServerHandle:
    """Start a deterministic completion+embedding endpoint on a local port in
    one of ``MOCK_MODES`` (see the module docstring); ``fixtures`` is the
    dictionary lexicon."""
    if mode not in MOCK_MODES:
        raise ArgumentError(f"mode must be one of {MOCK_MODES}, got {mode!r}")
    state = _MockState(mode, fixtures, embedding_mod.EmbeddingProviderConfig(dim=embed_dim, seed=embed_seed))
    handler = type("BoundMockHandler", (_MockHandler,), {"state": state})
    try:
        server = ThreadingHTTPServer((host, port), handler)
    except OSError as exc:
        raise StateError(f"cannot bind mock server on {host}:{port}: {exc}") from exc
    return MockServerHandle(server, state)
