from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from fuzzymt import _http, embedding
from fuzzymt.ann_index import IvfConfig, IvfIndex
from fuzzymt.corpus import ParallelCorpus, SegmentPair
from fuzzymt.embedding import EmbeddingProviderConfig
from fuzzymt.retrieval import ContextStore

WORDS = [
    "paciente", "dosis", "tableta", "fiebre", "herida", "analisis", "sangre",
    "estudio", "vacuna", "sintomas", "hospital", "cirugia", "receta", "jarabe",
    "control", "presion", "arterial", "cronica", "aguda", "clinica",
]

TARGET_WORDS = [
    "patient", "dose", "tablet", "fever", "wound", "analysis", "blood",
    "study", "vaccine", "symptoms", "hospital", "surgery", "prescription",
    "syrup", "check", "pressure", "arterial", "chronic", "acute", "clinic",
]


def synth_pair(i: int, rng: random.Random) -> SegmentPair:
    n = rng.randint(4, 9)
    idx = [rng.randrange(len(WORDS)) for _ in range(n)]
    source = " ".join(WORDS[j] for j in idx) + f" {i}"
    target = " ".join(TARGET_WORDS[j] for j in idx) + f" {i}"
    return SegmentPair(id=i, source=source, target=target)


def synth_corpus(n: int, seed: int = 0, id_offset: int = 0) -> ParallelCorpus:
    rng = random.Random(seed)
    return ParallelCorpus([synth_pair(i + id_offset, rng) for i in range(n)])


def step_texts(length: int, dim: int) -> int:
    """The texts of ``length`` code points that one step of the deterministic
    provider holds: the most for texts at least that long."""
    most = embedding._STEP_BYTES // (8 * dim) + 1
    return next(embedding._steps(["x" * length] * most, dim))[1]


def empty_list_store(directory) -> ParallelCorpus:
    """Save under ``directory`` a store of 6 pairs (dim 48, seed 0) whose rows all lie in
    list 0 of 2, and return two test pairs: at nprobe 1 the first probes only the empty
    list 1, and the second, a near-duplicate of a context pair, probes list 0."""
    provider = EmbeddingProviderConfig(kind="deterministic-test", dim=48, seed=0)
    context = synth_corpus(6, seed=60, id_offset=100)
    near = context.pairs[0]
    test = ParallelCorpus([SegmentPair(0, "xilofono quetzal yunque", "xylophone quetzal anvil"),
                           SegmentPair(1, near.source + " hoy", near.target + " today")])
    rows = embedding.embed_batch(context.sources(), provider)
    lonely = embedding.embed_batch(test.sources()[:1], provider)[0]
    index = IvfIndex(IvfConfig(dim=48, nlist=2, nprobe=1), np.stack([rows.mean(axis=0), lonely]))
    index.add(context.ids(), rows)
    assert index.list_lengths() == [6, 0]
    ContextStore(corpus=context, index=index, provider=provider).save(directory)
    return test


@pytest.fixture
def small_corpus() -> ParallelCorpus:
    return synth_corpus(12, seed=3)


@pytest.fixture
def det_provider() -> EmbeddingProviderConfig:
    return EmbeddingProviderConfig(kind="deterministic-test", dim=64, seed=0)


@pytest.fixture
def small_ivf() -> IvfConfig:
    return IvfConfig(dim=64, nlist=2, nprobe=2, kmeans_iters=8, seed=0)


@pytest.fixture(autouse=True)
def sleeps(monkeypatch) -> list[float]:
    """Backoff sleeps of the shared HTTP helper, recorded instead of slept, in every test."""
    recorded: list[float] = []
    monkeypatch.setattr(_http, "sleep", recorded.append)
    return recorded


class ConnectionLog:
    """What a test server saw: ``requests[i]`` counts the requests its i-th
    connection carried, ``headers`` holds each request's headers, and ``open``
    counts the connections the client has not closed yet."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests: list[int] = []
        self.headers: list[dict] = []
        self.open = 0

    def wait_closed(self, timeout: float = 5.0) -> int:
        """The connections still open once none is, or after ``timeout`` s."""
        deadline = time.monotonic() + timeout
        while self.open and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open


def counted(handler_class: type, log: ConnectionLog) -> type:
    """A subclass of the request handler ``handler_class`` that records its connections in ``log``."""

    class Counted(handler_class):
        def setup(self):
            super().setup()
            with log.lock:
                self.connection_no = len(log.requests)
                log.requests.append(0)
                log.open += 1

        def do_POST(self):
            with log.lock:
                log.requests[self.connection_no] += 1
                log.headers.append(dict(self.headers))
            super().do_POST()

        def finish(self):
            try:
                super().finish()
            finally:
                with log.lock:
                    log.open -= 1

    return Counted


@contextmanager
def local_endpoint(replies, short_by: int = 0, connection: str = "close", log: ConnectionLog | None = None):
    """Answer the n-th POST with ``replies[n]``, a (status, body) pair, and every
    later one with the last reply; yields (endpoint, request paths). Each reply
    declares a Content-Length ``short_by`` bytes longer than its body.
    ``connection`` is "close" (an HTTP/1.0 server, one request a connection),
    "keep-alive" (HTTP/1.1, the connection kept for the next request) or
    "drop" (HTTP/1.1, yet the connection closed after each reply without
    saying so). ``log``, if given, records the connections."""
    paths: list[str] = []
    lock = threading.Lock()

    class FixedHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.0" if connection == "close" else "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, *a):
            pass

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            with lock:
                paths.append(self.path)
                status, body = replies[min(len(paths), len(replies)) - 1]
            self.send_response(status)
            self.send_header("Content-Length", str(len(body) + short_by))
            self.end_headers()
            self.wfile.write(body)
            if connection == "drop":
                self.close_connection = True

    server = ThreadingHTTPServer(("127.0.0.1", 0), FixedHandler if log is None else counted(FixedHandler, log))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", paths
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
