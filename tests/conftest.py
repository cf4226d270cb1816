from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from fuzzymt import _http, embedding
from fuzzymt.ann_index import IvfConfig
from fuzzymt.corpus import ParallelCorpus, SegmentPair
from fuzzymt.embedding import EmbeddingProviderConfig

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


@contextmanager
def local_endpoint(replies, short_by: int = 0):
    """Answer the n-th POST with ``replies[n]``, a (status, body) pair, and every
    later one with the last reply; yields (endpoint, request paths). Each reply
    declares a Content-Length ``short_by`` bytes longer than its body."""
    paths: list[str] = []
    lock = threading.Lock()

    class FixedHandler(BaseHTTPRequestHandler):
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

    server = ThreadingHTTPServer(("127.0.0.1", 0), FixedHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", paths
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
