"""Golden behaviour contract: the bytes every CLI stage writes, pinned by SHA-256.

The CLI chain below runs in-process on the seeded inputs of
``tests/data/golden/`` (307 accented Spanish-English context rows: 298
distinct pairs, six of them a second translation of a source whose two rows
then score a bit-equal tie, plus duplicate, blank and over-length rows for
``filter``; 40 test pairs, 32 of them near-duplicates of a context pair; a
``dictionary`` lexicon; a run config), against ``run_mock_server``:

filter, split, index-build (flat, and IVF with ``FLAT_MAX_ROWS`` patched to 0
and nlist inside the 4*sqrt(N)-16*sqrt(N) band), index-search, retrieve,
prompts (both conditions, default language names), export-dataset, manifest,
translate (both dumps against the ``dictionary`` mock, the one-shot dump also
against ``echo-fuzzy``), evaluate, run (``echo-fuzzy``) and report.

Every file a stage writes and every stdout is compared with the digest in
``tests/data/golden/expected.json``, except what legitimately varies:

- ``run_meta.json`` (timings, timestamps, a config digest that hashes the
  endpoint) is not pinned;
- a trace record is pinned with its ``latency_ms`` and ``url`` (which holds
  the mock's port) removed, so its request, with the batch's ``max_tokens``,
  and its response still are;
- the IVF store's ``index.ivf`` and ``store.json`` (which holds the index's
  digest) are not pinned, as k-means sums with float64 BLAS matmuls; its
  search hits and scores are.

Any warning fails the chain. The test never writes ``expected.json``. A change
that alters a digest on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden.py --write

and lists each changed artifact, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from fuzzymt import cli, retrieval
from fuzzymt.corpus import read_json, read_jsonl, write_jsonl_records
from fuzzymt.llm_client import run_mock_server

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = GOLDEN / "expected.json"
INPUTS = ("context.tsv", "test.tsv", "queries.txt", "lexicon.json", "run.json")
# the trace fields that vary between identical runs: wall time and the mock's port
VOLATILE_TRACE_KEYS = ("latency_ms", "url")
IVF_NLIST = 80  # the split's 268 train pairs give the band [65, 262]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_digest(path: Path) -> str:
    records = [{k: v for k, v in r.items() if k not in VOLATILE_TRACE_KEYS} for r in read_jsonl(path)]
    return _sha256(json.dumps(records, ensure_ascii=False, sort_keys=True).encode("utf-8"))


def _cli(digests: dict[str, str], name: str, argv: list[str]) -> None:
    """Run one subcommand; it must exit 0, and its stdout is pinned as ``name``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, f"{name}: fuzzymt {' '.join(argv)} exited {code}"
    digests[f"stdout:{name}"] = _sha256(out.getvalue().encode("utf-8"))


def _chain(dictionary: str, echo: str) -> dict[str, str]:
    """Run the CLI chain in the current directory, holding copies of the inputs."""
    digests: dict[str, str] = {}
    _cli(digests, "filter", ["filter", "--in", "context.tsv", "--out", "ctx.filtered.tsv"])
    _cli(digests, "split", ["split", "--in", "ctx.filtered.tsv", "--out", "split", "--validation-size", "30",
                            "--seed", "7"])
    provider = ["--dim", "128", "--seed", "5"]
    _cli(digests, "index-build", ["index-build", "--in", "split.train.tsv", "--out", "store", *provider])
    _cli(digests, "index-search", ["index-search", "--index", "store", "--queries", "queries.txt", "-k", "3",
                                   *provider])
    flat_max_rows = retrieval.FLAT_MAX_ROWS
    retrieval.FLAT_MAX_ROWS = 0  # the IVF path, on a small corpus
    try:
        _cli(digests, "index-build-ivf", ["index-build", "--in", "split.train.tsv", "--out", "store-ivf",
                                          "--nlist", str(IVF_NLIST), "--kmeans-iters", "5", *provider])
    finally:
        retrieval.FLAT_MAX_ROWS = flat_max_rows
    _cli(digests, "index-search-ivf", ["index-search", "--index", "store-ivf", "--queries", "queries.txt",
                                       "-k", "3", "--nprobe", "8", *provider])
    _cli(digests, "retrieve", ["retrieve", "--in", "test.tsv", "--context", "store", "-k", "2",
                               "--out", "retrieval.jsonl", *provider])
    _cli(digests, "prompts-zero", ["prompts", "--in", "test.tsv", "--out", "prompts.zero.jsonl"])
    _cli(digests, "prompts-one", ["prompts", "--in", "test.tsv", "--condition", "one-shot", "--context", "store",
                                  "--out", "prompts.one.jsonl", *provider])
    _cli(digests, "export-dataset", ["export-dataset", "--in", "split.train.tsv", "--context", "store",
                                     "--total", "200", "--ratio", "0.5", "--validation-size", "20",
                                     "--out", "export", *provider])
    _cli(digests, "manifest", ["manifest", "--out", "manifest.json"])
    for dump, endpoint, out in (("zero", dictionary, "gen.zero.dict"), ("one", dictionary, "gen.one.dict"),
                                ("one", echo, "gen.one.echo")):
        _cli(digests, out, ["translate", "--in", f"prompts.{dump}.jsonl", "--endpoint", endpoint,
                            "--batch-size", "8", "--out", f"{out}.jsonl", "--trace", f"{out}.trace.jsonl"])
    references = {r["id"]: r["reference"] for r in read_jsonl("prompts.one.jsonl")}
    write_jsonl_records("eval.jsonl", ({"hypothesis": g["text"], "reference": references[g["id"]]}
                                       for g in read_jsonl("gen.one.dict.jsonl")))
    _cli(digests, "evaluate", ["evaluate", "--in", "eval.jsonl", "--out", "scores.json"])
    config = read_json("run.json")
    config["endpoint"] = echo
    Path("run.json").write_text(json.dumps(config), encoding="utf-8")
    _cli(digests, "run", ["run", "--config", "run.json"])
    _cli(digests, "report-tsv", ["report", "--in", "run/report.json", "--format", "tsv"])
    _cli(digests, "report-md", ["report", "--in", "run/report.json", "--out", "table.md"])

    # store.json holds index.ivf's digest
    skipped = {*INPUTS, "eval.jsonl", "run/run_meta.json", "store-ivf/index.ivf", "store-ivf/store.json"}
    for path in sorted(Path(".").rglob("*")):
        name = path.as_posix()
        if path.is_file() and name not in skipped:
            is_trace = name.endswith("trace.jsonl") or path.name.startswith("trace.")
            digests[name] = _trace_digest(path) if is_trace else _sha256(path.read_bytes())
    return digests


def golden_digests(workdir: Path) -> dict[str, str]:
    """Copy the inputs into ``workdir``, run the chain there against two mock
    servers, and return every pinned digest by artifact name."""
    for name in INPUTS:
        shutil.copyfile(GOLDEN / name, workdir / name)
    lexicon = read_json(GOLDEN / "lexicon.json")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with run_mock_server("dictionary", fixtures=lexicon) as dictionary, run_mock_server("echo-fuzzy") as echo:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return _chain(dictionary.endpoint, echo.endpoint)
    finally:
        os.chdir(cwd)


def test_golden_artifacts(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    actual = golden_digests(tmp_path)
    assert sorted(actual) == sorted(expected), "the set of pinned artifacts changed"
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"golden digests changed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    EXPECTED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {EXPECTED}")
