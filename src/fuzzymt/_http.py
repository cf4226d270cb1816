"""The remote boundary of the embedding and completion clients.

``post_json`` holds the one retry rule: up to ATTEMPTS attempts of
TIMEOUT_SECONDS each, where only a connection error, a timeout, a 429 or a
5xx is retried, after ``BACKOFF_SECONDS * 2**(n - 2)`` before attempt n
(1, 2 and 4 s). Any other reply is final: a 4xx would fail again, and a
200 body is decoded once, so one that is not JSON is a failure with status
200. Each caller maps a failed ``Reply`` to its own typed error.

Requests go through ``urllib.request``, and no exception from sending one or
reading its body leaves ``post_json``: an ``HTTPError`` is a reply with its
status and body; a ``URLError`` whose reason is an ``OSError`` and any other
``OSError`` (refused, unresolved, reset, timed out, closed before a status
line) is retried; a ``URLError`` with a text reason (no host), a
``ValueError`` (a URL that is not http or https, a payload holding NaN) and
an ``http.client.HTTPException`` (a body shorter than its Content-Length)
end the call after that attempt. https uses the system trust store, which
``SSL_CERT_FILE`` overrides; ``REQUESTS_CA_BUNDLE`` is not read.
``map_ordered`` runs a client's requests and keeps their results in order.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.client import HTTPException
from time import monotonic, sleep
from typing import Any, Callable, Sequence
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

API_KEY_ENV = "FUZZYMT_API_KEY"
ATTEMPTS = 4
BACKOFF_SECONDS = 1.0
TIMEOUT_SECONDS = 120.0


@dataclass(frozen=True)
class Reply:
    """Outcome of ``post_json``.

    ``body`` is the decoded JSON of a 200 reply and ``status`` the status of
    the last response (None when no attempt got one). ``error`` says why the
    last attempt failed; it is None exactly when a body was received.
    ``latency_ms`` is the wall time of the last of ``attempts`` requests.
    """

    body: Any
    status: int | None
    error: str | None
    attempts: int
    latency_ms: int

    @property
    def malformed(self) -> bool:
        """A 200 reply arrived whose body is not JSON."""
        return self.status == 200 and self.error is not None


def post_json(url: str, payload: dict) -> Reply:
    """POST ``payload`` under the retry rule; returns the first final reply or the last failure."""
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    status = None
    for attempt in range(1, ATTEMPTS + 1):
        if attempt > 1:
            sleep(BACKOFF_SECONDS * 2 ** (attempt - 2))
        start = monotonic()
        try:
            request = Request(url, data=json.dumps(payload, allow_nan=False).encode("utf-8"), headers=headers)
            if request.type not in ("http", "https"):
                raise ValueError(f"not an http or https URL: {url!r}")
            try:
                with urlopen(request, timeout=TIMEOUT_SECONDS) as resp:
                    status, body = resp.status, resp.read()
            except HTTPError as exc:
                with exc:
                    status, body = exc.code, exc.read()
        except OSError as exc:
            error = repr(exc)
            # a URLError with a text reason (no host) would fail again; a failed connection or read may not
            if isinstance(exc, URLError) and not isinstance(exc.reason, OSError):
                break
            continue
        except (ValueError, HTTPException) as exc:
            error = repr(exc)
            break
        finally:
            latency_ms = int((monotonic() - start) * 1000)
        if status == 200:
            try:
                return Reply(json.loads(body), 200, None, attempt, latency_ms)
            except ValueError as exc:
                return Reply(None, 200, f"HTTP 200 with a body that is not JSON: {exc}", attempt, latency_ms)
        error = f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}"
        if status != 429 and status < 500:
            break
    return Reply(None, status, error, attempt, latency_ms)


def map_ordered(call: Callable, items: Sequence, workers: int) -> list:
    """``call`` on every item, up to ``workers`` calls at once; results in item order.

    The first failure in item order is raised once the calls before it are
    done, and the items not yet started are dropped.
    """
    if workers == 1 or len(items) < 2:
        return [call(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, items))
