"""JSON POST with retries, shared by the embedding and completion clients.

A connection error or a non-200 reply is retried with exponential backoff:
the sleep before attempt n (n >= 1) is ``backoff_seconds * 2**(n - 1)``. A
200 reply ends the loop; its body is decoded once and never retried, so a
malformed body comes back as a failure with status 200. Each caller maps a
failed reply to its own typed error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import sleep
from typing import Any

import requests

API_KEY_ENV = "FUZZYMT_API_KEY"


@dataclass(frozen=True)
class Reply:
    """Outcome of ``post_json``.

    ``body`` is the decoded JSON of a 200 reply and ``status`` the status of
    the last response (None when no attempt got one). ``error`` says why the
    last attempt failed; it is None exactly when a body was received.
    """

    body: Any = None
    status: int | None = None
    error: str | None = "no attempt made"

    @property
    def malformed(self) -> bool:
        """A 200 reply arrived whose body is not JSON."""
        return self.status == 200 and self.error is not None


def post_json(url: str, payload: dict, attempts: int, backoff_seconds: float, timeout: float) -> Reply:
    """POST ``payload`` up to ``attempts`` times; returns the first 200 reply or the last failure."""
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    reply = Reply()
    for attempt in range(attempts):
        if attempt > 0:
            sleep(backoff_seconds * (2 ** (attempt - 1)))
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            reply = Reply(status=reply.status, error=repr(exc))
            continue
        if resp.status_code != 200:
            reply = Reply(status=resp.status_code, error=f"HTTP {resp.status_code}: {resp.text[:200]}")
            continue
        try:
            return Reply(body=resp.json(), status=200, error=None)
        except ValueError as exc:
            return Reply(status=200, error=f"HTTP 200 with a body that is not JSON: {exc}")
    return reply
