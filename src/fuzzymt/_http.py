"""The remote boundary of the embedding and completion clients.

``post_json`` holds the one retry rule: up to ATTEMPTS attempts of
TIMEOUT_SECONDS each, where only a connection error, a timeout, a 429 or a
5xx is retried, after ``BACKOFF_SECONDS * 2**(n - 2)`` before attempt n
(1, 2 and 4 s). Any other reply is final: a 4xx would fail again, and a
200 body is decoded once, so one that is not JSON is a failure with status
200. Each caller maps a failed ``Reply`` to its own typed error.

Requests go over persistent ``http.client`` connections, and no exception
from sending one or reading its body leaves ``post_json``: any reply is a
status and a body (a 3xx is not followed); an ``OSError`` (refused,
unresolved, reset, timed out, closed before a status line) is retried; a
``URLError`` (no host), a ``ValueError`` (a URL that is not http or https, a
payload holding NaN) and an ``http.client.HTTPException`` (a body shorter
than its Content-Length) end the call after that attempt. An attempt that
fails with an ``OSError`` or a short body closes its connection.

``map_ordered`` runs a client's requests and keeps their results in order,
over one pool of idle connections, keyed by the host, scheme and proxy they
reach; every connection of the pool is closed when ``map_ordered`` returns
or raises, so a call holds at most ``workers`` open at once. A
``post_json`` outside ``map_ordered`` has a pool of its own, closed when it
returns. A pooled connection that the server closed while it was idle fails
before any reply byte, with ``RemoteDisconnected``, ``BrokenPipeError`` or
``ConnectionResetError``; the request is then sent once more at once on a
new connection, which is neither an attempt nor followed by a sleep.

The proxy for a URL's scheme comes from ``http_proxy`` / ``https_proxy``
unless ``no_proxy`` names its host, as ``urllib.request`` reads them, once
per pool and URL: an http request goes to the proxy with its absolute URL,
an https one through a CONNECT tunnel, and ``user:password@`` in the proxy
URL becomes Basic proxy credentials. https uses the system trust store,
which ``SSL_CERT_FILE`` overrides; ``REQUESTS_CA_BUNDLE`` is not read.
"""

from __future__ import annotations

import base64
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from time import monotonic, sleep
from typing import Any, Callable, Sequence
from urllib.error import URLError
from urllib.parse import unquote, urlsplit
from urllib.request import Request, getproxies, proxy_bypass

API_KEY_ENV = "FUZZYMT_API_KEY"
ATTEMPTS = 4
BACKOFF_SECONDS = 1.0
TIMEOUT_SECONDS = 120.0
USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]


@dataclass(frozen=True)
class Reply:
    """Outcome of ``post_json``.

    ``body`` is the decoded JSON of a 200 reply and ``status`` the status of
    the last response (None when no attempt got one). ``error`` says why the
    last attempt failed; it is None exactly when a body was received.
    ``latency_ms`` is the wall time of the last of ``attempts`` requests; one
    sent over a reused connection pays no connect.
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


@dataclass(frozen=True)
class _Route:
    """Where a URL's requests go: the ``host`` a socket connects to, over TLS
    or not, and the https host tunnelled to through a proxy, which together
    key the pool; then the request target and headers sent there."""

    host: str
    tls: bool
    tunnel: str | None
    selector: str = field(compare=False)
    headers: dict = field(default_factory=dict, compare=False)
    tunnel_headers: dict = field(default_factory=dict, compare=False)

    def connect(self) -> HTTPConnection:
        conn = (HTTPSConnection if self.tls else HTTPConnection)(self.host, timeout=TIMEOUT_SECONDS)
        if self.tunnel:
            conn.set_tunnel(self.tunnel, headers=self.tunnel_headers)
        return conn


def _route(url: str) -> _Route:
    request = Request(url)  # a ValueError for a URL without a scheme
    if request.type not in ("http", "https"):
        raise ValueError(f"not an http or https URL: {url!r}")
    if not request.host:
        raise URLError("no host given")
    https = request.type == "https"
    proxy = getproxies().get(request.type)
    if not proxy or proxy_bypass(request.host):
        return _Route(request.host, https, None, request.selector)
    parts = urlsplit(proxy if "://" in proxy else f"{request.type}://{proxy}")
    auth = {}
    if parts.username and parts.password:
        creds = f"{unquote(parts.username)}:{unquote(parts.password)}".encode()
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(creds).decode("ascii")
    proxy_host = unquote(parts.netloc.rpartition("@")[2])
    if https:
        return _Route(proxy_host, True, request.host, request.selector, tunnel_headers=auth)
    return _Route(proxy_host, parts.scheme == "https", None, url, headers=auth)


class _Pool:
    """Each URL's route, found once because reading the proxies scans the
    whole environment, and idle connections by route; ``close`` closes
    every idle one."""

    def __init__(self):
        self._lock = threading.Lock()
        self._routes: dict[str, _Route] = {}
        self._idle: dict[_Route, list[HTTPConnection]] = {}

    def route(self, url: str) -> _Route:
        with self._lock:
            if url not in self._routes:
                self._routes[url] = _route(url)
            return self._routes[url]

    def take(self, route: _Route) -> HTTPConnection | None:
        with self._lock:
            idle = self._idle.get(route)
            return idle.pop() if idle else None

    def give(self, route: _Route, conn: HTTPConnection) -> None:
        with self._lock:
            self._idle.setdefault(route, []).append(conn)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


# the pool of the map_ordered call this thread works for, if any
_POOL: ContextVar[_Pool | None] = ContextVar("fuzzymt_http_pool", default=None)


def _exchange(pool: _Pool, route: _Route, data: bytes, headers: dict) -> tuple[int, bytes]:
    """One request and its whole reply over an idle connection of ``pool``, or a new one."""
    conn = pool.take(route)
    reused = conn is not None
    try:
        while True:
            if conn is None:
                conn = route.connect()
            try:
                conn.request("POST", route.selector, data, {**headers, **route.headers})
                response = conn.getresponse()
                break
            except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one
                if not reused:
                    raise
                conn.close()  # closed by the server while idle: once more, on a new connection
                conn, reused = None, False
        status, body = response.status, response.read()
    except BaseException:
        if conn is not None:
            conn.close()
        raise
    if conn.sock is not None:  # a reply that closes its connection leaves none to keep
        pool.give(route, conn)
    return status, body


def post_json(url: str, payload: dict) -> Reply:
    """POST ``payload`` under the retry rule; returns the first final reply or the last failure."""
    pool = _POOL.get()
    if pool is None:  # outside map_ordered: a pool for this call alone
        return map_ordered(partial(post_json, url), [payload], 1)[0]
    headers = {"Content-Type": "application/json", "User-Agent": USER_AGENT}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    status = None
    for attempt in range(1, ATTEMPTS + 1):
        if attempt > 1:
            sleep(BACKOFF_SECONDS * 2 ** (attempt - 2))
        start = monotonic()
        try:
            route = pool.route(url)
            status, body = _exchange(pool, route, json.dumps(payload, allow_nan=False).encode("utf-8"), headers)
        except OSError as exc:
            error = repr(exc)
            if isinstance(exc, URLError):  # no host: it would fail again; a failed connection or read may not
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
    done, and the items not yet started are dropped. The calls share one
    connection pool, closed before this returns or raises.
    """
    pool = _Pool()

    def pooled(item):
        token = _POOL.set(pool)
        try:
            return call(item)
        finally:
            _POOL.reset(token)

    try:
        if workers == 1 or len(items) < 2:
            return [pooled(item) for item in items]
        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(executor.map(pooled, items))
    finally:
        pool.close()
