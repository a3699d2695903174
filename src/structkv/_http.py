"""The JSON-over-HTTP client shared by the scorer and attention backends."""

from __future__ import annotations

import itertools
import json
import time
from functools import partial
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import SplitResult, urlsplit

from .errors import ConfigError
from .plan import decode_json

# Seconds to wait before the first retry; each further retry waits twice as long.
BACKOFF_S = 0.05


def split_url(url: str) -> SplitResult:
    """``url`` split into its parts, or :class:`ConfigError` when it is not
    an ``http`` or ``https`` URL that names a host and, if any, a port that
    parses, or when it holds credentials, which the client would not send."""
    try:
        parts = urlsplit(url)
        parts.port  # raises for a port that is no integer in range
    except ValueError as exc:
        raise ConfigError(f"url {url!r}: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"url {url!r} must start with http:// or https:// and name a host")
    if parts.username is not None:  # not echoed: it holds a secret
        raise ConfigError("url must not hold credentials (user:password@host)")
    return parts


class HttpClient:
    """One backend root URL, a per-request timeout and a retry budget, and
    the connections kept alive to it: one per thread posting at a time.
    ``close`` closes them, as does leaving a ``with`` block."""

    def __init__(self, base_url: str, timeout_s: float = 30.0, retries: int = 2):
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        url = split_url(self.base_url)
        connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._connect = partial(connection, url.hostname, url.port, timeout=timeout_s)
        self._path = url.path  # the root's path prefix
        self._idle: list[HTTPConnection] = []  # list.pop and list.append are atomic

    def __enter__(self) -> HttpClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every kept connection; a later request opens a new one."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, route: str, payload: dict) -> object:
        """POST ``payload`` as JSON to ``route`` and return the decoded reply.

        Connection errors, timeouts and 5xx replies are retried up to
        ``retries`` times, sleeping ``BACKOFF_S``, then twice that, and so
        on before each retry; the last failure is raised as an
        ``HTTPException`` naming the URL. Any other reply but a 2xx, a 4xx
        included, raises one naming the URL and the status at once. The
        reply must be strict UTF-8 JSON: a body that is not, or that holds
        a ``NaN`` or ``Infinity`` literal, raises :class:`SchemaError` (a
        ``ValueError``) naming the URL, and is not retried.
        """
        url = self.base_url + route
        body = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json", "Content-Length": str(len(body))}
        for attempt in itertools.count():
            try:
                status, reason, data = self._exchange(self._path + route, body, headers)
            except (OSError, HTTPException) as exc:
                if attempt >= self.retries:
                    raise HTTPException(f"{url}: {type(exc).__name__}: {exc}") from exc
            else:
                if status < 500 or attempt >= self.retries:
                    if not 200 <= status < 300:
                        raise HTTPException(f"{url}: HTTP {status} {reason}")
                    return decode_json(data, url)
            time.sleep(BACKOFF_S * 2**attempt)

    def _exchange(self, path: str, body: bytes, headers: dict) -> tuple[int, str, bytes]:
        """One POST on an idle connection, else a new one: (status, reason,
        body). The connection is kept only once its reply is read whole."""
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connect()
        try:
            reused = conn.sock is not None
            try:
                conn.request("POST", path, body, headers)
                resp = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected included
                if not reused:
                    raise
                # The server closed the idle connection before this request
                # reached it: send it once more on a new one.
                conn.close()
                conn.request("POST", path, body, headers)
                resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        self._idle.append(conn)
        return resp.status, resp.reason, data
