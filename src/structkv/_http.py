"""The JSON-over-HTTP client shared by the scorer and attention backends."""

from __future__ import annotations

import itertools
import time

import requests

from .plan import decode_json

# Seconds to wait before the first retry; each further retry waits twice as long.
BACKOFF_S = 0.05


class HttpClient:
    """One backend root URL, a per-request timeout and a retry budget."""

    def __init__(self, base_url: str, timeout_s: float = 30.0, retries: int = 2):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries

    def _post(self, route: str, payload: dict) -> object:
        """POST ``payload`` as JSON to ``route`` and return the decoded reply.

        Connection errors, timeouts and 5xx replies are retried up to
        ``retries`` times, sleeping ``BACKOFF_S``, then twice that, and so
        on before each retry; the last failure is raised. Any other failure,
        a 4xx reply included, raises at once. The reply must be strict UTF-8
        JSON: a body that is not, or that holds a ``NaN`` or ``Infinity``
        literal, raises :class:`SchemaError` (a ``ValueError``) naming the
        URL, and is not retried.
        """
        for attempt in itertools.count():
            try:
                resp = requests.post(self.base_url + route, json=payload, timeout=self.timeout_s)
            except (requests.ConnectionError, requests.Timeout):
                if attempt >= self.retries:
                    raise
            else:
                if resp.status_code < 500 or attempt >= self.retries:
                    resp.raise_for_status()
                    return decode_json(resp.content, self.base_url + route)
            time.sleep(BACKOFF_S * 2**attempt)
