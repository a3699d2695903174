"""Model-server stand-in that serves exactly the mock backends' values.

``/score_ppl`` re-lexes each token text it receives to recover which ones
are identifiers, then asks ``MockScorer`` for the score. ``/attention``
returns ``MockAttentionBackend``'s Q/K blocks for the (chunk, layer), using
the chunk lengths posted to ``/configure``. A plan made through the HTTP
backends against this server must therefore equal the mock plan.

Replies are HTTP/1.1 and leave the connection open, so a client that
keeps connections alive can reuse them. Each response goes out in one
write, headers and body together, so the client never waits on a delayed
ACK between the two.

Run: ``python3 -m perfbench.stub_server`` with ``src`` on PYTHONPATH. It
prints its port on the first line of stdout and serves until its stdin
closes, so it also ends when the process that started it dies.
"""

from __future__ import annotations

import json
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from structkv.attention import MockAttentionBackend
from structkv.lexer import SourceFile, tokenize
from structkv.scoring import MockScorer


class StubState:
    def __init__(self) -> None:
        self.backend: MockAttentionBackend | None = None
        self.lengths: dict[int, int] = {}
        self.scorer = MockScorer()
        self._tokens: dict[str, object] = {}

    def configure(self, doc: dict) -> dict:
        self.backend = MockAttentionBackend(doc["seed"], doc["window"], doc["dim"])
        self.lengths = {int(k): v for k, v in doc["lengths"].items()}
        return {"chunks": len(self.lengths)}

    def _token(self, text: str):
        """The token ``text`` lexes to on its own, or None if it does not
        lex to exactly one token. Cached: corpora repeat texts a lot."""
        if text not in self._tokens:
            toks = tokenize(SourceFile("<wire>", text))
            self._tokens[text] = toks[0] if len(toks) == 1 and toks[0].text == text else None
        return self._tokens[text]

    def _relex(self, texts: list[str]) -> list:
        return [t for t in map(self._token, texts) if t is not None]

    def score(self, doc: dict) -> dict:
        value = self.scorer.score(
            self._relex(doc["prefix"]), self._relex(doc["chunk"]), self._relex(doc["query"])
        )
        return {"nll_mean": value}

    def attention(self, doc: dict) -> dict:
        if self.backend is None:
            raise KeyError("POST /configure first")
        chunk_id, layer = doc["chunk_id"], doc["layer"]
        window = self.backend.attention_window(chunk_id, layer, self.lengths[chunk_id])
        return {"q": window.q_block.tolist(), "k": window.k_block.tolist()}


class Handler(BaseHTTPRequestHandler):
    server_version = "structkv-stub"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_POST(self) -> None:
        state: StubState = self.server.state
        routes = {"/configure": state.configure, "/score_ppl": state.score,
                  "/attention": state.attention}
        # Read the body whatever the route, so the next request on this
        # connection starts where it should.
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        route = routes.get(self.path)
        if route is None:
            self._reply(HTTPStatus.NOT_FOUND, {"error": self.path})
            return
        try:
            payload = route(json.loads(body))
        except (KeyError, ValueError, TypeError) as exc:
            self._reply(HTTPStatus.BAD_REQUEST, {"error": repr(exc)})
            return
        self._reply(HTTPStatus.OK, payload)

    def _reply(self, status: HTTPStatus, payload: dict) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"{self.protocol_version} {status.value} {status.phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)


def serve() -> ThreadingHTTPServer:
    """A started server on a free loopback port, on its own thread; call
    ``shutdown()`` to stop it."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    httpd.daemon_threads = True
    httpd.state = StubState()
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    return httpd


def main() -> None:
    httpd = serve()
    print(httpd.server_address[1], flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or dies
    finally:
        httpd.shutdown()
        httpd.server_close()


if __name__ == "__main__":
    main()
