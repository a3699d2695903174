"""Wire-contract tests against a local stdlib HTTP server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from plan_helpers import single_chunk
from structkv import _http
from structkv.attention import HttpAttentionBackend
from structkv.errors import BackendError, ScoringError
from structkv.lexer import SourceFile, tokenize
from structkv.scoring import HttpScorer, score_chunk


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub"

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        request = json.loads(body)
        self.server.requests.append((self.path, request))
        if self.server.fail_next > 0:
            self.server.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        if self.path == "/score_ppl":
            # a fake nll keyed on payload sizes, so assertions can see the wire
            payload = {"nll_mean": len(request["chunk"]) / (1 + len(request["query"]))}
        elif self.path == "/attention":
            rng = np.random.default_rng(request["chunk_id"] * 101 + request["layer"])
            payload = {
                "q": rng.standard_normal((4, 3)).tolist(),
                "k": rng.standard_normal((self.server.key_rows, 3)).tolist(),
            }
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = json.dumps(payload).encode() if self.server.body is None else self.server.body
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.requests = []
    httpd.fail_next = 0
    httpd.key_rows = 6
    httpd.body = None  # raw bytes to reply with instead of the computed payload
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


@pytest.fixture
def sleeps(monkeypatch):
    """The delays the HTTP client sleeps, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(_http.time, "sleep", delays.append)
    return delays


def url(httpd):
    return f"http://127.0.0.1:{httpd.server_address[1]}"


class TestHttpScorer:
    def test_wire_format_and_value(self, server):
        chunk, tokens = single_chunk("total = a + b\n")
        query = tokenize(SourceFile("<q>", "total"))
        prefix = tokenize(SourceFile("<p>", "ctx"))
        scorer = HttpScorer(url(server))
        value = score_chunk(scorer, prefix, chunk, query, tokens)
        path, request = server.requests[-1]
        assert path == "/score_ppl"
        assert request == {
            "prefix": ["ctx"],
            "chunk": ["total", "=", "a", "+", "b", "\n"],
            "query": ["total"],
        }
        assert value == pytest.approx(6 / 2)

    def test_retry_then_succeed(self, server):
        server.fail_next = 1
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        scorer = HttpScorer(url(server), retries=2)
        value = score_chunk(scorer, [], chunk, query, tokens)
        assert value > 0
        assert len(server.requests) == 2

    def test_retries_exhausted_becomes_scoring_error(self, server):
        server.fail_next = 10
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        scorer = HttpScorer(url(server), retries=1)
        with pytest.raises(ScoringError) as err:
            score_chunk(scorer, [], chunk, query, tokens)
        assert err.value.chunk_id == chunk.id
        assert len(server.requests) == 2


    def test_client_error_is_not_retried(self, server):
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        scorer = HttpScorer(url(server) + "/missing", retries=3)
        with pytest.raises(ScoringError):
            score_chunk(scorer, [], chunk, query, tokens)
        assert [path for path, _ in server.requests] == ["/missing/score_ppl"]


class TestHttpAttentionBackend:
    def test_wire_format_and_shapes(self, server):
        backend = HttpAttentionBackend(url(server))
        window = backend.attention_window(chunk_id=3, layer=1, length=6)
        path, request = server.requests[-1]
        assert path == "/attention"
        assert request == {"chunk_id": 3, "layer": 1}
        assert window.q_block.shape == (4, 3)
        assert window.k_block.shape == (6, 3)
        assert window.layer == 1

    def test_key_row_mismatch_is_backend_error(self, server):
        backend = HttpAttentionBackend(url(server), retries=0)
        with pytest.raises(BackendError) as err:
            backend.attention_window(chunk_id=3, layer=1, length=99)
        assert err.value.chunk_id == 3 and err.value.layer == 1

    def test_retry_then_succeed(self, server):
        server.fail_next = 1
        backend = HttpAttentionBackend(url(server), retries=1)
        window = backend.attention_window(chunk_id=0, layer=0, length=6)
        assert window.k_block.shape[0] == 6
        assert len(server.requests) == 2

    def test_client_error_is_not_retried(self, server, sleeps):
        backend = HttpAttentionBackend(url(server) + "/missing", retries=3)
        with pytest.raises(BackendError) as err:
            backend.attention_window(chunk_id=2, layer=1, length=6)
        assert err.value.chunk_id == 2 and err.value.layer == 1
        assert [path for path, _ in server.requests] == ["/missing/attention"]
        assert sleeps == []

    def test_server_down_is_backend_error(self):
        backend = HttpAttentionBackend("http://127.0.0.1:9", retries=0, timeout_s=0.05)
        with pytest.raises(BackendError):
            backend.attention_window(0, 0, 4)

    @pytest.mark.parametrize(
        "q",
        [[1.0, 2.0, 3.0], [], [[]], [[1.0, 2.0]]],
        ids=["one-d", "empty", "no-columns", "narrower-than-k"],
    )
    def test_malformed_query_block_is_backend_error(self, server, q):
        server.body = json.dumps({"q": q, "k": [[0.5, 0.25, 1.0]] * 6}).encode()
        backend = HttpAttentionBackend(url(server), retries=0)
        with pytest.raises(BackendError) as err:
            backend.attention_window(chunk_id=4, layer=2, length=6)
        assert err.value.chunk_id == 4 and err.value.layer == 2


class TestWireDecoding:
    def test_floats_decode_exactly(self, server):
        edge = [5e-324, -0.0, 1e308, -1.7976931348623157e308, 2.2250738585072014e-308]
        seventeen = [0.1 + 0.2, 1 / 3 + 1e-16, float(np.nextafter(1.0, 2.0)), 123456789.12345679]
        q = np.array([edge[:3], edge[2:]])
        k = np.vstack(
            [np.array([seventeen[:3], seventeen[1:]]), np.random.default_rng(5).standard_normal((4, 3))]
        )
        server.body = json.dumps({"q": q.tolist(), "k": k.tolist()}).encode()
        window = HttpAttentionBackend(url(server)).attention_window(0, 0, length=6)
        assert np.array_equal(window.q_block, q) and np.array_equal(window.k_block, k)
        assert np.array_equal(np.signbit(window.q_block), np.signbit(q))

    BAD_BODIES = {
        "not-json": b"<html>upstream timeout</html>",
        "nan": b'{"q": [[NaN, 1.0, 2.0]], "k": [[1.0, 2.0, 3.0]], "nll_mean": NaN}',
        "infinity": b'{"q": [[Infinity, 1.0, 2.0]], "k": [[1.0, 2.0, 3.0]], "nll_mean": Infinity}',
        "not-utf8": b'{"q": [[1.0, 2.0, 3.0]], "k": [[1.0, 2.0, 3.0]], "nll_mean": "\xff"}',
    }

    @pytest.mark.parametrize("body", BAD_BODIES.values(), ids=BAD_BODIES.keys())
    def test_bad_attention_reply_fails_once(self, server, body):
        server.body = body
        backend = HttpAttentionBackend(url(server), retries=3)
        with pytest.raises(BackendError) as err:
            backend.attention_window(chunk_id=1, layer=3, length=1)
        assert err.value.chunk_id == 1 and err.value.layer == 3
        assert len(server.requests) == 1

    @pytest.mark.parametrize("body", BAD_BODIES.values(), ids=BAD_BODIES.keys())
    def test_bad_score_reply_fails_once(self, server, body):
        server.body = body
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        with pytest.raises(ScoringError) as err:
            score_chunk(HttpScorer(url(server), retries=3), [], chunk, query, tokens)
        assert err.value.chunk_id == chunk.id
        assert len(server.requests) == 1


class TestBackoff:
    def test_server_errors_back_off_exponentially(self, server, sleeps):
        server.fail_next = 10
        backend = HttpAttentionBackend(url(server), retries=3)
        with pytest.raises(BackendError):
            backend.attention_window(0, 0, length=6)
        assert sleeps == pytest.approx([0.05, 0.1, 0.2])
        assert len(server.requests) == 4

    def test_backoff_then_succeed(self, server, sleeps):
        server.fail_next = 2
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        score_chunk(HttpScorer(url(server), retries=2), [], chunk, query, tokens)
        assert sleeps == pytest.approx([0.05, 0.1])
        assert len(server.requests) == 3

    def test_connection_errors_back_off(self, sleeps):
        backend = HttpAttentionBackend("http://127.0.0.1:9", retries=2, timeout_s=0.05)
        with pytest.raises(BackendError):
            backend.attention_window(0, 0, 4)
        assert sleeps == pytest.approx([0.05, 0.1])
