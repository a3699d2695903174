"""Wire-contract tests against a local stdlib HTTP server."""

import dataclasses
import json
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from plan_helpers import (
    GOLDEN_FILES,
    GOLDEN_QUERY,
    golden_config,
    sans_fingerprint,
    single_chunk,
    stub_config,
)
from structkv import _http
from structkv.attention import HttpAttentionBackend
from structkv.errors import BackendError, ScoringError
from structkv.lexer import SourceFile, tokenize
from structkv.pipeline import run_pipeline
from structkv.scoring import HttpScorer, score_chunk


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub"
    protocol_version = "HTTP/1.1"  # connections stay open unless a reply closes them

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        self.server.connections.append(self.client_address)

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        request = json.loads(body)
        self.server.requests.append((self.path, request))
        # close after the reply, without saying so in a Connection header
        self.close_connection = self.server.close_after_reply
        if self.server.drop_next > 0:
            self.server.drop_next -= 1
            self.close_connection = True
            return  # no reply: the client reads a closed connection
        if self.server.fail_next > 0:
            self.server.fail_next -= 1
            return self._reply(500)
        if len(self.server.requests) > self.server.ok_requests:
            return self._reply(400)
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
            return self._reply(404)
        data = json.dumps(payload).encode() if self.server.body is None else self.server.body
        self._reply(200, data)

    def _reply(self, status, data=b""):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True  # a handler waits on its open connection
    httpd.requests = []
    httpd.connections = []  # the client address of each accepted connection
    httpd.fail_next = 0
    httpd.drop_next = 0  # requests whose connection closes without a reply
    httpd.ok_requests = float("inf")  # later requests get a 400
    httpd.close_after_reply = False
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


@pytest.fixture
def opened(monkeypatch):
    """Every connection the HTTP clients make, each with the paths it posted to."""
    made = []

    class Recorded(HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.paths = set()
            made.append(self)

        def request(self, method, path, *args, **kwargs):
            self.paths.add(path)
            return super().request(method, path, *args, **kwargs)

    monkeypatch.setattr(_http, "HTTPConnection", Recorded)
    return made


def url(httpd):
    return f"http://127.0.0.1:{httpd.server_address[1]}"


class TestHttpScorer:
    def test_wire_format_and_value(self, server):
        chunk, tokens = single_chunk("total = a + b\n")
        query = tokenize(SourceFile("<q>", "total"))
        prefix = tokenize(SourceFile("<p>", "ctx"))
        with HttpScorer(url(server)) as scorer:
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
        with HttpScorer(url(server), retries=2) as scorer:
            value = score_chunk(scorer, [], chunk, query, tokens)
        assert value > 0
        assert len(server.requests) == 2

    def test_retries_exhausted_becomes_scoring_error(self, server):
        server.fail_next = 10
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        with HttpScorer(url(server), retries=1) as scorer:
            with pytest.raises(ScoringError) as err:
                score_chunk(scorer, [], chunk, query, tokens)
        assert err.value.chunk_id == chunk.id
        assert f"{url(server)}/score_ppl: HTTP 500" in str(err.value)
        assert len(server.requests) == 2

    def test_client_error_is_not_retried(self, server):
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        with HttpScorer(url(server) + "/missing", retries=3) as scorer:
            with pytest.raises(ScoringError) as err:
                score_chunk(scorer, [], chunk, query, tokens)
        assert f"{url(server)}/missing/score_ppl: HTTP 404 Not Found" in str(err.value)
        assert [path for path, _ in server.requests] == ["/missing/score_ppl"]


class TestHttpAttentionBackend:
    def test_wire_format_and_shapes(self, server):
        with HttpAttentionBackend(url(server)) as backend:
            window = backend.attention_window(chunk_id=3, layer=1, length=6)
        path, request = server.requests[-1]
        assert path == "/attention"
        assert request == {"chunk_id": 3, "layer": 1}
        assert window.q_block.shape == (4, 3)
        assert window.k_block.shape == (6, 3)
        assert window.layer == 1

    def test_key_row_mismatch_is_backend_error(self, server):
        with HttpAttentionBackend(url(server), retries=0) as backend:
            with pytest.raises(BackendError) as err:
                backend.attention_window(chunk_id=3, layer=1, length=99)
        assert err.value.chunk_id == 3 and err.value.layer == 1

    def test_retry_then_succeed(self, server):
        server.fail_next = 1
        with HttpAttentionBackend(url(server), retries=1) as backend:
            window = backend.attention_window(chunk_id=0, layer=0, length=6)
        assert window.k_block.shape[0] == 6
        assert len(server.requests) == 2

    def test_client_error_is_not_retried(self, server, sleeps):
        with HttpAttentionBackend(url(server) + "/missing", retries=3) as backend:
            with pytest.raises(BackendError) as err:
                backend.attention_window(chunk_id=2, layer=1, length=6)
        assert err.value.chunk_id == 2 and err.value.layer == 1
        assert f"{url(server)}/missing/attention: HTTP 404 Not Found" in str(err.value)
        assert [path for path, _ in server.requests] == ["/missing/attention"]
        assert sleeps == []

    def test_server_down_is_backend_error(self):
        with HttpAttentionBackend("http://127.0.0.1:9", retries=0, timeout_s=0.05) as backend:
            with pytest.raises(BackendError) as err:
                backend.attention_window(0, 0, 4)
        assert "http://127.0.0.1:9/attention: ConnectionRefusedError" in str(err.value)

    @pytest.mark.parametrize(
        "q",
        [[1.0, 2.0, 3.0], [], [[]], [[1.0, 2.0]]],
        ids=["one-d", "empty", "no-columns", "narrower-than-k"],
    )
    def test_malformed_query_block_is_backend_error(self, server, q):
        server.body = json.dumps({"q": q, "k": [[0.5, 0.25, 1.0]] * 6}).encode()
        with HttpAttentionBackend(url(server), retries=0) as backend:
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
        with HttpAttentionBackend(url(server)) as backend:
            window = backend.attention_window(0, 0, length=6)
        assert np.array_equal(window.q_block, q) and np.array_equal(window.k_block, k)
        assert np.array_equal(np.signbit(window.q_block), np.signbit(q))

    BAD_BODIES = {
        "not-json": b"<html>upstream timeout</html>",
        "nan": b'{"q": [[NaN, 1.0, 2.0]], "k": [[1.0, 2.0, 3.0]], "nll_mean": NaN}',
        "infinity": b'{"q": [[Infinity, 1.0, 2.0]], "k": [[1.0, 2.0, 3.0]], "nll_mean": Infinity}',
        "not-utf8": b'{"q": [[1.0, 2.0, 3.0]], "k": [[1.0, 2.0, 3.0]], "nll_mean": "\xff"}',
        "string-numbers": b'{"q": [["1.0", "2.0", "3.0"]], "k": [["1", "2", "3"]], "nll_mean": "0.5"}',
        "booleans": b'{"q": [[1.0, true, 2.0]], "k": [[1.0, 2.0, 3.0]], "nll_mean": true}',
    }
    INVALID_JSON = {"not-json", "nan", "infinity", "not-utf8"}

    @pytest.mark.parametrize(("name", "body"), BAD_BODIES.items(), ids=BAD_BODIES.keys())
    def test_bad_attention_reply_fails_once(self, server, name, body):
        server.body = body
        with HttpAttentionBackend(url(server), retries=3) as backend:
            with pytest.raises(BackendError) as err:
                backend.attention_window(chunk_id=1, layer=3, length=1)
        assert err.value.chunk_id == 1 and err.value.layer == 3
        if name in self.INVALID_JSON:  # decoded by the one strict reader, which names the URL
            assert f"{url(server)}/attention: invalid JSON" in str(err.value)
        assert len(server.requests) == 1

    @pytest.mark.parametrize(("name", "body"), BAD_BODIES.items(), ids=BAD_BODIES.keys())
    def test_bad_score_reply_fails_once(self, server, name, body):
        server.body = body
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        with HttpScorer(url(server), retries=3) as scorer:
            with pytest.raises(ScoringError) as err:
                score_chunk(scorer, [], chunk, query, tokens)
        assert err.value.chunk_id == chunk.id
        if name in self.INVALID_JSON:
            assert f"{url(server)}/score_ppl: invalid JSON" in str(err.value)
        assert len(server.requests) == 1


class TestBackoff:
    def test_server_errors_back_off_exponentially(self, server, sleeps):
        server.fail_next = 10
        with HttpAttentionBackend(url(server), retries=3) as backend:
            with pytest.raises(BackendError):
                backend.attention_window(0, 0, length=6)
        assert sleeps == pytest.approx([0.05, 0.1, 0.2])
        assert len(server.requests) == 4

    def test_backoff_then_succeed(self, server, sleeps):
        server.fail_next = 2
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        with HttpScorer(url(server), retries=2) as scorer:
            score_chunk(scorer, [], chunk, query, tokens)
        assert sleeps == pytest.approx([0.05, 0.1])
        assert len(server.requests) == 3

    def test_connection_errors_back_off(self, sleeps):
        with HttpAttentionBackend("http://127.0.0.1:9", retries=2, timeout_s=0.05) as backend:
            with pytest.raises(BackendError):
                backend.attention_window(0, 0, 4)
        assert sleeps == pytest.approx([0.05, 0.1])


class TestConnections:
    def test_one_connection_serves_every_request(self, server):
        with HttpAttentionBackend(url(server)) as backend:
            for chunk_id in range(20):
                backend.attention_window(chunk_id, layer=0, length=6)
        assert len(server.requests) == 20
        assert len(server.connections) == 1

    def test_connections_the_server_closes_are_reopened(self, server):
        # The server drops each connection after its reply without a
        # Connection: close header, so the client finds out on its next
        # request; that request goes once more on a new connection, which
        # uses up no retry.
        server.close_after_reply = True
        with HttpAttentionBackend(url(server), retries=0) as backend:
            for chunk_id in range(10):
                backend.attention_window(chunk_id, layer=0, length=6)
        assert [request["chunk_id"] for _, request in server.requests] == list(range(10))
        assert len(server.connections) == 10

    def test_a_reset_on_a_new_connection_uses_up_a_retry(self, server, sleeps):
        # Only an idle connection the server closed is worth one more try at
        # once; a request that a new connection loses is retried as any
        # connection error is, after a backoff.
        server.drop_next = 1
        with HttpAttentionBackend(url(server), retries=0) as backend:
            with pytest.raises(BackendError, match="RemoteDisconnected"):
                backend.attention_window(0, 0, length=6)
        assert len(server.requests) == 1 and sleeps == []
        server.drop_next = 1
        with HttpAttentionBackend(url(server), retries=1) as backend:
            backend.attention_window(0, 0, length=6)
        assert len(server.requests) == 3 and sleeps == pytest.approx([0.05])

    def test_close_closes_every_connection(self, server, opened):
        scorer = HttpScorer(url(server))
        chunk, tokens = single_chunk("x = 1\n")
        query = tokenize(SourceFile("<q>", "x"))
        for _ in range(3):
            score_chunk(scorer, [], chunk, query, tokens)
        assert len(opened) == 1 and opened[0].sock is not None
        scorer.close()
        assert opened[0].sock is None

    @pytest.mark.parametrize("stage", ["scoring", "attention"])
    def test_a_plan_that_fails_midway_leaves_no_connection_open(self, server, opened, stage):
        if stage == "scoring":
            server.ok_requests = 1  # the second score request gets a 400
        # else every attention reply has 6 key rows, which no golden chunk has
        cfg = golden_config(workers=2)
        cfg = dataclasses.replace(
            cfg,
            scorer=dataclasses.replace(cfg.scorer, backend="http", url=url(server), retries=0),
            attention=dataclasses.replace(cfg.attention, backend="http", url=url(server)),
        )
        with pytest.raises(ScoringError if stage == "scoring" else BackendError):
            run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        posted = {path for conn in opened for path in conn.paths}
        assert posted == ({"/score_ppl"} if stage == "scoring" else {"/score_ppl", "/attention"})
        assert all(conn.sock is None for conn in opened)

    def test_two_workers_write_the_mock_plan(self, stub, opened):
        mock_cfg = golden_config()
        mock_plan, mock_report = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, mock_cfg)
        cfg = stub_config(stub, GOLDEN_FILES, mock_cfg)
        outputs = []
        for workers in (1, 2):
            del opened[:]
            plan, report = run_pipeline(
                GOLDEN_FILES, GOLDEN_QUERY, dataclasses.replace(cfg, workers=workers)
            )
            outputs.append(plan.to_json())
            assert sans_fingerprint(plan.to_json()) == sans_fingerprint(mock_plan.to_json())
            assert report == mock_report
            scoring = [conn for conn in opened if "/score_ppl" in conn.paths]
            assert 1 <= len(scoring) <= workers
            assert [conn.paths for conn in opened if conn not in scoring] == [{"/attention"}]
            assert all(conn.sock is None for conn in opened)
        assert outputs[0] == outputs[1]
