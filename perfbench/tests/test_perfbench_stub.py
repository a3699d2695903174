"""The stub model server serves exactly the mock backends' values."""

import http.client

import numpy as np
import pytest
import requests

from perfbench.stub_server import serve
from structkv import MockAttentionBackend, MockScorer, SourceFile, tokenize


@pytest.fixture
def url():
    httpd = serve()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


def test_attention_matches_mock_for_one_chunk_and_layer(url):
    doc = {"seed": 11, "window": 16, "dim": 8, "lengths": {"3": 40, "4": 7}}
    requests.post(f"{url}/configure", json=doc, timeout=10).raise_for_status()
    resp = requests.post(f"{url}/attention", json={"chunk_id": 3, "layer": 2}, timeout=10)
    resp.raise_for_status()
    got = resp.json()
    want = MockAttentionBackend(seed=11, window=16, dim=8).attention_window(3, 2, 40)
    assert np.array_equal(np.asarray(got["q"]), want.q_block)
    assert np.array_equal(np.asarray(got["k"]), want.k_block)


def test_score_matches_mock_from_token_texts(url):
    chunk = tokenize(SourceFile("c.py", 'def f(a):\n    return helper(a, "s", 3)  # note\n'))
    query = tokenize(SourceFile("<q>", "why does helper fail in f"))
    payload = {"prefix": [], "chunk": [t.text for t in chunk], "query": [t.text for t in query]}
    resp = requests.post(f"{url}/score_ppl", json=payload, timeout=10)
    resp.raise_for_status()
    assert resp.json()["nll_mean"] == MockScorer().score([], chunk, query)


def test_attention_before_configure_is_a_client_error(url):
    resp = requests.post(f"{url}/attention", json={"chunk_id": 0, "layer": 0}, timeout=10)
    assert resp.status_code == 400



def test_connection_stays_open_across_requests(url):
    conn = http.client.HTTPConnection(url.removeprefix("http://"), timeout=10)
    statuses = []
    try:
        for path in ("/nowhere", "/attention"):
            conn.request("POST", path, body=b'{"chunk_id": 0, "layer": 0}')
            resp = conn.getresponse()
            resp.read()
            assert resp.version == 11 and not resp.will_close
            statuses.append(resp.status)
            if path == "/nowhere":
                sock = conn.sock
        assert conn.sock is sock  # the second request reused the connection
    finally:
        conn.close()
    assert statuses == [404, 400]
