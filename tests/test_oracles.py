"""The per-plan rules that run on a chunk's kept arrays (query hits over
identifier ids, the mock score over the identifier set, the structure
score over node-kind bitmasks) equal, bit for bit, the object-walking
forms they replaced, kept in ``plan_helpers`` as ``oracle_*``."""

import dataclasses
import sysconfig
from pathlib import Path

import pytest

from structkv.allocation import AllocationConfig
from structkv.chunking import ChunkConfig
from structkv.config import PipelineConfig, SelectionConfig
from structkv.cpg import Cpg, CpgNode, NodeKind
from structkv.lexer import SourceFile, tokenize
from structkv.metrics import kind_mask, structure_score
from structkv.pipeline import chunk_facts, chunk_graph, index_corpus, load_corpus, run_pipeline
from structkv.plan import canonical_json
from structkv.scoring import KeptChunk, MockScorer, query_symbols
from structkv.spans import SpanConfig, query_hits
from plan_helpers import (
    oracle_mock_score,
    oracle_query_hits,
    oracle_structure_score,
)
from synth import synth_corpus, synth_query

ASYNCIO = Path(sysconfig.get_paths()["stdlib"]) / "asyncio"
# the last names a keyword and an identifier no corpus here has
QUERIES = [
    "where is the event loop closed",
    "why is a task cancelled when the future is done",
    "close the transport and drain the protocol",
    "if return zzz_not_in_the_corpus",
]
NON_ASCII = SourceFile(
    "uni.py",
    "# coding: utf-8\ndef café(naïve, 变量):\n    ï = naïve + 变量  # ½ ²\n"
    "    if ï:\n        return café(ï, 'ü')\n    return 变量\n",
)
NON_ASCII_QUERIES = ["why does café add 变量", "naïve ï", "return zzz_not_in_the_corpus"]


def never_made():
    raise AssertionError("the mock scorer sliced the chunk's texts")


def check_chunks(corpus, chunking, queries, *extra_graphs):
    """Hits and mock scores of every chunk of ``corpus`` (and of each extra
    (chunk id, graph) pair), for every query, against the oracles."""
    index = index_corpus(corpus, chunking, SpanConfig())
    graphs = [(c.id, chunk_graph(c, index.tokens(c.id))) for c in index.chunks]
    asks = [tokenize(SourceFile("<query>", q)) for q in queries]
    for cid, cpg in [*graphs, *extra_graphs]:
        tokens = index.tokens(cid)
        facts = chunk_facts(index.chunks[cid], tokens, SpanConfig(), cpg)
        names, table = facts.names, facts.spans
        for query in asks:
            syms = query_symbols(query)
            hits = query_hits(table, names, syms)
            assert hits.tolist() == oracle_query_hits(table, tokens, syms).tolist()
            score = MockScorer().score([], KeptChunk(names, never_made), query)
            assert score == oracle_mock_score(tokens, query)
    return len(graphs)


def check_plans(corpus, cfg, queries):
    """Each plan's report against the oracle's over freshly built graphs."""
    index = index_corpus(corpus, cfg.chunking, cfg.span)
    for query in queries:
        plan, report = run_pipeline(corpus, query, cfg)
        cpgs = {c.chunk_id: chunk_graph(index.chunks[c.chunk_id], index.tokens(c.chunk_id))
                for c in plan.chunks}
        oracle = oracle_structure_score(plan, cpgs)
        assert report == oracle
        assert canonical_json(report.to_dict()) == canonical_json(oracle.to_dict())
    return plan


def test_every_asyncio_chunk():
    corpus = load_corpus(ASYNCIO)
    assert check_chunks(corpus, ChunkConfig(), QUERIES) == 163
    cfg = PipelineConfig(selection=SelectionConfig(k=1000, layers=3))
    assert len(check_plans(corpus, cfg, QUERIES[:2]).chunks) == 163


def test_the_synth_battery():
    corpus = synth_corpus(seed=2026, n_files=20)
    queries = [synth_query(2026, corpus), *QUERIES[2:]]
    assert check_chunks(corpus, ChunkConfig(), queries) > 20
    for cap in (0.2, 0.6):
        cfg = PipelineConfig(
            allocation=AllocationConfig(capacity_ratio=cap),
            selection=SelectionConfig(k=6, layers=4),
            seed=2026,
        )
        check_plans(corpus, cfg, queries)


def test_a_non_ascii_file():
    chunking = ChunkConfig(min_chunk_tokens=1, target_chunk_tokens=512)
    assert check_chunks([NON_ASCII], chunking, NON_ASCII_QUERIES) == 1
    index = index_corpus([NON_ASCII], chunking, SpanConfig())
    facts = chunk_facts(index.chunks[0], index.tokens(0), SpanConfig())
    assert {"café", "naïve", "变量", "ï"} <= facts.names.set and "½" not in facts.names.set
    assert query_hits(facts.spans, facts.names, frozenset({"变量"})).any()
    cfg = PipelineConfig(chunking=chunking, selection=SelectionConfig(k=1, layers=2))
    check_plans([NON_ASCII], cfg, NON_ASCII_QUERIES)


def test_nodes_with_empty_token_ranges():
    # an empty node adds no critical token, and a kind with only empty
    # nodes is absent from the report, as it was from the sets
    code = "def f(a):\n    b = g(a)\n    return b\n"
    chunking = ChunkConfig(min_chunk_tokens=1, target_chunk_tokens=512)
    index = index_corpus([SourceFile("e.py", code)], chunking, SpanConfig())
    n = index.chunks[0].length
    cpg = Cpg(
        (
            CpgNode(0, NodeKind.CALL, (3, 3), 1),
            CpgNode(1, NodeKind.RETURN, (n - 3, n - 1), 3),
            CpgNode(2, NodeKind.CONTROL, (0, 0), 1),
        ),
        (),
        0,
    )
    check_chunks([SourceFile("e.py", code)], chunking, ["g of b", "if a"], (0, cpg))
    cfg = PipelineConfig(chunking=chunking, selection=SelectionConfig(k=1, layers=3))
    plan, _ = run_pipeline([SourceFile("e.py", code)], "return b", cfg)
    report = structure_score(plan, {0: kind_mask(cpg, n)})
    assert report == oracle_structure_score(plan, {0: cpg})
    assert set(report.per_category_retention) == {"return"}


@pytest.mark.parametrize("kept", [(), (0,), (0, 1, 2, 3)])
def test_layers_sharing_a_keep_set(kept):
    # one tuple object shared by every layer, the empty one among them
    chunking = ChunkConfig(min_chunk_tokens=1, target_chunk_tokens=512)
    cfg = PipelineConfig(chunking=chunking, selection=SelectionConfig(k=1, layers=3))
    plan, _ = run_pipeline([SourceFile("s.py", "x = y\n")], "y", cfg)
    (chunk,) = plan.chunks
    layers = tuple(dataclasses.replace(layer, kept=kept, positions=kept) for layer in chunk.layers)
    plan = dataclasses.replace(plan, chunks=(dataclasses.replace(chunk, layers=layers),))
    cpg = Cpg((CpgNode(0, NodeKind.ASSIGN, (1, 3), 1),), (), chunk.chunk_id)
    report = structure_score(plan, {0: kind_mask(cpg, chunk.length)})
    assert report == oracle_structure_score(plan, {0: cpg})
    assert report.pairs_counted == 3
