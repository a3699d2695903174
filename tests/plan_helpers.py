"""Helpers the test modules import: one-chunk snippets and the benchmark's
plan invariants. Fixtures live in ``conftest.py``."""

import numpy as np

from perfbench.checks import plan_violations
from structkv.chunking import ChunkConfig, partition_chunks
from structkv.lexer import SourceFile, tokenize
from structkv.spans import DEFAULT_SPAN_WEIGHTS, SpanTable

# the indicator mask of a SpanTable: bit i is key i of DEFAULT_SPAN_WEIGHTS
SPAN_BIT = {kind: 1 << i for i, kind in enumerate(DEFAULT_SPAN_WEIGHTS)}


def single_chunk(code: str, path: str = "t.py"):
    """(chunk, tokens) for a snippet small enough to be one chunk."""
    src = SourceFile(path, code)
    toks = tokenize(src)
    # min == max forces every fragment of a desk-scale snippet to merge
    chunks = partition_chunks(
        src,
        toks,
        ChunkConfig(min_chunk_tokens=4096, target_chunk_tokens=4096, max_chunk_tokens=4096),
    )
    assert len(chunks) == 1, f"expected one chunk, got {len(chunks)}"
    return chunks[0], toks


def check_plan_invariants(plan) -> int:
    """Assert the invariants the benchmark checks on every plan it makes
    (``perfbench.checks.plan_violations``): protection dominance, budget
    exactness, ascending unique kept indices, exact positions below the
    query and the layer count. Return the number of layers checked."""
    assert plan_violations(plan.to_dict()) == []
    return sum(len(chunk.layers) for chunk in plan.chunks)


def span_table(spans) -> SpanTable:
    """A table of unmerged candidates, one per span (anything with
    ``token_range``, ``indicators`` and ``participates_defuse``), in the
    order given: row i anchors node i and owns one window, its own range."""
    rows = range(len(spans))
    starts = np.array([z.token_range[0] for z in spans], dtype=np.intp)
    ends = np.array([z.token_range[1] for z in spans], dtype=np.intp)
    bits = [
        sum(SPAN_BIT[kind] for kind in z.indicators)
        | (SPAN_BIT["defuse"] if z.participates_defuse else 0)
        for z in spans
    ]
    return SpanTable(
        np.array(rows, dtype=np.intp), starts, ends, np.array(bits, dtype=np.uint8),
        starts, ends, np.array(rows, dtype=np.intp),
    )
