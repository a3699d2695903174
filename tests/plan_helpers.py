"""Helpers the test modules import: one-chunk snippets and the benchmark's
plan invariants. Fixtures live in ``conftest.py``."""

from perfbench.checks import plan_violations
from structkv.chunking import ChunkConfig, partition_chunks
from structkv.lexer import SourceFile, tokenize


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
