import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1]))  # the benchmark's plan checks

from perfbench.checks import plan_violations
from structkv.chunking import ChunkConfig, partition_chunks
from structkv.lexer import SourceFile, tokenize


@pytest.fixture
def small_chunk_cfg():
    """Chunking config that keeps desk-scale fixtures in one chunk each."""
    return ChunkConfig(min_chunk_tokens=1, target_chunk_tokens=512, max_chunk_tokens=4096)


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
