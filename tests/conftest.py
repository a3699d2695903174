import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
    """Assert protection dominance, budget exactness and query position on
    every layer of every chunk; return the number of layers checked."""
    checked = 0
    for chunk in plan.chunks:
        for layer in chunk.layers:
            assert set(chunk.protected) <= set(layer.kept)
            assert len(layer.kept) == min(chunk.budget, chunk.length)
            assert all(pos < plan.query_start_position for pos in layer.positions)
            checked += 1
    return checked
