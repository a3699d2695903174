import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # plan_helpers, synth, cpg_cases
sys.path.insert(0, str(Path(__file__).parents[1]))  # the benchmark's plan checks

from perfbench import stub_server
from structkv.chunking import ChunkConfig


@pytest.fixture
def small_chunk_cfg():
    """Chunking config that keeps desk-scale fixtures in one chunk each."""
    return ChunkConfig(min_chunk_tokens=1, target_chunk_tokens=512, max_chunk_tokens=4096)


@pytest.fixture
def stub():
    """The benchmark's stub model server on a free loopback port; it serves
    the mock backends' values (see ``plan_helpers.stub_config``)."""
    httpd = stub_server.serve()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
