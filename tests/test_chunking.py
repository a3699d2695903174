import sysconfig
from pathlib import Path

import pytest

from structkv.chunking import Chunk, ChunkConfig, partition_chunks
from structkv.errors import ConfigError
from structkv.lexer import SourceFile, logical_lines, tokenize
from structkv.pipeline import load_corpus
from synth import synth_corpus


def parts(code, cfg, path="t.py"):
    src = SourceFile(path, code)
    toks = tokenize(src)
    return partition_chunks(src, toks, cfg), toks


def thousand_token_function() -> str:
    # token layout: header 6 + one 6-token line + 125 + 122 four-token lines
    # = 1000 tokens with a statement boundary exactly at index 512
    lines = ["def f():", "    b = a + 1"]
    lines += ["    a = 1"] * 125
    lines += ["    a = 2"] * 122
    return "\n".join(lines) + "\n"


class TestConfig:
    def test_defaults(self):
        cfg = ChunkConfig()
        assert (cfg.max_chunk_tokens, cfg.target_chunk_tokens, cfg.min_chunk_tokens) == (
            4096,
            512,
            128,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_chunk_tokens=0),
            dict(min_chunk_tokens=600, target_chunk_tokens=512),
            dict(target_chunk_tokens=5000, max_chunk_tokens=4096),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ChunkConfig(**kwargs)


class TestPartition:
    def test_empty_file(self):
        chunks, _ = parts("", ChunkConfig())
        assert chunks == []

    def test_long_function_split_at_statement_boundary(self):
        code = thousand_token_function()
        chunks, toks = parts(code, ChunkConfig())
        assert len(toks) == 1000
        assert [c.length for c in chunks] == [512, 488]
        # the cut lands on a statement start, not mid-statement
        boundary = chunks[0].token_range[1]
        assert toks[boundary - 1].kind.value == "newline"

    def test_short_functions_merged(self):
        # two 60-token functions, min 128 -> one merged 120-token chunk
        fn = "def g():\n    b = a + 1\n" + "    a = 1\n" * 12
        code = fn + fn.replace("def g", "def h")
        chunks, toks = parts(code, ChunkConfig())
        assert len(toks) == 120
        assert [c.length for c in chunks] == [120]

    def test_function_fitting_target_is_one_chunk(self):
        fn = "def g():\n" + "    a = 1\n" * 40  # 166 tokens, within [128, 512]
        code = fn + "\n" + fn.replace("def g", "def h")
        chunks, toks = parts(code, ChunkConfig())
        assert len(chunks) == 2
        # boundaries coincide with function starts
        assert toks[chunks[1].token_range[0]].text in ("def", "\n")

    def test_ids_sequential_from_start(self):
        code = thousand_token_function()
        chunks, _ = parts(code, ChunkConfig())
        assert [c.id for c in chunks] == [0, 1]
        src = SourceFile("t.py", code)
        toks = tokenize(src)
        renumbered = partition_chunks(src, toks, ChunkConfig(), start_id=7)
        assert [c.id for c in renumbered] == [7, 8]

    def test_hard_cap_binds_for_giant_statement(self):
        code = "data = [" + ", ".join(str(i) for i in range(300)) + "]\n"
        cfg = ChunkConfig(max_chunk_tokens=128, target_chunk_tokens=64, min_chunk_tokens=8)
        chunks, toks = parts(code, cfg)
        assert all(c.length <= 128 for c in chunks)
        assert sum(c.length for c in chunks) == len(toks)


def function(name: str, body_lines: int) -> str:
    # 6 header tokens, then 4 tokens per body line
    return f"def {name}():\n" + "    a = 1\n" * body_lines


ONE_STATEMENT = "x = [" + ", ".join(map(str, range(300))) + "]\n"  # 604 tokens
UNITS = ChunkConfig(max_chunk_tokens=400, target_chunk_tokens=200, min_chunk_tokens=1)
BOXED = ChunkConfig(max_chunk_tokens=40, target_chunk_tokens=40, min_chunk_tokens=10)

# name: (source, config, [(token_range, line_range), ...]).  UNITS neither
# splits nor merges these sources, so their rows show the unit bounds alone.
BOUNDARIES = {
    "def-at-file-start": (
        "def f():\n    return 1\nx = 2\n",
        UNITS,
        [((0, 9), (1, 2)), ((9, 13), (3, 3))],
    ),
    "comments-and-blanks-lead-into-def": (
        "x = 1\n\n# note\n\ndef f():\n    pass\ny = 2\n",
        UNITS,
        [((0, 4), (1, 1)), ((4, 16), (2, 6)), ((16, 20), (7, 7))],
    ),
    "trailing-blanks-lead-into-next-unit": (
        "def f():\n    pass\n\n\nx = 1\n",
        UNITS,
        [((0, 8), (1, 2)), ((8, 14), (3, 5))],
    ),
    "trailing-blanks-at-end-of-file": (
        "x = 1\ndef f():\n    pass\n\n\n",
        UNITS,
        [((0, 4), (1, 1)), ((4, 12), (2, 3)), ((12, 14), (4, 5))],
    ),
    "inline-body": (
        "def f(): return 1\nx = 2\n",
        UNITS,
        [((0, 8), (1, 1)), ((8, 12), (2, 2))],
    ),
    "no-body": (
        "x = 1\ndef f():\nx = 2\n",
        UNITS,
        [((0, 4), (1, 1)), ((4, 10), (2, 2)), ((10, 14), (3, 3))],
    ),
    "nested-def-stays-in-its-unit": (
        "def f():\n    def g():\n        pass\n    return g\nx = 1\n",
        UNITS,
        [((0, 17), (1, 4)), ((17, 21), (5, 5))],
    ),
    "class-body-is-no-unit": (
        "class A:\n    def m(self):\n        pass\nx = 1\n",
        UNITS,
        [((0, 17), (1, 4))],
    ),
    "comments-only": ("# a\n\n# b\n", UNITS, [((0, 5), (1, 3))]),
    # quirk: a top-level decorator line ends the unit before its def
    "decorator-lands-in-previous-unit": (
        "x = 1\n@d\ndef f():\n    pass\n",
        UNITS,
        [((0, 7), (1, 2)), ((7, 15), (3, 4))],
    ),
    # quirk: `async def` starts no unit
    "async-def-is-no-unit": (
        "x = 1\nasync def f():\n    pass\ny = 2\n",
        UNITS,
        [((0, 17), (1, 4))],
    ),
    "split-at-last-statement-start-within-target": (
        function("f", 9),
        ChunkConfig(max_chunk_tokens=64, target_chunk_tokens=16, min_chunk_tokens=1),
        [((0, 14), (1, 3)), ((14, 30), (4, 7)), ((30, 42), (8, 10))],
    ),
    "oversized-statement-taken-whole": (
        "a = 1\nx = [" + ", ".join(map(str, range(30))) + "]\nb = 2\n",
        ChunkConfig(max_chunk_tokens=200, target_chunk_tokens=16, min_chunk_tokens=1),
        [((0, 4), (1, 1)), ((4, 68), (2, 2)), ((68, 72), (3, 3))],
    ),
    "one-604-token-statement": (ONE_STATEMENT, ChunkConfig(), [((0, 604), (1, 1))]),
    "hard-cap-mid-statement": (
        ONE_STATEMENT,
        ChunkConfig(max_chunk_tokens=128, target_chunk_tokens=64, min_chunk_tokens=8),
        [((s, min(s + 128, 604)), (1, 1)) for s in range(0, 604, 128)],
    ),
    "short-piece-merged-backward-when-forward-exceeds-max": (
        function("f", 2) + "x = 1\n" + function("g", 8),
        BOXED,
        [((0, 18), (1, 4)), ((18, 56), (5, 13))],
    ),
    "short-piece-boxed-in-by-max": (
        function("f", 8) + "x = 1\n" + function("g", 8),
        BOXED,
        [((0, 38), (1, 9)), ((38, 42), (10, 10)), ((42, 80), (11, 19))],
    ),
    "short-piece-merged-backward-at-end-of-file": (
        "x = 1\n" + function("f", 3) + "y = 2\n",
        ChunkConfig(max_chunk_tokens=64, target_chunk_tokens=32, min_chunk_tokens=8),
        [((0, 26), (1, 6))],
    ),
    "min-equals-target-equals-max": (
        function("f", 12) + "x = 1\n" + function("g", 3),
        ChunkConfig(max_chunk_tokens=40, target_chunk_tokens=40, min_chunk_tokens=40),
        [((0, 38), (1, 9)), ((38, 76), (10, 18))],
    ),
}


@pytest.mark.parametrize("name", BOUNDARIES)
def test_chunk_boundaries_exact(name):
    code, cfg, expected = BOUNDARIES[name]
    chunks, toks = parts(code, cfg)
    assert [(c.token_range, c.line_range) for c in chunks] == expected
    assert [c.id for c in chunks] == list(range(len(chunks)))
    assert expected[-1][0][1] == len(toks)


def assert_partition_invariants(toks, chunks, cfg):
    """Chunks cover the tokens once and in order, none is longer than the
    maximum, and each starts a logical line or follows a chunk of exactly
    the maximum (a hard cap mid-statement)."""
    line_starts = {ln.start for ln in logical_lines(toks)}
    assert [c.id for c in chunks] == list(range(len(chunks)))
    prev_start = end = 0
    for c in chunks:
        start, stop = c.token_range
        assert start == end < stop
        assert c.length == stop - start <= cfg.max_chunk_tokens
        assert start in line_starts or start - prev_start == cfg.max_chunk_tokens
        assert c.line_range == (toks[start].line, toks[stop - 1].line)
        prev_start, end = start, stop
    assert end == len(toks)


INVARIANT_CONFIGS = [
    ChunkConfig(),
    ChunkConfig(max_chunk_tokens=256, target_chunk_tokens=96, min_chunk_tokens=24),
    ChunkConfig(max_chunk_tokens=64, target_chunk_tokens=32, min_chunk_tokens=8),
    ChunkConfig(max_chunk_tokens=40, target_chunk_tokens=40, min_chunk_tokens=40),
]


@pytest.mark.parametrize("package", ["json", "asyncio"])
def test_partition_invariants_on_stdlib(package):
    corpus = load_corpus(Path(sysconfig.get_paths()["stdlib"]) / package)
    assert len(corpus) > 3
    for f in corpus:
        toks = tokenize(f)
        for cfg in INVARIANT_CONFIGS:
            assert_partition_invariants(toks, partition_chunks(f, toks, cfg), cfg)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(seed=11, n_files=12)


class TestInvariants:
    @pytest.mark.parametrize(
        "cfg",
        [
            ChunkConfig(),
            ChunkConfig(max_chunk_tokens=256, target_chunk_tokens=96, min_chunk_tokens=24),
            ChunkConfig(max_chunk_tokens=64, target_chunk_tokens=32, min_chunk_tokens=8),
        ],
        ids=["default", "small", "tiny"],
    )
    def test_disjoint_cover_and_bounds(self, corpus, cfg):
        for f in corpus:
            toks = tokenize(f)
            chunks = partition_chunks(f, toks, cfg)
            assert_partition_invariants(toks, chunks, cfg)
            total = len(toks)
            for c in chunks:
                if total >= cfg.min_chunk_tokens:
                    assert c.length >= cfg.min_chunk_tokens

    def test_deterministic(self, corpus):
        cfg = ChunkConfig(max_chunk_tokens=256, target_chunk_tokens=96, min_chunk_tokens=24)
        for f in corpus:
            toks = tokenize(f)
            assert partition_chunks(f, toks, cfg) == partition_chunks(f, toks, cfg)

    def test_line_ranges_cover_tokens(self, corpus):
        cfg = ChunkConfig()
        for f in corpus:
            toks = tokenize(f)
            for c in partition_chunks(f, toks, cfg):
                lo, hi = c.token_range
                lines = [t.line for t in toks[lo:hi]]
                assert c.line_range == (lines[0], lines[-1])


def test_chunk_is_frozen_record():
    c = Chunk(id=0, file="x", token_range=(0, 4), line_range=(1, 1), length=4)
    with pytest.raises(AttributeError):
        c.length = 5
