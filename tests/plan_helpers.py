"""Helpers the test modules import: the golden corpus and config,
one-chunk snippets, the benchmark's plan invariants, configs that plan
through the stub model server, and the object-walking forms of the
per-plan rules that now run on arrays (``oracle_*``), as references.
Fixtures live in ``conftest.py``."""

import dataclasses
import json

import numpy as np

from perfbench.checks import plan_violations
from structkv.allocation import AllocationConfig
from structkv.chunking import ChunkConfig, partition_chunks
from structkv.config import PipelineConfig, SelectionConfig
from structkv.lexer import SourceFile, TokenKind, tokenize
from structkv.metrics import CATEGORIES, RetentionReport
from structkv.scoring import query_symbols
from structkv.spans import DEFAULT_SPAN_WEIGHTS, SpanTable

# the indicator mask of a SpanTable: bit i is key i of DEFAULT_SPAN_WEIGHTS
SPAN_BIT = {kind: 1 << i for i, kind in enumerate(DEFAULT_SPAN_WEIGHTS)}

# The corpus, query and config of tests/data/golden_plan.json.
GOLDEN_FILES = [
    SourceFile(
        "alpha.py",
        "def read_config(path):\n    raw = load(path)\n    cfg = parse(raw)\n"
        "    if cfg:\n        return cfg\n    return None\n",
    ),
    SourceFile(
        "beta.py",
        "def transform(data):\n    out = init()\n    for item in data:\n"
        "        out = push(out, item)\n    return out\n",
    ),
    SourceFile(
        "gamma.py",
        "def unrelated(n):\n    t = n * 2\n    while t > 0:\n"
        "        t = t - 3\n    return t\n",
    ),
]
GOLDEN_QUERY = "why does parse of raw config fail"


def golden_config(**overrides):
    cfg = PipelineConfig(
        chunking=ChunkConfig(min_chunk_tokens=4, target_chunk_tokens=512, max_chunk_tokens=4096),
        allocation=AllocationConfig(capacity_ratio=0.4),
        selection=SelectionConfig(k=2, layers=2),
        seed=7,
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def stub_config(httpd, files, cfg: PipelineConfig) -> PipelineConfig:
    """``cfg`` with both backends posting to ``httpd``, a started
    ``perfbench.stub_server``, which is told the chunk lengths of ``files``
    under ``cfg``: a plan made with it equals the mock plan but for the
    config fingerprint, which hashes the URL."""
    lengths, next_id = {}, 0
    for f in sorted(files, key=lambda f: f.path):
        for chunk in partition_chunks(f, tokenize(f), cfg.chunking, start_id=next_id):
            lengths[chunk.id] = chunk.length
            next_id = chunk.id + 1
    attention = cfg.attention
    httpd.state.configure(
        {"seed": cfg.seed, "window": attention.window, "dim": attention.dim, "lengths": lengths}
    )
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    return dataclasses.replace(
        cfg,
        scorer=dataclasses.replace(cfg.scorer, backend="http", url=url),
        attention=dataclasses.replace(attention, backend="http", url=url),
    )


def sans_fingerprint(plan_json: str) -> dict:
    """A plan document without its config fingerprint."""
    doc = json.loads(plan_json)
    del doc["config_fingerprint"]
    return doc


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


def oracle_structure_score(plan, cpgs) -> RetentionReport:
    """``metrics.structure_score`` as it was over graphs: each chunk's
    critical tokens as one set per node kind, intersected with each keep
    set."""
    overall: list[float] = []
    by_layer: dict[int, list[float]] = {}
    by_category: dict[str, list[float]] = {c: [] for c in CATEGORIES}
    for chunk in plan.chunks:
        cpg = cpgs.get(chunk.chunk_id)
        if cpg is None:
            continue
        by_kind: dict[str, set[int]] = {}
        for node in cpg.nodes:
            by_kind.setdefault(node.kind.value, set()).update(range(*node.token_range))
        critical = set().union(*by_kind.values())
        if not critical:
            continue
        previous = None
        for layer_plan in chunk.layers:
            if layer_plan.kept is not previous:
                previous = layer_plan.kept
                kept = set(previous)
                retention = len(critical & kept) / len(critical)
                kind_retentions = [
                    (category, len(tokens & kept) / len(tokens))
                    for category, tokens in by_kind.items()
                    if tokens
                ]
            overall.append(retention)
            by_layer.setdefault(layer_plan.layer, []).append(retention)
            for category, value in kind_retentions:
                by_category[category].append(value)
    return RetentionReport(
        structure_score=sum(overall) / len(overall) if overall else 0.0,
        per_category_retention={c: sum(v) / len(v) for c, v in by_category.items() if v},
        per_layer={layer: sum(v) / len(v) for layer, v in sorted(by_layer.items())},
        pairs_counted=len(overall),
    )


def oracle_query_hits(table: SpanTable, tokens, query_syms) -> np.ndarray:
    """``spans.query_hits`` as it was over tokens: each token marked by its
    kind and text."""
    marked = np.fromiter(
        (t.text in query_syms and t.kind is TokenKind.IDENTIFIER for t in tokens),
        dtype=np.intp,
        count=len(tokens),
    )
    seen = np.concatenate(([0], np.cumsum(marked)))
    in_window = seen[table.window_end] > seen[table.window_start]
    return np.logical_or.reduceat(in_window, table.first)


def oracle_mock_score(chunk_tokens, query) -> float:
    """``MockScorer.score`` as it was: the chunk's identifier set made from
    its tokens."""
    q = query_symbols(query)
    c = query_symbols(chunk_tokens)
    return 1.0 - len(c & q) / max(1, len(q))
