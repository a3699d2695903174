"""End-to-end planning: selection, graph analysis, allocation, protection,
per-layer attention selection, and position assembly.

The pipeline is deterministic for a fixed (corpus, query, config, seed).
Only scoring, one request per corpus chunk, fans out: ``workers`` score
requests are in flight at once. Everything after chunk selection runs on
the calling thread in chunk-id order, and the plan is canonical JSON, so
the worker count never changes a byte of output.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import allocation as alloc
from . import attention as attn
from . import metrics as metrics_mod
from . import scoring
from . import spans as spans_mod
from .chunking import Chunk, ChunkConfig, partition_chunks
from .config import PipelineConfig
from .cpg import Cpg, build_cpg, import_cpg_json
from .errors import ConfigError, ParameterError, SchemaError
from .lexer import SourceFile, Token, load_source, tokenize
from .metrics import RetentionReport
from .parsing import parse_subset
from .plan import ChunkPlan, CompressionPlan, LayerPlan, decode_json


def query_position(prefix_len: int, chunk_lengths: Sequence[int]) -> int:
    """First query position: past the longest pre-compression chunk."""
    if prefix_len < 0:
        raise ParameterError(f"prefix length must be non-negative, got {prefix_len}")
    return prefix_len + (max(chunk_lengths) if chunk_lengths else 0)


def load_corpus(directory: str | Path, include: Sequence[str] = ("**/*.py",)) -> list[SourceFile]:
    """Source files under a directory, keyed by corpus-relative POSIX path
    and sorted by that path string."""
    root = Path(directory)
    paths: set[Path] = set()
    for pattern in include:
        paths.update(p for p in root.glob(pattern) if p.is_file())
    files = [replace(load_source(p), path=p.relative_to(root).as_posix()) for p in paths]
    return sorted(files, key=lambda f: f.path)


@dataclass(frozen=True)
class CorpusIndex:
    """The query-independent view of a corpus: chunks numbered from 0 in the
    order of the files' path strings, and each chunk's own tokens."""

    chunks: tuple[Chunk, ...]  # chunks[i].id == i
    tokens: tuple[list[Token], ...]  # tokens[i]: the tokens of chunks[i]


def index_corpus(files: Sequence[SourceFile], chunking: ChunkConfig) -> CorpusIndex:
    """Lex and chunk every file; the one place chunk ids are assigned and
    chunk tokens cut."""
    chunks: list[Chunk] = []
    tokens: list[list[Token]] = []
    paths: set[str] = set()
    for f in sorted(files, key=lambda f: f.path):
        if f.path in paths:
            raise ParameterError(f"duplicate path in corpus: {f.path}")
        paths.add(f.path)
        toks = tokenize(f)
        for chunk in partition_chunks(f, toks, chunking, start_id=len(chunks)):
            chunks.append(chunk)
            tokens.append(toks[slice(*chunk.token_range)])
    return CorpusIndex(tuple(chunks), tuple(tokens))


def chunk_graph(chunk: Chunk, tokens: list[Token], document: str | bytes | None = None) -> Cpg:
    """A chunk's property graph: the external document when there is one,
    else the built-in analyzer's over the chunk's tokens. A document with no
    nodes asks for attention-only treatment."""
    if document is not None:
        return import_cpg_json(document, chunk)
    return build_cpg(parse_subset(tokens), chunk, tokens)


def context_tokens(
    query: str | Sequence[Token], cfg: PipelineConfig
) -> tuple[list[Token], list[Token]]:
    """(query tokens, prefix tokens); the query must produce a token."""
    query_tokens = tokenize(SourceFile("<query>", query)) if isinstance(query, str) else [*query]
    if not query_tokens:
        raise ParameterError("query must produce at least one token")
    prefix_tokens = tokenize(SourceFile("<prefix>", cfg.prefix)) if cfg.prefix else []
    return query_tokens, prefix_tokens


def score_chunks(
    index: CorpusIndex,
    query_tokens: Sequence[Token],
    prefix_tokens: Sequence[Token],
    cfg: PipelineConfig,
) -> tuple[list[tuple[int, float]], list[int]]:
    """Every chunk's (id, score) in id order, and the selected top-k ids."""
    if not index.chunks:
        raise ParameterError("corpus produced no chunks")
    scorer = _make_scorer(cfg)

    def score_one(chunk: Chunk) -> tuple[int, float]:
        value = scoring.score_chunk(
            scorer, prefix_tokens, chunk, query_tokens, index.tokens[chunk.id]
        )
        return (chunk.id, value)

    scores = _map(score_one, index.chunks, cfg.workers)
    return scores, scoring.select_topk(scores, min(cfg.selection.k, len(scores)))


def run_pipeline(
    corpus: Sequence[SourceFile],
    query: str | Sequence[Token],
    cfg: PipelineConfig,
    external_cpgs: dict[int, str | bytes] | None = None,
) -> tuple[CompressionPlan, RetentionReport]:
    """Produce a compression plan and its retention report.

    ``external_cpgs`` maps chunk ids to interchange documents; chunks with
    a document use it instead of the built-in analyzer.
    """
    query_tokens, prefix_tokens = context_tokens(query, cfg)
    prefix_len = len(prefix_tokens)
    index = index_corpus(corpus, cfg.chunking)
    docs = external_cpgs or {}
    if unknown := sorted(set(docs) - set(range(len(index.chunks)))):
        raise SchemaError(f"graph documents for chunk ids the corpus lacks: {unknown}")
    scores, selected_ids = score_chunks(index, query_tokens, prefix_tokens, cfg)
    ppl_by_id = dict(scores)
    selected = [index.chunks[cid] for cid in selected_ids]

    cpgs = {c.id: chunk_graph(c, index.tokens[c.id], docs.get(c.id)) for c in selected}

    sigmas = [scoring.structural_score(scoring.extract_features(cpgs[c.id])) for c in selected]
    normalized = alloc.normalize_scores(sigmas, cfg.allocation) if sigmas else []
    multipliers = [alloc.multiplier(s, cfg.allocation) for s in normalized]
    budgets = [alloc.budget(c.length, m, cfg.allocation) for c, m in zip(selected, multipliers)]

    backend = _make_attention_backend(cfg)
    query_syms = scoring.query_symbols(query_tokens)
    chunk_plans = []
    for chunk, sigma, norm, mult, chunk_budget in zip(
        selected, sigmas, normalized, multipliers, budgets
    ):
        protected, span_records, b_span = spans_mod.protect_chunk(
            cpgs[chunk.id], chunk_budget, cfg.span, index.tokens[chunk.id], query_syms
        )
        # each chunk sits alone after the prefix, so a kept token's position
        # is prefix_len plus its chunk-local index (chunks' ranges overlap)
        layer_plans = []
        if protected or chunk_budget == 0:
            # Protection decides the chunk: every layer keeps the protected
            # set, fetches no Q/K and shares one pair of tuples.
            positions = tuple(prefix_len + i for i in protected)
            for layer in range(cfg.selection.layers):
                layer_plans.append(LayerPlan(layer, protected, positions))
        else:
            for layer in range(cfg.selection.layers):
                window = backend.attention_window(chunk.id, layer, chunk.length)
                u_pooled = attn.pool(attn.importance(window), cfg.attention.pool_window)
                kept = attn.select_tokens(u_pooled, chunk_budget, layer).kept
                layer_plans.append(LayerPlan(layer, kept, tuple(prefix_len + i for i in kept)))
        chunk_plans.append(
            ChunkPlan(
                chunk_id=chunk.id,
                file=chunk.file,
                token_range=chunk.token_range,
                length=chunk.length,
                ppl=ppl_by_id[chunk.id],
                sigma=sigma,
                normalized_score=norm,
                multiplier=mult,
                budget=chunk_budget,
                span_budget=b_span,
                spans=span_records,
                protected=protected,
                layers=tuple(layer_plans),
            )
        )

    plan = CompressionPlan(
        chunks=tuple(chunk_plans),
        prefix_len=prefix_len,
        query_len=len(query_tokens),
        query_start_position=query_position(prefix_len, [c.length for c in selected]),
        layer_count=cfg.selection.layers,
        seed=cfg.seed,
        config_fingerprint=cfg.fingerprint(),
    )
    report = metrics_mod.structure_score(plan, cpgs)
    return plan, report


def _map(fn, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _make_scorer(cfg: PipelineConfig):
    if cfg.scorer.backend == "mock":
        return scoring.MockScorer()
    return scoring.HttpScorer(cfg.scorer.url, cfg.scorer.timeout_s, cfg.scorer.retries)


def _make_attention_backend(cfg: PipelineConfig):
    if cfg.attention.backend == "mock":
        return attn.MockAttentionBackend(
            seed=cfg.seed, window=cfg.attention.window, dim=cfg.attention.dim
        )
    return attn.HttpAttentionBackend(
        cfg.attention.url, cfg.attention.timeout_s, cfg.attention.retries
    )


def load_external_cpgs(path: str | Path) -> dict[int, str]:
    """Read a sidecar file of interchange documents keyed by chunk id.

    The file holds a JSON array of per-chunk documents (the same schema
    the exporter emits); each document's chunk_id must match a chunk id
    produced by the `chunk` stage under the same chunking config.
    """
    try:
        doc = decode_json(Path(path).read_bytes(), str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, list):
        raise SchemaError(f"{path}: expected a JSON array of graph documents")
    out: dict[int, str] = {}
    for item in doc:
        if not isinstance(item, dict) or not isinstance(item.get("chunk_id"), int):
            raise SchemaError(f"{path}: every document needs an integer chunk_id")
        if item["chunk_id"] in out:
            raise SchemaError(f"{path}: more than one document for chunk_id {item['chunk_id']}")
        out[item["chunk_id"]] = json.dumps(item)
    return out
