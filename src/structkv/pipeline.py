"""End-to-end planning: selection, graph analysis, allocation, protection,
per-layer attention selection, and position assembly.

The pipeline is deterministic for a fixed (corpus, query, config, seed).
Only scoring, one request per corpus chunk, fans out: ``workers`` score
requests are in flight at once. Everything after chunk selection runs on
the calling thread in chunk-id order, and the plan is canonical JSON, so
the worker count never changes a byte of output.

Lexing, chunking, built-in graphs and span candidates are reused across
plans in one process. One module-level memo, keyed by (sha256 of a file's
UTF-8 text, chunking config), holds every file of the last indexed corpus;
only ``index_corpus`` reads or replaces it. A file new to that corpus maps
to None, so a file indexed once costs one digest. A file in two corpora in
a row maps to an entry: its tokens as typed arrays without their texts
(each text is sliced again from the current content, which has the same
digest), its chunk cuts, and for every chunk selected since the entry was
made its pickled built-in graph, by token range, and its span candidates as
a ``spans.SpanTable`` of numpy arrays, by token range, ``min_span_tokens``
and ``merge_gap_lines``. Later plans read them from the entry instead of
lexing, chunking and building; a graph read back is relabelled with its
chunk's current id, and only the query hits, scores and packing of spans
run per plan. For all 163 ``asyncio`` chunks an entry set holds about
0.54 MB of tokens, 0.8 MB of graphs and 0.07 MB of span arrays. An entry
lives while its text stays in consecutive corpora; nothing is written to
disk. Chunks with an external graph document neither read nor fill graphs
or span candidates.

Planning runs with the cyclic garbage collector paused. A plan makes no
reference cycles (a test holds this), so reference counting frees all of
it, and the collections its many tracked objects would set off find
nothing. Other threads of the host get no automatic cyclic collection
while a plan runs. The caller's collector state is restored when the plan
returns or raises.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

from . import allocation as alloc
from . import attention as attn
from . import metrics as metrics_mod
from . import scoring
from . import spans as spans_mod
from .chunking import Chunk, ChunkConfig, chunks_between, partition_chunks
from .config import PipelineConfig
from .cpg import Cpg, build_cpg, import_cpg_json
from .errors import ConfigError, ParameterError, SchemaError
from .lexer import (
    PackedTokens,
    SourceFile,
    Token,
    load_source,
    pack_tokens,
    tokenize,
    unpack_tokens,
)
from .metrics import RetentionReport
from .parsing import parse_subset
from .plan import ChunkPlan, CompressionPlan, LayerPlan, decode_json, read_record


def query_position(prefix_len: int, chunk_lengths: Sequence[int]) -> int:
    """First query position: past the longest pre-compression chunk."""
    if prefix_len < 0:
        raise ParameterError(f"prefix length must be non-negative, got {prefix_len}")
    return prefix_len + (max(chunk_lengths) if chunk_lengths else 0)


def load_corpus(directory: str | Path, include: Sequence[str] = ("**/*.py",)) -> list[SourceFile]:
    """Source files under a directory, keyed by corpus-relative POSIX path
    and sorted by that path string."""
    root = Path(directory)
    if not root.is_dir():
        raise ConfigError(f"corpus root {str(directory)!r} is not a directory")
    paths: set[Path] = set()
    for pattern in include:
        paths.update(p for p in root.glob(pattern) if p.is_file())
    files = [replace(load_source(p), path=p.relative_to(root).as_posix()) for p in paths]
    return sorted(files, key=lambda f: f.path)


# (token range, min_span_tokens, merge_gap_lines): what shapes a chunk's span
# candidates besides its file text
_SpanKey = tuple[tuple[int, int], int, int]


class _Entry(NamedTuple):
    """What the memo keeps of one file text under one chunking config:
    packed tokens, pickled graphs and span candidates in arrays, since live
    objects kept between plans pin heap arenas and raise peak RSS. ``graphs``
    and ``spans`` only gain keys, each in one dict store, so plans running
    at once share an entry safely."""

    tokens: PackedTokens
    cuts: tuple[int, ...]  # chunks run between consecutive cuts
    graphs: dict[tuple[int, int], bytes]  # token range -> pickled built-in graph
    spans: dict[_SpanKey, spans_mod.SpanTable]  # candidates from the built-in graph


_Key = tuple[bytes, ChunkConfig]  # (sha256 of a file's UTF-8 text, chunking config)

# Every file of the last indexed corpus (see the module docstring); only
# index_corpus reads or replaces it.
_MEMO: dict[_Key, _Entry | None] = {}


@dataclass(frozen=True)
class CorpusIndex:
    """The query-independent view of a corpus: chunks numbered from 0 in the
    order of the files' path strings, each chunk's own tokens, and each
    file's memo entry (None: not kept), shared with the published memo."""

    chunks: tuple[Chunk, ...]  # chunks[i].id == i
    tokens: tuple[list[Token], ...]  # tokens[i]: the tokens of chunks[i]
    entries: dict[str, _Entry | None]  # by file path


def index_corpus(files: Sequence[SourceFile], chunking: ChunkConfig) -> CorpusIndex:
    """Lex and chunk every file, or read both from the memo, then publish
    the memo of these files; the one place chunk ids are assigned, chunk
    tokens cut and the memo replaced."""
    global _MEMO
    previous, memo = _MEMO, {}
    chunks: list[Chunk] = []
    tokens: list[list[Token]] = []
    entries: dict[str, _Entry | None] = {}
    for f in sorted(files, key=lambda f: f.path):
        if f.path in entries:
            raise ParameterError(f"duplicate path in corpus: {f.path}")
        key = (hashlib.sha256(f.content.encode("utf-8", "surrogatepass")).digest(), chunking)
        entry = memo.get(key) or previous.get(key)
        if entry is None:
            toks = tokenize(f)
            file_chunks = partition_chunks(f, toks, chunking, start_id=len(chunks))
            if key in previous:
                cuts = (0, *(c.token_range[1] for c in file_chunks))
                entry = _Entry(pack_tokens(f.content, toks), cuts, {}, {})
        else:
            toks = unpack_tokens(f.content, entry.tokens)
            file_chunks = chunks_between(f.path, toks, entry.cuts, start_id=len(chunks))
        memo[key] = entries[f.path] = entry
        for chunk in file_chunks:
            chunks.append(chunk)
            tokens.append(toks[slice(*chunk.token_range)])
    _MEMO = memo
    return CorpusIndex(tuple(chunks), tuple(tokens), entries)


def chunk_graph(chunk: Chunk, tokens: list[Token], document: Cpg | None = None) -> Cpg:
    """A chunk's property graph: the external document when there is one,
    else the built-in analyzer's over the chunk's tokens. A document with no
    nodes asks for attention-only treatment."""
    if document is not None:
        return import_cpg_json(document, chunk)
    return build_cpg(parse_subset(tokens), chunk, tokens)


def _selected_graphs(
    selected: Sequence[Chunk], index: CorpusIndex, imported: dict[int, Cpg]
) -> dict[int, Cpg]:
    """Each selected chunk's graph by id: the imported one when there is
    one, else the built-in one from its file's memo entry, relabelled with
    the chunk's id, else a new built-in one, kept in that entry when the
    file has one."""
    cpgs: dict[int, Cpg] = {}
    for c in selected:
        entry = index.entries[c.file]
        blob = None if entry is None else entry.graphs.get(c.token_range)
        if c.id in imported:
            cpgs[c.id] = imported[c.id]
        elif blob is not None:
            cpg = pickle.loads(blob)
            cpgs[c.id] = cpg if cpg.chunk_id == c.id else replace(cpg, chunk_id=c.id)
        else:
            cpgs[c.id] = chunk_graph(c, index.tokens[c.id])
            if entry is not None:
                entry.graphs[c.token_range] = pickle.dumps(cpgs[c.id], pickle.HIGHEST_PROTOCOL)
    return cpgs


def _span_tables(
    selected: Sequence[Chunk],
    index: CorpusIndex,
    imported: dict[int, Cpg],
    cpgs: dict[int, Cpg],
    cfg: spans_mod.SpanConfig,
) -> dict[int, spans_mod.SpanTable]:
    """Each selected chunk's span candidates by id, none when spans are off:
    from its file's memo entry, else built from its graph and kept in that
    entry when the file has one. A chunk with an imported graph neither
    reads nor fills entries."""
    tables: dict[int, spans_mod.SpanTable] = {}
    if not cfg.enabled:
        return tables
    for c in selected:
        entry = None if c.id in imported else index.entries[c.file]
        key = (c.token_range, cfg.min_span_tokens, cfg.merge_gap_lines)
        table = None if entry is None else entry.spans.get(key)
        if table is None:
            table = spans_mod.build_spans(cpgs[c.id], cfg, index.tokens[c.id])
            if entry is not None:
                entry.spans[key] = table
        tables[c.id] = table
    return tables


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
    external_cpgs: dict[int, str | bytes | Cpg] | None = None,
) -> tuple[CompressionPlan, RetentionReport]:
    """Produce a compression plan and its retention report.

    ``external_cpgs`` maps chunk ids to interchange documents; chunks with
    a document use it instead of the built-in analyzer. Every document is
    checked against its chunk before the first score request, so a bad one
    fails the plan whether or not its chunk is selected. Runs with the cyclic
    garbage collector paused, and leaves it on or off as it found it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _plan(corpus, query, cfg, external_cpgs)
    finally:
        if enabled:
            gc.enable()


def _plan(
    corpus: Sequence[SourceFile],
    query: str | Sequence[Token],
    cfg: PipelineConfig,
    external_cpgs: dict[int, str | bytes | Cpg] | None,
) -> tuple[CompressionPlan, RetentionReport]:
    query_tokens, prefix_tokens = context_tokens(query, cfg)
    prefix_len = len(prefix_tokens)
    index = index_corpus(corpus, cfg.chunking)
    docs = external_cpgs or {}
    if unknown := sorted(set(docs) - set(range(len(index.chunks)))):
        raise SchemaError(f"graph documents for chunk ids the corpus lacks: {unknown}")
    imported = {cid: import_cpg_json(doc, index.chunks[cid]) for cid, doc in sorted(docs.items())}
    scores, selected_ids = score_chunks(index, query_tokens, prefix_tokens, cfg)
    ppl_by_id = dict(scores)
    selected = [index.chunks[cid] for cid in selected_ids]

    cpgs = _selected_graphs(selected, index, imported)
    tables = _span_tables(selected, index, imported, cpgs, cfg.span)

    sigmas = [scoring.structural_score(scoring.extract_features(cpgs[c.id])) for c in selected]
    normalized = alloc.normalize_scores(sigmas, cfg.allocation)
    multipliers = [alloc.multiplier(s, cfg.allocation) for s in normalized]
    budgets = [alloc.budget(c.length, m, cfg.allocation) for c, m in zip(selected, multipliers)]

    backend = _make_attention_backend(cfg)
    query_syms = scoring.query_symbols(query_tokens)
    chunk_plans = []
    for chunk, sigma, norm, mult, chunk_budget in zip(
        selected, sigmas, normalized, multipliers, budgets
    ):
        protected, span_records, b_span = spans_mod.protect_chunk(
            tables.get(chunk.id), chunk_budget, cfg.span, index.tokens[chunk.id], query_syms
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


def load_external_cpgs(path: str | Path) -> dict[int, Cpg]:
    """Read a sidecar file of interchange documents keyed by chunk id.

    The file holds a JSON array of per-chunk documents (the same schema
    the exporter emits); each document's chunk_id must match a chunk id
    produced by the `chunk` stage under the same chunking config. Each
    document's fields are typed here; :func:`run_pipeline` checks it
    against its chunk.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    out: dict[int, Cpg] = {}
    for cpg in read_record(tuple[Cpg, ...], decode_json(data, str(path)), str(path)):
        if cpg.chunk_id in out:
            raise SchemaError(f"{path}: more than one document for chunk_id {cpg.chunk_id}")
        out[cpg.chunk_id] = cpg
    return out
