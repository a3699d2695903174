"""End-to-end planning: selection, graph analysis, allocation, protection,
per-layer attention selection, and position assembly.

The pipeline is deterministic for a fixed (corpus, query, config, seed).
Only scoring, one request per corpus chunk, fans out: ``workers`` score
requests are in flight at once. Everything after chunk selection runs on
the calling thread in chunk-id order, and the plan is canonical JSON, so
the worker count never changes a byte of output. An HTTP backend keeps
its connections alive for one plan, one per thread posting at a time (at
most ``workers`` for scoring, one for attention), and closes them when its
stage ends, whether the plan returns or raises.

Lexing, chunking and everything a plan reads of a chunk's built-in graph
are reused across plans in one process. One module-level memo, keyed by
(sha256 of a file's UTF-8 text, chunking config), holds every file of the
last indexed corpus of each chunking config; only ``index_corpus`` reads or
replaces it. A file new to that corpus maps to None, so a file indexed once
costs one digest. A file in two corpora in a row maps to an entry: its
tokens as typed arrays without their texts (each text is sliced again from
the current content, which has the same digest), its chunk cuts, each
chunk's identifier names (``lexer.Names``: its sorted identifier texts, as
a tuple and a set, and per token an index into them), and for every chunk
selected since the entry was made its graph facts (the six feature counts
and a per-token bitmask of the node kinds covering it), by token range,
and its span candidates as a ``spans.SpanTable`` of numpy arrays, by token
range, ``min_span_tokens`` and ``merge_gap_lines``. A later plan reads all
of them from the entry, so it builds no token list and no graph: query
hits, scores, span packing and the structure score run on these arrays,
and the HTTP scorer's token texts are sliced from the content by the kept
starts and lengths. Tokens are unpacked only for a memo miss. For all
163 ``asyncio`` chunks an entry set holds about 0.54 MB of tokens, 1.0 MB
of names, 0.09 MB of graph facts and 0.07 MB of span arrays. An entry
lives while its text stays in consecutive corpora of its chunking config;
nothing is written to disk. Chunks with an external graph document neither
read nor fill graph facts or span candidates.

Planning runs with the cyclic garbage collector paused. A plan makes no
reference cycles (a test holds this), so reference counting frees all of
it, and the collections its many tracked objects would set off find
nothing. Other threads of the host get no automatic cyclic collection
while a plan runs. The caller's collector state is restored when the plan
returns or raises, and the C heap's free pages are then handed back to the
system (``plan.release_free_heap``).
"""

from __future__ import annotations

import gc
import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

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
    Names,
    PackedTokens,
    SourceFile,
    Token,
    identifier_names,
    load_source,
    pack_tokens,
    token_texts,
    tokenize,
    unpack_tokens,
)
from .metrics import RetentionReport
from .parsing import parse_subset
from .plan import (
    ChunkPlan,
    CompressionPlan,
    LayerPlan,
    decode_json,
    read_record,
    release_free_heap,
)


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


class _Graph(NamedTuple):
    """What a plan reads of a chunk's graph: its feature counts, and per
    token the node kinds that cover it (``metrics.kind_mask``)."""

    features: scoring.StructuralFeatures
    kinds: np.ndarray


class _Entry(NamedTuple):
    """What the memo keeps of one file text under one chunking config:
    tokens and graphs only as arrays and counts, since the many live token
    and graph objects kept between plans would pin heap arenas and raise
    peak RSS. ``graphs`` and ``spans`` only gain keys, each in one dict
    store, so plans running at once share an entry safely."""

    tokens: PackedTokens
    cuts: tuple[int, ...]  # chunks run between consecutive cuts
    names: dict[tuple[int, int], Names]  # every chunk's, by token range
    graphs: dict[tuple[int, int], _Graph]  # by token range, from the built-in graph
    spans: dict[_SpanKey, spans_mod.SpanTable]  # candidates from the built-in graph


_Key = tuple[bytes, ChunkConfig]  # (sha256 of a file's UTF-8 text, chunking config)

# The files of the last indexed corpus of each chunking config (see the
# module docstring); only index_corpus reads or replaces it.
_MEMO: dict[_Key, _Entry | None] = {}


@dataclass(frozen=True)
class CorpusIndex:
    """The query-independent view of a corpus: chunks numbered from 0 in the
    order of the files' path strings, and each file's memo entry (None: not
    kept), shared with the published memo. A chunk's tokens and identifier
    names are made or read only when a plan asks for them."""

    chunks: tuple[Chunk, ...]  # chunks[i].id == i
    entries: dict[str, _Entry | None]  # by file path
    contents: dict[str, str]  # by file path
    lexed: dict[str, list[Token]]  # by file path: tokens lexed, or unpacked when first asked for

    def tokens(self, chunk_id: int) -> list[Token]:
        """The tokens of one chunk; a kept file's are unpacked from its
        entry on first use."""
        chunk = self.chunks[chunk_id]
        toks = self.lexed.get(chunk.file)
        if toks is None:
            entry = self.entries[chunk.file]
            toks = self.lexed[chunk.file] = unpack_tokens(self.contents[chunk.file], entry.tokens)
        return toks[slice(*chunk.token_range)]

    def scored_tokens(self, chunk_id: int) -> Sequence[Token]:
        """The tokens of one chunk as a scorer reads them: those lexed by
        this index, else a view that holds the kept names (all the mock
        scorer reads), slices the texts (all the HTTP scorer reads) from the
        content by the kept starts and lengths, and unpacks the tokens only
        when read."""
        chunk = self.chunks[chunk_id]
        entry = self.entries[chunk.file]
        if entry is None:
            return self.tokens(chunk_id)
        texts = partial(token_texts, self.contents[chunk.file], entry.tokens, *chunk.token_range)
        return scoring.ChunkTokens(
            entry.names[chunk.token_range], partial(self.tokens, chunk_id), texts
        )

    def names(self, chunk_id: int) -> Names:
        """The identifier names of one chunk: its file's entry's, else made
        from its tokens and not kept."""
        chunk = self.chunks[chunk_id]
        entry = self.entries[chunk.file]
        if entry is None:
            return identifier_names(self.tokens(chunk_id))
        return entry.names[chunk.token_range]


def index_corpus(files: Sequence[SourceFile], chunking: ChunkConfig) -> CorpusIndex:
    """Lex and chunk every file, or read both from the memo, then publish
    the memo with these files as its corpus for ``chunking``; the one place
    chunk ids are assigned and the memo replaced."""
    global _MEMO
    previous = _MEMO
    memo = {key: entry for key, entry in previous.items() if key[1] != chunking}
    chunks: list[Chunk] = []
    entries: dict[str, _Entry | None] = {}
    lexed: dict[str, list[Token]] = {}
    for f in sorted(files, key=lambda f: f.path):
        if f.path in entries:
            raise ParameterError(f"duplicate path in corpus: {f.path}")
        key = (hashlib.sha256(f.content.encode("utf-8", "surrogatepass")).digest(), chunking)
        entry = memo.get(key) or previous.get(key)
        if entry is None:
            toks = lexed[f.path] = tokenize(f)
            file_chunks = partition_chunks(f, toks, chunking, start_id=len(chunks))
            if key in previous:
                cuts = (0, *(c.token_range[1] for c in file_chunks))
                names = {
                    c.token_range: identifier_names(toks[slice(*c.token_range)])
                    for c in file_chunks
                }
                entry = _Entry(pack_tokens(f.content, toks), cuts, names, {}, {})
        else:
            lines = entry.tokens.lines
            file_chunks = chunks_between(f.path, lines.__getitem__, entry.cuts, len(chunks))
        memo[key] = entries[f.path] = entry
        chunks.extend(file_chunks)
    _MEMO = memo
    contents = {f.path: f.content for f in files}
    return CorpusIndex(tuple(chunks), entries, contents, lexed)


def chunk_graph(chunk: Chunk, tokens: list[Token], document: Cpg | None = None) -> Cpg:
    """A chunk's property graph: the external document when there is one,
    else the built-in analyzer's over the chunk's tokens. A document with no
    nodes asks for attention-only treatment."""
    if document is not None:
        return import_cpg_json(document, chunk)
    return build_cpg(parse_subset(tokens), chunk, tokens)


def _graph_facts(cpg: Cpg, length: int) -> _Graph:
    kinds = metrics_mod.kind_mask(cpg, length)
    kinds.flags.writeable = False
    return _Graph(scoring.extract_features(cpg), kinds)


def _selected_facts(
    selected: Sequence[Chunk],
    index: CorpusIndex,
    imported: dict[int, Cpg],
    cfg: spans_mod.SpanConfig,
) -> tuple[dict[int, _Graph], dict[int, spans_mod.SpanTable]]:
    """Each selected chunk's graph facts and span candidates (none when
    spans are off) by id. A chunk with an imported graph has them from that
    graph and neither reads nor fills entries. Any other reads them from
    its file's memo entry; what the entry lacks comes from a new built-in
    graph and is kept in it when the file has one."""
    graphs: dict[int, _Graph] = {}
    tables: dict[int, spans_mod.SpanTable] = {}
    for c in selected:
        entry = None if c.id in imported else index.entries[c.file]
        key = (c.token_range, cfg.min_span_tokens, cfg.merge_gap_lines)
        graph = None if entry is None else entry.graphs.get(c.token_range)
        table = None if entry is None else entry.spans.get(key)
        if graph is None or (cfg.enabled and table is None):
            cpg = imported[c.id] if c.id in imported else chunk_graph(c, index.tokens(c.id))
            if graph is None:
                graph = _graph_facts(cpg, c.length)
                if entry is not None:
                    entry.graphs[c.token_range] = graph
            if cfg.enabled and table is None:
                table = spans_mod.build_spans(cpg, cfg, index.tokens(c.id))
                if entry is not None:
                    entry.spans[key] = table
        graphs[c.id] = graph
        if cfg.enabled:
            tables[c.id] = table
    return graphs, tables


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

    def score_one(chunk: Chunk) -> tuple[int, float]:
        tokens = index.scored_tokens(chunk.id)
        value = scoring.score_chunk(scorer, prefix_tokens, chunk, query_tokens, tokens)
        return (chunk.id, value)

    with _make_scorer(cfg) as scorer:
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
        with _make_attention_backend(cfg) as backend:
            return _plan(corpus, query, cfg, external_cpgs, backend)
    finally:
        if enabled:
            gc.enable()
        release_free_heap()


def _plan(
    corpus: Sequence[SourceFile],
    query: str | Sequence[Token],
    cfg: PipelineConfig,
    external_cpgs: dict[int, str | bytes | Cpg] | None,
    backend: attn.MockAttentionBackend | attn.HttpAttentionBackend,
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

    graphs, tables = _selected_facts(selected, index, imported, cfg.span)

    sigmas = [scoring.structural_score(graphs[c.id].features) for c in selected]
    normalized = alloc.normalize_scores(sigmas, cfg.allocation)
    multipliers = [alloc.multiplier(s, cfg.allocation) for s in normalized]
    budgets = [alloc.budget(c.length, m, cfg.allocation) for c, m in zip(selected, multipliers)]

    query_syms = scoring.query_symbols(query_tokens)
    chunk_plans = []
    for chunk, sigma, norm, mult, chunk_budget in zip(
        selected, sigmas, normalized, multipliers, budgets
    ):
        protected, span_records, b_span = spans_mod.protect_chunk(
            tables.get(chunk.id), chunk_budget, cfg.span, index.names(chunk.id), query_syms
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
    report = metrics_mod.structure_score(plan, {cid: g.kinds for cid, g in graphs.items()})
    return plan, report


def _map(fn, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# Both return context managers: leaving one closes an HTTP backend's connections.
def _make_scorer(cfg: PipelineConfig):
    if cfg.scorer.backend == "mock":
        return nullcontext(scoring.MockScorer())
    return scoring.HttpScorer(cfg.scorer.url, cfg.scorer.timeout_s, cfg.scorer.retries)


def _make_attention_backend(cfg: PipelineConfig):
    if cfg.attention.backend == "mock":
        return nullcontext(
            attn.MockAttentionBackend(
                seed=cfg.seed, window=cfg.attention.window, dim=cfg.attention.dim
            )
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
