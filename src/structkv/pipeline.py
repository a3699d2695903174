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

Lexing, chunking and everything a plan reads of a chunk besides its score
are reused across plans in one process. One module-level memo, keyed by
(sha256 of a file's UTF-8 text, chunking config, ``min_span_tokens``,
``merge_gap_lines``), holds every file of the last indexed corpus of each
chunking config and span shape (the last two key fields). Only
``index_corpus`` binds or writes it, and it makes every entry before it
publishes the memo, so an entry never changes once published. A file new
to that corpus maps to None, so a file indexed once costs one digest,
unless the corpus has no more chunks than the plan selects: that plan
builds every chunk's facts anyway, so each file's entry is made then. A
file in two corpora in a row maps to an entry, made whole from the tokens
the second plan lexed: where each token sits in the content
(``lexer.TokenTexts``), and each chunk's token and line ranges and facts
(``_Facts``: identifier names, built-in graph facts and span candidates,
the last built whether or not spans are on). A later plan reads them all
from the entry, so it builds no token list and no graph; the HTTP
scorer's texts are sliced from the current content, which has the same
digest. A kept file is lexed again only for a chunk with an external
graph document, which never reads its entry.
For all 163 ``asyncio`` chunks the entries hold about 0.28 MB of token
positions, 1.0 MB of names, 0.09 MB of graph facts and 0.07 MB of span
arrays. Nothing is written to disk.

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
from itertools import groupby
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import allocation as alloc
from . import attention as attn
from . import metrics as metrics_mod
from . import scoring
from . import spans as spans_mod
from .chunking import Chunk, ChunkConfig, partition_chunks
from .config import PipelineConfig
from .cpg import Cpg, build_cpg, import_cpg_json
from .errors import ConfigError, ParameterError, SchemaError
from .lexer import (
    Names,
    SourceFile,
    Token,
    TokenTexts,
    identifier_names,
    load_source,
    pack_texts,
    token_texts,
    tokenize,
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


class _Facts(NamedTuple):
    """What a plan reads of one chunk besides its score, none of it shaped
    by the query: its identifier names, its graph's feature counts, per
    token the node kinds that cover it (``metrics.kind_mask``), and its
    span candidates."""

    names: Names
    features: scoring.StructuralFeatures
    kinds: np.ndarray
    spans: spans_mod.SpanTable


class _Entry(NamedTuple):
    """What the memo keeps of one file text: arrays, counts and tuples
    only, since the many live token and graph objects kept between plans
    would pin heap arenas and raise peak RSS. It is made whole once and
    never changed, so plans running at once share it."""

    texts: TokenTexts
    # per chunk of the file, in order: (token range, line range, facts)
    chunks: tuple[tuple[tuple[int, int], tuple[int, int], _Facts], ...]


# (sha256 of a file's UTF-8 text, chunking config, min_span_tokens, merge_gap_lines)
_Key = tuple[bytes, ChunkConfig, int, int]

# The files of the last indexed corpus of each chunking config and span
# shape (see the module docstring); only index_corpus reads, writes or binds it.
_MEMO: dict[_Key, _Entry | None] = {}


@dataclass(frozen=True)
class CorpusIndex:
    """The query-independent view of a corpus: chunks numbered from 0 in the
    order of the files' path strings, and each chunk's facts from its
    file's memo entry (None: not kept). A kept file's tokens are made only
    when asked for."""

    chunks: tuple[Chunk, ...]  # chunks[i].id == i
    facts: tuple[_Facts | None, ...]  # facts[i] is chunks[i]'s
    entries: dict[str, _Entry | None]  # by file path, as published
    contents: dict[str, str]  # by file path
    lexed: dict[str, list[Token]]  # by file path: lexed when indexed, or when first asked for

    def tokens(self, chunk_id: int) -> list[Token]:
        """The tokens of one chunk; a kept file is lexed again on first use."""
        chunk = self.chunks[chunk_id]
        toks = self.lexed.get(chunk.file)
        if toks is None:
            source = SourceFile(chunk.file, self.contents[chunk.file])
            toks = self.lexed[chunk.file] = tokenize(source)
        return toks[slice(*chunk.token_range)]

    def scored_tokens(self, chunk_id: int) -> Sequence[Token] | scoring.KeptChunk:
        """One chunk as a scorer reads it: the tokens lexed by this index,
        else its kept names and a slicer of its texts from the content by
        the kept starts and lengths."""
        chunk, facts = self.chunks[chunk_id], self.facts[chunk_id]
        if facts is None:
            return self.tokens(chunk_id)
        content, texts = self.contents[chunk.file], self.entries[chunk.file].texts
        return scoring.KeptChunk(
            facts.names, partial(token_texts, content, texts, *chunk.token_range)
        )


def index_corpus(
    files: Sequence[SourceFile], chunking: ChunkConfig, span: spans_mod.SpanConfig, k: int = 0
) -> CorpusIndex:
    """Lex and chunk every file, or read both from the memo, then publish
    the memo with these files as its corpus for ``chunking`` and ``span``'s
    two shaping fields; the one place chunk ids are assigned and memo
    entries made. If the corpus has at most ``k`` chunks (a plan that
    selects every chunk), every file lexed here gets its entry."""
    global _MEMO
    previous = _MEMO
    tail = (chunking, span.min_span_tokens, span.merge_gap_lines)
    memo = {key: entry for key, entry in previous.items() if key[1:] != tail}
    chunks: list[Chunk] = []
    facts: list[_Facts | None] = []
    keys: dict[str, _Key] = {}
    lexed: dict[str, list[Token]] = {}
    for f in sorted(files, key=lambda f: f.path):
        if f.path in keys:
            raise ParameterError(f"duplicate path in corpus: {f.path}")
        digest = hashlib.sha256(f.content.encode("utf-8", "surrogatepass")).digest()
        key = keys[f.path] = (digest, *tail)
        entry = memo.get(key) or previous.get(key)
        if entry is None:
            toks = lexed[f.path] = tokenize(f)
            file_chunks = partition_chunks(f, toks, chunking, start_id=len(chunks))
            if key in previous:
                entry = _entry(f.content, toks, file_chunks, span)
        else:
            file_chunks = [
                Chunk(len(chunks) + i, f.path, (start, end), lines, end - start)
                for i, ((start, end), lines, _) in enumerate(entry.chunks)
            ]
        memo[key] = entry
        chunks.extend(file_chunks)
        facts.extend([None] * len(file_chunks) if entry is None else [c[2] for c in entry.chunks])
    contents = {f.path: f.content for f in files}
    if len(chunks) <= k:
        by_file = {path: [*group] for path, group in groupby(chunks, lambda c: c.file)}
        for path, toks in lexed.items():
            own, key = by_file.get(path, []), keys[path]
            memo[key] = memo[key] or _entry(contents[path], toks, own, span)
            for c, (*_, made) in zip(own, memo[key].chunks):
                facts[c.id] = made
    _MEMO = memo
    entries = {path: memo[key] for path, key in keys.items()}
    return CorpusIndex(tuple(chunks), tuple(facts), entries, contents, lexed)


def _entry(text: str, toks: list[Token], chunks: list[Chunk], span: spans_mod.SpanConfig) -> _Entry:
    """A file's memo entry from its tokens and its chunks, in order, each
    with the facts built from its own tokens."""
    facts = (chunk_facts(c, toks[slice(*c.token_range)], span) for c in chunks)
    ranges = tuple((c.token_range, c.line_range, k) for c, k in zip(chunks, facts))
    return _Entry(pack_texts(text, toks), ranges)


def chunk_graph(chunk: Chunk, tokens: list[Token]) -> Cpg:
    """A chunk's property graph from the built-in analyzer over its tokens."""
    return build_cpg(parse_subset(tokens), chunk, tokens)


def chunk_facts(
    chunk: Chunk, tokens: list[Token], span_cfg: spans_mod.SpanConfig, cpg: Cpg | None = None
) -> _Facts:
    """The facts of a chunk from its own tokens and its graph: ``cpg`` when
    given (an imported document), else the built-in analyzer's."""
    if cpg is None:
        cpg = chunk_graph(chunk, tokens)
    kinds = metrics_mod.kind_mask(cpg, chunk.length)
    kinds.flags.writeable = False
    return _Facts(
        identifier_names(tokens),
        scoring.extract_features(cpg),
        kinds,
        spans_mod.build_spans(cpg, span_cfg, tokens),
    )


def _selected_facts(
    selected: Sequence[Chunk],
    index: CorpusIndex,
    imported: dict[int, Cpg],
    span_cfg: spans_mod.SpanConfig,
) -> dict[int, _Facts]:
    """Each selected chunk's facts by id: those of its file's memo entry,
    else built from its tokens. A chunk with an imported graph never reads
    its entry: its facts come from that graph."""
    out: dict[int, _Facts] = {}
    for c in selected:
        kept = None if c.id in imported else index.facts[c.id]
        out[c.id] = kept or chunk_facts(c, index.tokens(c.id), span_cfg, imported.get(c.id))
    return out


def context_tokens(query: str, cfg: PipelineConfig) -> tuple[list[Token], list[Token]]:
    """(query tokens, prefix tokens); the query must produce a token."""
    query_tokens = tokenize(SourceFile("<query>", query))
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
    query: str,
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
    query: str,
    cfg: PipelineConfig,
    external_cpgs: dict[int, str | bytes | Cpg] | None,
    backend: attn.MockAttentionBackend | attn.HttpAttentionBackend,
) -> tuple[CompressionPlan, RetentionReport]:
    query_tokens, prefix_tokens = context_tokens(query, cfg)
    prefix_len = len(prefix_tokens)
    index = index_corpus(corpus, cfg.chunking, cfg.span, cfg.selection.k)
    docs = external_cpgs or {}
    if unknown := sorted(set(docs) - set(range(len(index.chunks)))):
        raise SchemaError(f"graph documents for chunk ids the corpus lacks: {unknown}")
    imported = {cid: import_cpg_json(doc, index.chunks[cid]) for cid, doc in sorted(docs.items())}
    scores, selected_ids = score_chunks(index, query_tokens, prefix_tokens, cfg)
    ppl_by_id = dict(scores)
    selected = [index.chunks[cid] for cid in selected_ids]

    facts = _selected_facts(selected, index, imported, cfg.span)

    sigmas = [scoring.structural_score(facts[c.id].features) for c in selected]
    normalized = alloc.normalize_scores(sigmas, cfg.allocation)
    multipliers = [alloc.multiplier(s, cfg.allocation) for s in normalized]
    budgets = [alloc.budget(c.length, m, cfg.allocation) for c, m in zip(selected, multipliers)]

    query_syms = scoring.query_symbols(query_tokens)
    chunk_plans = []
    for chunk, sigma, norm, mult, chunk_budget in zip(
        selected, sigmas, normalized, multipliers, budgets
    ):
        own = facts[chunk.id]
        protected, span_records, b_span = spans_mod.protect_chunk(
            own.spans, chunk_budget, cfg.span, own.names, query_syms
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
        config_fingerprint=cfg.fingerprint(tuple(imported.values())),
    )
    report = metrics_mod.structure_score(plan, {cid: f.kinds for cid, f in facts.items()})
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
