"""Span-level protection: carve structural spans out of a chunk, rank them,
pack them under the span budget (query hits and signatures first), and turn
the survivors into a protected token set that fills the chunk budget.

The query-independent half, a chunk's candidates, is one packed
:class:`SpanTable` that a caller may keep and reuse; each plan then marks the
query hits, scores and packs on its arrays.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cpg import Cpg, EdgeKind
from .errors import ConfigError
from .lexer import Names, Token
from .plan import SpanRecord

DEFAULT_SPAN_WEIGHTS = {
    "call": 0.20,
    "control": 0.18,
    "query": 0.18,
    "return": 0.14,
    "assign": 0.14,
    "signature": 0.0,
    "defuse": 0.10,
}


@dataclass(frozen=True)
class SpanConfig:
    rho_span: float = 0.5
    b_min: int = 16
    min_span_tokens: int = 16
    merge_gap_lines: int = 1
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SPAN_WEIGHTS))
    enabled: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.rho_span <= 1.0):
            raise ConfigError(f"rho_span must be in (0, 1], got {self.rho_span}")
        if self.b_min <= 0 or self.min_span_tokens <= 0:
            raise ConfigError("b_min and min_span_tokens must be positive")
        if self.merge_gap_lines < 0:
            raise ConfigError("merge_gap_lines must be non-negative")
        if unknown := self.weights.keys() - DEFAULT_SPAN_WEIGHTS.keys():
            raise ConfigError(f"unknown span weights {sorted(unknown)}")
        for key in DEFAULT_SPAN_WEIGHTS:
            if key not in self.weights:
                raise ConfigError(f"missing span weight {key!r}")
            if not (math.isfinite(self.weights[key]) and self.weights[key] >= 0):
                raise ConfigError(f"span weight {key!r} must be finite and non-negative")


# Bit i of a candidate's indicator mask stands for key i of
# DEFAULT_SPAN_WEIGHTS: its node kind (windows merge only with a shared one),
# and "defuse" when a window's node takes part in a def-use edge. The
# "query" bit is never set; a hit is per query.
_BIT = {kind: 1 << i for i, kind in enumerate(DEFAULT_SPAN_WEIGHTS)}
_DEFUSE = _BIT["defuse"]


@dataclass(frozen=True, eq=False)
class SpanTable:
    """A chunk's span candidates, packed in read-only arrays: one row per
    merged candidate in chunk order, and the chunk-order windows merged
    into them, of which each candidate owns a run from its ``first``.

    It depends on the chunk's graph and tokens and the config's
    ``min_span_tokens`` and ``merge_gap_lines`` only, never on the query or
    the weights, so one table serves every plan of the chunk's text."""

    anchor: np.ndarray  # graph node id of the candidate's first window
    start: np.ndarray  # chunk-local token range, half-open
    end: np.ndarray
    bits: np.ndarray  # indicator mask, see _BIT
    window_start: np.ndarray  # pre-merge windows, chunk-local, half-open
    window_end: np.ndarray
    first: np.ndarray  # index of each candidate's first window

    def __len__(self) -> int:
        return len(self.anchor)


class SpanSelection(NamedTuple):
    index: int  # row of the candidate in its table
    stage: int  # 1 = query hit or signature, 2 = score-ranked


def protect_chunk(
    table: SpanTable,
    budget: int,
    cfg: SpanConfig,
    names: Names,
    query_syms: frozenset[str],
) -> tuple[tuple[int, ...], tuple[SpanRecord, ...], int]:
    """(protected tokens, chosen spans, span budget) of one chunk, from its
    candidates and its identifier names.

    The protected set is empty when spans are off or none is chosen, and
    otherwise exactly ``budget`` tokens: :func:`protect_tokens` pads the
    span union out to the budget, so protection alone decides the chunk.
    """
    if not cfg.enabled:
        return (), (), 0
    hits = query_hits(table, names, query_syms)
    scores = span_scores(table, cfg.weights, hits)
    b_span = span_budget(budget, cfg)
    selections = select_spans(table, scores, hits, b_span)
    anchor, start, end, score = (a.tolist() for a in (table.anchor, table.start, table.end, scores))
    records = tuple(
        SpanRecord(anchor[i], stage, score[i], (start[i], end[i])) for i, stage in selections
    )
    protected = protect_tokens([r.token_range for r in records], budget, len(names.ids))
    return tuple(protected), records, b_span


def build_spans(cpg: Cpg, cfg: SpanConfig, tokens: list[Token]) -> SpanTable:
    """One window per graph node, widened to the minimum span size, and
    windows merged into candidates with near neighbors that share a
    structural indicator (a node kind)."""
    length = len(tokens)
    defuse = {nid for e in cpg.edges if e.kind is EdgeKind.PDG for nid in (e.src, e.dst)}
    windows = []
    for node in cpg.nodes:
        start, end = node.token_range
        # Widen to the minimum (the preceding side gets the odd token), then
        # shift the window back inside the chunk.
        width = min(length, max(end - start, cfg.min_span_tokens))
        start = min(max(start - (width - (end - start) + 1) // 2, 0), length - width)
        bits = _BIT[node.kind.value] | (_DEFUSE if node.id in defuse else 0)
        windows.append((start, start + width, node.id, bits))
    windows.sort()  # by token range, then node id (ids are unique)
    anchor: list[int] = []
    first: list[int] = []
    bits: list[int] = []
    end: list[int] = []
    last_line = 0  # the merged candidate's last line
    for i, (w_start, w_end, nid, w_bits) in enumerate(windows):
        gap = tokens[w_start].line - last_line
        if anchor and gap <= cfg.merge_gap_lines and bits[-1] & w_bits & ~_DEFUSE:
            bits[-1] |= w_bits
            end[-1] = max(end[-1], w_end)
            last_line = max(last_line, tokens[w_end - 1].line)
        else:
            anchor.append(nid)
            first.append(i)
            bits.append(w_bits)
            end.append(w_end)
            last_line = tokens[w_end - 1].line
    pos, ids = np.min_scalar_type(length), np.min_scalar_type(len(windows))
    window_start = np.array([w[0] for w in windows], pos)
    arrays = [
        np.array(anchor, ids),
        window_start[first],
        np.array(end, pos),
        np.array(bits, np.uint8),
        window_start,
        np.array([w[1] for w in windows], pos),
        np.array(first, ids),
    ]
    for a in arrays:
        a.flags.writeable = False
    return SpanTable(*arrays)


def query_hits(table: SpanTable, names: Names, query_syms: frozenset[str]) -> np.ndarray:
    """Whether each candidate holds a query identifier: one of its windows
    does. Tokens between two merged windows are no part of it."""
    texts = names.texts
    found = [bisect.bisect_left(texts, sym) for sym in query_syms & names.set]
    if not found:
        return np.zeros(len(table), dtype=bool)
    named = np.zeros(len(texts) + 1, dtype=bool)  # the last slot answers id -1
    named[found] = True
    # query identifiers before each token
    seen = np.concatenate(([0], np.cumsum(named[names.ids])))
    in_window = seen[table.window_end] > seen[table.window_start]
    return np.logical_or.reduceat(in_window, table.first)


def span_scores(table: SpanTable, weights: dict[str, float], hits: np.ndarray) -> np.ndarray:
    """Each candidate's score: the weights of its indicators, summed in the
    key order of DEFAULT_SPAN_WEIGHTS so the float is the same in every
    process, plus the query weight on a hit."""
    scores = np.zeros(len(table))
    for kind, bit in _BIT.items():
        scores += np.where(table.bits & bit, weights[kind], 0.0)
    return scores + weights["query"] * hits


def span_budget(b: int, cfg: SpanConfig) -> int:
    if b < 0:
        raise ConfigError(f"budget must be non-negative, got {b}")
    return min(b, max(cfg.b_min, math.floor(cfg.rho_span * b)))


def select_spans(
    table: SpanTable, scores: np.ndarray, hits: np.ndarray, b_span: int
) -> list[SpanSelection]:
    """Greedy packing under the span budget, one attempt per candidate.

    Stage 1 offers the query hits, then the signatures, each in chunk order
    (token range, then row); stage 2 offers the rest by descending score.
    A candidate is taken when its not-yet-covered width fits in what is
    left of ``b_span``, so overlapping tokens are charged once.
    """
    first_stage = hits | (table.bits & _BIT["signature"] > 0)
    rank = np.where(hits, 0, np.where(first_stage, 1, 2))
    # a stable sort, so rows tie-break last
    order = np.lexsort((table.end, table.start, np.where(first_stage, 0.0, -scores), rank))
    # A candidate that does not fit never fits later, so it is offered once:
    # every later take lowers `remaining` by its whole uncovered width, which
    # is at least what it covers of the candidate that did not fit.
    starts, ends, stage_one = table.start.tolist(), table.end.tolist(), first_stage.tolist()
    covered = bytearray(max(ends, default=0))
    remaining = b_span
    out: list[SpanSelection] = []
    for i in order.tolist():
        start, end = starts[i], ends[i]
        fresh = covered.count(0, start, end)
        if fresh <= remaining:
            covered[start:end] = b"\x01" * (end - start)
            remaining -= fresh
            out.append(SpanSelection(i, 1 if stage_one[i] else 2))
    return out


def protect_tokens(ranges: list[tuple[int, int]], b: int, length: int) -> list[int]:
    """Indices into a chunk of ``length`` tokens guaranteed to survive
    compression, at most ``b`` of them, given the chosen spans' token ranges.

    The span union is kept whole when it fits; the rest of the budget is
    filled with the tokens nearest the protected region. When the union
    overflows, its first ``b`` indices in sequence order are kept.
    """
    mask = np.zeros(length, dtype=bool)
    for start, end in ranges:
        mask[start:end] = True
    pts = np.flatnonzero(mask)
    if len(pts) >= b or not len(pts):
        return pts[:b].tolist()
    at = np.arange(length)
    pos = np.searchsorted(pts, at)  # how many protected indices lie below each token
    far = 2 * length  # a sentinel farther from every token than any index
    dist = np.minimum(np.append(pts, far)[pos] - at, at - np.insert(pts, 0, -far)[pos])
    # The union sits at distance 0 and every outside token at 1 or more, so
    # the first b of a stable sort are the union plus the outside tokens
    # first in (distance, index) order.
    return np.sort(np.argsort(dist, kind="stable")[:b]).tolist()
