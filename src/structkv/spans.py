"""Span-level protection: carve structural spans out of a chunk, rank them,
pack them under the span budget (query hits and signatures first), and turn
the survivors into a protected token set that fills the chunk budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cpg import Cpg, EdgeKind
from .errors import ConfigError
from .lexer import Token, TokenKind
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


@dataclass(frozen=True)
class StructuralSpan:
    anchor_node: int
    token_range: tuple[int, int]  # chunk-local, half-open
    indicators: frozenset[str]  # node kinds
    symbols: frozenset[str]
    line_range: tuple[int, int]
    participates_defuse: bool = False

    @property
    def width(self) -> int:
        return self.token_range[1] - self.token_range[0]


class SpanSelection(NamedTuple):
    index: int  # position in the candidate list
    stage: int  # 1 = query hit or signature, 2 = score-ranked


def protect_chunk(
    cpg: Cpg,
    budget: int,
    cfg: SpanConfig,
    tokens: list[Token],
    query_syms: frozenset[str],
) -> tuple[tuple[int, ...], tuple[SpanRecord, ...], int]:
    """(protected tokens, chosen spans, span budget) of one chunk.

    The protected set is empty when spans are off or none is chosen, and
    otherwise exactly ``budget`` tokens: :func:`protect_tokens` pads the
    span union out to the budget, so protection alone decides the chunk.
    """
    if not cfg.enabled:
        return (), (), 0
    candidates = build_spans(cpg, cfg, tokens)
    hits = [query_protection(z, query_syms) for z in candidates]
    scores = [score_span(z, cfg, hit) for z, hit in zip(candidates, hits)]
    b_span = span_budget(budget, cfg)
    selections = select_spans(candidates, scores, hits, b_span)
    chosen = [candidates[s.index] for s in selections]
    records = tuple(
        SpanRecord(z.anchor_node, s.stage, scores[s.index], z.token_range)
        for s, z in zip(selections, chosen)
    )
    return tuple(protect_tokens(chosen, budget, len(tokens))), records, b_span


def build_spans(cpg: Cpg, cfg: SpanConfig, tokens: list[Token]) -> list[StructuralSpan]:
    """One candidate per graph node, widened to the minimum span size and
    merged with near neighbors that share a structural indicator."""
    length = len(tokens)
    defuse_nodes = {
        nid
        for e in cpg.edges
        if e.kind is EdgeKind.PDG
        for nid in (e.src, e.dst)
    }
    names = [t.text if t.kind is TokenKind.IDENTIFIER else None for t in tokens]
    candidates = []
    for node in cpg.nodes:
        start, end = node.token_range
        # Widen to the minimum (the preceding side gets the odd token), then
        # shift the window back inside the chunk.
        width = min(length, max(end - start, cfg.min_span_tokens))
        start = min(max(start - (width - (end - start) + 1) // 2, 0), length - width)
        end = start + width
        candidates.append(
            StructuralSpan(
                anchor_node=node.id,
                token_range=(start, end),
                indicators=frozenset({node.kind.value}),
                symbols=frozenset(filter(None, names[start:end])),
                line_range=(tokens[start].line, tokens[end - 1].line),
                participates_defuse=node.id in defuse_nodes,
            )
        )
    candidates.sort(key=lambda z: (z.token_range, z.anchor_node))
    merged = candidates[:1]
    for z in candidates[1:]:
        prev = merged[-1]
        gap = z.line_range[0] - prev.line_range[1]
        if gap > cfg.merge_gap_lines or not prev.indicators & z.indicators:
            merged.append(z)
        else:
            merged[-1] = replace(
                prev,
                token_range=(prev.token_range[0], max(prev.token_range[1], z.token_range[1])),
                indicators=prev.indicators | z.indicators,
                symbols=prev.symbols | z.symbols,
                line_range=(prev.line_range[0], max(prev.line_range[1], z.line_range[1])),
                participates_defuse=prev.participates_defuse or z.participates_defuse,
            )
    return merged


def score_span(z: StructuralSpan, cfg: SpanConfig, query_hit: int = 0) -> float:
    w = cfg.weights
    defuse = ("defuse",) if z.participates_defuse else ()
    return sum(w[kind] for kind in (*z.indicators, *defuse)) + w["query"] * query_hit


def query_protection(z: StructuralSpan, query_syms: frozenset[str]) -> int:
    return 1 if z.symbols & query_syms else 0


def span_budget(b: int, cfg: SpanConfig) -> int:
    if b < 0:
        raise ConfigError(f"budget must be non-negative, got {b}")
    return min(b, max(cfg.b_min, math.floor(cfg.rho_span * b)))


def select_spans(
    spans: list[StructuralSpan],
    scores: list[float],
    protections: list[int],
    b_span: int,
) -> list[SpanSelection]:
    """Greedy packing under the span budget, one attempt per span.

    Stage 1 offers the query hits, then the signatures, each in chunk order
    (token range, then index); stage 2 offers the rest by descending score.
    A span is taken when its not-yet-covered width fits in what is left of
    ``b_span``, so overlapping tokens are charged once.
    """

    def priority(i: int) -> tuple:
        z = spans[i]
        if protections[i]:
            return (0, z.token_range, i)
        if "signature" in z.indicators:
            return (1, z.token_range, i)
        return (2, -scores[i], z.token_range, i)

    # A span that does not fit never fits later, so it is offered once:
    # every later take lowers `remaining` by its whole uncovered width, which
    # is at least what it covers of the span that did not fit.
    covered = np.zeros(max((z.token_range[1] for z in spans), default=0), dtype=bool)
    remaining = b_span
    out: list[SpanSelection] = []
    for key in sorted(map(priority, range(len(spans)))):
        start, end = spans[key[-1]].token_range
        fresh = end - start - np.count_nonzero(covered[start:end])
        if fresh <= remaining:
            covered[start:end] = True
            remaining -= fresh
            out.append(SpanSelection(key[-1], 2 if key[0] == 2 else 1))
    return out


def protect_tokens(selected: list[StructuralSpan], b: int, length: int) -> list[int]:
    """Indices into a chunk of ``length`` tokens guaranteed to survive
    compression, at most ``b`` of them.

    The span union is kept whole when it fits; the rest of the budget is
    filled with the tokens nearest the protected region. When the union
    overflows, its first ``b`` indices in sequence order are kept.
    """
    mask = np.zeros(length, dtype=bool)
    for span in selected:
        mask[slice(*span.token_range)] = True
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
