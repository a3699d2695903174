"""Chunk-level signals: CPG feature counts, the structural score, and
query-conditioned relevance scoring behind a pluggable scorer backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol, Sequence

from ._http import HttpClient
from .chunking import Chunk
from .cpg import Cpg, EdgeKind, NodeKind
from .errors import ConfigError, ParameterError, ScoringError
from .lexer import Names, Token, TokenKind

FEATURE_KEYS = ("n_call", "n_control", "n_return", "n_assign", "e_cfg", "e_pdg")

DEFAULT_TAUS = {
    "n_call": 8.0,
    "n_control": 8.0,
    "n_return": 8.0,
    "n_assign": 8.0,
    "e_cfg": 16.0,
    "e_pdg": 16.0,
}
DEFAULT_WEIGHTS = {
    "n_call": 0.20,
    "n_control": 0.18,
    "n_return": 0.14,
    "n_assign": 0.14,
    "e_cfg": 0.10,
    "e_pdg": 0.10,
}


@dataclass(frozen=True)
class StructuralFeatures:
    n_call: int
    n_control: int
    n_return: int
    n_assign: int
    e_cfg: int
    e_pdg: int

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in FEATURE_KEYS}


def extract_features(cpg: Cpg) -> StructuralFeatures:
    kinds = [n.kind for n in cpg.nodes]
    edges = [e.kind for e in cpg.edges]
    return StructuralFeatures(
        n_call=kinds.count(NodeKind.CALL),
        n_control=kinds.count(NodeKind.CONTROL),
        n_return=kinds.count(NodeKind.RETURN),
        n_assign=kinds.count(NodeKind.ASSIGN),
        e_cfg=edges.count(EdgeKind.CFG),
        e_pdg=edges.count(EdgeKind.PDG),
    )


def normalize(x: float, tau: float) -> float:
    """Saturating log scale: 0 at x=0, 1 at x=tau and beyond."""
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    if x < 0:
        raise ParameterError(f"feature value must be non-negative, got {x}")
    return min(1.0, math.log1p(x) / math.log1p(tau))


def structural_score(
    f: StructuralFeatures,
    weights: dict[str, float] | None = None,
    taus: dict[str, float] | None = None,
) -> float:
    weights = DEFAULT_WEIGHTS if weights is None else weights
    taus = DEFAULT_TAUS if taus is None else taus
    values = f.as_dict()
    total = 0.0
    for key in FEATURE_KEYS:
        if key not in weights:
            raise ConfigError(f"missing weight for feature {key!r}")
        if key not in taus:
            raise ConfigError(f"missing scaling constant for feature {key!r}")
        total += weights[key] * normalize(values[key], taus[key])
    return total


def query_symbols(tokens: Sequence[Token]) -> frozenset[str]:
    return frozenset(t.text for t in tokens if t.kind is TokenKind.IDENTIFIER)


class KeptChunk(NamedTuple):
    """A chunk of a file the memo keeps, as the pipeline hands it to a
    scorer: its identifier names, all the mock scorer reads, and its token
    texts sliced from the file content by ``texts()``, all the HTTP scorer
    reads. Neither needs the chunk's tokens made again."""

    names: Names
    texts: Callable[[], list[str]]


class ChunkScorer(Protocol):
    """Backend estimating how badly the query reads without this chunk.

    Lower is better: the value is a mean negative log-likelihood of the
    query tokens given [prefix; chunk; query-so-far]. The chunk comes as
    its tokens, or as a :class:`KeptChunk` when its file's memo entry holds
    its facts.
    """

    def score(
        self,
        prefix: Sequence[Token],
        chunk_tokens: Sequence[Token] | KeptChunk,
        query: Sequence[Token],
    ) -> float: ...


class MockScorer:
    """Deterministic stand-in: one minus the fraction of query identifiers
    the chunk mentions. Shares the scorer's orientation (lower = better)."""

    def score(
        self,
        prefix: Sequence[Token],
        chunk_tokens: Sequence[Token] | KeptChunk,
        query: Sequence[Token],
    ) -> float:
        q = query_symbols(query)
        if isinstance(chunk_tokens, KeptChunk):
            c = chunk_tokens.names.set
        else:  # tokens from elsewhere, as a server relexes them from the wire
            c = query_symbols(chunk_tokens)
        return 1.0 - len(c & q) / max(1, len(q))


class HttpScorer(HttpClient):
    """Scores chunks through the POST /score_ppl wire contract."""

    def score(
        self,
        prefix: Sequence[Token],
        chunk_tokens: Sequence[Token] | KeptChunk,
        query: Sequence[Token],
    ) -> float:
        if isinstance(chunk_tokens, KeptChunk):
            chunk = chunk_tokens.texts()
        else:
            chunk = [t.text for t in chunk_tokens]
        payload = {
            "prefix": [t.text for t in prefix],
            "chunk": chunk,
            "query": [t.text for t in query],
        }
        value = self._post("/score_ppl", payload)["nll_mean"]
        if type(value) not in (int, float):  # a JSON number; bool is an int subclass
            raise ValueError(f"nll_mean must be a JSON number, got {value!r}")
        return float(value)


def score_chunk(
    scorer: ChunkScorer,
    prefix: Sequence[Token],
    chunk: Chunk,
    query: Sequence[Token],
    tokens: Sequence[Token] | KeptChunk,
) -> float:
    """Score one chunk's tokens, surfacing backend failures with the chunk id."""
    if not query:
        raise ParameterError("query must be non-empty")
    try:
        value = scorer.score(prefix, tokens, query)
    except Exception as exc:
        raise ScoringError(chunk.id, str(exc)) from exc
    if not math.isfinite(value):
        raise ScoringError(chunk.id, f"non-finite score {value!r}")
    return value


def select_topk(scores: list[tuple[int, float]], k: int) -> list[int]:
    """Ids of the k lowest-scoring chunks, returned in ascending id order.

    Ties break toward the smaller chunk id.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    for cid, value in scores:
        if not math.isfinite(value):
            raise ParameterError(f"chunk {cid} has non-finite score {value!r}")
    ranked = sorted(scores, key=lambda item: (item[1], item[0]))
    return sorted(cid for cid, _ in ranked[:k])
