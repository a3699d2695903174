"""Compression plan records and their canonical JSON form.

A plan is the product of the engine: per selected chunk it lists the
budget, span provenance, the per-layer kept token indices, and the
original position index of every kept token. Canonical serialization
(sorted keys, minimal separators) makes plans byte-comparable across
runs and worker counts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import SchemaError


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(obj: object) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SpanRecord:
    anchor_node: int
    stage: int
    score: float
    token_range: tuple[int, int]


@dataclass(frozen=True)
class LayerPlan:
    layer: int
    kept: tuple[int, ...]  # ascending chunk-local indices
    positions: tuple[int, ...]  # original position index per kept token


@dataclass(frozen=True)
class ChunkPlan:
    chunk_id: int
    file: str
    token_range: tuple[int, int]
    length: int  # pre-compression token count
    ppl: float
    sigma: float
    normalized_score: float
    multiplier: float
    budget: int
    span_budget: int
    spans: tuple[SpanRecord, ...]
    protected: tuple[int, ...]
    layers: tuple[LayerPlan, ...]


@dataclass(frozen=True)
class CompressionPlan:
    chunks: tuple[ChunkPlan, ...]
    prefix_len: int
    query_len: int
    query_start_position: int
    layer_count: int
    seed: int
    config_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "chunks": [
                {
                    "chunk_id": c.chunk_id,
                    "file": c.file,
                    "token_range": list(c.token_range),
                    "length": c.length,
                    "ppl": c.ppl,
                    "sigma": c.sigma,
                    "normalized_score": c.normalized_score,
                    "multiplier": c.multiplier,
                    "budget": c.budget,
                    "span_budget": c.span_budget,
                    "spans": [
                        {
                            "anchor_node": s.anchor_node,
                            "stage": s.stage,
                            "score": s.score,
                            "token_range": list(s.token_range),
                        }
                        for s in c.spans
                    ],
                    "protected": list(c.protected),
                    "layers": [
                        {
                            "layer": l.layer,
                            "kept": list(l.kept),
                            "positions": list(l.positions),
                        }
                        for l in c.layers
                    ],
                }
                for c in self.chunks
            ],
            "prefix_len": self.prefix_len,
            "query_len": self.query_len,
            "query_start_position": self.query_start_position,
            "layer_count": self.layer_count,
            "seed": self.seed,
            "config_fingerprint": self.config_fingerprint,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, doc: object) -> "CompressionPlan":
        """Inverse of :meth:`to_dict`; a missing or mistyped field raises
        :class:`SchemaError` naming the field."""
        chunks = tuple(
            ChunkPlan(
                chunk_id=_field(c, "chunk_id", int),
                file=_field(c, "file", str),
                token_range=_ints(c, "token_range", pair=True),
                length=_field(c, "length", int),
                ppl=_field(c, "ppl", _REAL),
                sigma=_field(c, "sigma", _REAL),
                normalized_score=_field(c, "normalized_score", _REAL),
                multiplier=_field(c, "multiplier", _REAL),
                budget=_field(c, "budget", int),
                span_budget=_field(c, "span_budget", int),
                spans=tuple(
                    SpanRecord(
                        anchor_node=_field(s, "anchor_node", int),
                        stage=_field(s, "stage", int),
                        score=_field(s, "score", _REAL),
                        token_range=_ints(s, "token_range", pair=True),
                    )
                    for s in _field(c, "spans", list)
                ),
                protected=_ints(c, "protected"),
                layers=tuple(
                    LayerPlan(
                        layer=_field(l, "layer", int),
                        kept=_ints(l, "kept"),
                        positions=_ints(l, "positions"),
                    )
                    for l in _field(c, "layers", list)
                ),
            )
            for c in _field(doc, "chunks", list)
        )
        return cls(
            chunks=chunks,
            prefix_len=_field(doc, "prefix_len", int),
            query_len=_field(doc, "query_len", int),
            query_start_position=_field(doc, "query_start_position", int),
            layer_count=_field(doc, "layer_count", int),
            seed=_field(doc, "seed", int),
            config_fingerprint=_field(doc, "config_fingerprint", str),
        )

    @classmethod
    def from_json(cls, text: str) -> "CompressionPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"plan: invalid JSON: {exc}") from exc
        return cls.from_dict(doc)


_REAL = (int, float)


def _field(doc: object, key: str, kind: type | tuple[type, ...]):
    """``doc[key]`` when ``doc`` is an object holding a ``kind`` value there.
    JSON booleans count as no number."""
    if not isinstance(doc, dict):
        raise SchemaError(f"plan: expected an object with {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"plan: missing field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"plan: field {key!r} has the wrong type {type(value).__name__}")
    return value


def _ints(doc: object, key: str, pair: bool = False) -> tuple[int, ...]:
    values = _field(doc, key, list)
    if any(type(v) is not int for v in values) or (pair and len(values) != 2):
        raise SchemaError(f"plan: field {key!r} must be {'a pair' if pair else 'a list'} of integers")
    return tuple(values)
