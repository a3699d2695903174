"""Retention and overlap metrics over compression plans.

The headline number is the structure score: the fraction of
graph-critical tokens a plan keeps, averaged uniformly over every
(layer, chunk) pair that has critical tokens at all. Set-overlap and
edit-distance helpers back the evaluation report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import kernels
from .cpg import Cpg, NodeKind
from .errors import ParameterError
from .plan import CompressionPlan

CATEGORIES = tuple(k.value for k in NodeKind)
_KIND_BIT = {kind: 1 << i for i, kind in enumerate(NodeKind)}
_MASKS = 1 << len(NodeKind)  # distinct kind masks
# _HAS_KIND[m, i]: whether mask m has the bit of CATEGORIES[i]
_HAS_KIND = (np.arange(_MASKS)[:, None] >> np.arange(len(NodeKind)) & 1).astype(np.intp)


@dataclass(frozen=True)
class RetentionReport:
    structure_score: float
    per_category_retention: dict[str, float]
    per_layer: dict[int, float]
    pairs_counted: int

    def to_dict(self) -> dict:
        return {
            "structure_score": self.structure_score,
            "per_category_retention": dict(sorted(self.per_category_retention.items())),
            "per_layer": {str(k): v for k, v in sorted(self.per_layer.items())},
            "pairs_counted": self.pairs_counted,
        }


@dataclass(frozen=True)
class SetMetrics:
    precision: float
    recall: float
    f1: float
    jaccard: float
    gold_empty: bool = False


def kind_mask(cpg: Cpg, length: int) -> np.ndarray:
    """Per token of a chunk of ``length`` tokens, the node kinds whose
    token ranges cover it: bit i stands for ``CATEGORIES[i]``, and a token
    with any bit set is critical."""
    mask = np.zeros(length, dtype=np.uint8)
    for node in cpg.nodes:
        mask[slice(*node.token_range)] |= _KIND_BIT[node.kind]
    return mask


def structure_score(plan: CompressionPlan, kinds: dict[int, np.ndarray]) -> RetentionReport:
    """Retention of the critical tokens over every (layer, chunk) pair that
    has any, in one walk: overall, per layer, and per node kind over the
    pairs whose chunk has tokens of that kind. ``kinds`` holds every plan
    chunk's :func:`kind_mask` by chunk id (all zeros where its graph has no
    node, so the chunk counts in no pair), and each layer's ``kept`` must
    ascend within its chunk, as ``CompressionPlan.from_dict`` checks. Every
    list follows plan order and every retention is a quotient of two token
    counts, so the sums do not depend on how the counts were made."""
    overall: list[float] = []
    by_layer: dict[int, list[float]] = {}
    by_category: dict[str, list[float]] = {c: [] for c in CATEGORIES}
    for chunk in plan.chunks:
        mask = kinds[chunk.chunk_id]
        total = np.bincount(mask, minlength=_MASKS)  # tokens by kind mask
        critical = len(mask) - int(total[0])
        if not critical:
            continue
        # layers that share their keep set with the layer before (the
        # pipeline shares it where protection fills the budget) share its
        # counts: count each run's set once
        keeps: list[tuple[int, ...]] = []
        run: list[int] = []  # per layer, the index of its keep set
        for layer_plan in chunk.layers:
            if not keeps or layer_plan.kept is not keeps[-1]:
                keeps.append(layer_plan.kept)
            run.append(len(keeps) - 1)
        kept = np.fromiter(chain.from_iterable(keeps), dtype=np.intp)
        which = np.repeat(np.arange(len(keeps)), [len(k) for k in keeps])
        counts = np.bincount(which * _MASKS + mask[kept], minlength=len(keeps) * _MASKS)
        counts = counts.reshape(len(keeps), _MASKS)
        # each list gains this chunk's values in layer order
        retentions = [n / critical for n in (counts.sum(axis=1) - counts[:, 0]).tolist()]
        overall += map(retentions.__getitem__, run)
        for layer_plan, i in zip(chunk.layers, run):
            by_layer.setdefault(layer_plan.layer, []).append(retentions[i])
        by_kind = zip(CATEGORIES, (total @ _HAS_KIND).tolist(), (counts @ _HAS_KIND).T.tolist())
        for category, n, kept_n in by_kind:
            if n:
                values = [k / n for k in kept_n]
                by_category[category] += map(values.__getitem__, run)
    return RetentionReport(
        structure_score=sum(overall) / len(overall) if overall else 0.0,
        per_category_retention={c: sum(v) / len(v) for c, v in by_category.items() if v},
        per_layer={layer: sum(v) / len(v) for layer, v in sorted(by_layer.items())},
        pairs_counted=len(overall),
    )


def topk_overlap_jaccard(
    scores_a: Sequence[float], scores_b: Sequence[float], fraction: float
) -> float:
    """Jaccard overlap of the two top-fraction index sets.

    Higher scores rank higher in both lists; negate perplexities before
    calling. Rank ties break toward the smaller index.
    """
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ParameterError("score lists must be non-empty")
    if len(scores_a) != len(scores_b):
        raise ParameterError("score lists must be aligned")
    if not (0.0 < fraction <= 1.0):
        raise ParameterError(f"fraction must be in (0, 1], got {fraction}")
    n = len(scores_a)
    m = math.ceil(fraction * n)

    def top_ids(scores: Sequence[float]) -> set[int]:
        ranked = sorted(range(n), key=lambda i: (-scores[i], i))
        return set(ranked[:m])

    a = top_ids(scores_a)
    b = top_ids(scores_b)
    return len(a & b) / len(a | b)


def set_metrics(predicted: set, gold: set) -> SetMetrics:
    if not predicted and not gold:
        return SetMetrics(1.0, 1.0, 1.0, 1.0, gold_empty=True)
    inter = len(predicted & gold)
    precision = inter / len(predicted) if predicted else 0.0
    recall = inter / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    jaccard = inter / len(predicted | gold)
    return SetMetrics(precision, recall, f1, jaccard, gold_empty=not gold)


def normalized_edit_distance(a: Sequence, b: Sequence) -> float:
    """Levenshtein distance over sequence elements divided by the longer
    length. Strings compare character-wise; pass token lists for
    token-level distance."""
    if len(a) == 0 and len(b) == 0:
        return 0.0
    table: dict = {}
    ca = _codes(a, table)
    cb = _codes(b, table)
    distance = kernels.levenshtein(ca, cb)
    return distance / max(len(a), len(b))


def _codes(seq: Sequence, table: dict) -> np.ndarray:
    out = np.empty(len(seq), dtype=np.int64)
    for i, item in enumerate(seq):
        out[i] = table.setdefault(item, len(table))
    return out
