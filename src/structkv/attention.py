"""Observation-window attention importance and per-layer token selection.

Importance is the column mass of the row-softmaxed scaled score matrix
between the trailing query block and the chunk's key block. A sliding mean
smooths it, and the top tokens fill the budget of a chunk that span
protection left empty. Backends produce the Q/K blocks; the mock backend
derives them from a seeded generator so desk-scale runs are reproducible
without a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from http.client import HTTPException

import numpy as np

from . import kernels
from ._http import HttpClient
from .errors import BackendError, NumericError, ParameterError


@dataclass(frozen=True)
class AttentionWindow:
    q_block: np.ndarray  # (W, d)
    k_block: np.ndarray  # (L_c, d)
    layer: int


@dataclass(frozen=True)
class LayerKeepSet:
    layer: int
    kept: tuple[int, ...]  # ascending chunk-local indices


def importance(window: AttentionWindow) -> np.ndarray:
    """Per-context-token attention mass; entries sum to the window height."""
    q = np.ascontiguousarray(window.q_block, dtype=np.float64)
    k = np.ascontiguousarray(window.k_block, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2:
        raise ParameterError("q and k blocks must be 2-D matrices")
    if q.shape[0] < 1 or k.shape[0] < 1 or q.shape[1] < 1:
        raise ParameterError("q and k blocks must be non-empty")
    if q.shape[1] != k.shape[1]:
        raise ParameterError(
            f"q and k width mismatch: {q.shape[1]} vs {k.shape[1]}"
        )
    if not (np.isfinite(q).all() and np.isfinite(k).all()):
        raise NumericError("attention blocks must be finite")
    return kernels.attention_mass(q, k)


def pool(u: np.ndarray, window: int) -> np.ndarray:
    """Sliding average; the window shrinks at the edges instead of padding."""
    if window < 1 or window % 2 == 0:
        raise ParameterError(f"pooling window must be odd and >= 1, got {window}")
    u = np.ascontiguousarray(u, dtype=np.float64)
    if window == 1:
        return u.copy()
    return kernels.sliding_mean(u, window)


def select_tokens(u_pooled: np.ndarray, b: int, layer: int) -> LayerKeepSet:
    """The ``b`` highest-importance tokens (all of them when ``b`` exceeds
    the chunk), in ascending index order; ties go to the smaller index."""
    # the rule of spans.protect_tokens: a stable sort ranks ties by index
    kept = np.sort(np.argsort(-u_pooled, kind="stable")[:b]).tolist()
    return LayerKeepSet(layer=layer, kept=tuple(kept))


class MockAttentionBackend:
    """Seeded Gaussian Q/K blocks; the generator is seeded with the
    sequence [corpus_seed, chunk_id, layer], so every (chunk, layer) pair
    is reproducible in isolation and no two pairs share a stream."""

    def __init__(self, seed: int, window: int = 128, dim: int = 32):
        if window < 1 or dim < 1:
            raise ParameterError("window and dim must be positive")
        self.seed = seed
        self.window = window
        self.dim = dim

    def attention_window(self, chunk_id: int, layer: int, length: int) -> AttentionWindow:
        rng = np.random.default_rng([self.seed, chunk_id, layer])
        q = rng.standard_normal((self.window, self.dim))
        k = rng.standard_normal((length, self.dim))
        return AttentionWindow(q_block=q, k_block=k, layer=layer)


def _number_matrix(rows: object) -> np.ndarray:
    """Nested JSON arrays of numbers as float64; a string, a boolean or a
    ragged row raises ValueError instead of being coerced."""
    cells = np.asarray(rows, dtype=object)
    if not all(type(v) in (int, float) for v in cells.flat):  # bool is an int subclass
        raise ValueError("attention blocks must hold only JSON numbers")
    return cells.astype(np.float64)


class HttpAttentionBackend(HttpClient):
    """Fetches Q/K blocks through the POST /attention wire contract."""

    def attention_window(self, chunk_id: int, layer: int, length: int) -> AttentionWindow:
        payload = {"chunk_id": chunk_id, "layer": layer}
        try:
            doc = self._post("/attention", payload)
            q, k = _number_matrix(doc["q"]), _number_matrix(doc["k"])
            if k.ndim != 2 or k.shape[0] != length:
                raise ValueError(
                    f"backend returned {k.shape[0] if k.ndim == 2 else '?'} key rows "
                    f"for a {length}-token chunk"
                )
            if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1 or q.shape[1] != k.shape[1]:
                raise ValueError(
                    f"backend returned a {q.shape} query block for {k.shape} keys; "
                    "it must be a non-empty matrix as wide as the keys"
                )
        except (HTTPException, KeyError, ValueError, TypeError) as exc:
            raise BackendError(chunk_id, layer, str(exc)) from exc
        return AttentionWindow(q_block=q, k_block=k, layer=layer)
