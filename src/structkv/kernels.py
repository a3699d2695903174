"""Hot numeric kernels, vectorized with numpy.

Kernels:
  - attention_mass: column sums of a row-softmaxed scaled score matrix
  - sliding_mean:   windowed average with shrinking edge windows
  - levenshtein:    edit distance over integer-coded sequences
"""

from __future__ import annotations

import numpy as np


def attention_mass(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """u(j) = sum over rows of softmax(q @ k.T / sqrt(d)), max-stabilized.

    The scale goes on the W x d query block, not the W x L logits; the
    exponential runs in place, and the column mass is one vector-matrix
    product: u = (1 / z) @ E with E = exp(logits - row max), z = E's row sums.
    """
    logits = (q / np.sqrt(q.shape[1])) @ k.T
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits, out=logits)
    return (1.0 / weights.sum(axis=1)) @ weights


def sliding_mean(u: np.ndarray, window: int) -> np.ndarray:
    half = window // 2
    n = u.shape[0]
    csum = np.concatenate(([0.0], np.cumsum(u)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Row-vectorized DP; deletions applied with a running-minimum pass."""
    n = b.size
    jrange = np.arange(n + 1, dtype=np.int64)
    prev = jrange.copy()
    row = np.empty(n + 1, dtype=np.int64)
    for i in range(a.size):
        row[0] = i + 1
        np.minimum(prev[:-1] + (b != a[i]), prev[1:] + 1, out=row[1:])
        # row[j] = min over i<=j of row[i] + (j - i)
        np.add(np.minimum.accumulate(row - jrange), jrange, out=row)
        prev, row = row, prev
    return int(prev[-1])
