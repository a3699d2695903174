"""The numpy kernels against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkv import kernels


def python_levenshtein(a, b):
    """Independent oracle: full-matrix DP."""
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[-1][-1]


def codes(s):
    return np.array([ord(c) for c in s], dtype=np.int64)


class TestAttentionMass:
    def test_row_mass_sums_to_window_height(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((7, 5))
        k = rng.standard_normal((40, 5))
        u = kernels.attention_mass(q, k)
        assert u.sum() == pytest.approx(7.0, abs=1e-9)
        assert (u >= 0).all()

    def test_extreme_logits_stable(self):
        q = np.array([[1000.0], [-1000.0]])
        k = np.array([[1.0], [2.0], [3.0]])
        u = kernels.attention_mass(q, k)
        assert np.isfinite(u).all()
        assert u.sum() == pytest.approx(2.0)


class TestSlidingMean:
    def test_matches_direct_means(self):
        u = np.arange(10, dtype=np.float64)
        out = kernels.sliding_mean(u, 3)
        expect = [np.mean(u[max(0, j - 1) : j + 2]) for j in range(10)]
        np.testing.assert_allclose(out, expect)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            ("", "", 0),
            ("", "ab", 2),
            ("ab", "", 2),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("abc", "abc", 0),
        ],
    )
    def test_known_distances(self, a, b, expect):
        assert kernels.levenshtein(codes(a), codes(b)) == expect

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_matches_python_oracle(self, a, b):
        expect = python_levenshtein(a, b)
        assert kernels.levenshtein(codes(a), codes(b)) == expect
