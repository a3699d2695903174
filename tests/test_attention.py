import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkv.attention import (
    AttentionWindow,
    LayerKeepSet,
    MockAttentionBackend,
    importance,
    pool,
    select_tokens,
)
from structkv.errors import NumericError, ParameterError


def brute_force_mass(q, k):
    """Independent oracle: plain-python softmax row sums."""
    w, d = len(q), len(q[0])
    lc = len(k)
    u = [0.0] * lc
    for t in range(w):
        logits = [
            sum(q[t][x] * k[j][x] for x in range(d)) / math.sqrt(d) for j in range(lc)
        ]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        z = sum(exps)
        for j in range(lc):
            u[j] += exps[j] / z
    return u


class TestImportance:
    def test_uniform_logits(self):
        w = AttentionWindow(np.zeros((4, 3)), np.zeros((6, 3)), layer=0)
        u = importance(w)
        assert u == pytest.approx([4 / 6] * 6)

    def test_single_row_is_softmax(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        u = importance(AttentionWindow(q, k, 0))
        assert u.sum() == pytest.approx(1.0)
        expected = brute_force_mass(q.tolist(), k.tolist())
        assert u == pytest.approx(expected, abs=1e-12)

    def test_reference_small_case(self):
        q = [[1.0], [2.0]]
        k = [[0.0], [1.0], [2.0]]
        u = importance(AttentionWindow(np.array(q), np.array(k), 0))
        assert u == pytest.approx(brute_force_mass(q, k), abs=1e-9)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w, lc, d = rng.integers(1, 8), rng.integers(1, 32), rng.integers(1, 8)
            q = rng.standard_normal((w, d))
            k = rng.standard_normal((lc, d))
            u = importance(AttentionWindow(q, k, 0))
            expect = brute_force_mass(q.tolist(), k.tolist())
            assert u == pytest.approx(expect, abs=1e-9)
            assert abs(u.sum() - w) < 1e-6

    @pytest.mark.parametrize("lc", [1, 19, 624, 4096])
    def test_matches_brute_force_at_planner_window(self, lc):
        # the default window height and head width, from one key up to a
        # long chunk; the kernel's summation order stays within a few ulps
        rng = np.random.default_rng(lc)
        q = rng.standard_normal((128, 32))
        k = rng.standard_normal((lc, 32))
        u = importance(AttentionWindow(q, k, 0))
        assert u == pytest.approx(brute_force_mass(q.tolist(), k.tolist()), abs=1e-12)

    def test_shift_invariance(self):
        # with q = ones and d = 1 the logits are exactly the k values, so
        # shifting k shifts every logit of every row by the same constant
        rng = np.random.default_rng(1)
        q = np.ones((3, 1))
        k = rng.standard_normal((10, 1))
        u1 = importance(AttentionWindow(q, k, 0))
        u2 = importance(AttentionWindow(q, k + 7.5, 0))
        assert u1 == pytest.approx(u2, abs=1e-9)

    def test_non_finite_rejected(self):
        q = np.array([[np.nan, 1.0]])
        k = np.ones((3, 2))
        with pytest.raises(NumericError):
            importance(AttentionWindow(q, k, 0))

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            importance(AttentionWindow(np.ones((2, 3)), np.ones((4, 5)), 0))
        with pytest.raises(ParameterError):
            importance(AttentionWindow(np.ones((0, 3)), np.ones((4, 3)), 0))
        with pytest.raises(ParameterError, match="2-D"):
            importance(AttentionWindow(np.ones(3), np.ones((4, 3)), 0))


class TestPool:
    def test_constant_vector_unchanged(self):
        u = np.full(9, 0.7)
        assert pool(u, 5) == pytest.approx([0.7] * 9)

    def test_window_one_is_identity(self):
        u = np.array([3.0, 1.0, 4.0])
        assert pool(u, 1) == pytest.approx(u)

    def test_impulse_with_shrinking_edges(self):
        u = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert pool(u, 5) == pytest.approx([1 / 3, 1 / 4, 1 / 5, 1 / 4, 1 / 3])

    def test_even_window_rejected(self):
        with pytest.raises(ParameterError):
            pool(np.ones(4), 2)
        with pytest.raises(ParameterError):
            pool(np.ones(4), 0)

    def test_mass_preserved_for_interior(self):
        rng = np.random.default_rng(2)
        u = rng.random(50)
        out = pool(u, 5)
        assert out.shape == u.shape
        # interior entries are plain 5-point means
        for j in range(2, 48):
            assert out[j] == pytest.approx(u[j - 2 : j + 3].mean())


class TestSelectTokens:
    def test_top_residuals_selected(self):
        keep = select_tokens(np.array([0.5, 0.1, 0.9]), 2, layer=0)
        assert keep.kept == (0, 2)

    def test_tie_breaks_to_smaller_index(self):
        keep = select_tokens(np.full(8, 0.25), 3, layer=1)
        assert keep == LayerKeepSet(layer=1, kept=(0, 1, 2))

    def test_budget_beyond_length_keeps_all(self):
        keep = select_tokens(np.array([0.1, 0.2]), 10, layer=0)
        assert keep.kept == (0, 1)

    def test_budget_exactness(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lc = int(rng.integers(1, 40))
            u = rng.integers(0, 5, lc).astype(float)  # coarse values force ties
            b = int(rng.integers(0, 50))
            keep = select_tokens(u, b, layer=0)
            assert len(keep.kept) == min(b, lc)
            assert list(keep.kept) == sorted(set(keep.kept))
            dropped = set(range(lc)) - set(keep.kept)
            # every kept token outranks every dropped one: higher mass, or
            # equal mass and a smaller index
            assert all((-u[i], i) < (-u[j], j) for i in keep.kept for j in dropped)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.125, 0.5, 0.5, 2.0]), min_size=1, max_size=40),
        st.integers(0, 45),
    )
    def test_matches_sorted_key_brute_force(self, values, b):
        # few distinct values, so most inputs tie across the budget's edge
        u = np.array(values)
        ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
        keep = select_tokens(u, b, layer=2)
        assert keep == LayerKeepSet(layer=2, kept=tuple(sorted(ranked[:b])))
        assert all(type(i) is int for i in keep.kept)  # canonical_json rejects numpy ints

    def test_scale_argmax_invariance(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((20, 6))
        u1 = importance(AttentionWindow(q, k, 0))
        u2 = importance(AttentionWindow(q * 2.0, k / 2.0, 0))  # q@k.T unchanged
        k1 = select_tokens(pool(u1, 5), 8, 0)
        k2 = select_tokens(pool(u2, 5), 8, 0)
        assert k1.kept == k2.kept


class TestMockBackend:
    def test_deterministic_per_chunk_layer(self):
        b = MockAttentionBackend(seed=42, window=8, dim=4)
        w1 = b.attention_window(3, 1, 20)
        w2 = b.attention_window(3, 1, 20)
        assert np.array_equal(w1.q_block, w2.q_block)
        assert np.array_equal(w1.k_block, w2.k_block)

    def test_distinct_layers_differ(self):
        b = MockAttentionBackend(seed=42, window=8, dim=4)
        w1 = b.attention_window(3, 0, 20)
        w2 = b.attention_window(3, 4, 20)
        assert not np.array_equal(w1.k_block, w2.k_block)

    def test_chunk_and_layer_do_not_collide(self):
        # XOR seeding drew the same blocks for each of these pairs
        b = MockAttentionBackend(seed=42, window=8, dim=4)
        for (c1, l1), (c2, l2) in [((0, 1), (1, 0)), ((2, 3), (3, 2)), ((1, 2), (3, 0))]:
            w1 = b.attention_window(c1, l1, 20)
            w2 = b.attention_window(c2, l2, 20)
            assert not np.array_equal(w1.q_block, w2.q_block)
            assert not np.array_equal(w1.k_block, w2.k_block)

    def test_shapes(self):
        b = MockAttentionBackend(seed=0, window=16, dim=8)
        w = b.attention_window(0, 0, 33)
        assert w.q_block.shape == (16, 8)
        assert w.k_block.shape == (33, 8)

    @pytest.mark.parametrize(("window", "dim"), [(0, 8), (16, 0)])
    def test_empty_blocks_rejected(self, window, dim):
        with pytest.raises(ParameterError, match="window and dim must be positive"):
            MockAttentionBackend(seed=0, window=window, dim=dim)
