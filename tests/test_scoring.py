import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_helpers import single_chunk
from structkv.cpg import Cpg, CpgNode, NodeKind, build_cpg
from structkv.errors import ConfigError, ParameterError, ScoringError
from structkv.lexer import SourceFile, tokenize
from structkv.parsing import parse_subset
from structkv.scoring import (
    DEFAULT_TAUS,
    DEFAULT_WEIGHTS,
    MockScorer,
    StructuralFeatures,
    extract_features,
    normalize,
    score_chunk,
    select_topk,
    structural_score,
)


def toks(text):
    return tokenize(SourceFile("q.py", text))


class TestExtractFeatures:
    def test_empty_graph(self):
        chunk, _ = single_chunk("x = 1\n")
        cpg = Cpg(nodes=(), edges=(), chunk_id=chunk.id)
        f = extract_features(cpg)
        assert f.as_dict() == dict.fromkeys(f.as_dict(), 0)

    def test_reference_function(self):
        chunk, tokens = single_chunk("def f():\n    x = 1\n    y = x\n    return y\n")
        cpg = build_cpg(parse_subset(tokens), chunk, tokens)
        f = extract_features(cpg)
        assert (f.n_assign, f.n_return, f.e_cfg, f.e_pdg) == (2, 1, 2, 2)
        assert (f.n_call, f.n_control) == (0, 0)

    def test_call_only_graph(self):
        chunk, _ = single_chunk("a(b)\nc(d)\ne(f)\n")
        nodes = tuple(
            CpgNode(i, NodeKind.CALL, (i, i + 1), 1, frozenset()) for i in range(3)
        )
        f = extract_features(Cpg(nodes=nodes, edges=(), chunk_id=chunk.id))
        assert f.as_dict() == {
            "n_call": 3, "n_control": 0, "n_return": 0,
            "n_assign": 0, "e_cfg": 0, "e_pdg": 0,
        }


class TestNormalize:
    def test_zero_maps_to_zero(self):
        for tau in (1, 8, 16, 100):
            assert normalize(0, tau) == 0.0

    def test_tau_saturates(self):
        for tau in (1, 8, 16, 100):
            assert normalize(tau, tau) == pytest.approx(1.0)
            assert normalize(tau * 10, tau) == 1.0

    def test_reference_value(self):
        assert normalize(3, 8) == pytest.approx(0.630930, abs=1e-6)

    def test_invalid_tau(self):
        with pytest.raises(ParameterError):
            normalize(1, 0)
        with pytest.raises(ParameterError):
            normalize(1, -2)

    @given(
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_and_monotone(self, x1, x2, tau):
        lo, hi = sorted((x1, x2))
        a, b = normalize(lo, tau), normalize(hi, tau)
        assert 0.0 <= a <= b <= 1.0

    def test_continuous_at_saturation(self):
        tau = 8.0
        eps = 1e-9
        assert normalize(tau - eps, tau) == pytest.approx(1.0, abs=1e-8)


class TestStructuralScore:
    def test_all_zero_features(self):
        f = StructuralFeatures(0, 0, 0, 0, 0, 0)
        assert structural_score(f) == 0.0

    def test_single_saturated_term(self):
        f = StructuralFeatures(n_call=8, n_control=0, n_return=0, n_assign=0, e_cfg=0, e_pdg=0)
        assert structural_score(f) == pytest.approx(0.20)

    def test_reference_mixture(self):
        f = StructuralFeatures(3, 0, 1, 0, 0, 0)
        taus = dict.fromkeys(DEFAULT_TAUS, 8.0)
        assert structural_score(f, DEFAULT_WEIGHTS, taus) == pytest.approx(
            0.170351, abs=1e-6
        )

    def test_missing_key_is_config_error(self):
        f = StructuralFeatures(1, 1, 1, 1, 1, 1)
        with pytest.raises(ConfigError):
            structural_score(f, weights={"n_call": 0.2}, taus=DEFAULT_TAUS)
        with pytest.raises(ConfigError):
            structural_score(f, weights=DEFAULT_WEIGHTS, taus={"n_call": 8.0})

    def test_monotone_in_every_feature(self):
        base = StructuralFeatures(2, 2, 2, 2, 2, 2)
        s0 = structural_score(base)
        for key in base.as_dict():
            bumped = StructuralFeatures(**{**base.as_dict(), key: 3})
            assert structural_score(bumped) >= s0

    def test_sigma_bounded_by_weight_sum(self):
        f = StructuralFeatures(999, 999, 999, 999, 999, 999)
        assert structural_score(f) <= sum(DEFAULT_WEIGHTS.values()) + 1e-12


class TestMockScorer:
    def test_full_overlap_scores_zero(self):
        chunk, tokens = single_chunk("def f(alpha, beta):\n    return alpha\n")
        q = toks("alpha beta f return")
        v = score_chunk(MockScorer(), [], chunk, q, tokens)
        assert v == pytest.approx(0.0)

    def test_disjoint_scores_one(self):
        chunk, tokens = single_chunk("def f(x):\n    return x\n")
        v = score_chunk(MockScorer(), [], chunk, toks("zeta omega"), tokens)
        assert v == pytest.approx(1.0)

    def test_half_overlap(self):
        chunk, tokens = single_chunk("a = 1\n")
        v = score_chunk(MockScorer(), [], chunk, toks("a b"), tokens)
        assert v == pytest.approx(0.5)

    def test_empty_query_rejected(self):
        chunk, tokens = single_chunk("a = 1\n")
        with pytest.raises(ParameterError):
            score_chunk(MockScorer(), [], chunk, [], tokens)

    def test_backend_failure_carries_chunk_id(self):
        class Broken:
            def score(self, prefix, chunk_tokens, query):
                raise RuntimeError("backend down")

        chunk, tokens = single_chunk("a = 1\n")
        with pytest.raises(ScoringError) as err:
            score_chunk(Broken(), [], chunk, toks("a"), tokens)
        assert err.value.chunk_id == chunk.id

    def test_non_finite_score_rejected(self):
        class Nan:
            def score(self, prefix, chunk_tokens, query):
                return float("nan")

        chunk, tokens = single_chunk("a = 1\n")
        with pytest.raises(ScoringError):
            score_chunk(Nan(), [], chunk, toks("a"), tokens)


class TestSelectTopk:
    def test_k_at_least_n_selects_all(self):
        scores = [(0, 0.5), (1, 0.2), (2, 0.9)]
        assert select_topk(scores, 3) == [0, 1, 2]
        assert select_topk(scores, 10) == [0, 1, 2]

    def test_lowest_scores_win(self):
        assert select_topk([(0, 0.3), (1, 0.1), (2, 0.2)], 2) == [1, 2]

    def test_tie_breaks_to_smaller_id(self):
        assert select_topk([(0, 0.2), (1, 0.2)], 1) == [0]
        assert select_topk([(5, 0.2), (3, 0.2), (4, 0.2)], 2) == [3, 4]

    def test_zero_k_rejected(self):
        with pytest.raises(ParameterError):
            select_topk([(0, 0.1)], 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            select_topk([(0, math.inf)], 1)

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=20), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values, rnd):
        scores = list(enumerate(values))
        shuffled = scores[:]
        rnd.shuffle(shuffled)
        k = max(1, len(values) // 2)
        assert select_topk(scores, k) == select_topk(shuffled, k)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=10240).map(lambda k: k / 1024),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=1, max_value=102400).map(lambda k: k / 1024),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling_invariance(self, values, c):
        # dyadic grid keeps products exact, so scaling cannot create ties
        # that the unscaled list does not have
        scores = list(enumerate(values))
        scaled = [(i, v * c) for i, v in scores]
        k = max(1, len(values) // 2)
        assert select_topk(scores, k) == select_topk(scaled, k)
