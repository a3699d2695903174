import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkv.allocation import AllocationConfig, budget, multiplier, normalize_scores
from structkv.errors import ConfigError, ParameterError


def cfg(**kwargs):
    return AllocationConfig(**kwargs)


class TestConfig:
    def test_zero_ratio_rejected(self):
        with pytest.raises(ConfigError):
            cfg(capacity_ratio=0.0)

    def test_ratio_above_one_rejected(self):
        with pytest.raises(ConfigError):
            cfg(capacity_ratio=1.5)

    def test_ratio_above_cap_rejected(self):
        with pytest.raises(ConfigError):
            cfg(capacity_ratio=0.9, capacity_ratio_max=0.8)

    @pytest.mark.parametrize("cap", [0.0, 1.5])
    def test_cap_outside_unit_interval_rejected(self, cap):
        with pytest.raises(ConfigError, match="capacity_ratio_max must be in"):
            cfg(capacity_ratio=0.1, capacity_ratio_max=cap)

    def test_bad_multipliers_rejected(self):
        with pytest.raises(ConfigError):
            cfg(multiplier_min=0.0)
        with pytest.raises(ConfigError):
            cfg(multiplier_min=2.0, multiplier_max=1.0)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            cfg(epsilon=0.0)
        with pytest.raises(ConfigError):
            cfg(epsilon=float("nan"))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["multiplier_min", "multiplier_max", "epsilon"])
    def test_non_finite_float_rejected(self, field, value):
        # an infinite multiplier_max made multiplier(0.0) = 0.5 + inf * 0 = nan
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            cfg(**{field: value})


class TestNormalizeScores:
    def test_flat_profile_maps_to_half(self):
        assert normalize_scores([0.4, 0.4, 0.4], cfg()) == [0.5, 0.5, 0.5]

    def test_endpoints(self):
        assert normalize_scores([0.0, 1.0], cfg()) == [0.0, 1.0]

    def test_reference_values(self):
        out = normalize_scores([0.2, 0.3, 0.6], cfg())
        assert out == pytest.approx([0.0, 0.25, 1.0], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            normalize_scores([], cfg())

    @given(st.integers(min_value=1, max_value=100), st.floats(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_equal_scores_always_half(self, n, value):
        assert normalize_scores([value] * n, cfg()) == [0.5] * n

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2048).map(lambda k: k / 1024),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=-5120, max_value=5120).map(lambda k: k / 1024),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, sigmas, c):
        # dyadic grid keeps every sum exact in float64, so the algebraic
        # invariance holds exactly rather than approximately
        base = normalize_scores(sigmas, cfg())
        shifted = normalize_scores([s + c for s in sigmas], cfg())
        assert base == shifted


class TestMultiplier:
    def test_endpoints_match_range(self):
        assert multiplier(0.0, cfg()) == 0.5
        assert multiplier(1.0, cfg()) == 1.5

    def test_midpoint(self):
        assert multiplier(0.5, cfg()) == pytest.approx(1.0)

    def test_clipped_outside_unit_interval(self):
        assert multiplier(-3.0, cfg()) == 0.5
        assert multiplier(7.0, cfg()) == 1.5


class TestBudget:
    def test_plain_arithmetic(self):
        assert budget(100, 1.0, cfg(capacity_ratio=0.4)) == 40

    def test_cap_binds(self):
        assert budget(100, 1.5, cfg(capacity_ratio=0.8)) == 100

    def test_floor_applied(self):
        assert budget(333, 0.5, cfg(capacity_ratio=0.4)) == 66

    def test_zero_length_rejected(self):
        with pytest.raises(ParameterError):
            budget(0, 1.0, cfg())

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.5, max_value=1.5),
        st.floats(min_value=0.5, max_value=1.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_multiplier_and_bounded(self, n, m1, m2):
        c = cfg(capacity_ratio=0.4)
        lo, hi = sorted((m1, m2))
        assert budget(n, lo, c) <= budget(n, hi, c) <= n

    def test_uniform_allocation_special_case(self):
        c = cfg(capacity_ratio=0.4, multiplier_min=1.0, multiplier_max=1.0)
        for s in (0.0, 0.3, 1.0):
            m = multiplier(s, c)
            assert m == 1.0
        for n in (10, 100, 333):
            assert budget(n, 1.0, c) == int(n * 0.4)


def test_full_chain_argmax_invariance():
    """Adding a constant to all sigmas leaves budgets unchanged."""
    c = cfg(capacity_ratio=0.4)
    sigmas = [0.1, 0.5, 0.9, 0.3]
    lengths = [100, 200, 333, 50]
    for shift in (0.0, 1.0, -0.05, 10.0):
        normalized = normalize_scores([s + shift for s in sigmas], c)
        budgets = [budget(n, multiplier(s, c), c) for n, s in zip(lengths, normalized)]
        if shift == 0.0:
            baseline = budgets
        assert budgets == baseline
