import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkv.cpg import Cpg, CpgNode, NodeKind
from structkv.errors import ParameterError
from structkv.metrics import (
    kind_mask,
    normalized_edit_distance,
    set_metrics,
    structure_score,
    topk_overlap_jaccard,
)
from structkv.plan import ChunkPlan, CompressionPlan, LayerPlan
from plan_helpers import oracle_structure_score


def score(plan, cpgs):
    """structure_score over each graph's kind mask; it equals the set-based
    oracle's report float for float."""
    lengths = {c.chunk_id: c.length for c in plan.chunks}
    report = structure_score(plan, {cid: kind_mask(g, lengths[cid]) for cid, g in cpgs.items()})
    assert report == oracle_structure_score(plan, cpgs)
    return report


def node(nid, kind, start, end):
    return CpgNode(nid, NodeKind(kind), (start, end), 1)


def fake_plan(chunk_specs):
    """chunk_specs: list of (chunk_id, length, {layer: kept_indices})."""
    chunks = []
    for cid, length, layer_keeps in chunk_specs:
        layers = tuple(
            LayerPlan(layer=l, kept=tuple(kept), positions=tuple(kept))
            for l, kept in sorted(layer_keeps.items())
        )
        chunks.append(
            ChunkPlan(
                chunk_id=cid,
                file=f"f{cid}.py",
                token_range=(0, length),
                length=length,
                ppl=0.0,
                sigma=0.0,
                normalized_score=0.5,
                multiplier=1.0,
                budget=max((len(k) for k in layer_keeps.values()), default=0),
                span_budget=0,
                spans=(),
                protected=(),
                layers=layers,
            )
        )
    return CompressionPlan(
        chunks=tuple(chunks),
        prefix_len=0,
        query_len=1,
        query_start_position=max((c.length for c in chunks), default=0),
        layer_count=len(chunk_specs[0][2]) if chunk_specs else 0,
        seed=0,
        config_fingerprint="test",
    )


class TestStructureScore:
    def test_full_retention(self):
        cpg = Cpg((node(0, "call", 2, 6),), (), 0)
        plan = fake_plan([(0, 10, {0: range(10)})])
        report = score(plan, {0: cpg})
        assert report.structure_score == 1.0

    def test_zero_retention(self):
        cpg = Cpg((node(0, "call", 2, 6),), (), 0)
        plan = fake_plan([(0, 10, {0: [0, 1, 8, 9]})])
        report = score(plan, {0: cpg})
        assert report.structure_score == 0.0

    def test_mean_over_chunks(self):
        cpg0 = Cpg((node(0, "call", 0, 4),), (), 0)
        cpg1 = Cpg((node(0, "return", 0, 4),), (), 1)
        plan = fake_plan(
            [
                (0, 8, {0: [0, 1, 2, 3]}),  # retention 1.0
                (1, 8, {0: [0, 1]}),  # retention 0.5
            ]
        )
        report = score(plan, {0: cpg0, 1: cpg1})
        assert report.structure_score == pytest.approx(0.75)

    def test_chunks_without_critical_tokens_excluded(self):
        cpg0 = Cpg((node(0, "call", 0, 4),), (), 0)
        empty = Cpg((), (), 1)
        plan = fake_plan([(0, 8, {0: [0, 1, 2, 3]}), (1, 8, {0: []})])
        report = score(plan, {0: cpg0, 1: empty})
        assert report.structure_score == 1.0
        assert report.pairs_counted == 1

    def test_per_layer_breakdown(self):
        cpg = Cpg((node(0, "call", 0, 4),), (), 0)
        plan = fake_plan([(0, 8, {0: [0, 1, 2, 3], 1: [0, 1]})])
        report = score(plan, {0: cpg})
        assert report.per_layer == {0: 1.0, 1: 0.5}
        assert report.structure_score == pytest.approx(0.75)

    def test_monotone_in_kept_sets(self):
        cpg = Cpg((node(0, "call", 0, 6),), (), 0)
        small = fake_plan([(0, 10, {0: [0, 1]})])
        large = fake_plan([(0, 10, {0: [0, 1, 2, 3]})])
        assert (
            score(large, {0: cpg}).structure_score
            >= score(small, {0: cpg}).structure_score
        )


class TestCategoryRetention:
    def test_saturated_category(self):
        cpg = Cpg((node(0, "call", 0, 4), node(1, "assign", 6, 8)), (), 0)
        plan = fake_plan([(0, 10, {0: [0, 1, 2, 3]})])
        assert score(plan, {0: cpg}).per_category_retention["call"] == 1.0

    def test_absent_category_reports_none(self):
        cpg = Cpg((node(0, "call", 0, 4),), (), 0)
        plan = fake_plan([(0, 10, {0: [0]})])
        assert "signature" not in score(plan, {0: cpg}).per_category_retention

    def test_half_kept(self):
        cpg = Cpg((node(0, "return", 0, 4),), (), 0)
        plan = fake_plan([(0, 10, {0: [0, 1]})])
        retention = score(plan, {0: cpg}).per_category_retention["return"]
        assert retention == pytest.approx(0.5)

    def test_report_includes_present_categories(self):
        cpg = Cpg((node(0, "call", 0, 2), node(1, "return", 4, 6)), (), 0)
        plan = fake_plan([(0, 10, {0: [0, 1, 4, 5]})])
        report = score(plan, {0: cpg})
        assert set(report.per_category_retention) == {"call", "return"}
        assert report.per_category_retention["call"] == 1.0


class TestTopkOverlap:
    def test_identical_rankings(self):
        scores = [5.0, 4.0, 3.0, 2.0, 1.0]
        assert topk_overlap_jaccard(scores, list(scores), 0.4) == 1.0

    def test_reversed_rankings_disjoint(self):
        a = [float(i) for i in range(10)]
        b = list(reversed(a))
        assert topk_overlap_jaccard(a, b, 0.2) == 0.0

    def test_symmetry(self):
        import random

        rng = random.Random(0)
        a = [rng.random() for _ in range(20)]
        b = [rng.random() for _ in range(20)]
        assert topk_overlap_jaccard(a, b, 0.3) == topk_overlap_jaccard(b, a, 0.3)

    def test_monotone_rescale_invariance(self):
        a = [1.0, 5.0, 2.0, 4.0, 3.0]
        b = [2.0, 1.0, 5.0, 3.0, 4.0]
        base = topk_overlap_jaccard(a, b, 0.4)
        assert topk_overlap_jaccard([x * 10 + 3 for x in a], b, 0.4) == base

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            topk_overlap_jaccard([], [], 0.2)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ParameterError):
            topk_overlap_jaccard([1.0], [1.0], 0.0)
        with pytest.raises(ParameterError):
            topk_overlap_jaccard([1.0], [1.0], 1.5)

    def test_misaligned_rejected(self):
        with pytest.raises(ParameterError):
            topk_overlap_jaccard([1.0, 2.0], [1.0], 0.5)


class TestSetMetrics:
    def test_perfect_match(self):
        m = set_metrics({"a", "b"}, {"a", "b"})
        assert (m.precision, m.recall, m.f1, m.jaccard) == (1.0, 1.0, 1.0, 1.0)

    def test_disjoint(self):
        m = set_metrics({"a"}, {"b"})
        assert (m.precision, m.recall, m.f1, m.jaccard) == (0.0, 0.0, 0.0, 0.0)

    def test_partial_overlap(self):
        m = set_metrics({"a", "b", "c"}, {"b", "c", "d"})
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)
        assert m.jaccard == pytest.approx(0.5)

    def test_empty_gold_flagged(self):
        m = set_metrics({"a"}, set())
        assert m.recall == 0.0 and m.gold_empty

    def test_both_empty_is_a_perfect_match(self):
        m = set_metrics(set(), set())
        assert (m.precision, m.recall, m.f1, m.jaccard) == (1.0, 1.0, 1.0, 1.0)
        assert m.gold_empty

    def test_f1_harmonic_identity(self):
        m = set_metrics({"a", "b", "c", "d"}, {"c", "d", "e"})
        p, r = m.precision, m.recall
        assert m.f1 == pytest.approx(2 * p * r / (p + r))


class TestEditDistance:
    def test_identical(self):
        assert normalized_edit_distance("same", "same") == 0.0

    def test_empty_vs_nonempty(self):
        assert normalized_edit_distance("", "ab") == 1.0

    def test_both_empty(self):
        assert normalized_edit_distance("", "") == 0.0

    def test_reference_value(self):
        assert normalized_edit_distance("kitten", "sitting") == pytest.approx(3 / 7)

    def test_token_level(self):
        a = ["x", "=", "1"]
        b = ["x", "=", "2"]
        assert normalized_edit_distance(a, b) == pytest.approx(1 / 3)

    def test_bounded(self):
        assert 0.0 <= normalized_edit_distance("abc", "xyzw") <= 1.0

    @given(st.text(max_size=12), st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality_unnormalized(self, a, b, c):
        def lev(x, y):
            n = max(len(x), len(y))
            return normalized_edit_distance(x, y) * n if n else 0.0

        assert lev(a, c) <= lev(a, b) + lev(b, c) + 1e-9
