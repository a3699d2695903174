import itertools
import random

import pytest

from plan_helpers import single_chunk
from structkv.cpg import build_cpg
from structkv.errors import ConfigError
from structkv.parsing import parse_subset
from structkv.spans import (
    DEFAULT_SPAN_WEIGHTS,
    SpanConfig,
    StructuralSpan,
    build_spans,
    protect_chunk,
    protect_tokens,
    query_protection,
    score_span,
    select_spans,
    span_budget,
)


def mkspan(start, end, kinds=("call",), symbols=(), line=None, defuse=False):
    width_line = line if line is not None else start
    return StructuralSpan(
        anchor_node=start,
        token_range=(start, end),
        indicators=frozenset(kinds),
        symbols=frozenset(symbols),
        line_range=(width_line, width_line),
        participates_defuse=defuse,
    )


def spans_for(code, cfg=None):
    chunk, toks = single_chunk(code)
    cpg = build_cpg(parse_subset(toks), chunk, toks)
    return build_spans(cpg, cfg or SpanConfig(), toks), chunk, cpg


class TestConfig:
    def test_defaults_match_documented_values(self):
        cfg = SpanConfig()
        assert cfg.rho_span == 0.5
        assert cfg.b_min == 16
        assert cfg.min_span_tokens == 16
        assert cfg.merge_gap_lines == 1
        assert cfg.weights["call"] == 0.20
        assert cfg.weights["control"] == 0.18
        assert cfg.weights["query"] == 0.18
        assert cfg.weights["return"] == 0.14
        assert cfg.weights["assign"] == 0.14
        assert cfg.weights["defuse"] == 0.10
        assert cfg.weights.keys() == {
            "call", "control", "query", "return", "assign", "signature", "defuse"
        }

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            SpanConfig(rho_span=0)
        with pytest.raises(ConfigError):
            SpanConfig(b_min=0)
        with pytest.raises(ConfigError):
            SpanConfig(weights={"call": 0.2})

    def test_unknown_weight_name_rejected(self):
        weights = {**DEFAULT_SPAN_WEIGHTS, "cal": 0.5}
        with pytest.raises(ConfigError, match="'cal'"):
            SpanConfig(weights=weights)

    def test_attention_weight_rejected(self):
        weights = {**DEFAULT_SPAN_WEIGHTS, "attention": 0.06}
        with pytest.raises(ConfigError, match="'attention'"):
            SpanConfig(weights=weights)

    def test_nan_weight_rejected(self):
        with pytest.raises(ConfigError, match="'call'"):
            SpanConfig(weights={**DEFAULT_SPAN_WEIGHTS, "call": float("nan")})


class TestBuildSpans:
    def test_empty_graph_yields_no_spans(self):
        chunk, toks = single_chunk("import os\n")
        from structkv.cpg import Cpg

        assert build_spans(Cpg((), (), chunk.id), SpanConfig(), toks) == []

    def test_widening_to_minimum(self):
        # a call anchor on a long line widens symmetrically to 16 tokens
        code = " ".join(f"x{i} = {i};" for i in range(30)) + " probe(x1)\n"
        spans, chunk, cpg = spans_for(code)
        call_spans = [z for z in spans if "call" in z.indicators]
        assert call_spans and all(z.width >= 16 for z in call_spans)

    def test_whole_chunk_when_smaller_than_minimum(self):
        spans, chunk, _ = spans_for("go(x)\n")
        assert spans[0].token_range == (0, chunk.length)

    def test_adjacent_same_kind_merge(self):
        # two returns on adjacent lines inside one widened neighborhood
        code = (
            "def f(a):\n"
            "    if a:\n"
            "        return 1\n"
            "    return 2\n"
        )
        spans, _, cpg = spans_for(code)
        return_spans = [z for z in spans if "return" in z.indicators]
        assert len(return_spans) == 1
        assert {"return"} <= set(return_spans[0].indicators)

    def test_distant_spans_stay_separate(self):
        filler = "".join(f"    v{i} = {i}\n" for i in range(20))
        code = "def f(a):\n    return a\n" + "\ndef g(b):\n" + filler + "    return b\n"
        spans, _, _ = spans_for(code)
        return_spans = [z for z in spans if "return" in z.indicators]
        assert len(return_spans) == 2

    def test_merge_requires_shared_indicator(self):
        cfg = SpanConfig(min_span_tokens=1)
        code = "def f(a):\n    x = a\n    return x\n"
        spans, _, _ = spans_for(code, cfg)
        kinds = [z.indicators for z in spans]
        # assign and return anchors on adjacent lines must not fuse
        assert frozenset({"assign"}) in kinds and frozenset({"return"}) in kinds

    def test_symbols_reflect_widened_window(self):
        spans, _, _ = spans_for("def f(alpha):\n    return alpha\n")
        assert any("alpha" in z.symbols for z in spans)


class TestScoreSpan:
    def test_bare_span_scores_zero(self):
        assert score_span(mkspan(0, 4, kinds=()), SpanConfig()) == 0.0

    def test_call_only(self):
        assert score_span(mkspan(0, 4, kinds=("call",)), SpanConfig()) == pytest.approx(0.20)

    def test_call_return_with_defuse(self):
        z = mkspan(0, 4, kinds=("call", "return"), defuse=True)
        assert score_span(z, SpanConfig()) == pytest.approx(0.44)

    def test_query_hit_adds_query_weight(self):
        z = mkspan(0, 4, kinds=("call",))
        assert score_span(z, SpanConfig(), 1) == pytest.approx(0.38)


class TestQueryProtection:
    def test_overlap_protects(self):
        z = mkspan(0, 4, symbols=("parse", "buf"))
        assert query_protection(z, frozenset({"buf"})) == 1

    def test_disjoint_not_protected(self):
        z = mkspan(0, 4, symbols=("parse",))
        assert query_protection(z, frozenset({"buf"})) == 0

    def test_empty_query_never_protects(self):
        z = mkspan(0, 4, symbols=("parse",))
        assert query_protection(z, frozenset()) == 0


class TestSpanBudget:
    def test_ratio_applies(self):
        assert span_budget(100, SpanConfig()) == 50

    def test_small_budget_saturates(self):
        assert span_budget(10, SpanConfig()) == 10

    def test_floor_below_minimum(self):
        assert span_budget(20, SpanConfig()) == 16

    def test_zero_budget(self):
        assert span_budget(0, SpanConfig()) == 0


class TestSelectSpans:
    def test_protected_beats_higher_score(self):
        spans = [mkspan(0, 16), mkspan(20, 36)]
        scores = [0.0, 0.44]
        out = select_spans(spans, scores, [1, 0], b_span=16)
        assert [(s.index, s.stage) for s in out] == [(0, 1)]

    def test_zero_budget_selects_nothing(self):
        assert select_spans([mkspan(0, 4)], [1.0], [1], 0) == []

    def test_greedy_matches_exhaustive_at_small_size(self):
        spans = [mkspan(0, 16, line=0), mkspan(20, 36, line=1), mkspan(40, 56, line=2)]
        scores = [0.3, 0.2, 0.1]
        out = select_spans(spans, scores, [0, 0, 0], b_span=32)
        chosen = {s.index for s in out}
        assert chosen == {0, 1}
        # exhaustive check: no feasible subset has a higher total score
        best = max(
            (
                sum(scores[i] for i in sub)
                for r in range(4)
                for sub in itertools.combinations(range(3), r)
                if len(set().union(*(set(range(*spans[i].token_range)) for i in sub)) if sub else set()) <= 32
            ),
        )
        assert sum(scores[i] for i in chosen) == pytest.approx(best)

    def test_skipped_big_span_does_not_block_later_fit(self):
        spans = [mkspan(0, 40), mkspan(50, 60)]
        scores = [0.9, 0.1]
        out = select_spans(spans, scores, [0, 0], b_span=12)
        assert {s.index for s in out} == {1}

    def test_overlap_counted_once(self):
        spans = [mkspan(0, 16), mkspan(8, 24)]
        out = select_spans(spans, [0.5, 0.4], [0, 0], b_span=24)
        assert {s.index for s in out} == {0, 1}

    def test_signatures_enter_stage_one(self):
        spans = [mkspan(0, 16, kinds=("signature",)), mkspan(20, 36, kinds=("call",))]
        out = select_spans(spans, [0.0, 0.2], [0, 0], b_span=16)
        assert [(s.index, s.stage) for s in out] == [(0, 1)]

    def test_query_spans_take_priority_over_signatures(self):
        spans = [mkspan(0, 16, kinds=("signature",)), mkspan(20, 36, kinds=("call",))]
        out = select_spans(spans, [0.0, 0.2], [0, 1], b_span=16)
        assert [(s.index, s.stage) for s in out] == [(1, 1)]

    def test_union_never_exceeds_budget(self):
        rng = random.Random(5)
        for _ in range(200):
            spans = []
            for _ in range(rng.randint(1, 12)):
                start = rng.randrange(0, 120)
                spans.append(mkspan(start, start + rng.randint(1, 30), line=start))
            scores = [rng.random() for _ in spans]
            prot = [rng.random() < 0.3 for _ in spans]
            b = rng.randrange(0, 80)
            out = select_spans(spans, scores, prot, b)
            union = set()
            for s in out:
                union.update(range(*spans[s.index].token_range))
            assert len(union) <= b

    def test_monotone_protection_in_budget(self):
        rng = random.Random(7)
        for _ in range(100):
            spans = []
            for _ in range(rng.randint(1, 8)):
                start = rng.randrange(0, 80)
                spans.append(mkspan(start, start + rng.randint(1, 20), line=start))
            scores = [rng.random() for _ in spans]
            prot = [rng.random() < 0.4 for _ in spans]
            small = select_spans(spans, scores, prot, 30)
            large = select_spans(spans, scores, prot, 60)
            small_protected = {s.index for s in small if s.stage == 1}
            large_protected = {s.index for s in large if s.stage == 1}
            assert small_protected <= large_protected


class TestProtectTokens:
    LENGTH = 40

    def test_prefix_rule_on_overflow(self):
        z = mkspan(4, 20)
        assert protect_tokens([z], 10, self.LENGTH) == list(range(4, 14))

    def test_distance_fill(self):
        z = mkspan(10, 12)
        assert protect_tokens([z], 5, 20) == [8, 9, 10, 11, 12]

    def test_no_spans_no_tokens(self):
        assert protect_tokens([], 10, self.LENGTH) == []

    def test_exact_budget_kept_whole(self):
        z = mkspan(0, 10)
        assert protect_tokens([z], 10, self.LENGTH) == list(range(10))

    def test_size_never_exceeds_budget(self):
        rng = random.Random(3)
        for _ in range(200):
            spans = [
                mkspan(s, min(40, s + rng.randint(1, 15)))
                for s in rng.sample(range(35), k=rng.randint(0, 5))
            ]
            b = rng.randrange(0, 41)
            out = protect_tokens(spans, b, self.LENGTH)
            assert out == sorted(set(out))
            if spans:
                # equality with the budget whenever candidates suffice
                assert len(out) == min(b, self.LENGTH)
            else:
                assert out == []

    def test_budget_reached_when_possible(self):
        z = mkspan(5, 8)
        out = protect_tokens([z], 25, self.LENGTH)
        assert len(out) == 25


class TestProtectChunk:
    CODE = (
        "def read_config(path):\n    raw = load(path)\n    cfg = parse(raw)\n"
        "    if cfg:\n        return cfg\n    return None\n"
    )

    def protect(self, budget, cfg=None):
        chunk, toks = single_chunk(self.CODE)
        cpg = build_cpg(parse_subset(toks), chunk, toks)
        return protect_chunk(cpg, budget, cfg or SpanConfig(), toks, frozenset({"parse"}))

    def test_disabled_protects_nothing(self):
        assert self.protect(10, SpanConfig(enabled=False)) == ((), (), 0)

    def test_protected_set_is_empty_or_the_budget(self):
        for budget in range(0, 31):
            protected, records, b_span = self.protect(budget)
            assert b_span == span_budget(budget, SpanConfig())
            assert len(protected) == (budget if records else 0)
            for r in records:
                assert set(range(*r.token_range)) & set(protected)

    def test_query_hit_scored_and_protected(self):
        _, records, _ = self.protect(20)
        spans, _, _ = spans_for(self.CODE)
        hit = next(r for r in records if r.stage == 1)
        z = next(z for z in spans if z.anchor_node == hit.anchor_node)
        assert "parse" in z.symbols
        assert hit.score == score_span(z, SpanConfig()) + DEFAULT_SPAN_WEIGHTS["query"]

    def test_query_hit_computed_once_per_span(self, monkeypatch):
        import structkv.spans as spans_mod

        calls = []
        real = spans_mod.query_protection
        monkeypatch.setattr(
            spans_mod, "query_protection", lambda z, syms: calls.append(z) or real(z, syms)
        )
        self.protect(20)
        assert calls == spans_for(self.CODE)[0]
