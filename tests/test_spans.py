import itertools
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_helpers import SPAN_BIT, single_chunk, span_table
from structkv.cpg import Cpg, CpgEdge, CpgNode, EdgeKind, NodeKind, build_cpg
from structkv.errors import ConfigError
from structkv.lexer import TokenKind, identifier_names
from structkv.parsing import parse_subset
from structkv.plan import SpanRecord
from structkv.spans import (
    DEFAULT_SPAN_WEIGHTS,
    SpanConfig,
    build_spans,
    protect_chunk,
    protect_tokens,
    query_hits,
    select_spans,
    span_budget,
    span_scores,
)


class Candidate(NamedTuple):
    """One span candidate as a record: what a row of a SpanTable means."""

    anchor_node: int
    token_range: tuple[int, int]  # chunk-local, half-open
    indicators: frozenset[str]  # node kinds
    symbols: frozenset[str]
    line_range: tuple[int, int]
    participates_defuse: bool = False

    @property
    def width(self) -> int:
        return self.token_range[1] - self.token_range[0]


def mkspan(start, end, kinds=("call",), symbols=(), line=None, defuse=False):
    width_line = line if line is not None else start
    return Candidate(
        anchor_node=start,
        token_range=(start, end),
        indicators=frozenset(kinds),
        symbols=frozenset(symbols),
        line_range=(width_line, width_line),
        participates_defuse=defuse,
    )


def candidates(table, toks) -> list[Candidate]:
    """A table read back as records; a candidate's symbols are the
    identifiers of its windows."""
    bounds = [*table.first.tolist(), len(table.window_start)]
    out = []
    for i in range(len(table)):
        start, end, bits = int(table.start[i]), int(table.end[i]), int(table.bits[i])
        symbols = {
            t.text
            for w in range(bounds[i], bounds[i + 1])
            for t in toks[table.window_start[w] : table.window_end[w]]
            if t.kind is TokenKind.IDENTIFIER
        }
        out.append(
            Candidate(
                int(table.anchor[i]),
                (start, end),
                frozenset(k.value for k in NodeKind if bits & SPAN_BIT[k.value]),
                frozenset(symbols),
                (toks[start].line, toks[end - 1].line),
                bool(bits & SPAN_BIT["defuse"]),
            )
        )
    return out


def select(spans, scores, hits, b_span):
    return select_spans(
        span_table(spans), np.array(scores, dtype=float), np.array(hits, dtype=bool), b_span
    )


def spans_for(code, cfg=None):
    chunk, toks = single_chunk(code)
    cpg = build_cpg(parse_subset(toks), chunk, toks)
    return candidates(build_spans(cpg, cfg or SpanConfig(), toks), toks), chunk, cpg


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
        with pytest.raises(ConfigError, match="merge_gap_lines"):
            SpanConfig(merge_gap_lines=-1)

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

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("key", ["query", "defuse"])
    def test_non_finite_weight_rejected(self, key, value):
        # an infinite query weight made a span's score inf * 0 = nan for
        # spans missing the query
        with pytest.raises(ConfigError, match=f"span weight '{key}' must be finite"):
            SpanConfig(weights={**DEFAULT_SPAN_WEIGHTS, key: value})


class TestBuildSpans:
    def test_empty_graph_yields_no_spans(self):
        chunk, toks = single_chunk("import os\n")
        table = build_spans(Cpg((), (), chunk.id), SpanConfig(), toks)
        assert len(table) == 0 and len(table.window_start) == 0

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


# Ten lines "a<k> = b<k>\n": token i is on line i // 4 + 1, and the
# identifiers are a<k> at 4k and b<k> at 4k + 2. A merged span's symbols are
# the union of its members' windows, not of the tokens its range covers.
TEN_LINES = "".join(f"a{k} = b{k}\n" for k in range(10))

# (nodes as (kind, token_range), def-use pairs, code, SpanConfig fields, expected
# candidates as (anchor, token_range, kinds, line_range, defuse, symbols))
BUILD_ROWS = {
    "node-at-start": (
        [("assign", (0, 2))], [], TEN_LINES, {"min_span_tokens": 6},
        [(0, (0, 6), "assign", (1, 2), False, "a0 b0 a1")],
    ),
    "node-at-end": (
        [("call", (38, 40))], [], TEN_LINES, {"min_span_tokens": 6},
        [(0, (34, 40), "call", (9, 10), False, "b8 a9 b9")],
    ),
    "odd-shortfall-extra-token-before": (
        [("return", (13, 16))], [], TEN_LINES, {"min_span_tokens": 6},
        [(0, (11, 17), "return", (3, 5), False, "a3 b3 a4")],
    ),
    "node-wider-than-minimum": (
        [("control", (9, 19))], [], TEN_LINES, {"min_span_tokens": 6},
        [(0, (9, 19), "control", (3, 5), False, "b2 a3 b3 a4 b4")],
    ),
    "chunk-shorter-than-minimum": (
        [("call", (0, 1)), ("assign", (2, 3))], [], "a = go(x)\n", {},
        [(0, (0, 7), "call", (1, 1), False, "a go x"),
         (1, (0, 7), "assign", (1, 1), False, "a go x")],
    ),
    "merge-keeps-the-longer-end": (
        [("assign", (8, 20)), ("assign", (12, 14)), ("call", (21, 22))], [(1, 2)],
        TEN_LINES, {"min_span_tokens": 6},
        [(0, (8, 20), "assign", (3, 5), True, "a2 b2 a3 b3 a4 b4"),
         (2, (18, 24), "call", (5, 6), True, "b4 a5 b5")],
    ),
    "merge-chain-later-member-ends-first": (
        [("assign", (8, 20)), ("assign", (12, 14)), ("assign", (24, 26))], [],
        TEN_LINES, {"min_span_tokens": 6},
        [(0, (8, 28), "assign", (3, 7), False, "a2 b2 a3 b3 a4 b4 b5 a6 b6")],
    ),
    "merge-needs-a-shared-kind": (
        [("assign", (0, 2)), ("call", (2, 3)), ("call", (4, 6))], [],
        TEN_LINES, {"min_span_tokens": 1},
        [(0, (0, 2), "assign", (1, 1), False, "a0"),
         (1, (2, 6), "call", (1, 2), False, "b0 a1")],
    ),
    "merge-gap-lines-zero": (
        [("assign", (0, 2)), ("assign", (4, 6)), ("assign", (8, 9)), ("assign", (10, 11))],
        [], TEN_LINES, {"min_span_tokens": 1, "merge_gap_lines": 0},
        [(0, (0, 2), "assign", (1, 1), False, "a0"),
         (1, (4, 6), "assign", (2, 2), False, "a1"),
         (2, (8, 11), "assign", (3, 3), False, "a2 b2")],
    ),
    "merge-gap-lines-one": (
        [("assign", (0, 2)), ("assign", (4, 6)), ("assign", (12, 14))],
        [], TEN_LINES, {"min_span_tokens": 1},
        [(0, (0, 6), "assign", (1, 2), False, "a0 a1"),
         (2, (12, 14), "assign", (4, 4), False, "a3")],
    ),
}


@pytest.mark.parametrize("row", BUILD_ROWS.values(), ids=BUILD_ROWS.keys())
def test_build_spans_exact(row):
    nodes, defuse, code, fields, expected = row
    chunk, toks = single_chunk(code)
    cpg = Cpg(
        tuple(
            CpgNode(i, NodeKind(kind), span, toks[span[0]].line)
            for i, (kind, span) in enumerate(nodes)
        ),
        tuple(CpgEdge(a, b, EdgeKind.PDG) for a, b in defuse),
        chunk.id,
    )
    table = build_spans(cpg, SpanConfig(**fields), toks)
    assert candidates(table, toks) == [
        Candidate(anchor, span, frozenset(kinds.split()), frozenset(symbols.split()), lines, du)
        for anchor, span, kinds, lines, du, symbols in expected
    ]
    assert all(a.flags.writeable is False for a in vars(table).values())


def score(z, hit=False, weights=None):
    table = span_table([z])
    return span_scores(table, weights or DEFAULT_SPAN_WEIGHTS, np.array([hit])).tolist()[0]


class TestScoreSpan:
    def test_bare_span_scores_zero(self):
        assert score(mkspan(0, 4, kinds=())) == 0.0

    def test_call_only(self):
        assert score(mkspan(0, 4, kinds=("call",))) == pytest.approx(0.20)

    def test_call_return_with_defuse(self):
        z = mkspan(0, 4, kinds=("call", "return"), defuse=True)
        assert score(z) == pytest.approx(0.44)

    def test_query_hit_adds_query_weight(self):
        z = mkspan(0, 4, kinds=("call",))
        assert score(z, hit=True) == pytest.approx(0.38)

    def test_weights_add_in_key_order(self):
        # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 are different floats; a sum
        # over a set of kinds picked one of them by the process's hash seed
        weights = {**DEFAULT_SPAN_WEIGHTS, "call": 0.1, "control": 0.2, "return": 0.3}
        z = mkspan(0, 4, kinds=("return", "control", "call"))
        assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
        assert score(z, weights=weights) == 0.1 + 0.2 + 0.3


class TestQueryProtection:
    """A candidate is a query hit when one of its windows holds a query
    identifier."""

    def hits(self, code, token_range, query):
        _, toks = single_chunk(code)
        table = span_table([mkspan(*token_range)])
        return query_hits(table, identifier_names(toks), frozenset(query)).tolist()

    def test_overlap_protects(self):
        assert self.hits("parse(buf)\n", (0, 4), {"buf"}) == [True]

    def test_disjoint_not_protected(self):
        assert self.hits("parse(buf)\n", (0, 1), {"buf"}) == [False]

    def test_empty_query_never_protects(self):
        assert self.hits("parse(buf)\n", (0, 4), set()) == [False]

    def test_only_identifiers_hit(self):
        # the keyword and the string hold the text, but no identifier does
        assert self.hits("if 'if'\n", (0, 2), {"if", "'if'"}) == [False]

    @pytest.mark.parametrize(
        "query, expected", [({"a0"}, True), ({"b2"}, True), ({"a1"}, False), ({"b0"}, False)]
    )
    def test_the_gap_between_merged_windows_is_no_hit(self, query, expected):
        # assign windows a0 = (line 1) and a2 = b2 (line 3) merge at a gap of
        # two lines into one candidate over tokens 0-11, which covers b0 and
        # the whole of line 2; a query identifier there is no hit
        nodes = [("assign", (0, 2)), ("assign", (8, 11))]
        chunk, toks = single_chunk(TEN_LINES)
        cpg = Cpg(
            tuple(
                CpgNode(i, NodeKind(kind), span, toks[span[0]].line)
                for i, (kind, span) in enumerate(nodes)
            ),
            (),
            chunk.id,
        )
        table = build_spans(cpg, SpanConfig(min_span_tokens=1, merge_gap_lines=2), toks)
        (z,) = candidates(table, toks)
        assert z.token_range == (0, 11) and z.symbols == {"a0", "a2", "b2"}
        names = identifier_names(toks)
        assert query_hits(table, names, frozenset(query)).tolist() == [expected]
        protected, records, _ = protect_chunk(table, 11, SpanConfig(), names, frozenset(query))
        assert [r.stage for r in records] == [1 if expected else 2]


class TestSpanBudget:
    def test_ratio_applies(self):
        assert span_budget(100, SpanConfig()) == 50

    def test_small_budget_saturates(self):
        assert span_budget(10, SpanConfig()) == 10

    def test_floor_below_minimum(self):
        assert span_budget(20, SpanConfig()) == 16

    def test_zero_budget(self):
        assert span_budget(0, SpanConfig()) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget must be non-negative"):
            span_budget(-1, SpanConfig())


class TestSelectSpans:
    def test_protected_beats_higher_score(self):
        spans = [mkspan(0, 16), mkspan(20, 36)]
        scores = [0.0, 0.44]
        out = select(spans, scores, [1, 0], b_span=16)
        assert [(s.index, s.stage) for s in out] == [(0, 1)]

    def test_zero_budget_selects_nothing(self):
        assert select([mkspan(0, 4)], [1.0], [1], 0) == []

    def test_greedy_matches_exhaustive_at_small_size(self):
        spans = [mkspan(0, 16, line=0), mkspan(20, 36, line=1), mkspan(40, 56, line=2)]
        scores = [0.3, 0.2, 0.1]
        out = select(spans, scores, [0, 0, 0], b_span=32)
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
        out = select(spans, scores, [0, 0], b_span=12)
        assert {s.index for s in out} == {1}

    def test_overlap_counted_once(self):
        spans = [mkspan(0, 16), mkspan(8, 24)]
        out = select(spans, [0.5, 0.4], [0, 0], b_span=24)
        assert {s.index for s in out} == {0, 1}

    def test_signatures_enter_stage_one(self):
        spans = [mkspan(0, 16, kinds=("signature",)), mkspan(20, 36, kinds=("call",))]
        out = select(spans, [0.0, 0.2], [0, 0], b_span=16)
        assert [(s.index, s.stage) for s in out] == [(0, 1)]

    def test_query_spans_take_priority_over_signatures(self):
        spans = [mkspan(0, 16, kinds=("signature",)), mkspan(20, 36, kinds=("call",))]
        out = select(spans, [0.0, 0.2], [0, 1], b_span=16)
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
            out = select(spans, scores, prot, b)
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
            small = select(spans, scores, prot, 30)
            large = select(spans, scores, prot, 60)
            small_protected = {s.index for s in small if s.stage == 1}
            large_protected = {s.index for s in large if s.stage == 1}
            assert small_protected <= large_protected


def three_pass_packing(spans, scores, protections, b_span):
    """Span packing as first written: query hits, then signatures, each in
    (token range, index) order, then the rest by (-score, token range,
    index), retrying every span an earlier pass could not fit."""
    covered, taken, out = set(), set(), []
    remaining = b_span

    def try_take(i, stage):
        nonlocal remaining
        fresh = set(range(*spans[i].token_range)) - covered
        if len(fresh) <= remaining:
            covered.update(fresh)
            remaining -= len(fresh)
            taken.add(i)
            out.append((i, stage))

    order = sorted(range(len(spans)), key=lambda i: (spans[i].token_range, i))
    for i in order:
        if protections[i]:
            try_take(i, 1)
    for i in order:
        if i not in taken and "signature" in spans[i].indicators:
            try_take(i, 1)
    rest = [i for i in range(len(spans)) if i not in taken]
    for i in sorted(rest, key=lambda i: (-scores[i], spans[i].token_range, i)):
        try_take(i, 2)
    return out


@st.composite
def packing_cases(draw):
    # few starts, widths and scores, so equal ranges and score ties are common
    n = draw(st.integers(0, 10))
    spans = [
        mkspan(
            start, start + draw(st.sampled_from([1, 2, 5, 8, 16, 30])),
            kinds=draw(st.sampled_from([("call",), ("signature",), ("signature", "call")])),
        )
        for start in draw(st.lists(st.sampled_from([0, 3, 8, 10, 20, 40]), min_size=n, max_size=n))
    ]
    scores = draw(st.lists(st.sampled_from([0.0, 0.2, 0.38]), min_size=n, max_size=n))
    protections = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    return spans, scores, protections, draw(st.integers(0, 70))


@given(packing_cases())
@settings(max_examples=500, deadline=None)
def test_select_spans_matches_the_three_pass_rule(case):
    out = select(*case)
    assert [(s.index, s.stage) for s in out] == three_pass_packing(*case)


def padded_by_rule(selected, b, length):
    """The padding rule, stated directly: the span union whole when it fits
    (its first b indices when it does not), then outside tokens by
    (distance to the nearest protected token, index) until b are kept."""
    union = sorted({i for r in selected for i in range(*r)})
    if len(union) >= b or not union:
        return union[:b]
    outside = [i for i in range(length) if i not in union]
    outside.sort(key=lambda i: (min(abs(i - p) for p in union), i))
    return sorted(union + outside[: b - len(union)])


@st.composite
def padding_cases(draw):
    length = draw(st.integers(1, 60))
    starts = draw(st.lists(st.integers(0, length - 1), max_size=5))
    ranges = [(s, min(length, s + draw(st.integers(1, 12)))) for s in starts]
    return ranges, draw(st.integers(0, length)), length


class TestProtectTokens:
    LENGTH = 40

    @given(padding_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_padding_rule(self, case):
        ranges, b, length = case
        assert protect_tokens(ranges, b, length) == padded_by_rule(ranges, b, length)

    @pytest.mark.parametrize(
        "ranges, b, length, expected",
        [
            # 3 is 2 from both runs: it waits for the two tokens at distance 1
            ([(0, 2), (5, 7)], 6, 7, [0, 1, 2, 4, 5, 6]),
            ([(0, 2), (5, 7)], 7, 7, [0, 1, 2, 3, 4, 5, 6]),
            ([(0, 2), (8, 10)], 5, 10, [0, 1, 2, 8, 9]),  # runs at both ends
            ([(0, 2), (8, 10)], 6, 10, [0, 1, 2, 7, 8, 9]),
            ([(3, 5)], 9, 9, list(range(9))),  # b == length
            ([(2, 6), (7, 12)], 6, 15, [2, 3, 4, 5, 7, 8]),  # union larger than b
        ],
    )
    def test_padding_corners(self, ranges, b, length, expected):
        assert padded_by_rule(ranges, b, length) == expected
        assert protect_tokens(ranges, b, length) == expected

    def test_prefix_rule_on_overflow(self):
        assert protect_tokens([(4, 20)], 10, self.LENGTH) == list(range(4, 14))

    def test_distance_fill(self):
        assert protect_tokens([(10, 12)], 5, 20) == [8, 9, 10, 11, 12]

    def test_no_spans_no_tokens(self):
        assert protect_tokens([], 10, self.LENGTH) == []

    def test_exact_budget_kept_whole(self):
        assert protect_tokens([(0, 10)], 10, self.LENGTH) == list(range(10))

    def test_size_never_exceeds_budget(self):
        rng = random.Random(3)
        for _ in range(200):
            spans = [
                (s, min(40, s + rng.randint(1, 15)))
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
        out = protect_tokens([(5, 8)], 25, self.LENGTH)
        assert len(out) == 25


class TestProtectChunk:
    CODE = (
        "def read_config(path):\n    raw = load(path)\n    cfg = parse(raw)\n"
        "    if cfg:\n        return cfg\n    return None\n"
    )

    def protect(self, budget, cfg=None):
        cfg = cfg or SpanConfig()
        chunk, toks = single_chunk(self.CODE)
        table = build_spans(build_cpg(parse_subset(toks), chunk, toks), cfg, toks)
        return protect_chunk(table, budget, cfg, identifier_names(toks), frozenset({"parse"}))

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
        assert hit.score == score(z) + DEFAULT_SPAN_WEIGHTS["query"]

    def test_query_hit_computed_once_per_span(self, monkeypatch):
        # one lookup of the query in the chunk's names marks every candidate
        import structkv.spans as spans_mod

        calls = []
        real = spans_mod.query_hits

        def counted(table, names, syms):
            calls.append(len(table))
            return real(table, names, syms)

        monkeypatch.setattr(spans_mod, "query_hits", counted)
        self.protect(20)
        assert calls == [len(spans_for(self.CODE)[0])]


def reference_candidates(cpg, cfg, toks):
    """build_spans as first written: a record per graph node, widened, then
    merged with near neighbors that share a kind, symbols as sets."""
    length = len(toks)
    defuse = {nid for e in cpg.edges if e.kind is EdgeKind.PDG for nid in (e.src, e.dst)}
    names = [t.text if t.kind is TokenKind.IDENTIFIER else None for t in toks]
    spans = []
    for node in cpg.nodes:
        start, end = node.token_range
        width = min(length, max(end - start, cfg.min_span_tokens))
        start = min(max(start - (width - (end - start) + 1) // 2, 0), length - width)
        end = start + width
        spans.append(
            Candidate(
                node.id,
                (start, end),
                frozenset({node.kind.value}),
                frozenset(filter(None, names[start:end])),
                (toks[start].line, toks[end - 1].line),
                node.id in defuse,
            )
        )
    spans.sort(key=lambda z: (z.token_range, z.anchor_node))
    merged = spans[:1]
    for z in spans[1:]:
        prev = merged[-1]
        gap = z.line_range[0] - prev.line_range[1]
        if gap > cfg.merge_gap_lines or not prev.indicators & z.indicators:
            merged.append(z)
        else:
            merged[-1] = prev._replace(
                token_range=(prev.token_range[0], max(prev.token_range[1], z.token_range[1])),
                indicators=prev.indicators | z.indicators,
                symbols=prev.symbols | z.symbols,
                line_range=(prev.line_range[0], max(prev.line_range[1], z.line_range[1])),
                participates_defuse=prev.participates_defuse or z.participates_defuse,
            )
    return merged


def reference_protect(cpg, budget, cfg, toks, query_syms):
    """protect_chunk as first written, over records: a candidate hits when
    its symbols meet the query, and scores its kinds' weights (added in key
    order), its def-use weight and the query weight on a hit."""
    if not cfg.enabled:
        return (), (), 0
    spans = reference_candidates(cpg, cfg, toks)
    hits = [1 if z.symbols & query_syms else 0 for z in spans]
    w = cfg.weights
    scores = [
        sum(w[k] for k in DEFAULT_SPAN_WEIGHTS if k in z.indicators)
        + (w["defuse"] if z.participates_defuse else 0.0)
        + w["query"] * hit
        for z, hit in zip(spans, hits)
    ]
    b_span = span_budget(budget, cfg)
    chosen = three_pass_packing(spans, scores, hits, b_span)
    records = tuple(
        SpanRecord(spans[i].anchor_node, stage, scores[i], spans[i].token_range)
        for i, stage in chosen
    )
    protected = padded_by_rule([r.token_range for r in records], budget, len(toks))
    return tuple(protected), records, b_span


@st.composite
def chunk_cases(draw):
    """A small chunk of identifier, keyword and number lines, a graph of
    short nodes over it (so merges are common), a span config and a query."""
    words = ["x", "y", "parse", "buf", "if", "1"]
    lines = st.lists(st.sampled_from(words), min_size=1, max_size=4)
    lines = draw(st.lists(lines, min_size=1, max_size=8))
    chunk, toks = single_chunk("".join(" = ".join(line) + "\n" for line in lines))
    kinds = st.sampled_from([NodeKind.CALL, NodeKind.CONTROL, NodeKind.RETURN, NodeKind.SIGNATURE])
    nodes = []
    for i in range(draw(st.integers(0, 10))):
        start = draw(st.integers(0, len(toks) - 1))
        end = draw(st.integers(start + 1, min(len(toks), start + 4)))
        nodes.append(CpgNode(i, draw(kinds), (start, end), toks[start].line))
    ids = st.integers(0, max(len(nodes) - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=3 if nodes else 0))
    edges = [CpgEdge(a, b, EdgeKind.PDG) for a, b in pairs]
    weight = st.sampled_from([0.0, 0.1, 0.2, 0.3])
    cfg = SpanConfig(
        rho_span=draw(st.sampled_from([0.3, 0.5, 1.0])),
        b_min=draw(st.integers(1, 8)),
        min_span_tokens=draw(st.integers(1, 6)),
        merge_gap_lines=draw(st.integers(0, 2)),
        weights={k: draw(weight) for k in DEFAULT_SPAN_WEIGHTS},
    )
    query = frozenset(draw(st.lists(st.sampled_from(words))))
    budget = draw(st.integers(0, len(toks)))
    return Cpg(tuple(nodes), tuple(edges), chunk.id), budget, cfg, toks, query


@given(chunk_cases())
@settings(max_examples=400, deadline=None)
def test_protect_chunk_matches_the_record_rules(case):
    cpg, budget, cfg, toks, query = case
    table = build_spans(cpg, cfg, toks)
    assert candidates(table, toks) == reference_candidates(cpg, cfg, toks)
    names = identifier_names(toks)
    assert protect_chunk(table, budget, cfg, names, query) == reference_protect(*case)
