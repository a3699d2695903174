"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criterion 10 note, stated explicitly: published benchmark-scale numbers
(task accuracy, F1, end-to-end latency) require full LLM inference over
external datasets and are out of scope for this desk-scale suite. The
metric definitions themselves are verified here and in the unit tests.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cpg_cases import CASES
from synth import synth_corpus, synth_query

from plan_helpers import check_plan_invariants, single_chunk
from structkv.allocation import AllocationConfig, budget, multiplier, normalize_scores
from structkv.attention import AttentionWindow, importance
from structkv.chunking import Chunk, ChunkConfig
from structkv.config import PipelineConfig, SelectionConfig
from structkv.cpg import EdgeKind, NodeKind, build_cpg
from structkv.lexer import SourceFile
from structkv.metrics import (
    normalized_edit_distance,
    set_metrics,
    topk_overlap_jaccard,
)
from structkv.parsing import parse_subset
from structkv.pipeline import query_position, run_pipeline
from structkv.scoring import (
    DEFAULT_TAUS,
    DEFAULT_WEIGHTS,
    StructuralFeatures,
    normalize,
    structural_score,
)
from structkv.spans import SpanConfig, StructuralSpan, select_spans, span_budget


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS", flush=True)


# -- shared plan battery -------------------------------------------------------

SYNTH_SEED = 2026


def _battery_configs():
    base = PipelineConfig(selection=SelectionConfig(k=6, layers=4), seed=SYNTH_SEED)
    for cap in (0.2, 0.4, 0.6):
        cfg = dataclasses.replace(
            base, allocation=AllocationConfig(capacity_ratio=cap)
        )
        baseline = dataclasses.replace(
            cfg,
            span=dataclasses.replace(cfg.span, enabled=False),
            allocation=AllocationConfig(
                capacity_ratio=cap, multiplier_min=1.0, multiplier_max=1.0
            ),
        )
        yield cap, cfg, baseline


@pytest.fixture(scope="module")
def plan_battery():
    """Plans over a 20-file planted-anchor corpus at three capacity ratios,
    for the full policy and an attention-only baseline."""
    corpus = synth_corpus(seed=SYNTH_SEED, n_files=20)
    query = synth_query(SYNTH_SEED, corpus)
    t0 = time.perf_counter()
    runs = []
    for cap, cfg, baseline_cfg in _battery_configs():
        plan, report = run_pipeline(corpus, query, cfg)
        base_plan, base_report = run_pipeline(corpus, query, baseline_cfg)
        runs.append(
            {
                "cap": cap,
                "plan": plan,
                "report": report,
                "baseline_plan": base_plan,
                "baseline_report": base_report,
            }
        )
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed, "corpus": corpus, "query": query}


def test_criterion_1_formula_conformance():
    with criterion(1, "formula conformance"):
        t0 = time.perf_counter()
        cfg = AllocationConfig(capacity_ratio=0.4)

        for tau in (1.0, 8.0, 16.0):
            assert normalize(0, tau) == 0.0
            assert normalize(tau, tau) == pytest.approx(1.0)
        assert normalize(3, 8) == pytest.approx(0.630930, abs=1e-6)

        assert structural_score(StructuralFeatures(0, 0, 0, 0, 0, 0)) == 0.0
        assert structural_score(
            StructuralFeatures(8, 0, 0, 0, 0, 0)
        ) == pytest.approx(0.20)
        taus8 = dict.fromkeys(DEFAULT_TAUS, 8.0)
        assert structural_score(
            StructuralFeatures(3, 0, 1, 0, 0, 0), DEFAULT_WEIGHTS, taus8
        ) == pytest.approx(0.170351, abs=1e-6)

        assert normalize_scores([0.4, 0.4, 0.4], cfg) == [0.5, 0.5, 0.5]
        assert normalize_scores([0.0, 1.0], cfg) == [0.0, 1.0]
        assert normalize_scores([0.2, 0.3, 0.6], cfg) == pytest.approx(
            [0.0, 0.25, 1.0], abs=1e-9
        )

        assert multiplier(0.0, cfg) == 0.5
        assert multiplier(1.0, cfg) == 1.5
        assert multiplier(0.5, cfg) == pytest.approx(1.0)

        assert budget(100, 1.0, cfg) == 40
        assert budget(100, 1.5, AllocationConfig(capacity_ratio=0.8)) == 100
        assert budget(333, 0.5, cfg) == 66

        span_cfg = SpanConfig()
        assert span_budget(100, span_cfg) == 50
        assert span_budget(10, span_cfg) == 10
        assert span_budget(20, span_cfg) == 16

        assert query_position(5, [10, 20]) == 25
        assert query_position(0, [7]) == 7
        assert query_position(4, []) == 4

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"formula suite took {elapsed:.3f}s"


def test_criterion_2_equal_score_branch():
    with criterion(2, "equal-score branch"):
        rng = random.Random(12)
        cfg = AllocationConfig()
        for _ in range(300):
            n = rng.randint(1, 100)
            value = rng.uniform(0.0, 2.0)
            assert normalize_scores([value] * n, cfg) == [0.5] * n


def test_criterion_3_hard_query_protection():
    with criterion(3, "hard query protection"):
        rng = random.Random(99)
        violations = 0
        for _ in range(1000):
            b_span = rng.randint(8, 60)
            spans, protections, scores = [], [], []
            must_select = []

            remaining = b_span
            cursor = 0
            for _ in range(rng.randint(1, 3)):
                width = rng.randint(1, max(1, remaining))
                if width > remaining:
                    break
                spans.append(_span(cursor, cursor + width, ("call",)))
                protections.append(1)
                scores.append(0.0)  # lowest possible score: protection must win
                must_select.append(len(spans) - 1)
                remaining -= width
                cursor += width + rng.randint(1, 5)

            if rng.random() < 0.3:  # an oversized query span: exempt
                spans.append(_span(cursor, cursor + b_span + 10, ("call",)))
                protections.append(1)
                scores.append(0.0)
                cursor += b_span + 12

            for _ in range(rng.randint(0, 8)):
                width = rng.randint(1, 40)
                kinds = rng.choice([("call",), ("control",), ("signature",), ("assign",)])
                spans.append(_span(cursor, cursor + width, kinds))
                protections.append(0)
                scores.append(rng.uniform(0.5, 5.0))  # tempting high scores
                cursor += width + rng.randint(0, 4)

            selected = {s.index for s in select_spans(spans, scores, protections, b_span)}
            for i in must_select:
                if spans[i].width <= b_span and i not in selected:
                    violations += 1
        assert violations == 0


def _span(start, end, kinds):
    return StructuralSpan(
        anchor_node=start,
        token_range=(start, end),
        indicators=frozenset(kinds),
        symbols=frozenset(),
        line_range=(start, start),
    )


def test_criterion_4_protection_dominance_and_budget_exactness(plan_battery):
    with criterion(4, "protection dominance / budget exactness"):
        checked = 0
        plans = []
        for run in plan_battery["runs"]:
            plans.extend([run["plan"], run["baseline_plan"]])
        # one run outside the battery regime: http-free defaults, prefix set
        extra_cfg = PipelineConfig(
            chunking=ChunkConfig(min_chunk_tokens=8),
            selection=SelectionConfig(k=3, layers=5),
            prefix="task preamble",
            seed=17,
        )
        extra_plan, _ = run_pipeline(
            plan_battery["corpus"][:8], plan_battery["query"], extra_cfg
        )
        plans.append(extra_plan)
        for plan in plans:
            checked += check_plan_invariants(plan)
        assert checked > 0


def _oracle_mass(q, k):
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


def test_criterion_5_attention_oracle_equivalence():
    with criterion(5, "attention oracle equivalence"):
        rng = np.random.default_rng(55)
        for _ in range(200):
            w = int(rng.integers(1, 9))
            lc = int(rng.integers(1, 33))
            d = int(rng.integers(1, 9))
            q = rng.standard_normal((w, d))
            k = rng.standard_normal((lc, d))
            u = importance(AttentionWindow(q, k, layer=0))
            expect = _oracle_mass(q.tolist(), k.tolist())
            assert np.allclose(u, expect, atol=1e-9)
            assert abs(float(u.sum()) - w) < 1e-6


def test_criterion_6_cfg_defuse_oracle():
    with criterion(6, "CFG / def-use oracle"):
        assert len(CASES) == 25
        for case in CASES:
            chunk, toks = single_chunk(case["code"])
            cpg = build_cpg(parse_subset(toks), chunk, toks)
            counts = {k.value: 0 for k in NodeKind}
            for n in cpg.nodes:
                counts[n.kind.value] += 1
            assert counts == case["kinds"], case["name"]
            line = {n.id: n.line for n in cpg.nodes}
            pdg = {
                (line[e.src], line[e.dst])
                for e in cpg.edges
                if e.kind is EdgeKind.PDG
            }
            assert pdg == case["pdg"], case["name"]


def test_criterion_7_directional_structure_score(plan_battery):
    with criterion(7, "structure-score superiority over attention-only"):
        assert len(plan_battery["corpus"]) >= 20
        for run in plan_battery["runs"]:
            ours = run["report"].structure_score
            baseline = run["baseline_report"].structure_score
            assert ours > baseline, (
                f"cap={run['cap']}: {ours:.3f} vs baseline {baseline:.3f}"
            )
        assert plan_battery["elapsed"] < 30.0


def test_criterion_8_callsite_retention_saturation():
    with criterion(8, "callsite retention saturation"):
        files = []
        for i in range(4):
            body = [f"def worker_{i}(a, b):"]
            body.append(f"    x = prepare_{i}(a)")
            body += [f"    t{j} = a + {j}" for j in range(12)]
            body.append(f"    y = combine_{i}(x, b)")
            body.append("    return y")
            files.append(SourceFile(f"c{i}.py", "\n".join(body) + "\n"))
        cfg = PipelineConfig(
            chunking=ChunkConfig(min_chunk_tokens=8),
            allocation=AllocationConfig(
                capacity_ratio=0.6, multiplier_min=1.0, multiplier_max=1.0
            ),
            span=dataclasses.replace(SpanConfig(), rho_span=0.9),
            selection=SelectionConfig(k=4, layers=2),
            seed=1,
        )
        plan, report = run_pipeline(files, "find the fault", cfg)
        # precondition of the criterion: the span stage had room for all calls
        for chunk in plan.chunks:
            assert chunk.span_budget >= 32, "fixture must leave room for call spans"
        assert report.per_category_retention["call"] == 1.0


def test_criterion_9_determinism_across_workers(plan_battery):
    with criterion(9, "byte-identical plans across workers and runs"):
        corpus = plan_battery["corpus"]
        query = plan_battery["query"]
        cfg = PipelineConfig(selection=SelectionConfig(k=6, layers=4), seed=SYNTH_SEED)
        texts = set()
        for workers in (1, 8):
            for _ in range(3):
                plan, _ = run_pipeline(
                    corpus, query, dataclasses.replace(cfg, workers=workers)
                )
                texts.add(plan.to_json())
        assert len(texts) == 1


def test_criterion_10_metric_definitions_without_benchmark_claims():
    with criterion(10, "metric definitions (benchmark-scale numbers out of scope)"):
        # Set metrics.
        perfect = set_metrics({"a", "b"}, {"a", "b"})
        assert (perfect.precision, perfect.recall, perfect.f1, perfect.jaccard) == (
            1.0, 1.0, 1.0, 1.0,
        )
        disjoint = set_metrics({"a"}, {"b"})
        assert (disjoint.precision, disjoint.recall, disjoint.f1, disjoint.jaccard) == (
            0.0, 0.0, 0.0, 0.0,
        )
        partial = set_metrics({"a", "b", "c"}, {"b", "c", "d"})
        assert partial.f1 == pytest.approx(2 / 3)
        assert partial.jaccard == pytest.approx(0.5)

        # Edit distance.
        assert normalized_edit_distance("kitten", "sitting") == pytest.approx(3 / 7)
        assert normalized_edit_distance("", "ab") == 1.0
        assert normalized_edit_distance("x", "x") == 0.0

        # Ranking overlap; published real-model overlap values need a real
        # model, so only the definition is checked here.
        assert topk_overlap_jaccard([3.0, 2.0, 1.0], [3.0, 2.0, 1.0], 0.34) == 1.0
        a = [float(i) for i in range(10)]
        assert topk_overlap_jaccard(a, list(reversed(a)), 0.2) == 0.0
        print(
            "NOTE: benchmark accuracy/F1/latency tables require full LLM "
            "inference over external datasets and are intentionally not "
            "reproduced at desk scale.",
            flush=True,
        )
