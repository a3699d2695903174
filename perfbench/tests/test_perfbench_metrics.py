"""Metric names are well formed and the benchmark's tables agree."""

import json
import re

from perfbench import run, tracing
from conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def all_names():
    yield from (m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])
    yield from run.EXTRA_METRICS


def test_every_metric_name_is_well_formed():
    bad = [n for n in all_names() if not NAME.fullmatch(n)]
    assert bad == []


def test_traced_run_reports_exactly_the_per_layer_metrics():
    metrics, _, _ = tracing.layer_metrics([], {})
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) | {"trace.overhead_share"} == declared


def test_plan_seconds_is_each_plans_mean_time():
    first = {"plans": [
        {"label": "a", "ok": True, "seconds": 3.0, "corrected_s": 1.5},
        {"label": "b", "ok": False, "seconds": 0.5, "corrected_s": 0.25},
        {"label": "c", "ok": True, "seconds": 1.0, "corrected_s": 0.5},
    ]}
    second = {"plans": [
        {"label": "a", "ok": True, "seconds": 2.0, "corrected_s": 1.0},
        {"label": "b", "ok": False, "seconds": 0.1, "corrected_s": 0.05},
        {"label": "c", "ok": True, "seconds": 4.0, "corrected_s": 2.0},
    ]}
    assert run.plan_seconds([first, second], "seconds") == [2.5, 0.5, 2.5]
    assert run.plan_seconds([first], "seconds") == [3.0, 0.5, 1.0]
    assert run.plan_seconds([first, second]) == [1.25, 0.25, 1.25]


def test_plan_seconds_matches_plans_by_label_across_orders():
    first = {"plans": [
        {"label": "a", "ok": True, "seconds": 3.0, "corrected_s": 3.0},
        {"label": "b", "ok": True, "seconds": 1.0, "corrected_s": 1.0},
    ]}
    reordered = {"plans": [
        {"label": "b", "ok": True, "seconds": 0.5, "corrected_s": 0.5},
        {"label": "a", "ok": True, "seconds": 4.0, "corrected_s": 4.0},
    ]}
    assert run.plan_seconds([first, reordered]) == [3.5, 0.75]
