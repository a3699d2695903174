"""Self time, wall-time accounting and absent layers in the tracer."""

import threading

import pytest

from perfbench import tracing
from perfbench.tracing import Span, Target, Tracer


def span(sid, name, start, end, parent, thread, attrs=None):
    return Span(sid, name, start, end, parent, thread, 0, attrs)


MAIN, W1, W2 = 1, 2, 3
# Main thread: root 0-10 holding a lexer span 1-4 (with a nested span 2-3)
# and a two-worker pool phase 5-9. Worker 1 runs spans 5-8; worker 2 runs
# 5-7 holding a child 6-7.
SPANS = [
    span(1, "pipeline.plan", 0.0, 10.0, None, MAIN),
    span(2, "lexer.tokenize", 1.0, 4.0, 1, MAIN),
    span(3, "scoring.query_symbols", 2.0, 3.0, 2, MAIN),
    span(4, "pipeline.pool", 5.0, 9.0, 1, MAIN, {"workers": 2}),
    span(5, "spans.build", 5.0, 8.0, 4, W1),
    span(6, "attention.importance", 5.0, 7.0, 4, W2),
    span(7, "attention.select", 6.0, 7.0, 6, W2),
]


def test_self_time_counts_only_children_on_the_same_thread():
    own = tracing.self_times(SPANS)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 3.0, 6: 1.0, 7: 1.0}


def test_self_time_merges_overlapping_children():
    spans = [
        span(1, "pipeline.plan", 0.0, 10.0, None, MAIN),
        span(2, "lexer.tokenize", 1.0, 5.0, 1, MAIN),
        span(3, "lexer.tokenize", 4.0, 6.0, 1, MAIN),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(5.0)


def test_breakdown_adds_up_to_plan_wall_time():
    b = tracing.plan_breakdown(SPANS)
    # Pool-thread time is shared by the two workers: each layer gets half.
    assert b["metrics"] == {
        "lexer.s": 2.0,
        "scoring.s": 1.0,
        "spans.s": 1.5,
        "attention.importance.s": 0.5,
        "attention.select.s": 0.5,
    }
    assert b["glue_s"] == pytest.approx(3.0 + 4.0 - (3.0 + 2.0) / 2)
    assert sum(b["metrics"].values()) + b["glue_s"] == pytest.approx(b["wall_s"])
    assert b["pool_layer_s"] == pytest.approx(5.0)
    assert b["pool_capacity_s"] == pytest.approx(8.0)


def test_model_layer_time_gives_pool_the_preceding_layer():
    spans = [
        span(1, "attention.importance", 0.0, 1.0, None, W1, {"layer": 3}),
        span(2, "attention.importance", 0.0, 2.0, None, W2, {"layer": 5}),
        span(3, "attention.pool", 1.0, 1.5, None, W1),
        span(4, "attention.pool", 2.0, 2.25, None, W2),
    ]
    assert tracing.model_layer_seconds(spans) == {3: 1.5, 5: 2.25}


def test_spans_record_parent_and_thread_across_a_pool():
    tracer = Tracer()
    tracer.plan = 7

    def leaf(x):
        return x

    def pool(fn, items, workers):
        threads = [threading.Thread(target=fn, args=(i,)) for i in items]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    traced_leaf = tracer._wrapper(Target("spans.build", "m", "leaf"), leaf)
    traced_pool = tracer._wrapper(Target("pipeline.pool", "m", "_map", tracing._phase), pool)
    tracer.span("pipeline.plan", traced_pool, traced_leaf, [1, 2], 2)
    by_name = {}
    for s in tracer.records():
        by_name.setdefault(s.name, []).append(s)
    (root,), (phase,) = by_name["pipeline.plan"], by_name["pipeline.pool"]
    assert phase.parent == root.id and phase.attrs == {"workers": 2}
    leaves = by_name["spans.build"]
    assert [s.parent for s in leaves] == [phase.id, phase.id]
    assert all(s.thread != root.thread and s.plan == 7 for s in leaves)


def test_missing_wrap_target_reports_its_layer_absent_not_zero():
    tracer = Tracer()
    tracer.install(
        [Target("lexer.tokenize", "structkv.pipeline", "no_such_tokenize")]
    )
    tracer.uninstall()
    assert tracer.missing == [("lexer.tokenize", "structkv.pipeline:no_such_tokenize")]
    metrics, flags, _ = tracing.layer_metrics(
        SPANS, {0: {"chunks": 1, "protected": 1, "budget": 2, "bytes": 10}}, tracer.missing
    )
    assert metrics["lexer.s"] is None and metrics["lexer.tokens"] is None
    assert any(f.startswith("lexer: wrap target structkv.pipeline:no_such_tokenize") for f in flags)
    assert metrics["spans.s"] == 1.5


def test_install_and_uninstall_restore_the_program():
    from structkv import attention, pipeline

    before = (pipeline.tokenize, attention.MockAttentionBackend.__dict__["attention_window"])
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == []
    assert pipeline.tokenize is not before[0]
    tracer.uninstall()
    after = (pipeline.tokenize, attention.MockAttentionBackend.__dict__["attention_window"])
    assert after == before


def test_errors_are_recorded_and_a_failing_observer_never_breaks_the_call():
    tracer = Tracer()

    def boom():
        raise ValueError("program failed")

    def bad_observer(args, kwargs, result):
        return {"n": len(result)}

    with pytest.raises(ValueError):
        tracer._wrapper(Target("lexer.tokenize", "m", "boom"), boom)()
    wrapped = tracer._wrapper(Target("chunking.partition", "m", "f", bad_observer), lambda: 3)
    assert wrapped() == 3
    failed, observed = tracer.records()
    assert failed.name == "lexer.tokenize" and failed.attrs == {"error": True}
    assert observed.attrs is None
    assert "chunking.partition" in tracer.observe_errors
