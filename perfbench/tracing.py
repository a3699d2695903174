"""Spans around the program's public functions, and per-layer metrics.

The traced run replaces the module-level names that ``run_pipeline`` calls
(and the backend methods it reaches) with wrappers that record one span per
call: name, start, end, parent, thread, plan id and a few counts read off
the arguments and result. Nothing inside the program changes, and
``uninstall`` puts every original back. Spans stay in memory until the run
ends.

A target that no longer exists, say after a rename, is reported, and the
metrics of its layer come out absent (None), never zero.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
from collections import defaultdict
from dataclasses import dataclass
from threading import get_ident
from time import perf_counter
from typing import Callable, NamedTuple
from urllib.parse import urlsplit


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    plan: int | None
    attrs: dict | None


Observe = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    span: str  # span name; its first dotted part names the layer
    module: str
    attr: str  # "func" or "Class.method"
    observe: Observe | None = None


def _tokens(args, kwargs, result):
    return {"tokens": len(result)}


def _chunks(args, kwargs, result):
    return {"chunks": len(result), "tokens": sum(c.length for c in result)}


def _diagnostics(args, kwargs, result):
    return {"diagnostics": len(result.diagnostics)}


def _graph(args, kwargs, result):
    critical: set[int] = set()
    for node in result.nodes:
        critical.update(range(*node.token_range))
    return {
        "nodes": len(result.nodes),
        "edges": len(result.edges),
        "critical": len(critical),
        "length": args[1].length,
    }


def _count(args, kwargs, result):
    return {"count": len(result)}


def _layer(args, kwargs, result):
    return {"layer": result.layer}


def _blocks(args, kwargs, result):
    window = args[0]
    w, d = window.q_block.shape
    return {"layer": window.layer, "w": w, "l": window.k_block.shape[0], "d": d}


def _post(args, kwargs, result):
    return {"path": urlsplit(args[0]).path, "status": result.status_code}


def _phase(args, kwargs, result):
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    return {"workers": workers if workers > 1 and len(args[1]) > 1 else 1}


TARGETS = (
    Target("pipeline.load_corpus", "structkv.pipeline", "load_corpus"),
    Target("pipeline.run", "structkv.pipeline", "run_pipeline"),
    Target("pipeline.pool", "structkv.pipeline", "_map", _phase),
    Target("lexer.tokenize", "structkv.pipeline", "tokenize", _tokens),
    Target("chunking.partition", "structkv.pipeline", "partition_chunks", _chunks),
    Target("scoring.score_chunk", "structkv.scoring", "score_chunk"),
    Target("scoring.backend", "structkv.scoring", "MockScorer.score"),
    Target("scoring.backend.http", "structkv.scoring", "HttpScorer.score"),
    Target("scoring.select_topk", "structkv.scoring", "select_topk"),
    Target("scoring.extract_features", "structkv.scoring", "extract_features"),
    Target("scoring.structural_score", "structkv.scoring", "structural_score"),
    Target("scoring.query_symbols", "structkv.scoring", "query_symbols"),
    Target("parsing.parse_subset", "structkv.pipeline", "parse_subset", _diagnostics),
    Target("cpg.builtin", "structkv.pipeline", "build_cpg", _graph),
    Target("cpg.external", "structkv.pipeline", "import_cpg_json", _graph),
    Target("spans.build", "structkv.spans", "build_spans", _count),
    Target("spans.budget", "structkv.spans", "span_budget"),
    Target("spans.select", "structkv.spans", "select_spans"),
    Target("spans.protect", "structkv.spans", "protect_tokens"),
    Target(
        "attention.window", "structkv.attention", "MockAttentionBackend.attention_window", _layer
    ),
    Target(
        "attention.window.http",
        "structkv.attention",
        "HttpAttentionBackend.attention_window",
        _layer,
    ),
    Target("attention.importance", "structkv.attention", "importance", _blocks),
    Target("attention.pool", "structkv.attention", "pool"),
    Target("attention.select", "structkv.attention", "select_tokens", _layer),
    Target("metrics.structure_score", "structkv.metrics", "structure_score"),
    Target("backend.post", "requests", "post", _post),
)

ROOT_SPAN = "pipeline.plan"  # the benchmark's own span around one timed plan
SERIALIZE = "plan.serialize"  # the benchmark's own span around writing the plan

# Span name -> metric its self time goes to. Names not listed are glue.
BUCKETS = {
    "pipeline.load_corpus": "pipeline.load_corpus.s",
    "lexer.tokenize": "lexer.s",
    "chunking.partition": "chunking.s",
    "parsing.parse_subset": "parsing.s",
    "metrics.structure_score": "metrics.s",
    SERIALIZE: "plan.serialize.s",
    "backend.post": "backend.post.s",
    "attention.window": "attention.window.s",
    "attention.window.http": "attention.window.s",
    "attention.importance": "attention.importance.s",
    "attention.pool": "attention.pool.s",
    "attention.select": "attention.select.s",
}
BUCKETS.update(
    (t.span, t.span.split(".")[0] + ".s")
    for t in TARGETS
    if t.span.startswith(("scoring.", "cpg.", "spans."))
)

# Layers every workload exercises: recording no span for one means its
# wrap target is no longer on the path run_pipeline takes.
MUST_CALL = ("lexer", "chunking", "scoring", "parsing", "cpg", "spans", "attention", "metrics")


def family(span_name: str) -> str:
    """The layer a span belongs to, as used for absence flags."""
    head = span_name.split(".")[0]
    return span_name if head == "pipeline" else head


# Per-layer metric -> the family whose spans it is computed from.
METRIC_FAMILY = {
    "pipeline.load_corpus.s": "pipeline.load_corpus",
    "pipeline.busy_share": "pipeline.pool",
    "pipeline.glue.s": None,
    "kernels.attention_mass.flops": "attention",
    "kernels.attention_mass.bytes": "attention",
    "plan.serialize.s": None,
    "plan.bytes": None,
    "spans.protected_share": None,
    "trace.plan_s": None,
    "trace.overhead_share": None,
}


def metric_family(metric: str) -> str | None:
    if metric in METRIC_FAMILY:
        return METRIC_FAMILY[metric]
    return metric.split(".")[0]


class Tracer:
    """Records spans from wrapped callables; thread-safe for the pipeline's
    worker pool (list.append and itertools.count are atomic in CPython)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # Span fields; see records()
        self.missing: list[tuple[str, str]] = []  # (span, "module:attr") not found
        self.observe_errors: dict[str, str] = {}
        self.plan: int | None = None
        self._phase: int | None = None  # open pool phase; parent of worker spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def record(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        observe: Observe | None = None,
        phase: bool = False,
    ):
        """Call ``fn(*args, **kwargs)`` and record its span. A ``phase``
        span (the worker pool) becomes the parent of spans that start on
        threads with no open span. Kept lean: it runs on every wrapped call."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self._phase
        stack.append(sid)
        if phase:
            outer, self._phase = self._phase, sid
        attrs = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            end = perf_counter()
            if observe is not None:
                attrs = self._observe(name, observe, args, kwargs, result)
            return result
        except BaseException:
            end = perf_counter()
            attrs = {"error": True}
            raise
        finally:
            stack.pop()
            if phase:
                self._phase = outer
            self.spans.append((sid, name, start, end, parent, get_ident(), self.plan, attrs))

    def _observe(self, name: str, observe: Observe, args, kwargs, result) -> dict | None:
        try:
            return observe(args, kwargs, result)
        except Exception as exc:  # a changed return type must not break the plan
            self.observe_errors[name] = repr(exc)
            return None

    def records(self) -> list[Span]:
        """The spans recorded so far (stored as plain tuples while tracing)."""
        return [Span._make(s) for s in self.spans]

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span recorded from the benchmark itself."""
        return self.record(name, fn, args, kwargs)

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            owner, attr = _resolve(target)
            if owner is None:
                self.missing.append((target.span, f"{target.module}:{target.attr}"))
                continue
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(target, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        record = self.record
        name, observe = target.span, target.observe
        phase = name == "pipeline.pool"

        def traced(*args, **kwargs):
            return record(name, original, args, kwargs, observe, phase)

        traced.__wrapped__ = original
        return traced


def _resolve(target: Target) -> tuple[object | None, str]:
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None, ""
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None, ""
    return owner, attr


# -- analysis -----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that child spans on the
    same thread cover. Children on other threads (pool workers) do not
    count against their parent."""
    by_id = {s.id: s for s in spans}
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            kids[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: (s.end - s.start) - _covered(kids.get(s.id, [])) for s in spans}


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def plan_breakdown(spans: list[Span]) -> dict:
    """Wall-time accounting of one plan's spans.

    The root span's thread is the plan thread. Self time on it goes to the
    span's metric (or to glue). Self time on a pool worker goes to its
    metric divided by the phase's worker count, so during a pool phase each
    layer gets its share of the phase's wall time and glue gets the rest
    (worker code outside layer spans, and idle workers). The metrics plus
    glue therefore add up to the plan's wall time.
    """
    root = next(s for s in spans if s.name == ROOT_SPAN)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    wall: dict[str, float] = defaultdict(float)  # wall-attributed seconds
    busy: dict[str, float] = defaultdict(float)  # thread seconds
    inside: dict[int, float] = defaultdict(float)  # pool phase -> worker layer time
    glue = 0.0

    def phase_of(s: Span) -> Span | None:
        p = by_id.get(s.parent)
        while p is not None and p.thread == s.thread:
            p = by_id.get(p.parent)
        return p

    for s in spans:
        bucket = BUCKETS.get(s.name)
        if bucket is not None:
            busy[bucket] += own[s.id]
        if s.thread == root.thread:
            if bucket is None:
                glue += own[s.id]
            else:
                wall[bucket] += own[s.id]
            continue
        phase = phase_of(s)
        workers = (phase.attrs or {}).get("workers", 1) if phase is not None else 1
        if bucket is None:
            glue += own[s.id] / workers
        else:
            wall[bucket] += own[s.id] / workers
        if phase is not None:
            inside[phase.id] += own[s.id]

    layer_time = capacity = 0.0
    for p in spans:
        if p.name != "pipeline.pool":
            continue
        workers = (p.attrs or {}).get("workers", 1)
        # The phase's own self time already sits in glue; hand the part its
        # workers spent in layer spans over to those layers.
        glue -= inside[p.id] / workers
        layer_time += (p.end - p.start - own[p.id]) + inside[p.id]
        capacity += (p.end - p.start) * workers
    return {
        "wall_s": root.end - root.start,
        "metrics": dict(wall),
        "thread_s": dict(busy),
        "glue_s": glue,
        "pool_layer_s": layer_time,
        "pool_capacity_s": capacity,
    }


def model_layer_seconds(spans: list[Span]) -> dict[int, float]:
    """Thread seconds of attention selection per model layer in one plan.

    ``pool`` carries no layer argument; it takes the layer of the
    ``importance`` call that preceded it on the same thread.
    """
    out: dict[int, float] = defaultdict(float)
    last: dict[int, int] = {}
    for s in spans:  # recorded in end order, so per-thread order holds
        if not s.name.startswith("attention."):
            continue
        layer = (s.attrs or {}).get("layer")
        if layer is None:
            layer = last.get(s.thread)
        else:
            last[s.thread] = layer
        if layer is not None:
            out[layer] += s.end - s.start
    return dict(out)


def layer_metrics(
    spans: list[Span],
    facts: dict[int, dict],
    missing: list[tuple[str, str]] = (),
    observe_errors: dict[str, str] | None = None,
) -> tuple[dict[str, float | None], list[str], dict]:
    """Per-layer metrics over the plans in ``facts`` (plan id -> facts the
    benchmark read off the written plan: selected chunks, protected tokens,
    budget, bytes). ``missing`` and ``observe_errors`` come from the
    Tracer. Returns (metrics, flags, detail for the trace file); a metric
    of a layer whose spans are missing or unreadable is None."""
    per_plan: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.plan in facts:
            per_plan[s.plan].append(s)
    n = max(1, len(per_plan))
    wall: dict[str, float] = defaultdict(float)
    thread: dict[str, float] = defaultdict(float)
    glue = plan_s = pool_layer = pool_capacity = 0.0
    layer_totals: dict[int, float] = defaultdict(float)
    breakdowns = {}
    for pid, plan_spans in per_plan.items():
        b = plan_breakdown(plan_spans)
        breakdowns[pid] = {"wall_s": b["wall_s"], "glue_s": b["glue_s"], **b["metrics"]}
        for k, v in b["metrics"].items():
            wall[k] += v
        for k, v in b["thread_s"].items():
            thread[k] += v
        glue += b["glue_s"]
        plan_s += b["wall_s"]
        pool_layer += b["pool_layer_s"]
        pool_capacity += b["pool_capacity_s"]
        per_layer = model_layer_seconds(plan_spans)
        breakdowns[pid]["attention_layer_s"] = per_layer
        for layer, v in per_layer.items():
            layer_totals[layer] += v

    counted = [s for s in spans if s.plan in facts]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in counted:
        by_name[s.name].append(s)

    def attr_sum(named: str | list[Span], key: str) -> int:
        group = by_name[named] if isinstance(named, str) else named
        return sum((s.attrs or {}).get(key, 0) for s in group)

    graphs = by_name["cpg.builtin"] + by_name["cpg.external"]
    chunks = attr_sum("chunking.partition", "chunks")
    selected = sum(f["chunks"] for f in facts.values())
    blocks = [s.attrs for s in by_name["attention.importance"] if s.attrs]
    flops = sum(2 * b["w"] * b["l"] * b["d"] + 7 * b["w"] * b["l"] for b in blocks)
    traffic = sum(
        8 * (b["w"] * b["d"] + b["l"] * b["d"] + 2 * b["w"] * b["l"] + b["l"]) for b in blocks
    )
    http_calls = by_name["scoring.backend.http"] + by_name["attention.window.http"]
    posts = by_name["backend.post"]
    post_by_parent: dict[int, float] = defaultdict(float)
    for p in posts:
        post_by_parent[p.parent] += p.end - p.start
    decode = sum(s.end - s.start - post_by_parent[s.id] for s in http_calls)
    per_layer_means = [v / n for _, v in sorted(layer_totals.items())]
    post_s = [p.end - p.start for p in posts]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float | None] = {
        "trace.plan_s": plan_s / n,
        "pipeline.load_corpus.s": wall["pipeline.load_corpus.s"] / n,
        "pipeline.glue.s": glue / n,
        "pipeline.busy_share": ratio(pool_layer, pool_capacity),
        "lexer.s": wall["lexer.s"] / n,
        "lexer.tokens": attr_sum("lexer.tokenize", "tokens") / n,
        "lexer.tokens_per_s": ratio(attr_sum("lexer.tokenize", "tokens"), thread["lexer.s"]),
        "chunking.s": wall["chunking.s"] / n,
        "chunking.chunks": chunks / n,
        "chunking.tokens_per_chunk": ratio(attr_sum("chunking.partition", "tokens"), chunks),
        "scoring.s": wall["scoring.s"] / n,
        "scoring.calls": len(by_name["scoring.score_chunk"]) / n,
        "parsing.s": wall["parsing.s"] / n,
        "parsing.diagnostics_per_chunk": ratio(
            attr_sum("parsing.parse_subset", "diagnostics"), len(by_name["parsing.parse_subset"])
        ),
        "cpg.s": wall["cpg.s"] / n,
        "cpg.nodes_per_chunk": ratio(attr_sum(graphs, "nodes"), len(graphs)),
        "cpg.edges_per_chunk": ratio(attr_sum(graphs, "edges"), len(graphs)),
        "cpg.critical_token_share": ratio(attr_sum(graphs, "critical"), attr_sum(graphs, "length")),
        "cpg.source.builtin": len(by_name["cpg.builtin"]) / n,
        "cpg.source.external": len(by_name["cpg.external"]) / n,
        "cpg.source.empty": (selected - len(graphs)) / n,
        "spans.s": wall["spans.s"] / n,
        "spans.candidates_per_chunk": ratio(
            attr_sum("spans.build", "count"), len(by_name["spans.build"])
        ),
        "spans.protected_share": ratio(
            sum(f["protected"] for f in facts.values()), sum(f["budget"] for f in facts.values())
        ),
        "attention.window.s": wall["attention.window.s"] / n,
        "attention.importance.s": wall["attention.importance.s"] / n,
        "attention.pool.s": wall["attention.pool.s"] / n,
        "attention.select.s": wall["attention.select.s"] / n,
        "attention.calls": len(by_name["attention.importance"]) / n,
        "attention.layer_s.p50": statistics.median(per_layer_means) if per_layer_means else 0.0,
        "attention.layer_s.max": max(per_layer_means, default=0.0),
        "kernels.attention_mass.flops": flops / n,
        "kernels.attention_mass.bytes": traffic / n,
        "metrics.s": wall["metrics.s"] / n,
        "plan.serialize.s": wall["plan.serialize.s"] / n,
        "plan.bytes": sum(f["bytes"] for f in facts.values()) / n,
        "backend.requests": len(posts) / n,
        "backend.retries": (len(posts) - len(http_calls)) / n,
        "backend.failed": sum(1 for s in http_calls if (s.attrs or {}).get("error")) / n,
        "backend.request_s.p50": _quantile(post_s, 0.5),
        "backend.request_s.p90": _quantile(post_s, 0.9),
        "backend.decode.s": decode / n,
        "backend.post.s": wall["backend.post.s"] / n,
    }

    absent: dict[str, str] = {}
    for span_name, where in missing:
        absent.setdefault(family(span_name), f"wrap target {where} not found")
    for span_name, err in sorted((observe_errors or {}).items()):
        absent.setdefault(family(span_name), f"cannot read {span_name} results: {err}")
    seen = {family(s.name) for s in counted}
    for fam in MUST_CALL:
        if fam not in seen:
            absent.setdefault(fam, f"no {fam} span recorded: its targets are off the plan path")
    for metric in m:
        if metric_family(metric) in absent:
            m[metric] = None
    flags = [f"{fam}: {why}" for fam, why in sorted(absent.items())]
    detail = {
        "plans": breakdowns,
        "attention_layer_s_mean": {str(k): v / n for k, v in sorted(layer_totals.items())},
    }
    return m, flags, detail

