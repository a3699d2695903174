"""One workload in a fresh process: set up, plan for a while, check, report.

``perfbench/run.py`` starts this as

    python3 -m perfbench.workload --workload NAME --seed N --seconds S \
        --mode {setup,run,baseline,sorted,trace} --spawned-at T

with ``src`` and the repository root on PYTHONPATH. ``setup`` reports the
set-up time and exits; ``run`` plans untraced and makes every check;
``baseline`` plans untraced and checks only the plan invariants;
``sorted`` does the same with the jobs in label order; ``trace`` does the
same as ``baseline`` with spans around the program's functions. Every mode
samples the host's speed meanwhile (``reference.py``). The result is one
JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import requests

from structkv import kernels, load_source, pipeline, tokenize
from structkv.chunking import partition_chunks
from structkv.plan import canonical_json

from perfbench import inputs, reference, tracing
from perfbench.checks import plan_violations

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MODES = ("setup", "run", "baseline", "sorted", "trace")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    args = p.parse_args(argv)

    # Set-up, from process start: the interpreter, the imports above
    # (structkv's, and a few milliseconds of the benchmark's own) and, on
    # asyncio_http, starting the stub server.
    stub = start_stub() if args.workload == "asyncio_http" else None
    setup_s = time.monotonic() - args.spawned_at
    try:
        speed = reference.speed_now()
        setup = {"setup_s": setup_s, "setup_speed": speed, "setup_corrected_s": setup_s * speed}
        if args.mode == "setup":
            result = setup
        else:
            result = {**measure(args, stub[1] if stub else None), **setup}
    finally:
        if stub:
            stop_stub(stub[0])
    print(json.dumps(result))
    return 0


def start_stub() -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.stub_server"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    if not line.strip().isdigit():
        stop_stub(proc)
        raise RuntimeError(f"stub server did not report a port: {line!r}")
    return proc, f"http://127.0.0.1:{int(line)}"


def stop_stub(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


# -- measuring ---------------------------------------------------------------


def measure(args: argparse.Namespace, url: str | None) -> dict:
    wl = inputs.build(args.workload, args.seed, url)
    out = OUT / "plans" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    if url:
        configure_stub(url, wl.config)

    if args.mode == "sorted":
        wl.jobs = iter(sorted(wl.jobs, key=lambda job: job.label))
    for _ in range(wl.warmup_plans):
        try:
            make_plan(next(wl.jobs), wl.config)
        except Exception:  # the timed plans count such failures
            pass
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()
    jobs, plans, facts = [], [], {}
    start, start_pc = time.monotonic(), time.perf_counter()
    try:
        with reference.Sampler() as sampler:
            for i, job in enumerate(wl.jobs):
                if wl.time_boxed and i >= wl.min_plans and time.monotonic() - start >= args.seconds:
                    break
                record, text = plan_once(i, job, wl.config, tracer, out)
                record["end"] = time.perf_counter()
                jobs.append(job)
                plans.append(record)
                if text is not None:
                    facts[i] = check_plan(text, record)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for record in plans:
        end = record["end"]
        samples = sampler.between(end - record["seconds"], end) or [reference.sample(0)]
        record["speed"] = reference.speed(samples)
        record["speed_samples"] = len(samples)
        record["corrected_s"] = record["seconds"] * record["speed"]
        record["end"] = end - start_pc

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "plans": plans,
        "peak_rss_mb": peak_rss_mb,
        "speeds": sampler.speeds,
        "speed_ends": [end - start_pc for end in sampler.ends],
        "score_plans": wl.min_plans,
        "env": environment(args.seed),
        "corpora": corpus_digests(jobs, plans),
    }
    if args.mode == "run":
        result["checks"] = cross_checks(wl, jobs, plans)
        if args.workload == "asyncio_deep":
            result["quality"] = quality_sweep(jobs, args.seed)
    if tracer:
        metrics, flags, detail = tracing.layer_metrics(
            tracer.records(), facts, tracer.missing, tracer.observe_errors
        )
        path = write_trace(args, tracer, flags, detail)
        result["trace"] = {"metrics": metrics, "flags": flags, "file": str(path)}
    return result


def configure_stub(url: str, cfg) -> None:
    """Tell the stub every chunk's length: the /attention request carries
    only chunk id and layer. Chunks are numbered across the corpus in file
    order, as run_pipeline numbers them."""
    lengths, next_id = {}, 0
    for f in pipeline.load_corpus(inputs.ASYNCIO):
        for chunk in partition_chunks(f, tokenize(f), cfg.chunking, start_id=next_id):
            lengths[chunk.id] = chunk.length
            next_id = chunk.id + 1
    doc = {"seed": cfg.seed, "window": cfg.attention.window, "dim": cfg.attention.dim,
           "lengths": lengths}
    requests.post(f"{url}/configure", json=doc, timeout=30).raise_for_status()


def make_plan(job: inputs.Job, cfg):
    # Through the module attributes, so that the traced run's wrappers apply.
    return pipeline.run_pipeline(pipeline.load_corpus(job.directory), job.query, cfg)


def plan_once(i, job, cfg, tracer, out: Path) -> tuple[dict, str | None]:
    """Plan one job from corpus to plan.json and report.json on disk."""
    scores: list[float] = []

    def timed() -> str:
        plan, report = make_plan(job, cfg)
        scores.append(report.structure_score)
        if tracer:
            return tracer.span(tracing.SERIALIZE, write_outputs, plan, report, out)
        return write_outputs(plan, report, out)

    record = {"label": job.label, "ok": True}
    t0 = time.perf_counter()
    try:
        if tracer:
            tracer.plan = i
            text = tracer.span(tracing.ROOT_SPAN, timed)
        else:
            text = timed()
    except Exception as exc:  # the program failed on this input: count it, go on
        record["seconds"] = time.perf_counter() - t0
        record.update(ok=False, error=type(exc).__name__, message=str(exc)[:300])
        record["traceback"] = traceback.format_exc(limit=-3)
        return record, None
    record["seconds"] = time.perf_counter() - t0
    record["structure_score"] = scores[0]
    return record, text


def write_outputs(plan, report, out: Path) -> str:
    text = plan.to_json()
    (out / "plan.json").write_text(text + "\n", encoding="utf-8")
    (out / "report.json").write_text(canonical_json(report.to_dict()) + "\n", encoding="utf-8")
    return text


def digests(doc: dict) -> tuple[str, str]:
    """sha256 of the canonical plan, and of it without config_fingerprint:
    the fingerprint hashes the backend settings, URL included, so a plan
    made over HTTP is compared with its mock twin without it."""
    full = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    rest = {k: v for k, v in doc.items() if k != "config_fingerprint"}
    return full, hashlib.sha256(canonical_json(rest).encode()).hexdigest()


def check_plan(text: str, record: dict) -> dict:
    """Check the written plan, record its digests, return its facts."""
    doc = json.loads(text)
    record["violations"] = plan_violations(doc)
    record["sha256"], record["sha256_sans_fingerprint"] = digests(doc)
    return {
        "chunks": len(doc["chunks"]),
        "protected": sum(len(c["protected"]) for c in doc["chunks"]),
        "budget": sum(c["budget"] for c in doc["chunks"]),
        "bytes": len(text.encode()),
    }


def cross_checks(wl: inputs.Workload, jobs: list, plans: list[dict]) -> dict:
    """Plans that must be byte-identical to a timed plan.

    asyncio_http: every plan (one worker) against its mock twin planned
    with two workers, which covers worker count and backend at once. The
    other workloads plan their first ``wl.swap_plans`` good plans (all of
    them on stdlib_cold) again with the other worker count.
    """
    out: dict = {"mismatches": []}
    if wl.name == "asyncio_http":
        twin = dataclasses.replace(inputs.mock_twin(wl.config), workers=2)
        for job, rec in zip(jobs, plans):
            if not rec["ok"]:
                continue
            _, sans = digests(make_plan(job, twin)[0].to_dict())
            if sans != rec["sha256_sans_fingerprint"]:
                out["mismatches"].append(f"{rec['label']}: HTTP plan differs from mock plan")
        out["http_equals_mock"] = sum(r["ok"] for r in plans)
        return out
    other = 1 if wl.config.workers > 1 else 2
    swapped = dataclasses.replace(wl.config, workers=other)
    good = [(job, rec) for job, rec in zip(jobs, plans) if rec["ok"]][: wl.swap_plans]
    for job, rec in good:
        full, _ = digests(make_plan(job, swapped)[0].to_dict())
        if full != rec["sha256"]:
            out["mismatches"].append(
                f"{rec['label']}: plan.json differs between workers="
                f"{wl.config.workers} and workers={other}"
            )
    out["workers_swap"] = {"workers": other, "plans": [rec["label"] for _, rec in good]}
    return out


def quality_sweep(jobs: list, seed: int) -> dict:
    """Structure score of structkv and of attention-only (spans off) at
    each capacity, averaged over the workload's first seeded queries."""
    queries = [job.query for job in jobs[: inputs.SWEEP_QUERIES]]
    corpus = pipeline.load_corpus(inputs.ASYNCIO)
    table, violations = {}, []
    for cap in inputs.SWEEP_CAPACITIES:
        row = {}
        for label, spans in (("structkv", True), ("attention_only", False)):
            scores = []
            for q in queries:
                cfg = inputs.sweep_config(seed, cap, spans)
                plan, report = pipeline.run_pipeline(corpus, q, cfg)
                violations += plan_violations(json.loads(plan.to_json()))
                scores.append(report.structure_score)
            row[label] = statistics.fmean(scores)
        row["gain"] = row["structkv"] - row["attention_only"]
        table[f"c{cap}"] = row
    return {"queries": queries, "k": 30, "layers": 4, "table": table, "violations": violations}


# -- environment and corpus digests -------------------------------------------


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "stdlib": str(inputs.STDLIB),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "numba": getattr(kernels, "HAS_NUMBA", False),
        "kernel_path": "numba" if getattr(kernels, "USE_NUMBA", False) else "numpy",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def source_digest() -> str:
    src = ROOT / "src" / "structkv"
    return inputs.content_digest(
        [(str(p.relative_to(src)), p.read_bytes()) for p in sorted(src.rglob("*.py"))]
    )


def corpus_digests(jobs: list, plans: list[dict]) -> list[dict]:
    """File count, content sha256 and token count of each distinct corpus.

    Token counts are the program's own lexer's, cached on disk by program
    source and corpus content, since lexing a corpus again costs a good
    part of planning it."""
    cache_file = OUT / "token_counts.json"
    cache = json.loads(cache_file.read_text()) if cache_file.is_file() else {}
    program = source_digest()
    seen: dict[str, dict] = {}
    for job, rec in zip(jobs, plans):
        paths = inputs.corpus_paths(job.directory)
        named = [(str(p.relative_to(job.directory)), p.read_bytes()) for p in paths]
        digest = inputs.content_digest(named)
        key = f"{program}:{digest}"
        if key not in cache and rec["ok"]:
            cache[key] = sum(len(tokenize(load_source(p))) for p in paths)
        seen.setdefault(digest, {
            "corpus": str(job.directory),
            "files": len(named),
            "tokens": cache.get(key),
            "sha256": digest,
        })
        rec["tokens"] = cache.get(key)
    tmp = cache_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, sort_keys=True))
    os.replace(tmp, cache_file)
    return list(seen.values())


def write_trace(args, tracer, flags, detail) -> Path:
    """Spans and per-plan accounting, written once the run is over."""
    path = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "fields": list(tracing.Span._fields),
        "spans": tracer.spans,
        "missing_targets": tracer.missing,
        "flags": flags,
        **detail,
    }
    path.write_text(json.dumps(doc))
    return path


if __name__ == "__main__":
    sys.exit(main())
