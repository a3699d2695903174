"""Pipeline benchmark for structkv: corpus directory to plan.json, timed.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh child processes (``perfbench/workload.py``)
with one BLAS thread. Timings are reported at a fixed reference speed of
the host, sampled while the plans run (``perfbench/reference.py``), beside
the figures as measured. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from a traced run plus the tracing
overhead against an untraced run of the same plans. Every metric is
printed with its unit and direction; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only if every check passed. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Workload processes get one BLAS thread each; see README.md for the
# bimodal per-process slowdown measured with OpenBLAS's default pool.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# stdlib_cold plans each corpus once per process and its median plan is one
# short (0.2 s) plan, so a slow stretch of the host moves it by 30%. Its
# corpora are planned in this many fresh processes, the later ones in label
# order, and each plan's time is its mean over them.
PROCESSES = {"stdlib_cold": 2}
SETUP_SAMPLES = 5
WORKLOAD_DEADLINE_S = 170
GAIN_CAPACITIES = ("0.2", "0.4", "0.6")  # inputs.SWEEP_CAPACITIES
# Printed beside the BENCHMARK.json metrics: name -> (unit, better).
EXTRA_METRICS = {
    "plans": ("count", "higher"),
    "failed_ratio": ("ratio", "lower"),
    "plan_s_measured.p50": ("s", "lower"),
    "setup_s_measured": ("s", "lower"),
    "host_speed": ("ratio", "higher"),
    **{f"structure_gain.c{c}": ("score", "higher") for c in GAIN_CAPACITIES},
}


class ChildFailed(RuntimeError):
    pass


def child(name: str, mode: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one workload process and return the JSON it printed."""
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [
        sys.executable, "-m", "perfbench.workload",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name} ({mode}) ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name} ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def plan_seconds(results: list[dict], key: str = "corrected_s") -> list[float]:
    """Each of the first process's plans' mean time over the processes,
    which planned the same jobs, perhaps in another order.

    ``key`` is ``corrected_s`` (seconds at reference speed) or ``seconds``
    (as measured)."""
    times: dict[str, list[float]] = {}
    for r in results:
        for p in r["plans"]:
            if p["ok"]:
                times.setdefault(p["label"], []).append(p[key])
    return [statistics.fmean(times[p["label"]]) if p["ok"] else p[key]
            for p in results[0]["plans"]]


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(results: list[dict], setups: list[dict]) -> dict[str, float]:
    """Timings are at reference speed (reference.py); the ``_measured``
    extras and ``host_speed`` show the raw figures they came from."""
    res = results[0]
    plans = res["plans"]
    ok = [p for p in plans if p["ok"]]
    times = [t for t, p in zip(plan_seconds(results), plans) if p["ok"]]
    measured = [t for t, p in zip(plan_seconds(results, "seconds"), plans) if p["ok"]]
    scored = [p["structure_score"] for p in plans[: res["score_plans"]] if p["ok"]]
    seconds = sum(times)
    m = {
        "setup_s": statistics.median(s["setup_corrected_s"] for s in setups),
        "plan_s.p50": median_or_nan(times),
        "tokens_per_s": sum(p["tokens"] for p in ok) / seconds if seconds else float("nan"),
        # The last process: on stdlib_cold the one that plans the corpora
        # in label order, so that the peak does not depend on the seed's order.
        "peak_rss_mb": results[-1]["peak_rss_mb"],
        "structure_score": statistics.fmean(scored) if scored else float("nan"),
        "plans": len(ok),
        "failed_ratio": (len(plans) - len(ok)) / len(plans),
        "plan_s_measured.p50": median_or_nan(measured),
        "setup_s_measured": statistics.median(s["setup_s"] for s in setups),
        "host_speed": median_or_nan([p["speed"] for r in results for p in r["plans"]]),
    }
    for cap, row in res.get("quality", {}).get("table", {}).items():
        m[f"structure_gain.{cap}"] = row["gain"]
    return m


def problems(res: dict) -> list[str]:
    """Check failures in one child result: any of them fails the command."""
    out = [f"{p['label']}: {v}" for p in res["plans"] for v in p.get("violations", [])]
    out += res.get("checks", {}).get("mismatches", [])
    out += res.get("quality", {}).get("violations", [])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    if not trace:
        processes = PROCESSES.get(name, 1)
        child(name, "setup", seed, seconds, deadline)  # warm-up: compiles bytecode
        setups = [child(name, "setup", seed, seconds, deadline)
                  for _ in range(SETUP_SAMPLES - processes)]
        res = child(name, "run", seed, seconds, deadline)
        results = [res] + [child(name, "sorted", seed, seconds, deadline)
                           for _ in range(processes - 1)]
        metrics = end_to_end(results, setups + results)
        flags: list[str] = []
    else:
        base = child(name, "baseline", seed, seconds, deadline)
        res = child(name, "trace", seed, seconds, deadline)
        results = [base, res]
        metrics = dict(res["trace"]["metrics"])
        metrics["trace.overhead_share"] = overhead(base["plans"], res["plans"])
        flags = res["trace"]["flags"]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "flags": flags,
        "problems": [p for r in results for p in problems(r)],
        "attempted": sum(len(r["plans"]) for r in results),
        "failed": sum(not p["ok"] for r in results for p in r["plans"]),
        "errors": sorted({p["error"] for r in results for p in r["plans"] if not p["ok"]}),
        "env": {**res["env"], "git_commit": git_commit()},
        "corpora": res["corpora"],
        "checks": res.get("checks", {}),
        "quality": res.get("quality"),
        "trace_file": res.get("trace", {}).get("file"),
        "children": results,
    }


def overhead(base: list[dict], traced: list[dict]) -> float:
    """Traced over untraced plan time at reference speed, on the plans
    both runs made."""
    pairs = [(b["corrected_s"], t["corrected_s"])
             for b, t in zip(base, traced) if b["ok"] and t["ok"]]
    untraced = sum(b for b, _ in pairs)
    return sum(t for _, t in pairs) / untraced - 1.0 if untraced else float("nan")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def spec_table(spec: dict, trace: bool) -> dict[str, tuple[str, str]]:
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    table = {m["name"]: (m["unit"], m["better"]) for m in rows}
    return table if trace else {**table, **EXTRA_METRICS}


def print_report(run: dict, table: dict[str, tuple[str, str]]) -> None:
    verdict = "ok" if not run["problems"] else "FAILED"
    print(
        f"== {run['workload']}  seed={run['seed']}  trace={int(run['trace'])}  "
        f"attempted={run['attempted']}  failed={run['failed']} {run['errors'] or ''}  "
        f"checks={verdict}"
    )
    for name, (unit, better) in table.items():
        if name not in run["metrics"]:
            continue
        value = run["metrics"][name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s}  {unit:8s} {better} is better")
    for flag in run["flags"]:
        print(f"  ABSENT {flag}")
    for problem in run["problems"][:20]:
        print(f"  CHECK FAILED {problem}")
    print("  env " + json.dumps(run["env"], sort_keys=True))


def contract_metrics(run: dict, table: dict[str, tuple[str, str]], prefix: str = "") -> dict:
    out = {}
    for name, (unit, _) in table.items():
        if name in EXTRA_METRICS:
            continue
        value = run["metrics"].get(name)
        entry = {"value": value, "unit": unit}
        if value is None:
            entry["absent"] = True
        out[prefix + name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "structkv" / "__init__.py").is_file():
        print("perfbench: no program at src/structkv; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    selected = names if args.workload == "all" else [args.workload]
    table = spec_table(spec, bool(args.trace))
    runs = []
    for name in selected:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        runs.append(run)
        print_report(run, table)
        save(run)

    prefix = (lambda r: f"{r['workload']}.") if len(runs) > 1 else (lambda r: "")
    metrics = {}
    for run in runs:
        metrics.update(contract_metrics(run, table, prefix(run)))
    correct = not any(run["problems"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def save(run: dict) -> None:
    path = OUT / "results" / f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
