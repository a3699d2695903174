"""Host speed, sampled while the program runs, to report times at a fixed
reference speed.

The host's cores switch between speed levels up to 1.8x apart that last
seconds, with no steal time, and CPU time slows with wall time (README.md,
Noise). A child process therefore times one of three fixed pure-Python
tasks, in turn, every ``PERIOD_S`` while plans run: an integer loop, Python's
own ``tokenize`` on a few lines, and building and reading a small
str-keyed dict. None calls the program, so a change to structkv cannot
change their length. A plan's time at reference speed is its measured
seconds x its mean speed over the samples taken meanwhile, a sample's
speed being its task's nominal time over its measured time.
"""

from __future__ import annotations

import bisect
import io
import json
import statistics
import subprocess
import sys
import sysconfig
import threading
import time
import tokenize
from pathlib import Path

PERIOD_S = 0.05
SETUP_SAMPLES = 21
_AST = Path(sysconfig.get_paths()["stdlib"]) / "ast.py"
_LINES = "".join(_AST.read_text(encoding="utf-8").splitlines(True)[:40])


def _loop() -> None:
    x = 0
    for i in range(10_000):
        x += i


def _tokenize() -> None:
    for _ in tokenize.generate_tokens(io.StringIO(_LINES).readline):
        pass


def _dict() -> None:
    d = {}
    for i in range(1500):
        d["k%d" % i] = i
    for k in d:
        d[k] += 1


# Each task's time at the host's quiet speed (2 vCPUs, Intel Xeon at
# 2100 MHz, Python 3.11.7); corrected times read as seconds at that speed.
TASKS = ((_loop, 0.00040), (_tokenize, 0.00025), (_dict, 0.00045))


def sample(i: int) -> float:
    """Speed from one timed run of task ``i % 3``."""
    task, nominal_s = TASKS[i % len(TASKS)]
    t0 = time.perf_counter()
    task()
    return nominal_s / (time.perf_counter() - t0)


def speed(samples: list[float]) -> float:
    """Mean over samples: a sample slowed by a preemption counts as one
    slow moment, not as a long one."""
    return statistics.fmean(samples)


def speed_now(n: int = SETUP_SAMPLES) -> float:
    for i in range(len(TASKS)):  # warm-up
        sample(i)
    return speed([sample(i) for i in range(n)])


class Sampler:
    """Samples the host's speed every ``PERIOD_S`` in a child process
    (``python3 -m perfbench.reference``) from entering to leaving, so that
    the sampling holds neither the program's GIL nor memory in its
    process. Both processes read the same clock: ``time.perf_counter`` is
    CLOCK_MONOTONIC on Linux.

    A sample takes under a millisecond of one core every 50 ms; that cost
    is the same for every version of the program, and the end-to-end
    numbers are taken with it running."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> Sampler:
        root = Path(__file__).resolve().parent.parent
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.reference"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root,
        )
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed sampler exited with {self._proc.returncode}")
        self.ends, self.speeds = json.loads(out)

    def between(self, t0: float, t1: float, least: int = 2 * len(TASKS)) -> list[float]:
        """Samples that ended within [t0, t1], widened on both sides to at
        least ``least`` samples for plans shorter than a few periods."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        while hi - lo < least and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(0, lo - 1), min(len(self.ends), hi + 1)
        return self.speeds[lo:hi]


def main() -> None:
    """Sample until stdin closes, then print ``[ends, speeds]``."""
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    ends: list[float] = []
    speeds: list[float] = []
    while not stop.wait(PERIOD_S):
        speeds.append(sample(len(speeds)))
        ends.append(time.perf_counter())
    print(json.dumps([ends, speeds]))


if __name__ == "__main__":
    main()
