"""The host-speed sampler behind the timings at reference speed."""

import subprocess
import sys
import time

import pytest

from perfbench import reference
from conftest import ROOT


def test_reference_tasks_do_not_load_the_program():
    code = "import sys, perfbench.reference as r; r.speed_now(3); print('structkv' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_samples_cycle_through_every_task_and_are_positive():
    speeds = [reference.sample(i) for i in range(2 * len(reference.TASKS))]
    assert all(s > 0 for s in speeds)


def test_speed_is_the_mean_of_samples():
    assert reference.speed([0.5, 1.0, 1.5]) == pytest.approx(1.0)


def test_between_takes_the_samples_inside_the_window():
    sampler = reference.Sampler()
    sampler.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    sampler.speeds = [10, 20, 30, 40, 50, 60, 70, 80]
    assert sampler.between(1.5, 6.5, least=3) == [20, 30, 40, 50, 60]


def test_between_widens_a_short_window_on_both_sides():
    sampler = reference.Sampler()
    sampler.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    sampler.speeds = [10, 20, 30, 40, 50, 60, 70, 80]
    assert sampler.between(4.5, 4.6, least=3) == [30, 40, 50, 60]
    assert sampler.between(0.1, 0.2, least=3) == [10, 20, 30]
    assert sampler.between(0.1, 0.2, least=20) == [10, 20, 30, 40, 50, 60, 70, 80]


def test_sampler_process_samples_until_stopped():
    with reference.Sampler() as sampler:
        t0 = time.perf_counter()
        time.sleep(8 * reference.PERIOD_S)
        t1 = time.perf_counter()
    assert len(sampler.speeds) == len(sampler.ends) >= 2
    assert all(s > 0 for s in sampler.speeds)
    assert sampler.ends == sorted(sampler.ends)
    assert t0 - reference.PERIOD_S < sampler.ends[0] and sampler.ends[-1] < t1 + 1.0
