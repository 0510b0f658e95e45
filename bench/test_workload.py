"""The speed pieces sampled inside a run's operations.

Run with: python3 -m pytest bench/test_workload.py
"""

import signal
import time

import pytest

import workload


def test_speed_pieces_run_inside_a_timed_block_and_are_not_counted():
    speed = workload.Speed()
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with speed.sampling() as op:
        time.sleep(0.6)     # ticks at 0.25 s and 0.5 s
    wall = time.perf_counter() - t0
    assert len(speed.times) == 2
    assert op.seconds == pytest.approx(wall - sum(speed.times), abs=1e-3)
    assert speed.slowdown() == pytest.approx(
        sum(speed.times) / 2 / workload.REF_PIECE_S)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
