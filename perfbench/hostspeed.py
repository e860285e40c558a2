"""Host speed, sampled while a workload runs, so that times can be given at a
fixed reference speed.

On a shared host the same process can run 1.5-2x slower for stretches of
seconds to minutes, when other tenants load the physical core (the lost time
is CPU time, not steal).  A Sampler runs a fixed reference kernel from a
SIGALRM handler every INTERVAL_S of wall time, between the workload's own
bytecodes, so the kernel meets the same contention as the workload, in the
same proportion of the time.  Then

    reference seconds = (wall - sampler seconds) * REF_KERNEL_S / mean kernel seconds

The kernel uses numpy and plain Python only, no memlens code, so a change to
memlens moves the workload's time and not the kernel's.  It mixes the three
kinds of work memlens does: d=10 matrix-vector steps, Python calls and
attribute access, and vector operations over a few hundred entries.  The
correction is not exact: the kernel slows down somewhat more than memlens
does, so a fast host reads a few per cent higher than a slow one.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# The kernel's fastest time, out of 20,000 calls, on the host the baseline
# was measured on (an Intel Xeon vCPU at 2.1 GHz, Python 3.11, numpy 2.4):
# a reference second is a second of that host at its least contended.
# Changing the kernel or this constant changes every reported time, so
# compare only runs of the same benchmark code.
REF_KERNEL_S = 2.7e-4

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((10, 10)) / 10.0
_x = _rng.standard_normal(10)
_u = _rng.standard_normal(500)
_w = _rng.standard_normal(500)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _combine(p, q):
    return _Pair(p.a + q.b, p.b * 0.5)


def _matvec() -> float:
    v, s = _x, 0.0
    for _ in range(30):
        g = _A @ v
        v = v - 1e-3 * g
        s = float(np.dot(v, v))
    return s


def _objects() -> float:
    p, seen = _Pair(1.0, 2.0), {}
    for i in range(120):
        p = _combine(p, p)
        seen[i & 7] = p.a
    return p.a


def _vectors() -> float:
    s = 0.0
    for _ in range(10):
        c = np.cumsum(_u * _w)
        s += float(c[-1]) + float(np.exp(-np.abs(_u)).sum())
    return s


def kernel() -> float:
    return _matvec() + _objects() + _vectors()


class Sampler:
    """Runs kernel() every INTERVAL_S of wall time between start() and stop()."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.seconds += time.perf_counter() - t0
        self.calls += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_seconds(wall: float, sampler_s: float, calls: int) -> float:
    """Wall time of a sampled process at the reference speed."""
    return (wall - sampler_s) * REF_KERNEL_S * calls / sampler_s


def slowdown(sampler_s: float, calls: int) -> float:
    """How many times slower than the reference the host ran (1.0: as fast)."""
    return sampler_s / calls / REF_KERNEL_S
