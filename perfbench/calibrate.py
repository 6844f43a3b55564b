"""How fast the machine runs now, measured while the jobs run.

The shared host this benchmark was written on switches between a fast and a
slow state (about 1.7x apart) every few seconds (other tenants' load), and
process CPU time moves with wall time, so neither can tell a slower program
from a slower machine.  The worker therefore runs a ``SpeedMeter``: a timer
signal runs a small fixed computation (``probe``) every ``INTERVAL_S`` of
wall time, inside the jobs, and records how long it took.  Each job's own
seconds (its wall seconds minus the probes' seconds) are scaled by the mean of
``REFERENCE_S / probe seconds`` over the probes taken during the job, or the
last ``WINDOW`` probes when the job was too short to get that many.  The
result reads as seconds on the reference machine at a typical speed.  Set-up
seconds are scaled by ``WINDOW`` probes run right after set-up.  In traced
passes the probes' seconds also fall into the spans they interrupt.

The probe does the kind of work poischain does (a sparse product of
dictionaries keyed by monomial objects with Fraction coefficients, and
Fraction row reduction).  It does not use poischain and must not change: a
change here changes every scaled figure.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Seconds of probe() on a 2-vCPU Xeon VM (Python 3.11) at a typical speed;
# scaled figures read as seconds on that machine when the probe takes this.
REFERENCE_S = 0.002
INTERVAL_S = 0.05
WINDOW = 8


class _Mono:
    __slots__ = ("exps", "_hash")

    def __init__(self, exps: tuple[int, ...]):
        self.exps = exps
        self._hash = hash(exps)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.exps == other.exps

    def __mul__(self, other: "_Mono") -> "_Mono":
        return _Mono(tuple(a + b for a, b in zip(self.exps, other.exps)))


def _poly(seed: int, terms: int, dim: int) -> dict:
    out = {}
    x = seed
    for _ in range(terms):
        exps = []
        for _ in range(dim):
            x = (x * 1103515245 + 12345) % 2147483648
            exps.append(x % 3)
        out[_Mono(tuple(exps))] = Fraction(x % 17 - 8, 1 + x % 5)
    return out


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    zero = Fraction(0)
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 * m2
            out[m] = out.get(m, zero) + c1 * c2
    return out


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def probe() -> float:
    """Seconds one run of the fixed reference computation takes now."""
    start = time.perf_counter()
    prod = _product(_poly(1, 12, 8), _poly(2, 12, 8))
    coeffs = list(prod.values())
    _rank([[coeffs[(7 * i + 3 * j) % len(coeffs)] for j in range(7)] for i in range(6)])
    return time.perf_counter() - start


class SpeedMeter:
    """Probe samples, as (start, seconds), taken from a timer signal."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        # With the collector off, the probe's short-lived objects cannot set
        # off a collection inside a job and so move its peak memory.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.samples.append((start, probe()))
        if collecting:
            gc.enable()

    def start(self) -> float:
        """Fill the window and start the timer; the scale factor right now."""
        for _ in range(WINDOW):  # the interpreter specialises the probe's code
            probe()
        self.samples += [(time.perf_counter(), probe()) for _ in range(WINDOW)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self._scale([])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int, start: float, end: float) -> tuple[float, float]:
        """Own seconds and reference seconds of the interval [start, end).

        A probe runs between two bytecodes, so it lies wholly inside the
        interval or wholly outside it.
        """
        inside = [dt for t, dt in self.samples[mark:] if start <= t < end]
        own = end - start - sum(inside)
        return own, own * self._scale(inside)

    def _scale(self, inside: list[float]) -> float:
        window = inside if len(inside) >= WINDOW else [
            dt for _, dt in self.samples[-WINDOW:]]
        return sum(REFERENCE_S / dt for dt in window) / len(window)
