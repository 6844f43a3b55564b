"""Floating-point integration of Lie-Poisson flows as a conservation check.

The vector field of a Hamiltonian H has exact symbolic components {H, x_k};
these are computed once in rational arithmetic, converted to float term
lists, and integrated with fixed-step classical Runge-Kutta.  Monitored
invariants (plus H itself) are evaluated along the trajectory and their
maximal drift from the initial value is reported — algebraic centrality
certificates should translate into drifts at the integrator's accuracy
floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .algebra import LieAlgebra
from .poly import Polynomial, hamiltonian_field

CompiledPoly = list[tuple[float, tuple[tuple[int, int], ...]]]


class FlowDivergenceError(RuntimeError):
    """The numerical state left the finite range."""

    def __init__(self, time: float) -> None:
        super().__init__(f"non-finite state at t = {time:.6g}; aborting")
        self.time = time


def hamiltonian_vector_field(alg: LieAlgebra, h: Polynomial) -> list[Polynomial]:
    """Exact symbolic components of the flow: component k is {H, x_k}."""
    return hamiltonian_field(h, alg)


def compile_polynomial(p: Polynomial) -> CompiledPoly:
    return [
        (float(coeff), mono.exps) for mono, coeff in p.sorted_terms()
    ]


def eval_compiled(terms: CompiledPoly, x: Sequence[float]) -> float:
    total = 0.0
    for coeff, exps in terms:
        v = coeff
        for var, e in exps:
            v *= x[var] ** e
        total += v
    return total


@dataclass
class FlowProblem:
    algebra: LieAlgebra
    hamiltonian: Polynomial
    x0: Sequence[float]
    t_final: float
    dt: float
    monitors: list[tuple[str, Polynomial]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("time horizon and step must be positive")
        if len(self.x0) != self.algebra.dim:
            raise ValueError("initial point has the wrong dimension")


@dataclass
class FlowResult:
    times: list[float]
    states: list[list[float]]
    monitor_labels: list[str]
    monitor_values: list[list[float]]  # one row per recorded time
    drifts: dict[str, float]
    steps: int
    dt: float

    @property
    def final_state(self) -> list[float]:
        return self.states[-1]

    def to_json(self) -> dict:
        return {
            "steps": self.steps,
            "dt": self.dt,
            "t_final": self.times[-1] if self.times else 0.0,
            "monitors": self.monitor_labels,
            "drifts": {k: self.drifts[k] for k in sorted(self.drifts)},
            "final_state": self.final_state,
        }


def _rk4_step(
    f: Callable[[Sequence[float]], list[float]], x: list[float], dt: float
) -> list[float]:
    k1 = f(x)
    k2 = f([xi + 0.5 * dt * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * dt * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + dt * ki for xi, ki in zip(x, k3)])
    return [
        xi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def integrate(problem: FlowProblem, sample_stride: int | None = None) -> FlowResult:
    """Classical fixed-step fourth-order Runge-Kutta with drift tracking.

    Drift of each monitored quantity (the Hamiltonian is always monitored
    under the label "H") is the maximum over all steps of the distance from
    its initial value; the trajectory itself is recorded every
    `sample_stride` steps to keep outputs bounded.
    """
    alg = problem.algebra
    field_polys = hamiltonian_vector_field(alg, problem.hamiltonian)
    compiled_field = [compile_polynomial(c) for c in field_polys]

    def f(x: Sequence[float]) -> list[float]:
        return [eval_compiled(c, x) for c in compiled_field]

    monitors = [("H", problem.hamiltonian)] + list(problem.monitors)
    labels = [name for name, _ in monitors]
    compiled_monitors = [compile_polynomial(p) for _, p in monitors]

    steps = max(1, round(problem.t_final / problem.dt))
    if sample_stride is None:
        sample_stride = max(1, steps // 1000)

    x = [float(v) for v in problem.x0]
    initial = [eval_compiled(c, x) for c in compiled_monitors]
    drifts = [0.0] * len(monitors)
    times = [0.0]
    states = [list(x)]
    values = [list(initial)]
    for i in range(1, steps + 1):
        t = i * problem.dt
        try:
            x = _rk4_step(f, x, problem.dt)
        except OverflowError:
            raise FlowDivergenceError(t)
        if not all(math.isfinite(v) for v in x):
            raise FlowDivergenceError(t)
        try:
            current = [eval_compiled(c, x) for c in compiled_monitors]
        except OverflowError:
            raise FlowDivergenceError(t)
        if not all(math.isfinite(v) for v in current):
            raise FlowDivergenceError(t)
        for j, (v, v0) in enumerate(zip(current, initial)):
            drifts[j] = max(drifts[j], abs(v - v0))
        if i % sample_stride == 0 or i == steps:
            times.append(t)
            states.append(list(x))
            values.append(current)
    return FlowResult(
        times=times,
        states=states,
        monitor_labels=labels,
        monitor_values=values,
        drifts=dict(zip(labels, drifts)),
        steps=steps,
        dt=problem.dt,
    )


def observed_order(problem: FlowProblem, monitor: str | None = None) -> float:
    """Convergence order estimate from one step halving.

    Integrates at the problem's step and at half of it, compares the chosen
    drift (largest one by default), and returns the implied order
    log(d_coarse/d_fine)/log(2).  Drifts at the rounding floor give +inf,
    which callers should treat as "better than measurable".
    """
    coarse = integrate(problem)
    fine_problem = FlowProblem(
        algebra=problem.algebra,
        hamiltonian=problem.hamiltonian,
        x0=problem.x0,
        t_final=problem.t_final,
        dt=problem.dt / 2.0,
        monitors=problem.monitors,
    )
    fine = integrate(fine_problem)

    def pick(result: FlowResult) -> float:
        if monitor is not None:
            return result.drifts[monitor]
        return max(result.drifts.values(), default=0.0)

    d_coarse, d_fine = pick(coarse), pick(fine)
    if d_fine == 0.0:
        return math.inf
    return math.log(d_coarse / d_fine) / math.log(2.0)
