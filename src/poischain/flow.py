"""Floating-point integration of Lie-Poisson flows as a conservation check.

The vector field of a Hamiltonian H has exact components {H, x_k}, computed
once in rational arithmetic.  `integrate` compiles Python source for one
straight-line classical Runge-Kutta step (four field stages and the update,
unrolled over the coordinates) and for H plus the monitored invariants, with
coefficients as float reprs: the floats are those of term-by-term evaluation.
The maximal drift of each monitor from its initial value is reported;
centrality certificates should give drifts at the integrator's accuracy floor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .algebra import LieAlgebra
from .poly import Polynomial, hamiltonian_field


class FlowDivergenceError(RuntimeError):
    """The numerical state left the finite range."""

    def __init__(self, time: float) -> None:
        super().__init__(f"non-finite state at t = {time:.6g}; aborting")
        self.time = time


def hamiltonian_vector_field(alg: LieAlgebra, h: Polynomial) -> list[Polynomial]:
    """Exact symbolic components of the flow: component k is {H, x_k}."""
    return hamiltonian_field(h, alg)


@dataclass
class FlowProblem:
    algebra: LieAlgebra
    hamiltonian: Polynomial
    x0: Sequence[float]
    t_final: float
    dt: float
    monitors: list[tuple[str, Polynomial]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (0 < self.dt < math.inf and 0 < self.t_final < math.inf):
            raise ValueError("time horizon and step must be positive and finite")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError("time horizon / step must be a finite number of steps")
        if len(self.x0) != self.algebra.dim:
            raise ValueError("initial point has the wrong dimension")
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError("initial point is not finite")


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


def _poly_lines(target: str, poly: Polynomial, args: Sequence[str]) -> list[str]:
    # one statement per term: CPython's compiler recurses on a long `+` chain
    lines = [f"    {target} = 0.0"]
    for mono, coeff in poly.sorted_terms():
        factors = [repr(float(coeff))]
        factors += [args[v] if e == 1 else f"{args[v]}**{e}" for v, e in mono.exps]
        lines.append(f"    {target} += {'*'.join(factors)}")
    return lines


def _compile_flow(
    field_polys: Sequence[Polynomial], monitor_polys: Sequence[Polynomial], dt: float
) -> tuple[Callable, Callable]:
    """`step(x0, ..)`, one RK4 step, and `monitors(x0, ..)`, from float reprs,
    integer indices and fixed names only.  Same float operations, in the same
    order, as term-by-term evaluation (x**1 is x exactly): k = f(x), f at
    x + (0.5*dt)*k twice and at x + dt*k, then x + dt/6.0*(a + 2b + 2c + d)."""
    dt, n = float(dt), len(field_polys)
    xs, ys = [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)]

    def stage(k: str, args: list[str]) -> list[str]:
        return [line for i, comp in enumerate(field_polys)
                for line in _poly_lines(f"{k}{i}", comp, args)]

    def shift(k: str, scale: float) -> list[str]:
        return [f"    y{i} = x{i} + {scale!r}*{k}{i}" for i in range(n)]

    update = ", ".join(f"x{i} + {dt / 6.0!r}*(a{i} + 2.0*b{i} + 2.0*c{i} + d{i})"
                       for i in range(n))
    lines = [
        f"def step({', '.join(xs)}):",
        *stage("a", xs), *shift("a", 0.5 * dt), *stage("b", ys),
        *shift("b", 0.5 * dt), *stage("c", ys), *shift("c", dt), *stage("d", ys),
        f"    return [{update}]",
        f"def monitors({', '.join(xs)}):",
    ]
    for j, poly in enumerate(monitor_polys):
        lines += _poly_lines(f"m{j}", poly, xs)
    lines.append(f"    return [{', '.join(f'm{j}' for j in range(len(monitor_polys)))}]")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<poischain.flow>", "exec"), namespace)
    return namespace["step"], namespace["monitors"]


def integrate(problem: FlowProblem, sample_stride: int | None = None) -> FlowResult:
    """Classical fixed-step fourth-order Runge-Kutta with drift tracking.

    Drift of each monitored quantity (the Hamiltonian is always monitored
    under the label "H") is the maximum over all steps of the distance from
    its initial value; the trajectory itself is recorded every
    `sample_stride` steps to keep outputs bounded.
    """
    field_polys = hamiltonian_vector_field(problem.algebra, problem.hamiltonian)
    monitors = [("H", problem.hamiltonian)] + list(problem.monitors)
    labels = [name for name, _ in monitors]
    step, evaluate = _compile_flow(field_polys, [p for _, p in monitors], problem.dt)

    steps = max(1, round(problem.t_final / problem.dt))
    if sample_stride is None:
        sample_stride = max(1, steps // 1000)

    def checked(t: float, move: Callable, *args) -> tuple[list[float], list[float]]:
        """The state move(*args) at time t and its monitor values, all finite."""
        try:
            x = move(*args)
            current = evaluate(*x)
        except OverflowError:
            raise FlowDivergenceError(t)
        if not (all(map(math.isfinite, x)) and all(map(math.isfinite, current))):
            raise FlowDivergenceError(t)
        return x, current

    x, initial = checked(0.0, list, map(float, problem.x0))
    drifts = [0.0] * len(monitors)
    times = [0.0]
    states = [x]
    values = [initial]
    for i in range(1, steps + 1):
        t = i * problem.dt
        x, current = checked(t, step, *x)
        for j, drift in enumerate(map(abs, map(operator.sub, current, initial))):
            if drift > drifts[j]:
                drifts[j] = drift
        if i % sample_stride == 0 or i == steps:
            times.append(t)
            states.append(x)
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
    fine = integrate(replace(problem, dt=problem.dt / 2.0))

    def pick(result: FlowResult) -> float:
        if monitor is not None:
            return result.drifts[monitor]
        return max(result.drifts.values(), default=0.0)

    d_coarse, d_fine = pick(coarse), pick(fine)
    if d_fine == 0.0:
        return math.inf
    return math.log(d_coarse / d_fine) / math.log(2.0)
