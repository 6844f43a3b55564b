"""Floating-point integration of Lie-Poisson flows as a conservation check.

The vector field of a Hamiltonian H has exact components {H, x_k}, computed
once in rational arithmetic; `integrate` runs the classical Runge-Kutta loop
compiled to Python source (_compile_flow), with the floats of term-by-term
evaluation.  The maximal drift of each monitor from its initial value is
reported; centrality certificates should give drifts at the integrator's
accuracy floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .algebra import ConfigurationError, LieAlgebra
from .poly import Polynomial, hamiltonian_field, unpack


class FlowDivergenceError(RuntimeError):
    """The numerical state left the finite range."""

    def __init__(self, time: float) -> None:
        super().__init__(f"non-finite state at t = {time:.6g}; aborting")
        self.time = time


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
            raise ConfigurationError("time horizon and step must be positive and finite")
        if not math.isfinite(self.t_final / self.dt):
            raise ConfigurationError("time horizon / step must be a finite number of steps")
        if len(self.x0) != self.algebra.dim:
            raise ConfigurationError("initial point has the wrong dimension")
        if not all(math.isfinite(v) for v in self.x0):
            raise ConfigurationError("initial point is not finite")


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
            "t_final": self.times[-1],
            "monitors": self.monitor_labels,
            "drifts": {k: self.drifts[k] for k in sorted(self.drifts)},
            "final_state": self.final_state,
        }


def _poly_lines(target: str, poly: Polynomial, args: Sequence[str]) -> list[str]:
    # one statement per term: CPython's compiler recurses on a long `+` chain.
    # Terms go in canonical order; int true division rounds num / den
    # correctly, so it is the float of the rational coefficient.
    lines = [f"{target} = 0.0"]
    for key in sorted(poly.num, reverse=True):
        factors = [repr(poly.num[key] / poly.den)]
        factors += [args[v] if e == 1 else f"{args[v]}**{e}"
                    for v, e in unpack(key, poly.dim)]
        lines.append(f"{target} += {'*'.join(factors)}")
    return lines


def _compile_flow(
    field_polys: Sequence[Polynomial], monitor_polys: Sequence[Polynomial], dt: float
) -> Callable:
    """`run(x, steps, stride, record)`, the whole RK4 loop, from float reprs,
    integer indices and fixed names only.  Step i = 0 is the state x; every
    later step applies the same float operations, in the same order, as
    term-by-term evaluation (x**1 is x exactly): k = f(x), f at
    x + (0.5*dt)*k twice and at x + dt*k, then x + dt/6.0*(a + 2b + 2c + d).
    Each step then evaluates the monitors once; step 0's values are the
    initial ones.  `run` returns the monitors' drifts from them, or the first
    step whose values overflow or are not finite: their running sum is tested
    first, and each value only when it is not finite, as finite values can
    sum to inf."""
    dt, n, join = float(dt), len(field_polys), ", ".join
    xs, ys = [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)]
    ms, inits, drifts = ([f"{p}{j}" for j in range(len(monitor_polys))] for p in "miD")

    def stage(k: str, args: list[str]) -> list[str]:
        return [line for i, comp in enumerate(field_polys)
                for line in _poly_lines(f"{k}{i}", comp, args)]

    def shift(k: str, scale: float) -> list[str]:
        return [f"y{i} = x{i} + {scale!r}*{k}{i}" for i in range(n)]

    update = [
        *stage("a", xs), *shift("a", 0.5 * dt), *stage("b", ys),
        *shift("b", 0.5 * dt), *stage("c", ys), *shift("c", dt), *stage("d", ys),
        *(f"x{i} = x{i} + {dt / 6.0!r}*(a{i} + 2.0*b{i} + 2.0*c{i} + d{i})"
          for i in range(n)),
    ]
    body = [
        "if i:", *(f"    {line}" for line in update),
        *(line for m, poly in zip(ms, monitor_polys) for line in _poly_lines(m, poly, xs)),
        "s = 0.0", *(f"s += {v}" for v in xs + ms),
        f"if not isfinite(s) and not all(map(isfinite, [{join(xs + ms)}])): return i",
        f"if not i: [{join(inits)}] = [{join(ms)}]",
        *(line for m, i0, d in zip(ms, inits, drifts)
          for line in (f"d = abs({m} - {i0})", f"if d > {d}: {d} = d")),
        f"if i % stride == 0 or i == steps: record(i, [{join(xs)}], [{join(ms)}])",
    ]
    lines = [
        "def run(x, steps, stride, record):",
        f"    [{join(xs)}] = x",
        f"    [{join(drifts)}] = [0.0] * {len(drifts)}",
        "    try:",
        "        for i in range(steps + 1):",
        *(f"            {line}" for line in body),
        "    except OverflowError:",
        "        return i",
        f"    return [{join(drifts)}]",
    ]
    namespace: dict = {"isfinite": math.isfinite}
    exec(compile("\n".join(lines), "<poischain.flow>", "exec"), namespace)
    return namespace["run"]


def integrate(problem: FlowProblem) -> FlowResult:
    """Classical fixed-step fourth-order Runge-Kutta with drift tracking.

    Drift of each monitored quantity (the Hamiltonian is always monitored
    under the label "H") is the maximum over all steps of the distance from
    its initial value; the trajectory itself is recorded at step 0, every
    max(1, steps // 1000) steps and at the last step, about 2,000 points at
    most.
    """
    field_polys = hamiltonian_field(problem.hamiltonian, problem.algebra)
    monitors = [("H", problem.hamiltonian)] + list(problem.monitors)
    labels = [name for name, _ in monitors]
    run = _compile_flow(field_polys, [p for _, p in monitors], problem.dt)

    steps = max(1, round(problem.t_final / problem.dt))

    times: list[float] = []
    states: list[list[float]] = []
    values: list[list[float]] = []

    def record(i: int, state: list[float], current: list[float]) -> None:
        times.append(i * problem.dt)
        states.append(state)
        values.append(current)

    drifts = run([float(v) for v in problem.x0], steps, max(1, steps // 1000), record)
    if isinstance(drifts, int):
        raise FlowDivergenceError(drifts * problem.dt)
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
