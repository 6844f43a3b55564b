"""Floating-point integration of Lie-Poisson flows as a conservation check.

The vector field of a Hamiltonian H has exact components {H, x_k}, computed
once in rational arithmetic; `integrate` runs the classical Runge-Kutta loop
compiled to Python source (_compile_flow), with the floats of term-by-term
evaluation but no stages for zero field components.  The maximal drift of
each distinct monitor from its initial value, read off its running extrema,
is reported; centrality certificates should give drifts at the integrator's
accuracy floor.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .algebra import ConfigurationError, LieAlgebra, Record
from .poly import Polynomial, hamiltonian_field, unpack


class FlowDivergenceError(RuntimeError):
    """The numerical state left the finite range."""

    def __init__(self, time: float) -> None:
        super().__init__(f"non-finite state at t = {time:.6g}; aborting")
        self.time = time


# the most Runge-Kutta steps one integration takes: 6-7 s at sl(2) on a
# 2-vCPU Xeon VM (0.55-0.66 us per step), longer on larger algebras
STEP_BUDGET = 10**7


class FlowProblem(Record):
    """An initial-value problem, refused (ConfigurationError) unless t_final
    and dt are positive and finite, round(t_final / dt) steps are at most
    STEP_BUDGET, and x0 is a finite point of the algebra."""

    _fields = ("algebra", "hamiltonian", "x0", "t_final", "dt", "monitors")

    def __init__(
        self,
        algebra: LieAlgebra,
        hamiltonian: Polynomial,
        x0: Sequence[float],
        t_final: float,
        dt: float,
        monitors: list[tuple[str, Polynomial]] | None = None,
    ) -> None:
        if not (0 < dt < math.inf and 0 < t_final < math.inf):
            raise ConfigurationError("time horizon and step must be positive and finite")
        steps = t_final / dt
        if not math.isfinite(steps):
            raise ConfigurationError("time horizon / step must be a finite number of steps")
        if round(steps) > STEP_BUDGET:
            raise ConfigurationError(f"time horizon / step is {steps:.6g} steps, "
                                     f"above the step budget {STEP_BUDGET}")
        if len(x0) != algebra.dim:
            raise ConfigurationError("initial point has the wrong dimension")
        if not all(math.isfinite(v) for v in x0):
            raise ConfigurationError("initial point is not finite")
        self.algebra = algebra
        self.hamiltonian = hamiltonian
        self.x0 = x0
        self.t_final = t_final
        self.dt = dt
        self.monitors = [] if monitors is None else monitors


class FlowResult(Record):
    """monitor_values has one row per recorded time."""

    _fields = ("times", "states", "monitor_labels", "monitor_values", "drifts", "steps", "dt")

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


_CHUNK = 64  # terms per statement: CPython's compiler recurses on a long `+` chain


def _terms(poly: Polynomial, args: Sequence[str]) -> list[str]:
    # poly's terms in canonical order, each led by its sign as operator: with
    # c the float of the coefficient (int true division rounds num / den
    # correctly), `a + c*x` is exactly `a - |c|*x` for c < 0, signed zeros
    # included, and a factor 1.0 changes no product
    out = []
    for key in sorted(poly.num, reverse=True):
        c = poly.num[key] / poly.den
        factors = [args[v] if e == 1 else f"{args[v]}**{e}" for v, e in unpack(key, poly.dim)]
        if abs(c) != 1.0 or not factors:
            factors.insert(0, repr(abs(c)))
        out.append(f"{'-' if math.copysign(1.0, c) < 0 else '+'} {'*'.join(factors)}")
    return out


def _chained(target: str, start: str, terms: Sequence[str]) -> list[str]:
    # `target = start + t1 - t2 ...`, evaluated left to right, continued as
    # `target = target + ...` every _CHUNK terms
    lines = []
    for k in range(0, len(terms), _CHUNK):
        lines.append(f"{target} = {start} {' '.join(terms[k:k + _CHUNK])}")
        start = target
    return lines or [f"{target} = {start}"]


def _compile_flow(
    field_polys: Sequence[Polynomial], monitor_polys: Sequence[Polynomial], dt: float
) -> Callable:
    """`run(x, steps, stride, record)`, the whole RK4 loop, from float reprs,
    integer indices and fixed names only.  Step i = 0 is the state x; every
    later step applies the float operations of term-by-term evaluation
    (x**1 is x exactly): k = f(x), f at x + (0.5*dt)*k twice and at
    x + dt*k, then x + dt/6.0*(a + 2b + 2c + d), each polynomial one
    left-to-right sum from 0.0.  A zero field component gets no stages, as
    they all give x_k + 0.0.  Each step then evaluates each distinct monitor
    once; `run` returns the drifts max(H - I, I - L) from the initial value
    I and the running extrema H, L (the largest |m - I|, as rounded
    subtraction is monotone and sign-symmetric), or the first step whose
    values overflow or are not finite: their sum s is tested first (s - s
    is 0.0 only for finite s), and each value only when it is not, as
    finite values can sum to inf."""
    dt, n, join = float(dt), len(field_polys), ", ".join
    moving = [i for i, comp in enumerate(field_polys) if comp.num]
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" if field_polys[i].num else f"x{i}" for i in range(n)]
    slots: dict[Polynomial, int] = {}
    per_label = [slots.setdefault(p, len(slots)) for p in monitor_polys]
    ms, inits, highs, lows = ([f"{p}{j}" for j in range(len(slots))]
                              for p in ("m", "i", "hi", "lo"))

    def stage(k: str, args: list[str]) -> list[str]:
        return [line for i in moving
                for line in _chained(f"{k}{i}", "0.0", _terms(field_polys[i], args))]

    def shift(k: str, scale: float) -> list[str]:
        return [f"y{i} = x{i} + {scale!r}*{k}{i}" for i in moving]

    update = [
        *stage("a", xs), *(f"x{i} = x{i} + 0.0" for i in range(n) if not field_polys[i].num),
        *shift("a", 0.5 * dt), *stage("b", ys), *shift("b", 0.5 * dt), *stage("c", ys),
        *shift("c", dt), *stage("d", ys),
        *(f"x{i} = x{i} + {dt / 6.0!r}*(a{i} + 2.0*b{i} + 2.0*c{i} + d{i})" for i in moving),
    ]
    body = [
        "if i:", *(f"    {line}" for line in update),
        *(line for m, poly in zip(ms, slots) for line in _chained(m, "0.0", _terms(poly, xs))),
        *_chained("s", xs[0], [f"+ {v}" for v in xs[1:] + ms]),
        f"if s - s and not all(map(isfinite, [{join(xs + ms)}])): return i",
        f"if not i: [{join(inits + highs + lows)}] = [{join(ms * 3)}]",
        *(line for m, hi, lo in zip(ms, highs, lows)
          for line in (f"if {m} > {hi}: {hi} = {m}", f"if {m} < {lo}: {lo} = {m}")),
        "if i == nxt:",
        "    nxt = min(nxt + stride, steps)",
        f"    record(i, [{join(xs)}], [{join(ms[j] for j in per_label)}])",
    ]
    drifts = [f"max({highs[j]} - {inits[j]}, {inits[j]} - {lows[j]})" for j in per_label]
    lines = [
        "def run(x, steps, stride, record):",
        f"    [{join(xs)}] = x",
        "    nxt = 0",
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
    most.  A monitor (or H) whose dimension is not the algebra's, or whose
    label repeats an earlier one (H's included), as the drifts are keyed by
    label, is a ConfigurationError, raised before anything is compiled.
    """
    monitors = [("H", problem.hamiltonian)] + list(problem.monitors)
    dim = problem.algebra.dim
    labels = [name for name, _ in monitors]
    for i, (name, poly) in enumerate(monitors):
        if labels.index(name) < i:
            raise ConfigurationError(f"monitor label {name!r} is used twice (H: the Hamiltonian)")
        if poly.dim != dim:
            raise ConfigurationError(
                f"monitor {name!r} has dimension {poly.dim}, the algebra {dim}")
    field_polys = hamiltonian_field(problem.hamiltonian, problem.algebra)
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
    fine = integrate(FlowProblem(problem.algebra, problem.hamiltonian, problem.x0,
                                 problem.t_final, problem.dt / 2.0, problem.monitors))

    def pick(result: FlowResult) -> float:
        if monitor is not None:
            return result.drifts[monitor]
        return max(result.drifts.values(), default=0.0)

    d_coarse, d_fine = pick(coarse), pick(fine)
    if d_fine == 0.0:
        return math.inf
    return math.log(d_coarse / d_fine) / math.log(2.0)
