"""RK4 coadjoint flows: vector fields, conservation drift, convergence order."""

import json
import math
from fractions import Fraction

import pytest

from poischain import (
    FlowDivergenceError,
    builtin_sl,
    cartan_subalgebra,
    generate,
    FlowProblem,
    Polynomial,
    hamiltonian_field,
    integrate,
    observed_order,
    parse_polynomial,
)
from poischain import flow
from poischain.cli import load_algebra
from poischain.flow import _compile_flow

from helpers import reference_integrate

F = Fraction


def sl2_problem(sl2, t_final=1.0, dt=1e-3, monitors=None):
    h = Polynomial.variable(0, 3)
    return FlowProblem(
        algebra=sl2,
        hamiltonian=h,
        x0=[1.0, 1.0, 1.0],
        t_final=t_final,
        dt=dt,
        monitors=monitors or [],
    )


def test_vector_field_sl2(sl2):
    h = Polynomial.variable(0, 3)
    field = hamiltonian_field(h, sl2)
    assert field[0].is_zero()
    assert field[1].render(sl2.labels) == "2*e12"
    assert field[2].render(sl2.labels) == "-2*e21"


def test_casimir_field_is_identically_zero(sl2, sl2_casimirs):
    field = hamiltonian_field(sl2_casimirs.gens.polys()[0], sl2)
    assert all(c.is_zero() for c in field)


def _generated_monitors(alg, polys):
    """The monitor values the generated driver records at step 0."""
    run = _compile_flow([Polynomial(alg.dim)] * alg.dim, polys, 0.1)

    def evaluate(*x):
        recorded = []
        run(list(x), 0, 1, lambda i, state, values: recorded.append(values))
        return recorded[0]

    return evaluate


def test_each_monitor_is_compiled_once(sl3, monkeypatch):
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(flow, "compile", spy, raising=False)
    h = parse_polynomial("h1*e12*e21", 8, sl3.labels)
    marker = parse_polynomial("3/7*h1^5*e32 + 1", 8, sl3.labels)
    _compile_flow(hamiltonian_field(h, sl3), [h, marker], 0.1)
    (source,) = sources
    assert source.count("def ") == 1
    assert source.count(f"{3 / 7!r}*x0**5*x7") == 1


def test_compile_flow_builds_no_fraction(sl3, sl3_casimirs, fraction_count):
    """The generated source reads each coefficient as numerator / denominator
    in int true division, which is the float of the rational: no Fraction."""
    h = parse_polynomial("1/3*h1^2 + e12*e21 - 2/5*e13*e31*h2", 8, sl3.labels)
    field = hamiltonian_field(h, sl3)
    monitors = [h, *sl3_casimirs.gens.polys()]
    assert any(p.den > 1 for p in monitors)
    before = fraction_count()
    _compile_flow(field, monitors, 0.01)
    assert fraction_count() == before


def test_generated_evaluator_matches_exact(sl3):
    # dyadic point and integer coefficients: every float operation is exact
    p = parse_polynomial("h1^2*h2 - 3*e12*e21 + 5", 8, sl3.labels)
    q = parse_polynomial("1/3*h1^3*e32 - 7/2*e21 + 2/7", 8, sl3.labels)
    zero = Polynomial(8)
    point = [F(1, 2), F(-2), F(3, 2), F(0), F(2), F(0), F(0), F(-5, 4)]
    values = _generated_monitors(sl3, [p, q, zero])(*map(float, point))
    assert values[0] == float(p.evaluate(point))
    assert values[1] == pytest.approx(float(q.evaluate(point)), rel=1e-15)
    assert values[2] == 0.0


def _outcome(run, problem):
    """Every field of the result, or the time of divergence."""
    try:
        res = run(problem)
    except FlowDivergenceError as exc:
        return ("diverged", exc.time)
    return (res.times, res.states, res.monitor_labels, res.monitor_values,
            res.drifts, res.steps, res.dt)


SL3_X0 = [1.0, -0.5, 0.8, -0.3, 0.6, 1.1, -0.9, 0.4]
SL5_X0 = [0.3, -0.2, 0.5, -0.4, 0.1, 0.6, -0.3, 0.2, -0.5, 0.4, 0.7, -0.1,
          0.2, -0.6, 0.3, 0.5, -0.2, 0.1, 0.4, -0.7, 0.6, -0.3, 0.2, 0.1]


def _bit_identity_cases(sl2, sl3, sl2_casimirs, sl3_casimirs, sl3_torus):
    sl2_c2 = [(g.label, g.poly) for g in sl2_casimirs.generators]
    sl3_cas = [(g.label, g.poly) for g in sl3_casimirs.generators]
    torus = [(g.label, g.poly) for g in sl3_torus.generators]

    def sl3_text(text):
        return parse_polynomial(text, 8, sl3.labels)

    sl2_h1 = parse_polynomial("h1", 3, sl2.labels)
    sl5 = builtin_sl(5)
    sl5_torus = [(g.label, g.poly) for g in
                 generate(sl5, cartan_subalgebra(sl5), max_degree=5).generators]
    assert len(sl5_torus) == 88  # 89 monitors with H

    return {
        "sl2 h1, C2 monitor": sl2_problem(sl2, t_final=2.0, monitors=sl2_c2),
        "sl3 h1, torus monitors": FlowProblem(sl3, sl3_text("h1"), SL3_X0, 2.0, 1e-3, torus),
        "sl3 C2": FlowProblem(sl3, sl3_cas[0][1], SL3_X0, 2.0, 1e-3, sl3_cas),
        "sl3 C3": FlowProblem(sl3, sl3_cas[1][1], SL3_X0, 2.0, 1e-3, sl3_cas),
        "sl3 h1*h2 + h1^2":
            FlowProblem(sl3, sl3_text("h1*h2 + h1^2"), SL3_X0, 2.0, 1e-3, sl3_cas),
        "sl3 fractional, constant term": FlowProblem(
            sl3, sl3_text("1/3*h1^2*e12 - 7/2*e21 + 5"), SL3_X0, 0.5, 1e-3, sl3_cas
        ),
        "sl2 Casimir Hamiltonian":
            FlowProblem(sl2, sl2_c2[0][1], [0.4, -0.7, 0.9], 1.0, 1e-3, sl2_c2),
        "sl2 h1*e12 blow-up": FlowProblem(
            sl2, parse_polynomial("h1*e12", 3, sl2.labels), [0.0, 1.0, 0.0], 1.0, 1e-3
        ),
        # every value is finite, but state plus H sum to inf: a test of the
        # sum alone would report a divergence
        "sl2 finite values with an infinite sum":
            FlowProblem(sl2, sl2_h1, [1e308, 1e300, -1e300], 0.01, 1e-3),
        # e12 grows as 1e61*exp(2t), and e12**5 raises OverflowError once it
        # passes 4.5e61, near t = 0.749
        "sl2 monitor overflow": FlowProblem(
            sl2, sl2_h1, [1.0, 1e61, 1.0], 1.0, 0.01,
            [("e12^5", parse_polynomial("e12^5", 3, sl2.labels))],
        ),
        # a generated driver with hundreds of locals
        "sl5 h1 + h2, 88 torus monitors": FlowProblem(
            sl5, parse_polynomial("h1 + h2", 24, sl5.labels), SL5_X0, 0.02, 1e-3, sl5_torus
        ),
    }


def test_integrate_is_bit_identical_to_reference(
    sl2, sl3, sl2_casimirs, sl3_casimirs, sl3_torus
):
    cases = _bit_identity_cases(sl2, sl3, sl2_casimirs, sl3_casimirs, sl3_torus)
    outcomes = {name: _outcome(integrate, problem) for name, problem in cases.items()}
    for name, problem in cases.items():
        assert outcomes[name] == _outcome(reference_integrate, problem), name
    kind, time = outcomes["sl2 h1*e12 blow-up"]
    assert kind == "diverged" and time == pytest.approx(0.503)
    kind, time = outcomes["sl2 monitor overflow"]
    assert kind == "diverged" and time == pytest.approx(0.75)
    for name in ("sl2 finite values with an infinite sum", "sl5 h1 + h2, 88 torus monitors"):
        assert outcomes[name][0] != "diverged", name
    assert outcomes["sl2 finite values with an infinite sum"][5] == 10
    # a Casimir's field is zero, so every state is the initial point
    for name in ("sl3 C2", "sl3 C3", "sl2 Casimir Hamiltonian"):
        problem = cases[name]
        assert all(c.is_zero() for c in
                   hamiltonian_field(problem.hamiltonian, problem.algebra))
        assert all(state == problem.x0 for state in outcomes[name][1])


def test_monitor_with_thousands_of_terms(sl3):
    # (h1 + h2 + e12 + ... + e32)^8 has C(15, 7) = 6,435 terms, beyond the
    # ~3,000 at which one long `+` expression overflows CPython's compiler
    linear = sum((Polynomial.variable(i, 8) for i in range(8)), Polynomial(8))
    big = linear.power(8)
    assert len(big.terms) == 6435
    problem = FlowProblem(
        algebra=sl3,
        hamiltonian=Polynomial.variable(0, 8),
        x0=[0.3, -0.2, 0.25, -0.1, 0.15, 0.2, -0.3, 0.1],
        t_final=0.01,
        dt=1e-3,
        monitors=[("big", big)],
    )
    assert _outcome(integrate, problem) == _outcome(reference_integrate, problem)


def test_labels_never_reach_the_generated_source(tmp_path):
    spec = {
        "name": "sl2 with odd labels",
        "dim": 3,
        "labels": ["a-b", "x y", "1st"],
        "structure": [
            {"i": 0, "j": 1, "k": 1, "c": "2"},
            {"i": 0, "j": 2, "k": 2, "c": "-2"},
            {"i": 1, "j": 2, "k": 0, "c": "1"},
        ],
        "cartan_indices": [0],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(spec))
    alg = load_algebra(str(path))
    ef = Polynomial.variable(1, 3) * Polynomial.variable(2, 3)
    problem = FlowProblem(
        algebra=alg,
        hamiltonian=ef + Polynomial.variable(0, 3),
        x0=[0.4, -0.7, 0.9],
        t_final=1.0,
        dt=1e-3,
        monitors=[("x y", ef), ('"); raise SystemExit #', ef)],
    )
    outcome = _outcome(integrate, problem)
    assert outcome[2] == ["H", "x y", '"); raise SystemExit #']
    assert outcome == _outcome(reference_integrate, problem)


def test_exponential_trajectory(sl2):
    """x_h is constant, so x_e obeys a pure exponential with rate 2."""
    res = integrate(sl2_problem(sl2, t_final=1.0, dt=1e-3))
    assert res.monitor_labels == ["H"]
    assert res.final_state[0] == pytest.approx(1.0, abs=0.0)
    assert res.final_state[1] == pytest.approx(math.exp(2.0), rel=1e-10)
    assert res.final_state[2] == pytest.approx(math.exp(-2.0), rel=1e-10)
    assert res.drifts["H"] == 0.0


def test_conserved_monitors_sl2(sl2, sl2_casimirs):
    ef = parse_polynomial("e12*e21", 3, sl2.labels)
    cas = sl2_casimirs.gens.polys()[0]
    prob = sl2_problem(
        sl2, t_final=10.0, dt=1e-3, monitors=[("ef", ef), ("C2", cas)]
    )
    res = integrate(prob)
    assert res.drifts["ef"] <= 1e-8
    assert res.drifts["C2"] <= 1e-8
    assert res.steps == 10000


def test_torus_generators_conserved_sl3(sl3, sl3_torus):
    h1 = Polynomial.variable(0, 8)
    monitors = [(g.label, g.poly) for g in sl3_torus.generators]
    prob = FlowProblem(
        algebra=sl3,
        hamiltonian=h1,
        x0=[1.0, -0.5, 0.8, -0.3, 0.6, 1.1, -0.9, 0.4],
        t_final=5.0,
        dt=1e-3,
        monitors=monitors,
    )
    res = integrate(prob)
    assert len(res.drifts) == 8  # H plus the seven generators
    for label, drift in res.drifts.items():
        assert drift <= 1e-7, (label, drift)


def test_quadratic_hamiltonian_conserves_casimir(sl2, sl2_casimirs):
    """H = x_e*x_f drives exponential shear; H and the Casimir must hold."""
    h = parse_polynomial("e12*e21", 3, sl2.labels)
    cas = sl2_casimirs.gens.polys()[0]
    prob = FlowProblem(
        algebra=sl2,
        hamiltonian=h,
        x0=[0.4, -0.7, 0.9],
        t_final=3.0,
        dt=1e-3,
        monitors=[("C2", cas)],
    )
    res = integrate(prob)
    assert res.drifts["H"] <= 1e-10
    assert res.drifts["C2"] <= 1e-10
    # x_h is a fixed point coordinate of this flow
    assert res.final_state[0] == pytest.approx(0.4, abs=1e-12)


def test_observed_order(sl2):
    ef = parse_polynomial("e12*e21", 3, sl2.labels)
    prob = FlowProblem(
        algebra=sl2,
        hamiltonian=Polynomial.variable(0, 3),
        x0=[1.0, 1.0, 1.0],
        t_final=2.0,
        dt=0.02,
        monitors=[("ef", ef)],
    )
    order = observed_order(prob, monitor="ef")
    assert order >= 3.5


def test_divergence_detected(sl2):
    # H = x_h * x_e gives d(x_e)/dt = 2 x_e^2: finite-time blowup near t = 0.5.
    h = parse_polynomial("h1*e12", 3, sl2.labels)
    prob = FlowProblem(
        algebra=sl2,
        hamiltonian=h,
        x0=[0.0, 1.0, 0.0],
        t_final=1.0,
        dt=1e-3,
        monitors=[],
    )
    with pytest.raises(FlowDivergenceError) as exc:
        integrate(prob)
    assert 0.4 < exc.value.time < 0.7
    assert "non-finite state" in str(exc.value)


def test_overflow_at_initial_point_diverges_at_time_zero(sl2):
    # x0 is finite, but H = h1^2 is 1e400 there
    h = parse_polynomial("h1^2", 3, sl2.labels)
    prob = FlowProblem(algebra=sl2, hamiltonian=h, x0=[1e200, 1.0, 1.0],
                       t_final=1.0, dt=0.1, monitors=[])
    with pytest.raises(FlowDivergenceError) as exc:
        integrate(prob)
    assert exc.value.time == 0.0


def test_problem_validation(sl2):
    h = Polynomial.variable(0, 3)
    with pytest.raises(ValueError):
        FlowProblem(algebra=sl2, hamiltonian=h, x0=[1.0, 0.0], t_final=1.0, dt=0.1, monitors=[])
    with pytest.raises(ValueError):
        FlowProblem(algebra=sl2, hamiltonian=h, x0=[1.0, 0.0, 0.0], t_final=-1.0, dt=0.1, monitors=[])
    with pytest.raises(ValueError):
        FlowProblem(algebra=sl2, hamiltonian=h, x0=[1.0, 0.0, 0.0], t_final=1.0, dt=0.0, monitors=[])


@pytest.mark.parametrize(
    "x0, t_final, dt",
    [
        pytest.param([1.0, 0.0, 0.0], math.inf, 0.1, id="infinite-horizon"),
        pytest.param([1.0, 0.0, 0.0], math.nan, 0.1, id="nan-horizon"),
        pytest.param([1.0, 0.0, 0.0], 1.0, math.nan, id="nan-step"),
        pytest.param([1.0, 0.0, 0.0], 1.0, math.inf, id="infinite-step"),
        pytest.param([1.0, 0.0, 0.0], 1e308, 1e-308, id="infinite-step-count"),
        pytest.param([math.nan, 0.0, 0.0], 1.0, 0.1, id="nan-initial-point"),
        pytest.param([1.0, -math.inf, 0.0], 1.0, 0.1, id="infinite-initial-point"),
    ],
)
def test_problem_rejects_non_finite_inputs(sl2, x0, t_final, dt):
    # each used to fail late: OverflowError from round(), "cannot convert
    # float NaN to integer", or divergence reported at t = dt
    with pytest.raises(ValueError):
        FlowProblem(algebra=sl2, hamiltonian=Polynomial.variable(0, 3), x0=x0,
                    t_final=t_final, dt=dt, monitors=[])


def test_result_shapes_and_json(sl2):
    res = integrate(sl2_problem(sl2, t_final=0.5, dt=0.01))
    assert len(res.times) == len(res.states) == len(res.monitor_values) == 51
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.5)
    data = res.to_json()
    assert data["steps"] == 50
    assert data["monitors"] == ["H"]
    assert "drifts" in data and "final_state" in data


def test_trajectory_is_recorded_every_thousandth_of_the_steps(sl2):
    # 2,501 steps: stride 2501 // 1000 = 2, and the last step is recorded
    problem = sl2_problem(sl2, t_final=2.501, dt=0.001)
    res = integrate(problem)
    assert res.steps == 2501
    assert [round(t / 0.001) for t in res.times] == [*range(0, 2501, 2), 2501]
    assert res.times == reference_integrate(problem).times
