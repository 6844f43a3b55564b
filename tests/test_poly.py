"""Polynomial engine: arithmetic, ordering, calculus, parsing, serialization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poischain import (
    Monomial,
    Polynomial,
    VectorField,
    brackets,
    casimirs_by_kernel,
    direct_sum,
    hamiltonian_field,
    lie_poisson_bracket,
    parse_polynomial,
)
from poischain import poly
from poischain.poly import (
    dump_json,
    polynomial_from_json,
    render_polynomial,
)

from helpers import (
    double_sum_bracket,
    from_reference,
    polynomial_to_json,
    random_polynomial,
    random_reference,
    ref_add,
    ref_graded_lex,
    ref_mul,
    ref_partial,
    ref_substitute,
    to_reference,
)


def poly_strategy(dim=3, max_degree=3):
    """Random small polynomials via seeded construction (keeps shrinking sane)."""
    return st.integers(min_value=0, max_value=10**6).map(
        lambda s: random_polynomial(random.Random(s), dim, max_degree, n_terms=4)
    )


def test_monomial_construction_sorts_and_drops_zeros():
    m = Monomial(((2, 1), (0, 2), (1, 0)))
    assert m.exps == ((0, 2), (2, 1))
    assert m.degree() == 3
    assert Monomial.one().is_one()
    with pytest.raises(ValueError):
        Monomial(((0, 1), (0, 1)))
    assert Monomial.variable(0) * Monomial.variable(0) == Monomial(((0, 2),))


def test_monomial_graded_lex_order():
    # Degree dominates; ties broken lexicographically on dense exponents.
    x2 = Monomial(((0, 2),))
    xy = Monomial(((0, 1), (1, 1)))
    y = Monomial(((1, 1),))
    keys = [m.sort_key(2) for m in (x2, xy, y)]
    assert keys[0] > keys[1] > keys[2]


def test_leading_monomial_prefers_graded_lex_maximum():
    p = Polynomial.term(3, Fraction(3), [(1, 1), (2, 1)]) + Polynomial.term(
        3, Fraction(1), [(0, 2)]
    )
    assert p.leading_monomial().exps == ((0, 2),)
    assert p.monic().leading_coefficient() == 1


def test_zero_polynomial_degree_is_none():
    assert Polynomial.zero(4).degree is None
    assert Polynomial.one(4).degree == 0
    assert Polynomial.variable(2, 4).degree == 1


def test_known_product():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    # (x + y)^2 = x^2 + 2xy + y^2
    sq = (x + y).power(2)
    expected = x * x + x * y.scale(Fraction(2)) + y * y
    assert sq == expected


def test_scaling_takes_exact_rationals_only():
    x = Polynomial.variable(0, 2)
    assert x.scale("1/2") == x * Fraction(1, 2) == Fraction(1, 2) * x
    assert x.scale(0) == x * 0 == x - x == Polynomial.zero(2)
    assert -x == x.scale(-1) and (-x).den == 1
    for value in (0.0, 1.5):
        with pytest.raises(TypeError):
            x.scale(value)


def test_partial_derivative():
    p = parse_polynomial("x1^3*x2 + 2*x2", 2)
    assert render_polynomial(p.partial_derivative(0)) == "3*x1^2*x2"
    assert render_polynomial(p.partial_derivative(1)) == "x1^3 + 2"
    assert p.partial_derivative(0).partial_derivative(1) == p.partial_derivative(
        1
    ).partial_derivative(0)


def test_evaluate():
    p = parse_polynomial("x1^2 + 4*x2*x3", 3)
    assert p.evaluate([Fraction(2), Fraction(1), Fraction(3)]) == Fraction(16)
    assert p.evaluate([2.0, 1.0, 3.0]) == pytest.approx(16.0)


def test_homogeneous_components():
    p = parse_polynomial("x1^2 + x1*x2 + x2 + 7", 2)
    comps = p.homogeneous_components()
    assert sorted(comps) == [0, 2] or sorted(comps) == [0, 1, 2]
    total = Polynomial.zero(2)
    for q in comps.values():
        assert q.is_homogeneous()
        total = total + q
    assert total == p


def test_substitute_linear():
    # x -> u+v, y -> u-v turns xy into u^2 - v^2.
    p = Polynomial.variable(0, 2) * Polynomial.variable(1, 2)
    u_plus_v = Polynomial.variable(0, 2) + Polynomial.variable(1, 2)
    u_minus_v = Polynomial.variable(0, 2) - Polynomial.variable(1, 2)
    q = p.substitute_linear([u_plus_v, u_minus_v])
    assert render_polynomial(q) == "x1^2 - x2^2"
    # x^2 - y^2 -> 4uv: the squares from different terms cancel outright
    p = Polynomial.variable(0, 2).power(2) - Polynomial.variable(1, 2).power(2)
    q = p.substitute_linear([u_plus_v, u_minus_v])
    assert q.terms == {Monomial(((0, 1), (1, 1))): 4}


def test_shift_coefficients_taylor_identity():
    """The t-expansion of p(x + t*mu) must satisfy (j+1)c_{j+1} = D_mu c_j."""
    rng = random.Random(7)
    mu = (Fraction(1), Fraction(-2), Fraction(3))
    for _ in range(12):
        p = random_polynomial(rng, 3, max_degree=4, n_terms=5)
        coeffs = p.shift_coefficients(mu)
        deg = p.degree if p.degree is not None else 0
        for j in range(deg + 1):
            c_j = coeffs.get(j, Polynomial.zero(3))
            directional = Polynomial.zero(3)
            for i, m in enumerate(mu):
                directional = directional + c_j.partial_derivative(i).scale(m)
            c_next = coeffs.get(j + 1, Polynomial.zero(3))
            assert c_next.scale(Fraction(j + 1)) == directional


def test_shift_at_zero_is_identity():
    p = parse_polynomial("x1^2*x2 + x3", 3)
    coeffs = p.shift_coefficients((Fraction(0),) * 3)
    assert set(coeffs) == {0}
    assert coeffs[0] == p


@settings(max_examples=60)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert (p + q) == (q + p)
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


@settings(max_examples=60)
@given(poly_strategy())
def test_render_parse_round_trip(p):
    labels = ["h1", "e12", "e21"]
    text = render_polynomial(p, labels)
    assert parse_polynomial(text, 3, labels) == p


@settings(max_examples=60)
@given(poly_strategy())
def test_json_round_trip(p):
    data = polynomial_to_json(p)
    assert polynomial_from_json(data, 3) == p


@pytest.mark.parametrize("exps", [{"0": 1.5}, {"0": True}, {"0": "1"}, [1], None],
                         ids=["float", "bool", "string", "list", "null"])
def test_json_exponents_must_be_integers_in_an_object(exps):
    with pytest.raises(ValueError, match="exponent must be an integer|exps must be an object"):
        polynomial_from_json([{"coeff": "1", "exps": exps}], 3)


def _reference_render(p, labels):
    """The text form read off Fraction coefficients."""
    chunks = []
    for mono, coeff in p.sorted_terms():
        sign, mag = ("-" if coeff < 0 else "+"), abs(coeff)
        factors = [labels[v] + (f"^{e}" if e > 1 else "") for v, e in mono.exps]
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        chunks.append(f" {sign} {body}" if chunks else body if sign == "+" else "-" + body)
    return "".join(chunks) or "0"


def test_render_builds_no_fraction(fraction_count):
    """render_polynomial reads sign and magnitude off the integer numerators,
    with the same text as the Fraction coefficients give: 200 seeded
    polynomials in 4 variables with denominators 1, 2, 3 and 12, signs
    mixed, constants and zero among them."""
    rng = random.Random(19)
    labels = ["h1", "h2", "e12", "e21"]
    polys = [from_reference(random_reference(rng, 4), 4) for _ in range(200)]
    polys += [Polynomial.zero(4), Polynomial.constant(Fraction(-5, 6), 4)]
    want = [_reference_render(p, labels) for p in polys]
    before = fraction_count()
    got = [render_polynomial(p, labels) for p in polys]
    assert fraction_count() == before
    assert got == want
    assert any("/" in text for text in got) and "0" in got


def test_parse_default_variable_names():
    p = parse_polynomial("2*x1 - x3^2", 3)
    assert render_polynomial(p) == "-x3^2 + 2*x1"


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        parse_polynomial("x1 + bogus", 2)


@pytest.mark.parametrize("text, factor", [("3/0", "3/0"), ("1/0*x1", "1/0")])
def test_parse_rejects_zero_denominator(text, factor):
    with pytest.raises(ValueError, match=f"zero denominator in '{factor}'"):
        parse_polynomial(text, 2)


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_rejects_booleans(value):
    with pytest.raises(TypeError, match="not an exact rational"):
        poly.as_fraction(value)


def test_as_fraction_names_a_zero_denominator():
    with pytest.raises(ValueError, match="^zero denominator in '2/0'$"):
        poly.as_fraction("2/0")


def test_bracket_of_coordinates_matches_structure(sl2):
    h = Polynomial.variable(0, 3)
    e = Polynomial.variable(1, 3)
    f = Polynomial.variable(2, 3)
    assert lie_poisson_bracket(h, e, sl2) == e.scale(Fraction(2))
    assert lie_poisson_bracket(h, f, sl2) == f.scale(Fraction(-2))
    assert lie_poisson_bracket(e, f, sl2) == h


def test_dump_json_is_sorted_and_newline_terminated():
    out = dump_json({"b": 1, "a": [2, 3]})
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"')


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl2+sl3"])
def test_bracket_matches_double_sum_reference(name, sl2, sl3):
    alg = {"sl2": sl2, "sl3": sl3, "sl2+sl3": direct_sum(sl2, sl3)}[name]
    rng = random.Random(len(name) * 101 + alg.dim)
    for _ in range(30):
        p = random_polynomial(rng, alg.dim, max_degree=3, n_terms=4)
        p = p.scale(Fraction(1, rng.randint(1, 3)))
        q = random_polynomial(rng, alg.dim, max_degree=3, n_terms=4)
        assert lie_poisson_bracket(p, q, alg) == double_sum_bracket(p, q, alg)
        field = hamiltonian_field(p, alg)
        assert VectorField(field)(q) == double_sum_bracket(p, q, alg)
        for j, component in enumerate(field):
            x_j = Polynomial.variable(j, alg.dim)
            assert component == double_sum_bracket(p, x_j, alg)


def test_brackets_build_one_field_per_run_of_equal_left_elements(sl3, monkeypatch):
    a, b, x, y, z = (
        parse_polynomial(text, sl3.dim, sl3.labels)
        for text in ("h1*e12 + e23", "e12*e21 - h2^2", "e13*e31", "h1^2*e32", "e21 + 3")
    )
    # b.scale(1) is another object equal to b: it continues b's run
    pairs = [(a, x), (a, y), (b, x), (b.scale(1), z), (a, z), (a, a)]
    built = []
    build = poly.hamiltonian_field
    monkeypatch.setattr(
        poly, "hamiltonian_field", lambda p, alg: built.append(p) or build(p, alg)
    )
    values = list(brackets(pairs, sl3))
    assert built == [a, b, a]
    monkeypatch.undo()
    assert values == [double_sum_bracket(p, q, sl3) for p, q in pairs]
    assert values == [lie_poisson_bracket(p, q, sl3) for p, q in pairs]


def test_casimir_hamiltonian_fields_vanish(sl4):
    cas = casimirs_by_kernel(sl4, 4)
    assert len(cas) == 3
    for g in cas.generators:
        assert all(c.is_zero() for c in hamiltonian_field(g.poly, sl4)), g.label


# ---------------------------------------------------------------------------
# the packed-key core against plain dict arithmetic (tests/helpers)


def _packed_invariants(p):
    """One denominator, positive and coprime to the numerators; no zeros."""
    assert p.den > 0 and all(p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 35), st.integers(0, 10**6))
def test_packed_core_matches_reference_arithmetic(dim, seed):
    rng = random.Random(seed)
    ra, rb = random_reference(rng, dim), random_reference(rng, dim)
    a, b = from_reference(ra, dim), from_reference(rb, dim)
    assert to_reference(a) == ra
    for got, want in (
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, {e: -c for e, c in rb.items()})),
        (a * b, ref_mul(ra, rb)),
        (a.power(3), ref_mul(ra, ref_mul(ra, ra))),
    ):
        _packed_invariants(got)
        assert to_reference(got) == want
    assert a * b == b * a and hash(a * b) == hash(b * a)
    for var in {rng.randrange(dim) for _ in range(3)}:
        assert to_reference(a.partial_derivative(var)) == ref_partial(ra, var)
    assert [m.dense(dim) for m, _ in (a * b).sorted_terms()] == ref_graded_lex(
        ref_mul(ra, rb)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 35), st.integers(1, 35), st.integers(0, 10**6))
def test_substitute_linear_matches_reference(dim, target_dim, seed):
    rng = random.Random(seed)
    ra = random_reference(rng, dim, max_degree=4)
    images = [random_reference(rng, target_dim, n_terms=2, max_degree=1) for _ in range(dim)]
    got = from_reference(ra, dim).substitute_linear(
        [from_reference(img, target_dim) for img in images]
    )
    _packed_invariants(got)
    assert to_reference(got) == ref_substitute(ra, images, target_dim)


def test_packed_degree_cap_raises_instead_of_wrapping():
    x = Polynomial.variable(0, 2)
    top = Polynomial.term(2, 1, [(0, 40000)])
    assert (top * Polynomial.term(2, 1, [(1, 25535)])).degree == 65535
    with pytest.raises(ValueError):
        top * Polynomial.term(2, 1, [(0, 25536)])
    with pytest.raises(ValueError):
        x.power(1 << 16)
    with pytest.raises(ValueError):
        parse_polynomial("x1^65536", 2)
    # the top exponent of one variable sorts above every other degree-65535 term
    p = parse_polynomial("x2^65535 + x1^65535", 2)
    assert render_polynomial(p) == "x1^65535 + x2^65535"
