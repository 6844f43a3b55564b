"""Structure constants, Killing forms, subalgebra specs, regularity."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from poischain import (
    LieAlgebra,
    SubalgebraSpec,
    builtin_sl,
    cartan_subalgebra,
    commutator_rows,
    direct_sum,
    dual_transport,
    full_subalgebra,
    in_centralizer,
    is_invariant,
    is_regular,
    killing_form,
    orbit_dimension,
    span_subalgebra,
    trace_casimirs_sln,
    validate_algebra,
    validate_subalgebra,
)
from poischain.algebra import (
    _jacobi_witness,
    _sl_matrix_basis,
    sl_flip,
    sl_size,
)
from poischain.cli import load_algebra
from poischain.poly import Polynomial

from helpers import (
    commutator_matrix,
    dense_form,
    dual_transport_inverse,
    form_invariance_witness,
    rank_of_matrix,
    reference_jacobi_witness,
    reference_killing_form,
    reference_linear_form,
    rescaled_sl_json,
    tagged_inverse,
    trace_form_sl,
)

F = Fraction


def test_sl2_structure():
    alg = builtin_sl(2)
    assert alg.dim == 3
    assert alg.labels == ("h1", "e12", "e21")
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h
    assert alg.bracket_coeffs(0, 1) == {1: F(2)}
    assert alg.bracket_coeffs(0, 2) == {2: F(-2)}
    assert alg.bracket_coeffs(1, 2) == {0: F(1)}
    assert alg.bracket_coeffs(1, 0) == {1: F(-2)}
    assert alg.bracket_coeffs(1, 1) == {}


def test_sl3_labels_and_rank(sl3):
    assert sl3.labels == ("h1", "h2", "e12", "e13", "e21", "e23", "e31", "e32")
    assert sl3.cartan_indices == (0, 1)
    assert sl3.rank() == 2
    assert sl_size(sl3) == 3


def test_sl3_sample_brackets(sl3):
    e12, e23, e13 = (sl3.labels.index(label) for label in ("e12", "e23", "e13"))
    # [e12, e23] = e13
    assert sl3.bracket_coeffs(e12, e23) == {e13: F(1)}
    # [e12, e21] = E11 - E22 = h1
    assert sl3.bracket_coeffs(e12, sl3.labels.index("e21")) == {0: F(1)}
    # [e13, e31] = E11 - E33 = h1 + h2 in the (E11-E22, E22-E33) basis
    assert sl3.bracket_coeffs(e13, sl3.labels.index("e31")) == {0: F(1), 1: F(1)}


def test_validate_builtin_algebras():
    for n in (2, 3, 4):
        rep = validate_algebra(builtin_sl(n))
        assert rep.passed
        assert {c.name for c in rep.checks} == {
            "antisymmetry",
            "jacobi",
            "killing_nondegenerate",
        }


def test_validation_catches_jacobi_violation(sl2):
    bad = dict(sl2.structure)
    bad[(0, 1, 1)] = F(3)  # [h,e] = 3e while [h,f] = -2f breaks Jacobi with [e,f]=h
    alg = LieAlgebra(name="broken", dim=3, labels=sl2.labels, structure=bad)
    rep = validate_algebra(alg)
    failed = {c.name for c in rep.checks if not c.passed}
    assert "jacobi" in failed
    jacobi = next(c for c in rep.checks if c.name == "jacobi")
    assert jacobi.witness == ("h1", "e12", "e21", "h1")


def _perturbed(alg, kind: str, seed: int) -> LieAlgebra:
    """alg with one structure constant changed, added or removed."""
    rng = random.Random(seed)
    structure = dict(alg.structure)
    if kind == "change":
        key = rng.choice(sorted(structure))
        structure[key] += rng.choice((-2, -1, 1, 2))
    elif kind == "add":
        i, j = sorted(rng.sample(range(alg.dim), 2))
        key = (i, j, rng.randrange(alg.dim))
        structure[key] = structure.get(key, 0) + rng.choice((-1, 1, F(1, 2)))
    else:
        del structure[rng.choice(sorted(structure))]
    return LieAlgebra(name=f"{alg.name} {kind} {seed}", dim=alg.dim,
                      labels=alg.labels, structure=structure,
                      cartan_indices=alg.cartan_indices)


def test_jacobi_witness_matches_reference_scan():
    algebras = [builtin_sl(n) for n in range(2, 7)]
    algebras += [_perturbed(builtin_sl(n), kind, seed)
                 for n in (3, 4) for kind in ("change", "add", "remove")
                 for seed in range(8)]
    witnesses = [reference_jacobi_witness(alg) for alg in algebras]
    assert [_jacobi_witness(alg) for alg in algebras] == witnesses
    assert witnesses[:5] == [None] * 5
    assert sum(w is not None for w in witnesses[5:]) >= 20


def test_jacobi_witness_after_every_earlier_triple_passes():
    # the first failing triple starts at i = dim - 3, after every sl(3) triple
    alg = direct_sum(builtin_sl(3), builtin_sl(2))
    structure = dict(alg.structure)
    structure[(8, 9, 9)] *= 3
    broken = LieAlgebra(name="broken", dim=alg.dim, labels=alg.labels,
                        structure=structure)
    witness = ("h1.2", "e12.2", "e21.2", "h1.2")
    assert _jacobi_witness(broken) == reference_jacobi_witness(broken) == witness


def test_killing_form_sl2(sl2):
    kf = killing_form(sl2)
    assert kf.rows == ({0: 8}, {2: 4}, {1: 4}) and kf.den == 1
    assert killing_form(sl2) is kf  # built once per algebra
    assert kf.inverse is kf.inverse == [({0: 1}, 8), ({2: 1}, 4), ({1: 1}, 4)]
    assert form_invariance_witness(sl2, kf) is None


def test_killing_is_multiple_of_trace_form():
    # For sl(n) the Killing form is 2n times the trace form.
    for n in (2, 3):
        alg = builtin_sl(n)
        kf = killing_form(alg)
        tf = trace_form_sl(n)
        assert kf.den == tf.den == 1
        assert kf.rows == tuple({j: 2 * n * v for j, v in row.items()} for row in tf.rows)
        assert form_invariance_witness(alg, tf) is None


def _scaled_sl2_file(tmp_path) -> LieAlgebra:
    # sl(2) with e scaled by 1/3: [e', f] = h/3 puts a denominator in the constants
    spec = {
        "name": "scaled sl2",
        "dim": 3,
        "labels": ["h", "e", "f"],
        "structure": [
            {"i": 0, "j": 1, "k": 1, "c": "2"},
            {"i": 0, "j": 2, "k": 2, "c": "-2"},
            {"i": 1, "j": 2, "k": 0, "c": "1/3"},
        ],
    }
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(spec))
    return load_algebra(str(path))


def test_killing_form_matches_double_sum(tmp_path):
    algebras = [builtin_sl(n) for n in range(2, 7)]
    algebras += [direct_sum(builtin_sl(2), builtin_sl(3)), _scaled_sl2_file(tmp_path)]
    for alg in algebras:
        form = killing_form(alg)
        assert all(type(v) is int and v for row in form.rows for v in row.values())
        assert dense_form(form) == reference_killing_form(alg), alg.name
    form = killing_form(algebras[-1])
    assert form.den == 9 and dense_form(form)[1][2] == F(4, 3)


def test_linear_form_matches_one_monomial_per_coordinate(sl3):
    rng = random.Random(7)
    for _ in range(20):
        vec = [F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else F(0)
               for _ in range(sl3.dim)]
        assert sl3.linear_form(vec) == reference_linear_form(sl3, vec)
    assert sl3.linear_form(["1/2", 3] + [0] * 6) == reference_linear_form(
        sl3, [F(1, 2), F(3)] + [F(0)] * 6
    )
    assert sl3.linear_form([0] * 8).is_zero()
    with pytest.raises(ValueError):
        sl3.linear_form([F(1)] * 9)


def test_linear_form_rejects_floats_even_at_zero(sl3):
    with pytest.raises(TypeError):
        sl3.linear_form([F(1)] + [0.0] + [F(0)] * 6)
    with pytest.raises(TypeError):
        sl3.linear_form([0.5] + [F(0)] * 7)


def test_killing_invariance_on_all_basis_triples(sl3):
    """B([x,y],z) = B(x,[y,z]) checked exhaustively by the witness scan."""
    assert form_invariance_witness(sl3, killing_form(sl3)) is None


def test_commutator_matrix_sl2(sl2):
    # rows of [[0, 0, 0], [0, 0, 1], [0, -1, 0]]; sl(2) has denominator one
    assert commutator_rows(sl2, (1, 0, 0)) == [{}, {2: 1}, {1: -1}]


def test_regularity(sl2, sl3):
    assert is_regular(sl2, [F(1), F(0), F(0)])
    assert is_regular(sl2, [F(0), F(1), F(0)])  # nilpotent but still regular in sl2
    assert not is_regular(sl2, [F(0), F(0), F(0)])
    # h1* + 2*h2* pairs with a trace-form matrix having distinct eigenvalues,
    # while h2* alone pairs with diag(1/3, 1/3, -2/3): a repeated eigenvalue.
    assert is_regular(sl3, [F(1), F(2)] + [F(0)] * 6)
    assert not is_regular(sl3, [F(0), F(1)] + [F(0)] * 6)


def test_orbit_dimensions(sl2, sl3):
    assert orbit_dimension(sl3, cartan_subalgebra(sl3)) == 2
    assert orbit_dimension(sl3, full_subalgebra(sl3)) == 6
    assert orbit_dimension(sl2, cartan_subalgebra(sl2)) == 1
    one_dim = span_subalgebra([[F(1), F(2)] + [F(0)] * 6], abelian=True)
    assert orbit_dimension(sl3, one_dim) == 1


def test_in_centralizer(sl2):
    cartan = cartan_subalgebra(sl2)
    assert in_centralizer(sl2, cartan, [F(1), F(0), F(0)])
    assert not in_centralizer(sl2, cartan, [F(0), F(1), F(0)])


def _reference_centralizer(alg, sub, point):
    """Dense route: z = K^-1 x in the rational basis, then every [v, z]."""
    inv = tagged_inverse(dense_form(killing_form(alg)))
    z = [sum(a * x for a, x in zip(row, point)) for row in inv]
    for v in sub.vectors:
        bracket = [F(0)] * alg.dim
        for i, j in itertools.product(range(alg.dim), repeat=2):
            for k, c in alg.bracket_coeffs(i, j).items():
                bracket[k] += v[i] * z[j] * c
        if any(bracket):
            return False
    return True


@pytest.mark.parametrize(
    "point, regular, central",
    [
        ([F(-1, 2), F(1, 3), 0, 0, 0, 0, 0, 0], True, True),
        ([F(-1, 2), F(1, 2), 0, 0, 0, 0, 0, 0], False, True),
        ([F(-1, 2), F(1, 3), 0, 0, 0, 0, 0, F(2, 5)], True, False),
    ],
)
def test_rational_shift_with_negative_first_coordinate(sl3, point, regular, central):
    """The integer scaling of a point with a negative leading coordinate
    flips its sign, which changes neither verdict: both agree with the dense
    rational references."""
    point = [F(v) for v in point]
    assert is_regular(sl3, point) is regular
    assert (rank_of_matrix(commutator_matrix(sl3, point)) == sl3.dim - 2) is regular
    cartan = cartan_subalgebra(sl3)
    assert in_centralizer(sl3, cartan, point) is central
    assert _reference_centralizer(sl3, cartan, point) is central


def test_dual_transport_round_trip(sl2):
    kf = killing_form(sl2)
    p = Polynomial.variable(1, 3) * Polynomial.variable(2, 3) + Polynomial.variable(0, 3)
    q = dual_transport(sl2, kf, p)
    assert dual_transport_inverse(sl2, kf, q) == p


def test_moment_map_form(sl3):
    mu = sl3.linear_form([F(1), F(2)] + [F(0)] * 6)
    assert mu.render(sl3.labels) == "h1 + 2*h2"


def test_subalgebra_validation(sl2):
    good = validate_subalgebra(sl2, cartan_subalgebra(sl2))
    assert good.passed
    # e and f do not span a subalgebra: [e, f] = h escapes.
    bad_spec = span_subalgebra([[F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    rep = validate_subalgebra(sl2, bad_spec)
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert any(c.name == "closed" for c in failed)


def test_span_subalgebra_dependent_vectors_flagged(sl2):
    spec = span_subalgebra([[F(1), F(0), F(0)], [F(2), F(0), F(0)]])
    rep = validate_subalgebra(sl2, spec)
    assert any(c.name == "independent" and not c.passed for c in rep.checks)


def test_direct_sum(sl2):
    ds = direct_sum(sl2, sl2)
    assert ds.dim == 6
    assert ds.rank() == 2
    assert ds.labels == ("h1.1", "e12.1", "e21.1", "h1.2", "e12.2", "e21.2")
    # cross brackets vanish, block brackets survive
    assert ds.bracket_coeffs(0, 4) == {}
    assert ds.bracket_coeffs(3, 4) == {4: F(2)}
    assert validate_algebra(ds).passed


def test_algebra_json_round_trip(sl3):
    data = sl3.to_json()
    back = LieAlgebra.from_json(data)
    assert back.dim == sl3.dim
    assert back.labels == sl3.labels
    assert back.structure == sl3.structure
    assert back.cartan_indices == sl3.cartan_indices


def test_subalgebra_json_round_trip(sl3):
    spec = span_subalgebra([[F(1), F(2)] + [F(0)] * 6], abelian=True, name="ray")
    back = SubalgebraSpec.from_json(spec.to_json())
    assert back == spec


def test_subalgebra_vectors_build_few_fractions(fraction_count):
    """The unit subalgebras build int vectors and no Fraction.  Any other
    vector is scaled by the lcm of its entries' denominators, once per
    entry, so an integer vector is kept as given."""
    alg = builtin_sl(6)
    for make, indices in ((full_subalgebra, range(alg.dim)),
                          (cartan_subalgebra, alg.cartan_indices)):
        before = fraction_count()
        sub = make(alg)
        assert fraction_count() == before, make.__name__
        assert sub.vectors == tuple(
            tuple(int(i == c) for i in range(alg.dim)) for c in indices
        )
        assert all(type(v) is int for vec in sub.vectors for v in vec)
    before = fraction_count()
    assert span_subalgebra([[2, -4, 0], [0, 0, 3]]).vectors == ((2, -4, 0), (0, 0, 3))
    assert fraction_count() == before
    back = SubalgebraSpec.from_json({"vectors": [[1, "1/2", "0"]], "name": "ray"})
    assert fraction_count() - before == 2
    assert back == span_subalgebra([[F(1), F(1, 2), F(0)]], name="ray")
    assert back.vectors == ((2, 1, 0),)
    assert all(type(v) is int for v in back.vectors[0])
    assert span_subalgebra([["-1/6", "3/4"]]).vectors == ((-2, 9),)


@pytest.mark.parametrize("n", range(2, 13))
def test_algebra_layer_builds_no_fraction_matrix(n, fraction_count):
    """builtin_sl keeps its integer constants and killing_form fills integer
    rows, so neither builds a Fraction; validate_algebra builds at most the
    one Fraction of its Killing determinant."""
    before = fraction_count()
    alg = builtin_sl(n)
    form = killing_form(alg)
    assert fraction_count() == before
    assert all(type(c) is int for c in alg.structure.values())
    before = fraction_count()
    report = validate_algebra(builtin_sl(n))
    assert fraction_count() - before <= 1
    assert report.passed and form.den == 1


def test_duplicate_cartan_indices_are_rejected(sl2):
    with pytest.raises(ValueError, match="duplicate Cartan indices"):
        LieAlgebra(name="bad", dim=3, labels=sl2.labels, structure=sl2.structure,
                   cartan_indices=(0, 0))


@pytest.mark.parametrize("labels", [[1, 2, 3], ["h", "e", None], "hef"])
def test_non_string_labels_are_rejected(sl2, labels):
    with pytest.raises(ValueError, match="labels must be a list of strings"):
        LieAlgebra.from_json(sl2.to_json() | {"labels": labels})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_constants_match_dense_commutators(n):
    """sum_k C_abk M_k equals [M_a, M_b] for the basis matrices M, with
    the commutator taken densely."""
    alg = builtin_sl(n)
    sparse, _ = _sl_matrix_basis(n)
    mats = [
        [[F(m.get((r, c), 0)) for c in range(n)] for r in range(n)] for m in sparse
    ]

    def product(x, y):
        return [
            [sum(x[r][t] * y[t][c] for t in range(n)) for c in range(n)]
            for r in range(n)
        ]

    for a in range(alg.dim):
        for b in range(alg.dim):
            ab, ba = product(mats[a], mats[b]), product(mats[b], mats[a])
            expected = [[ab[r][c] - ba[r][c] for c in range(n)] for r in range(n)]
            combined = [[F(0)] * n for _ in range(n)]
            for k, coeff in alg.bracket_coeffs(a, b).items():
                for r in range(n):
                    for c in range(n):
                        combined[r][c] += coeff * mats[k][r][c]
            assert combined == expected, (alg.labels[a], alg.labels[b])


def test_builtin_sl_rejects_bad_n():
    with pytest.raises(ValueError):
        builtin_sl(1)


def test_sl_labels_unique_from_ten_and_unchanged_below():
    for n in (11, 12):
        _, labels = _sl_matrix_basis(n)
        assert len(set(labels)) == len(labels) == n * n - 1
        assert {"e1_11", "e11_1", "h10"} <= set(labels)
    for n in range(2, 10):
        _, labels = _sl_matrix_basis(n)
        assert labels == [f"h{i}" for i in range(1, n)] + [
            f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1) if i != j
        ]


def test_sl_size_accepts_both_label_forms(sl3):
    separated = tuple(
        f"e{lab[1]}_{lab[2]}" if lab.startswith("e") else lab for lab in sl3.labels
    )
    alg = LieAlgebra(
        name="sl3",
        dim=sl3.dim,
        labels=separated,
        structure=sl3.structure,
        cartan_indices=sl3.cartan_indices,
    )
    assert sl_size(sl3) == sl_size(alg) == 3


def _is_involutive_automorphism(alg, perm, sign):
    """x_v -> sign[v] * x_perm[v] squares to the identity and satisfies
    C(pi i, pi j, pi k) * s_i * s_j = s_k * C(i, j, k) for all i, j, k."""
    if any(perm[perm[v]] != v or sign[v] * sign[perm[v]] != 1 for v in range(alg.dim)):
        return False
    consts = {}
    for (i, j, k), c in alg.structure.items():
        consts[i, j, k], consts[j, i, k] = c, -c
    moved = {(perm[i], perm[j], perm[k]): sign[i] * sign[j] * sign[k] * c
             for (i, j, k), c in consts.items()}
    return moved == consts


@pytest.mark.parametrize("n", range(2, 13))
def test_sl_flip_is_an_involutive_automorphism(n):
    alg = builtin_sl(n)
    perm, sign = sl_flip(alg)
    assert _is_involutive_automorphism(alg, perm, sign)
    sep = "_" if n >= 10 else ""
    at = alg.labels.index
    for i in range(1, n):
        assert (perm[at(f"h{i}")], sign[at(f"h{i}")]) == (at(f"h{n - i}"), 1)
        e = at(f"e{i}{sep}{i + 1}")
        assert (perm[e], sign[e]) == (at(f"e{n - i}{sep}{n - i + 1}"), -1)
    for v in (0, alg.dim - 1):
        broken = list(sign)
        broken[v] *= -1
        assert not _is_involutive_automorphism(alg, perm, broken), v


def test_sl_flip_only_on_the_builtin_layout(sl3):
    assert sl_flip(LieAlgebra.from_json(rescaled_sl_json(3))) is None
    assert sl_flip(direct_sum(builtin_sl(2), builtin_sl(3))) is None
    assert sl_flip(LieAlgebra.from_json(sl3.to_json())) == sl_flip(sl3)


def test_sl_size_checks_the_structure_constants():
    # the sl(3) labels on rescaled e_ij: isomorphic to sl(3), but the trace
    # route's Casimir of the built-in constants is not central there
    scaled = LieAlgebra.from_json(rescaled_sl_json(3))
    assert validate_algebra(scaled).passed
    assert sl_size(scaled) is None
    c2 = trace_casimirs_sln(3).generators[0].poly
    assert not is_invariant(scaled, full_subalgebra(scaled), c2)
    assert sl_size(LieAlgebra.from_json(builtin_sl(4).to_json())) == 4
