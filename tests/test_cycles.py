"""Cycle combinatorics for sl(n): balance, decomposition, censuses, relations."""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from poischain import (
    CycleMonomial,
    ExponentGraph,
    balance_check,
    builtin_sl,
    cartan_subalgebra,
    cycle_decompose,
    enumerate_cycle_generators,
    is_invariant,
    oracle_cross_check,
    parse_polynomial,
    relation_families_check,
    reynolds_average,
    reynolds_sl,
)
from poischain import cycles
from poischain.algebra import LieAlgebra, _sl_labels
from poischain.commutant import BudgetExceededError
from poischain.cycles import (
    _coordinate_edges,
    all_cycles,
    phi_exponent,
    sl_weyl_images,
    weyl_permute,
)
from poischain.poly import Monomial, Polynomial

from helpers import (
    reference_balanced_keys,
    reference_cycle_polynomial,
    reference_relation_families,
    reference_sl_weyl_images,
)

F = Fraction


def mono(text, alg):
    p = parse_polynomial(text, alg.dim, alg.labels)
    assert len(p.terms) == 1
    return next(iter(p.terms))


def test_cycle_monomial_canonical_rotation():
    assert CycleMonomial((2, 3, 1)).indices == (1, 2, 3)
    assert CycleMonomial((3, 1, 2)).indices == (1, 2, 3)
    assert CycleMonomial((1, 3, 2)).indices == (1, 3, 2)  # opposite orientation
    assert CycleMonomial((1, 2, 3)) != CycleMonomial((1, 3, 2))
    assert CycleMonomial((1, 2)).label == "p12"
    assert CycleMonomial((1, 2, 3)).label == "p123"


def test_cycle_monomial_rejects_repeats():
    with pytest.raises(ValueError):
        CycleMonomial((1, 1, 2))


def test_cycle_polynomial(sl3):
    p = CycleMonomial((1, 2, 3)).polynomial(3)
    assert p.render(sl3.labels) == "e12*e23*e31"
    q = CycleMonomial((1, 3, 2)).polynomial(3)
    assert q.render(sl3.labels) == "e13*e21*e32"


def _edges_from_labels(labels):
    """(i, j) from e<i><j> or e<i>_<j>, None from h<i>."""
    out = []
    for label in labels:
        if label.startswith("h"):
            out.append(None)
        elif "_" in label:
            i, j = label[1:].split("_")
            out.append((int(i), int(j)))
        else:
            out.append((int(label[1]), int(label[2])))
    return out


def test_coordinate_edges_agree_with_labels():
    for n in range(2, 13):
        alg = builtin_sl(n)
        for separator in ("", "_"):
            if n >= 10 and not separator:
                continue  # e111 is ambiguous: from sl(10) on, only e1_11 exists
            labelled = LieAlgebra(
                name=alg.name,
                dim=alg.dim,
                labels=tuple(_sl_labels(n, separator)),
                structure=alg.structure,
                cartan_indices=alg.cartan_indices,
            )
            edges = _coordinate_edges(labelled)
            assert list(edges) == _edges_from_labels(labelled.labels)
            assert edges.count(None) == n - 1


def test_coordinate_edges_need_the_sl_layout(sl2):
    renamed = LieAlgebra(
        name="x",
        dim=3,
        labels=("a", "b", "c"),
        structure=sl2.structure,
        cartan_indices=sl2.cartan_indices,
    )
    with pytest.raises(ValueError, match="built-in sl"):
        balance_check(Monomial(((1, 1),)), renamed)


def test_cycle_polynomial_matches_index_arithmetic():
    for n in range(2, 6):
        for length in range(2, n + 1):
            for cyc in all_cycles(n, length):
                assert cyc.polynomial(n) == reference_cycle_polynomial(cyc, n)
    with pytest.raises(ValueError, match="beyond n=3"):
        CycleMonomial((1, 4)).polynomial(3)


def test_balance_examples(sl3):
    assert balance_check(mono("e12*e23*e31", sl3), sl3)
    assert balance_check(mono("e12*e21", sl3), sl3)
    assert balance_check(mono("e12^2*e21^2", sl3), sl3)
    assert balance_check(mono("h1^2*h2", sl3), sl3)  # Cartan factors are weightless
    assert balance_check(mono("h1*e13*e31", sl3), sl3)
    assert not balance_check(mono("e12", sl3), sl3)
    assert not balance_check(mono("e12*e13*e21", sl3), sl3)


def test_balance_equals_torus_invariance_exhaustively(sl3):
    """Balance must coincide with kernel invariance monomial by monomial."""
    cart = cartan_subalgebra(sl3)
    for deg in (1, 2, 3):
        for combo in combinations_with_replacement(range(8), deg):
            exps = {}
            for v in combo:
                exps[v] = exps.get(v, 0) + 1
            m = Monomial(exps.items())
            p = Polynomial(8, {m: F(1)})
            assert balance_check(m, sl3) == is_invariant(sl3, cart, p)


def test_cycle_decompose_examples(sl3):
    g = ExponentGraph.from_monomial(mono("e12*e21", sl3), sl3)
    assert [c.indices for c in cycle_decompose(g)] == [(1, 2)]
    g2 = ExponentGraph.from_monomial(mono("e12^2*e21^2", sl3), sl3)
    assert [c.indices for c in cycle_decompose(g2)] == [(1, 2), (1, 2)]
    g3 = ExponentGraph.from_monomial(mono("e12*e23*e31", sl3), sl3)
    assert [c.indices for c in cycle_decompose(g3)] == [(1, 2, 3)]
    empty = ExponentGraph.from_monomial(mono("h1^2", sl3), sl3)
    assert cycle_decompose(empty) == []


def test_cycle_decompose_reassembles_every_balanced_monomial():
    """For every balanced pure-edge monomial the cycle product is the input."""
    for n in (3, 4):
        alg = builtin_sl(n)
        edge_vars = [v for v, e in enumerate(_coordinate_edges(alg)) if e is not None]
        max_deg = 4 if n == 4 else 6
        for deg in range(1, max_deg + 1):
            for combo in combinations_with_replacement(edge_vars, deg):
                exps = {}
                for v in combo:
                    exps[v] = exps.get(v, 0) + 1
                m = Monomial(exps.items())
                if not balance_check(m, alg):
                    continue
                graph = ExponentGraph.from_monomial(m, alg)
                product = Polynomial.one(alg.dim)
                for cyc in cycle_decompose(graph):
                    product = product * cyc.polynomial(n)
                assert product == Polynomial(alg.dim, {m: F(1)})


def test_all_cycles(sl3):
    assert [c.indices for c in all_cycles(3, 2)] == [(1, 2), (1, 3), (2, 3)]
    assert [c.indices for c in all_cycles(3, 3)] == [(1, 2, 3), (1, 3, 2)]
    assert len(all_cycles(4, 3)) == 8
    assert len(all_cycles(4, 4)) == 6


def test_census_counts():
    assert len(enumerate_cycle_generators(2).generators) == 2
    assert len(enumerate_cycle_generators(3).generators) == 7
    assert len(enumerate_cycle_generators(4).generators) == 23


def test_census_is_counted_before_it_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(cycles, "all_cycles", lambda n, length: built.append(length) or [])
    assert len(enumerate_cycle_generators(9).generators) == 8  # within budget
    assert built == list(range(2, 10))
    built.clear()
    for n, count in ((10, 1112073), (11, 10976173), (12, 119481284)):
        with pytest.raises(BudgetExceededError, match=f"has {count} cycles"):
            enumerate_cycle_generators(n)
    assert built == []


def test_census_matches_kernel_pipeline(sl2, sl2_torus):
    cyc = enumerate_cycle_generators(2)
    assert [g.poly for g in cyc.generators] == [g.poly for g in sl2_torus.generators]


def test_census_generators_are_invariant(sl4):
    cart = cartan_subalgebra(sl4)
    for g in enumerate_cycle_generators(4).generators:
        assert is_invariant(sl4, cart, g.poly)
        assert balance_check(next(iter(g.poly.terms)), sl4)


def test_census_degree_profile():
    degs = enumerate_cycle_generators(4).degrees()
    assert degs.count(1) == 3  # Cartan coordinates
    assert degs.count(2) == 6  # two-cycles
    assert degs.count(3) == 8  # oriented three-cycles
    assert degs.count(4) == 6  # oriented four-cycles


def test_phi_exponent():
    assert phi_exponent(4, 2) == 1
    assert phi_exponent(4, 3) == 2
    assert phi_exponent(4, 4) == 2
    assert phi_exponent(3, 3) == 1
    assert phi_exponent(2, 2) == 1


def test_relation_families_all_pass():
    for n in (2, 3, 4):
        rep = relation_families_check(n)
        assert {r.family for r in rep.results} == {"i", "ii", "iii"}
        for r in rep.results:
            assert r.failures == []
            if n == 2 and r.family == "ii":
                assert r.skipped
            else:
                assert r.instances_checked > 0


def test_relation_family_counts_sl3():
    rep = relation_families_check(3)
    by = {r.family: r for r in rep.results}
    assert by["i"].instances_checked == 12
    assert by["ii"].instances_checked == 1
    assert by["iii"].instances_checked == 2
    assert by["ii"].convention


def test_oracle_cross_check(sl2, sl3):
    rep2 = oracle_cross_check(2, 4)
    assert [(d.degree, d.balanced_count, d.kernel_dim) for d in rep2.per_degree] == [
        (1, 1, 1),
        (2, 2, 2),
        (3, 2, 2),
        (4, 3, 3),
    ]
    assert all(d.spans_equal for d in rep2.per_degree)
    rep3 = oracle_cross_check(3, 4)
    assert all(d.spans_equal for d in rep3.per_degree)
    assert all(d.balanced_count == d.kernel_dim for d in rep3.per_degree)
    assert [d.kernel_dim for d in rep3.per_degree][:3] == [2, 6, 12]


def test_oracle_cross_check_sl10():
    # two-digit indices: the e1_10 label form
    assert oracle_cross_check(10, 2).all_equal


@pytest.mark.parametrize("n, k_max", [(2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (10, 2)])
def test_balanced_walk_matches_filter(n, k_max):
    alg = builtin_sl(n)
    walked = cycles._balanced_keys(alg, k_max)
    assert walked[0] == [0]
    for k in range(1, k_max + 1):
        assert len(set(walked[k])) == len(walked[k])
        assert sorted(walked[k]) == reference_balanced_keys(alg, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_relation_families_match_products(n):
    assert relation_families_check(n).to_json() == reference_relation_families(n).to_json()


def test_oracle_fails_on_a_dropped_kernel_invariant(monkeypatch):
    invariant_basis = cycles.invariant_basis
    monkeypatch.setattr(
        cycles, "invariant_basis", lambda alg, sub, k: invariant_basis(alg, sub, k)[1:]
    )
    rep = oracle_cross_check(3, 2)
    assert [(d.spans_equal, d.balanced_count, d.kernel_dim) for d in rep.per_degree] == [
        (False, 2, 1),
        (False, 6, 5),
    ]


def test_family_three_fails_on_a_wrong_exponent(monkeypatch):
    monkeypatch.setattr(cycles, "phi_exponent", lambda n, k: phi_exponent(n, k) + 1)
    by = {r.family: r for r in relation_families_check(4).results}
    assert by["iii"].failures == ["k = 2", "k = 3", "k = 4"]
    assert by["i"].passed and by["ii"].passed


def test_weyl_images_transposition(sl3):
    imgs = sl_weyl_images(sl3, (1, 0, 2))
    rendered = [q.render(sl3.labels) for q in imgs]
    assert rendered == ["-h1", "h1 + h2", "e21", "e23", "e12", "e13", "e32", "e31"]


def test_weyl_images_match_index_arithmetic():
    for n in (3, 4):
        alg = builtin_sl(n)
        for sigma in permutations(range(n)):
            assert sl_weyl_images(alg, sigma) == reference_sl_weyl_images(alg, sigma)
    sl10 = builtin_sl(10)
    for sigma in ((1, 0) + tuple(range(2, 10)), tuple(range(8)) + (9, 8)):
        assert sl_weyl_images(sl10, sigma) == reference_sl_weyl_images(sl10, sigma)


def test_weyl_permute_is_a_poisson_map(sl3):
    import random

    from helpers import random_polynomial
    from poischain import lie_poisson_bracket

    rng = random.Random(23)
    sigma = (2, 0, 1)
    for _ in range(8):
        p = random_polynomial(rng, 8, max_degree=2)
        q = random_polynomial(rng, 8, max_degree=2)
        lhs = weyl_permute(sl3, lie_poisson_bracket(p, q, sl3), sigma)
        rhs = lie_poisson_bracket(
            weyl_permute(sl3, p, sigma), weyl_permute(sl3, q, sigma), sl3
        )
        assert lhs == rhs


def test_reynolds_average(sl2, sl3):
    h1 = parse_polynomial("h1", 3, sl2.labels)
    assert reynolds_average(sl2, h1).is_zero()
    p12 = parse_polynomial("e12*e21", 3, sl2.labels)
    assert reynolds_average(sl2, p12) == p12
    avg = reynolds_average(sl3, parse_polynomial("e12*e21", 8, sl3.labels))
    for sigma in permutations(range(3)):
        assert weyl_permute(sl3, avg, sigma) == avg


def test_reynolds_sl2_normalizer_generators(sl2, sl2_torus):
    ns = reynolds_sl(sl2, sl2_torus, 3)
    assert ns.labels() == ["w2_1", "w2_2"]
    assert [g.poly.render(sl2.labels) for g in ns.generators] == ["h1^2", "e12*e21"]
    assert all(not g.indecomposable for g in ns.generators)
