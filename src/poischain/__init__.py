"""Exact invariant subalgebras and superintegrable chains on Lie coalgebras.

Public surface: Lie algebra construction and validation, the sparse rational
polynomial engine with the Lie-Poisson bracket, degreewise invariant
(commutant) generation, Casimir and argument-shift families, inclusion-chain
verification, cycle-monomial combinatorics for sl(n), and a Runge-Kutta flow
checker.
"""

from .algebra import (
    BilinearForm,
    ConfigurationError,
    LieAlgebra,
    SubalgebraSpec,
    builtin_sl,
    cartan_subalgebra,
    commutator_rows,
    direct_sum,
    dual_transport,
    full_subalgebra,
    in_centralizer,
    is_regular,
    killing_form,
    orbit_dimension,
    span_subalgebra,
    validate_algebra,
    validate_subalgebra,
)
from .casimir_mf import (
    CasimirSet,
    MFAlgebra,
    casimir_count_check,
    casimirs_by_kernel,
    mf_commutativity_check,
    mf_generators,
    mf_inclusion_check,
    mf_rank_check,
    sandwich_check,
    trace_casimirs_sln,
)
from .chains import (
    ChainFormationError,
    ChainReport,
    ChainSpec,
    base_center_check,
    base_existence_verdict,
    fiber_ideal_generators,
    j_map_casimir_check,
    leaf_dimension,
    mf_chain,
    moment_map_base,
    normalizer_chain_sln,
    torus_chain,
    trdeg,
    verify_chain,
)
from .commutant import (
    BudgetExceededError,
    Generator,
    GeneratorSet,
    MembershipResult,
    bracket_closure_check,
    generate,
    indecomposables,
    invariant_basis,
    is_invariant,
    membership,
    monomial_basis,
    poisson_center_basis,
    relation_basis,
)
from .cycles import (
    CycleMonomial,
    ExponentGraph,
    balance_check,
    cycle_decompose,
    enumerate_cycle_generators,
    oracle_cross_check,
    relation_families_check,
    reynolds_average,
    reynolds_sl,
)
from .flow import (
    FlowDivergenceError,
    FlowProblem,
    FlowResult,
    hamiltonian_vector_field,
    integrate,
    observed_order,
)
from .poly import (
    Monomial,
    Polynomial,
    VectorField,
    dump_json,
    apply_vector_field,
    gradient_rows,
    hamiltonian_field,
    lie_poisson_bracket,
    parse_polynomial,
    render_polynomial,
)
from .sampling import DEFAULT_SEED, generic_jacobian_rank, generic_rank, sample_points

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
