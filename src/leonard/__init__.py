"""Exact construction and machine verification of Leonard systems and the
self-duality operator T, over the rationals or GF(p)."""

from .errors import (
    BudgetExceeded,
    DegenerateSplit,
    DuplicateEigenvalue,
    ExhaustedTrials,
    InconsistentArray,
    LeonardError,
    NonUniqueForm,
    NotALeonardPair,
    NotSelfDual,
    SingularBasis,
    SingularMatrix,
    UnknownBasis,
    ZeroInnerProduct,
)
from .fields import Field, PrimeFieldElement
from .linalg import (
    Matrix,
    Vector,
    eval_root_product,
    is_irreducible_tridiagonal,
    lagrange_idempotent,
    transition_matrix,
)
from .report import Check, VerificationReport
from .systems import (
    LeonardSystem,
    ParameterArray,
    build_system,
    certify,
    complete_parameter_array,
    d4_apply,
    d4_orbit,
    d4_reduce,
    extract_parameter_array,
    nu_scalars,
    solve_gram,
    split_projectors,
    standard_identity_suite,
    trace_products,
    trace_products_closed_form,
    verify_axioms,
)
from .duality import (
    AnchorVectors,
    DualityBundle,
    build_24_bases,
    build_decomposition,
    build_duality_bundle,
    build_flag,
    choose_anchor_vectors,
    expected_matrix_of_T,
    is_self_dual,
    matrix_of_T,
    verify_duality_suite,
    verify_geometry_suite,
    verify_matrix_of_T,
    verify_T_on_bases,
    verify_transition_relations,
)
from .search import SearchConfig, enumerate_prime_field, random_rational, run_search

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
