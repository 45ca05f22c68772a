"""Exact K-theoretic invariants of finite-dimensional Jordan triple systems.

Everything runs over the Gaussian rationals with no floating point: matrix
factors and spin factors are embedded into their enveloping TROs, the grids
spanning them are constructed and machine-verified, and isomorphism is decided
from double-scaled ordered K0-groups plus the set of grid classes.
"""

from .exact import (
    HALF,
    I,
    Matrix,
    ONE,
    Scalar,
    ShapeError,
    ZERO,
    dagger,
    direct_sum,
    identity,
    kron,
    mat,
    mat_mul,
    matrix_from_strings,
    matrix_to_strings,
    matrix_unit,
    parse_scalar,
    rank,
    span_dim,
    zeros,
)
from .tro import (
    CliffordElement,
    LiftError,
    SpaceMismatch,
    TroElement,
    TroHom,
    TroSpace,
    apply_hom,
    compose_homs,
    identity_hom,
    is_tripotent,
    jordan_triple,
    left_dims,
    lift_hom,
    linking_dims,
    parse_space,
    range_projection,
    right_dims,
    ternary_product,
    zero_element,
)
from .ktheory import (
    DoubleScaledGroup,
    K0Class,
    ProjectionError,
    double_scaled_group,
    dsg_isomorphic,
    k0_class_of_projection,
)
from .cartan import (
    CartanDescriptor,
    CoordinateError,
    EXCEPTIONAL_16,
    EXCEPTIONAL_27,
    ExceptionalFactorError,
    ParseError,
    SpinSystem,
    TripleSpec,
    UnsupportedFactorError,
    b_matrix,
    canonicalize_factor,
    canonicalize_spec,
    embed,
    enveloping_tro,
    intrinsic_dim,
    is_exceptional,
    parse_triple_spec,
)
from .grids import (
    Grid,
    GridReport,
    grid_for,
    verify_grid,
)
from .invariant import (
    KGridInvariant,
    UnknownFactorError,
    Verdict,
    classify,
    classify_invariants,
    gamma,
    gamma_report,
    invariants_isomorphic,
    k_grid_invariant,
    published_gamma,
    recover_factors,
)

__version__ = "0.1.0"
