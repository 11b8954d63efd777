"""Exact-arithmetic workbench for Novikov-coefficient equivariant chain
complexes, Cartan-style connection calculus, quantum connections, the
characteristic-2 finite analogue, and the supporting Morse-flow numerics."""

from .novikov import (
    CoefficientError,
    CoefficientRing,
    ExponentLattice,
    InputError,
    InternalError,
    InversionError,
    LatticeMismatch,
    NovikovElem,
    NovikovError,
    ScalarSetup,
    USeries,
    dq,
    invert_truncated,
    useries_du,
    useries_udq,
)
from .linalg import Reduction, UndeterminedError, row_reduce, solve
from .complexes import (
    DecompositionReport,
    GeneratorInfo,
    GradedComplex,
    GradingKind,
    OperatorMatrix,
    cohomology_over_novikov_field,
    les_consistency,
    mapping_cone,
    u_module_decomposition,
    validate_complex,
)
from .cartan import (
    CartanData,
    EquivariantDifferential,
    gamma_q,
    gamma_u,
    identity_report,
    induced_connection,
    lambda_components,
    reduce_mod,
    solve_iota,
)
from .quantum import (
    QuantumRing,
    forbidden_summand_check,
    projective_space_model,
    uq_identity_check,
)
from .finite2 import Z2CartanData, assemble_and_check, verify_relations

__version__ = "0.1.0"
