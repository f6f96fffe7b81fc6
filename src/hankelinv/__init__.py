"""Structured Toeplitz/Hankel calculus and symbol inverse problems.

The package recovers the unique analytic matrix symbol g whose Hankel
operator sends the coefficient columns of a data quadruple
{alpha, beta, gamma, delta} to unit columns, with exact closed-form
solvers for polynomial data, windowed operator solvers, factorization
solvers and a full diagnostic suite for the solvability conditions.
"""

from .series import (
    LaurentPoly,
    SubspaceTag,
    lp_mul,
    poly_gap,
)
from .structured import OpKind, build, tri_toeplitz_solve
from .inversion import (
    DataSet,
    build_m,
    build_omega,
    check_lemma_suite,
    identity_residual_triple,
    inverse_margin,
    verify_inverse,
)
from .diagnostics import (
    CheckEntry,
    CheckReport,
    check_identities,
    check_strict_contraction,
    check_zero_locations,
    hankel_norm,
    inclusion_residuals,
    verify_solution,
)
from .solver import (
    DEFAULT_TOL,
    SolveReport,
    solve_all,
    solve_dual_phi,
    solve_factorization,
    solve_polynomial,
    solve_truncated,
)
from .oracle import Fixture, random_fixture, synthesize_data
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CheckEntry",
    "CheckReport",
    "DEFAULT_TOL",
    "DataSet",
    "Fixture",
    "LaurentPoly",
    "OpKind",
    "SolveReport",
    "SubspaceTag",
    "build",
    "build_m",
    "build_omega",
    "check_identities",
    "check_lemma_suite",
    "check_strict_contraction",
    "check_zero_locations",
    "errors",
    "hankel_norm",
    "identity_residual_triple",
    "inclusion_residuals",
    "inverse_margin",
    "lp_mul",
    "poly_gap",
    "random_fixture",
    "solve_all",
    "solve_dual_phi",
    "solve_factorization",
    "solve_polynomial",
    "solve_truncated",
    "synthesize_data",
    "tri_toeplitz_solve",
    "verify_inverse",
    "verify_solution",
]
