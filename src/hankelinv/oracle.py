"""Forward synthesis and random fixtures: the ground-truth generators.

``synthesize_data`` inverts the direction of the solvers: given a
polynomial plus symbol g it produces the unique data set for which g is
the solution, by solving the two finite corner systems directly.  Because
a degree-m Hankel operator is supported on an (m+1) x (m+1) block corner,
the corner systems are the *exact* infinite systems, not truncations -
which is what makes the oracle exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import ShapeError, SynthesisError
from .inversion import DataSet, build_omega
from .series import LaurentPoly


@dataclass
class Fixture:
    """A generating symbol, its synthesized data and provenance."""

    g: LaurentPoly
    data: DataSet
    note: str = ""


def synthesize_data(g: LaurentPoly, note: str = "") -> Fixture:
    """Data set whose unique solution is the polynomial plus symbol g.

    Solves the two corner systems for the a/c and b/d coefficient columns
    on the minimal (m+1)-window.  Raises
    :class:`~hankelinv.errors.SynthesisError` when the corner operator is
    singular (Hankel norm 1), in which case no such data set with
    invertible corners exists at this window.
    """
    if not g.is_plus:
        raise ShapeError("the generating symbol must be supported on degrees >= 0")
    p, q = g.rows, g.cols
    m = 0 if g.is_zero else g.hi
    om = build_omega(g, m + 1)
    dim_p, dim_q = (m + 1) * p, (m + 1) * q
    # Omega's singular values are 1 +- s_i(H), and 1s when H is not square
    s = np.linalg.svd(om[:dim_p, dim_p:], compute_uv=False)
    if np.abs(1.0 - s).min(initial=1.0 if p != q else np.inf) < 1e-12 * (1.0 + s[0]):
        raise SynthesisError(
            "corner operator is singular; the symbol admits no data set "
            "with invertible corners at this window"
        )
    rhs = np.zeros((dim_p + dim_q, p + q), dtype=complex)
    rhs[:p, :p] = np.eye(p)          # first plus unit column
    rhs[-q:, p:] = np.eye(q)         # last minus unit column
    sol = np.linalg.solve(om, rhs)
    # the solution's plus half holds the row [alpha beta] on degrees 0..m,
    # its minus half the row [gamma delta] on degrees -m..0
    a, c = sol[:dim_p].reshape(m + 1, p, p + q), sol[dim_p:].reshape(m + 1, q, p + q)
    data = DataSet(
        alpha=LaurentPoly.from_run(0, a[..., :p]), beta=LaurentPoly.from_run(0, a[..., p:]),
        gamma=LaurentPoly.from_run(-m, c[..., :p]), delta=LaurentPoly.from_run(-m, c[..., p:]),
    )

    id_res = diagnostics.check_identities(data, tol=1e-12)
    incl = diagnostics.inclusion_residuals(data, g)
    # a NaN entry or residual was not measured, and refuses like a large one
    if not (id_res.passed and all(r <= 1e-12 for r in incl)):
        raise SynthesisError("synthesized data failed its own consistency checks")
    return Fixture(g=g, data=data, note=note)


def random_fixture(p: int, q: int, m: int, target_norm: float, rng_seed: int) -> Fixture:
    """Deterministic random fixture with a prescribed Hankel norm.

    Coefficients are complex Gaussian draws rescaled so that the Hankel
    norm of g equals ``target_norm`` exactly (the norm is homogeneous in
    g).  ``target_norm`` must lie below 1 for the synthesis to exist; p
    and q must be at least 1 and the degree m at least 0.
    """
    if p < 1 or q < 1 or m < 0:
        raise ValueError(f"need p, q >= 1 and m >= 0, got p={p} q={q} m={m}")
    if not 0 <= target_norm < 1:
        raise ValueError("target_norm must lie in [0, 1)")
    rng = np.random.default_rng(rng_seed)
    note = f"random p={p} q={q} m={m} target={target_norm} seed={rng_seed}"
    if target_norm == 0:
        return synthesize_data(LaurentPoly.zero(p, q), note=note)
    # per degree, the real parts are drawn before the imaginary ones
    draws = rng.standard_normal((m + 1, 2, p, q))
    g = LaurentPoly.from_run(0, (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2))
    norm = diagnostics.hankel_norm(g)
    g = (target_norm / norm) * g
    return synthesize_data(g, note=note)
