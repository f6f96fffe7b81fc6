"""The recovery routes: the analytic symbol g from a data set.

* ``solve_polynomial`` - exact closed-form coefficients from the b-side
  of ``inversion``, with the gap to the c-side reported;
* ``solve_factorization`` - the analytic-factorization view of the same
  two sides: the alpha path is the c-side, the delta path the b-side, each
  available whenever its determinant has no zeros on the wrong side of
  the circle;
* ``solve_dual_phi`` - the dual minus-side symbol phi, which is g* of the
  polynomial route;
* ``solve_truncated`` - the independent operator route: solve the
  windowed systems M11 x = b and M22 y = c and read the coefficients off
  the columns, with smallest-singular-value certificates for the
  injectivity condition.  Its default window of m+1 blocks is exact,
  because every factor of M11 and M22 is a triangular block Toeplitz
  matrix that commutes with the window projection.

Every route passes the same identity gate first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .errors import DataIdentityError, FactorizationUnavailableError, InjectivityError
from .inversion import (
    DEFAULT_TOL,
    IDENTITY_NAMES,
    DataSet,
    b_side,
    build_m,
    c_side,
    identity_residual_triple,
)
from .series import LaurentPoly, poly_gap
from .structured import tri_toeplitz_solve  # noqa: F401  benchmark/tracer.py patches it by this name

REFUSAL_FACTOR = 100.0


@dataclass
class SolveReport:
    """Recovered symbol plus its residual ledger."""

    g: LaurentPoly
    method: str
    residual_identities: tuple
    residual_inclusions: tuple
    cross_method_gap: float = None
    tol: float = DEFAULT_TOL
    flags: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return max(self.residual_inclusions) <= self.tol


# -- shared gates -------------------------------------------------------------


def _identity_gate(data: DataSet, tol: float, flags: list):
    """Refuse on gross identity violations, flag moderate ones."""
    res = identity_residual_triple(data)
    worst_val = max(res)
    worst_name = IDENTITY_NAMES[res.index(worst_val)]
    if worst_val > REFUSAL_FACTOR * tol:
        raise DataIdentityError(
            f"data identities violated: {worst_name} residual {worst_val:.3e} "
            f"exceeds {REFUSAL_FACTOR:.0f} x tol = {REFUSAL_FACTOR * tol:.3e}",
            residuals=res,
            worst=worst_name,
        )
    if worst_val > tol:
        flags.append(f"identity residual {worst_name} = {worst_val:.3e} above tol")
    return res


def _report(data, g, method, id_res, tol, flags, details):
    incl = diagnostics.inclusion_residuals(data, g)
    return SolveReport(
        g=g,
        method=method,
        residual_identities=tuple(id_res),
        residual_inclusions=incl,
        tol=tol,
        flags=flags,
        details=details,
    )


# -- polynomial route ----------------------------------------------------------


def solve_polynomial(data: DataSet, tol: float = DEFAULT_TOL) -> SolveReport:
    """Closed-form coefficients of g for polynomial data of degree <= m.

    Both triangular routes are computed and their gap is recorded; the
    b-side result is returned.
    """
    data.corner_inverses()
    flags = []
    id_res = _identity_gate(data, tol, flags)
    g = b_side(data)
    details = {"two_sided_gap": poly_gap(g, c_side(data)), "degree_bound": data.m}
    return _report(data, g, "polynomial", id_res, tol, flags, details)


# -- truncated operator route --------------------------------------------------


def _hankel_window_stats(mat, p, q, n_blocks):
    """Mean diagonal blocks and the spread around them for a window matrix.

    In window coordinates the Hankel operator is constant along diagonals;
    returns (run, defect), where run[k] is the mean of the diagonal i - j =
    k - (N - 1), from the bottom-left corner block to the top-right one.
    """
    N = n_blocks
    view = mat.reshape(N, p, N, q).transpose(0, 2, 1, 3)  # view[i, j] is block (i, j)
    i = np.arange(N)
    diag = i[:, None] - i + N - 1  # run index of block (i, j)
    run = np.zeros((2 * N - 1, p, q), dtype=complex)
    np.add.at(run, diag, view)
    run /= (N - np.abs(np.arange(1 - N, N)))[:, None, None]
    return run, float(np.max(np.abs(view - run[diag])))


def solve_truncated(data: DataSet, n_blocks: int = None, tol: float = DEFAULT_TOL) -> SolveReport:
    """Window solve of M11 x = b and M22 y = c.

    The default window is ``data.extent()`` = m+1 blocks, and on it the
    solve is exact, not an approximation:

    * M11 = T+(alpha) a0^-1 T+(alpha)* - T+(z beta) d0^-1 T+(z beta)*, and
      both T+ factors are lower triangular block Toeplitz.  The window
      projection P_N therefore satisfies P_N T T* P_N = (P_N T P_N)(P_N T*
      P_N), so the N-block window of M11 is exactly the compression of M11,
      for every N.  M22, built from the upper triangular T-(delta) and
      T-(gamma / z), is exact in the same way, and so is M12, a Hankel
      window times the adjoint of such an upper triangular factor.
    * For polynomial data of degree m, g has degree <= m, so the solution
      column x = -(g_0, g_1, ...) lies in the first m+1 blocks, and the
      window system restricted to them is the full system.

    A window wider than m+1 gives the same g with zero blocks beyond
    degree m (``tail_beyond_degree`` reports them); a narrower window
    cannot see the data coefficients at degrees >= N, and their summed
    largest entries are reported as ``tail_mass_uncertified`` (0 for
    N >= m+1).

    The smallest singular values of the M11 and M22 windows are the
    injectivity certificates; below ``tol`` times the window dimension the
    solve refuses.  For solvable data the M11 window is a compression of
    (I - H H*)^-1 >= I, so its smallest singular value is >= 1 up to
    rounding, and M22 likewise.  The report also carries the gap between the two columns
    and the Hankel-structure defect of -M11^-1 M12.
    """
    data.corner_inverses()
    flags = []
    id_res = _identity_gate(data, tol, flags)
    m = data.m
    N = data.extent() if n_blocks is None else int(n_blocks)
    p, q = data.p, data.q

    big = build_m(data, N)
    n = N * p
    m11, m12, m22 = big[:n, :n], big[:n, n:], big[n:, n:]
    s11 = float(np.linalg.svd(m11, compute_uv=False)[-1])
    s22 = float(np.linalg.svd(m22, compute_uv=False)[-1])
    for name, sval, dim in (("M11", s11, N * p), ("M22", s22, N * q)):
        if sval <= tol * dim:
            raise InjectivityError(
                f"no solution: windowed {name} is not one-to-one "
                f"(smallest singular value {sval:.3e} <= {tol * dim:.3e})",
                sigma_min=sval,
                which=name,
            )

    # one M11 solve for the beta column, a window of the row A, and M12 side by side
    a, c = data.rows()
    sol = np.linalg.solve(m11, np.hstack([a.coeff_run(0, N)[:, :, p:].reshape(n, q), m12]))
    x, hmat = sol[:, :q], -sol[:, q:]
    g_run = -x.reshape(N, p, q)
    tail = float(np.abs(g_run[m + 1 :]).max(initial=0.0))
    g = LaurentPoly.from_run(0, g_run)

    # y block w is the adjoint of the coefficient of degree N - 1 - w
    y = np.linalg.solve(m22, c.coeff_run(1 - N, N)[:, :, :p].reshape(N * q, p))
    g2 = LaurentPoly.from_run(0, (-y.reshape(N, q, p)[::-1]).conj().transpose(0, 2, 1))

    hrun, hdefect = _hankel_window_stats(hmat, p, q, N)
    g3 = LaurentPoly.from_run(0, hrun)

    # data coefficients at |degree| >= N, all of which lie within m of 0
    count = max(m + 1 - N, 0)
    tails = (data.alpha.coeff_run(N, count), data.beta.coeff_run(N, count),
             data.gamma.coeff_run(-m, count), data.delta.coeff_run(-m, count))
    peaks = np.concatenate([np.abs(t).max(axis=(1, 2), initial=0.0) for t in tails])
    tail_mass = 0.0
    for peak in peaks.tolist():  # summed in degree order, one symbol after another
        tail_mass += peak

    details = {
        "column_gap": poly_gap(g, g2),
        "hankel_structure_defect": hdefect,
        "hankel_column_gap": poly_gap(g, g3),
        "sigma_min_m11": s11,
        "sigma_min_m22": s22,
        "injectivity_threshold": (tol * N * p, tol * N * q),
        "tail_beyond_degree": tail,
        "tail_mass_uncertified": tail_mass,
        "window": N,
    }
    return _report(data, g, "truncated", id_res, tol, flags, details)


# -- factorization route -------------------------------------------------------


def solve_factorization(data: DataSet, tol: float = DEFAULT_TOL) -> SolveReport:
    """Analytic-factorization solve; each side gated by zero locations.

    The alpha path computes -(alpha^-* gamma*)_+, which is the c-side
    solve of the polynomial route; the delta path is its b-side solve of
    (g delta + beta)_+ = 0.  Each is one lower triangular solve.  When both
    paths clear their determinant gate their gap is reported.
    """
    data.corner_inverses()
    flags = []
    id_res = _identity_gate(data, tol, flags)
    zeros = diagnostics.check_zero_locations(data)
    verdict_a = zeros.entry("alpha_det_zeros").verdict
    verdict_d = zeros.entry("delta_det_zeros").verdict

    g1 = g2 = None
    if verdict_a == "pass":
        g1 = c_side(data)
    if verdict_d == "pass":
        g2 = b_side(data)

    if g1 is None and g2 is None:
        raise FactorizationUnavailableError(
            "both factorization paths unavailable: "
            f"alpha zeros {verdict_a}, delta zeros {verdict_d}"
        )
    details = {
        "alpha_path": verdict_a,
        "delta_path": verdict_d,
    }
    if g1 is not None and g2 is not None:
        details["path_gap"] = poly_gap(g1, g2)
    g = g1 if g1 is not None else g2
    if g1 is None or g2 is None:
        flags.append("only one factorization path available")
    return _report(data, g, "factorization", id_res, tol, flags, details)


# -- the dual minus-side symbol ------------------------------------------------


def solve_dual_phi(data: DataSet, tol: float = DEFAULT_TOL) -> LaurentPoly:
    """The unique minus-side polynomial paired with the b/d data.

    phi satisfies delta + phi beta - e_q in the strictly-plus class and
    phi* delta + beta in the strictly-minus class.  With phi* = g the
    second is the b-side system (g delta + beta)_+ = 0, so phi = g* for the
    g of ``solve_polynomial``, under that route's refusals.
    """
    return solve_polynomial(data, tol=tol).g.adjoint()


# -- method aggregation --------------------------------------------------------


def solve_all(data: DataSet, n_blocks: int = None, tol: float = DEFAULT_TOL):
    """Run every applicable route and report the largest pairwise gap.

    Returns (reports dict, cross_method_gap, notes).  A factorization
    route blocked by its determinant gate is skipped with a note rather
    than failing the whole solve.
    """
    reports = {}
    notes = []
    reports["polynomial"] = solve_polynomial(data, tol=tol)
    reports["truncated"] = solve_truncated(data, n_blocks=n_blocks, tol=tol)
    try:
        reports["factorization"] = solve_factorization(data, tol=tol)
    except FactorizationUnavailableError as exc:
        notes.append(str(exc))
    gap = 0.0
    names = sorted(reports)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            gap = max(gap, poly_gap(reports[n1].g, reports[n2].g))
    for rep in reports.values():
        rep.cross_method_gap = gap
    return reports, gap, notes
