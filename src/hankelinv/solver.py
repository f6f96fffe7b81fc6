"""Recovery of the analytic symbol g from a data set.

Two independent computations stand under every polynomial-side answer:
the b-side solve (a unit triangular block Toeplitz solve driven by the
delta coefficients, followed by the beta product) and the c-side solve
(an upper triangular system driven by the alpha and gamma coefficients).

* ``solve_polynomial`` - exact closed-form coefficients from the b-side,
  with the gap to the c-side reported;
* ``solve_factorization`` - the analytic-factorization view of the same
  two sides: the alpha path is the c-side, the delta path the b-side, each
  available whenever its determinant has no zeros on the wrong side of
  the circle;
* ``solve_dual_phi`` - the dual minus-side symbol, phi = g* for the b-side
  g;
* ``solve_truncated`` - the independent operator route: solve the
  windowed systems M11 x = b and M22 y = c and read the coefficients off
  the columns, with smallest-singular-value certificates for the
  injectivity condition.  Its default window of m+1 blocks is exact,
  because every factor of M11 and M22 is a triangular block Toeplitz
  matrix that commutes with the window projection.

``tri_toeplitz_solve`` is the shared structured kernel: an O(m^2)
chunked solver for triangular block Toeplitz systems of any block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .errors import (
    DataIdentityError,
    FactorizationUnavailableError,
    InjectivityError,
    ShapeError,
    SingularBlockError,
)
from .inversion import (
    DataSet,
    build_m,
    identity_residual_triple,
    minus_coeff_column,
    plus_coeff_column,
)
from .series import LaurentPoly, poly_gap
from .structured import _block_toeplitz

DEFAULT_TOL = 1e-10
REFUSAL_FACTOR = 100.0
_IDENTITY_NAMES = ("identity_a", "identity_d", "identity_cross")


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


# -- triangular block Toeplitz kernel ----------------------------------------


def _stack_blocks(blocks, what):
    """Stack a sequence of equally shaped blocks into one (m, k, r) array."""
    try:
        arr = np.asarray(blocks, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{what} blocks must share one shape: {exc}") from exc
    if arr.ndim == 1:       # sequence of scalars
        arr = arr[:, None, None]
    elif arr.ndim == 2:     # sequence of 1-d blocks: treat as columns
        arr = arr[:, :, None]
    elif arr.ndim != 3:
        raise ShapeError(f"{what} blocks must be matrices")
    if arr.size and not (
        np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))
    ):
        raise ValueError(f"{what} blocks must be finite")
    return arr


def _chunked_unit_lower(u, rhs, chunk=64):
    """Forward recursion for a block lower triangular Toeplitz system.

    ``u`` is (m, k, k) with u[0] = I, so the system matrix is unit lower
    triangular entry by entry; ``rhs`` is (m * k, r).  Work is O(m^2) block
    products, split into solves on ``chunk``-block diagonal pieces and
    block Toeplitz updates of the rows below them.  A system of one piece
    is one solve.  Otherwise every diagonal piece is the same unit lower
    block Toeplitz matrix, and so is its inverse: the first piece's solve
    also takes the unit columns, which give the inverse's first block
    column and with it the whole inverse, and each later piece's solve
    becomes one matrix product.
    """
    m, k = u.shape[0], u.shape[1]
    ln = min(chunk, m)
    pad = np.zeros_like(u[: ln - 1])
    lower = _block_toeplitz(np.concatenate([pad, u[:ln]]), ln)
    if ln == m:
        return np.linalg.solve(lower, rhs)
    sol = np.linalg.solve(lower, np.concatenate([np.eye(ln * k, k), rhs[: ln * k]], axis=1))
    inverse = _block_toeplitz(np.concatenate([pad, sol[:, :k].reshape(ln, k, k)]), ln)
    x = np.empty_like(rhs)
    x[: ln * k] = sol[:, k:]
    b = rhs.copy()
    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        w = e - s
        if s:
            x[s * k : e * k] = inverse[: w * k, : w * k] @ b[s * k : e * k]
        if e < m:
            # rows e..m-1 see the chunk through the blocks u[e-s+i-j]
            b[e * k :] -= _block_toeplitz(u[1 : m - s], w) @ x[s * k : e * k]
    return x


def tri_toeplitz_solve(coeff_blocks, rhs_blocks, orientation="lower"):
    """Solve a triangular block Toeplitz system by block recursion.

    Parameters
    ----------
    coeff_blocks : sequence of (k, k) arrays
        ``coeff_blocks[j]`` is the block on the j-th subdiagonal (lower)
        or j-th superdiagonal (upper); ``coeff_blocks[0]`` is the diagonal
        block and must be invertible.  For a lower system this is the
        first block column, for an upper system the first block row.
    rhs_blocks : sequence of (k, r) arrays
        Right-hand side block column; its length sets the system size.
    orientation : 'lower' or 'upper'

    Returns
    -------
    list of (k, r) arrays

    Notes
    -----
    Cost is O(m^2) block multiplies for every block size: the block rows
    are scaled by the inverse diagonal block, which leaves a unit lower
    triangular matrix solved chunk by chunk: the first chunk by one solve,
    each later chunk as one product with the inverse of the chunk matrix,
    computed once per call alongside that solve.  An upper
    system is solved by index reversal of the equivalent lower system.
    """
    if orientation not in ("lower", "upper"):
        raise ValueError(f"unknown orientation {orientation!r}")
    tt = _stack_blocks(coeff_blocks, "coefficient")
    if tt.shape[0] == 0:
        raise ShapeError("need at least the diagonal block")
    k = tt.shape[1]
    if tt.shape[2] != k:
        raise ShapeError("coefficient blocks must be square")
    B = _stack_blocks(rhs_blocks, "right-hand side")
    m = B.shape[0]
    if m == 0:
        return []
    if B.shape[1] != k:
        raise ShapeError(f"right-hand side blocks must have {k} rows")

    T = np.zeros((m, k, k), dtype=complex)
    T[: min(m, tt.shape[0])] = tt[:m]
    if orientation == "upper":
        B = B[::-1]

    if np.linalg.cond(T[0]) > 1e12:
        raise SingularBlockError("diagonal block of the triangular system is singular")

    # Scaling every block row by T0^-1 makes the diagonal blocks I.  One
    # solve over all blocks side by side costs far less than m small ones.
    r = B.shape[2]
    side = np.concatenate([T, B], axis=2).transpose(1, 0, 2).reshape(k, m * (k + r))
    side = np.linalg.solve(T[0], side).reshape(k, m, k + r).transpose(1, 0, 2)
    X = _chunked_unit_lower(side[:, :, :k], side[:, :, k:].reshape(m * k, r))
    X = X.reshape(m, k, r)
    if orientation == "upper":
        X = X[::-1]
    return [X[i] for i in range(m)]


# -- shared gates -------------------------------------------------------------


def _identity_gate(data: DataSet, tol: float, flags: list):
    """Refuse on gross identity violations, flag moderate ones."""
    res = identity_residual_triple(data)
    worst_val = max(res)
    worst_name = _IDENTITY_NAMES[res.index(worst_val)]
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


def _c_side_blocks(data: DataSet):
    """Coefficients from the upper triangular system driven by a and c."""
    m = data.m
    acols = data.alpha.coeff_run(0, m + 1).conj().transpose(0, 2, 1)
    # the right-hand side runs over gamma's degrees 0, -1, ..., -m
    rhs = -data.gamma.coeff_run(-m, m + 1)[::-1].conj().transpose(0, 2, 1)
    return tri_toeplitz_solve(acols, rhs, orientation="upper")


def _b_side_blocks(data: DataSet):
    """Coefficients from the d-driven unit solve followed by the b product."""
    m, q = data.m, data.q
    dcols = data.delta.coeff_run(-m, m + 1)[::-1]
    rhs = np.zeros((m + 1, q, q), dtype=complex)
    rhs[m] = np.eye(q)
    x = tri_toeplitz_solve(dcols, rhs, orientation="upper")
    e = np.array(x[::-1])  # e[s] solves the unit system at anti-diagonal position s
    # block k is -sum_s beta_{k+s} e[s]; the run's m zero blocks past beta_m end each sum
    win = np.lib.stride_tricks.sliding_window_view(data.beta.coeff_run(0, 2 * m + 1), m + 1, axis=0)
    return -np.einsum("kpqs,sqr->kpr", win, e)


def _b_side_g(data: DataSet) -> LaurentPoly:
    """The b-side coefficients as a symbol."""
    return LaurentPoly.from_run(0, _b_side_blocks(data))


def solve_polynomial(data: DataSet, tol: float = DEFAULT_TOL) -> SolveReport:
    """Closed-form coefficients of g for polynomial data of degree <= m.

    Both triangular routes are computed and their gap is recorded; the
    b-side result is returned.
    """
    data.corner_inverses()
    flags = []
    id_res = _identity_gate(data, tol, flags)
    gb = _b_side_blocks(data)
    gap = float(np.max(np.abs(gb - np.array(_c_side_blocks(data)))))
    g = LaurentPoly.from_run(0, gb)
    details = {"two_sided_gap": gap, "degree_bound": data.m}
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
    defect = 0.0
    run = np.empty((2 * N - 1, p, q), dtype=complex)
    for off in range(-(N - 1), N):
        # the blocks (i, j) with i - j = off, top to bottom
        stack = np.moveaxis(np.diagonal(view, offset=-off), -1, 0)
        mean = stack.mean(axis=0)
        if len(stack) > 1:
            defect = max(defect, float(np.max(np.abs(stack - mean))))
        run[off + N - 1] = mean
    return run, defect


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
    N = int(n_blocks) if n_blocks else data.extent()
    p, q = data.p, data.q

    big = build_m(data, N, "alternate")
    m11, m12, m22 = big.pp, big.pq, big.qq
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

    # one M11 solve for the beta column and the M12 columns side by side
    sol = np.linalg.solve(m11, np.hstack([plus_coeff_column(data.beta, N), m12]))
    x, hmat = sol[:, :q], -sol[:, q:]
    g_run = -x.reshape(N, p, q)
    tail = float(np.abs(g_run[m + 1 :]).max(initial=0.0))
    g = LaurentPoly.from_run(0, g_run)

    # y block w is the adjoint of the coefficient of degree N - 1 - w
    y = np.linalg.solve(m22, minus_coeff_column(data.gamma, N))
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
    solve of the polynomial route; the delta path is its b-side solve, the
    d-driven unit solve followed by the b product.  When both paths clear
    their determinant gate their gap is reported.
    """
    data.corner_inverses()
    flags = []
    id_res = _identity_gate(data, tol, flags)
    zeros = diagnostics.check_zero_locations(data)
    verdict_a = zeros.entry("alpha_det_zeros").verdict
    verdict_d = zeros.entry("delta_det_zeros").verdict

    g1 = g2 = None
    if verdict_a == "pass":
        g1 = LaurentPoly.from_run(0, _c_side_blocks(data))
    if verdict_d == "pass":
        g2 = _b_side_g(data)

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
    phi* delta + beta in the strictly-minus class.  Its system matrix, the
    lower triangular Toeplitz matrix of the adjoint delta coefficients, is
    the adjoint of the b-side system, so phi = g* for the b-side g exactly,
    for any data with d0 invertible.  Refuses when the second data identity
    is violated beyond the refusal threshold.
    """
    data.corner_inverses()
    res = identity_residual_triple(data)
    if res[1] > REFUSAL_FACTOR * tol:
        raise DataIdentityError(
            f"second data identity residual {res[1]:.3e} too large for the dual solve",
            residuals=res,
            worst="identity_d",
        )
    return _b_side_g(data).adjoint()


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
