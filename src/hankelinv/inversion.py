"""The 2x2 block operators of the inverse problem and their identity suite.

``build_omega`` assembles the window of [[I, H+(g)], [H-(g*), I]] and
``build_m`` the window of its inverse candidate M, from the data symbols
alone.  With the shift factors absorbed into the shifted block rows
R = [alpha, z beta] and C' = [gamma/z, delta], M is built from four
windows, P = T+(R), Hp = H+(R/z), Hm = H-(z C') and Q = T-(C'):

    M = [[P, -Hp], [Hm, -Q]] diag(K, K) blockdiag(P, Q)*,

with K = diag(a0^-1, -d0^-1) applied to each (p+q)-block of the inner
index.  ``build_m`` is the one assembly of M, and the only code that
forms M12 and M21; ``diagonal_windows`` forms M11 = P K P* and
M22 = -Q K Q* alone, from the same rows and K, for the truncated route.
``check_lemma_suite`` compares M's window with the defining products,
whose shift factors are explicit, and with the Hankel-product form of M.

``DataSet.x_run`` holds the block rows A = [alpha beta] (degrees 0..m) and
C = [gamma delta] (degrees -m..0) of X = [[alpha, beta], [gamma, delta]];
with J = diag(I, -I) the data identities are the blocks of
X* J X = A*A - C*C = diag(a0, -d0).  These are pointwise statements on the
unit circle, and ``DataSet.spectrum`` evaluates X once on a ``CircleGrid``
of at least 2m+1 points (C as z^m C, a factor of modulus 1 there), so each
residual family of the data (the identity triple, the dual triple, each
inclusion) is one pointwise product and one inverse FFT.

For polynomial data g is fixed by either of the two inclusions that are
linear in it, and each is one lower triangular block Toeplitz solve:
``DataSet.b_side`` solves (g delta + beta)_+ = 0 and ``DataSet.c_side``
(g* alpha + gamma)_- = 0.

A data set is immutable (its series are, and a0 and d0 are read-only
copies), so everything derived from it alone is computed on first use and
kept on the instance: the run ``x_run`` of both rows and its values on
the grid, the corner inverses, the identity triple and the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .series import CircleGrid, LaurentPoly
from .structured import OpKind, build, check_corner, tri_toeplitz_solve

DEFAULT_TOL = 1e-10
IDENTITY_NAMES = ("identity_a", "identity_d", "identity_cross")


@dataclass(frozen=True)
class DataSet:
    """The data quadruple {alpha, beta, gamma, delta} of the inverse problem.

    alpha (p x p) and beta (p x q) are supported on degrees >= 0, gamma
    (q x p) and delta (q x q) on degrees <= 0.  a0 and d0 default to the
    zero-degree coefficients of alpha and delta; they may be overridden to
    probe perturbed identity right-hand sides.  The rows A = [alpha beta]
    and C = [gamma delta] are kept as one coefficient run, ``x_run``.
    """

    alpha: LaurentPoly
    beta: LaurentPoly
    gamma: LaurentPoly
    delta: LaurentPoly
    a0: np.ndarray = None
    d0: np.ndarray = None

    def __post_init__(self):
        p = self.alpha.rows
        q = self.delta.rows
        shapes = {
            "alpha": (self.alpha, (p, p), self.alpha.is_plus),
            "beta": (self.beta, (p, q), self.beta.is_plus),
            "gamma": (self.gamma, (q, p), self.gamma.is_minus),
            "delta": (self.delta, (q, q), self.delta.is_minus),
        }
        for name, (sym, shape, inside) in shapes.items():
            if sym.shape != shape:
                raise ShapeError(f"{name} must be {shape}, got {sym.shape}")
            if not inside:
                raise ShapeError(f"{name} has support outside its subspace")
        for name, sym, n in (("a0", self.alpha, p), ("d0", self.delta, q)):
            given = getattr(self, name)
            corner = np.array(sym.coeff(0) if given is None else given, dtype=complex)
            corner.flags.writeable = False
            if corner.shape != (n, n):
                raise ShapeError(f"{name} must be {(n, n)}, got {corner.shape}")
            if not np.isfinite(corner).all():
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, corner)

    @property
    def p(self) -> int:
        return self.alpha.rows

    @property
    def q(self) -> int:
        return self.delta.rows

    @cached_property
    def m(self) -> int:
        """Largest degree appearing in any of the four symbols."""
        plus = [sym.hi for sym in (self.alpha, self.beta) if not sym.is_zero]
        minus = [-sym.lo for sym in (self.gamma, self.delta) if not sym.is_zero]
        return max([0] + plus + minus)

    def extent(self) -> int:
        """Block extent m+1 of every windowed operator built from the data."""
        return self.m + 1

    @cached_property
    def corner_inverses(self):
        """(a0^-1, d0^-1), computed once; ``check_corner`` refuses a singular corner."""
        check_corner(self.a0, "corner matrix a0")
        check_corner(self.d0, "corner matrix d0")
        inverses = np.linalg.inv(self.a0), np.linalg.inv(self.d0)
        for mat in inverses:
            mat.flags.writeable = False
        return inverses

    @cached_property
    def x_run(self):
        """X = [A; z^m C] as one read-only (m+1, p+q, p+q) run on degrees 0..m:
        the row A = [alpha beta] (degrees 0..m) on top of the row
        C = [gamma delta], whose degrees -m..0 sit at indices 0..m."""
        n, p, s = self.extent(), self.p, self.p + self.q
        x = np.empty((n, s, s), dtype=complex)
        x[:, :p, :p] = self.alpha.coeff_run(0, n)
        x[:, :p, p:] = self.beta.coeff_run(0, n)
        x[:, p:, :p] = self.gamma.coeff_run(1 - n, n)
        x[:, p:, p:] = self.delta.coeff_run(1 - n, n)
        x.flags.writeable = False
        return x

    @cached_property
    def spectrum(self):
        """(grid, values, mask_a, mask_c): X = [A; z^m C] evaluated on a
        ``CircleGrid`` of at least 2m+1 points, and the masks of the degrees
        0..m where A and z^m C have a non-zero block."""
        x, p = self.x_run, self.p
        grid = CircleGrid(2 * self.m + 1)
        return grid, grid.values(x), x[:, :p].any(axis=(1, 2)), x[:, p:].any(axis=(1, 2))

    @cached_property
    def identity_residuals(self):
        """``identity_residual_triple`` of this data set, computed once."""
        return identity_residual_triple(self)

    # -- the two inclusion sides, each one lower triangular solve

    @cached_property
    def c_side(self) -> LaurentPoly:
        """g from (g* alpha + gamma)_- = 0, upper triangular in g.

        Read bottom to top, the upper system with first block row alpha_j* is
        the lower one with the same blocks as its first column, driven by
        gamma's degrees -m, ..., 0; its solution comes out highest degree first.
        """
        m = self.m
        acols = self.alpha.coeff_run(0, m + 1).conj().transpose(0, 2, 1)
        rhs = -self.gamma.coeff_run(-m, m + 1).conj().transpose(0, 2, 1)
        return LaurentPoly.from_run(0, tri_toeplitz_solve(acols, rhs)[::-1])

    @cached_property
    def b_side(self) -> LaurentPoly:
        """g from (g delta + beta)_+ = 0, upper triangular in g.

        Transposed and read bottom to top, it is the lower system with first
        block column delta_0^T, ..., delta_{-m}^T, driven by beta's degrees m,
        ..., 0; its solution comes out highest degree first.
        """
        m = self.m
        dcols = self.delta.coeff_run(-m, m + 1)[::-1].transpose(0, 2, 1)
        rhs = -self.beta.coeff_run(0, m + 1)[::-1].transpose(0, 2, 1)
        return LaurentPoly.from_run(0, tri_toeplitz_solve(dcols, rhs)[::-1].transpose(0, 2, 1))


# -- operator assembly ------------------------------------------------------


def build_omega(g: LaurentPoly, n_blocks: int) -> np.ndarray:
    """Window of [[I, H+(g)], [H-(g*), I]] for a plus symbol g, N(p+q) square."""
    if not g.is_plus:
        raise ShapeError("g must be supported on degrees >= 0")
    N = int(n_blocks)
    n = N * g.rows
    hp = build(OpKind.HANKEL_PLUS, g, N)
    out = np.eye(N * (g.rows + g.cols), dtype=complex)
    out[:n, n:] = hp
    out[n:, :n] = hp.conj().T
    return out


def _scaled(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """w times diag(k, ..., k): k acts on each (p+q)-column block of w, as one product."""
    return (w.reshape(-1, k.shape[0]) @ k).reshape(w.shape)


def _rows(data: DataSet):
    """K and the shifted rows R = [alpha, z beta] (degrees 0..m+1) and
    C' = [gamma/z, delta] (degrees -m-1..0), each one run, so the columns of
    every window of them come in (p+q)-blocks, the first p columns from
    alpha or gamma."""
    a0inv, d0inv = data.corner_inverses
    p, q, n = data.p, data.q, data.extent()
    k = np.block([[a0inv, np.zeros((p, q))], [np.zeros((q, p)), -d0inv]])
    r = np.concatenate([data.alpha.coeff_run(0, n + 1), data.beta.coeff_run(-1, n + 1)], 2)
    c = np.concatenate([data.gamma.coeff_run(1 - n, n + 1), data.delta.coeff_run(-n, n + 1)], 2)
    return k, LaurentPoly.from_run(0, r), LaurentPoly.from_run(-n, c)


def _assemble(data: DataSet, N: int):
    """M's window, K and the stacked windows x = [P; Hm] and y = [Hp; Q].

    M is [x K P*, -y K Q*]; returns (m, k, x, y).
    """
    k, r, c = _rows(data)
    n = N * data.p
    x = np.vstack([build(OpKind.TOEPLITZ_PLUS, r, N), build(OpKind.HANKEL_MINUS, c.shifted(1), N)])
    y = np.vstack([build(OpKind.HANKEL_PLUS, r.shifted(-1), N), build(OpKind.TOEPLITZ_MINUS, c, N)])
    m = np.hstack([_scaled(x, k) @ x[:n].conj().T, _scaled(y, -k) @ y[n:].conj().T])
    return m, k, x, y


def diagonal_windows(data: DataSet, n_blocks: int):
    """The windows (M11, M22) = (P K P*, -Q K Q*) of M's diagonal blocks,
    from the two Toeplitz windows alone; M12 and M21 are left unformed."""
    k, r, c = _rows(data)
    P, Q = build(OpKind.TOEPLITZ_PLUS, r, n_blocks), build(OpKind.TOEPLITZ_MINUS, c, n_blocks)
    return _scaled(P, k) @ P.conj().T, _scaled(Q, -k) @ Q.conj().T


def build_m(data: DataSet, n_blocks: int) -> np.ndarray:
    """Window of the inverse candidate M assembled from the data, N(p+q) square."""
    N = int(n_blocks)
    if N < 1:
        raise ShapeError("window must retain at least one block")
    return _assemble(data, N)[0]


def inverse_margin(data: DataSet, g: LaurentPoly, n_blocks: int) -> int:
    """N when N > max(m, deg g), else 0.  M's window is its compression for
    every N, and Omega's Hankel blocks vanish outside the window once
    N > deg g, so M Omega = I holds on the whole window; the lemma suite
    asks N > m."""
    N = int(n_blocks)
    return N if N > max(data.m, 0 if g.is_zero else g.hi) else 0


def verify_inverse(omega: np.ndarray, m: np.ndarray, p: int, q: int, margin: int) -> dict:
    """Residuals of M Omega = I and Omega M = I on the whole window, or NaN
    and inconclusive when ``margin`` (``inverse_margin``'s) is not positive.

    ``omega`` and ``m`` are N(p+q)-square windows of p + q block rows.
    """
    dim = omega.shape[0]
    if omega.shape != (dim, dim) or m.shape != omega.shape or dim % (p + q):
        raise ShapeError("omega and m must be matching N(p+q)-square windows")
    eye, exact = np.eye(dim), margin > 0
    return {
        "m_omega": _maxabs(m @ omega - eye) if exact else float("nan"),
        "omega_m": _maxabs(omega @ m - eye) if exact else float("nan"),
        "margin": margin,
        "inconclusive": not exact,
    }


# -- the identity suite -----------------------------------------------------


def _maxabs(x) -> float:
    return float(np.max(np.abs(x))) if x.size else float("nan")


def check_lemma_suite(data: DataSet, n_blocks: int, tol: float = DEFAULT_TOL) -> dict:
    """Residuals of the structural identities satisfied by M.

    Covers the Toeplitz/Hankel exchange identities (the four blocks of
    P* Hp - Hm* Q and, in one piece, P* S+* Hp - Hm* S- Q), the unit-column
    identities (the first p and last q columns of M are the coefficient
    columns), selfadjointness M12* = M21, agreement of ``build_m`` with the
    defining products (``variant_agreement``: windows of the unshifted rows
    A and C, explicit shift factors) and with the Hankel-product form
    I + [[-Hp, P], [-Q, Hm]] diag(K, K) blockdiag(Hp, Hm)*
    (``hankel_form_agreement``), the J-congruence M J M = diag(M11, -M22)
    and the shift intertwining M11 S+* M12 = M12 S- M22.

    Every identity is read on the whole window.  The exchange identities,
    the Hankel-product form, the J-congruence and the intertwining are
    exact once N > m (``margin`` N); for N <= m they are NaN, ``margin`` 0
    and ``inconclusive`` True.  The rest hold on every window.

    The data identities are a precondition; their residual triple is
    reported and ``precondition_ok`` is False when it exceeds ``tol`` or
    is NaN.  The window of M that the suite checks is returned under
    ``"m"``.  Every window is built once.
    """
    N = int(n_blocks)
    p, q = data.p, data.q
    s = p + q

    worst_identity = float(np.max(data.identity_residuals))  # NaN when any residual is

    mm, k, x, y = _assemble(data, N)
    n = N * p
    m11, m12, m21, m22 = mm[:n, :n], mm[:n, n:], mm[n:, :n], mm[n:, n:]
    j = np.repeat([1.0, -1.0], [n, N * q])

    margin = N if N > data.m else 0
    whole = _maxabs if margin else lambda diff: float("nan")

    # Exchange identities T+(f*) H+(h) = H-(f)* T-(h) for all four pairs of
    # columns at once: x* J y = P* Hp - Hm* Q, read block by block, and with
    # the backward shift blockdiag(S+*, S-) = shift* between the factors.
    sp = build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(p)), N)
    sm = build(OpKind.TOEPLITZ_MINUS, LaurentPoly.single(-1, np.eye(q)), N)
    shift = np.block([[sp, np.zeros((n, N * q))], [np.zeros((N * q, n)), sm.conj().T]])
    xs, jy = x.conj().T, y * j[:, None]
    blocks = (xs @ jy).reshape(N, s, N, s)
    sides = (("a", slice(0, p)), ("b", slice(p, s)))
    thht = {f"thht_{i}{t}": whole(blocks[:, si, :, st]) for i, si in sides for t, st in sides}
    thht_shifted = whole(xs @ shift.conj().T @ jy)

    # Unit-column identities: M maps the unit columns to the windows of the rows.
    xr = data.x_run
    a, c = LaurentPoly.from_run(0, xr[:, :p]), LaurentPoly.from_run(-data.m, xr[:, p:])
    wins = np.vstack([a.coeff_run(0, N).reshape(n, -1), c.coeff_run(1 - N, N).reshape(N * q, -1)])
    units = np.hstack([mm[:, :p], mm[:, -q:]]) - wins
    units = {
        "units_a": _maxabs(units[:n, :p]),
        "units_b": _maxabs(units[:n, p:]),
        "units_c": _maxabs(units[n:, :p]),
        "units_d": _maxabs(units[n:, p:]),
    }

    # The defining products from the windows of A and C, with the shifts
    # explicit: z beta and gamma/z enter as S+ T+(beta) and S- T-(gamma),
    # alpha/z and z delta as S+* H+(alpha) and S-* H-(delta).  ka and kd
    # are the alpha and beta halves of K.
    ta, tc = build(OpKind.TOEPLITZ_PLUS, a, N), build(OpKind.TOEPLITZ_MINUS, c, N)
    x0 = np.vstack([ta, build(OpKind.HANKEL_MINUS, c, N)])
    y0 = np.vstack([build(OpKind.HANKEL_PLUS, a, N), tc])
    ka, kd = k * (np.arange(s) < p), k * (np.arange(s) >= p)
    primary = np.hstack([
        _scaled(x0, ka) @ ta.conj().T + shift @ _scaled(x0, kd) @ ta.conj().T @ sp.conj().T,
        -_scaled(y0, kd) @ tc.conj().T - shift.conj().T @ _scaled(y0, ka) @ tc.conj().T @ sm.conj().T,
    ])
    hankel = np.hstack([_scaled(y, -k) @ y[:n].conj().T, _scaled(x, k) @ x[n:].conj().T])
    hankel += np.eye(N * s)

    # Selfadjointness and agreement with the two other forms of M.
    structure = {
        "adjoint_m12_m21": _maxabs(m12.conj().T - m21),
        "m11_hermitian": _maxabs(m11.conj().T - m11),
        "m22_hermitian": _maxabs(m22.conj().T - m22),
        "variant_agreement": _maxabs(primary - mm),
        "hankel_form_agreement": whole(hankel - mm),
    }

    # J-congruence with J = diag(I, -I), and the shift intertwining.
    mjm = (mm * j) @ mm
    mjm[:n, :n] -= m11
    mjm[n:, n:] += m22
    inter = m11 @ sp.conj().T @ m12 - m12 @ sm @ m22

    out = {
        "precondition_identities": worst_identity,
        "precondition_ok": worst_identity <= tol,
        "margin": margin,
        "inconclusive": margin == 0,
        "j_congruence": whole(mjm),
        "intertwine": whole(inter),
        "thht_shifted": thht_shifted,
        "m": mm,
    }
    out.update(thht)
    out.update(units)
    out.update(structure)
    return out


def identity_residual_triple(data: DataSet):
    """The three data-identity residuals (sup norm over degrees): the
    top-left, bottom-right and top-right blocks of A*A - C*C - diag(a0, -d0).

    With X = [A; z^m C] on the grid, A*A - C*C is X* J X pointwise, one
    batched product and one inverse FFT over degrees -m..m.
    """
    grid, x, mask_a, mask_c = data.spectrum
    p, m = data.p, data.m
    mask = mask_a | mask_c
    jx = x.copy()
    jx[:, p:] *= -1
    res = grid.coeffs(x.conj().transpose(0, 2, 1) @ jx, -m, 2 * m + 1, (-m, mask[::-1]), (0, mask))
    res[m, :p, :p] -= data.a0
    res[m, p:, p:] += data.d0
    peak = np.abs(res).max(axis=0)
    return float(peak[:p, :p].max()), float(peak[p:, p:].max()), float(peak[:p, p:].max())
