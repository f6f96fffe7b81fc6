"""The 2x2 block operators of the inverse problem and their identity suite.

``build_omega`` assembles the window of [[I, H+(g)], [H-(g*), I]] and
``build_m`` the window of its inverse candidate M, from the data symbols
alone.  With the shift factors absorbed into the shifted block rows
R = [alpha, z beta] and C' = [gamma/z, delta], M is built from four
windows, P = T+(R), Hp = H+(R/z), Hm = H-(z C') and Q = T-(C'):

    M = [[P, -Hp], [Hm, -Q]] diag(K, K) blockdiag(P, Q)*,

with K = diag(a0^-1, -d0^-1) applied to each (p+q)-block of the inner
index.  ``check_lemma_suite`` compares that window with the defining
products, whose shift factors are explicit, and with the Hankel-product
form of M.

``DataSet.rows`` returns the block rows A = [alpha beta] (degrees 0..m) and
C = [gamma delta] (degrees -m..0) of X = [[alpha, beta], [gamma, delta]];
with J = diag(I, -I) the data identities are the blocks of
X* J X = A*A - C*C = diag(a0, -d0).

For polynomial data g is fixed by either of the two inclusions that are
linear in it, and each is one lower triangular block Toeplitz solve:
``b_side`` solves (g delta + beta)_+ = 0 and ``c_side``
(g* alpha + gamma)_- = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularCornerError
from .series import LaurentPoly, SubspaceTag
from .structured import CORNER_COND_LIMIT, OpKind, build, corner_residual, tri_toeplitz_solve

DEFAULT_TOL = 1e-10
IDENTITY_NAMES = ("identity_a", "identity_d", "identity_cross")


@dataclass(frozen=True)
class DataSet:
    """The data quadruple {alpha, beta, gamma, delta} of the inverse problem.

    alpha (p x p) and beta (p x q) are supported on degrees >= 0, gamma
    (q x p) and delta (q x q) on degrees <= 0.  a0 and d0 default to the
    zero-degree coefficients of alpha and delta; they may be overridden to
    probe perturbed identity right-hand sides.
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
            "alpha": (self.alpha, (p, p), SubspaceTag.PLUS),
            "beta": (self.beta, (p, q), SubspaceTag.PLUS),
            "gamma": (self.gamma, (q, p), SubspaceTag.MINUS),
            "delta": (self.delta, (q, q), SubspaceTag.MINUS),
        }
        for name, (sym, shape, tag) in shapes.items():
            if sym.shape != shape:
                raise ShapeError(f"{name} must be {shape}, got {sym.shape}")
            if not sym.in_subspace(tag):
                raise ShapeError(f"{name} has support outside its subspace")
        for name, sym, n in (("a0", self.alpha, p), ("d0", self.delta, q)):
            given = getattr(self, name)
            corner = sym.coeff(0) if given is None else np.asarray(given, dtype=complex)
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

    @property
    def m(self) -> int:
        """Largest degree appearing in any of the four symbols."""
        plus = [sym.hi for sym in (self.alpha, self.beta) if not sym.is_zero]
        minus = [-sym.lo for sym in (self.gamma, self.delta) if not sym.is_zero]
        return max([0] + plus + minus)

    def extent(self) -> int:
        """Block extent m+1 of every windowed operator built from the data."""
        return self.m + 1

    def corner_inverses(self):
        """(a0^-1, d0^-1); raises when either corner is near-singular."""
        for name, mat in (("a0", self.a0), ("d0", self.d0)):
            if np.linalg.cond(mat) > CORNER_COND_LIMIT:
                raise SingularCornerError(
                    f"corner matrix {name} is numerically singular "
                    f"(cond > {CORNER_COND_LIMIT:.0e})"
                )
        return np.linalg.inv(self.a0), np.linalg.inv(self.d0)

    def rows(self):
        """The block rows A = [alpha beta] and C = [gamma delta] as series."""
        n = self.extent()
        a = np.concatenate([self.alpha.coeff_run(0, n), self.beta.coeff_run(0, n)], 2)
        c = np.concatenate([self.gamma.coeff_run(1 - n, n), self.delta.coeff_run(1 - n, n)], 2)
        return LaurentPoly.from_run(0, a), LaurentPoly.from_run(1 - n, c)


# -- operator assembly ------------------------------------------------------


def _plus_extent(sym: LaurentPoly) -> int:
    """Block extent of the corner of a plus symbol (degrees read as [0, hi])."""
    return 1 if sym.is_zero else max(sym.hi, 0) + 1


def build_omega(g: LaurentPoly, n_blocks: int) -> np.ndarray:
    """Window of [[I, H+(g)], [H-(g*), I]] for a plus symbol g, N(p+q) square."""
    if not g.in_subspace(SubspaceTag.PLUS):
        raise ShapeError("g must be supported on degrees >= 0")
    N = int(n_blocks)
    n = N * g.rows
    hp = build(OpKind.HANKEL_PLUS, g, N)
    out = np.eye(N * (g.rows + g.cols), dtype=complex)
    out[:n, n:] = hp
    out[n:, :n] = hp.conj().T
    return out


def _scaled(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """w times diag(k, ..., k): k acts on each (p+q)-column block of w."""
    rows = w.shape[0]
    return (w.reshape(rows, -1, k.shape[0]) @ k).reshape(rows, -1)


def _assemble(data: DataSet, N: int):
    """M's window, K and the stacked windows x = [P; Hm] and y = [Hp; Q].

    R = [alpha, z beta] (degrees 0..m+1) and C' = [gamma/z, delta]
    (degrees -m-1..0) are each one run, so the columns of every window come
    in (p+q)-blocks, the first p columns from alpha or gamma.  M is
    [x K P*, -y K Q*]; returns (m, k, x, y).
    """
    a0inv, d0inv = data.corner_inverses()
    p, q, n = data.p, data.q, data.extent()
    k = np.block([[a0inv, np.zeros((p, q))], [np.zeros((q, p)), -d0inv]])
    r = np.concatenate([data.alpha.coeff_run(0, n + 1), data.beta.coeff_run(-1, n + 1)], 2)
    c = np.concatenate([data.gamma.coeff_run(1 - n, n + 1), data.delta.coeff_run(-n, n + 1)], 2)
    r, c = LaurentPoly.from_run(0, r), LaurentPoly.from_run(-n, c)
    x = np.vstack([build(OpKind.TOEPLITZ_PLUS, r, N), build(OpKind.HANKEL_MINUS, c.shifted(1), N)])
    y = np.vstack([build(OpKind.HANKEL_PLUS, r.shifted(-1), N), build(OpKind.TOEPLITZ_MINUS, c, N)])
    m = np.hstack([_scaled(x, k) @ x[: N * p].conj().T, _scaled(y, -k) @ y[N * p :].conj().T])
    return m, k, x, y


def build_m(data: DataSet, n_blocks: int) -> np.ndarray:
    """Window of the inverse candidate M assembled from the data, N(p+q) square."""
    N = int(n_blocks)
    if N < 1:
        raise ShapeError("window must retain at least one block")
    return _assemble(data, N)[0]


def inverse_margin(data: DataSet, g: LaurentPoly, n_blocks: int) -> int:
    """Conservative exact margin for products of M against Omega."""
    return max(0, n_blocks - (2 * data.extent() + _plus_extent(g)))


def verify_inverse(omega: np.ndarray, m: np.ndarray, p: int, q: int, margin: int) -> dict:
    """Residuals of M Omega = I and Omega M = I on the margin corners.

    ``omega`` and ``m`` are N(p+q)-square windows of p + q block rows.
    """
    dim = omega.shape[0]
    if omega.shape != (dim, dim) or m.shape != omega.shape or dim % (p + q):
        raise ShapeError("omega and m must be matching N(p+q)-square windows")
    N = dim // (p + q)
    spaces = [("plus", p), ("minus", q)]
    eye = np.eye(dim)
    return {
        "m_omega": corner_residual(m @ omega - eye, spaces, spaces, N, margin),
        "omega_m": corner_residual(omega @ m - eye, spaces, spaces, N, margin),
        "margin": margin,
        "inconclusive": margin <= 0,
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

    The data identities are a precondition; their residual triple is
    reported and ``precondition_ok`` is False when it exceeds ``tol``.
    The window of M that the suite checks is returned under ``"m"``.
    Every window is built once.
    """
    N = int(n_blocks)
    p, q = data.p, data.q
    s = p + q

    id_res = identity_residual_triple(data)
    precondition_ok = max(id_res) <= tol

    mm, k, x, y = _assemble(data, N)
    n = N * p
    m11, m12, m21, m22 = mm[:n, :n], mm[:n, n:], mm[n:, :n], mm[n:, n:]
    j = np.repeat([1.0, -1.0], [n, N * q])

    margin_pair = max(0, N - 2 * data.extent())

    def res(diff, rows, cols):
        return corner_residual(diff, rows, cols, N, margin_pair)

    # Exchange identities T+(f*) H+(h) = H-(f)* T-(h) for all four pairs of
    # columns at once: x* J y = P* Hp - Hm* Q, read block by block, and with
    # the backward shift blockdiag(S+*, S-) = shift* between the factors.
    sp = build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(p)), N)
    sm = build(OpKind.TOEPLITZ_MINUS, LaurentPoly.single(-1, np.eye(q)), N)
    shift = np.block([[sp, np.zeros((n, N * q))], [np.zeros((N * q, n)), sm.conj().T]])
    xs, jy = x.conj().T, y * j[:, None]
    blocks = (xs @ jy).reshape(N, s, N, s)
    sides = (("a", slice(0, p), p), ("b", slice(p, s), q))
    thht = {
        f"thht_{i}{t}": res(
            blocks[:, si, :, st].reshape(N * wi, -1), [("plus", wi)], [("minus", wt)]
        )
        for i, si, wi in sides
        for t, st, wt in sides
    }
    thht_shifted = res(xs @ shift.conj().T @ jy, [("plus", s)], [("minus", s)])

    # Unit-column identities: M maps the unit columns to the windows of the rows.
    a, c = data.rows()
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
    plus_p, minus_q = [("plus", p)], [("minus", q)]
    spaces = plus_p + minus_q
    structure = {
        "adjoint_m12_m21": _maxabs(m12.conj().T - m21),
        "m11_hermitian": _maxabs(m11.conj().T - m11),
        "m22_hermitian": _maxabs(m22.conj().T - m22),
        "variant_agreement": _maxabs(primary - mm),
        "hankel_form_agreement": res(hankel - mm, spaces, spaces),
    }

    # J-congruence with J = diag(I, -I), and the shift intertwining.
    mjm = (mm * j) @ mm
    mjm[:n, :n] -= m11
    mjm[n:, n:] += m22
    inter = m11 @ sp.conj().T @ m12 - m12 @ sm @ m22

    out = {
        "precondition_identities": max(id_res),
        "precondition_ok": precondition_ok,
        "margin": margin_pair,
        "inconclusive": margin_pair == 0,
        "j_congruence": res(mjm, spaces, spaces),
        "intertwine": res(inter, plus_p, minus_q),
        "thht_shifted": thht_shifted,
        "m": mm,
    }
    out.update(thht)
    out.update(units)
    out.update(structure)
    return out


def identity_residual_triple(data: DataSet):
    """The three data-identity residuals (sup norm over degrees): the
    top-left, bottom-right and top-right blocks of A*A - C*C - diag(a0, -d0)."""
    a, c = data.rows()
    p, q, m = data.p, data.q, data.m
    jd = np.block([[data.a0, np.zeros((p, q))], [np.zeros((q, p)), -data.d0]])
    res = (a.adjoint() * a - c.adjoint() * c - LaurentPoly.constant(jd)).coeff_run(-m, 2 * m + 1)
    return tuple(_maxabs(blk) for blk in (res[:, :p, :p], res[:, p:, p:], res[:, :p, p:]))


# -- the two inclusion sides ------------------------------------------------


def c_side(data: DataSet) -> LaurentPoly:
    """g from (g* alpha + gamma)_- = 0, upper triangular in g.

    Read bottom to top, the upper system with first block row alpha_j* is
    the lower one with the same blocks as its first column, driven by
    gamma's degrees -m, ..., 0; its solution comes out highest degree first.
    """
    m = data.m
    acols = data.alpha.coeff_run(0, m + 1).conj().transpose(0, 2, 1)
    rhs = -data.gamma.coeff_run(-m, m + 1).conj().transpose(0, 2, 1)
    return LaurentPoly.from_run(0, tri_toeplitz_solve(acols, rhs)[::-1])


def b_side(data: DataSet) -> LaurentPoly:
    """g from (g delta + beta)_+ = 0, upper triangular in g.

    Transposed and read bottom to top, it is the lower system with first
    block column delta_0^T, ..., delta_{-m}^T, driven by beta's degrees m,
    ..., 0; its solution comes out highest degree first.
    """
    m = data.m
    dcols = data.delta.coeff_run(-m, m + 1)[::-1].transpose(0, 2, 1)
    rhs = -data.beta.coeff_run(0, m + 1)[::-1].transpose(0, 2, 1)
    return LaurentPoly.from_run(0, tri_toeplitz_solve(dcols, rhs)[::-1].transpose(0, 2, 1))
