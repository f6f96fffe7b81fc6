"""The 2x2 block operators of the inverse problem and their identity suite.

``build_omega`` assembles the window of [[I, H+(g)], [H-(g*), I]] and
``build_m`` the window of its inverse candidate M, from the data symbols
alone.  With the shift factors absorbed into the symbols, every block of M
is a difference of products of the corner inverses with the eight windows
T+(alpha), T+(z beta), H-(gamma), H-(z delta), H+(beta), H+(alpha/z),
T-(delta) and T-(gamma/z).  ``check_lemma_suite`` compares that window
with the defining products, whose shift factors are explicit, and with
the Hankel-product form of M.

``DataSet.rows`` returns the block rows A = [alpha beta] (degrees 0..m) and
C = [gamma delta] (degrees -m..0) of X = [[alpha, beta], [gamma, delta]];
with J = diag(I, -I) the data identities are the blocks of
X* J X = A*A - C*C = diag(a0, -d0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularCornerError
from .series import LaurentPoly, SubspaceTag
from .structured import OpKind, build, corner_residual

CORNER_COND_LIMIT = 1e12
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


def _assemble(data: DataSet, N: int):
    """M's window, its block-diagonal corner inverses and the eight windows it is built from.

    Returns (m, da, dd, windows), with the windows in the order T+(alpha),
    T+(z beta), H-(gamma), H-(z delta), H+(beta), H+(alpha/z), T-(delta),
    T-(gamma/z); each block of m is written into one preallocated array.
    """
    a0inv, d0inv = data.corner_inverses()
    da = np.kron(np.eye(N), a0inv)
    dd = np.kron(np.eye(N), d0inv)
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta
    windows = (
        build(OpKind.TOEPLITZ_PLUS, al, N),
        build(OpKind.TOEPLITZ_PLUS, be.shifted(1), N),
        build(OpKind.HANKEL_MINUS, ga, N),
        build(OpKind.HANKEL_MINUS, de.shifted(1), N),
        build(OpKind.HANKEL_PLUS, be, N),
        build(OpKind.HANKEL_PLUS, al.shifted(-1), N),
        build(OpKind.TOEPLITZ_MINUS, de, N),
        build(OpKind.TOEPLITZ_MINUS, ga.shifted(-1), N),
    )
    tp_a, tp_lb, hm_g, hm_ld, hp_b, hp_la, tm_d, tm_lg = windows
    n = N * data.p
    out = np.empty((N * (data.p + data.q),) * 2, dtype=complex)
    out[:n, :n] = tp_a @ da @ tp_a.conj().T - tp_lb @ dd @ tp_lb.conj().T
    out[n:, :n] = hm_g @ da @ tp_a.conj().T - hm_ld @ dd @ tp_lb.conj().T
    out[:n, n:] = hp_b @ dd @ tm_d.conj().T - hp_la @ da @ tm_lg.conj().T
    out[n:, n:] = tm_d @ dd @ tm_d.conj().T - tm_lg @ da @ tm_lg.conj().T
    return out, da, dd, windows


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

    Covers the Toeplitz/Hankel exchange identities, the unit-column
    identities (the first p and last q columns of M are the coefficient
    columns), selfadjointness M12* = M21, agreement of ``build_m`` with the
    defining products (``variant_agreement``) and with the Hankel-product
    form (``hankel_form_agreement``), the J-congruence
    M J M = diag(M11, -M22) and the shift intertwining
    M11 S+* M12 = M12 S- M22.

    The data identities are a precondition; their residual triple is
    reported and ``precondition_ok`` is False when it exceeds ``tol``.
    The window of M that the suite checks is returned under ``"m"``.
    Every window is built once.
    """
    N = int(n_blocks)
    p, q = data.p, data.q

    id_res = identity_residual_triple(data)
    precondition_ok = max(id_res) <= tol

    mm, da, dd, (tp_a, tp_lb, hm_g, hm_ld, hp_b, hp_la, tm_d, tm_lg) = _assemble(data, N)
    n = N * p
    m11, m12, m21, m22 = mm[:n, :n], mm[:n, n:], mm[n:, :n], mm[n:, n:]

    margin_pair = max(0, N - 2 * data.extent())

    def res(diff, rows, cols):
        return corner_residual(diff, rows, cols, N, margin_pair)

    # Exchange identities: T+(rho*) H+(...) = H+(...) T-(...) in block form.
    # T+(f*) = T+(f)* and H+(f*) = H-(f)* hold window for window.
    tp_as, tp_lbs = tp_a.conj().T, tp_lb.conj().T
    hp_gs, hp_lds = hm_g.conj().T, hm_ld.conj().T

    plus_p, plus_q = [("plus", p)], [("plus", q)]
    minus_p, minus_q = [("minus", p)], [("minus", q)]
    thht = {
        "thht_aa": res(tp_as @ hp_la - hp_gs @ tm_lg, plus_p, minus_p),
        "thht_ab": res(tp_as @ hp_b - hp_gs @ tm_d, plus_p, minus_q),
        "thht_ba": res(tp_lbs @ hp_la - hp_lds @ tm_lg, plus_q, minus_p),
        "thht_bb": res(tp_lbs @ hp_b - hp_lds @ tm_d, plus_q, minus_q),
    }

    # Shifted variant of the exchange identity (one extra backward shift).
    sp_p = build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(p)), N)
    sm_q = build(OpKind.TOEPLITZ_MINUS, LaurentPoly.single(-1, np.eye(q)), N)
    lhs_shift = np.vstack([tp_as, tp_lbs]) @ sp_p.conj().T @ np.hstack([hp_la, hp_b])
    rhs_shift = np.vstack([hp_gs, hp_lds]) @ sm_q @ np.hstack([tm_lg, tm_d])
    thht_shifted = res(lhs_shift - rhs_shift, plus_p + plus_q, minus_p + minus_q)

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

    # The defining products, with explicit shifts S+ T+(beta) = T+(z beta),
    # S- T-(gamma) = T-(gamma/z), S+* H+(alpha) = H+(alpha/z) and
    # S-* H-(delta) = H-(z delta), and the Hankel-product form of M.
    tp_b = build(OpKind.TOEPLITZ_PLUS, data.beta, N)
    tm_g = build(OpKind.TOEPLITZ_MINUS, data.gamma, N)
    hp_a = build(OpKind.HANKEL_PLUS, data.alpha, N)
    hm_d = build(OpKind.HANKEL_MINUS, data.delta, N)
    primary = np.block([
        [tp_a @ da @ tp_a.conj().T - sp_p @ tp_b @ dd @ tp_b.conj().T @ sp_p.conj().T,
         hp_b @ dd @ tm_d.conj().T - sp_p.conj().T @ hp_a @ da @ tm_g.conj().T @ sm_q.conj().T],
        [hm_g @ da @ tp_a.conj().T - sm_q.conj().T @ hm_d @ dd @ tp_b.conj().T @ sp_p.conj().T,
         tm_d @ dd @ tm_d.conj().T - sm_q @ tm_g @ da @ tm_g.conj().T @ sm_q.conj().T],
    ])
    hankel = np.block([
        [np.eye(n) - hp_la @ da @ hp_la.conj().T + hp_b @ dd @ hp_b.conj().T,
         tp_a @ da @ hm_g.conj().T - tp_lb @ dd @ hm_ld.conj().T],
        [tm_d @ dd @ hp_b.conj().T - tm_lg @ da @ hp_la.conj().T,
         np.eye(N * q) - hm_ld @ dd @ hm_ld.conj().T + hm_g @ da @ hm_g.conj().T],
    ])

    # Selfadjointness and agreement with the two other forms of M.
    spaces = plus_p + minus_q
    structure = {
        "adjoint_m12_m21": _maxabs(m12.conj().T - m21),
        "m11_hermitian": _maxabs(m11.conj().T - m11),
        "m22_hermitian": _maxabs(m22.conj().T - m22),
        "variant_agreement": _maxabs(primary - mm),
        "hankel_form_agreement": res(hankel - mm, spaces, spaces),
    }

    # J-congruence with J = diag(I, -I), and the shift intertwining.
    mjm = (mm * np.repeat([1.0, -1.0], [n, N * q])) @ mm
    mjm[:n, :n] -= m11
    mjm[n:, n:] += m22
    inter = m11 @ sp_p.conj().T @ m12 - m12 @ sm_q @ m22

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
