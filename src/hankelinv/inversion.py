"""The 2x2 block operators of the inverse problem and their identity suite.

``build_omega`` assembles the window of [[I, H+(g)], [H-(g*), I]] and
``build_m`` the window of its inverse candidate M, from the data symbols
alone.  Two equivalent assembly routes for M are implemented: the
``primary`` route with explicit shift factors and the ``alternate`` route
that absorbs the shifts into the symbols.  The alternate route is the
default (fewer multiplies).  A third, Hankel-product form is used
internally by the identity suite as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularCornerError
from .series import LaurentPoly, SubspaceTag, as_matrix
from .structured import OpKind, build, corner_slice

CORNER_COND_LIMIT = 1e12


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
        a0 = self.alpha.coeff(0) if self.a0 is None else as_matrix(self.a0, p, p)
        d0 = self.delta.coeff(0) if self.d0 is None else as_matrix(self.d0, q, q)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "d0", d0)

    @property
    def p(self) -> int:
        return self.alpha.rows

    @property
    def q(self) -> int:
        return self.delta.rows

    @property
    def m(self) -> int:
        """Largest degree appearing in any of the four symbols."""
        degs = [0]
        for sym in (self.alpha, self.beta):
            if not sym.is_zero:
                degs.append(sym.hi)
        for sym in (self.gamma, self.delta):
            if not sym.is_zero:
                degs.append(-sym.lo)
        return max(degs)

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


def trivial_data(p: int, q: int) -> DataSet:
    """The data set {e_p, 0, 0, e_q} whose solution is g = 0."""
    return DataSet(
        alpha=LaurentPoly.identity(p),
        beta=LaurentPoly.zero(p, q),
        gamma=LaurentPoly.zero(q, p),
        delta=LaurentPoly.identity(q),
    )


@dataclass
class BigOp:
    """A 2x2 block operator over the two windowed sequence spaces."""

    p: int
    q: int
    n_blocks: int
    pp: np.ndarray
    pq: np.ndarray
    qp: np.ndarray
    qq: np.ndarray

    def __post_init__(self):
        N, p, q = self.n_blocks, self.p, self.q
        expect = {
            "pp": (N * p, N * p),
            "pq": (N * p, N * q),
            "qp": (N * q, N * p),
            "qq": (N * q, N * q),
        }
        for name, shape in expect.items():
            if getattr(self, name).shape != shape:
                raise ShapeError(f"block {name} must be {shape}")

    @property
    def dense(self) -> np.ndarray:
        top = np.hstack([self.pp, self.pq])
        bottom = np.hstack([self.qp, self.qq])
        return np.vstack([top, bottom])


# -- column helpers ---------------------------------------------------------


def plus_unit_column(n: int, n_blocks: int) -> np.ndarray:
    """The map C^n -> plus window hitting the first block with I_n."""
    col = np.zeros((n_blocks * n, n), dtype=complex)
    col[:n, :] = np.eye(n)
    return col


def minus_unit_column(n: int, n_blocks: int) -> np.ndarray:
    """The map C^n -> minus window hitting the last (degree 0) block."""
    col = np.zeros((n_blocks * n, n), dtype=complex)
    col[-n:, :] = np.eye(n)
    return col


def plus_coeff_column(sym: LaurentPoly, n_blocks: int) -> np.ndarray:
    """Stack coefficients 0..N-1 of a plus symbol into a window column."""
    return sym.coeff_run(0, n_blocks).reshape(n_blocks * sym.rows, sym.cols)


def minus_coeff_column(sym: LaurentPoly, n_blocks: int) -> np.ndarray:
    """Stack coefficients -N+1..0 of a minus symbol into a window column."""
    return sym.coeff_run(1 - n_blocks, n_blocks).reshape(n_blocks * sym.rows, sym.cols)


# -- operator assembly ------------------------------------------------------


def _plus_extent(sym: LaurentPoly) -> int:
    """Block extent of the corner of a plus symbol (degrees read as [0, hi])."""
    return 1 if sym.is_zero else max(sym.hi, 0) + 1


def build_omega(g: LaurentPoly, n_blocks: int) -> BigOp:
    """Window of [[I, H+(g)], [H-(g*), I]] for a plus symbol g."""
    if not g.in_subspace(SubspaceTag.PLUS):
        raise ShapeError("g must be supported on degrees >= 0")
    N = int(n_blocks)
    p, q = g.rows, g.cols
    hp = build(OpKind.HANKEL_PLUS, g, N)
    return BigOp(
        p=p,
        q=q,
        n_blocks=N,
        pp=np.eye(N * p, dtype=complex),
        pq=hp,
        qp=hp.conj().T,
        qq=np.eye(N * q, dtype=complex),
    )


def build_m(data: DataSet, n_blocks: int, variant: str = "alternate") -> BigOp:
    """Window of the inverse candidate M assembled from the data.

    ``variant='primary'`` uses the defining products with explicit shift
    factors; ``variant='alternate'`` absorbs the shifts into the symbols.
    At any window wider than the symbol supports the two fills agree
    entrywise.
    """
    if variant not in ("primary", "alternate"):
        raise ValueError(f"unknown variant {variant!r}")
    N = int(n_blocks)
    if N < 1:
        raise ShapeError("window must retain at least one block")
    p, q = data.p, data.q
    a0inv, d0inv = data.corner_inverses()
    da = np.kron(np.eye(N), a0inv)
    dd = np.kron(np.eye(N), d0inv)
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta

    tp_a = build(OpKind.TOEPLITZ_PLUS, al, N)
    tm_d = build(OpKind.TOEPLITZ_MINUS, de, N)
    hm_g = build(OpKind.HANKEL_MINUS, ga, N)
    hp_b = build(OpKind.HANKEL_PLUS, be, N)

    if variant == "primary":
        sp_p = build(OpKind.SHIFT_PLUS, p, N)
        sm_q = build(OpKind.SHIFT_MINUS, q, N)
        tp_b = build(OpKind.TOEPLITZ_PLUS, be, N)
        tm_g = build(OpKind.TOEPLITZ_MINUS, ga, N)
        hp_a = build(OpKind.HANKEL_PLUS, al, N)
        hm_d = build(OpKind.HANKEL_MINUS, de, N)
        m11 = tp_a @ da @ tp_a.conj().T - sp_p @ tp_b @ dd @ tp_b.conj().T @ sp_p.conj().T
        m21 = hm_g @ da @ tp_a.conj().T - sm_q.conj().T @ hm_d @ dd @ tp_b.conj().T @ sp_p.conj().T
        m12 = hp_b @ dd @ tm_d.conj().T - sp_p.conj().T @ hp_a @ da @ tm_g.conj().T @ sm_q.conj().T
        m22 = tm_d @ dd @ tm_d.conj().T - sm_q @ tm_g @ da @ tm_g.conj().T @ sm_q.conj().T
    else:
        tp_lb = build(OpKind.TOEPLITZ_PLUS, be.shifted(1), N)
        tm_lg = build(OpKind.TOEPLITZ_MINUS, ga.shifted(-1), N)
        hp_la = build(OpKind.HANKEL_PLUS, al.shifted(-1), N)
        hm_ld = build(OpKind.HANKEL_MINUS, de.shifted(1), N)
        m11 = tp_a @ da @ tp_a.conj().T - tp_lb @ dd @ tp_lb.conj().T
        m21 = hm_g @ da @ tp_a.conj().T - hm_ld @ dd @ tp_lb.conj().T
        m12 = hp_b @ dd @ tm_d.conj().T - hp_la @ da @ tm_lg.conj().T
        m22 = tm_d @ dd @ tm_d.conj().T - tm_lg @ da @ tm_lg.conj().T

    return BigOp(
        p=p,
        q=q,
        n_blocks=N,
        pp=m11,
        pq=m12,
        qp=m21,
        qq=m22,
    )


def _build_m_hankel(data: DataSet, n_blocks: int) -> BigOp:
    """The Hankel-product form of M (used as a cross-check)."""
    N = int(n_blocks)
    p, q = data.p, data.q
    a0inv, d0inv = data.corner_inverses()
    da = np.kron(np.eye(N), a0inv)
    dd = np.kron(np.eye(N), d0inv)
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta

    hp_la = build(OpKind.HANKEL_PLUS, al.shifted(-1), N)
    hp_b = build(OpKind.HANKEL_PLUS, be, N)
    hm_g = build(OpKind.HANKEL_MINUS, ga, N)
    hm_ld = build(OpKind.HANKEL_MINUS, de.shifted(1), N)
    tp_a = build(OpKind.TOEPLITZ_PLUS, al, N)
    tp_lb = build(OpKind.TOEPLITZ_PLUS, be.shifted(1), N)
    tm_d = build(OpKind.TOEPLITZ_MINUS, de, N)
    tm_lg = build(OpKind.TOEPLITZ_MINUS, ga.shifted(-1), N)

    m11 = np.eye(N * p) - hp_la @ da @ hp_la.conj().T + hp_b @ dd @ hp_b.conj().T
    m21 = tm_d @ dd @ hp_b.conj().T - tm_lg @ da @ hp_la.conj().T
    m12 = tp_a @ da @ hm_g.conj().T - tp_lb @ dd @ hm_ld.conj().T
    m22 = np.eye(N * q) - hm_ld @ dd @ hm_ld.conj().T + hm_g @ da @ hm_g.conj().T
    return BigOp(
        p=p,
        q=q,
        n_blocks=N,
        pp=m11,
        pq=m12,
        qp=m21,
        qq=m22,
    )


def inverse_margin(data: DataSet, g: LaurentPoly, n_blocks: int) -> int:
    """Conservative exact margin for products of M against Omega."""
    return max(0, n_blocks - (2 * data.extent() + _plus_extent(g)))


def _block_residual(diff, p, q, n_blocks, margin):
    """Max abs of a 2x2 block window matrix on the anchored margin corners."""
    N = n_blocks
    rows_p = corner_slice("plus", N, margin, p)
    rows_q = corner_slice("minus", N, margin, q)
    cols_p = corner_slice("plus", N, margin, p)
    cols_q = corner_slice("minus", N, margin, q)
    np_, nq = N * p, N * q
    pieces = [
        diff[:np_, :np_][rows_p, cols_p],
        diff[:np_, np_:][rows_p, cols_q],
        diff[np_:, :np_][rows_q, cols_p],
        diff[np_:, np_:][rows_q, cols_q],
    ]
    vals = [float(np.max(np.abs(x))) for x in pieces if x.size]
    return max(vals) if vals else float("nan")


def verify_inverse(omega: BigOp, m: BigOp, margin: int) -> dict:
    """Residuals of M Omega = I and Omega M = I on the margin corners."""
    if (omega.p, omega.q, omega.n_blocks) != (m.p, m.q, m.n_blocks):
        raise ShapeError("window shapes of omega and m do not match")
    N, p, q = omega.n_blocks, omega.p, omega.q
    eye = np.eye(N * (p + q))
    om, mm = omega.dense, m.dense
    return {
        "m_omega": _block_residual(mm @ om - eye, p, q, N, margin),
        "omega_m": _block_residual(om @ mm - eye, p, q, N, margin),
        "margin": margin,
        "inconclusive": margin <= 0,
    }


# -- the identity suite -----------------------------------------------------


def _maxabs(x) -> float:
    return float(np.max(np.abs(x))) if x.size else float("nan")


def _stacked_corner_indices(spaces, n_blocks, margin):
    """Absolute row/col indices of the margin corners in a stacked window.

    ``spaces`` lists (space, block_dim) in stacking order.
    """
    idx = []
    offset = 0
    for space, blk in spaces:
        s = corner_slice(space, n_blocks, margin, blk)
        idx.append(np.arange(offset + s.start, offset + s.stop))
        offset += n_blocks * blk
    return np.concatenate(idx) if idx else np.array([], dtype=int)


def check_lemma_suite(data: DataSet, n_blocks: int, tol: float = 1e-10) -> dict:
    """Residuals of the structural identities satisfied by M.

    Covers the Toeplitz/Hankel exchange identities, the unit-column
    identities (M applied to the unit columns returns the coefficient
    columns), selfadjointness M12* = M21, agreement of the three assembly
    routes, the J-congruence M J M = diag(M11, -M22) and the shift
    intertwining M11 S+* M12 = M12 S- M22.

    The data identities are a precondition; their residual triple is
    reported and ``precondition_ok`` is False when it exceeds ``tol``.
    The alternate-route window of M that the suite checks is returned
    under ``"m_alternate"``.
    """
    N = int(n_blocks)
    p, q = data.p, data.q
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta

    id_res = identity_residual_triple(data)
    precondition_ok = max(id_res) <= tol

    m_alt = build_m(data, N, "alternate")
    m_pri = build_m(data, N, "primary")
    m_hk = _build_m_hankel(data, N)

    margin_pair = max(0, N - 2 * data.extent())

    # Exchange identities: T+(rho*) H+(...) = H+(...) T-(...) in block form.
    tp_as = build(OpKind.TOEPLITZ_PLUS, al.adjoint(), N)
    tp_lbs = build(OpKind.TOEPLITZ_PLUS, be.adjoint().shifted(-1), N)
    hp_la = build(OpKind.HANKEL_PLUS, al.shifted(-1), N)
    hp_b = build(OpKind.HANKEL_PLUS, be, N)
    hp_gs = build(OpKind.HANKEL_PLUS, ga.adjoint(), N)
    hp_lds = build(OpKind.HANKEL_PLUS, de.adjoint().shifted(-1), N)
    tm_lg = build(OpKind.TOEPLITZ_MINUS, ga.shifted(-1), N)
    tm_d = build(OpKind.TOEPLITZ_MINUS, de, N)

    def pm_res(lhs, rhs, br, bc):
        rs = corner_slice("plus", N, margin_pair, br)
        cs = corner_slice("minus", N, margin_pair, bc)
        d = (lhs - rhs)[rs, cs]
        return _maxabs(d)

    thht = {
        "thht_aa": pm_res(tp_as @ hp_la, hp_gs @ tm_lg, p, p),
        "thht_ab": pm_res(tp_as @ hp_b, hp_gs @ tm_d, p, q),
        "thht_ba": pm_res(tp_lbs @ hp_la, hp_lds @ tm_lg, q, p),
        "thht_bb": pm_res(tp_lbs @ hp_b, hp_lds @ tm_d, q, q),
    }

    # Shifted variant of the exchange identity (one extra backward shift).
    sp_p = build(OpKind.SHIFT_PLUS, p, N)
    sm_q = build(OpKind.SHIFT_MINUS, q, N)
    lhs_shift = np.vstack([tp_as, tp_lbs]) @ sp_p.conj().T @ np.hstack([hp_la, hp_b])
    rhs_shift = np.vstack([hp_gs, hp_lds]) @ sm_q @ np.hstack([tm_lg, tm_d])
    rs = _stacked_corner_indices([("plus", p), ("plus", q)], N, margin_pair)
    cs = _stacked_corner_indices([("minus", p), ("minus", q)], N, margin_pair)
    if rs.size and cs.size:
        thht_shifted = _maxabs((lhs_shift - rhs_shift)[np.ix_(rs, cs)])
    else:
        thht_shifted = float("nan")

    # Unit-column identities: M maps the unit columns to the data columns.
    units = {
        "units_a": _maxabs(m_alt.pp @ plus_unit_column(p, N) - plus_coeff_column(al, N)),
        "units_b": _maxabs(m_alt.pq @ minus_unit_column(q, N) - plus_coeff_column(be, N)),
        "units_c": _maxabs(m_alt.qp @ plus_unit_column(p, N) - minus_coeff_column(ga, N)),
        "units_d": _maxabs(m_alt.qq @ minus_unit_column(q, N) - minus_coeff_column(de, N)),
    }

    # Selfadjointness and agreement between the assembly routes.
    structure = {
        "adjoint_m12_m21": _maxabs(m_alt.pq.conj().T - m_alt.qp),
        "m11_hermitian": _maxabs(m_alt.pp.conj().T - m_alt.pp),
        "m22_hermitian": _maxabs(m_alt.qq.conj().T - m_alt.qq),
        "variant_agreement": _maxabs(m_pri.dense - m_alt.dense),
        "hankel_form_agreement": _block_residual(
            m_hk.dense - m_alt.dense, p, q, N, margin_pair
        ),
    }

    # J-congruence and the shift intertwining.
    mm = m_alt.dense
    jj = np.block(
        [
            [np.eye(N * p), np.zeros((N * p, N * q))],
            [np.zeros((N * q, N * p)), -np.eye(N * q)],
        ]
    )
    target = np.block(
        [
            [m_alt.pp, np.zeros((N * p, N * q))],
            [np.zeros((N * q, N * p)), -m_alt.qq],
        ]
    )
    j_res = _block_residual(mm @ jj @ mm - target, p, q, N, margin_pair)
    inter = m_alt.pp @ sp_p.conj().T @ m_alt.pq - m_alt.pq @ sm_q @ m_alt.qq
    rs2 = corner_slice("plus", N, margin_pair, p)
    cs2 = corner_slice("minus", N, margin_pair, q)
    inter_res = _maxabs(inter[rs2, cs2])

    out = {
        "precondition_identities": max(id_res),
        "precondition_ok": precondition_ok,
        "margin": margin_pair,
        "inconclusive": margin_pair == 0,
        "j_congruence": j_res,
        "intertwine": inter_res,
        "thht_shifted": thht_shifted,
        "m_alternate": m_alt,
    }
    out.update(thht)
    out.update(units)
    out.update(structure)
    return out


def identity_residual_triple(data: DataSet):
    """The three data-identity residuals (sup norm over degrees)."""
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta
    r1 = (al.adjoint() * al - ga.adjoint() * ga - LaurentPoly.constant(data.a0)).sup_norm()
    r2 = (de.adjoint() * de - be.adjoint() * be - LaurentPoly.constant(data.d0)).sup_norm()
    r3 = (al.adjoint() * be - ga.adjoint() * de).sup_norm()
    return (r1, r2, r3)
