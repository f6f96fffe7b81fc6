"""Checks and reference oracles that only the tests use.

The oracles here are independent of the code they check: the Laplace
cofactor expansion of a determinant (against ``LaurentPoly.det``), the
least-squares reading of the corner operator entries (against the
solvers), the Toeplitz/Hankel product and shift identities on exact
margin sub-windows (against ``structured.build``), the corner
extraction and congruence structure of the window of Omega, and the
data identities and inclusions written out symbol by symbol (against
their block-row forms in the package), and M assembled from eight symbol
windows (against ``build_m``'s four windows of the two shifted rows), and
the Schur-Cohn recursion written one allocating step at a time (against
the in-place recursion of the zero gate).

Identities that suffer truncation corner effects are asserted here only on
a conservative exact margin: ``margin = N - sum(symbol support widths)``.
The margin sub-window hugs the anchored corner of each space (top rows for
a plus codomain, bottom rows for a minus codomain, and likewise for the
domain columns); ``corner_residual`` reads a window matrix there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hankelinv import DataSet, LaurentPoly, OpKind, build, build_omega, hankel_norm, lp_mul
from hankelinv.diagnostics import CheckEntry, CheckReport
from hankelinv.errors import ShapeError


def _maxabs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def _entry(name, value, threshold):
    verdict = "pass" if value <= threshold else "fail"
    return CheckEntry(name, float(value), float(threshold), verdict)


# -- data and margins ---------------------------------------------------------


def trivial_data(p: int, q: int) -> DataSet:
    """The data set {e_p, 0, 0, e_q} whose solution is g = 0."""
    return DataSet(
        alpha=LaurentPoly.identity(p),
        beta=LaurentPoly.zero(p, q),
        gamma=LaurentPoly.zero(q, p),
        delta=LaurentPoly.identity(q),
    )


def margin_for(n_blocks: int, *symbols) -> int:
    """Conservative exact margin: N minus the sum of support widths."""
    total = 0
    for sym in symbols:
        if isinstance(sym, LaurentPoly):
            total += sym.width()
        else:
            total += 1
    return max(0, n_blocks - total)


def _corner_indices(spaces, n_blocks, margin):
    """Indices of the margin corners along one axis of a stacked window.

    ``spaces`` lists (space, block) in stacking order; a plus space keeps
    its first ``margin`` blocks, a minus space its last.
    """
    m = min(max(margin, 0), n_blocks)
    idx = []
    offset = 0
    for space, blk in spaces:
        start = offset if space == "plus" else offset + (n_blocks - m) * blk
        idx.append(np.arange(start, start + m * blk))
        offset += n_blocks * blk
    return np.concatenate(idx)


def corner_residual(diff, rows, cols, n_blocks: int, margin: int) -> float:
    """Max abs of a window matrix on the corners where an identity is exact.

    ``rows`` and ``cols`` list the (space, block) pairs stacked along each
    axis, space ``"plus"`` or ``"minus"``; the corner of each pair of
    spaces is the margin sub-window hugging their anchored ends.  NaN when
    the margin is empty.
    """
    ri = _corner_indices(rows, n_blocks, margin)
    ci = _corner_indices(cols, n_blocks, margin)
    if not (ri.size and ci.size):
        return float("nan")
    return float(np.max(np.abs(diff[np.ix_(ri, ci)])))


def lp_det_cofactor(f: LaurentPoly) -> LaurentPoly:
    """Determinant by Laplace expansion; cross-check path for small sizes."""
    if f.rows != f.cols:
        raise ShapeError("determinant requires a square symbol")
    n = f.rows
    if n == 1:
        return f

    lo = 0 if f.is_zero else f.lo
    run = f.coeff_run(lo, f.width())

    def entry(i, j):
        return LaurentPoly.from_run(lo, run[:, i : i + 1, j : j + 1])

    def minor(rows, cols):
        if len(rows) == 1:
            return entry(rows[0], cols[0])
        acc = LaurentPoly.zero(1, 1)
        for t, j in enumerate(cols):
            sub = minor(rows[1:], cols[:t] + cols[t + 1 :])
            acc = acc + (-1) ** t * lp_mul(entry(rows[0], j), sub)
        return acc

    idx = tuple(range(n))
    return minor(idx, idx)


def reflection_margin_reference(c, r):
    """Smallest 1 - |k| over the Schur-Cohn recursion on a_j = c_j r**j.

    Each step takes the reflection coefficient k = a_n / a_0 and, while
    |k| < 1, the reduced polynomial conj(a_0) a - a_n a~ of degree n - 1,
    a~_j = conj(a_{n-j}).  The recursion stops at the first |k| >= 1.  A
    step's margin is (|a_0| - |a_n|) / max(|a_0|, |a_n|): 1 - |k| when
    |k| <= 1, and in [-1, 0) beyond, so a zero at the origin stays finite.
    """
    a = c * r ** np.arange(c.size)
    margin = 1.0
    while a.size > 1:
        # tail > 0 at the first step (deflated), head > 0 after it
        head, tail = float(abs(a[0])), float(abs(a[-1]))
        margin = min(margin, (head - tail) / max(head, tail))
        if margin <= 0.0:
            break
        a = (np.conj(a[0]) * a - a[-1] * np.conj(a[::-1]))[:-1]
        a = a / np.max(np.abs(a))
    return margin


def corner_solve_data(p, q, m, norm, seed):
    """g of Hankel norm ``norm`` and its data from a dense corner solve.

    Any norm is allowed: the corner operator Omega = [[I, G], [G*, I]] is
    invertible unless 1 is a singular value of the Hankel corner G.
    Returns (g coefficients, DataSet, cond(Omega)).
    """
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((m + 1, p, q)) + 1j * rng.standard_normal((m + 1, p, q))) / np.sqrt(2)
    n = m + 1
    corner = np.zeros((n * p, n * q), dtype=complex)
    for i in range(n):
        for j in range(i, n):  # block (i, j) holds g_{i + m - j}
            corner[i * p : (i + 1) * p, j * q : (j + 1) * q] = g[i + m - j]
    scale = norm / np.linalg.svd(corner, compute_uv=False)[0]
    g, corner = scale * g, scale * corner
    omega = np.block([[np.eye(n * p), corner], [corner.conj().T, np.eye(n * q)]])
    rhs = np.zeros((n * (p + q), p + q), dtype=complex)
    rhs[:p, :p] = np.eye(p)
    rhs[-q:, p:] = np.eye(q)
    sol = np.linalg.solve(omega, rhs)
    top, bottom = sol[: n * p], sol[n * p :]
    data = DataSet(
        alpha=LaurentPoly.from_run(0, top[:, :p].reshape(n, p, p)),
        beta=LaurentPoly.from_run(0, top[:, p:].reshape(n, p, q)),
        gamma=LaurentPoly.from_run(-m, bottom[:, :p].reshape(n, q, p)),
        delta=LaurentPoly.from_run(-m, bottom[:, p:].reshape(n, q, q)),
    )
    return g, data, np.linalg.cond(omega)


# -- the data identities and inclusions, symbol by symbol ------------------------


def identity_triple_per_symbol(data: DataSet) -> tuple:
    """alpha* alpha - gamma* gamma - a0, delta* delta - beta* beta - d0 and
    alpha* beta - gamma* delta, each as a sup norm over degrees."""
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta
    r1 = (al.adjoint() * al - ga.adjoint() * ga - LaurentPoly.constant(data.a0)).sup_norm()
    r2 = (de.adjoint() * de - be.adjoint() * be - LaurentPoly.constant(data.d0)).sup_norm()
    r3 = (al.adjoint() * be - ga.adjoint() * de).sup_norm()
    return (r1, r2, r3)


def dual_triple_per_symbol(data: DataSet) -> tuple:
    """alpha a0^-1 alpha* - beta d0^-1 beta* - I, delta d0^-1 delta* -
    gamma a0^-1 gamma* - I and alpha a0^-1 gamma* - beta d0^-1 delta*."""
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta
    a0inv, d0inv = data.corner_inverses
    ai, di = LaurentPoly.constant(a0inv), LaurentPoly.constant(d0inv)
    e_p, e_q = LaurentPoly.identity(data.p), LaurentPoly.identity(data.q)
    s1 = (al * ai * al.adjoint() - be * di * be.adjoint() - e_p).sup_norm()
    s2 = (de * di * de.adjoint() - ga * ai * ga.adjoint() - e_q).sup_norm()
    s3 = (al * ai * ga.adjoint() - be * di * de.adjoint()).sup_norm()
    return (s1, s2, s3)


def plus_part(f: LaurentPoly) -> LaurentPoly:
    """The coefficients of f of degrees >= 0, as a series."""
    count = 0 if f.is_zero else max(f.hi + 1, 0)
    return LaurentPoly.from_run(0, f.coeff_run(0, count))


def minus_part(f: LaurentPoly) -> LaurentPoly:
    """The coefficients of f of degrees <= 0, as a series."""
    count = 0 if f.is_zero else max(1 - f.lo, 0)
    return LaurentPoly.from_run(1 - count, f.coeff_run(1 - count, count))


def inclusions_per_symbol(data: DataSet, g: LaurentPoly) -> tuple:
    """The four projected inclusions, in ``verify_solution``'s order."""
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta
    e_p, e_q = LaurentPoly.identity(data.p), LaurentPoly.identity(data.q)
    gs = g.adjoint()
    return (
        plus_part(al + g * ga - e_p).sup_norm(),
        minus_part(gs * al + ga).sup_norm(),
        minus_part(de + gs * be - e_q).sup_norm(),
        plus_part(g * de + be).sup_norm(),
    )


def build_m_eight_windows(data: DataSet, N: int) -> np.ndarray:
    """M's window from the eight symbol windows and block-diagonal corner inverses.

    The windows are T+(alpha), T+(z beta), H-(gamma), H-(z delta), H+(beta),
    H+(alpha/z), T-(delta) and T-(gamma/z); the corner inverses enter as
    np.kron(I_N, a0^-1) and np.kron(I_N, d0^-1).
    """
    a0inv, d0inv = data.corner_inverses
    da = np.kron(np.eye(N), a0inv)
    dd = np.kron(np.eye(N), d0inv)
    al, be, ga, de = data.alpha, data.beta, data.gamma, data.delta
    tp_a = build(OpKind.TOEPLITZ_PLUS, al, N)
    tp_lb = build(OpKind.TOEPLITZ_PLUS, be.shifted(1), N)
    hm_g = build(OpKind.HANKEL_MINUS, ga, N)
    hm_ld = build(OpKind.HANKEL_MINUS, de.shifted(1), N)
    hp_b = build(OpKind.HANKEL_PLUS, be, N)
    hp_la = build(OpKind.HANKEL_PLUS, al.shifted(-1), N)
    tm_d = build(OpKind.TOEPLITZ_MINUS, de, N)
    tm_lg = build(OpKind.TOEPLITZ_MINUS, ga.shifted(-1), N)
    n = N * data.p
    out = np.empty((N * (data.p + data.q),) * 2, dtype=complex)
    out[:n, :n] = tp_a @ da @ tp_a.conj().T - tp_lb @ dd @ tp_lb.conj().T
    out[n:, :n] = hm_g @ da @ tp_a.conj().T - hm_ld @ dd @ tp_lb.conj().T
    out[:n, n:] = hp_b @ dd @ tm_d.conj().T - hp_la @ da @ tm_lg.conj().T
    out[n:, n:] = tm_d @ dd @ tm_d.conj().T - tm_lg @ da @ tm_lg.conj().T
    return out


# -- structured identities ------------------------------------------------------


def check_product_rules(rho: LaurentPoly, phi: LaurentPoly, n_blocks: int) -> dict:
    """Residuals of the four Toeplitz/Hankel product identities.

    The identities relate the window of a product symbol to products of
    windows; they hold exactly on the margin sub-window.  Returns a dict
    with one residual per identity, the exact margin and an inconclusive
    flag when the margin is empty.
    """
    if rho.cols != phi.rows:
        raise ShapeError("symbols do not compose")
    N = int(n_blocks)
    prod = rho * phi
    margin = margin_for(N, rho, phi)

    def dn(kind, sym):
        return build(kind, sym, N)

    tp, tm = OpKind.TOEPLITZ_PLUS, OpKind.TOEPLITZ_MINUS
    hp, hm = OpKind.HANKEL_PLUS, OpKind.HANKEL_MINUS
    n, m, k = rho.rows, rho.cols, phi.cols

    residuals = {
        "toeplitz_plus": corner_residual(
            dn(tp, prod)
            - (dn(tp, rho) @ dn(tp, phi) + dn(hp, rho.shifted(-1)) @ dn(hm, phi.shifted(1))),
            [("plus", n)], [("plus", k)], N, margin,
        ),
        "hankel_plus": corner_residual(
            dn(hp, prod.shifted(-1))
            - (dn(hp, rho.shifted(-1)) @ dn(tm, phi) + dn(tp, rho) @ dn(hp, phi.shifted(-1))),
            [("plus", n)], [("minus", k)], N, margin,
        ),
        "hankel_minus": corner_residual(
            dn(hm, prod.shifted(1))
            - (dn(tm, rho) @ dn(hm, phi.shifted(1)) + dn(hm, rho.shifted(1)) @ dn(tp, phi)),
            [("minus", n)], [("plus", k)], N, margin,
        ),
        "toeplitz_minus": corner_residual(
            dn(tm, prod)
            - (dn(tm, rho) @ dn(tm, phi) + dn(hm, rho.shifted(1)) @ dn(hp, phi.shifted(-1))),
            [("minus", n)], [("minus", k)], N, margin,
        ),
    }
    return {
        "residuals": residuals,
        "margin": margin,
        "inconclusive": margin == 0,
    }


def check_shift_relations(rho: LaurentPoly, n_blocks: int) -> dict:
    """Residuals of the shift/Hankel rewrite rules on the margin window.

    Checks S-* H-(rho) = H-(z rho) and S+* H+(rho) = H+(rho / z).
    """
    N = int(n_blocks)
    margin = margin_for(N, rho)
    n, m = rho.rows, rho.cols
    sm = build(OpKind.TOEPLITZ_MINUS, LaurentPoly.single(-1, np.eye(n)), N)
    sp = build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(n)), N)
    res_minus = corner_residual(
        sm.conj().T @ build(OpKind.HANKEL_MINUS, rho, N)
        - build(OpKind.HANKEL_MINUS, rho.shifted(1), N),
        [("minus", n)], [("plus", m)], N, margin,
    )
    res_plus = corner_residual(
        sp.conj().T @ build(OpKind.HANKEL_PLUS, rho, N)
        - build(OpKind.HANKEL_PLUS, rho.shifted(-1), N),
        [("plus", n)], [("minus", m)], N, margin,
    )
    return {
        "residuals": {"minus": res_minus, "plus": res_plus},
        "margin": margin,
        "inconclusive": margin == 0,
    }


def hankel_shift_intertwine_residuals(rho: LaurentPoly, n_blocks: int) -> dict:
    """Residuals of S+* H+ = H+ S- and S-* H- = H- S+ off the far edge.

    The relations hold exactly except possibly on the last block row and
    column of the window, which is what gets excluded here.
    """
    N = int(n_blocks)
    n, m = rho.rows, rho.cols
    hp = build(OpKind.HANKEL_PLUS, rho, N)
    hm = build(OpKind.HANKEL_MINUS, rho, N)
    sp_n = build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(n)), N)
    sm_m = build(OpKind.TOEPLITZ_MINUS, LaurentPoly.single(-1, np.eye(m)), N)
    sm_n = build(OpKind.TOEPLITZ_MINUS, LaurentPoly.single(-1, np.eye(n)), N)
    sp_m = build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(m)), N)

    d_plus = sp_n.conj().T @ hp - hp @ sm_m
    d_minus = sm_n.conj().T @ hm - hm @ sp_m
    # plus relation: drop the last plus row block and the first minus column
    # block (the far edges of each space).
    res_plus = float(np.max(np.abs(d_plus[: (N - 1) * n, m:]))) if N > 1 else 0.0
    res_minus = float(np.max(np.abs(d_minus[n:, : (N - 1) * m]))) if N > 1 else 0.0
    return {"plus": res_plus, "minus": res_minus}


# -- brute-force recovery -------------------------------------------------------


@dataclass
class BruteRecovery:
    """Least-squares reading of the corner operator entries."""

    g: LaurentPoly
    hankel_defect: float
    lstsq_residual: float
    under_determined: bool
    rank: int
    unknowns: int


def brute_recover_g(data: DataSet) -> BruteRecovery:
    """Recover g by treating every corner block as an unknown.

    Imposes the two corner systems as linear equations on the (m+1)^2
    block entries (no Hankel structure assumed), solves in least squares
    and reads the coefficients off the window diagonals.  The spread among
    entries that should coincide is the Hankel-consistency defect.  The
    equation count (m+1)(p+q)^2 falls below the unknown count (m+1)^2 pq
    once m+1 exceeds (p+q)^2/(pq), in which case the system is flagged as
    under-determined and the reading is not an oracle.
    """
    p, q, m = data.p, data.q, data.m
    nb = m + 1
    a_col = data.alpha.coeff_run(0, nb).reshape(nb * p, p)
    b_col = data.beta.coeff_run(0, nb).reshape(nb * p, q)
    c_col = data.gamma.coeff_run(-m, nb).reshape(nb * q, p)
    d_col = data.delta.coeff_run(-m, nb).reshape(nb * q, q)
    e_plus = np.zeros((nb * p, p), dtype=complex)
    e_plus[:p] = np.eye(p)
    e_minus = np.zeros((nb * q, q), dtype=complex)
    e_minus[-q:] = np.eye(q)

    unknowns = nb * nb * p * q

    def unk(r, s, i, j):
        return ((r * nb + s) * p + i) * q + j

    rows = []
    rhs = []

    def add_direct(col_blocks, target):
        # sum_s X[r, s] v_s = t_r, linear in the entries of X
        ncols = target.shape[1]
        for r in range(nb):
            for i in range(p):
                for c in range(ncols):
                    row = np.zeros(unknowns, dtype=complex)
                    for s in range(nb):
                        for j in range(q):
                            row[unk(r, s, i, j)] = col_blocks[s * q + j, c]
                    rows.append(row)
                    rhs.append(target[r * p + i, c])

    def add_adjoint(col_blocks, target):
        # sum_r X[r, s]^H w_r = t_s; conjugated to stay linear in X
        ncols = target.shape[1]
        for s in range(nb):
            for j in range(q):
                for c in range(ncols):
                    row = np.zeros(unknowns, dtype=complex)
                    for r in range(nb):
                        for i in range(p):
                            row[unk(r, s, i, j)] = np.conj(col_blocks[r * p + i, c])
                    rows.append(row)
                    rhs.append(np.conj(target[s * q + j, c]))

    add_direct(c_col, e_plus - a_col)       # a + G c = e_+
    add_adjoint(a_col, -c_col)              # G* a = -c
    add_direct(d_col, -b_col)               # b + G d = 0
    add_adjoint(b_col, e_minus - d_col)     # G* b = e_- - d

    A = np.array(rows)
    y = np.array(rhs)
    x, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(np.linalg.norm(A @ x - y))
    X = x.reshape(nb, nb, p, q)

    defect = 0.0
    run = np.empty((2 * nb - 1, p, q), dtype=complex)
    for off in range(-(nb - 1), nb):
        samples = [X[t + max(0, off), t + max(0, -off)] for t in range(nb - abs(off))]
        stack = np.array(samples)
        mean = stack.mean(axis=0)
        if len(samples) > 1:
            defect = max(defect, float(np.max(np.abs(stack - mean))))
        run[off + m] = mean  # window diagonal off carries degree off + m
    g = LaurentPoly.from_run(0, run)
    return BruteRecovery(
        g=g,
        hankel_defect=defect,
        lstsq_residual=residual,
        under_determined=rank < unknowns,
        rank=int(rank),
        unknowns=unknowns,
    )


# -- corner extraction and congruences ------------------------------------------


def check_appendix_structure(
    data: DataSet, g: LaurentPoly, n_blocks: int, tol: float = 1e-10
) -> CheckReport:
    """Corner extraction and congruence structure of the window of Omega.

    Checks that the corner blocks of Omega^-1 reproduce a0 and d0, that the
    two congruences by the first/last solution columns reduce Omega to
    diag(a0, Omega_1) and diag(Omega_1, d0), and the positivity links
    between Omega, Omega_1 and the Hankel norm of g.
    """
    N = int(n_blocks)
    p, q = data.p, data.q
    g_extent = 1 if g.is_zero else g.hi + 1
    margin = max(0, N - g_extent + 1)
    om = build_omega(g, N)
    dim = om.shape[0]
    norm = hankel_norm(g)

    entries = []
    if margin <= 0:
        entries.append(CheckEntry("schur_a0", float("nan"), tol, "inconclusive"))
        entries.append(CheckEntry("schur_d0", float("nan"), tol, "inconclusive"))
        return CheckReport(entries)

    # Corner extraction: first/last unit block columns of Omega^-1.
    e_first = np.zeros((dim, p), dtype=complex)
    e_first[:p] = np.eye(p)
    e_last = np.zeros((dim, q), dtype=complex)
    e_last[-q:] = np.eye(q)
    col_first = np.linalg.solve(om, e_first)
    col_last = np.linalg.solve(om, e_last)
    a0_ex = col_first[:p]
    d0_ex = col_last[-q:]
    entries.append(_entry("schur_a0", _maxabs(a0_ex - data.a0), tol))
    entries.append(_entry("schur_d0", _maxabs(d0_ex - data.d0), tol))

    # Congruence by the first column: E* Omega E = diag(a0, Omega_1).
    hp_g = om[: N * p, N * p :]
    e1 = np.eye(dim, dtype=complex)
    e1[:, :p] = col_first
    lhs1 = e1.conj().T @ om @ e1
    omega1_rows = np.block(
        [
            [np.eye((N - 1) * p), hp_g[p:, :]],
            [hp_g[p:, :].conj().T, np.eye(N * q)],
        ]
    )
    target1 = np.zeros_like(lhs1)
    target1[:p, :p] = a0_ex
    target1[p:, p:] = omega1_rows
    entries.append(_entry("congruence_first", _maxabs(lhs1 - target1), tol))

    # Congruence by the last column: E* Omega E = diag(Omega_1, d0).
    e2 = np.eye(dim, dtype=complex)
    e2[:, -q:] = col_last
    lhs2 = e2.conj().T @ om @ e2
    omega1_cols = np.block(
        [
            [np.eye(N * p), hp_g[:, : (N - 1) * q]],
            [hp_g[:, : (N - 1) * q].conj().T, np.eye((N - 1) * q)],
        ]
    )
    target2 = np.zeros_like(lhs2)
    target2[: dim - q, : dim - q] = omega1_cols
    target2[-q:, -q:] = d0_ex
    entries.append(_entry("congruence_last", _maxabs(lhs2 - target2), tol))

    # Positivity links with the contraction norm.
    lam_omega = float(np.linalg.eigvalsh(0.5 * (om + om.conj().T))[0])
    entries.append(_entry("omega_positivity_link", abs(lam_omega - (1.0 - norm)), tol))
    lam1 = float(np.linalg.eigvalsh(0.5 * (omega1_rows + omega1_rows.conj().T))[0])
    if norm < 1.0:
        entries.append(
            CheckEntry(
                "omega1_positive_under_contraction",
                -lam1,
                0.0,
                "pass" if lam1 > 0 else "fail",
            )
        )
    else:
        entries.append(
            CheckEntry(
                "omega1_positive_under_contraction",
                -lam1,
                0.0,
                "inconclusive",
            )
        )
    return CheckReport(entries)
