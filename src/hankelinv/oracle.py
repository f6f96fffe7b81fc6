"""Forward synthesis and brute-force recovery: the ground-truth generators.

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
from .series import LaurentPoly, SubspaceTag


@dataclass
class Fixture:
    """A generating symbol, its synthesized data and provenance."""

    g: LaurentPoly
    data: DataSet
    note: str = ""
    target_norm: float = None
    seed: int = None


def synthesize_data(g: LaurentPoly, note: str = "") -> Fixture:
    """Data set whose unique solution is the polynomial plus symbol g.

    Solves the two corner systems for the a/c and b/d coefficient columns
    on the minimal (m+1)-window.  Raises
    :class:`~hankelinv.errors.SynthesisError` when the corner operator is
    singular (Hankel norm 1), in which case no such data set with
    invertible corners exists at this window.
    """
    if not g.in_subspace(SubspaceTag.PLUS):
        raise ShapeError("the generating symbol must be supported on degrees >= 0")
    p, q = g.rows, g.cols
    m = 0 if g.is_zero else g.hi
    om = build_omega(g, m + 1).dense
    dim_p, dim_q = (m + 1) * p, (m + 1) * q
    svals = np.linalg.svd(om, compute_uv=False)
    if svals[-1] < 1e-12 * max(1.0, svals[0]):
        raise SynthesisError(
            "corner operator is singular; the symbol admits no data set "
            "with invertible corners at this window"
        )
    rhs = np.zeros((dim_p + dim_q, p + q), dtype=complex)
    rhs[:p, :p] = np.eye(p)          # first plus unit column
    rhs[-q:, p:] = np.eye(q)         # last minus unit column
    sol = np.linalg.solve(om, rhs)
    ac, bd = sol[:, :p], sol[:, p:]

    # plus columns hold degrees 0..m, minus columns degrees -m..0
    alpha = LaurentPoly.from_run(0, ac[:dim_p].reshape(m + 1, p, p))
    gamma = LaurentPoly.from_run(-m, ac[dim_p:].reshape(m + 1, q, p))
    beta = LaurentPoly.from_run(0, bd[:dim_p].reshape(m + 1, p, q))
    delta = LaurentPoly.from_run(-m, bd[dim_p:].reshape(m + 1, q, q))
    data = DataSet(alpha=alpha, beta=beta, gamma=gamma, delta=delta)

    id_res = diagnostics.check_identities(data, tol=1e-12)
    incl = diagnostics.inclusion_residuals(data, g)
    if max(e.value for e in id_res.entries) > 1e-12 or max(incl) > 1e-12:
        raise SynthesisError("synthesized data failed its own consistency checks")
    return Fixture(g=g, data=data, note=note)


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


def random_fixture(p: int, q: int, m: int, target_norm: float, rng_seed: int) -> Fixture:
    """Deterministic random fixture with a prescribed Hankel norm.

    Coefficients are complex Gaussian draws rescaled so that the Hankel
    norm of g equals ``target_norm`` exactly (the norm is homogeneous in
    g).  ``target_norm`` must lie below 1 for the synthesis to exist.
    """
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
    fx = synthesize_data(g, note=note)
    fx.target_norm = target_norm
    fx.seed = rng_seed
    return fx
