"""Hypothesis and solution checks: identities, zero locations, contraction.

Every check returns a :class:`CheckReport`, a list of named residuals with
a pass/fail/inconclusive verdict each.  A verdict is ``pass`` exactly when
value <= threshold; ``inconclusive`` is reserved for empty margins,
circle-adjacent zeros and checks whose precondition failed.

Both identity triples are block products of the rows A = [alpha beta] and
C = [gamma delta] of X (``DataSet.x_run``): X* J X = diag(a0, -d0) and
X D X* = J, with J = diag(I, -I) and D = diag(a0^-1, -d0^-1).  An analytic
g is verified on (A + g C - [I 0])_+ = 0 and (g* A + C - [0 I])_- = 0:
``inclusion_residuals`` computes their four column-block sup norms, which
the solvers report as they are, and ``verify_solution`` judges them.
Each family is a pointwise product of the values of X on the data set's
grid (``DataSet.spectrum``, computed once per data set) read back with one
inverse FFT, so its residuals carry round-off of about eps |f| |g| times
the width and are exactly zero in every degree the supports cannot reach.

The zero-location check finds no zero.  It asks only whether every zero
of a determinant lies outside a circle of radius r, and answers by the
Schur-Cohn recursion on the coefficients: a polynomial a of degree n has
every zero outside the closed unit disk exactly when |a_n| < |a_0| and
the reduced polynomial a - (a_n / conj(a_0)) a~ of degree n - 1, with a~
the reversed conjugate of a, has too; a step with |a_n| > |a_0| shows a
zero inside the open disk.  Rescaling a_j -> a_j r**j moves the circle to
radius r.  The coefficients are scaled to largest modulus 1 first and
every 8 steps, and each step runs in place on one buffer.  Each
determinant is taken of its symbol times the power of two that puts the
largest entry in [0.5, 1), so it cannot overflow, and is deflated
against DEFLATION_TOL relative to that normalised symbol, so the verdicts
do not depend on the scale of the data.  det(delta) is read in mu = 1/z,
which maps its zeros inside the disk to zeros of mu outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularCornerError
from .inversion import DEFAULT_TOL, IDENTITY_NAMES, DataSet
from .series import CircleGrid, LaurentPoly
from .structured import OpKind, build

CIRCLE_BAND = 1e-8
DEFLATION_TOL = 1e-13
POSDEF_REL_TOL = 1e-12


@dataclass
class CheckEntry:
    name: str
    value: float
    threshold: float
    verdict: str  # 'pass' | 'fail' | 'inconclusive'


@dataclass
class CheckReport:
    entries: list

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def values(self) -> dict:
        return {e.name: e.value for e in self.entries}

    @property
    def passed(self) -> bool:
        return self.overall() == "pass"

    def overall(self) -> str:
        verdicts = {e.verdict for e in self.entries}
        return next((v for v in ("fail", "inconclusive") if v in verdicts), "pass")


def _residual_entry(name, value, threshold):
    verdict = "pass" if value <= threshold else "fail"
    return CheckEntry(name, float(value), float(threshold), verdict)


# -- data identities ---------------------------------------------------------


def _identity_entries(data: DataSet, tol: float) -> list:
    """Entries for the direct identity triple alone."""
    res = data.identity_residuals
    return [_residual_entry(n, r, tol) for n, r in zip(IDENTITY_NAMES, res)]


def check_identities(data: DataSet, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residuals of the three data identities and their dual forms.

    The dual triple A D A* - I, C D C* + I, A D C* vanishes with the
    direct one whenever a0 and d0 are invertible.
    """
    entries = _identity_entries(data, tol) + [
        _residual_entry("a0_hermitian", np.abs(data.a0 - data.a0.conj().T).max(), tol),
        _residual_entry("d0_hermitian", np.abs(data.d0 - data.d0.conj().T).max(), tol),
    ]
    try:
        a0inv, d0inv = data.corner_inverses
    except SingularCornerError:
        entries.append(CheckEntry("dual_triple", float("nan"), tol, "inconclusive"))
        return CheckReport(entries)
    # X D X* with X = [A; z^m C]: the factors z^m cancel in C D C*, and
    # shift A D C* by m degrees, which leaves its sup norm as it is
    grid, x, mask_a, mask_c = data.spectrum
    p, q, m = data.p, data.q, data.m
    mask = mask_a | mask_c
    d = np.block([[a0inv, np.zeros((p, q))], [np.zeros((q, p)), -d0inv]])
    res = grid.coeffs(x @ d @ x.conj().transpose(0, 2, 1), -m, 2 * m + 1, (0, mask), (-m, mask[::-1]))
    res[m] -= np.diag(np.repeat([1.0, -1.0], [p, q]))
    s1, s2, s3 = (np.abs(blk).max() for blk in (res[:, :p, :p], res[:, p:, p:], res[:, :p, p:]))
    entries += [
        _residual_entry("dual_a", s1, tol),
        _residual_entry("dual_d", s2, tol),
        _residual_entry("dual_cross", s3, tol),
    ]
    return CheckReport(entries)


# -- zero locations ----------------------------------------------------------


def _reflection_margin(c, r):
    """Smallest 1 - |k| over the Schur-Cohn recursion on a_j = c_j r**j.

    a is first scaled to largest modulus 1.  Each step takes k = a_n / a_0
    and, while |k| < 1, the reduced polynomial a - (a_n / conj(a_0)) a~ of
    degree n - 1, a~_j = conj(a_{n-j}), in place: three passes over one
    buffer.  The recursion stops at the first |k| >= 1.  A step's margin
    is (|a_0| - |a_n|) / max(|a_0|, |a_n|): 1 - |k| when |k| <= 1, and in
    [-1, 0) beyond, so a zero at the origin stays finite.  a is rescaled
    to largest modulus 1 every 8 steps: a step at most doubles the largest
    coefficient (|k| < 1), and shrinks it by no less than 2**-53 / sqrt(n+1),
    as |a - k a~| >= (1 - |k|) |a| on the circle and a float margin above 0
    is at least about 2**-53, so 8 steps stay far inside the double range.
    """
    a = c * r ** np.arange(c.size)
    a /= np.abs(a).max()
    tmp = np.empty_like(a)
    margin = 1.0
    for n in range(a.size - 1, 0, -1):
        # a_n != 0 at the first step (deflated), a_0 != 0 after it
        head, tail = a.item(0), a.item(n)
        margin = min(margin, (abs(head) - abs(tail)) / max(abs(head), abs(tail)))
        if margin <= 0.0:
            break
        step = np.conjugate(a[n:0:-1], out=tmp[:n])
        step *= tail / head.conjugate()
        a[:n] -= step
        if n % 8 == 0:
            a[:n] /= np.abs(a[:n]).max()
    return margin


def _zeros_outside_entry(name, coeffs):
    """Verdict on the zeros of sum_j coeffs[j] z**j lying outside |z| = 1.

    Leading coefficients below ``DEFLATION_TOL`` are dropped first (zeros
    at infinity); a polynomial left with none fails with value 1, what a
    zero at the origin reads.  With band = CIRCLE_BAND: ``pass`` when the
    recursion at radius 1 + band keeps every |k| < 1, so every zero has
    |z| > 1 + band; ``fail`` when at radius 1 - band it meets a |k| > 1, so
    some zero has |z| < 1 - band; ``inconclusive`` otherwise.  The value is
    minus the margin at radius 1 + band and the threshold is 0.
    """
    c = np.asarray(coeffs, dtype=complex)
    while c.size and abs(c[-1]) < DEFLATION_TOL:
        c = c[:-1]
    if c.size == 0:  # identically zero, or deflated to nothing
        return CheckEntry(name, 1.0, 0.0, "fail")
    margin = _reflection_margin(c, 1.0 + CIRCLE_BAND)
    if margin > 0.0:
        return CheckEntry(name, -margin, 0.0, "pass")
    verdict = "fail" if _reflection_margin(c, 1.0 - CIRCLE_BAND) < 0.0 else "inconclusive"
    return CheckEntry(name, -margin, 0.0, verdict)


def check_zero_locations(data: DataSet) -> CheckReport:
    """Locations of det(alpha) and det(delta) zeros relative to the circle.

    With band = CIRCLE_BAND, alpha passes when det(alpha) has no zero with
    |z| <= 1 + band.  delta is read in mu = 1/z, whose coefficient of mu**j
    is the degree -j coefficient of det(delta), and passes when that
    polynomial has no zero with |mu| <= 1 + band, that is when det(delta)
    has no zero with |z| >= 1/(1 + band).  Each side fails when its
    polynomial has a zero with modulus below 1 - band, and is inconclusive
    otherwise, when its zeros nearest the origin lie in the band.

    No zero is computed.  For a polynomial a of degree n with |a_n| < |a_0|,
    let b = conj(a_0) a - a_n a~, a~_j = conj(a_{n-j}), whose degree-n
    term cancels.  On |z| = 1, |a~| = |a|, so |a_n a~| < |a_0| |a| wherever
    a does not vanish; a zero of a on the circle is one of a~ and of b as
    well.  Along conj(a_0) a - t a_n a~, t from 0 to 1, no zero crosses the
    circle, so b has as many zeros in |z| < 1 as a, and a's zeros on the
    circle.  If every |a_0| > |a_n| down to degree 0, a therefore has no
    zero in |z| <= 1; if some step meets |a_n| > |a_0|, that polynomial,
    whose zeros multiply to a modulus |a_0/a_n| < 1, has a zero in
    |z| < 1, and so has a (Schur-Cohn; Lancaster and Tismenetsky, The
    Theory of Matrices, 2nd ed., 1985).  The zeros of a_j = c_j r**j are
    those of c divided by r, so the recursion at radius r tests |z| > r
    for the zeros of c.  Each n x n determinant is read over all n(m+1)
    degrees and deflated by ``_zeros_outside_entry``, whose DEFLATION_TOL
    is here relative to the normalised symbol's largest entry.
    """
    entries = []
    for side, sym in (("alpha", data.alpha), ("delta", data.delta)):
        # sym 2**e has its largest entry in [0.5, 1): a finite det, same
        # zeros, deflated against DEFLATION_TOL relative to that scale.  The
        # cap keeps 2**e finite for symbols below the normal double range
        e = min(-int(np.frexp(sym.sup_norm())[1]), 1000)
        det, width = (sym * 2.0**e).det(), sym.rows * (data.m + 1)
        c = det.coeff_run(0, width) if side == "alpha" else det.coeff_run(1 - width, width)[::-1]
        entries.append(_zeros_outside_entry(f"{side}_det_zeros", c[:, 0, 0]))
    return CheckReport(entries)


# -- contraction -------------------------------------------------------------


def hankel_norm(g: LaurentPoly) -> float:
    """Operator norm of the Hankel operator of a polynomial plus symbol.

    For a polynomial of degree m the Hankel operator is supported on an
    (m+1) x (m+1) block corner, so the largest singular value of that
    corner window is the exact operator norm.
    """
    if not g.is_plus:
        raise ShapeError("hankel_norm needs a symbol supported on degrees >= 0")
    if g.is_zero:
        return 0.0
    corner = build(OpKind.HANKEL_PLUS, g, g.hi + 1)
    return float(np.linalg.svd(corner, compute_uv=False)[0])


def _posdef_entry(name, mat):
    herm = 0.5 * (mat + mat.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    lam_min = float(eigs[0])
    # relative to ||mat||, but never below the normal range check_corner demands
    floor = max(POSDEF_REL_TOL * float(np.linalg.norm(mat, 2)), np.finfo(float).tiny)
    return CheckEntry(
        name,
        -lam_min,
        -floor,
        "pass" if lam_min > floor else "fail",
    )


def check_strict_contraction(data: DataSet, g: LaurentPoly = None, tol: float = DEFAULT_TOL) -> CheckReport:
    """The three solvability-with-contraction conditions, plus the direct check.

    Conditions: a0 and d0 positive definite, the data identities, and the
    determinant zero locations.  When a candidate solution g is supplied,
    or can be read off the data because no condition failed, the
    ``hankel_norm`` entry ||H+(g)|| < 1 is appended.  Nothing else about g
    is checked: the shifted corner Omega_1 = [[I, C], [C*, I]], with C the
    Hankel corner of (g / z)_+, is H with its first block row removed and a
    zero row appended, so its positivity follows from ||H|| < 1 and could
    never fail on its own.
    """
    entries = [
        _posdef_entry("a0_positive", data.a0),
        _posdef_entry("d0_positive", data.d0),
    ]
    entries += _identity_entries(data, tol)
    entries += check_zero_locations(data).entries

    if g is None and CheckReport(entries).overall() != "fail":
        try:
            g = data.b_side
        except ValueError:
            g = None
    if g is not None:
        norm = hankel_norm(g)
        entries.append(
            CheckEntry(
                "hankel_norm", norm, 1.0, "pass" if norm < 1.0 else "fail"
            )
        )
    return CheckReport(entries)


# -- solution verification ---------------------------------------------------


INCLUSION_NAMES = ("alpha_g_gamma", "gstar_alpha_gamma", "delta_gstar_beta", "g_delta_beta")


def inclusion_residuals(data: DataSet, g: LaurentPoly):
    """The four inclusion residuals of g, in the order of ``INCLUSION_NAMES``.

    Each is the sup norm of one column block of the two row inclusions;
    all four vanish exactly when the analytic g solves the inverse problem
    for the data.
    """
    if g.shape != (data.p, data.q):
        raise ShapeError(f"g must be {(data.p, data.q)}, got {g.shape}")
    if not g.is_plus:
        raise ShapeError("g must be supported on degrees >= 0")
    # with X = [A; z^m C], g C is z^-m times g (z^m C): its degrees 0..n-1
    # are degrees m..m+n-1 of the product on the grid
    p, q, m = data.p, data.q, data.m
    h = 0 if g.is_zero else g.hi
    n = max(m, h) + 1  # residual degrees 1-n..n-1
    a, c = data.x_run[:, :p], data.x_run[:, p:]
    if h <= m:
        grid, x, mask_a, mask_c = data.spectrum
    else:  # g C and g* A span m+h+1 degrees, more than the data's grid holds
        grid = CircleGrid(m + h + 1)
        x, mask_a, mask_c = grid.values(data.x_run), a.any(axis=(1, 2)), c.any(axis=(1, 2))
    run = g.coeff_run(0, h + 1)
    gx, mg = grid.values(run), run.any(axis=(1, 2))
    plus = grid.coeffs(gx @ x[:, p:], m, n, (0, mg), (0, mask_c))
    minus = grid.coeffs(gx.conj().transpose(0, 2, 1) @ x[:, :p], 1 - n, n, (-h, mg[::-1]), (0, mask_a))
    plus[: m + 1] += a
    plus[0, :, :p] -= np.eye(p)
    minus[n - m - 1 :] += c
    minus[-1, :, p:] -= np.eye(q)
    plus, minus = np.abs(plus).max(axis=0), np.abs(minus).max(axis=0)
    blocks = (plus[:, :p], minus[:, :p], minus[:, p:], plus[:, p:])
    return tuple(float(b.max()) for b in blocks)


def verify_solution(data: DataSet, g: LaurentPoly, tol: float = DEFAULT_TOL) -> CheckReport:
    """The four inclusion residuals of g, each judged against ``tol``."""
    res = inclusion_residuals(data, g)
    return CheckReport([_residual_entry(k, v, tol) for k, v in zip(INCLUSION_NAMES, res)])
