"""Hypothesis and solution checks: identities, zero locations, contraction.

Every check returns a :class:`CheckReport`, a list of named residuals with
a pass/fail/inconclusive verdict each.  A verdict is ``pass`` exactly when
value <= threshold; ``inconclusive`` is reserved for empty margins,
circle-adjacent zeros and checks whose precondition failed.

Both identity triples are block products of the rows A = [alpha beta] and
C = [gamma delta] of X (``DataSet.rows``): X* J X = diag(a0, -d0) and
X D X* = J, with J = diag(I, -I) and D = diag(a0^-1, -d0^-1).  An analytic
g is verified on (A + g C - [I 0])_+ = 0 and (g* A + C - [0 I])_- = 0.

The zero-location check finds no zero.  It asks only whether every zero
of a determinant lies outside a circle of radius r, and answers by the
Schur-Cohn recursion on the coefficients: a polynomial a of degree n has
every zero outside the closed unit disk exactly when |a_n| < |a_0| and
the reduced polynomial conj(a_0) a - a_n a~ of degree n - 1, with a~ the
reversed conjugate of a, has too; a step with |a_n| > |a_0| shows a zero
inside the open disk.  Rescaling a_j -> a_j r**j moves the circle to
radius r.  det(delta) is read in mu = 1/z, which maps its zeros inside
the disk to zeros of mu outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, ShapeError, SingularCornerError
from .inversion import DEFAULT_TOL, IDENTITY_NAMES, DataSet, b_side, identity_residual_triple
from .series import LaurentPoly, SubspaceTag
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
        return all(e.verdict == "pass" for e in self.entries)

    @property
    def any_fail(self) -> bool:
        return any(e.verdict == "fail" for e in self.entries)

    @property
    def any_inconclusive(self) -> bool:
        return any(e.verdict == "inconclusive" for e in self.entries)

    def overall(self) -> str:
        if self.any_fail:
            return "fail"
        if self.any_inconclusive:
            return "inconclusive"
        return "pass"


def _residual_entry(name, value, threshold):
    verdict = "pass" if value <= threshold else "fail"
    return CheckEntry(name, float(value), float(threshold), verdict)


# -- data identities ---------------------------------------------------------


def _identity_entries(data: DataSet, tol: float) -> list:
    """Entries for the direct identity triple alone."""
    res = identity_residual_triple(data)
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
        a0inv, d0inv = data.corner_inverses()
    except SingularCornerError:
        entries.append(CheckEntry("dual_triple", float("nan"), tol, "inconclusive"))
        return CheckReport(entries)
    p, q = data.p, data.q
    d = LaurentPoly.constant(np.block([[a0inv, np.zeros((p, q))], [np.zeros((q, p)), -d0inv]]))
    a, c = data.rows()
    ad = a * d
    s1 = (ad * a.adjoint() - LaurentPoly.identity(p)).sup_norm()
    s2 = (c * d * c.adjoint() + LaurentPoly.identity(q)).sup_norm()
    s3 = (ad * c.adjoint()).sup_norm()
    entries += [
        _residual_entry("dual_a", s1, tol),
        _residual_entry("dual_d", s2, tol),
        _residual_entry("dual_cross", s3, tol),
    ]
    return CheckReport(entries)


# -- zero locations ----------------------------------------------------------


def _deflated(coeffs):
    """Coefficients of sum_j coeffs[j] z**j with negligible leading ones dropped."""
    c = np.asarray(coeffs, dtype=complex)
    while c.size and abs(c[-1]) < DEFLATION_TOL:
        c = c[:-1]
    if c.size == 0:
        raise DegenerateError("determinant is identically zero")
    return c


def _reflection_margin(c, r):
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


def _zeros_outside_entry(name, coeffs, band):
    """Verdict on the zeros of sum_j coeffs[j] z**j lying outside |z| = 1.

    ``pass`` when the recursion at radius 1 + band keeps every |k| < 1, so
    every zero has |z| > 1 + band; ``fail`` when at radius 1 - band it
    meets a |k| > 1, so some zero has |z| < 1 - band; ``inconclusive``
    otherwise.  The value is minus the margin at radius 1 + band and the
    threshold is 0.
    """
    c = _deflated(coeffs)
    margin = _reflection_margin(c, 1.0 + band)
    if margin > 0.0:
        return CheckEntry(name, -margin, 0.0, "pass")
    verdict = "fail" if _reflection_margin(c, 1.0 - band) < 0.0 else "inconclusive"
    return CheckEntry(name, -margin, 0.0, verdict)


def check_zero_locations(data: DataSet, band: float = CIRCLE_BAND) -> CheckReport:
    """Locations of det(alpha) and det(delta) zeros relative to the circle.

    alpha passes when det(alpha) has no zero with |z| <= 1 + band.  delta
    is read in mu = 1/z, whose coefficient of mu**j is the degree -j
    coefficient of det(delta), and passes when that polynomial has no zero
    with |mu| <= 1 + band, that is when det(delta) has no zero with
    |z| >= 1/(1 + band).  Each side fails when its polynomial has a zero
    with modulus below 1 - band, and is inconclusive otherwise, when its
    zeros nearest the origin lie in the band around the circle.

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
    for the zeros of c.  Leading coefficients below ``DEFLATION_TOL`` are
    dropped first (zeros at infinity).
    """
    det_a = data.alpha.det()
    if det_a.is_zero:
        raise DegenerateError("det(alpha) is identically zero")
    det_d = data.delta.det()
    if det_d.is_zero:
        raise DegenerateError("det(delta) is identically zero")
    return CheckReport(
        [
            _zeros_outside_entry(
                "alpha_det_zeros", det_a.coeff_run(0, det_a.hi + 1)[:, 0, 0], band
            ),
            _zeros_outside_entry(
                "delta_det_zeros", det_d.coeff_run(det_d.lo, 1 - det_d.lo)[::-1, 0, 0], band
            ),
        ]
    )


# -- contraction -------------------------------------------------------------


def hankel_norm(g: LaurentPoly) -> float:
    """Operator norm of the Hankel operator of a polynomial plus symbol.

    For a polynomial of degree m the Hankel operator is supported on an
    (m+1) x (m+1) block corner, so the largest singular value of that
    corner window is the exact operator norm.
    """
    if not g.in_subspace(SubspaceTag.PLUS):
        raise ShapeError("hankel_norm needs a symbol supported on degrees >= 0")
    if g.is_zero:
        return 0.0
    corner = build(OpKind.HANKEL_PLUS, g, g.hi + 1)
    return float(np.linalg.svd(corner, compute_uv=False)[0])


def _posdef_entry(name, mat):
    herm = 0.5 * (mat + mat.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    lam_min = float(eigs[0])
    scale = max(float(np.linalg.norm(mat, 2)), 1e-300)
    return CheckEntry(
        name,
        -lam_min,
        -POSDEF_REL_TOL * scale,
        "pass" if lam_min > POSDEF_REL_TOL * scale else "fail",
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

    if g is None and not CheckReport(entries).any_fail:
        try:
            g = b_side(data)
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


def verify_solution(data: DataSet, g: LaurentPoly, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residuals of the four membership inclusions defining a solution.

    Each entry is the sup norm of one column block of the two row
    inclusions; all four vanish exactly when the analytic g solves the
    inverse problem for the data.
    """
    if g.shape != (data.p, data.q):
        raise ShapeError(f"g must be {(data.p, data.q)}, got {g.shape}")
    if not g.in_subspace(SubspaceTag.PLUS):
        raise ShapeError("g must be supported on degrees >= 0")
    p, n = data.p, max(data.m, 0 if g.is_zero else g.hi) + 1  # residual degrees 1-n..n-1
    units = np.eye(p + data.q)
    a, c = data.rows()
    plus = (a + g * c - LaurentPoly.constant(units[:p])).coeff_run(0, n)
    minus = (g.adjoint() * a + c - LaurentPoly.constant(units[p:])).coeff_run(1 - n, n)
    res = {
        "alpha_g_gamma": plus[:, :, :p],
        "gstar_alpha_gamma": minus[:, :, :p],
        "delta_gstar_beta": minus[:, :, p:],
        "g_delta_beta": plus[:, :, p:],
    }
    return CheckReport([_residual_entry(k, np.abs(v).max(), tol) for k, v in res.items()])


def inclusion_residuals(data: DataSet, g: LaurentPoly):
    """The four inclusion residuals as a tuple (order as in verify_solution)."""
    return tuple(verify_solution(data, g).values().values())
