"""The Schur-Cohn zero gate against a companion-matrix root finder.

``_poly_roots`` and ``_root_entry`` below are the root-based verdicts the
gate used before: every zero of the determinant from the eigenvalues of
its companion matrix, then the band test on the smallest modulus.  They
serve here only as the reference for ``check_zero_locations``.
"""

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import DataSet, LaurentPoly
from hankelinv.diagnostics import CIRCLE_BAND, DEFLATION_TOL
from hankelinv.errors import SynthesisError

SHAPES = [(1, 1, 4), (2, 1, 3), (2, 2, 5), (3, 3, 8), (1, 1, 32)]
NORMS = [0.5, 0.95, 0.999, 1.05, 1.5, 3.0]
MODULI = [0.3, 0.7, 0.95, 1.05, 1.5, 3.0]


def _poly_roots(coeffs):
    """Roots of sum_j coeffs[j] z**j with leading-coefficient deflation."""
    c = np.asarray(coeffs, dtype=complex)
    while c.size and abs(c[-1]) < DEFLATION_TOL:
        c = c[:-1]
    if c.size == 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


def _root_entry(roots, band=CIRCLE_BAND):
    if roots.size == 0:
        return "pass"
    min_mod = float(np.min(np.abs(roots)))
    if min_mod > 1.0 + band:
        return "pass"
    if min_mod < 1.0 - band:
        return "fail"
    return "inconclusive"


def _reference_verdicts(data):
    det_a = data.alpha.det()
    det_d = data.delta.det()
    return {
        "alpha_det_zeros": _root_entry(_poly_roots(det_a.coeff_run(0, det_a.hi + 1)[:, 0, 0])),
        "delta_det_zeros": _root_entry(
            _poly_roots(det_d.coeff_run(det_d.lo, 1 - det_d.lo)[::-1, 0, 0])
        ),
    }


def _verdicts(data):
    rep = hv.check_zero_locations(data)
    return {e.name: e.verdict for e in rep.entries}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_verdicts_match_root_finder_on_synthesized_data(shape):
    p, q, m = shape
    compared = 0
    for norm in NORMS:
        for seed in range(15):
            rng = np.random.default_rng([seed, p, q, m])
            run = rng.standard_normal((m + 1, p, q)) + 1j * rng.standard_normal((m + 1, p, q))
            g = LaurentPoly.from_run(0, run)
            try:
                fx = hv.synthesize_data((norm / hv.hankel_norm(g)) * g)
            except SynthesisError:
                continue
            assert _verdicts(fx.data) == _reference_verdicts(fx.data), (norm, seed)
            compared += 1
    assert compared >= 40


def _scalar_data(side, coeffs):
    """Scalar data whose alpha (or delta, in 1/z) determinant has ``coeffs``."""
    one, zero = LaurentPoly.identity(1), LaurentPoly.zero(1, 1)
    run = np.asarray(coeffs, dtype=complex)[:, None, None]
    if side == "alpha":
        return DataSet(alpha=LaurentPoly.from_run(0, run), beta=zero, gamma=zero, delta=one)
    return DataSet(
        alpha=one, beta=zero, gamma=zero, delta=LaurentPoly.from_run(1 - len(run), run[::-1])
    )


@pytest.mark.parametrize("side", ["alpha", "delta"])
def test_verdicts_match_root_finder_on_placed_zeros(side):
    # Even seeds draw every zero outside the circle, so stable polynomials
    # of every degree occur; odd seeds draw from all six moduli.
    name = f"{side}_det_zeros"
    seen = set()
    for seed in range(200):
        rng = np.random.default_rng([seed, side == "delta"])
        degree = int(rng.integers(1, 61))
        pool = MODULI[3:] if seed % 2 == 0 else MODULI
        zeros = rng.choice(pool, degree) * np.exp(2j * np.pi * rng.random(degree))
        coeffs = np.poly(zeros)[::-1]
        data = _scalar_data(side, coeffs / np.max(np.abs(coeffs)))
        got = _verdicts(data)[name]
        assert got == _reference_verdicts(data)[name], (seed, degree, got)
        seen.add(got)
    assert seen == {"pass", "fail"}
