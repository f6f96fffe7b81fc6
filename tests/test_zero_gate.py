"""The Schur-Cohn zero gate against a companion-matrix root finder.

``_poly_roots`` and ``_root_entry`` below are the root-based verdicts the
gate used before: every zero of the determinant from the eigenvalues of
its companion matrix, then the band test on the smallest modulus.  They
serve here only as the reference for ``check_zero_locations``.  The
in-place recursion ``_reflection_margin`` is also checked against the
allocating one in ``support.reflection_margin_reference``.
"""

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import DataSet, LaurentPoly
from hankelinv.diagnostics import CIRCLE_BAND, DEFLATION_TOL, _reflection_margin
from hankelinv.errors import SynthesisError

from support import reflection_margin_reference

SHAPES = [(1, 1, 4), (2, 1, 3), (2, 2, 5), (3, 3, 8), (1, 1, 32)]
NORMS = [0.5, 0.95, 0.999, 1.05, 1.5, 3.0]
MODULI = [0.3, 0.7, 0.95, 1.05, 1.5, 3.0]
RADII = (1.0 - CIRCLE_BAND, 1.0 + CIRCLE_BAND)


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


def _placed(zeros):
    """Coefficients of prod (1 - z / zeta) over ``zeros``, rescaled to
    largest modulus 1 after each factor; ``np.poly`` overflows at modulus 3
    past degree ~600."""
    c = np.ones(1, dtype=complex)
    for zeta in zeros:
        c = np.convolve(c, [1.0, -1.0 / zeta])
        c /= np.max(np.abs(c))
    return c


def test_signs_match_reference_on_placed_zeros():
    # Degrees up to 1024; margins are not compared, since near the circle
    # both recursions lose digits with the degree alike, but the sign each
    # verdict reads (> 0 at 1 + band, < 0 at 1 - band) must agree.
    signs = set()
    for seed in range(30):
        rng = np.random.default_rng([seed, 1024])
        degree = int(rng.integers(1, 1025))
        pool = MODULI[3:] if seed % 2 == 0 else MODULI
        c = _placed(rng.choice(pool, degree) * np.exp(2j * np.pi * rng.random(degree)))
        for r in RADII:
            got, ref = _reflection_margin(c, r), reflection_margin_reference(c, r)
            assert np.sign(got) == np.sign(ref), (seed, degree, r, got, ref)
            signs.add(np.sign(got))
    assert signs == {-1.0, 1.0}


@pytest.mark.parametrize("norm", [0.9, 0.99])
def test_margins_match_reference_on_synthesized_data(norm):
    for seed in range(3):
        data = hv.random_fixture(3, 3, 32, norm, seed).data
        det_a, det_d = data.alpha.det(), data.delta.det()
        for c in (det_a.coeff_run(0, det_a.hi + 1), det_d.coeff_run(det_d.lo, 1 - det_d.lo)[::-1]):
            for r in RADII:
                got, ref = _reflection_margin(c[:, 0, 0], r), reflection_margin_reference(c[:, 0, 0], r)
                assert abs(got - ref) <= 1e-12, (seed, r, got, ref)


@pytest.mark.parametrize("side", ["alpha", "delta"])
def test_verdict_does_not_depend_on_scale(side):
    # zeros at |z| = 3.3 and 0.45, at 3.3 and 2, and at 3.3 and on the circle
    cases = {
        "fail": np.polymul([-2.2, 1.0], [-0.3, 1.0])[::-1] + 0j,
        "pass": np.polymul([-0.5, 1.0], [-0.3, 1.0])[::-1] + 0j,
        "inconclusive": np.polymul([-1.0, 1.0], [-0.3, 1.0])[::-1] + 0j,
    }
    for verdict, c in cases.items():
        signs = [np.sign(_reflection_margin(c, r)) for r in RADII]
        for scale in (1.0, 1e100, 1e160, 1e300):
            assert [np.sign(_reflection_margin(scale * c, r)) for r in RADII] == signs, scale
            got = _verdicts(_scalar_data(side, scale * c))[f"{side}_det_zeros"]
            assert got == verdict, (scale, got)


@pytest.mark.parametrize("scale", [1e-150, 1e-20, 1e20, 1e150])
def test_scaled_data_get_the_unscaled_entries(scale):
    # the deflation tolerance is relative to the normalised symbol, so
    # scaling all four symbols moves no zero and changes no entry
    data = hv.random_fixture(2, 2, 6, 0.9, 1).data
    scaled = DataSet(*(scale * sym for sym in (data.alpha, data.beta, data.gamma, data.delta)))
    want = hv.check_zero_locations(data).entries
    got = hv.check_zero_locations(scaled).entries
    assert [(e.name, e.verdict, e.threshold) for e in got] == [
        (e.name, e.verdict, e.threshold) for e in want
    ]
    for e, ref in zip(got, want):
        assert abs(e.value - ref.value) <= 1e-12 * abs(ref.value), (e, ref)
