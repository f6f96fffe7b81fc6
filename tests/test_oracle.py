"""Forward synthesis, brute recovery and fixture generation."""

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import LaurentPoly
from hankelinv.errors import SynthesisError

from conftest import corner_oracle
from support import brute_recover_g, trivial_data


# -- synthesize_data ------------------------------------------------------------


def test_synthesize_zero_symbol():
    fx = hv.synthesize_data(LaurentPoly.zero(2, 3))
    assert hv.poly_gap(fx.data.alpha, LaurentPoly.identity(2)) == 0.0
    assert hv.poly_gap(fx.data.delta, LaurentPoly.identity(3)) == 0.0
    assert fx.data.beta.is_zero
    assert fx.data.gamma.is_zero


def test_synthesize_deg0_matches_corner_oracle(deg0_fixture):
    a, b, c, d = corner_oracle([0.5])
    assert abs(deg0_fixture.data.a0[0, 0] - a[0]) < 1e-14
    assert abs(deg0_fixture.data.beta.coeff(0)[0, 0] - b[0]) < 1e-14
    assert abs(deg0_fixture.data.gamma.coeff(0)[0, 0] - c[0]) < 1e-14
    assert abs(deg0_fixture.data.d0[0, 0] - d[-1]) < 1e-14
    # and the oracle itself reproduces the frozen constants
    assert abs(a[0] - 4.0 / 3.0) < 1e-14
    assert abs(b[0] + 2.0 / 3.0) < 1e-14


def test_synthesize_deg1_matches_corner_oracle(deg1_fixture):
    a, b, c, d = corner_oracle([0.0, 0.5])
    da = deg1_fixture.data
    assert abs(da.alpha.coeff(0)[0, 0] - a[0]) < 1e-14
    assert abs(da.alpha.coeff(1)[0, 0] - a[1]) < 1e-14
    assert abs(da.beta.coeff(0)[0, 0] - b[0]) < 1e-14
    assert abs(da.beta.coeff(1)[0, 0] - b[1]) < 1e-14
    assert abs(da.gamma.coeff(-1)[0, 0] - c[0]) < 1e-14
    assert abs(da.gamma.coeff(0)[0, 0] - c[1]) < 1e-14
    assert abs(da.delta.coeff(-1)[0, 0] - d[0]) < 1e-14
    assert abs(da.delta.coeff(0)[0, 0] - d[1]) < 1e-14


def test_synthesize_rejects_unit_norm():
    with pytest.raises(SynthesisError):
        hv.synthesize_data(LaurentPoly.constant([[1.0]]))


def _refused_as_singular(g):
    try:
        hv.synthesize_data(g)
    except SynthesisError as exc:
        return "corner operator is singular" in str(exc)
    return False


def _omega_rule(g):
    s = np.linalg.svd(hv.build_omega(g, g.hi + 1), compute_uv=False)
    return bool(s[-1] < 1e-12 * max(1.0, s[0]))


def test_singular_corner_rule_matches_omega_svd():
    # the refusal reads the singular values of the Hankel corner H; it must
    # fire exactly when the smallest singular value of Omega = [[I, H], [H*, I]]
    # is below 1e-12 times its largest
    special = [
        (np.diag([2.0, 1.0]), True),  # sigma(H) = (2, 1)
        (np.diag([2.0, 0.5]), False),
        ([[2.0, 0.0]], False),  # Omega's singular values are 3, 1 and 1
        ([[2e12, 0.0]], True),  # ... 1 + 2e12, 1 and 2e12 - 1
    ]
    for mat, fires in special:
        g = LaurentPoly.constant(mat)
        assert _omega_rule(g) == fires and _refused_as_singular(g) == fires, mat
    rng = np.random.default_rng(5)
    for p, q, m in [(p, q, m) for p in (1, 2, 3) for q in (1, 2, 3) for m in (0, 3, 8)]:
        draw = rng.standard_normal((m + 1, p, q)) + 1j * rng.standard_normal((m + 1, p, q))
        g = LaurentPoly.from_run(0, draw)
        g = (1.0 / hv.hankel_norm(g)) * g
        for norm in (0.3, 0.9, 1 - 1e-10, 1 - 1e-13, 1.0, 2.0):
            rule = _omega_rule(norm * g)
            assert _refused_as_singular(norm * g) == rule, (p, q, m, norm)
            if norm in (1 - 1e-13, 1.0):
                assert rule, (p, q, m, norm)
            elif norm < 1:
                assert not rule, (p, q, m, norm)


def test_synthesize_rejects_minus_support():
    with pytest.raises(Exception):
        hv.synthesize_data(LaurentPoly.single(-1, [[0.5]]))


def test_synthesize_degree_bound():
    fx = hv.random_fixture(p=2, q=2, m=6, target_norm=0.8, rng_seed=9)
    assert fx.data.m <= 6


# -- brute recovery ---------------------------------------------------------------


def test_brute_trivial():
    out = brute_recover_g(trivial_data(2, 1))
    assert out.g.is_zero
    assert out.hankel_defect == 0.0


def test_brute_deg0(deg0_fixture):
    out = brute_recover_g(deg0_fixture.data)
    assert abs(out.g.coeff(0)[0, 0] - 0.5) < 1e-12
    assert out.hankel_defect <= 1e-12
    assert not out.under_determined


def test_brute_deg1(deg1_fixture):
    out = brute_recover_g(deg1_fixture.data)
    assert hv.poly_gap(out.g, deg1_fixture.g) <= 1e-12
    assert out.hankel_defect <= 1e-12
    assert not out.under_determined
    assert out.lstsq_residual <= 1e-12


def test_brute_agrees_when_determined():
    # the corner equations determine every block only at small degree
    fx = hv.random_fixture(p=1, q=2, m=2, target_norm=0.6, rng_seed=13)
    out = brute_recover_g(fx.data)
    assert not out.under_determined
    assert hv.poly_gap(out.g, fx.g) <= 1e-9
    assert out.hankel_defect <= 1e-10
    assert out.lstsq_residual <= 1e-10


def test_brute_flags_underdetermined():
    fx = hv.random_fixture(p=1, q=1, m=5, target_norm=0.6, rng_seed=13)
    out = brute_recover_g(fx.data)
    assert out.under_determined
    assert out.rank < out.unknowns


# -- random fixtures ------------------------------------------------------------------


def test_random_fixture_deterministic():
    fa = hv.random_fixture(p=2, q=2, m=3, target_norm=0.6, rng_seed=123)
    fb = hv.random_fixture(p=2, q=2, m=3, target_norm=0.6, rng_seed=123)
    assert hv.poly_gap(fa.g, fb.g) == 0.0
    assert hv.poly_gap(fa.data.alpha, fb.data.alpha) == 0.0


def test_random_fixture_zero_target():
    fx = hv.random_fixture(p=2, q=1, m=4, target_norm=0.0, rng_seed=5)
    assert fx.g.is_zero


def test_random_fixture_hits_target_norm():
    fx = hv.random_fixture(p=3, q=2, m=5, target_norm=0.9, rng_seed=77)
    assert hv.hankel_norm(fx.g) == pytest.approx(0.9, abs=1e-12)


def test_random_fixture_tiny_target_norm():
    # a symbol of Hankel norm 1e-15 is synthesized as it is, not as g = 0
    fx = hv.random_fixture(p=1, q=1, m=4, target_norm=1e-15, rng_seed=7)
    assert not fx.g.is_zero
    assert hv.hankel_norm(fx.g) == pytest.approx(1e-15, rel=1e-12, abs=0)


def test_random_fixture_rejects_bad_target():
    with pytest.raises(ValueError):
        hv.random_fixture(p=1, q=1, m=1, target_norm=1.2, rng_seed=0)


def test_random_fixture_invariants():
    fx = hv.random_fixture(p=2, q=2, m=4, target_norm=0.9, rng_seed=88)
    assert hv.check_identities(fx.data, tol=1e-10).passed
    assert hv.verify_solution(fx.data, fx.g, tol=1e-10).passed


# -- round trips -------------------------------------------------------------------------


# m + 1 = 101 blocks at k = 1 and 71 at k = 2 run the triangular kernel past its
# first chunk (64 and 32 blocks)
@pytest.mark.parametrize(
    "seed,p,q,m,t",
    [(0, 1, 1, 2, 0.3), (1, 3, 1, 4, 0.9), (2, 2, 2, 0, 0.6), (3, 1, 1, 100, 0.9), (4, 2, 2, 70, 0.9)],
)
def test_round_trip_all_methods(seed, p, q, m, t):
    fx = hv.random_fixture(p=p, q=q, m=m, target_norm=t, rng_seed=seed)
    rep = hv.solve_polynomial(fx.data)
    assert hv.poly_gap(rep.g, fx.g) <= 1e-8
    assert rep.details["two_sided_gap"] <= 1e-12
    assert hv.poly_gap(hv.solve_truncated(fx.data).g, fx.g) <= 1e-8
    assert hv.poly_gap(hv.solve_factorization(fx.data).g, fx.g) <= 1e-8
