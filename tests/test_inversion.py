"""The 2x2 block operators: assembly, inversion and the identity suite."""

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import DataSet, LaurentPoly
from hankelinv.errors import ShapeError, SingularCornerError
from hankelinv.inversion import diagonal_windows

from conftest import random_poly
from support import build_m_eight_windows, corner_solve_data, trivial_data


# -- DataSet ------------------------------------------------------------------


def test_dataset_validates_tags():
    bad_alpha = LaurentPoly.from_run(-1, [[[1.0]], [[1.0]]])
    with pytest.raises(ShapeError):
        DataSet(
            alpha=bad_alpha,
            beta=LaurentPoly.zero(1, 1),
            gamma=LaurentPoly.zero(1, 1),
            delta=LaurentPoly.identity(1),
        )


def test_dataset_caches_corners(deg1_fixture):
    d = deg1_fixture.data
    assert np.allclose(d.a0, d.alpha.coeff(0))
    assert np.allclose(d.d0, d.delta.coeff(0))
    assert d.m == 1


def test_dataset_corner_override_checked(deg1_fixture):
    # an a0 or d0 override is a finite matrix of the corner's shape, never a number
    d = deg1_fixture.data
    symbols = dict(alpha=d.alpha, beta=d.beta, gamma=d.gamma, delta=d.delta)
    for bad in (0.5, np.eye(2), [[np.nan]]):
        with pytest.raises(ValueError):
            DataSet(**symbols, a0=bad)
        with pytest.raises(ValueError):
            DataSet(**symbols, d0=bad)


def test_dataset_keeps_read_only_copies(deg1_fixture):
    # quantities are cached on the data set, so nothing they read may change:
    # an override is copied, and the corners and their inverses are read-only
    d = deg1_fixture.data
    given = np.array(d.a0)
    data = DataSet(alpha=d.alpha, beta=d.beta, gamma=d.gamma, delta=d.delta, a0=given)
    before = data.identity_residuals
    given += 1.0
    assert np.array_equal(data.a0, d.a0)
    assert hv.identity_residual_triple(data) == before
    for mat in (data.a0, data.d0, *data.corner_inverses):
        assert not mat.flags.writeable


def test_dataset_singular_corner():
    data = DataSet(
        alpha=LaurentPoly.constant([[0.0]]),
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.identity(1),
    )
    with pytest.raises(SingularCornerError):
        hv.build_m(data, 3)


def test_b_side_singular_d0_refused_as_corner():
    # delta = z^-1 has d0 = 0, the diagonal block of the b-side system
    data = DataSet(
        alpha=LaurentPoly.identity(1),
        beta=LaurentPoly.single(1, [[0.5]]),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.single(-1, [[1.0]]),
    )
    with pytest.raises(SingularCornerError, match="diagonal block"):
        data.b_side


@pytest.mark.parametrize("scale", [1e-310, 1e-320])
def test_dataset_subnormal_corner(scale):
    # a 1x1 or scaled identity corner has cond 1 at any scale; below the
    # normal double range it is refused all the same
    data = DataSet(
        alpha=LaurentPoly.constant([[1.0]]),
        beta=LaurentPoly.zero(1, 2),
        gamma=LaurentPoly.zero(2, 1),
        delta=LaurentPoly.constant(scale * np.eye(2)),
    )
    with pytest.raises(SingularCornerError, match="d0 .* below"):
        data.corner_inverses


# -- omega --------------------------------------------------------------------


def test_omega_zero_symbol():
    om = hv.build_omega(LaurentPoly.zero(2, 1), 3)
    assert np.allclose(om, np.eye(9))


def test_omega_constant_corner(deg0_fixture):
    om = hv.build_omega(deg0_fixture.g, 2)
    assert abs(om[:2, 2:][0, 1] - 0.5) < 1e-15
    assert np.count_nonzero(np.abs(om[:2, 2:]) > 0) == 1


def test_omega_shifted_layout(deg1_fixture):
    om = hv.build_omega(deg1_fixture.g, 2)
    assert np.allclose(om[:2, 2:], 0.5 * np.eye(2))


# -- M assembly -----------------------------------------------------------------


def test_m_trivial_data_is_identity():
    tv = trivial_data(2, 1)
    m = hv.build_m(tv, 4)
    assert np.allclose(m, np.eye(12))


def test_m11_deg0_diagonal(deg0_fixture):
    m = hv.build_m(deg0_fixture.data, 5)
    expect = np.diag([4.0 / 3.0] + [1.0] * 4)
    assert np.max(np.abs(m[:5, :5] - expect)) < 1e-13


@pytest.mark.parametrize("seed", [0, 1])
def test_variants_agree(seed):
    # build_m against the defining products with explicit shift factors
    fx = hv.random_fixture(p=2, q=2, m=3, target_norm=0.6, rng_seed=seed)
    N = 4 * fx.data.m + 4
    assert hv.check_lemma_suite(fx.data, N)["variant_agreement"] <= 1e-12


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 3), (3, 3)])
def test_build_m_matches_eight_window_reference(rng, p, q):
    # four windows of the shifted rows against eight symbol windows and np.kron,
    # on synthesized data and on symbols that satisfy no identity
    m = 3
    free = DataSet(
        alpha=random_poly(rng, p, p, range(0, m + 1)),
        beta=random_poly(rng, p, q, range(0, m + 1)),
        gamma=random_poly(rng, q, p, range(-m, 1)),
        delta=random_poly(rng, q, q, range(-m, 1)),
    )
    assert min(hv.identity_residual_triple(free)) > 0.1
    for data in (hv.random_fixture(p, q, m, 0.8, rng_seed=p + q).data, free):
        for N in (1, m, m + 1, 2 * m + 5):
            ref = build_m_eight_windows(data, N)
            assert np.max(np.abs(hv.build_m(data, N) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2)])
def test_diagonal_windows_match_build_m(rng, p, q):
    # M11 and M22 formed alone are build_m's diagonal blocks, on synthesized
    # data and on symbols that satisfy no identity
    m = 3
    free = DataSet(
        alpha=random_poly(rng, p, p, range(0, m + 1)),
        beta=random_poly(rng, p, q, range(0, m + 1)),
        gamma=random_poly(rng, q, p, range(-m, 1)),
        delta=random_poly(rng, q, q, range(-m, 1)),
    )
    for data in (hv.random_fixture(p, q, m, 0.8, rng_seed=p + q).data, free):
        for N in (1, m, m + 1, 4 * m + 4):
            big, n = hv.build_m(data, N), N * p
            for got, want in zip(diagonal_windows(data, N), (big[:n, :n], big[n:, n:])):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (N, got.shape)


@pytest.mark.parametrize("p,q,N", [(1, 1, 3), (2, 1, 4), (2, 3, 9)])
def test_window_shift_identities(rng, p, q, N):
    # the shifts absorbed by build_m, exact on the full window once N > degree
    alpha = random_poly(rng, p, p, range(0, N))
    beta = random_poly(rng, p, q, range(0, N))
    gamma = random_poly(rng, q, p, range(1 - N, 1))
    delta = random_poly(rng, q, q, range(1 - N, 1))
    tp, tm = hv.OpKind.TOEPLITZ_PLUS, hv.OpKind.TOEPLITZ_MINUS
    sp = hv.build(tp, LaurentPoly.single(1, np.eye(p)), N)
    sm = hv.build(tm, LaurentPoly.single(-1, np.eye(q)), N)
    hp, hm = hv.OpKind.HANKEL_PLUS, hv.OpKind.HANKEL_MINUS
    pairs = [
        (sp @ hv.build(tp, beta, N), hv.build(tp, beta.shifted(1), N)),
        (sm @ hv.build(tm, gamma, N), hv.build(tm, gamma.shifted(-1), N)),
        (sp.conj().T @ hv.build(hp, alpha, N), hv.build(hp, alpha.shifted(-1), N)),
        (sm.conj().T @ hv.build(hm, delta, N), hv.build(hm, delta.shifted(1), N)),
    ]
    for lhs, rhs in pairs:
        assert np.array_equal(lhs, rhs)


def test_m_hermitian_blocks_for_hermitian_corners(rng):
    # no consistency required: Hermitian a0, d0 suffice
    herm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    herm = 0.1 * (herm + herm.conj().T) + np.eye(2)
    alpha = LaurentPoly.from_run(0, [herm, 0.3 * rng.standard_normal((2, 2))])
    beta = random_poly(rng, 2, 2, (0, 1), scale=0.3)
    gamma = random_poly(rng, 2, 2, (-1, 0), scale=0.3)
    dherm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    dherm = 0.1 * (dherm + dherm.conj().T) + np.eye(2)
    delta = LaurentPoly.from_run(-1, [0.3 * rng.standard_normal((2, 2)), dherm])
    data = DataSet(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    m = hv.build_m(data, 6)
    m11, m22 = m[:12, :12], m[12:, 12:]
    assert np.max(np.abs(m11 - m11.conj().T)) < 1e-12
    assert np.max(np.abs(m22 - m22.conj().T)) < 1e-12
    assert hv.check_lemma_suite(data, 6)["variant_agreement"] < 1e-12


# -- inversion ------------------------------------------------------------------


def test_verify_inverse_trivial():
    tv = trivial_data(1, 2)
    om = hv.build_omega(LaurentPoly.zero(1, 2), 4)
    m = hv.build_m(tv, 4)
    rep = hv.verify_inverse(om, m, 1, 2, margin=2)
    assert rep["m_omega"] < 1e-15
    assert rep["omega_m"] < 1e-15


def test_verify_inverse_deg0(deg0_fixture):
    N = 6
    om = hv.build_omega(deg0_fixture.g, N)
    m = hv.build_m(deg0_fixture.data, N)
    margin = hv.inverse_margin(deg0_fixture.data, deg0_fixture.g, N)
    rep = hv.verify_inverse(om, m, 1, 1, margin)
    assert margin > 0
    assert max(rep["m_omega"], rep["omega_m"]) <= 1e-12


def test_verify_inverse_deg1(deg1_fixture):
    N = 8
    om = hv.build_omega(deg1_fixture.g, N)
    m = hv.build_m(deg1_fixture.data, N)
    margin = hv.inverse_margin(deg1_fixture.data, deg1_fixture.g, N)
    rep = hv.verify_inverse(om, m, 1, 1, margin)
    assert max(rep["m_omega"], rep["omega_m"]) <= 1e-12


def test_verify_inverse_margin_growth():
    fx = hv.random_fixture(p=2, q=1, m=2, target_norm=0.8, rng_seed=5)
    res = []
    for N in (12, 24):
        om = hv.build_omega(fx.g, N)
        m = hv.build_m(fx.data, N)
        margin = hv.inverse_margin(fx.data, fx.g, N)
        rep = hv.verify_inverse(om, m, 2, 1, margin)
        res.append(max(rep["m_omega"], rep["omega_m"]))
    assert res[1] <= res[0] + 1e-13


def test_verify_inverse_inconclusive_margin(deg0_fixture):
    om = hv.build_omega(deg0_fixture.g, 2)
    m = hv.build_m(deg0_fixture.data, 2)
    rep = hv.verify_inverse(om, m, 1, 1, margin=0)
    assert rep["inconclusive"]


def _whole_window_cases():
    for p, q, m in ((1, 1, 0), (2, 1, 4), (3, 3, 8)):
        fx = hv.random_fixture(p, q, m, 0.9, rng_seed=1)
        yield f"random {(p, q, m)}", fx.g, fx.data
    for g in (LaurentPoly.single(0, [[0.1]]) + LaurentPoly.single(8, [[0.2]]), LaurentPoly.zero(1, 1)):
        yield f"synthesized {g.degrees()}", g, hv.synthesize_data(g).data
    for norm in (1.5, 3.0):  # non-contractive: Omega is invertible but not positive
        g, data, _ = corner_solve_data(2, 2, 3, norm, 1)
        yield f"corner solve at norm {norm}", LaurentPoly.from_run(0, g), data


WHOLE_WINDOW_KEYS = (
    "thht_aa", "thht_ab", "thht_ba", "thht_bb", "thht_shifted",
    "hankel_form_agreement", "j_congruence", "intertwine",
)


def test_identities_exact_on_whole_window():
    # For data of degree m, every identity of M and Omega holds on the whole
    # N-block window once N > m; at N = m the window cuts the Hankel supports
    for name, g, data in _whole_window_cases():
        m = data.m
        for N in (m + 1, m + 2, 2 * m + 2, 4 * m + 4):
            where = (name, N)
            suite = hv.check_lemma_suite(data, N)
            margin = hv.inverse_margin(data, g, N)
            inv = hv.verify_inverse(hv.build_omega(g, N), suite["m"], data.p, data.q, margin)
            assert margin == suite["margin"] == N and not suite["inconclusive"], where
            assert inv["m_omega"] <= 1e-10 and inv["omega_m"] <= 1e-10, (where, inv)
            floats = {k: v for k, v in suite.items() if isinstance(v, float)}
            assert all(v <= 1e-10 for v in floats.values()), (where, floats)  # NaN fails too
            assert suite["precondition_ok"], where
        if m >= 1:
            suite = hv.check_lemma_suite(data, m)
            assert suite["inconclusive"] and suite["margin"] == 0, name
            assert all(np.isnan(suite[k]) for k in WHOLE_WINDOW_KEYS), name
            assert hv.inverse_margin(data, g, m) == 0, name


# -- the identity suite -----------------------------------------------------------


def test_lemma_suite_trivial():
    suite = hv.check_lemma_suite(trivial_data(2, 2), 5)
    numeric = [v for v in suite.values() if isinstance(v, float)]
    assert max(numeric) < 1e-14
    assert suite["precondition_ok"]


def test_lemma_suite_deg0_units(deg0_fixture):
    suite = hv.check_lemma_suite(deg0_fixture.data, 6)
    assert suite["units_a"] < 1e-13
    assert suite["units_b"] < 1e-13
    assert suite["units_c"] < 1e-13
    assert suite["units_d"] < 1e-13


def test_lemma_suite_random_degree4():
    fx = hv.random_fixture(p=2, q=2, m=4, target_norm=0.7, rng_seed=11)
    suite = hv.check_lemma_suite(fx.data, 24)
    numeric = {k: v for k, v in suite.items() if isinstance(v, float)}
    assert max(numeric.values()) <= 1e-10, numeric
    assert suite["margin"] > 0


def test_lemma_suite_flags_bad_precondition(deg1_fixture):
    d = deg1_fixture.data
    bad = DataSet(
        alpha=d.alpha,
        beta=d.beta + LaurentPoly.constant([[0.05]]),
        gamma=d.gamma,
        delta=d.delta,
    )
    suite = hv.check_lemma_suite(bad, 8)
    assert not suite["precondition_ok"]


def test_lemma_suite_precondition_fails_on_nan():
    # delta = 1e160 (1 - 2.5/z + 0.66/z^2): delta* delta overflows, identity_d is NaN
    data = DataSet(
        alpha=LaurentPoly.identity(1),
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.from_run(-2, [[[6.6e159]], [[-2.5e160]], [[1e160]]]),
    )
    with np.errstate(over="ignore", invalid="ignore"):  # the triple and the window products overflow
        assert np.isnan(data.identity_residuals[1])
        suite = hv.check_lemma_suite(data, 12)
    assert np.isnan(suite["precondition_identities"])
    assert suite["precondition_ok"] is False


def test_identity_triples_vanish_together():
    # direct and dual identity triples both vanish on consistent data
    fx = hv.random_fixture(p=2, q=1, m=3, target_norm=0.5, rng_seed=21)
    rep = hv.check_identities(fx.data)
    for name in ("identity_a", "identity_d", "identity_cross", "dual_a", "dual_d", "dual_cross"):
        assert rep.entry(name).value <= 1e-10, name


@pytest.mark.parametrize("p,q,m", [(2, 2, 8), (3, 3, 32), (1, 1, 64)])
def test_residual_scale_of_exact_data(p, q, m):
    # Data from a dense corner solve carry identity residuals of about
    # eps |a0|^2 and inclusion residuals of about eps |a0| at the generating
    # g, up to norm 0.9999.  The bounds sit 4x above the worst ratios seen
    # with the shift-sum product (143 and 3.4), so round-off in the series
    # product cannot push exact data towards the identity gate.
    eps = np.finfo(float).eps
    for norm in (0.9, 0.99, 0.995, 0.9999):
        for seed in range(5):
            g, data, _ = corner_solve_data(p, q, m, norm, seed)
            a0 = np.linalg.norm(data.a0, 2)
            where = (norm, seed)
            assert max(hv.identity_residual_triple(data)) <= 600 * eps * a0**2, where
            g_sym = LaurentPoly.from_run(0, g)
            assert max(hv.inclusion_residuals(data, g_sym)) <= 16 * eps * a0, where
