"""The three recovery routes and the triangular Toeplitz kernel."""

import time

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import DataSet, LaurentPoly, solver
from hankelinv.errors import (
    DataIdentityError,
    FactorizationUnavailableError,
    InjectivityError,
    ShapeError,
    SingularCornerError,
)

from conftest import random_poly
from support import corner_solve_data, trivial_data


def perturbed(data, which, eps):
    kwargs = dict(alpha=data.alpha, beta=data.beta, gamma=data.gamma, delta=data.delta)
    bump = LaurentPoly.constant(eps * np.eye(kwargs[which].rows, kwargs[which].cols))
    kwargs[which] = kwargs[which] + bump
    return DataSet(**kwargs)


# -- tri_toeplitz_solve ---------------------------------------------------------


def test_tri_single_block(deg0_fixture):
    d0 = deg0_fixture.data.d0
    out = hv.tri_toeplitz_solve(d0[None], np.eye(1)[None])
    assert out.shape == (1, 1, 1)
    assert abs(out[0, 0, 0] - 0.75) < 1e-14


def test_tri_identity_diagonal(rng):
    rhs = rng.standard_normal((5, 2, 1))
    out = hv.tri_toeplitz_solve(np.eye(2)[None], rhs)
    assert np.allclose(out, rhs)


TRI_COND_LIMIT = 1e4


def _forward_substitution(blocks, rhs):
    """Block forward substitution, one block row at a time."""
    x = np.zeros(rhs.shape, dtype=complex)
    for i in range(len(rhs)):
        # row i sees solved block j through the block T[i - j]
        seen = np.einsum("jab,jbr->ar", blocks[i:0:-1], x[:i])
        x[i] = np.linalg.solve(blocks[0], rhs[i] - seen)
    return x


def test_tri_block_vs_dense_lu(rng):
    # (k, m, decay of the off-diagonal blocks, spread of the diagonal block,
    # imaginary weight); the chunks hold 64 scalar rows, that is 64, 32 and
    # 21 blocks at k = 1, 2 and 3, so m = 63, 64, 65, 128 and 129 at k = 1,
    # 32 and 33 at k = 2, and 21, 22, 42 and 43 at k = 3 sit on either side
    # of chunk boundaries.  Each system is redrawn until its condition number
    # is at most TRI_COND_LIMIT, where the 1e-11 bar measures the kernel
    # rather than the draw.
    cases = [(3, 4, 1.0, 0.3, 1j), (2, 150, 0.7, 0.3, 1j), (3, 257, 0.7, 0.2, 0)]
    cases += [(k, m, 0.3, 0.3, 1j) for m in (63, 64, 65, 128, 129) for k in (1, 3)]
    cases += [(2, m, 0.3, 0.3, 1j) for m in (32, 33)]
    cases += [(3, m, 0.3, 0.3, 1j) for m in (21, 22, 42, 43)]
    for k, m, decay, spread, imag in cases:
        for _ in range(20):
            blocks = np.empty((m, k, k), dtype=complex)
            blocks[0] = np.eye(k) + spread * rng.standard_normal((k, k))
            for j in range(1, m):
                blocks[j] = 0.4 * decay**j * (rng.standard_normal((k, k)) + imag * rng.standard_normal((k, k)))
            dense = np.zeros((m * k, m * k), dtype=complex)
            for j in range(m):
                for i in range(j, m):
                    dense[i * k : (i + 1) * k, j * k : (j + 1) * k] = blocks[i - j]
            cond = np.linalg.cond(dense)
            if cond <= TRI_COND_LIMIT:
                break
        assert cond <= TRI_COND_LIMIT, (k, m, cond)
        rhs = rng.standard_normal((m, k, 2))
        got = hv.tri_toeplitz_solve(blocks, rhs)
        assert got.shape == (m, k, 2)
        want = _forward_substitution(blocks, rhs)
        assert np.max(np.abs(got - want)) <= 1e-11, (k, m)
        lu = np.linalg.solve(dense, rhs.reshape(m * k, 2))
        assert np.max(np.abs(got.reshape(m * k, 2) - lu)) <= 1e-11, (k, m)


def test_tri_upper_vs_dense_lu(rng):
    # the upper system with first block row t, read bottom to top, is the
    # lower one with first block column t (the c-side reading); m = 257
    # crosses chunk boundaries
    for k, m, decay in ((2, 5, 1.0), (3, 257, 0.7)):
        blocks = np.empty((m, k, k))
        blocks[0] = np.eye(k) + 0.2 * rng.standard_normal((k, k))
        for j in range(1, m):
            blocks[j] = 0.4 * decay**j * rng.standard_normal((k, k))
        rhs = rng.standard_normal((m, k, 1))
        got = hv.tri_toeplitz_solve(blocks, rhs[::-1])[::-1]
        dense = np.zeros((m * k, m * k), dtype=complex)
        for j in range(m):
            for i in range(m - j):
                dense[i * k : (i + 1) * k, (i + j) * k : (i + j + 1) * k] = blocks[j]
        want = np.linalg.solve(dense, rhs.reshape(m * k, 1))
        assert np.max(np.abs(got.reshape(m * k, 1) - want)) <= 1e-11, (k, m)


def test_tri_long_scalar_vs_dense(rng):
    m = 300
    t = np.zeros(m, dtype=complex)
    t[0] = 1.0
    t[1:] = 0.4 ** np.arange(1, m) * rng.standard_normal(m - 1)
    rhs = rng.standard_normal((m, 1))
    got = hv.tri_toeplitz_solve(t.reshape(m, 1, 1), rhs.reshape(m, 1, 1))
    dense = np.tril(t[np.subtract.outer(np.arange(m), np.arange(m))])
    want = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(got.reshape(m, 1) - want)) <= 1e-11


def test_tri_singular_diagonal():
    with pytest.raises(SingularCornerError):
        hv.tri_toeplitz_solve(np.zeros((1, 2, 2)), np.eye(2)[None])
    # a subnormal 1x1 diagonal block has cond 1 but is refused as the
    # corners a0 and d0 are, not solved into NaN
    with pytest.raises(SingularCornerError, match="largest entry below"):
        hv.tri_toeplitz_solve([[[1e-310]]], [[[1.0]]])


def test_tri_scaling_certificate(rng):
    # doubling the block count should cost at most ~4x (plus noise)
    def timed(m):
        t = np.zeros(m, dtype=complex)
        t[0] = 1.0
        t[1:] = 0.3 ** np.arange(1, m) * rng.standard_normal(m - 1)
        rhs = rng.standard_normal((m, 1))
        cb = [t[j].reshape(1, 1) for j in range(m)]
        rb = [rhs[j].reshape(1, 1) for j in range(m)]
        hv.tri_toeplitz_solve(cb, rb)  # warm up
        return min(
            (lambda s=time.perf_counter(): (hv.tri_toeplitz_solve(cb, rb), time.perf_counter() - s)[1])()
            for _ in range(5)
        )

    t256, t512 = timed(256), timed(512)
    assert t512 <= 5 * t256 + 1e-3


# -- polynomial route -----------------------------------------------------------


def test_polynomial_trivial():
    rep = hv.solve_polynomial(trivial_data(2, 1))
    assert rep.g.is_zero
    assert max(rep.residual_inclusions) == 0.0


def test_polynomial_deg0(deg0_fixture):
    rep = hv.solve_polynomial(deg0_fixture.data)
    assert abs(rep.g.coeff(0)[0, 0] - 0.5) < 1e-12
    assert rep.details["two_sided_gap"] < 1e-12


def test_polynomial_deg1(deg1_fixture):
    rep = hv.solve_polynomial(deg1_fixture.data)
    assert hv.poly_gap(rep.g, deg1_fixture.g) < 1e-12
    assert rep.details["two_sided_gap"] < 1e-12


def test_polynomial_refuses_gross_violation(deg1_fixture):
    bad = perturbed(deg1_fixture.data, "beta", 1e-3)
    with pytest.raises(DataIdentityError) as err:
        hv.solve_polynomial(bad)
    assert "identity" in str(err.value)


def test_polynomial_flags_moderate_violation(deg1_fixture):
    bad = perturbed(deg1_fixture.data, "beta", 1e-3)
    rep = hv.solve_polynomial(bad, tol=1e-4)  # residual sits in the flag band
    assert rep.flags
    # dropping the cross identity decouples the two sides by ~ the bump size
    assert rep.details["two_sided_gap"] >= 1e-4


def test_polynomial_degree_bound():
    fx = hv.random_fixture(p=2, q=3, m=5, target_norm=0.7, rng_seed=33)
    rep = hv.solve_polynomial(fx.data)
    assert rep.g.hi <= fx.data.m


@pytest.mark.parametrize("p,q,m", [(1, 1, 0), (2, 3, 4), (3, 2, 70)])
def test_b_side_vs_dense_upper_system(rng, p, q, m):
    # (g delta + beta)_+ = 0 on data that satisfy no identity: block k reads
    # sum_{j>=k} g_j delta_{k-j} = -beta_k, so G D = -B for the row of
    # coefficients G and D[j, k] = delta_{k-j}; m = 70 spans two chunks
    for _ in range(20):
        dblocks = 0.4 * 0.7 ** np.arange(m + 1)[:, None, None] * (
            rng.standard_normal((m + 1, q, q)) + 1j * rng.standard_normal((m + 1, q, q)))
        dblocks[0] = np.eye(q) + 0.3 * rng.standard_normal((q, q))
        dense = np.zeros(((m + 1) * q,) * 2, dtype=complex)
        for k in range(m + 1):
            for j in range(k, m + 1):
                dense[j * q : (j + 1) * q, k * q : (k + 1) * q] = dblocks[j - k]
        if np.linalg.cond(dense) <= TRI_COND_LIMIT:
            break
    assert np.linalg.cond(dense) <= TRI_COND_LIMIT
    beta = rng.standard_normal((m + 1, p, q)) + 1j * rng.standard_normal((m + 1, p, q))
    data = DataSet(alpha=LaurentPoly.identity(p), beta=LaurentPoly.from_run(0, beta),
                   gamma=LaurentPoly.zero(q, p), delta=LaurentPoly.from_run(-m, dblocks[::-1]))
    g = data.b_side
    rhs = -beta.transpose(1, 0, 2).reshape(p, (m + 1) * q)
    want = np.linalg.solve(dense.T, rhs.T).T.reshape(p, m + 1, q).transpose(1, 0, 2)
    assert np.max(np.abs(g.coeff_run(0, m + 1) - want)) <= 1e-12 * np.max(np.abs(want))
    assert hv.verify_solution(data, g).entry("g_delta_beta").value <= 1e-12 * np.max(np.abs(beta))


# -- truncated route --------------------------------------------------------------


def test_truncated_trivial():
    rep = hv.solve_truncated(trivial_data(1, 1))
    assert rep.g.is_zero
    assert rep.details["sigma_min_m11"] == pytest.approx(1.0)
    assert rep.details["sigma_min_m22"] == pytest.approx(1.0)


def test_truncated_deg0(deg0_fixture):
    rep = hv.solve_truncated(deg0_fixture.data, n_blocks=6)
    assert abs(rep.g.coeff(0)[0, 0] - 0.5) < 1e-12
    assert rep.details["column_gap"] <= 1e-12


def test_truncated_matches_polynomial():
    fx = hv.random_fixture(p=2, q=2, m=4, target_norm=0.8, rng_seed=44)
    rp = hv.solve_polynomial(fx.data)
    rt = hv.solve_truncated(fx.data, n_blocks=24)
    assert hv.poly_gap(rp.g, rt.g) <= 1e-9
    # -M11^-1 M12 is the window of H+(g), read off M's full window
    big, n = hv.build_m(fx.data, 24), 24 * fx.data.p
    hmat = -np.linalg.solve(big[:n, :n], big[:n, n:])
    assert np.max(np.abs(hmat - hv.build(hv.OpKind.HANKEL_PLUS, fx.g, 24))) <= 1e-10
    assert rt.details["tail_beyond_degree"] <= 1e-12


def test_truncated_injectivity_gate():
    # an absurd tolerance turns the certificate threshold above sigma_min
    with pytest.raises(InjectivityError):
        hv.solve_truncated(trivial_data(1, 1), tol=1.0)


def test_truncated_refuses_bad_identities(deg1_fixture):
    bad = perturbed(deg1_fixture.data, "alpha", 1e-3)
    with pytest.raises(DataIdentityError):
        hv.solve_truncated(bad)


def test_truncated_tail_mass(deg1_fixture):
    rep = hv.solve_truncated(deg1_fixture.data, n_blocks=1)
    # a one-block window cannot see degree 1; the degree-1 mass is reported
    assert rep.details["tail_mass_uncertified"] > 1.0
    rep_full = hv.solve_truncated(deg1_fixture.data)
    assert rep_full.details["tail_mass_uncertified"] == 0.0


@pytest.mark.parametrize("p, q, m", [(1, 1, 1), (2, 3, 4), (3, 2, 6)])
def test_truncated_default_window_is_exact(p, q, m):
    fx = hv.random_fixture(p=p, q=q, m=m, target_norm=0.9, rng_seed=40 + m)
    rep = hv.solve_truncated(fx.data)
    assert rep.details["window"] == m + 1
    assert rep.details["tail_mass_uncertified"] == 0.0
    assert hv.poly_gap(rep.g, fx.g) <= 1e-12
    assert min(rep.details["sigma_min_m11"], rep.details["sigma_min_m22"]) >= 1.0 - 1e-12
    # one block short of m+1 the window misses the degree-m data
    narrow = hv.solve_truncated(fx.data, n_blocks=m)
    assert narrow.details["tail_mass_uncertified"] > 0.0


def test_truncated_refuses_empty_window(deg1_fixture):
    # only None means the default window; 0 and below retain no block
    for n_blocks in (0, -1):
        with pytest.raises(ShapeError):
            hv.solve_truncated(deg1_fixture.data, n_blocks=n_blocks)


@pytest.mark.parametrize("flagged", [False, True])
@pytest.mark.parametrize("norm", [0.5, 0.99, 1.5])
@pytest.mark.parametrize("p, q, m", [(1, 1, 4), (2, 1, 3), (1, 2, 3), (2, 2, 5), (2, 2, 24)])
def test_truncated_certificates_match_svd(p, q, m, norm, flagged):
    # M11 and M22 are Hermitian, so the smallest eigenvalue modulus the
    # route reports is their smallest singular value, at any Hankel norm.
    # Flagged data shift a0 by i 1e-8, so M11 gains an anti-Hermitian part;
    # with tol a tenth of the identity residual, the data are flagged
    _, data, _ = corner_solve_data(p, q, m, norm, 0)
    tol = hv.DEFAULT_TOL
    if flagged:
        data = perturbed(data, "alpha", 1e-8j)
        tol = float(np.max(data.identity_residuals)) / 10
    rep = hv.solve_truncated(data, tol=tol)
    assert bool(rep.flags) == flagged
    big, n = hv.build_m(data, m + 1), (m + 1) * p
    for key, block in (("sigma_min_m11", big[:n, :n]), ("sigma_min_m22", big[n:, n:])):
        ref = np.linalg.svd(block, compute_uv=False)[-1]
        assert abs(rep.details[key] - ref) <= 1e-12 * ref, (key, rep.details[key], ref)


@pytest.mark.parametrize("norm", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("p, q, m", [(1, 1, 4), (2, 1, 3), (1, 2, 3), (2, 2, 5)])
def test_truncated_recovers_noncontractive_data(p, q, m, norm):
    # Hankel norm above 1: the data exist, the window route still finds g,
    # and the strict-contraction check must say the data are not contractive
    for seed in range(10):
        g, data, cond = corner_solve_data(p, q, m, norm, seed)
        rep = hv.solve_truncated(data)
        err = np.max(np.abs(rep.g.coeff_run(0, m + 1) - g)) / np.max(np.abs(g))
        assert err <= 1e-10 * cond, (seed, err, cond)
        assert hv.check_strict_contraction(data).overall() == "fail", seed


# -- factorization route -----------------------------------------------------------


def test_factorization_trivial():
    rep = hv.solve_factorization(trivial_data(2, 2))
    assert rep.g.is_zero
    assert rep.details["path_gap"] == 0.0


def test_factorization_deg0(deg0_fixture):
    rep = hv.solve_factorization(deg0_fixture.data)
    assert abs(rep.g.coeff(0)[0, 0] - 0.5) < 1e-12
    assert rep.details["path_gap"] < 1e-12


def test_factorization_deg1(deg1_fixture):
    rep = hv.solve_factorization(deg1_fixture.data)
    assert hv.poly_gap(rep.g, deg1_fixture.g) < 1e-12


def test_factorization_unavailable_path():
    # alpha = 1 - 2z has its determinant zero inside the disk
    data = DataSet(
        alpha=LaurentPoly.from_run(0, [[[1.0]], [[-2.0]]]),
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.identity(1),
    )
    rep = hv.solve_factorization(data, tol=1e6)  # identities off, gate relaxed
    assert rep.details["alpha_path"] == "fail"
    assert rep.details["delta_path"] == "pass"
    assert "only one factorization path available" in rep.flags


def test_factorization_no_paths():
    data = DataSet(
        alpha=LaurentPoly.from_run(0, [[[1.0]], [[-2.0]]]),
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.from_run(-1, [[[-2.0]], [[1.0]]]),
    )
    with pytest.raises(FactorizationUnavailableError):
        hv.solve_factorization(data, tol=1e6)


def test_solve_all_notes_unavailable_factorization():
    # non-contractive data of Hankel norm 1.2 fail both zero gates: solve_all
    # keeps the other two routes and says why the third is missing
    _, data, _ = corner_solve_data(1, 1, 3, 1.2, 1)
    reports, _, notes = hv.solve_all(data)
    assert sorted(reports) == ["polynomial", "truncated"]
    assert notes == ["both factorization paths unavailable: alpha zeros fail, delta zeros fail"]


# -- dual phi -----------------------------------------------------------------------


def test_dual_phi_trivial():
    phi = hv.solve_dual_phi(trivial_data(2, 1))
    assert phi.is_zero


def test_dual_phi_deg0(deg0_fixture):
    phi = hv.solve_dual_phi(deg0_fixture.data)
    assert abs(phi.coeff(0)[0, 0] - 0.5) < 1e-12


def test_dual_phi_deg1(deg1_fixture):
    phi = hv.solve_dual_phi(deg1_fixture.data)
    assert abs(phi.coeff(-1)[0, 0] - 0.5) < 1e-12
    assert hv.poly_gap(phi.adjoint(), deg1_fixture.g) < 1e-12


def test_dual_phi_adjoint_matches_g():
    fx = hv.random_fixture(p=3, q=2, m=3, target_norm=0.6, rng_seed=55)
    phi = hv.solve_dual_phi(fx.data)
    assert hv.poly_gap(phi.adjoint(), fx.g) <= 1e-10


def test_dual_phi_refuses_under_the_shared_gate():
    # alpha's degree-1 coefficient bumped: identity_a and identity_cross
    # read 1.3e-3 and 4.4e-4 while identity_d stays at rounding level
    d = hv.random_fixture(p=2, q=1, m=3, target_norm=0.6, rng_seed=5).data
    bumped = DataSet(alpha=d.alpha + LaurentPoly.single(1, 1e-3 * np.ones((2, 2))),
                     beta=d.beta, gamma=d.gamma, delta=d.delta)
    res = hv.identity_residual_triple(bumped)
    assert res[1] <= 1e-14 and min(res[0], res[2]) > 1e-4
    for solve in (hv.solve_polynomial, hv.solve_dual_phi):
        with pytest.raises(DataIdentityError) as info:
            solve(bumped)
        assert info.value.worst == "identity_a"


def test_report_with_nan_residual_not_accepted():
    # a NaN residual was not measured; a comparison with it is False in any position
    rep = hv.SolveReport(LaurentPoly.zero(1, 1), "poly", (0.0, 0.0, 0.0), (0.0, float("nan"), 0.0, 0.0))
    assert rep.accepted is False


# -- cross-method properties ----------------------------------------------------------


@pytest.mark.parametrize("seed,p,q,m,t", [(1, 1, 1, 0, 0.3), (2, 2, 1, 3, 0.6), (3, 2, 3, 5, 0.9)])
def test_method_agreement(seed, p, q, m, t):
    fx = hv.random_fixture(p=p, q=q, m=m, target_norm=t, rng_seed=seed)
    reports, gap, notes = hv.solve_all(fx.data)
    assert not notes
    assert gap <= 1e-8
    for rep in reports.values():
        assert hv.poly_gap(rep.g, fx.g) <= 1e-8
        assert rep.accepted


def test_uniqueness_probe(deg1_fixture, rng):
    d = deg1_fixture.data
    base = max(hv.inclusion_residuals(d, deg1_fixture.g))
    assert base <= 1e-12
    for _ in range(10):
        noise = random_poly(rng, 1, 1, tuple(rng.integers(0, 3, size=2)), scale=1e-3)
        perturbed_g = deg1_fixture.g + noise
        if hv.poly_gap(perturbed_g, deg1_fixture.g) == 0.0:
            continue
        assert max(hv.inclusion_residuals(d, perturbed_g)) > 1e-6
