"""Identity, zero-location, contraction and solution checks."""

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import DataSet, LaurentPoly
from hankelinv.errors import ShapeError

from conftest import random_poly
from support import (
    check_appendix_structure,
    corner_solve_data,
    dual_triple_per_symbol,
    identity_triple_per_symbol,
    inclusions_per_symbol,
    plus_part,
    trivial_data,
)


# -- check_identities -----------------------------------------------------------


def test_identities_trivial():
    rep = hv.check_identities(trivial_data(2, 3))
    assert rep.passed
    assert all(e.value == 0.0 for e in rep.entries)


def test_identities_deg1(deg1_fixture):
    rep = hv.check_identities(deg1_fixture.data)
    assert all(e.value <= 1e-13 for e in rep.entries)


def test_identities_perturbed_a0_isolated(deg1_fixture):
    # bumping the cached corner moves only the first residual, linearly,
    # down to bumps far below 1e-14 (abs=0: approx would forgive 1e-12)
    d = deg1_fixture.data
    for bump, rel in ((1e-3, 1e-9), (5e-15, 0.05)):
        bumped = DataSet(
            alpha=d.alpha, beta=d.beta, gamma=d.gamma, delta=d.delta,
            a0=d.a0 + bump * np.eye(1),
        )
        rep = hv.check_identities(bumped)
        assert rep.entry("identity_a").value == pytest.approx(bump, rel=rel, abs=0)
        assert rep.entry("identity_d").value <= 1e-13
        assert rep.entry("identity_cross").value <= 1e-13


def test_grid_residuals_exact_where_supports_cannot_reach():
    # A grid product read back by inverse FFT carries round-off in every
    # degree, so the read-back sets the degrees that no pair of non-zero
    # blocks reaches to exactly 0.  The data of 0.4 z^3 have one non-zero
    # degree per symbol, those of 0.3 + 0.2 z^2 even degrees only; on them
    # these residuals are exactly 0
    rep = hv.check_identities(hv.synthesize_data(LaurentPoly.single(3, [[0.4]])).data)
    assert rep.entry("dual_a").value == 0.0
    assert rep.entry("dual_d").value == 0.0
    g = LaurentPoly.single(0, [[0.3]]) + LaurentPoly.single(2, [[0.2]])
    data = hv.synthesize_data(g).data
    assert hv.solve_polynomial(data).residual_inclusions[3] == 0.0  # g_delta_beta


# -- zero locations ----------------------------------------------------------------


def test_zeros_identity_passes():
    rep = hv.check_zero_locations(trivial_data(2, 2))
    assert rep.passed
    # a constant determinant has no zero: no recursion step lowers the margin from 1
    assert rep.entry("alpha_det_zeros").value == -1.0


def test_zeros_root_inside_fails():
    data = DataSet(
        alpha=LaurentPoly.from_run(0, [[[1.0]], [[-2.0]]]),  # zero at 1/2
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.identity(1),
    )
    rep = hv.check_zero_locations(data)
    entry = rep.entry("alpha_det_zeros")
    assert entry.verdict == "fail"


def test_zeros_circle_adjacent_inconclusive():
    data = DataSet(
        alpha=LaurentPoly.from_run(0, [[[1.0]], [[-1.0]]]),  # zero on the circle
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.identity(1),
    )
    rep = hv.check_zero_locations(data)
    assert rep.entry("alpha_det_zeros").verdict == "inconclusive"


def test_zeros_delta_reflected():
    data = DataSet(
        alpha=LaurentPoly.identity(1),
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.from_run(-1, [[[-2.0]], [[1.0]]]),  # det zero at |z| = 2
    )
    rep = hv.check_zero_locations(data)
    assert rep.entry("delta_det_zeros").verdict == "fail"


def test_zeros_deg0_passes(deg0_fixture):
    assert hv.check_zero_locations(deg0_fixture.data).passed


def test_zeros_degenerate_det():
    # a determinant that is identically zero, or that deflates to nothing
    # (diag(1, 1e-14) normalised by 2**-1 has det 2.5e-15 < DEFLATION_TOL),
    # fails with value 1, what a zero at the origin reads, and the other
    # side keeps its own verdict
    zero, one = LaurentPoly.zero(2, 2), LaurentPoly.identity(2)
    tiny = LaurentPoly.constant(np.diag([1.0, 1e-14]))
    cases = (("alpha", "delta", zero, one), ("delta", "alpha", one, zero), ("alpha", "delta", tiny, one))
    for bad, good, alpha, delta in cases:
        rep = hv.check_zero_locations(DataSet(alpha=alpha, beta=zero, gamma=zero, delta=delta))
        assert (rep.entry(f"{bad}_det_zeros").verdict, rep.entry(f"{bad}_det_zeros").value) == ("fail", 1.0)
        assert rep.entry(f"{good}_det_zeros").verdict == "pass"


# -- hankel norm --------------------------------------------------------------------


def test_hankel_norm_zero():
    assert hv.hankel_norm(LaurentPoly.zero(3, 2)) == 0.0


def test_hankel_norm_constant():
    assert hv.hankel_norm(LaurentPoly.constant([[0.7]])) == pytest.approx(0.7)


def test_hankel_norm_shifted(deg1_fixture):
    assert hv.hankel_norm(deg1_fixture.g) == pytest.approx(0.5)


def test_hankel_norm_homogeneous(rng):
    g = random_poly(rng, 2, 2, (0, 1, 3))
    assert hv.hankel_norm(2.0 * g) == pytest.approx(2.0 * hv.hankel_norm(g))


# -- strict contraction ----------------------------------------------------------------


def test_contraction_trivial():
    rep = hv.check_strict_contraction(trivial_data(1, 2))
    assert rep.passed
    assert rep.entry("hankel_norm").value == 0.0


def test_contraction_deg1(deg1_fixture):
    rep = hv.check_strict_contraction(deg1_fixture.data, deg1_fixture.g)
    assert rep.passed
    assert rep.entry("a0_positive").value == pytest.approx(-4.0 / 3.0)
    assert rep.entry("hankel_norm").value == pytest.approx(0.5)


def test_contraction_near_unit_norm():
    fx = hv.random_fixture(p=1, q=1, m=2, target_norm=0.99, rng_seed=17)
    rep = hv.check_strict_contraction(fx.data, fx.g)
    assert rep.passed


def test_contraction_solves_when_g_missing(deg0_fixture):
    rep = hv.check_strict_contraction(deg0_fixture.data)
    assert rep.entry("hankel_norm").value == pytest.approx(0.5)
    # a matrix fixture of positive degree: the solved g gives the same report
    fx = hv.random_fixture(p=2, q=3, m=5, target_norm=0.9, rng_seed=61)
    solved = hv.check_strict_contraction(fx.data)
    given = hv.check_strict_contraction(fx.data, fx.g)
    assert [e.verdict for e in solved.entries] == [e.verdict for e in given.entries]
    assert [e.name for e in solved.entries] == [e.name for e in given.entries]
    gap = abs(solved.entry("hankel_norm").value - given.entry("hankel_norm").value)
    assert gap <= 1e-12


# -- verify_solution ---------------------------------------------------------------------


def test_verify_trivial():
    rep = hv.verify_solution(trivial_data(2, 1), LaurentPoly.zero(2, 1))
    assert all(e.value == 0.0 for e in rep.entries)


def test_verify_deg1(deg1_fixture):
    rep = hv.verify_solution(deg1_fixture.data, deg1_fixture.g)
    assert all(e.value <= 1e-12 for e in rep.entries)


def test_verify_perturbed_g(deg1_fixture):
    g_bad = deg1_fixture.g + LaurentPoly.constant([[0.1]])
    rep = hv.verify_solution(deg1_fixture.data, g_bad)
    assert max(e.value for e in rep.entries) >= 0.05


def test_verify_monotone_at_truth(deg0_fixture, rng):
    d = deg0_fixture.data
    base = max(hv.inclusion_residuals(d, deg0_fixture.g))
    for _ in range(10):
        noise = random_poly(rng, 1, 1, (0, 1), scale=1e-2)
        worse = max(hv.inclusion_residuals(d, deg0_fixture.g + noise))
        assert worse > base


def test_verify_refuses_non_analytic_g():
    # the trivial data are solved by g = 0 alone; a g with support at degree
    # -1 is no candidate, and the row inclusions assume degrees >= 0
    with pytest.raises(ShapeError, match="degrees >= 0"):
        hv.verify_solution(trivial_data(1, 1), LaurentPoly.single(-1, [[0.3]]))


# -- block forms against the per-symbol reference --------------------------------------


@pytest.mark.parametrize("norm", [0.3, 0.9, 1.2, 1.5, 3.0])
def test_block_forms_match_per_symbol_reference(norm):
    # 40 data sets per norm, p, q <= 3 and m <= 8, each verified at its true
    # g, a perturbed g, the zero g and a random g of degree m + 3.  The bound
    # is 64 eps s max(1, |reference|).  s = max(1, |a0|, |d0|)^2 for the
    # direct triple and the inclusions; the dual triple's terms carry a0^-1
    # and d0^-1, and above norm 1 the data coefficients outgrow a0 and d0,
    # so there s = max(1, largest coefficient)^2 max(1, |a0^-1|, |d0^-1|).
    rng = np.random.default_rng(1804)
    eps = np.finfo(float).eps
    for seed in range(40):
        p, q, m = (int(k) for k in rng.integers([1, 1, 0], [4, 4, 9]))
        g, data, _ = corner_solve_data(p, q, m, norm, seed)
        g = LaurentPoly.from_run(0, g)
        scale = max(1.0, np.linalg.norm(data.a0, 2), np.linalg.norm(data.d0, 2)) ** 2
        coef = max(sym.sup_norm() for sym in (data.alpha, data.beta, data.gamma, data.delta))
        inv = max(np.linalg.norm(x, 2) for x in data.corner_inverses)
        dual = hv.check_identities(data)
        pairs = [
            (hv.identity_residual_triple(data), identity_triple_per_symbol(data), scale),
            ([dual.entry(n).value for n in ("dual_a", "dual_d", "dual_cross")],
             dual_triple_per_symbol(data), max(1.0, coef) ** 2 * max(1.0, inv)),
        ]
        candidates = (g, g + random_poly(rng, p, q, range(m + 1), scale=1e-3),
                      LaurentPoly.zero(p, q), random_poly(rng, p, q, range(m + 4)))
        pairs += [(hv.inclusion_residuals(data, h), inclusions_per_symbol(data, h), scale)
                  for h in candidates]
        for block, ref, s in pairs:
            for b, r in zip(block, ref):
                assert abs(b - r) <= 64 * eps * s * max(1.0, r), (seed, block, ref)


# -- appendix structure -------------------------------------------------------------------


def test_appendix_zero_symbol():
    data = trivial_data(2, 2)
    rep = check_appendix_structure(data, LaurentPoly.zero(2, 2), 4)
    assert rep.entry("schur_a0").value <= 1e-13
    assert rep.entry("schur_d0").value <= 1e-13


def test_appendix_deg0(deg0_fixture):
    rep = check_appendix_structure(deg0_fixture.data, deg0_fixture.g, 6)
    assert rep.entry("schur_a0").value <= 1e-12
    assert rep.entry("schur_d0").value <= 1e-12


def test_appendix_deg1(deg1_fixture):
    rep = check_appendix_structure(deg1_fixture.data, deg1_fixture.g, 8)
    assert rep.entry("congruence_first").value <= 1e-11
    assert rep.entry("congruence_last").value <= 1e-11
    assert rep.entry("omega_positivity_link").value <= 1e-11
    assert rep.entry("omega1_positive_under_contraction").verdict == "pass"


def test_appendix_schur_extracts_corners():
    fx = hv.random_fixture(p=2, q=3, m=3, target_norm=0.9, rng_seed=71)
    rep = check_appendix_structure(fx.data, fx.g, 4 * fx.data.m + 4)
    assert rep.entry("schur_a0").value <= 1e-10
    assert rep.entry("schur_d0").value <= 1e-10


def test_appendix_inconclusive_window(deg1_fixture):
    # a single-block window cannot hold the degree-1 corner
    rep = check_appendix_structure(deg1_fixture.data, deg1_fixture.g, 1)
    assert rep.entry("schur_a0").verdict == "inconclusive"


# -- synthesized data always verifies -------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_synthesized_data_consistent(seed):
    fx = hv.random_fixture(p=2, q=2, m=4, target_norm=0.6, rng_seed=100 + seed)
    assert hv.check_identities(fx.data).passed
    assert hv.verify_solution(fx.data, fx.g).passed


@pytest.mark.parametrize("p, q, m", [(1, 1, 4), (2, 1, 3), (3, 3, 16), (1, 2, 0)])
def test_shifted_corner_cannot_fail(p, q, m):
    # the corner of (g / z)_+ is H with its first block row removed and a
    # zero row appended, so its norm is at most ||H|| and the positivity
    # of Omega_1 = [[I, C], [C*, I]] adds nothing to hankel_norm < 1
    fx = hv.random_fixture(p=p, q=q, m=m, target_norm=0.9, rng_seed=3)
    n = m + 1
    corner = hv.build(hv.OpKind.HANKEL_PLUS, fx.g, n)
    shifted = hv.build(hv.OpKind.HANKEL_PLUS, plus_part(fx.g.shifted(-1)), n)
    assert np.array_equal(shifted, np.vstack([corner[p:], np.zeros((p, n * q))]))
    rep = hv.check_strict_contraction(fx.data, fx.g)
    assert [e.name for e in rep.entries][-1] == "hankel_norm"
    assert "omega1_positive" not in rep.values()
