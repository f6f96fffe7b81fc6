"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The fixture population is 200 deterministic random
instances over p, q in {1,2,3}, degree m in 0..8 and Hankel-norm targets
{0.3, 0.6, 0.9}.
"""

import time

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import DataSet, LaurentPoly, cli, io_json

from conftest import corner_oracle
from support import check_appendix_structure

ROUND_TRIP_TOL = 1e-8
METHOD_GAP_TOL = 1e-8
TWO_SIDED_TOL = 1e-10
INVERSE_TOL = 1e-10
LEMMA_TOL = 1e-10
WORKED_TOL = 1e-12
EPS = 1e-3
CONTRACTION_CUTOFF = 0.95
SPEEDUP_FACTOR = 3.0
PERF_AGREEMENT_TOL = 1e-9
ROUND_TRIP_BUDGET_S = 60.0

TARGETS = (0.3, 0.6, 0.9)
GRID = [
    (p, q, m, t)
    for t in TARGETS
    for m in range(9)
    for p in (1, 2, 3)
    for q in (1, 2, 3)
][:200]


def report_line(num, name, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def population():
    return [
        hv.random_fixture(p, q, m, t, rng_seed=7000 + i)
        for i, (p, q, m, t) in enumerate(GRID)
    ]


def test_criterion_1_round_trip(population):
    start = time.perf_counter()
    worst = 0.0
    for fx in population:
        rep = hv.solve_polynomial(fx.data)
        worst = max(worst, hv.poly_gap(rep.g, fx.g))
    elapsed = time.perf_counter() - start
    ok = worst <= ROUND_TRIP_TOL and elapsed <= ROUND_TRIP_BUDGET_S
    report_line(
        1, "round-trip recovery", ok,
        f"n={len(population)} max_err={worst:.2e} time={elapsed:.1f}s",
    )


def test_criterion_2_method_agreement(population):
    worst_gap = 0.0
    worst_two_sided = 0.0
    for fx in population:
        rp = hv.solve_polynomial(fx.data)
        rt = hv.solve_truncated(fx.data, n_blocks=4 * fx.data.m + 4)
        rd = hv.solve_truncated(fx.data)  # default (m+1)-block window
        rf = hv.solve_factorization(fx.data)
        candidates = [rp.g, rt.g, rd.g, rf.g]
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                worst_gap = max(worst_gap, hv.poly_gap(candidates[i], candidates[j]))
        worst_gap = max(worst_gap, rf.details.get("path_gap", 0.0))
        worst_two_sided = max(worst_two_sided, rp.details["two_sided_gap"])
    ok = worst_gap <= METHOD_GAP_TOL and worst_two_sided <= TWO_SIDED_TOL
    report_line(
        2, "method agreement", ok,
        f"max_pairwise={worst_gap:.2e} max_two_sided={worst_two_sided:.2e}",
    )


def test_criterion_3_inversion(population):
    worst = 0.0
    for fx in population:
        N = 4 * fx.data.m + 4
        omega = hv.build_omega(fx.g, N)
        m_op = hv.build_m(fx.data, N)
        margin = hv.inverse_margin(fx.data, fx.g, N)
        assert margin > 0
        rep = hv.verify_inverse(omega, m_op, fx.data.p, fx.data.q, margin)
        worst = max(worst, rep["m_omega"], rep["omega_m"])
    ok = worst <= INVERSE_TOL
    report_line(3, "inversion identity", ok, f"max_residual={worst:.2e}")


def test_criterion_4_lemma_suite(population):
    watched = (
        "units_a", "units_b", "units_c", "units_d",
        "j_congruence", "intertwine", "adjoint_m12_m21", "variant_agreement",
    )
    worst = {k: 0.0 for k in watched}
    for fx in population:
        suite = hv.check_lemma_suite(fx.data, 4 * fx.data.m + 4)
        assert suite["precondition_ok"]
        assert not suite["inconclusive"]
        for k in watched:
            worst[k] = max(worst[k], suite[k])
    peak = max(worst.values())
    ok = peak <= LEMMA_TOL
    report_line(4, "identity suite", ok, f"max_residual={peak:.2e}")


def test_criterion_5_worked_fixtures(deg0_fixture, deg1_fixture):
    # recompute with the independent corner oracle, then pin the constants
    a, b, c, d = corner_oracle([0.5])
    oracle_ok = (
        abs(a[0] - 4.0 / 3.0) <= WORKED_TOL
        and abs(b[0] + 2.0 / 3.0) <= WORKED_TOL
        and abs(c[0] + 2.0 / 3.0) <= WORKED_TOL
        and abs(d[0] - 4.0 / 3.0) <= WORKED_TOL
    )
    g0 = hv.solve_polynomial(deg0_fixture.data).g
    g1 = hv.solve_truncated(deg1_fixture.data).g
    g1f = hv.solve_factorization(deg1_fixture.data).g
    ok = (
        oracle_ok
        and abs(deg0_fixture.data.a0[0, 0] - 4.0 / 3.0) <= WORKED_TOL
        and abs(deg0_fixture.data.d0[0, 0] - 4.0 / 3.0) <= WORKED_TOL
        and abs(deg0_fixture.data.beta.coeff(0)[0, 0] + 2.0 / 3.0) <= WORKED_TOL
        and abs(deg0_fixture.data.gamma.coeff(0)[0, 0] + 2.0 / 3.0) <= WORKED_TOL
        and abs(g0.coeff(0)[0, 0] - 0.5) <= WORKED_TOL
        and abs(deg1_fixture.data.beta.coeff(1)[0, 0] + 2.0 / 3.0) <= WORKED_TOL
        and abs(deg1_fixture.data.gamma.coeff(-1)[0, 0] + 2.0 / 3.0) <= WORKED_TOL
        and hv.poly_gap(g1, deg1_fixture.g) <= WORKED_TOL
        and hv.poly_gap(g1f, deg1_fixture.g) <= WORKED_TOL
    )
    report_line(5, "worked fixtures", ok, "deg-0 and deg-1 constants reproduced")


def _in_band(value):
    return EPS / 10.0 <= value <= 10.0 * EPS


def test_criterion_6_negative_detection(deg1_fixture, tmp_path):
    d = deg1_fixture.data
    checks = []

    # (a) corner perturbation: first identity residual scales with eps
    bumped = DataSet(alpha=d.alpha, beta=d.beta, gamma=d.gamma, delta=d.delta,
                     a0=d.a0 + EPS * np.eye(1))
    rep_a = hv.check_identities(bumped)
    checks.append(("a0 residual band", _in_band(rep_a.entry("identity_a").value)))
    with pytest.raises(hv.errors.DataIdentityError):
        hv.solve_polynomial(bumped)

    # via the file interface: bump alpha's constant coefficient instead
    file_bumped = DataSet(alpha=d.alpha + LaurentPoly.constant([[EPS]]),
                          beta=d.beta, gamma=d.gamma, delta=d.delta)
    rep_af = hv.check_identities(file_bumped)
    checks.append(("alpha0 residual band", _in_band(rep_af.entry("identity_a").value)))
    path_a = tmp_path / "bump_a.json"
    io_json.write_json(path_a, io_json.problem_to_json(file_bumped))
    checks.append(("alpha0 exit 4", cli.main(["solve", str(path_a)]) == 4))

    # (b) cross-identity perturbation through beta
    crossed = DataSet(alpha=d.alpha, beta=d.beta + LaurentPoly.constant([[EPS]]),
                      gamma=d.gamma, delta=d.delta)
    rep_b = hv.check_identities(crossed)
    checks.append(("cross residual band", _in_band(rep_b.entry("identity_cross").value)))
    path_b = tmp_path / "bump_b.json"
    io_json.write_json(path_b, io_json.problem_to_json(crossed))
    checks.append(("cross exit 4", cli.main(["solve", str(path_b)]) == 4))

    # (c) solution perturbation: inclusion residuals scale with eps
    g_bad = deg1_fixture.g + LaurentPoly.constant([[EPS]])
    incl = max(hv.inclusion_residuals(d, g_bad))
    checks.append(("g residual band", _in_band(incl)))
    path_ok = tmp_path / "prob.json"
    io_json.write_json(path_ok, io_json.problem_to_json(d))
    path_g = tmp_path / "g_bad.json"
    io_json.write_json(path_g, io_json.poly_to_json(g_bad))
    checks.append(("verify exit 5", cli.main(["verify", str(path_ok), str(path_g)]) == 5))

    # (d) every solver refuses data violating the identities at 100x tol
    for fn in (hv.solve_polynomial, hv.solve_truncated, hv.solve_factorization):
        with pytest.raises(hv.errors.DataIdentityError):
            fn(crossed)

    failed = [name for name, ok in checks if not ok]
    report_line(6, "negative detection", not failed, f"failed={failed or 'none'}")


def test_criterion_7_contraction_conditions(population):
    bad = []
    for idx, fx in enumerate(population):
        if hv.hankel_norm(fx.g) > CONTRACTION_CUTOFF:
            continue
        rep = hv.check_strict_contraction(fx.data, fx.g)
        app = check_appendix_structure(fx.data, fx.g, 4 * fx.data.m + 4)
        omega_ok = app.entry("omega_positivity_link").verdict == "pass"
        omega1_ok = app.entry("omega1_positive_under_contraction").verdict == "pass"
        if not (rep.passed and omega_ok and omega1_ok):
            bad.append(idx)
    report_line(7, "contraction conditions", not bad, f"violations={bad or 'none'}")


def test_criterion_8_structured_solver_speed():
    rng = np.random.default_rng(512)
    m = 512
    t = np.zeros(m, dtype=complex)
    t[0] = 1.0
    decay = 0.3 ** np.arange(1, m)
    t[1:] = decay * (rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)) / np.sqrt(2)
    rhs = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
    col_blocks = t.reshape(m, 1, 1)
    rhs_blocks = rhs.reshape(m, 1, 1)
    dense = np.tril(t[np.subtract.outer(np.arange(m), np.arange(m))])

    def best_pair(fast, slow, repeats=7):
        """Best times of both calls, timed back to back in each repeat, so a
        host stall slows both sides of one repeat rather than all of one side."""
        fast(), slow()  # warm up
        times = []
        for _ in range(repeats):
            pair = []
            for fn in (fast, slow):
                s = time.perf_counter()
                fn()
                pair.append(time.perf_counter() - s)
            times.append(pair)
        return np.min(times, axis=0)

    t_fast, t_lu = best_pair(
        lambda: hv.tri_toeplitz_solve(col_blocks, rhs_blocks),
        lambda: np.linalg.solve(dense, rhs),
    )
    x_fast = hv.tri_toeplitz_solve(col_blocks, rhs_blocks).reshape(m, 1)
    x_lu = np.linalg.solve(dense, rhs)
    agreement = float(np.max(np.abs(x_fast - x_lu)))
    ratio = t_lu / t_fast
    ok = ratio >= SPEEDUP_FACTOR and agreement <= PERF_AGREEMENT_TOL
    report_line(
        8, "structured solver speed", ok,
        f"speedup={ratio:.1f}x (fast {t_fast*1e3:.2f} ms, lu {t_lu*1e3:.2f} ms) "
        f"agreement={agreement:.2e}",
    )
