"""Command-line front end: files, reports and exit codes."""

import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import hankelinv as hv
from hankelinv import LaurentPoly, cli, diagnostics, io_json, series, structured

from support import trivial_data


@pytest.fixture()
def g_file(tmp_path):
    path = tmp_path / "g.json"
    g = LaurentPoly.single(1, [[0.5]])
    io_json.write_json(path, io_json.poly_to_json(g))
    return str(path)


@pytest.fixture()
def problem_file(tmp_path, g_file):
    path = tmp_path / "problem.json"
    assert cli.main(["synthesize", g_file, str(path)]) == 0
    return str(path)


# -- synthesize ----------------------------------------------------------------


def test_synthesize_zero(tmp_path):
    gpath = tmp_path / "gz.json"
    io_json.write_json(gpath, io_json.poly_to_json(LaurentPoly.zero(1, 1)))
    out = tmp_path / "out.json"
    assert cli.main(["synthesize", str(gpath), str(out)]) == 0
    obj = io_json.read_json(out)
    assert obj["alpha"][0]["mat"] == [[[1.0, 0.0]]]
    assert obj["beta"] == []


def test_synthesize_deg0_values(tmp_path):
    gpath = tmp_path / "gc.json"
    io_json.write_json(gpath, io_json.poly_to_json(LaurentPoly.constant([[0.5]])))
    out = tmp_path / "out.json"
    assert cli.main(["synthesize", str(gpath), str(out)]) == 0
    obj = io_json.read_json(out)
    a0 = complex(*obj["alpha"][0]["mat"][0][0])
    assert abs(a0 - 4.0 / 3.0) < 1e-12


def test_synthesize_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["synthesize", str(bad), str(tmp_path / "o.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_synthesize_failure_exit(tmp_path):
    gpath = tmp_path / "gu.json"
    io_json.write_json(gpath, io_json.poly_to_json(LaurentPoly.constant([[1.0]])))
    assert cli.main(["synthesize", str(gpath), str(tmp_path / "o.json")]) == 3


def test_synthesize_random(tmp_path):
    out = tmp_path / "rand.json"
    rc = cli.main(
        ["synthesize", "--random", "--p", "2", "--q", "1", "--m", "3",
         "--norm", "0.6", "--seed", "9", str(out)]
    )
    assert rc == 0
    data, g, metadata = io_json.problem_from_json(io_json.read_json(out))
    assert metadata["seed"] == 9
    assert hv.verify_solution(data, g).passed


@pytest.mark.parametrize("dims", [("1", "1", "-1"), ("1", "1", "-3"), ("0", "1", "2"), ("2", "0", "2")])
def test_synthesize_random_bad_dimensions(tmp_path, capsys, dims):
    # an empty draw (m < 0) or an empty block (p or q < 1) is refused, not divided by
    out = tmp_path / "bad.json"
    argv = ["synthesize", "--random", "--p", dims[0], "--q", dims[1], "--m", dims[2]]
    assert cli.main(argv + ["--norm", "0.5", str(out)]) == 2
    assert "p, q >= 1 and m >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), "100000000000000000000"])
def test_synthesize_random_seed_out_of_range(tmp_path, capsys, seed):
    # the file records the seed as a JSON integer, which holds 0 .. 2**64 - 1
    out = tmp_path / "seed.json"
    argv = ["synthesize", "--random", "--p", "1", "--q", "1", "--m", "2", "--norm", "0.5"]
    assert cli.main(argv + ["--seed", seed, str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --seed"), err
    assert not out.exists()
    assert cli.main(argv + ["--seed", str(2**64 - 1), str(out)]) == 0
    assert io_json.problem_from_json(io_json.read_json(out))[2]["seed"] == 2**64 - 1


# -- solve ---------------------------------------------------------------------


def test_solve_all_deg1(problem_file, capsys):
    assert cli.main(["solve", problem_file, "--method", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cross_method_gap"] <= 1e-10
    assert set(doc["methods"]) == {"polynomial", "truncated", "factorization"}


def test_solve_single_method(problem_file, capsys):
    assert cli.main(["solve", problem_file, "--method", "poly"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accepted"]
    assert doc["g"]["coeffs"][0]["deg"] == 1


def test_solve_perturbed_refuses(problem_file, tmp_path, capsys):
    data, g, _ = io_json.problem_from_json(io_json.read_json(problem_file))
    bad = hv.DataSet(
        alpha=data.alpha,
        beta=data.beta + LaurentPoly.constant([[1e-3]]),
        gamma=data.gamma,
        delta=data.delta,
    )
    path = tmp_path / "bad.json"
    io_json.write_json(path, io_json.problem_to_json(bad))
    assert cli.main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert "identity_cross" in err


@pytest.mark.parametrize("method", ["poly", "truncated", "factorization", "all"])
def test_singular_corner_refused_by_every_route(tmp_path, capsys, method):
    # alpha = 0 and delta = 1 satisfy the data identities exactly, but the
    # corner a0 = 0 is singular: the shared gate refuses before any solve
    path = tmp_path / "corner.json"
    path.write_text(json.dumps({
        "p": 1, "q": 1, "m": 0,
        "alpha": [{"deg": 0, "mat": [[[0.0, 0.0]]]}], "beta": [],
        "gamma": [], "delta": [{"deg": 0, "mat": [[[1.0, 0.0]]]}],
    }))
    assert cli.main(["solve", str(path), "--method", method]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["refused"] is True
    assert doc["reason"].startswith("corner matrix a0 is numerically singular")


def test_solve_missing_file(tmp_path):
    assert cli.main(["solve", str(tmp_path / "nope.json")]) == 2


def test_undecodable_json_refused(tmp_path, problem_file, capsys):
    # bytes that are not UTF-8, JSON nested deeper than the parser's stack,
    # and an integer past Python's digit limit for int conversion
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text("[" + "1" * 5000 + "]")
    for path in (str(bad), str(deep), str(long_int)):
        assert cli.main(["check", path]) == 2
        assert cli.main(["verify", problem_file, path]) == 2
        assert "cannot read" in capsys.readouterr().err


# -- check / verify / invert ------------------------------------------------------


def test_check_trivial(tmp_path):
    path = tmp_path / "triv.json"
    io_json.write_json(path, io_json.problem_to_json(trivial_data(1, 1)))
    assert cli.main(["check", str(path)]) == 0


def test_check_failing_data(tmp_path):
    data = hv.DataSet(
        alpha=LaurentPoly.from_run(0, [[[1.0]], [[-2.0]]]),
        beta=LaurentPoly.zero(1, 1),
        gamma=LaurentPoly.zero(1, 1),
        delta=LaurentPoly.identity(1),
    )
    path = tmp_path / "bad.json"
    io_json.write_json(path, io_json.problem_to_json(data))
    assert cli.main(["check", str(path)]) == 5


def test_check_overflowing_determinant(tmp_path, capsys):
    # det(alpha) = 1e400 (1 + 0.1 z)^2 overflows a double; a constant factor
    # moves no zero, so the gate still places both zeros at z = -10
    data = hv.DataSet(
        alpha=LaurentPoly.from_run(0, [1e200 * np.eye(2), 1e199 * np.eye(2)]),
        beta=LaurentPoly.zero(2, 1),
        gamma=LaurentPoly.zero(1, 2),
        delta=LaurentPoly.identity(1),
    )
    path = tmp_path / "big.json"
    io_json.write_json(path, io_json.problem_to_json(data))
    assert cli.main(["check", str(path)]) == 5
    verdicts = {e["name"]: e["verdict"] for e in json.loads(capsys.readouterr().out)["entries"]}
    assert verdicts["alpha_det_zeros"] == "pass"
    assert verdicts["delta_det_zeros"] == "pass"


def _big_scalar_file(tmp_path, name, scale, side):
    """alpha = scale (1 - 2.5z + 0.66z^2) or delta = scale (1 - 2.5/z + 0.66/z^2),
    the other one 1, and beta = gamma = 0."""
    run = [[[scale * c]] for c in (1.0, -2.5, 0.66)]
    one, zero = LaurentPoly.identity(1), LaurentPoly.zero(1, 1)
    if side == "alpha":
        alpha, delta = LaurentPoly.from_run(0, run), one
    else:
        alpha, delta = one, LaurentPoly.from_run(-2, run[::-1])
    path = tmp_path / name
    io_json.write_json(path, io_json.problem_to_json(hv.DataSet(alpha, zero, zero, delta)))
    return str(path)


def test_unmeasurable_identity_refused(tmp_path, capsys):
    # delta = 1e160 (1 - 2.5/z + 0.66/z^2): delta* delta overflows, so the
    # identity triple reads (0, NaN, 0); a NaN is not <= 100 tol and is refused,
    # and numpy's overflow warnings stay off stderr
    path = _big_scalar_file(tmp_path, "swap160.json", 1e160, "delta")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", path, "--method", "poly"]) == 4
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["refused"] is True and "identity_d" in doc["reason"]
    assert "RuntimeWarning" not in captured.err


def test_check_below_double_range_exits_cleanly(tmp_path, capsys):
    # alpha = 1e-310 (1 - 2.5z + 0.66z^2) needs a scale of 2**1030: the capped
    # exponent keeps it finite, and the deflation, relative to the normalised
    # symbol, keeps every coefficient, so the zero at |z| = 0.45 fails the gate
    path = _big_scalar_file(tmp_path, "tiny310.json", 1e-310, "alpha")
    assert cli.main(["check", path]) == 5
    captured = capsys.readouterr()
    assert captured.err == ""
    verdicts = {e["name"]: e["verdict"] for e in json.loads(captured.out)["entries"]}
    assert verdicts["alpha_det_zeros"] == "fail"
    assert verdicts["delta_det_zeros"] == "pass"
    # a0 = 1e-310 is below the normal-range floor of the positivity entry
    assert verdicts["a0_positive"] == "fail"


def test_check_subnormal_d0_fails(tmp_path, capsys):
    # alpha = 1, beta = gamma = 0, delta = 1e-310: d0 is below the normal
    # range that every solver's corner gate demands, so check fails it too
    # instead of passing the data without a hankel_norm entry
    one, zero = LaurentPoly.identity(1), LaurentPoly.zero(1, 1)
    data = hv.DataSet(one, zero, zero, LaurentPoly.constant([[1e-310]]))
    path = tmp_path / "d0tiny.json"
    io_json.write_json(path, io_json.problem_to_json(data))
    assert cli.main(["check", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.err == ""
    entries = {e["name"]: e for e in json.loads(captured.out)["entries"]}
    assert entries["d0_positive"]["verdict"] == "fail"
    assert entries["d0_positive"]["threshold"] == -np.finfo(float).tiny
    assert entries["a0_positive"]["verdict"] == "pass"
    assert "hankel_norm" not in entries
    assert cli.main(["solve", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: corner matrix d0 is numerically singular (largest entry below 2.2e-308)\n"
    )


@pytest.mark.parametrize("method", ["poly", "truncated", "factorization", "all"])
def test_solve_below_double_range_refused(tmp_path, capsys, method):
    # a0 = 1e-310 is subnormal: cond(a0) is 1, but the corner gate refuses
    # it before any solve, with one error line and no traceback
    path = _big_scalar_file(tmp_path, "tiny310.json", 1e-310, "alpha")
    assert cli.main(["solve", path, "--method", method]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        "error: corner matrix a0 is numerically singular (largest entry below 2.2e-308)\n"
    )
    assert json.loads(captured.out)["refused"] is True


def _g160_file(tmp_path):
    # g = 1e160 z synthesizes a corner a0 of 1e-320, below the normal
    # double range: its dual triple cannot be measured (NaN, inconclusive)
    path = tmp_path / "g160.json"
    io_json.write_json(path, io_json.poly_to_json(LaurentPoly.single(1, [[1e160]])))
    return str(path)


def test_invert_refuses_subnormal_corner(tmp_path, capsys):
    # synthesis refuses the data whose self-check it cannot measure
    assert cli.main(["invert", _g160_file(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: synthesized data failed its own consistency checks\n"
    )


def test_synthesize_refuses_subnormal_corner(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.main(["synthesize", _g160_file(tmp_path), str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: synthesized data failed its own consistency checks\n"
    )
    assert not out.exists()


def test_invert_nan_residual_fails(monkeypatch, g_file, capsys):
    # a NaN residual compares False with the tolerance; it must not pass
    real = cli.verify_inverse

    def unmeasured(*args):
        return dict(real(*args), m_omega=float("nan"))

    monkeypatch.setattr(cli, "verify_inverse", unmeasured)
    assert cli.main(["invert", g_file]) == 5
    assert capsys.readouterr().err == "error: identity residual nan above tolerance 1.0e-10\n"


def test_invert_inconclusive_window(g_file):
    # a window of N <= m blocks cuts the Hankel supports: no verdict
    assert cli.main(["invert", g_file, "--order", "1"]) == 6


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("command", ["truncated", "all", "invert"])
def test_nonpositive_order_refused(problem_file, g_file, capsys, command, order):
    # a window must retain at least one block; 0 is not "the default"
    if command == "invert":
        argv = ["invert", g_file]
    else:
        argv = ["solve", problem_file, "--method", command]
    assert cli.main(argv + ["--order", order]) == 2
    captured = capsys.readouterr()
    assert "--order" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["truncated", "all", "invert"])
def test_unallocatable_window_refused(tmp_path, g_file, capsys, command):
    # a 10^6-block window needs tens of TiB: a one-line error and exit 2, no traceback
    path = str(tmp_path / "p.json")
    argv = ["synthesize", "--random", "--p", "1", "--q", "1", "--m", "2", "--norm", "0.5"]
    assert cli.main(argv + ["--seed", "1", path]) == 0
    capsys.readouterr()
    argv = ["invert", g_file] if command == "invert" else ["solve", path, "--method", command]
    assert cli.main(argv + ["--order", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["solve", "check", "verify", "invert"])
def test_bad_tol_refused(problem_file, g_file, capsys, command, tol):
    # a tolerance must be a finite positive bound; nan, inf and <= 0 pass or fail everything
    argv = [command, g_file if command == "invert" else problem_file]
    assert cli.main(argv + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("method", ["poly", "factorization"])
def test_order_refused_without_window(problem_file, capsys, method):
    # only the truncated route has a window; an ignored --order is an error
    argv = ["solve", problem_file, "--method", method]
    assert cli.main(argv + ["--order", "3"]) == 2
    captured = capsys.readouterr()
    assert "--order" in captured.err and "truncated" in captured.err
    assert captured.out == ""
    assert cli.main(argv) == 0
    for windowed in ("truncated", "all"):
        assert cli.main(["solve", problem_file, "--method", windowed, "--order", "3"]) == 0


def test_calls_in_one_process_share_no_options(problem_file, capsys):
    # the parser is built once per process; an --order given to one call
    # must not carry over to the next
    assert cli.main(["solve", problem_file, "--method", "truncated", "--order", "3"]) == 0
    assert cli.main(["check", problem_file]) == 0
    capsys.readouterr()
    assert cli.main(["solve", problem_file, "--method", "poly"]) == 0
    captured = capsys.readouterr()
    assert "--order" not in captured.err
    assert json.loads(captured.out)["method"] == "polynomial"
    assert cli.build_parser() is cli.build_parser()


def test_invert_emits_strict_json(tmp_path, capsys):
    # 0.1 + 0.2 z^8 at order 8 leaves undefined residuals, written as null
    gpath = tmp_path / "g8.json"
    g = LaurentPoly.single(0, [[0.1]]) + LaurentPoly.single(8, [[0.2]])
    io_json.write_json(gpath, io_json.poly_to_json(g))
    assert cli.main(["invert", str(gpath), "--order", "8"]) == 6

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert list(doc["lemma_suite"].values()).count(None) == 8


def test_invert_builds_each_window_once(monkeypatch, tmp_path):
    # every structured.build call of one invert, keyed by (kind, symbol, N)
    calls = []
    original = structured.build

    def recording(kind, symbol, n_blocks):
        degs = symbol.degrees()
        key = (symbol.shape, degs, b"".join(symbol.coeff(d).tobytes() for d in degs))
        calls.append((kind, key, n_blocks))
        return original(kind, symbol, n_blocks)

    for name, module in list(sys.modules.items()):
        if name.startswith("hankelinv") and getattr(module, "build", None) is original:
            monkeypatch.setattr(module, "build", recording)
    gpath = tmp_path / "g2.json"
    g = LaurentPoly.single(0, [[0.3]]) + LaurentPoly.single(2, [[0.2]])
    io_json.write_json(gpath, io_json.poly_to_json(g))
    assert cli.main(["invert", str(gpath)]) == 0
    # synthesis and the inverse check both build Omega's window at the
    # default N = m+1: g's HANKEL_PLUS window there is the one key built twice
    key = (g.shape, g.degrees(), b"".join(g.coeff(d).tobytes() for d in g.degrees()))
    twice = (structured.OpKind.HANKEL_PLUS, key, 3)
    assert calls.count(twice) == 2
    assert all(calls.count(c) == 1 for c in calls if c != twice)
    # M is four windows of the two shifted rows; one invert builds at most 12
    assert len(calls) <= 12
    data = hv.synthesize_data(g).data
    calls.clear()
    hv.build_m(data, 5)
    assert len(calls) == 4


def _count_calls(monkeypatch, original, calls):
    """Record the arguments of every call of ``original`` made through any
    hankelinv module that holds it."""

    def recording(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hankelinv"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)


def _random_problem(tmp_path):
    fx = hv.random_fixture(p=2, q=1, m=6, target_norm=0.7, rng_seed=3)
    path = tmp_path / "random.json"
    io_json.write_json(path, io_json.problem_to_json(fx.data))
    return str(path), fx.data


def test_solve_all_computes_shared_quantities_once(monkeypatch, tmp_path):
    # the three routes share one data set: one identity triple, one pair of
    # corner inverses (two np.linalg.inv calls) and one solve per side
    path, _ = _random_problem(tmp_path)
    triples, solves, inverses = [], [], []
    _count_calls(monkeypatch, hv.identity_residual_triple, triples)
    _count_calls(monkeypatch, hv.tri_toeplitz_solve, solves)
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or inv(a))
    assert cli.main(["solve", path, "--method", "all"]) == 0
    assert (len(triples), len(inverses), len(solves)) == (1, 2, 2)


def test_poly_solve_evaluates_the_rows_once(monkeypatch, tmp_path):
    # the identity gate and the inclusions share the rows' values on one
    # grid: one transform of X = [A; z^m C], one of g, and no series product;
    # the route's ledger is the residual tuple, with no CheckReport behind it
    path, data = _random_problem(tmp_path)
    transforms, products, verifies = [], [], []
    values = series.CircleGrid.values
    monkeypatch.setattr(series.CircleGrid, "values",
                        lambda grid, run: transforms.append(run.shape) or values(grid, run))
    _count_calls(monkeypatch, series.lp_mul, products)
    _count_calls(monkeypatch, diagnostics.verify_solution, verifies)
    assert cli.main(["solve", path, "--method", "poly"]) == 0
    p, q, m = data.p, data.q, data.m
    assert transforms == [(m + 1, p + q, p + q), (m + 1, p, q)]
    assert products == []
    assert verifies == []


_COMMANDS = {
    "solve-poly": ["solve", "{problem}", "--method", "poly"],
    "solve-truncated": ["solve", "{problem}", "--method", "truncated"],
    "solve-factorization": ["solve", "{problem}", "--method", "factorization"],
    "solve-all": ["solve", "{problem}", "--method", "all"],
    "check": ["check", "{problem}"],
    "verify": ["verify", "{problem}", "{g}"],
    "synthesize-random": ["synthesize", "--random", "--p", "2", "--q", "1", "--m", "6",
                          "--norm", "0.7", "--seed", "3", "{out}"],
    "synthesize": ["synthesize", "{g}", "{out}"],
    "invert": ["invert", "{g}"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_no_command_multiplies_series(monkeypatch, tmp_path, command):
    # the identities and inclusions are read off one grid per data set and
    # the routes solve on coefficient runs, so no command calls lp_mul
    fx = hv.random_fixture(p=2, q=1, m=6, target_norm=0.7, rng_seed=3)
    paths = {"problem": tmp_path / "random.json", "g": tmp_path / "g.json", "out": tmp_path / "out.json"}
    io_json.write_json(paths["problem"], io_json.problem_to_json(fx.data))
    io_json.write_json(paths["g"], io_json.poly_to_json(fx.g))
    products = []
    _count_calls(monkeypatch, series.lp_mul, products)
    assert cli.main([a.format(**paths) for a in _COMMANDS[command]]) == 0
    assert products == []


def test_exit_code_is_function_of_report():
    from hankelinv.diagnostics import CheckEntry, CheckReport

    passing = CheckReport([CheckEntry("x", 0.0, 1.0, "pass")])
    failing = CheckReport([CheckEntry("x", 2.0, 1.0, "fail"),
                           CheckEntry("y", 0.0, 1.0, "inconclusive")])
    undecided = CheckReport([CheckEntry("x", 0.0, 1.0, "pass"),
                             CheckEntry("y", 0.0, 1.0, "inconclusive")])
    assert cli._check_exit(passing) == 0
    assert cli._check_exit(failing) == 5
    assert cli._check_exit(undecided) == 6


def test_verify_embedded_and_explicit(problem_file, g_file, capsys):
    assert cli.main(["verify", problem_file, g_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(e["value"] <= 1e-12 for e in doc["entries"])
    # the problem file embeds g, so the explicit argument is optional
    assert cli.main(["verify", problem_file]) == 0


def test_verify_wrong_g_fails(problem_file, tmp_path):
    gpath = tmp_path / "wrong.json"
    io_json.write_json(
        gpath, io_json.poly_to_json(LaurentPoly.single(1, [[0.6]]))
    )
    assert cli.main(["verify", problem_file, str(gpath)]) == 5


def test_verify_non_analytic_g_refused(tmp_path):
    # the trivial data, whose one solution is g = 0, against 0.3 at degree -1
    triv = tmp_path / "triv.json"
    args = ["--random", "--p", "1", "--q", "1", "--m", "0", "--norm", "0", "--seed", "1"]
    assert cli.main(["synthesize", *args, str(triv)]) == 0
    gpath = tmp_path / "g.json"
    io_json.write_json(gpath, io_json.poly_to_json(LaurentPoly.single(-1, [[0.3]])))
    assert cli.main(["verify", str(triv), str(gpath)]) == 2


def test_invert(g_file, capsys):
    assert cli.main(["invert", g_file, "--order", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inverse_residuals"]["m_omega"] <= 1e-12
    assert doc["inverse_residuals"]["omega_m"] <= 1e-12
    assert doc["margin"] > 0


# -- serialization round trip -------------------------------------------------------


def test_round_trip_bit_exact(tmp_path):
    fx = hv.random_fixture(p=2, q=3, m=4, target_norm=0.9, rng_seed=2718)
    path = tmp_path / "rt.json"
    io_json.write_json(path, io_json.problem_to_json(fx.data, g=fx.g, metadata={"seed": 2718}))
    data, g, metadata = io_json.problem_from_json(io_json.read_json(path))
    for name in ("alpha", "beta", "gamma", "delta"):
        orig = getattr(fx.data, name)
        back = getattr(data, name)
        assert orig.degrees() == back.degrees()
        for d in orig.degrees():
            assert np.array_equal(orig.coeff(d), back.coeff(d))
    for d in fx.g.degrees():
        assert np.array_equal(fx.g.coeff(d), g.coeff(d))
    assert metadata == {"seed": 2718}


def test_round_trip_small_coefficient(tmp_path):
    g = LaurentPoly.from_run(0, [[[1.0]], [[1e-15]]])
    path = tmp_path / "g.json"
    io_json.write_json(path, io_json.poly_to_json(g))
    back = io_json.poly_from_json(io_json.read_json(path))
    assert back.degrees() == (0, 1)
    assert np.array_equal(back.coeff_run(0, 2), g.coeff_run(0, 2))
    assert io_json.poly_to_json(back) == io_json.poly_to_json(g)


EDGE_DOUBLES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
finite_doubles = st.one_of(
    st.sampled_from(EDGE_DOUBLES),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
).filter(math.isfinite)


@given(st.lists(finite_doubles, min_size=2, max_size=16).filter(lambda v: len(v) % 2 == 0))
@example(EDGE_DOUBLES + [-x for x in EDGE_DOUBLES[2:]] + [1e-05, 0.1])
def test_round_trip_any_finite_double(tmp_path_factory, values):
    # a leading 1 keeps the block stored when every drawn value is a zero;
    # the symbol is written by write_json and, as benchmark problem files
    # are, by the stdlib encoder, and both read back bit for bit
    row = np.array([1.0, 0.0] + values).view(complex).reshape(1, 1, -1)
    g = LaurentPoly.from_run(0, row)
    path = tmp_path_factory.mktemp("doubles") / "g.json"

    def stdlib_dump(path, obj):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, allow_nan=False)

    for write in (io_json.write_json, stdlib_dump):
        write(path, io_json.poly_to_json(g))
        back = io_json.poly_from_json(io_json.read_json(path))
        assert back.coeff_run(0, 1).view(np.uint64).tolist() == row.view(np.uint64).tolist()


def test_round_trip_report(tmp_path, problem_file, capsys):
    cli.main(["solve", problem_file, "--method", "truncated"])
    doc = json.loads(capsys.readouterr().out)
    path = tmp_path / "report.json"
    io_json.write_json(path, doc)
    assert io_json.read_json(path) == doc


def test_problem_file_schema_validation(tmp_path, problem_file, capsys):
    cases = [
        {},  # missing everything
        {"p": 1, "q": 1, "m": 0, "alpha": [], "beta": [], "gamma": []},  # no delta
        {"p": 1, "q": 1, "m": 0, "alpha": [{"deg": 1, "mat": [[[1, 0]]]}],
         "beta": [], "gamma": [], "delta": []},  # alpha degree out of range
        {"p": 0, "q": 1, "m": 0, "alpha": [], "beta": [], "gamma": [], "delta": []},
    ]
    # malformed numbers: beyond double range, a pair of three, a string, a boolean
    for entry in ([10**400, 0], [0.5, 0, 7], ["0.5", 0], [True, 0]):
        cases.append({"p": 1, "q": 1, "m": 0, "alpha": [{"deg": 0, "mat": [[entry]]}],
                      "beta": [], "gamma": [], "delta": []})
    # malformed matrices: a pair of one number, a pair nested one level
    # deeper, NaN and Infinity tokens (which the decoder refuses), a matrix
    # that is a number or an object, and a 2x2 row one pair short
    for mat in ([[[0.5]]], [[[[0.5], [0]]]], [[[float("nan"), 0]]], [[[0, float("inf")]]],
                0.5, {"re": 0.5}):
        cases.append({"p": 1, "q": 1, "m": 0, "alpha": [{"deg": 0, "mat": mat}],
                      "beta": [], "gamma": [], "delta": []})
    cases.append({"p": 2, "q": 1, "m": 0, "alpha": [{"deg": 0, "mat": [[[1, 0], [0, 0]], [[1, 0]]]}],
                  "beta": [], "gamma": [], "delta": []})
    # integer fields given as a boolean, a numeric string or a float, each in
    # an otherwise solvable file (the trivial data set)
    unit = [{"deg": 0, "mat": [[[1, 0]]]}]
    trivial = {"p": 1, "q": 1, "m": 0, "alpha": unit, "beta": [], "gamma": [], "delta": unit}
    for key, value in (("p", True), ("q", "1"), ("m", 1.9), ("p", 1.0)):
        cases.append(dict(trivial, **{key: value}))
    cases.append(dict(trivial, alpha=[{"deg": False, "mat": [[[1, 0]]]}]))
    # integers past 64 bits, which the decoder reads as floats
    cases.append(dict(trivial, m=2**64))
    cases.append(dict(trivial, alpha=[{"deg": 99999999999999999999, "mat": [[[1, 0]]]}]))
    docs = [json.dumps(case).encode() for case in cases]
    # decoder edges: a UTF-8 byte order mark, a byte that is not UTF-8 and a
    # lone surrogate escape, each in an otherwise solvable file
    text = json.dumps(dict(trivial, metadata={"note": "@"})).encode()
    docs += [b"\xef\xbb\xbf" + text, text.replace(b"@", b"\xff"), text.replace(b"@", b"\\ud800")]
    for i, doc in enumerate(docs):
        path = tmp_path / f"case{i}.json"
        path.write_bytes(doc)
        assert cli.main(["solve", str(path)]) == 2, doc
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (doc, err)
    # symbol files that read as g = z/2, which solves problem_file, when a
    # boolean or a string is taken for an integer
    good = {"rows": 1, "cols": 1, "coeffs": [{"deg": 1, "mat": [[[0.5, 0.0]]]}]}
    bad_deg = dict(good, coeffs=[{"deg": True, "mat": [[[0.5, 0.0]]]}])
    for i, case in enumerate([dict(good, rows=True), dict(good, cols="1"), bad_deg]):
        gpath = tmp_path / f"g{i}.json"
        gpath.write_text(json.dumps(case))
        assert cli.main(["verify", problem_file, str(gpath)]) == 2, case


def test_far_apart_degrees_refused_before_allocation(tmp_path, problem_file):
    # a series is stored densely over its span: degrees 0 and 10^9 would
    # ask for 10^9 blocks, so the reader must refuse from the degrees alone;
    # 8x8 blocks at degrees 0 and 65535 (4.2e6 entries) and a 2000x2000
    # corner a0 (4e6 entries) are refused from the header and degrees too
    far = [{"deg": 0, "mat": [[[0.5, 0.0]]]}, {"deg": 10**9, "mat": [[[0.1, 0.0]]]}]
    wide_block = [[[0.1, 0.0]] * 8] * 8
    wide = [{"deg": 0, "mat": wide_block}, {"deg": 65535, "mat": wide_block}]
    cases = [
        ("far.json", {"rows": 1, "cols": 1, "coeffs": far}, ["verify", problem_file]),
        ("wide.json", {"rows": 8, "cols": 8, "coeffs": wide}, ["verify", problem_file]),
        ("corner.json", {"p": 2000, "q": 1, "m": 0, "alpha": [], "beta": [], "gamma": [],
                         "delta": []}, ["solve"]),
    ]
    for name, doc, command in cases:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            assert cli.main(command + [str(path)]) == 2, name
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**7, (name, peak)

    huge_m = io_json.read_json(problem_file)
    huge_m["m"] = 10**9
    ppath = tmp_path / "huge_m.json"
    ppath.write_text(json.dumps(huge_m))
    assert cli.main(["solve", str(ppath)]) == 2


def test_import_does_not_load_scipy():
    code = "import sys, hankelinv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
