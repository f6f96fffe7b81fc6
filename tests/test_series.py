"""Laurent series arithmetic: worked examples and algebraic properties."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hankelinv as hv
from hankelinv import LaurentPoly
from hankelinv.errors import ShapeError
from hankelinv.series import CircleGrid

from conftest import random_poly
from support import lp_det_cofactor, plus_part

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def polys(draw, rows=None, cols=None, min_deg=-2, max_deg=2):
    rows = rows if rows is not None else draw(st.integers(1, 2))
    cols = cols if cols is not None else draw(st.integers(1, 2))
    degs = draw(st.lists(st.integers(min_deg, max_deg), max_size=3, unique=True))
    lo = min(degs, default=0)
    run = np.zeros((max(degs, default=lo - 1) - lo + 1, rows, cols), dtype=complex)
    for d in degs:
        flat = draw(
            st.lists(st.tuples(finite, finite), min_size=rows * cols, max_size=rows * cols)
        )
        run[d - lo] = np.array([complex(a, b) for a, b in flat]).reshape(rows, cols)
    return LaurentPoly.from_run(lo, run)


@st.composite
def poly_chain(draw, length=3):
    dims = [draw(st.integers(1, 2)) for _ in range(length + 1)]
    return tuple(draw(polys(dims[i], dims[i + 1])) for i in range(length))


# -- multiplication -----------------------------------------------------------


def test_mul_identity_symbol(rng):
    f = random_poly(rng, 2, 3, (-1, 0, 2))
    e = LaurentPoly.identity(2)
    assert hv.poly_gap(e * f, f) == 0.0


def test_mul_scalar_expansion():
    one_plus = LaurentPoly.from_run(0, [[[1]], [[1]]])
    one_minus = LaurentPoly.from_run(0, [[[1]], [[-1]]])
    prod = one_plus * one_minus
    assert prod.degrees() == (0, 2)
    assert prod.coeff(0)[0, 0] == 1
    assert prod.coeff(2)[0, 0] == -1


def test_mul_fixture_identity(deg1_fixture):
    # alpha* alpha - gamma* gamma is the constant a0 for consistent data
    d = deg1_fixture.data
    out = d.alpha.adjoint() * d.alpha - d.gamma.adjoint() * d.gamma
    assert out.degrees() == (0,)
    assert abs(out.coeff(0)[0, 0] - 4.0 / 3.0) < 1e-13


def test_mul_shape_mismatch():
    with pytest.raises(ShapeError):
        hv.lp_mul(LaurentPoly.identity(2), LaurentPoly.identity(3))


def test_mul_operands_are_strict(rng):
    # a 1x1 series is a 1x1 matrix, not a scalar, and only numbers are promoted
    f = random_poly(rng, 2, 3, (0, 1))
    with pytest.raises(ShapeError):
        LaurentPoly.single(1, [[1.0]]) * f
    for other in (np.eye(2), 1.0):
        with pytest.raises(TypeError):
            other + f
        with pytest.raises(TypeError):
            f - other
    with pytest.raises(TypeError):
        np.eye(2) * f
    assert hv.poly_gap(2.0 * f, f * 2.0) == 0.0


@given(poly_chain())
def test_mul_associative(chain):
    f, g, h = chain
    lhs = (f * g) * h
    rhs = f * (g * h)
    scale = 1.0 + f.sup_norm() * g.sup_norm() * h.sup_norm()
    assert hv.poly_gap(lhs, rhs) <= 1e-13 * scale


def reference_mul(f, g):
    """Direct Cauchy convolution over the stored degrees: each stored
    coefficient of f times every stored coefficient of g, summed in place."""
    f_degs, g_degs = f.degrees(), np.array(g.degrees(), dtype=int)
    if not f_degs or not g_degs.size:
        return LaurentPoly.zero(f.rows, g.cols)
    g_coeffs = np.array([g.coeff(d) for d in g_degs])
    lo = f_degs[0] + g_degs[0]
    run = np.zeros((f_degs[-1] + g_degs[-1] - lo + 1, f.rows, g.cols), dtype=complex)
    for df in f_degs:
        run[df + g_degs - lo] += f.coeff(df) @ g_coeffs
    return LaurentPoly.from_run(lo, run)


def assert_matches_reference(f, g):
    """f * g has the reference's shape and support, and its values up to
    round-off of the order eps |f| |g| times the shorter width."""
    expect = reference_mul(f, g)
    prod = f * g
    assert prod.shape == expect.shape
    assert prod.degrees() == expect.degrees()
    scale = 1.0 + f.sup_norm() * g.sup_norm() * min(f.width(), g.width())
    assert hv.poly_gap(prod, expect) <= 1e-14 * scale


@st.composite
def gapped_poly(draw, rows, cols):
    """A series of width up to 40 whose support may have interior gaps."""
    lo = draw(st.integers(-20, 20))
    degs = draw(st.sets(st.integers(lo, lo + 39), max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_poly(rng, rows, cols, sorted(degs))


@st.composite
def mul_pair(draw):
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    return draw(gapped_poly(r, k)), draw(gapped_poly(k, c))


@given(mul_pair())
def test_mul_matches_reference_convolution(pair):
    assert_matches_reference(*pair)


@pytest.mark.parametrize("short", [1, 4, 5, 12])
@pytest.mark.parametrize("r,k,c", [(1, 1, 1), (3, 2, 3)])
def test_mul_short_and_wide_operands(short, r, k, c):
    # a short operand against a 33-block one, in both operand orders, so
    # that the shift-sum loop runs over a short and over a wide factor
    rng = np.random.default_rng(short)
    narrow = random_poly(rng, r, k, range(-3, short - 3))
    wide = random_poly(rng, k, c, range(5, 38))
    assert_matches_reference(narrow, wide)
    assert_matches_reference(wide.adjoint(), narrow.adjoint())


@pytest.mark.parametrize("r,k,c,width", [(3, 3, 3, 257), (1, 2, 1, 1025)])
def test_mul_wide_operands(r, k, c, width):
    rng = np.random.default_rng(width)
    f = random_poly(rng, r, k, range(-width // 2, width - width // 2))
    g = random_poly(rng, k, c, range(width))
    assert_matches_reference(f, g)


def test_mul_wide_gaps_stay_exactly_zero():
    rng = np.random.default_rng(7)
    f = random_poly(rng, 2, 3, (0, 40, 80))
    g = random_poly(rng, 3, 2, range(31))
    prod = f * g
    assert_matches_reference(f, g)
    reach = [d for d in range(111) if d <= 30 or 40 <= d <= 70 or d >= 80]
    assert prod.degrees() == tuple(reach)
    for gap in (range(31, 40), range(71, 80)):
        assert not prod.coeff_run(gap.start, len(gap)).any()


@pytest.mark.parametrize("width", [5, 33, 257])
def test_mul_integer_coefficients_exact(width):
    # a product rounds like the block products it sums, so small integer
    # coefficients multiply exactly at any width
    rng = np.random.default_rng(width)
    a = rng.integers(-8, 9, size=(width, 3, 2))
    b = rng.integers(-8, 9, size=(width, 2, 3))
    exact = np.zeros((2 * width - 1, 3, 3), dtype=np.int64)
    for i in range(width):
        exact[i : i + width] += a[i] @ b
    prod = LaurentPoly.from_run(-2, a) * LaurentPoly.from_run(1, b)
    expect = LaurentPoly.from_run(-1, exact)
    assert prod.degrees() == expect.degrees()
    assert hv.poly_gap(prod, expect) == 0.0


def test_mul_overflow_raises():
    big = LaurentPoly.constant([[1e200]])
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        big * big


@st.composite
def mul_add_triple(draw):
    a, b, c = (draw(st.integers(1, 2)) for _ in range(3))
    return draw(polys(a, b)), draw(polys(b, c)), draw(polys(b, c))


@given(mul_add_triple())
def test_mul_distributive(triple):
    f, g, h = triple
    scale = 1.0 + f.sup_norm() * (g.sup_norm() + h.sup_norm())
    assert hv.poly_gap(f * (g + h), f * g + f * h) <= 1e-13 * scale


# -- adjoint ------------------------------------------------------------------


def test_adjoint_shift():
    lam_eye = LaurentPoly.single(1, np.eye(3))
    adj = lam_eye.adjoint()
    assert adj.degrees() == (-1,)
    assert np.allclose(adj.coeff(-1), np.eye(3))


def test_adjoint_hermitian_constant():
    h = np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]])
    f = LaurentPoly.constant(h)
    assert hv.poly_gap(f.adjoint(), f) == 0.0


@given(polys())
def test_adjoint_involution(f):
    assert hv.poly_gap(f.adjoint().adjoint(), f) == 0.0


@given(poly_chain(length=2))
def test_adjoint_antihomomorphism(pair):
    f, g = pair
    scale = 1.0 + f.sup_norm() * g.sup_norm()
    assert hv.poly_gap((f * g).adjoint(), g.adjoint() * f.adjoint()) <= 1e-13 * scale


def test_adjoint_swaps_subspaces(rng):
    f = random_poly(rng, 2, 2, (1, 3))
    assert f.lo == 1 and f.is_plus
    fs = f.adjoint()
    assert fs.hi == -1 and fs.is_minus


# -- support classes ---------------------------------------------------------


def test_project_factorization_example(deg1_fixture):
    # the plus part of alpha^-* gamma* is minus the generating symbol
    d = deg1_fixture.data
    a_adj_inv = LaurentPoly.constant(np.linalg.inv(d.alpha.adjoint().coeff(0)))
    prod = plus_part(a_adj_inv * d.gamma.adjoint())
    assert hv.poly_gap(prod, -deg1_fixture.g) < 1e-13


@given(polys())
def test_support_classes_match_coefficients(f):
    # polys() draws degrees -2..2: plus means nothing at -2, -1, minus nothing at 1, 2
    assert f.is_plus == (not f.coeff_run(-2, 2).any())
    assert f.is_minus == (not f.coeff_run(1, 2).any())


@pytest.mark.parametrize(
    "degree, plus, minus", [(None, True, True), (-1, False, True), (0, True, True), (1, True, False)]
)
def test_support_classes_examples(degree, plus, minus):
    f = LaurentPoly.zero(2, 1) if degree is None else LaurentPoly.single(degree, [[1.0], [0.0]])
    assert (f.is_plus, f.is_minus) == (plus, minus)


# -- values on the circle -----------------------------------------------------


def value_at(f, z):
    """The matrix sum of f's coefficients times z**degree."""
    return sum((f.coeff(d) * z**d for d in f.degrees()), np.zeros(f.shape))


def test_eval_homomorphism(rng):
    f = random_poly(rng, 2, 2, (-2, 0, 1))
    g = random_poly(rng, 2, 2, (-1, 2))
    for _ in range(20):
        z = np.exp(2j * np.pi * rng.random())
        assert np.allclose(value_at(f * g, z), value_at(f, z) @ value_at(g, z), atol=1e-12)


# f's degrees, g's degrees, and the first degree and length of the window
# read back from a 20-point grid
GRID_WINDOWS = [
    ((0, 4), (-3, -2), -6, 10),  # starts below degree 0
    ((10, 11, 16), (0, 5), 14, 10),  # crosses L: degrees 20..23 sit at 0..3
    ((-2, 0, 3), (-4, 1, 2), -10, 20),  # spans all L points
]


@pytest.mark.parametrize("f_degs,g_degs,lo,count", GRID_WINDOWS)
def test_grid_coeffs_match_block_convolution(rng, f_degs, g_degs, lo, count):
    grid = CircleGrid(20)
    assert grid.size == 20
    f, g = random_poly(rng, 2, 3, f_degs), random_poly(rng, 3, 2, g_degs)
    points = np.exp(-2j * np.pi * np.arange(grid.size) / grid.size)
    values = np.array([value_at(f, z) @ value_at(g, z) for z in points])
    supports = [(h.lo, h.coeff_run(h.lo, h.width()).any(axis=(1, 2))) for h in (f, g)]
    got = grid.coeffs(values, lo, count, *supports)
    assert got.shape == (count, 2, 2)
    want = np.zeros_like(got)
    for i in f.degrees():
        for j in g.degrees():
            if lo <= i + j < lo + count:
                want[i + j - lo] += f.coeff(i) @ g.coeff(j)
    sums = [i + j for i in f.degrees() for j in g.degrees()]
    reached = np.isin(np.arange(lo, lo + count), sums)
    assert reached.any() and not reached.all()
    # degrees no pair of support degrees sums to come back exactly zero
    assert not got[~reached].any()
    assert np.max(np.abs(got - want)) <= 1e-12


# -- determinant --------------------------------------------------------------


def test_det_scalar_passthrough(rng):
    f = random_poly(rng, 1, 1, (-1, 0, 2))
    assert hv.poly_gap(f.det(), f) == 0.0


def test_det_block_diagonal(rng):
    f1 = random_poly(rng, 1, 1, (0, 1))
    f2 = random_poly(rng, 1, 1, (-1, 0))
    run = np.zeros((3, 2, 2), dtype=complex)  # degrees -1..1
    run[:, 0, 0] = f1.coeff_run(-1, 3)[:, 0, 0]
    run[:, 1, 1] = f2.coeff_run(-1, 3)[:, 0, 0]
    diag = LaurentPoly.from_run(-1, run)
    assert hv.poly_gap(diag.det(), f1 * f2) < 1e-12


def test_det_antidiagonal_example():
    f = LaurentPoly.from_run(0, [np.eye(2), [[0, 1], [1, 0]]])
    det = f.det()
    expect = LaurentPoly.single(0, [[1]]) + LaurentPoly.single(2, [[-1]])
    assert hv.poly_gap(det, expect) < 1e-12


def test_det_nonsquare():
    with pytest.raises(ShapeError):
        LaurentPoly.zero(2, 3).det()


@given(polys(rows=2, cols=2))
def test_det_matches_cofactor(f):
    scale = 1.0 + f.sup_norm() ** 2
    assert hv.poly_gap(f.det(), lp_det_cofactor(f)) <= 1e-10 * scale


def test_det_matches_cofactor_3x3(rng):
    inputs = [random_poly(rng, 3, 3, (-1, 0, 1)) for _ in range(5)]
    inputs.append(random_poly(rng, 3, 3, range(-4, 6)))  # width 10
    for f in inputs:
        assert hv.poly_gap(f.det(), lp_det_cofactor(f)) <= 1e-10 * (1 + f.sup_norm() ** 3)


# -- representation invariants ------------------------------------------------


def test_canonical_form_keeps_small_trims_zero_ends():
    # a tiny coefficient is a value like any other; only exact zeros at the ends go
    f = LaurentPoly.single(0, [[1.0]]) + LaurentPoly.single(5, [[1e-15]])
    assert f.degrees() == (0, 5)
    assert f.coeff(5)[0, 0] == 1e-15
    g = LaurentPoly.from_run(-2, [[[0.0]], [[0.0]], [[1e-300]], [[0.0]], [[2.0]], [[0.0]]])
    assert (g.lo, g.hi, g.width()) == (0, 2, 3)
    assert g.degrees() == (0, 2)
    assert (f - f).is_zero


def test_direct_construction_refused():
    with pytest.raises(TypeError, match="from_run"):
        LaurentPoly(1, 1, {})


def test_single_takes_a_matrix():
    # a number is not promoted to a 1x1 coefficient
    with pytest.raises(ShapeError):
        LaurentPoly.single(0, 0.5)


def test_immutability():
    f = LaurentPoly.identity(2)
    with pytest.raises(AttributeError):
        f.rows = 3
    with pytest.raises(ValueError):
        f.coeff(0)[0, 0] = 5.0


def test_copy_and_pickle_round_trip(rng):
    f = random_poly(rng, 2, 3, (-2, 0, 1))
    dumps = [lambda x, proto=proto: pickle.loads(pickle.dumps(x, protocol=proto))
             for proto in (0, pickle.HIGHEST_PROTOCOL)]
    for series in (f, LaurentPoly.zero(2, 3)):
        lo, width = (0, 0) if series.is_zero else (series.lo, series.width())
        for clone in [copy.copy, copy.deepcopy] + dumps:
            back = clone(series)
            assert back.shape == series.shape and back.width() == width
            if width:
                assert back.lo == lo == -2
            run = back.coeff_run(lo, width)
            assert np.array_equal(run, series.coeff_run(lo, width)) and not run.flags.writeable
            assert hv.poly_gap(back, series) == 0.0


def test_fixture_copies_solve():
    fx = hv.random_fixture(2, 2, 3, 0.8, 5)
    want = hv.solve_polynomial(fx.data).g
    for back in (copy.deepcopy(fx), pickle.loads(pickle.dumps(fx))):
        assert hv.poly_gap(back.g, fx.g) == 0.0
        assert hv.poly_gap(hv.solve_polynomial(back.data).g, want) == 0.0


def test_derived_coefficients_read_only(rng):
    f = random_poly(rng, 2, 3, (-1, 0, 2))
    g = random_poly(rng, 3, 2, (0, 3))
    for derived in (f.shifted(2), f.adjoint(), f * g, g * f):
        for d in derived.degrees():
            with pytest.raises(ValueError):
                derived.coeff(d)[0, 0] = 5.0


def test_coeff_run_refuses_negative_count():
    f = LaurentPoly.from_run(0, np.arange(1, 6).reshape(5, 1, 1))
    for start in (0, 2, -1, 7):  # inside and outside the support
        with pytest.raises(ShapeError):
            f.coeff_run(start, -1)
        assert f.coeff_run(start, 0).shape == (0, 1, 1)


def test_coefficient_runs_in_and_out(rng):
    f = random_poly(rng, 2, 3, (-1, 0, 2))
    # a run wider than the support is zero-padded on both sides and read-only
    run = f.coeff_run(-3, 8)
    assert run.shape == (8, 2, 3) and not run.flags.writeable
    for k in range(8):
        assert np.array_equal(run[k], f.coeff(k - 3))
    with pytest.raises(ValueError):
        f.coeff_run(0, 2)[0, 0, 0] = 5.0
    # the padded run reads back as the same series; the input is copied
    source = np.array(run)
    back = LaurentPoly.from_run(-3, source)
    source[:] = 7.0
    assert back.degrees() == f.degrees() and hv.poly_gap(back, f) == 0.0
    with pytest.raises(ShapeError):
        LaurentPoly.from_run(0, np.eye(2))
    with pytest.raises(ValueError):
        LaurentPoly.from_run(0, np.full((1, 1, 1), np.nan))
