"""Windows of Toeplitz/Hankel operators and the operator calculus."""

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import LaurentPoly, OpKind
from hankelinv.errors import ShapeError
from hankelinv.structured import hankel_shift_intertwine_residuals

from conftest import random_poly


# -- build --------------------------------------------------------------------


def test_build_constant_toeplitz():
    r0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    op = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.constant(r0), 3)
    assert np.allclose(op.dense, np.kron(np.eye(3), r0))


def test_build_shifted_identity_toeplitz():
    op = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(2)), 3)
    expect = np.kron(np.diag(np.ones(2), -1), np.eye(2))
    assert np.allclose(op.dense, expect)


def test_build_hankel_corner():
    op = hv.build(OpKind.HANKEL_PLUS, LaurentPoly.constant([[0.5]]), 2)
    expect = np.array([[0.0, 0.5], [0.0, 0.0]])
    assert np.allclose(op.dense, expect)


def test_build_hankel_minus_corner():
    op = hv.build(OpKind.HANKEL_MINUS, LaurentPoly.constant([[0.5]]), 2)
    expect = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert np.allclose(op.dense, expect)


def test_build_shifts():
    sp = hv.build(OpKind.SHIFT_PLUS, 1, 3).dense
    sm = hv.build(OpKind.SHIFT_MINUS, 1, 3).dense
    assert np.allclose(sp, np.diag(np.ones(2), -1))
    assert np.allclose(sm, np.diag(np.ones(2), 1))


def test_build_margin_flags():
    sym = LaurentPoly(1, 1, {k: [[1.0]] for k in range(5)})
    op = hv.build(OpKind.TOEPLITZ_PLUS, sym, 3)
    assert op.window.margin == 0
    assert not op.window.conclusive


def _loop_fill(kind, symbol, N):
    """Reference window: each coefficient copied onto its block diagonal."""
    anchor = {
        OpKind.TOEPLITZ_PLUS: 0,
        OpKind.TOEPLITZ_MINUS: 0,
        OpKind.HANKEL_PLUS: -(N - 1),
        OpKind.HANKEL_MINUS: N - 1,
    }[kind]
    br, bc = symbol.shape
    dense = np.zeros((N * br, N * bc), dtype=complex)
    for deg in symbol.degrees():
        offset = deg + anchor
        if abs(offset) > N - 1:
            continue
        j0 = max(0, -offset)
        for t in range(N - abs(offset)):
            i, j = j0 + offset + t, j0 + t
            dense[i * br : (i + 1) * br, j * bc : (j + 1) * bc] = symbol.coeff(deg)
    return dense


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2)])
def test_build_matches_loop_fill(rng, shape):
    supports = [
        [0],
        [0, 3, 4, 7],        # interior gaps
        [-6, -2, 0],
        [-3, -1, 2, 5],      # both sides of degree 0
        [2, 9],              # no degree 0
        [-11, -4],
    ]
    kinds = (OpKind.TOEPLITZ_PLUS, OpKind.TOEPLITZ_MINUS, OpKind.HANKEL_PLUS, OpKind.HANKEL_MINUS)
    for degrees in supports:
        sym = random_poly(rng, *shape, degrees)
        for N in (1, 2, 3, 5, 8, 13):
            for kind in kinds:
                dense = hv.build(kind, sym, N).dense
                assert dense.flags.writeable
                assert np.array_equal(dense, _loop_fill(kind, sym, N)), (degrees, N, kind)
    for kind in kinds:
        assert not hv.build(kind, LaurentPoly.zero(*shape), 4).dense.any()


def test_build_rejects_empty_window(rng):
    with pytest.raises(ShapeError):
        hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.identity(1), 0)


# -- apply_column ---------------------------------------------------------------


def test_apply_identity_toeplitz(rng):
    op = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.identity(2), 4)
    blocks = [rng.standard_normal((2, 1)) for _ in range(4)]
    out = hv.apply_column(op, blocks)
    for got, want in zip(out, blocks):
        assert np.allclose(got, want)


def test_apply_hankel_unit(deg0_fixture):
    # H+(g) applied to the minus unit column returns g's coefficient column
    op = hv.build(OpKind.HANKEL_PLUS, deg0_fixture.g, 2)
    blocks = [np.zeros((1, 1)), np.eye(1)]
    out = hv.apply_column(op, blocks)
    assert abs(out[0][0, 0] - 0.5) < 1e-15
    assert abs(out[1][0, 0]) < 1e-15


def test_apply_omega_columns(deg0_fixture):
    # the defining equations: [I H; H* I] [a; c] = [unit; 0]
    d = deg0_fixture.data
    N = 3
    hp = hv.build(OpKind.HANKEL_PLUS, deg0_fixture.g, N)
    hm = hv.build(OpKind.HANKEL_MINUS, deg0_fixture.g.adjoint(), N)
    a_blocks = [d.alpha.coeff(j) for j in range(N)]
    c_blocks = [d.gamma.coeff(j - (N - 1)) for j in range(N)]
    top = [a + h for a, h in zip(a_blocks, hv.apply_column(hp, c_blocks))]
    bottom = [h + c for h, c in zip(hv.apply_column(hm, a_blocks), c_blocks)]
    assert abs(top[0][0, 0] - 1.0) < 1e-13
    assert all(abs(b[0, 0]) < 1e-13 for b in top[1:])
    assert all(abs(b[0, 0]) < 1e-13 for b in bottom)


def test_apply_column_shape_checks():
    op = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.identity(2), 3)
    with pytest.raises(ShapeError):
        hv.apply_column(op, [np.zeros((2, 1))] * 2)
    with pytest.raises(ShapeError):
        hv.apply_column(op, [np.zeros((3, 1))] * 3)


# -- product rules --------------------------------------------------------------


def test_product_rules_constants(rng):
    rho = LaurentPoly.constant(rng.standard_normal((2, 2)))
    phi = LaurentPoly.constant(rng.standard_normal((2, 2)))
    rep = hv.check_product_rules(rho, phi, 5)
    assert all(v < 1e-14 for v in rep["residuals"].values())


def test_product_rules_plus_symbols(rng):
    rho = random_poly(rng, 2, 2, (0, 1, 2))
    phi = random_poly(rng, 2, 1, (0, 2))
    rep = hv.check_product_rules(rho, phi, 8)
    assert rep["window"].margin > 0
    assert all(v <= 1e-12 for v in rep["residuals"].values())


def test_product_rules_two_sided(rng):
    rho = random_poly(rng, 2, 2, (-2, 0, 1))
    phi = random_poly(rng, 2, 2, (-1, 1, 2))
    rep = hv.check_product_rules(rho, phi, 12)
    assert rep["window"].margin == 12 - 4 - 4
    assert all(v <= 1e-12 for v in rep["residuals"].values())


def test_product_rules_inconclusive_margin(rng):
    rho = random_poly(rng, 1, 1, (-3, 3))
    phi = random_poly(rng, 1, 1, (-3, 3))
    rep = hv.check_product_rules(rho, phi, 4)
    assert rep["inconclusive"]


def test_shift_relations(rng):
    rho = random_poly(rng, 2, 3, (-2, 0, 1))
    rep = hv.check_shift_relations(rho, 8)
    assert all(v <= 1e-13 for v in rep["residuals"].values())


def test_hankel_shift_intertwine(rng):
    rho = random_poly(rng, 2, 2, (-2, -1, 0, 1, 2))
    res = hankel_shift_intertwine_residuals(rho, 7)
    assert res["plus"] <= 1e-13
    assert res["minus"] <= 1e-13


# -- adjoint and diagonal rules ---------------------------------------------------


def test_adjoint_relations(rng):
    rho = random_poly(rng, 2, 3, (-1, 0, 2))
    N = 6
    tp = hv.build(OpKind.TOEPLITZ_PLUS, rho, N).dense
    tp_star = hv.build(OpKind.TOEPLITZ_PLUS, rho.adjoint(), N).dense
    assert np.allclose(tp.conj().T, tp_star)

    tm = hv.build(OpKind.TOEPLITZ_MINUS, rho, N).dense
    tm_star = hv.build(OpKind.TOEPLITZ_MINUS, rho.adjoint(), N).dense
    assert np.allclose(tm.conj().T, tm_star)

    hp = hv.build(OpKind.HANKEL_PLUS, rho, N).dense
    hm_star = hv.build(OpKind.HANKEL_MINUS, rho.adjoint(), N).dense
    assert np.allclose(hp.conj().T, hm_star)


def test_diagonal_absorption(rng):
    # building with the symbol times r0 equals composing with the diagonal
    rho = random_poly(rng, 2, 2, (-1, 0, 1))
    r0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    N = 5
    for kind in (OpKind.TOEPLITZ_PLUS, OpKind.TOEPLITZ_MINUS, OpKind.HANKEL_PLUS, OpKind.HANKEL_MINUS):
        lhs = hv.build(kind, rho * LaurentPoly.constant(r0), N).dense
        delta = hv.build(OpKind.DIAG_DELTA, r0, N).dense
        rhs = hv.build(kind, rho, N).dense @ delta
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_window_margin_formula(rng):
    sym = random_poly(rng, 1, 1, (-1, 2))
    assert hv.margin_for(10, sym) == 10 - 4
    assert hv.margin_for(3, sym) == 0
    assert hv.margin_for(5, sym, sym) == 0
