"""Windows of Toeplitz/Hankel operators and the operator calculus."""

import numpy as np
import pytest

import hankelinv as hv
from hankelinv import LaurentPoly, OpKind
from hankelinv.errors import ShapeError

from conftest import random_poly
from support import (
    check_product_rules,
    check_shift_relations,
    hankel_shift_intertwine_residuals,
    margin_for,
)


# -- build --------------------------------------------------------------------


def test_build_constant_toeplitz():
    r0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    dense = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.constant(r0), 3)
    assert np.allclose(dense, np.kron(np.eye(3), r0))


def test_build_shifted_identity_toeplitz():
    dense = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(2)), 3)
    expect = np.kron(np.diag(np.ones(2), -1), np.eye(2))
    assert np.allclose(dense, expect)


def test_build_hankel_corner():
    dense = hv.build(OpKind.HANKEL_PLUS, LaurentPoly.constant([[0.5]]), 2)
    expect = np.array([[0.0, 0.5], [0.0, 0.0]])
    assert np.allclose(dense, expect)


def test_build_hankel_minus_corner():
    dense = hv.build(OpKind.HANKEL_MINUS, LaurentPoly.constant([[0.5]]), 2)
    expect = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert np.allclose(dense, expect)


def test_build_shifts():
    # S+ = T+(z I) puts I on the block subdiagonal, S- = T-(I/z) on the superdiagonal
    for n in (1, 3):
        for N in (1, 3, 5):
            sp = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.single(1, np.eye(n)), N)
            sm = hv.build(OpKind.TOEPLITZ_MINUS, LaurentPoly.single(-1, np.eye(n)), N)
            assert np.array_equal(sp, np.eye(N * n, k=-n))
            assert np.array_equal(sm, np.eye(N * n, k=n))


def test_build_margin_flags():
    # a window narrower than the support is built, with no exact margin
    sym = LaurentPoly.from_run(0, np.ones((5, 1, 1)))
    dense = hv.build(OpKind.TOEPLITZ_PLUS, sym, 3)
    assert np.array_equal(dense, np.tril(np.ones((3, 3))))
    assert margin_for(3, sym) == 0


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
                dense = hv.build(kind, sym, N)
                assert dense.flags.writeable
                assert np.array_equal(dense, _loop_fill(kind, sym, N)), (degrees, N, kind)
    for kind in kinds:
        assert not hv.build(kind, LaurentPoly.zero(*shape), 4).any()


def test_build_rejects_empty_window(rng):
    with pytest.raises(ShapeError):
        hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.identity(1), 0)


# -- windows applied to block columns ---------------------------------------------


def test_apply_identity_toeplitz(rng):
    dense = hv.build(OpKind.TOEPLITZ_PLUS, LaurentPoly.identity(2), 4)
    col = rng.standard_normal((8, 1))
    assert np.allclose(dense @ col, col)


def test_apply_hankel_unit(deg0_fixture):
    # H+(g) applied to the minus unit column returns g's coefficient column
    dense = hv.build(OpKind.HANKEL_PLUS, deg0_fixture.g, 2)
    out = dense @ np.array([[0.0], [1.0]])
    assert abs(out[0, 0] - 0.5) < 1e-15
    assert abs(out[1, 0]) < 1e-15


def test_apply_omega_columns(deg0_fixture):
    # the defining equations: [I H; H* I] [a; c] = [unit; 0]
    d = deg0_fixture.data
    N = 3
    hp = hv.build(OpKind.HANKEL_PLUS, deg0_fixture.g, N)
    hm = hv.build(OpKind.HANKEL_MINUS, deg0_fixture.g.adjoint(), N)
    a_col = d.alpha.coeff_run(0, N).reshape(N, 1)
    c_col = d.gamma.coeff_run(1 - N, N).reshape(N, 1)
    top = a_col + hp @ c_col
    bottom = hm @ a_col + c_col
    assert abs(top[0, 0] - 1.0) < 1e-13
    assert np.all(np.abs(top[1:]) < 1e-13)
    assert np.all(np.abs(bottom) < 1e-13)


# -- product rules --------------------------------------------------------------


def test_product_rules_constants(rng):
    rho = LaurentPoly.constant(rng.standard_normal((2, 2)))
    phi = LaurentPoly.constant(rng.standard_normal((2, 2)))
    rep = check_product_rules(rho, phi, 5)
    assert all(v < 1e-14 for v in rep["residuals"].values())


def test_product_rules_plus_symbols(rng):
    rho = random_poly(rng, 2, 2, (0, 1, 2))
    phi = random_poly(rng, 2, 1, (0, 2))
    rep = check_product_rules(rho, phi, 8)
    assert rep["margin"] > 0
    assert all(v <= 1e-12 for v in rep["residuals"].values())


def test_product_rules_two_sided(rng):
    rho = random_poly(rng, 2, 2, (-2, 0, 1))
    phi = random_poly(rng, 2, 2, (-1, 1, 2))
    rep = check_product_rules(rho, phi, 12)
    assert rep["margin"] == 12 - 4 - 4
    assert all(v <= 1e-12 for v in rep["residuals"].values())


def test_product_rules_inconclusive_margin(rng):
    rho = random_poly(rng, 1, 1, (-3, 3))
    phi = random_poly(rng, 1, 1, (-3, 3))
    rep = check_product_rules(rho, phi, 4)
    assert rep["inconclusive"]


def test_shift_relations(rng):
    rho = random_poly(rng, 2, 3, (-2, 0, 1))
    rep = check_shift_relations(rho, 8)
    assert all(v <= 1e-13 for v in rep["residuals"].values())


def test_hankel_shift_intertwine(rng):
    rho = random_poly(rng, 2, 2, (-2, -1, 0, 1, 2))
    res = hankel_shift_intertwine_residuals(rho, 7)
    assert res["plus"] <= 1e-13
    assert res["minus"] <= 1e-13


# -- adjoint and diagonal rules ---------------------------------------------------


def test_adjoint_relations(rng):
    # T+(f*) = T+(f)*, T-(f*) = T-(f)*, H+(f*) = H-(f)* and H-(f*) = H+(f)*
    # hold entry for entry, also on windows narrower than the support
    tp, tm, hp, hm = OpKind.TOEPLITZ_PLUS, OpKind.TOEPLITZ_MINUS, OpKind.HANKEL_PLUS, OpKind.HANKEL_MINUS
    pairs = [(tp, tp), (tm, tm), (hp, hm), (hm, hp)]
    for degrees in ((0, 1, 3), (1, 2, 5), (-3, -1, 0, 2), (-1, 0, 2)):
        for rows, cols in ((1, 1), (2, 3), (3, 2), (2, 2)):
            f = random_poly(rng, rows, cols, degrees)
            for N in (1, 2, 3, 6, 9, 20):
                for star_kind, kind in pairs:
                    got = hv.build(star_kind, f.adjoint(), N)
                    assert np.array_equal(got, hv.build(kind, f, N).conj().T), (degrees, rows, cols, N)


def test_diagonal_absorption(rng):
    # building with the symbol times r0 equals composing with the diagonal
    rho = random_poly(rng, 2, 2, (-1, 0, 1))
    r0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    N = 5
    for kind in (OpKind.TOEPLITZ_PLUS, OpKind.TOEPLITZ_MINUS, OpKind.HANKEL_PLUS, OpKind.HANKEL_MINUS):
        lhs = hv.build(kind, rho * LaurentPoly.constant(r0), N)
        delta = np.kron(np.eye(N), r0)
        rhs = hv.build(kind, rho, N) @ delta
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_window_margin_formula(rng):
    sym = random_poly(rng, 1, 1, (-1, 2))
    assert margin_for(10, sym) == 10 - 4
    assert margin_for(3, sym) == 0
    assert margin_for(5, sym, sym) == 0
