"""Truncated block Toeplitz and Hankel matrices built from symbols.

Coordinate convention (fixed once, used everywhere): a truncated
plus-window indexes blocks 0..N-1 top-to-bottom, a minus-window indexes
blocks -N+1..0 left-to-right.  With abstract indices i (codomain) and j
(domain) every operator here has block entry symbol[i - j]; only the index
ranges differ between the kinds.  In window coordinates the minus index j
maps to column position j + N - 1.

Identities that suffer truncation corner effects are asserted only on a
conservative exact margin: ``margin = N - sum(symbol support widths)``.
The margin sub-window hugs the anchored corner of each space (top rows for
a plus codomain, bottom rows for a minus codomain, and likewise for the
domain columns).
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ShapeError
from .series import LaurentPoly


class OpKind(enum.Enum):
    TOEPLITZ_PLUS = "toeplitz_plus"
    TOEPLITZ_MINUS = "toeplitz_minus"
    HANKEL_PLUS = "hankel_plus"
    HANKEL_MINUS = "hankel_minus"
    SHIFT_PLUS = "shift_plus"
    SHIFT_MINUS = "shift_minus"


def margin_for(n_blocks: int, *symbols) -> int:
    """Conservative exact margin: N minus the sum of support widths."""
    total = 0
    for sym in symbols:
        if isinstance(sym, LaurentPoly):
            total += sym.width()
        else:
            total += 1
    return max(0, n_blocks - total)


def _block_toeplitz(seq, n_cols):
    """Dense block Toeplitz matrix whose block (i, j) is seq[i - j + n_cols - 1].

    ``seq`` is (n, r, c); the result has n - n_cols + 1 block rows and is
    copied out of a strided view, so no index arrays are built.
    """
    c = seq.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(seq, n_cols, axis=0)[..., ::-1]
    return win.transpose(0, 1, 3, 2).reshape(-1, n_cols * c, copy=True)


def build(kind: OpKind, symbol, n_blocks: int) -> np.ndarray:
    """The dense N-block window of a structured operator.

    ``symbol`` is a LaurentPoly (or a constant matrix) for the
    Toeplitz/Hankel kinds and a block dimension (int) for the shifts.  A
    window narrower than the symbol support is not an error; its exact
    margin (``margin_for``) is just 0.
    """
    N = int(n_blocks)
    if N < 1:
        raise ShapeError("window must retain at least one block")

    if kind in (OpKind.SHIFT_PLUS, OpKind.SHIFT_MINUS):
        n = int(symbol)
        # S+ puts I on the block subdiagonal, S- on the block superdiagonal
        return np.eye(N * n, k=-n if kind is OpKind.SHIFT_PLUS else n, dtype=complex)

    if not isinstance(symbol, LaurentPoly):
        symbol = LaurentPoly.constant(symbol)
    if kind is OpKind.TOEPLITZ_PLUS or kind is OpKind.TOEPLITZ_MINUS:
        anchor = 0
    elif kind is OpKind.HANKEL_PLUS:
        anchor = -(N - 1)  # window offset = degree - (N - 1)
    elif kind is OpKind.HANKEL_MINUS:
        anchor = N - 1
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind}")
    # window block (i, j) holds the coefficient of degree i - j - anchor
    return _block_toeplitz(symbol.coeff_run(-(N - 1) - anchor, 2 * N - 1), N)


def corner_slice(space: str, n_blocks: int, margin: int, block: int) -> slice:
    """Rows/columns of the exact corner for one space of the window."""
    if margin <= 0:
        return slice(0, 0)
    m = min(margin, n_blocks)
    if space == "plus":
        return slice(0, m * block)
    return slice((n_blocks - m) * block, n_blocks * block)


def restrict_to_margin(mat, codomain, domain, n_blocks, margin, block_rows, block_cols):
    """Sub-matrix of the window on which a truncated identity is exact."""
    rs = corner_slice(codomain, n_blocks, margin, block_rows)
    cs = corner_slice(domain, n_blocks, margin, block_cols)
    return mat[rs, cs]


def margin_residual(lhs, rhs, codomain, domain, n_blocks, margin, block_rows, block_cols):
    diff = lhs - rhs
    sub = restrict_to_margin(diff, codomain, domain, n_blocks, margin, block_rows, block_cols)
    if sub.size == 0:
        return float("nan")
    return float(np.max(np.abs(sub)))


def check_product_rules(rho: LaurentPoly, phi: LaurentPoly, n_blocks: int) -> dict:
    """Residuals of the four Toeplitz/Hankel product identities.

    The identities relate the window of a product symbol to products of
    windows; they hold exactly on the margin sub-window.  Returns a dict
    with one residual per identity, the exact margin and an inconclusive
    flag when the margin is empty.
    """
    if rho.cols != phi.rows:
        raise ShapeError("symbols do not compose")
    N = int(n_blocks)
    prod = rho * phi
    margin = margin_for(N, rho, phi)

    def dn(kind, sym):
        return build(kind, sym, N)

    tp, tm = OpKind.TOEPLITZ_PLUS, OpKind.TOEPLITZ_MINUS
    hp, hm = OpKind.HANKEL_PLUS, OpKind.HANKEL_MINUS
    n, m, k = rho.rows, rho.cols, phi.cols

    residuals = {
        "toeplitz_plus": margin_residual(
            dn(tp, prod),
            dn(tp, rho) @ dn(tp, phi) + dn(hp, rho.shifted(-1)) @ dn(hm, phi.shifted(1)),
            "plus", "plus", N, margin, n, k,
        ),
        "hankel_plus": margin_residual(
            dn(hp, prod.shifted(-1)),
            dn(hp, rho.shifted(-1)) @ dn(tm, phi) + dn(tp, rho) @ dn(hp, phi.shifted(-1)),
            "plus", "minus", N, margin, n, k,
        ),
        "hankel_minus": margin_residual(
            dn(hm, prod.shifted(1)),
            dn(tm, rho) @ dn(hm, phi.shifted(1)) + dn(hm, rho.shifted(1)) @ dn(tp, phi),
            "minus", "plus", N, margin, n, k,
        ),
        "toeplitz_minus": margin_residual(
            dn(tm, prod),
            dn(tm, rho) @ dn(tm, phi) + dn(hm, rho.shifted(1)) @ dn(hp, phi.shifted(-1)),
            "minus", "minus", N, margin, n, k,
        ),
    }
    return {
        "residuals": residuals,
        "margin": margin,
        "inconclusive": margin == 0,
    }


def check_shift_relations(rho: LaurentPoly, n_blocks: int) -> dict:
    """Residuals of the shift/Hankel rewrite rules on the margin window.

    Checks S-* H-(rho) = H-(z rho) and S+* H+(rho) = H+(rho / z).
    """
    N = int(n_blocks)
    margin = margin_for(N, rho)
    n, m = rho.rows, rho.cols
    sm = build(OpKind.SHIFT_MINUS, n, N)
    sp = build(OpKind.SHIFT_PLUS, n, N)
    res_minus = margin_residual(
        sm.conj().T @ build(OpKind.HANKEL_MINUS, rho, N),
        build(OpKind.HANKEL_MINUS, rho.shifted(1), N),
        "minus", "plus", N, margin, n, m,
    )
    res_plus = margin_residual(
        sp.conj().T @ build(OpKind.HANKEL_PLUS, rho, N),
        build(OpKind.HANKEL_PLUS, rho.shifted(-1), N),
        "plus", "minus", N, margin, n, m,
    )
    return {
        "residuals": {"minus": res_minus, "plus": res_plus},
        "margin": margin,
        "inconclusive": margin == 0,
    }


def hankel_shift_intertwine_residuals(rho: LaurentPoly, n_blocks: int) -> dict:
    """Residuals of S+* H+ = H+ S- and S-* H- = H- S+ off the far edge.

    The relations hold exactly except possibly on the last block row and
    column of the window, which is what gets excluded here.
    """
    N = int(n_blocks)
    n, m = rho.rows, rho.cols
    hp = build(OpKind.HANKEL_PLUS, rho, N)
    hm = build(OpKind.HANKEL_MINUS, rho, N)
    sp_n = build(OpKind.SHIFT_PLUS, n, N)
    sm_m = build(OpKind.SHIFT_MINUS, m, N)
    sm_n = build(OpKind.SHIFT_MINUS, n, N)
    sp_m = build(OpKind.SHIFT_PLUS, m, N)

    d_plus = sp_n.conj().T @ hp - hp @ sm_m
    d_minus = sm_n.conj().T @ hm - hm @ sp_m
    # plus relation: drop the last plus row block and the first minus column
    # block (the far edges of each space).
    res_plus = float(np.max(np.abs(d_plus[: (N - 1) * n, m:]))) if N > 1 else 0.0
    res_minus = float(np.max(np.abs(d_minus[n:, : (N - 1) * m]))) if N > 1 else 0.0
    return {"plus": res_plus, "minus": res_minus}
