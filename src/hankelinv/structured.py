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


class OpKind(enum.Enum):
    TOEPLITZ_PLUS = "toeplitz_plus"
    TOEPLITZ_MINUS = "toeplitz_minus"
    HANKEL_PLUS = "hankel_plus"
    HANKEL_MINUS = "hankel_minus"


def _block_toeplitz(seq, n_cols):
    """Dense block Toeplitz matrix whose block (i, j) is seq[i - j + n_cols - 1].

    ``seq`` is (n, r, c); the result has n - n_cols + 1 block rows and is
    copied out of a strided view, so no index arrays are built.
    """
    c = seq.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(seq, n_cols, axis=0)[..., ::-1]
    return win.transpose(0, 1, 3, 2).reshape(-1, n_cols * c, copy=True)


def build(kind: OpKind, symbol, n_blocks: int) -> np.ndarray:
    """The dense N-block window of a structured operator of a LaurentPoly symbol.

    The block shifts are Toeplitz windows too: S+ = T+(z I) and S- = T-(I/z).
    A window narrower than the symbol support is not an error; its exact
    margin is just 0.
    """
    N = int(n_blocks)
    if N < 1:
        raise ShapeError("window must retain at least one block")

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


def _corner_indices(spaces, n_blocks, margin):
    """Indices of the margin corners along one axis of a stacked window.

    ``spaces`` lists (space, block) in stacking order; a plus space keeps
    its first ``margin`` blocks, a minus space its last.
    """
    m = min(max(margin, 0), n_blocks)
    idx = []
    offset = 0
    for space, blk in spaces:
        start = offset if space == "plus" else offset + (n_blocks - m) * blk
        idx.append(np.arange(start, start + m * blk))
        offset += n_blocks * blk
    return np.concatenate(idx)


def corner_residual(diff, rows, cols, n_blocks: int, margin: int) -> float:
    """Max abs of a window matrix on the corners where an identity is exact.

    ``rows`` and ``cols`` list the (space, block) pairs stacked along each
    axis, space ``"plus"`` or ``"minus"``; the corner of each pair of
    spaces is the margin sub-window hugging their anchored ends.  NaN when
    the margin is empty.
    """
    ri = _corner_indices(rows, n_blocks, margin)
    ci = _corner_indices(cols, n_blocks, margin)
    if not (ri.size and ci.size):
        return float("nan")
    return float(np.max(np.abs(diff[np.ix_(ri, ci)])))
