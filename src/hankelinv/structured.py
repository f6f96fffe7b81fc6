"""Truncated block Toeplitz and Hankel matrices built from symbols.

Coordinate convention (fixed once, used everywhere): a truncated
plus-window indexes blocks 0..N-1 top-to-bottom, a minus-window indexes
blocks -N+1..0 left-to-right.  With abstract indices i (codomain) and j
(domain) every operator here has block entry symbol[i - j]; only the index
ranges differ between the kinds.  In window coordinates the minus index j
maps to column position j + N - 1.

``tri_toeplitz_solve`` is the package's one structured kernel: an O(m^2)
chunked solver for lower triangular block Toeplitz systems on block arrays,
whose chunks are windows of the same strided builder; ``check_corner``, the
one singular-block rule, refuses its diagonal block as it refuses a0 and d0.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ShapeError, SingularCornerError

CORNER_COND_LIMIT = 1e12
_CHUNK_ROWS = 64


def check_corner(mat, what):
    """Refuse a block with cond > CORNER_COND_LIMIT or, cond being scale-free, no normal-range entry."""
    if np.linalg.cond(mat) > CORNER_COND_LIMIT:
        raise SingularCornerError(f"{what} is numerically singular (cond > {CORNER_COND_LIMIT:.0e})")
    if np.abs(mat).max() < (tiny := np.finfo(float).tiny):
        raise SingularCornerError(f"{what} is numerically singular (largest entry below {tiny:.1e})")


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


def _block_array(a, what):
    """``a`` as a finite complex (n, rows, cols) array."""
    try:
        arr = np.asarray(a, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{what} blocks must share one shape: {exc}") from exc
    if arr.ndim != 3:
        raise ShapeError(f"{what} must be an (n, rows, cols) block array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} blocks must be finite")
    return arr


def tri_toeplitz_solve(t, b):
    """Solve a lower triangular block Toeplitz system T x = b.

    Parameters
    ----------
    t : (n, k, k) array
        ``t[j]`` is the block on the j-th block subdiagonal, so ``t`` is
        the first block column; ``t[0]`` must be invertible by
        ``check_corner``'s rule and blocks past ``n - 1`` are zero.
    b : (m, k, r) array
        Right-hand side block column; ``m`` sets the system size.

    Returns
    -------
    (m, k, r) array

    Notes
    -----
    Cost is O(m^2) block products: each chunk of 64 scalar rows
    (64 // k block rows, at least one) is one solve against the same chunk
    matrix, followed by a block Toeplitz update of the rows below it.
    """
    t = _block_array(t, "coefficient")
    b = _block_array(b, "right-hand side")
    n, k = t.shape[0], t.shape[1]
    if n == 0:
        raise ShapeError("need at least the diagonal block")
    if t.shape[2] != k:
        raise ShapeError("coefficient blocks must be square")
    m, r = b.shape[0], b.shape[2]
    if b.shape[1] != k:
        raise ShapeError(f"right-hand side blocks must have {k} rows")
    if m == 0:
        return np.zeros((0, k, r), dtype=complex)
    check_corner(t[0], "diagonal block of the triangular system")

    T = np.zeros((m, k, k), dtype=complex)
    T[: min(m, n)] = t[:m]
    chunk = min(max(1, _CHUNK_ROWS // k), m)
    lower = _block_toeplitz(np.concatenate([np.zeros_like(T[: chunk - 1]), T[:chunk]]), chunk)
    x = b.reshape(m * k, r).copy()
    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        w = e - s
        x[s * k : e * k] = np.linalg.solve(lower[: w * k, : w * k], x[s * k : e * k])
        if e < m:
            # rows e..m-1 see the chunk through the blocks T[e-s+i-j]
            x[e * k :] -= _block_toeplitz(T[1 : m - s], w) @ x[s * k : e * k]
    return x.reshape(m, k, r)


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

