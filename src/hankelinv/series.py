"""Finitely supported matrix Laurent series.

The basic value type is :class:`LaurentPoly`: a matrix polynomial in z and
1/z with complex coefficients, the concrete representation of symbols of
Toeplitz and Hankel operators on the unit circle.  Coefficients are stored
sparsely by integer degree.  After every arithmetic operation a coefficient
whose largest entry falls below ``CANONICAL_TOL`` is dropped, so supports
stay finite and comparisons stay meaningful.

All values are immutable after construction (coefficient arrays are marked
read-only); every operation is pure.
"""

from __future__ import annotations

import enum
import numbers

import numpy as np

from .errors import EvaluationError, ShapeError

# Coefficients with max-abs entry below this are dropped (canonical form).
CANONICAL_TOL = 1e-14


def as_matrix(entries, rows=None, cols=None):
    """Coerce ``entries`` to a finite 2-D complex array.

    Scalars become 1x1 matrices.  If ``rows``/``cols`` are given the shape
    is checked against them.
    """
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {mat.ndim}")
    if rows is not None and mat.shape != (rows, cols):
        raise ShapeError(f"expected shape ({rows}, {cols}), got {mat.shape}")
    if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
        raise ValueError("matrix entries must be finite")
    return mat


class SubspaceTag(enum.Enum):
    """Support classes of Laurent series on the circle.

    ``PLUS`` keeps degrees >= 0, ``MINUS`` degrees <= 0, the ``*_ZERO``
    variants exclude degree 0, ``DIAG`` keeps only degree 0 and ``FULL``
    keeps everything.
    """

    FULL = "full"
    PLUS = "plus"
    MINUS = "minus"
    PLUS_ZERO = "plus_zero"
    MINUS_ZERO = "minus_zero"
    DIAG = "diag"

    def contains(self, degree: int) -> bool:
        if self is SubspaceTag.FULL:
            return True
        if self is SubspaceTag.PLUS:
            return degree >= 0
        if self is SubspaceTag.MINUS:
            return degree <= 0
        if self is SubspaceTag.PLUS_ZERO:
            return degree >= 1
        if self is SubspaceTag.MINUS_ZERO:
            return degree <= -1
        return degree == 0


class LaurentPoly:
    """A finitely supported matrix Laurent series.

    Parameters
    ----------
    rows, cols : int
        Matrix dimensions of every coefficient.
    coeffs : mapping int -> array_like, optional
        Coefficient matrices by degree.  Near-zero coefficients (max-abs
        entry below ``CANONICAL_TOL``) are dropped.
    """

    __slots__ = ("rows", "cols", "_coeffs")

    def __init__(self, rows, cols, coeffs=None):
        rows = int(rows)
        cols = int(cols)
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        stored = {}
        if coeffs:
            for deg, mat in coeffs.items():
                mat = as_matrix(mat, rows, cols)
                if np.max(np.abs(mat)) < CANONICAL_TOL:
                    continue
                mat = mat.copy()
                mat.flags.writeable = False
                stored[int(deg)] = mat
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_coeffs", stored)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    @classmethod
    def constant(cls, mat):
        mat = as_matrix(mat)
        return cls(mat.shape[0], mat.shape[1], {0: mat})

    @classmethod
    def identity(cls, n):
        """The constant symbol identically equal to I_n."""
        return cls.constant(np.eye(n))

    @classmethod
    def single(cls, degree, mat):
        mat = as_matrix(mat)
        return cls(mat.shape[0], mat.shape[1], {int(degree): mat})

    @classmethod
    def shift_scalar(cls, degree=1):
        """The 1x1 symbol z**degree (degree +1 is the forward shift symbol)."""
        return cls(1, 1, {int(degree): np.eye(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degrees(self):
        """Sorted tuple of degrees with stored coefficients."""
        return tuple(sorted(self._coeffs))

    @property
    def lo(self) -> int:
        if not self._coeffs:
            raise ValueError("zero series has empty support")
        return min(self._coeffs)

    @property
    def hi(self) -> int:
        if not self._coeffs:
            raise ValueError("zero series has empty support")
        return max(self._coeffs)

    def width(self) -> int:
        """Support width hi - lo + 1 (0 for the zero series)."""
        if not self._coeffs:
            return 0
        return self.hi - self.lo + 1

    def coeff(self, degree: int):
        """Coefficient at ``degree`` (a fresh zero matrix if absent)."""
        mat = self._coeffs.get(int(degree))
        if mat is None:
            return np.zeros((self.rows, self.cols), dtype=complex)
        return mat

    def sup_norm(self) -> float:
        """Largest absolute entry over all coefficients."""
        if not self._coeffs:
            return 0.0
        return max(float(np.max(np.abs(m))) for m in self._coeffs.values())

    def in_subspace(self, tag: SubspaceTag, tol: float = 0.0) -> bool:
        """True when all coefficients outside ``tag``'s support are <= tol."""
        return all(
            tag.contains(deg) or float(np.max(np.abs(mat))) <= tol
            for deg, mat in self._coeffs.items()
        )

    def allclose(self, other: "LaurentPoly", tol: float = 1e-12) -> bool:
        return (self - other).sup_norm() <= tol

    def __repr__(self):
        if self.is_zero:
            supp = "zero"
        else:
            supp = f"degrees {self.lo}..{self.hi}"
        return f"LaurentPoly({self.rows}x{self.cols}, {supp})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_poly_like(other, self)
        if other.shape != self.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape} series")
        acc = {deg: mat.copy() for deg, mat in self._coeffs.items()}
        for deg, mat in other._coeffs.items():
            acc[deg] = acc.get(deg, 0) + mat
        return LaurentPoly(self.rows, self.cols, acc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LaurentPoly(
            self.rows, self.cols, {d: -m for d, m in self._coeffs.items()}
        )

    def __sub__(self, other):
        other = _as_poly_like(other, self)
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly_like(other, self) - self

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return LaurentPoly(
                self.rows, self.cols, {d: other * m for d, m in self._coeffs.items()}
            )
        return lp_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self.__mul__(other)
        return lp_mul(_as_poly_like(other, self), self)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by z**k (shift every degree by k)."""
        return LaurentPoly(
            self.rows, self.cols, {d + k: m for d, m in self._coeffs.items()}
        )

    def adjoint(self) -> "LaurentPoly":
        """Pointwise conjugate transpose on the circle.

        Coefficient j of the result is the conjugate transpose of
        coefficient -j, so PLUS and MINUS supports swap.
        """
        return LaurentPoly(
            self.cols, self.rows, {-d: m.conj().T for d, m in self._coeffs.items()}
        )

    def project(self, tag: SubspaceTag) -> "LaurentPoly":
        """Keep exactly the coefficients whose degree lies in ``tag``."""
        return LaurentPoly(
            self.rows,
            self.cols,
            {d: m for d, m in self._coeffs.items() if tag.contains(d)},
        )

    def eval(self, z):
        """Evaluate the series at the point z (sum of coeff * z**degree)."""
        z = complex(z)
        if z == 0:
            if self._coeffs and self.lo < 0:
                raise EvaluationError("negative-degree support cannot be evaluated at z = 0")
            return self.coeff(0).copy()
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for deg, mat in self._coeffs.items():
            out += mat * z**deg
        return out

    def det(self) -> "LaurentPoly":
        """Determinant as a 1x1 Laurent series.

        Computed by evaluation at n*(hi-lo)+1 roots of unity and exact
        trigonometric interpolation; the support of det f lies in
        [n*lo, n*hi].
        """
        if self.rows != self.cols:
            raise ShapeError("determinant requires a square symbol")
        n = self.rows
        if self.is_zero:
            return LaurentPoly.zero(1, 1)
        lo, hi = self.lo, self.hi
        if n == 1:
            return LaurentPoly(1, 1, dict(self._coeffs))
        npts = n * (hi - lo) + 1
        points = np.exp(2j * np.pi * np.arange(npts) / npts)
        vals = np.array([np.linalg.det(self.eval(z)) for z in points])
        # v_k = sum_j c_{j + n*lo} z_k**j  with z_k the npts-th roots of unity
        shifted = vals * points ** (-n * lo)
        coeffs = np.fft.fft(shifted) / npts
        return LaurentPoly(1, 1, {j + n * lo: coeffs[j].reshape(1, 1) for j in range(npts)})


def _as_poly_like(value, template: LaurentPoly) -> LaurentPoly:
    """Promote scalars/matrices to constant series with a compatible shape."""
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, numbers.Number):
        if template.rows != template.cols:
            raise ShapeError("scalar promotion needs a square shape")
        return LaurentPoly.constant(complex(value) * np.eye(template.rows))
    return LaurentPoly.constant(value)


# -- functional aliases ----------------------------------------------------


def lp_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Product of two series (Cauchy convolution of coefficients).

    A 1x1 operand acts as a scalar on the other factor, matching the usual
    convention for the scalar shift symbol.
    """
    if not isinstance(f, LaurentPoly):
        f = LaurentPoly.constant(f)
    if not isinstance(g, LaurentPoly):
        g = LaurentPoly.constant(g)
    scalar_left = f.shape == (1, 1) and g.rows != 1
    scalar_right = g.shape == (1, 1) and f.cols != 1
    if not (scalar_left or scalar_right) and f.cols != g.rows:
        raise ShapeError(f"cannot multiply {f.shape} by {g.shape} series")
    if scalar_left:
        rows, cols = g.rows, g.cols
    elif scalar_right:
        rows, cols = f.rows, f.cols
    else:
        rows, cols = f.rows, g.cols
    acc = {}
    for df, mf in f._coeffs.items():
        for dg, mg in g._coeffs.items():
            if scalar_left:
                term = mf[0, 0] * mg
            elif scalar_right:
                term = mf * mg[0, 0]
            else:
                term = mf @ mg
            key = df + dg
            acc[key] = acc.get(key, 0) + term
    return LaurentPoly(rows, cols, acc)


def lp_det_cofactor(f: LaurentPoly) -> LaurentPoly:
    """Determinant by Laplace expansion; cross-check path for small sizes."""
    if f.rows != f.cols:
        raise ShapeError("determinant requires a square symbol")
    n = f.rows
    if n == 1:
        return LaurentPoly(1, 1, {d: m.copy() for d, m in f._coeffs.items()})

    def entry(i, j):
        return LaurentPoly(1, 1, {d: m[i : i + 1, j : j + 1] for d, m in f._coeffs.items()})

    def minor(rows, cols):
        if len(rows) == 1:
            return entry(rows[0], cols[0])
        acc = LaurentPoly.zero(1, 1)
        for t, j in enumerate(cols):
            sub = minor(rows[1:], cols[:t] + cols[t + 1 :])
            acc = acc + (-1) ** t * lp_mul(entry(rows[0], j), sub)
        return acc

    idx = tuple(range(n))
    return minor(idx, idx)


def poly_gap(f: LaurentPoly, g: LaurentPoly) -> float:
    """Sup-norm distance between two series."""
    return (f - g).sup_norm()
