"""Finitely supported matrix Laurent series.

The basic value type is :class:`LaurentPoly`: a matrix polynomial in z and
1/z with complex coefficients, the concrete representation of symbols of
Toeplitz and Hankel operators on the unit circle.  A series is stored as
the lowest degree of its support plus one ``(width, rows, cols)`` complex
array holding the coefficients of every degree from there up, so each
operation is a few whole-array numpy calls.  Every finite coefficient an
operation computes is kept, however small, and only exactly-zero
coefficients at either end are trimmed, so a residual is measured as it
was computed and never rounded to zero first.  Storage is dense over the
support width: a series with two coefficients far apart holds every zero
block between them.

Negation, shifts and adjoints move coefficients without rounding, and
a sum rounds each coefficient once.  A product (``lp_mul``)
sums shifted block products over the degrees of its right operand and
rounds like the matrix products it makes: a product with a constant is
one block product, integer coefficients multiply exactly while every sum
stays below 2**53, and a degree that no pair of support degrees sums to
is exactly zero.  Callers that need
several products of the same operands (the data identities and
inclusions) keep the values on one ``CircleGrid`` and skip ``lp_mul``.

Coefficients go in and come out as such runs of consecutive degrees:
``LaurentPoly.from_run(lo, run)`` takes a ``(count, rows, cols)`` array
whose block k is the coefficient of degree lo + k, and
``f.coeff_run(start, count)`` gives the coefficients of degrees start ..
start + count - 1 as one read-only array, zero outside the support.
``from_run`` is the one way in: ``zero``, ``constant``, ``identity`` and
``single`` go through it, and calling ``LaurentPoly(...)`` directly raises
TypeError.

Both operands of ``+`` and ``-`` are series of one shape, and ``*`` takes
two series whose shapes compose or a series and a number; nothing else is
promoted to a series.  All values are immutable after construction
(coefficient arrays are marked read-only); every operation is pure.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ShapeError


def _canonicalise(lo, arr):
    """Check the fresh array ``arr`` finite, trim its exactly-zero end blocks
    and freeze it; returns the new (lo, arr)."""
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    arr.flags.writeable = False
    keep = np.flatnonzero(arr.any(axis=(1, 2)))
    if keep.size == 0:
        return 0, arr[:0]
    return lo + int(keep[0]), arr[keep[0] : keep[-1] + 1]


class LaurentPoly:
    """A finitely supported matrix Laurent series.

    Built by ``from_run`` or one of the constructors on top of it (``zero``,
    ``constant``, ``identity``, ``single``); ``rows`` and ``cols`` are the
    matrix dimensions of every coefficient.
    """

    __slots__ = ("rows", "cols", "_lo", "_arr")
    __array_ufunc__ = None  # numpy arrays and scalars leave operators to this class

    def __init__(self, *args, **kwargs):
        raise TypeError("build a LaurentPoly with LaurentPoly.from_run(lo, run)")

    @classmethod
    def _wrap(cls, rows, cols, lo, arr):
        """A series stored in ``arr`` as it is (already canonical)."""
        self = object.__new__(cls)
        arr.flags.writeable = False
        for name, value in (("rows", rows), ("cols", cols), ("_lo", lo), ("_arr", arr)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _make(cls, rows, cols, lo, arr):
        """A series owning the fresh array ``arr``, canonicalised first."""
        return cls._wrap(rows, cols, *_canonicalise(lo, arr))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through from_run, never through setattr
        return (LaurentPoly.from_run, (self._lo, self._arr))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_run(cls, lo, run):
        """The series whose coefficient of degree lo + k is ``run[k]``.

        ``run`` is a ``(count, rows, cols)`` array_like; it is copied,
        checked finite once as a whole and trimmed of exactly-zero end blocks.
        """
        arr = np.array(run, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ShapeError(f"expected a (count, rows, cols) run, got shape {arr.shape}")
        return cls._make(arr.shape[1], arr.shape[2], int(lo), arr)

    @classmethod
    def zero(cls, rows, cols):
        return cls.from_run(0, np.zeros((0, rows, cols)))

    @classmethod
    def constant(cls, mat):
        return cls.single(0, mat)

    @classmethod
    def identity(cls, n):
        """The constant symbol identically equal to I_n."""
        return cls.constant(np.eye(n))

    @classmethod
    def single(cls, degree, mat):
        """The series whose only coefficient is the matrix ``mat``, at ``degree``."""
        return cls.from_run(degree, [mat])

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return len(self._arr) == 0

    @property
    def is_plus(self) -> bool:
        """True when every non-zero coefficient has degree >= 0."""
        return self.is_zero or self._lo >= 0

    @property
    def is_minus(self) -> bool:
        """True when every non-zero coefficient has degree <= 0."""
        return self.is_zero or self.hi <= 0

    def degrees(self):
        """Sorted tuple of degrees with non-zero coefficients."""
        nonzero = np.flatnonzero(self._arr.any(axis=(1, 2)))
        return tuple(self._lo + int(i) for i in nonzero)

    @property
    def lo(self) -> int:
        if self.is_zero:
            raise ValueError("zero series has empty support")
        return self._lo

    @property
    def hi(self) -> int:
        if self.is_zero:
            raise ValueError("zero series has empty support")
        return self._lo + len(self._arr) - 1

    def width(self) -> int:
        """Support width hi - lo + 1 (0 for the zero series)."""
        return len(self._arr)

    def coeff_run(self, start: int, count: int):
        """Coefficients of degrees start .. start + count - 1, read-only.

        Returns a ``(count, rows, cols)`` array with zero blocks wherever
        the series has no support; a range inside the stored run comes back
        as a view of it, without a copy.  A negative count raises ShapeError.
        """
        i = int(start) - self._lo
        count = int(count)
        if count < 0:
            raise ShapeError(f"cannot read a run of {count} coefficients")
        width = len(self._arr)
        if 0 <= i and i + count <= width:
            return self._arr[i : i + count]
        out = np.zeros((count, self.rows, self.cols), dtype=complex)
        first, stop = max(i, 0), min(i + count, width)
        if first < stop:
            out[first - i : stop - i] = self._arr[first:stop]
        out.flags.writeable = False
        return out

    def coeff(self, degree: int):
        """Coefficient at ``degree``, read-only (zeros if absent)."""
        return self.coeff_run(degree, 1)[0]

    def sup_norm(self) -> float:
        """Largest absolute entry over all coefficients."""
        if self.is_zero:
            return 0.0
        return float(np.abs(self._arr).max())

    def __repr__(self):
        if self.is_zero:
            supp = "zero"
        else:
            supp = f"degrees {self.lo}..{self.hi}"
        return f"LaurentPoly({self.rows}x{self.cols}, {supp})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.shape != self.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape} series")
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        lo = min(self._lo, other._lo)
        out = np.zeros((max(self.hi, other.hi) - lo + 1, self.rows, self.cols), dtype=complex)
        for f in (self, other):
            out[f._lo - lo : f._lo - lo + len(f._arr)] += f._arr
        return LaurentPoly._make(self.rows, self.cols, lo, out)

    def __neg__(self):
        return LaurentPoly._wrap(self.rows, self.cols, self._lo, -self._arr)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, LaurentPoly) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return LaurentPoly._make(self.rows, self.cols, self._lo, other * self._arr)
        return lp_mul(self, other) if isinstance(other, LaurentPoly) else NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other) if isinstance(other, numbers.Number) else NotImplemented

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by z**k (shift every degree by k)."""
        return LaurentPoly._wrap(self.rows, self.cols, self._lo + int(k), self._arr)

    def adjoint(self) -> "LaurentPoly":
        """Pointwise conjugate transpose on the circle.

        Coefficient j of the result is the conjugate transpose of
        coefficient -j, so plus and minus supports swap.
        """
        width = len(self._arr)
        out = np.empty((width, self.cols, self.rows), dtype=complex)
        np.conjugate(self._arr[::-1].transpose(0, 2, 1), out=out)
        return LaurentPoly._wrap(self.cols, self.rows, 1 - self._lo - width, out)

    def det(self) -> "LaurentPoly":
        """Determinant as a 1x1 Laurent series.

        With f = z**lo p, det f = z**(n*lo) det p, and det p is a polynomial
        of degree below npts = n*(hi-lo) + 1.  An inverse FFT evaluates p at
        the L = ``_fft_len(npts)`` >= npts roots of unity, and the first npts
        coefficients of the FFT of the pointwise determinants interpolate
        det p exactly; the L - npts beyond them are round-off.
        """
        if self.rows != self.cols:
            raise ShapeError("determinant requires a square symbol")
        n = self.rows
        if self.is_zero:
            return LaurentPoly.zero(1, 1)
        if n == 1:
            return self
        npts = n * (len(self._arr) - 1) + 1
        size = _fft_len(npts)
        vals = np.linalg.det(size * np.fft.ifft(self._arr, n=size, axis=0))
        coeffs = np.fft.fft(vals)[:npts] / size
        return LaurentPoly._make(1, 1, n * self._lo, coeffs.reshape(npts, 1, 1))


def _fft_len(n: int) -> int:
    """Smallest length >= n of the form 2^k times 1, 3, 5, 9 or 15.

    Such lengths split into radix 2, 3 and 5 passes; a length with a large
    prime factor is several times slower (``CircleGrid.values`` of a
    (1025, 2, 1) run, x86_64: 0.27 ms at 2049 = 3 x 683 against 0.06 ms
    at 2304).
    """
    return min(odd << (-(-n // odd) - 1).bit_length() for odd in (1, 3, 5, 9, 15))


class CircleGrid:
    """The L points z_k = exp(-2 pi i k / L) of the unit circle, L >= n.

    L is the smallest fast FFT length >= n (``_fft_len``).  ``values(run)``
    evaluates the polynomial sum_j run[j] z^j at every point, one FFT along
    the degree axis.  The values of a product series are the pointwise
    products of its factors' values (a factor's conjugate transpose gives
    the values of its adjoint), and ``coeffs`` reads a degree range of the
    product back with one inverse FFT.  A product whose support spans at
    most L consecutive degrees comes back with round-off of about
    eps |f| |g| times the width in every degree its factors' supports
    reach, and exactly zero in every other degree.  The data identities and
    inclusions are read off one such grid per data set (``DataSet.spectrum``);
    ``lp_mul`` does not use one.
    """

    __slots__ = ("size",)

    def __init__(self, n: int):
        self.size = _fft_len(n)

    def values(self, run) -> np.ndarray:
        """(L, rows, cols) values of sum_j run[j] z^j at the L points."""
        return np.fft.fft(run, self.size, axis=0)

    def coeffs(self, values, lo: int, count: int, f_support, g_support) -> np.ndarray:
        """Coefficients of degrees lo .. lo + count - 1 (count <= L) of f g.

        ``values`` are the pointwise products of the values of f and g; each
        support is a factor's (lowest degree, non-zero-block mask from there
        up).  A degree that no pair of support degrees sums to is set exactly
        to zero, and so is every degree outside the product's support.
        """
        # degree d sits at index d mod L of the inverse FFT
        out = np.fft.ifft(values, axis=0).take(np.arange(lo, lo + count), axis=0, mode="wrap")
        (f_lo, f_mask), (g_lo, g_mask) = f_support, g_support
        reach = np.convolve(f_mask, g_mask) != 0  # degrees f_lo + g_lo, ...
        skip = lo - f_lo - g_lo
        keep = np.zeros(count, dtype=bool)
        first, stop = max(skip, 0), min(skip + count, len(reach))
        if first < stop:
            keep[first - skip : stop - skip] = reach[first:stop]
        if not keep.all():
            out[~keep] = 0
        return out


def lp_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Product of two series (Cauchy convolution of coefficients).

    The coefficient shapes must compose: f is r x k and g is k x c.  A loop
    over the degrees of g multiplies each of its coefficients into every
    coefficient of f at once: the cost is O(width_f * width_g) block
    products, in width_g batched matmuls.
    """
    if f.cols != g.rows:
        raise ShapeError(f"cannot multiply {f.shape} by {g.shape} series")
    if f.is_zero or g.is_zero:
        return LaurentPoly.zero(f.rows, g.cols)
    A, B = f._arr, g._arr
    out = np.zeros((len(A) + len(B) - 1, f.rows, g.cols), dtype=complex)
    for j, b in enumerate(B):
        out[j : j + len(A)] += np.matmul(A, b)
    return LaurentPoly._make(f.rows, g.cols, f._lo + g._lo, out)


def poly_gap(f: LaurentPoly, g: LaurentPoly) -> float:
    """Sup-norm distance between two series."""
    return (f - g).sup_norm()
