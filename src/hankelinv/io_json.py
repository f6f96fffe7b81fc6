"""JSON codec for problem files, symbols and reports.

Complex entries are encoded as [re, im] pairs and coefficient lists are
degree-indexed sparse arrays ``{"deg": k, "mat": [[..]]}`` so that
negative-degree support reads naturally.  The codec is orjson: every
number is written as the shortest digits that read back to the same
double, in orjson's spelling (``0.00001``, ``1e-7``), so a round trip is
bit-exact; non-finite numbers are written as ``null``, and separators are
compact (no spaces).
"""

from __future__ import annotations

import numpy as np
import orjson

from .errors import ParseError
from .inversion import DataSet
from .series import LaurentPoly

# Most dense complex entries a file may imply: 2**20 (16 MiB), far above
# the few thousand of any file the tests, CI or the benchmark write.  A
# symbol file implies span x rows x cols (one block at least), a problem
# file its rows [alpha beta] and [gamma delta] over degrees 0..m,
# (m+1)(p+q)^2, which hold a0, d0 and the size of every list.  Both counts
# come from the header and the degrees, before anything is allocated.
_MAX_DENSE_ENTRIES = 2**20

# numpy scalars as numbers, NaN and +-inf as null, any dict key as a string
_DUMP_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS


# -- low-level writer ---------------------------------------------------------


def dumps(obj) -> str:
    """Serialize as strict JSON (bit-exact round trip of every finite number)."""
    return orjson.dumps(obj, default=_jsonable, option=_DUMP_OPTIONS).decode()


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read_json(path):
    try:
        with open(path, "rb") as fh:
            return orjson.loads(fh.read())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or number
        raise ParseError(f"cannot read {path}: {exc}") from exc


# -- matrices and symbols -----------------------------------------------------


def matrix_to_json(mat) -> list:
    """Nested lists with one [re, im] pair per entry of a complex array."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack((mat.real, mat.imag), axis=-1).tolist()


def _matrices_from_json(mats, rows, cols, name):
    """Parse a list of rows x cols matrices of [re, im] pairs at once.

    One pass flattens the numbers while it checks every matrix, row and
    pair for its length; every number must be a JSON integer or float that
    fits a finite double.  Returns an (n, rows, cols) complex array.
    """
    shape = f"{name}: each matrix must be {rows}x{cols} [re, im] pairs"
    flat = []
    for mat in mats:
        if not isinstance(mat, list) or len(mat) != rows:
            raise ParseError(shape)
        for row in mat:
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(shape)
            for pair in row:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ParseError(shape)
                flat += pair
    if not set(map(type, flat)) <= {int, float}:
        raise ParseError(f"{name}: matrix entries must be numbers")
    try:
        vals = np.array(flat, dtype=float)
    except OverflowError as exc:
        raise ParseError(f"{name}: matrix entry out of range: {exc}") from exc
    if not np.isfinite(vals).all():
        raise ParseError(f"{name}: matrix entries must be finite")
    return vals.view(complex).reshape(len(mats), rows, cols)


def poly_to_json(f: LaurentPoly) -> dict:
    degs = f.degrees()
    lo = degs[0] if degs else 0
    mats = matrix_to_json(f.coeff_run(lo, f.width())[np.array(degs, dtype=int) - lo])
    return {
        "rows": f.rows,
        "cols": f.cols,
        "coeffs": [{"deg": d, "mat": mat} for d, mat in zip(degs, mats)],
    }


def _json_int(value, what):
    """``value`` when it is a JSON integer (not a boolean), else ParseError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _poly_from_coeff_list(obj, rows, cols, lo=None, hi=None, name="symbol") -> LaurentPoly:
    """The series of a degree-indexed coefficient list, built as one run."""
    if not isinstance(obj, list):
        raise ParseError(f"{name}: coefficient list expected")
    degs = set()
    for item in obj:
        if not isinstance(item, dict) or "deg" not in item or "mat" not in item:
            raise ParseError(f'{name}: coefficients must be {{"deg", "mat"}} objects')
        deg = _json_int(item["deg"], f"{name}: degree")
        if lo is not None and not (lo <= deg <= hi):
            raise ParseError(f"{name}: degree {deg} outside [{lo}, {hi}]")
        if deg in degs:
            raise ParseError(f"{name}: duplicate degree {deg}")
        degs.add(deg)
    # a series stores every block between its extreme degrees
    first, last = min(degs, default=0), max(degs, default=-1)
    if max(last - first + 1, 1) * rows * cols > _MAX_DENSE_ENTRIES:
        raise ParseError(
            f"{name}: {rows}x{cols} blocks over degrees {first}..{last} "
            f"imply more than {_MAX_DENSE_ENTRIES} dense entries"
        )
    run = np.zeros((last - first + 1, rows, cols), dtype=complex)
    if obj:
        index = [item["deg"] - first for item in obj]
        run[index] = _matrices_from_json([item["mat"] for item in obj], rows, cols, name)
    return LaurentPoly.from_run(first, run)


def poly_from_json(obj, name="symbol") -> LaurentPoly:
    try:
        rows, cols = obj["rows"], obj["cols"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{name}: needs integer 'rows' and 'cols'") from exc
    rows, cols = _json_int(rows, f"{name}: rows"), _json_int(cols, f"{name}: cols")
    if rows < 1 or cols < 1:
        raise ParseError(f"{name}: rows and cols must be positive")
    return _poly_from_coeff_list(obj.get("coeffs", []), rows, cols, name=name)


# -- problem files ------------------------------------------------------------


def problem_to_json(data: DataSet, g: LaurentPoly = None, metadata: dict = None) -> dict:
    out = {
        "p": data.p,
        "q": data.q,
        "m": data.m,
        "alpha": poly_to_json(data.alpha)["coeffs"],
        "beta": poly_to_json(data.beta)["coeffs"],
        "gamma": poly_to_json(data.gamma)["coeffs"],
        "delta": poly_to_json(data.delta)["coeffs"],
    }
    if g is not None:
        out["g"] = poly_to_json(g)["coeffs"]
    if metadata:
        out["metadata"] = metadata
    return out


def problem_from_json(obj):
    """Parse a problem file; returns (DataSet, g or None, metadata)."""
    if not isinstance(obj, dict):
        raise ParseError("problem file must be a JSON object")
    try:
        p, q, m = (_json_int(obj[key], f"problem file '{key}'") for key in "pqm")
    except KeyError as exc:
        raise ParseError("problem file needs integer 'p', 'q', 'm'") from exc
    if p < 1 or q < 1 or m < 0:
        raise ParseError("p, q must be positive and m nonnegative")
    if (m + 1) * (p + q) ** 2 > _MAX_DENSE_ENTRIES:
        raise ParseError(
            f"p = {p}, q = {q}, m = {m} imply more than {_MAX_DENSE_ENTRIES} dense entries"
        )
    shapes = {
        "alpha": (p, p, 0, m),
        "beta": (p, q, 0, m),
        "gamma": (q, p, -m, 0),
        "delta": (q, q, -m, 0),
    }
    polys = {}
    for name, (rows, cols, lo, hi) in shapes.items():
        if name not in obj:
            raise ParseError(f"problem file is missing '{name}'")
        polys[name] = _poly_from_coeff_list(obj[name], rows, cols, lo, hi, name=name)
    try:
        data = DataSet(**polys)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    g = None
    if "g" in obj and obj["g"] is not None:
        g = _poly_from_coeff_list(obj["g"], p, q, 0, m, name="g")
    metadata = obj.get("metadata") or {}
    return data, g, metadata


# -- reports ------------------------------------------------------------------


def _jsonable(value):
    """A symbol as its coefficient list: the one type orjson cannot write itself."""
    if isinstance(value, LaurentPoly):
        return poly_to_json(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def solve_report_to_json(report) -> dict:
    """The report's fields for ``dumps``, which writes g through ``poly_to_json``."""
    return {
        "method": report.method,
        "g": report.g,
        "residual_identities": report.residual_identities,
        "residual_inclusions": report.residual_inclusions,
        "cross_method_gap": report.cross_method_gap,
        "accepted": report.accepted,
        "tol": report.tol,
        "flags": report.flags,
        "details": report.details,
    }


def check_report_to_json(report) -> dict:
    return {
        "overall": report.overall(),
        "entries": [
            {
                "name": e.name,
                "value": e.value,
                "threshold": e.threshold,
                "verdict": e.verdict,
            }
            for e in report.entries
        ],
    }
