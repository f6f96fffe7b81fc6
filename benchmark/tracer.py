"""Outside-in tracing of hankelinv's layer functions.

The tracer replaces each target function, in every ``hankelinv`` module
namespace that holds it (``from x import f`` copies included), by a wrapper
that records a span: operation id, function, parent span, start and end.
A recursive function is recorded at its outermost call only.  Nothing in
the package is edited; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs whose spans are recorded, by layer
TARGETS = (
    ("cli", "main"),
    ("io_json", "read_json"),
    ("io_json", "problem_from_json"),
    ("io_json", "dumps"),
    ("solver", "solve_polynomial"),
    ("solver", "solve_truncated"),
    ("solver", "solve_dual_phi"),
    ("solver", "tri_toeplitz_solve"),
    ("inversion", "identity_residual_triple"),
    ("inversion", "build_m"),
    ("structured", "build"),
    ("series", "lp_mul"),
    ("diagnostics", "check_strict_contraction"),
    ("diagnostics", "check_identities"),
    ("diagnostics", "check_zero_locations"),
    ("diagnostics", "hankel_norm"),
    ("diagnostics", "inclusion_residuals"),
)

PACKAGE = "hankelinv"
_COMPLEX_BYTES = 16


def _nnz(f) -> int:
    """Stored coefficients of a series operand; a bare matrix counts as one."""
    degrees = getattr(f, "degrees", None)
    return len(degrees()) if degrees else 1


def _lp_mul_work(f, g):
    return {"block_products": _nnz(f) * _nnz(g)}


def _build_m_work(data, n_blocks, *_, **__):
    side = int(n_blocks) * (data.p + data.q)
    return {"dense_bytes": _COMPLEX_BYTES * side * side}


# work counts computed from a call's operands, by target
_WORK = {"series.lp_mul": _lp_mul_work, "inversion.build_m": _build_m_work}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans = []        # [op, name, parent index or -1, start, end]
        self.work = defaultdict(int)
        self.op = 0
        self._stack = []       # span indices of the calls now running
        self._open = set()     # names on the stack, for outermost-only recursion
        self._patched = []     # (module, attribute, original)

    def _wrap(self, name, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            if work is not None:
                for key, val in work(*args, **kwargs).items():
                    self.work[f"{name}.{key}"] += val
            if not self._stack:
                self.op += 1
            index = len(self.spans)
            span = [self.op, name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            self._open.add(name)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.discard(name)
                self._stack.pop()

        return traced

    def install(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self):
        """Per-function call counts and self times in seconds."""
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (op, name, parent, start, end), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s
