"""Benchmark inputs and answer checks, computed apart from hankelinv.

Only numpy and the standard library are used here, so a fault in the
package cannot cancel out between what it is given and how its answer is
judged.  The forward map is the dense solve of the two (m+1)-block corner
systems

    [ I  G ] [a]   [e_first]        [ I  G ] [b]   [   0  ]
    [ G* I ] [c] = [   0   ]  and   [ G* I ] [d] = [e_last]

where G is the Hankel corner of g, block (i, j) = g_{i+m-j} (zero when
i + m - j > m).  a, b hold the degree 0..m coefficients of alpha, beta and
c, d the degree -m..0 coefficients of gamma, delta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One generated problem: the drawn symbol and its exact data."""

    seed: tuple
    p: int
    q: int
    m: int
    norm: float
    g: np.ndarray       # (m+1, p, q), g[k] is the degree-k coefficient
    alpha: np.ndarray   # (m+1, p, p), degree j at index j
    beta: np.ndarray    # (m+1, p, q), degree j at index j
    gamma: np.ndarray   # (m+1, q, p), degree w-m at index w
    delta: np.ndarray   # (m+1, q, q), degree w-m at index w


def hankel_corner(g: np.ndarray) -> np.ndarray:
    """Dense (m+1)p x (m+1)q Hankel corner with block (i, j) = g[i+m-j]."""
    n, p, q = g.shape
    m = n - 1
    corner = np.zeros((n * p, n * q), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            corner[i * p : (i + 1) * p, j * q : (j + 1) * q] = g[i + m - j]
    return corner


def corner_omega(g: np.ndarray) -> np.ndarray:
    corner = hankel_corner(g)
    rows, cols = corner.shape
    return np.block(
        [[np.eye(rows), corner], [corner.conj().T, np.eye(cols)]]
    )


def spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def make_instance(p: int, q: int, m: int, norm: float, seed: tuple) -> Instance:
    """Complex Gaussian g scaled to Hankel norm ``norm``, and its data."""
    rng = np.random.default_rng(list(seed))
    shape = (m + 1, p, q)
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    g *= norm / spectral_norm(hankel_corner(g))
    n_p, n_q = (m + 1) * p, (m + 1) * q
    rhs = np.zeros((n_p + n_q, p + q), dtype=complex)
    rhs[:p, :p] = np.eye(p)
    rhs[-q:, p:] = np.eye(q)
    sol = np.linalg.solve(corner_omega(g), rhs)

    def blocks(col, rows):
        return col.reshape(m + 1, rows, col.shape[1])

    return Instance(
        seed=tuple(seed), p=p, q=q, m=m, norm=norm, g=g,
        alpha=blocks(sol[:n_p, :p], p),
        beta=blocks(sol[:n_p, p:], p),
        gamma=blocks(sol[n_p:, :p], q),
        delta=blocks(sol[n_p:, p:], q),
    )


# -- problem files -------------------------------------------------------------


def _matrix(mat) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def problem_document(inst: Instance) -> dict:
    """The problem-file object of the documented schema (no embedded g)."""
    m = inst.m
    return {
        "p": inst.p,
        "q": inst.q,
        "m": m,
        "alpha": [{"deg": j, "mat": _matrix(inst.alpha[j])} for j in range(m + 1)],
        "beta": [{"deg": j, "mat": _matrix(inst.beta[j])} for j in range(m + 1)],
        "gamma": [{"deg": w - m, "mat": _matrix(inst.gamma[w])} for w in range(m + 1)],
        "delta": [{"deg": w - m, "mat": _matrix(inst.delta[w])} for w in range(m + 1)],
        "metadata": {"seed": list(inst.seed), "norm": inst.norm},
    }


def write_problem(path, inst: Instance):
    # repr-exact floats: the file holds the generated data bit for bit
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_document(inst), fh, allow_nan=False)
        fh.write("\n")


# -- data identities -------------------------------------------------------------


def _gram(f, g):
    """Coefficients of f* g over degrees -m..m (index m is degree 0), for f and
    g stored on the same m+1 consecutive degrees."""
    fs = f[::-1].conj().transpose(0, 2, 1)
    out = np.zeros((2 * len(f) - 1, fs.shape[1], g.shape[2]), dtype=complex)
    for i in range(len(fs)):
        out[i : i + len(g)] += np.einsum("ab,kbc->kac", fs[i], g)
    return out


def identity_residuals(inst: Instance) -> tuple:
    """Sup norms of alpha*alpha - gamma*gamma - a0, delta*delta - beta*beta - d0
    and alpha*beta - gamma*delta, as Laurent products in plain numpy."""
    m = inst.m
    r1 = _gram(inst.alpha, inst.alpha) - _gram(inst.gamma, inst.gamma)
    r2 = _gram(inst.delta, inst.delta) - _gram(inst.beta, inst.beta)
    r3 = _gram(inst.alpha, inst.beta) - _gram(inst.gamma, inst.delta)
    r1[m] -= inst.alpha[0]
    r2[m] -= inst.delta[m]
    return tuple(float(np.max(np.abs(r))) for r in (r1, r2, r3))


# -- answer checks ------------------------------------------------------------------

# Exact data at Hankel norm h have corner entries up to 1/(1-h^2), so the
# attainable accuracy of every recovered quantity scales with that factor.
REL_TOL = 1e-12


class CheckFailure(Exception):
    """An operation's output contradicts the independent computation."""


def _reject_constant(token):
    raise CheckFailure(f"non-strict JSON token {token}")


def parse_strict(text: str):
    """Parse a report, refusing NaN and Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"report is not JSON: {exc}") from exc


def _scale(inst: Instance) -> float:
    return 1.0 / (1.0 - inst.norm ** 2)


def _symbol_from_report(obj, inst: Instance) -> dict:
    if obj.get("rows") != inst.p or obj.get("cols") != inst.q:
        raise CheckFailure("recovered g has the wrong shape")
    out = {}
    for item in obj["coeffs"]:
        mat = np.array([[complex(re, im) for re, im in row] for row in item["mat"]])
        if mat.shape != (inst.p, inst.q):
            raise CheckFailure("recovered coefficient has the wrong shape")
        out[int(item["deg"])] = mat
    return out


def check_solve(text: str, inst: Instance):
    """Judge a ``solve --method poly|truncated`` report against the instance."""
    rep = parse_strict(text)
    if rep.get("accepted") is not True:
        raise CheckFailure("solve report not accepted")
    coeffs = _symbol_from_report(rep["g"], inst)
    if any(d < 0 for d in coeffs):
        raise CheckFailure("recovered g has negative-degree coefficients")
    m, tol = inst.m, REL_TOL * _scale(inst)
    g_norm = float(np.max(np.abs(inst.g)))
    zero = np.zeros((inst.p, inst.q), dtype=complex)
    gap = max(float(np.max(np.abs(coeffs.get(k, zero) - inst.g[k]))) for k in range(m + 1))
    if gap > tol * g_norm:
        raise CheckFailure(f"recovered g off by {gap:.3e} (bound {tol * g_norm:.3e})")
    tail = max((float(np.max(np.abs(c))) for d, c in coeffs.items() if d > m), default=0.0)
    if tail > tol * g_norm:
        raise CheckFailure(f"coefficients beyond degree m reach {tail:.3e}")
    rec = np.array([coeffs.get(k, zero) for k in range(m + 1)])
    om = corner_omega(rec)
    n_p = (m + 1) * inst.p
    ac = np.vstack([inst.alpha.reshape(n_p, inst.p), inst.gamma.reshape(-1, inst.p)])
    bd = np.vstack([inst.beta.reshape(n_p, inst.q), inst.delta.reshape(-1, inst.q)])
    rhs = np.zeros((om.shape[0], inst.p + inst.q), dtype=complex)
    rhs[: inst.p, : inst.p] = np.eye(inst.p)
    rhs[-inst.q :, inst.p :] = np.eye(inst.q)
    res = float(np.max(np.abs(om @ np.hstack([ac, bd]) - rhs)))
    if res > tol:
        raise CheckFailure(f"corner equations miss by {res:.3e} (bound {tol:.3e})")


def check_contraction(text: str, inst: Instance):
    """Judge a ``check`` report: pass, zeros placed, and the true Hankel norm."""
    rep = parse_strict(text)
    if rep.get("overall") != "pass":
        raise CheckFailure(f"check overall is {rep.get('overall')!r}")
    entries = {e["name"]: e for e in rep["entries"]}
    for name in ("alpha_det_zeros", "delta_det_zeros"):
        if entries.get(name, {}).get("verdict") != "pass":
            raise CheckFailure(f"{name} verdict is not pass")
    if "hankel_norm" not in entries:
        raise CheckFailure("check report has no hankel_norm entry")
    own = spectral_norm(hankel_corner(inst.g))
    diff = abs(entries["hankel_norm"]["value"] - own)
    if diff > REL_TOL * _scale(inst):
        raise CheckFailure(f"hankel_norm off by {diff:.3e} from the corner SVD")
