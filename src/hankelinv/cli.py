"""File-driven front end.

Commands read problem/symbol JSON files and write machine-readable reports
to stdout, diagnostics to stderr and numpy's warnings nowhere.  Exit codes:

* 0 - success / all checks pass
* 2 - file missing or malformed, an output file that cannot be written,
  or an input too large to allocate
* 3 - synthesis failure
* 4 - solve refused (data identities, injectivity, singular corner)
* 5 - a check or verification failed (its report is still written)
* 6 - no failure but at least one inconclusive verdict
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import diagnostics, io_json, oracle, solver
from .errors import (
    DataIdentityError,
    FactorizationUnavailableError,
    InjectivityError,
    ParseError,
    ShapeError,
    SingularCornerError,
    SynthesisError,
)
from .inversion import build_omega, check_lemma_suite, inverse_margin, verify_inverse

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SYNTHESIS = 3
EXIT_REFUSED = 4
EXIT_FAIL = 5
EXIT_INCONCLUSIVE = 6

_REFUSAL_ERRORS = (
    DataIdentityError,
    InjectivityError,
    SingularCornerError,
    FactorizationUnavailableError,
)


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def _emit(obj):
    print(io_json.dumps(obj))


def _check_exit(report) -> int:
    return {"fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}.get(report.overall(), EXIT_OK)


def _load_symbol(path):
    obj = io_json.read_json(path)
    return io_json.poly_from_json(obj, name="g")


def cmd_synthesize(args) -> int:
    if args.random:
        if None in (args.p, args.q, args.m, args.norm):
            _err("--random needs --p, --q, --m and --norm")
            return EXIT_PARSE
        if not 0 <= args.seed < 2**64:  # the file records the seed as a 64-bit integer
            _err(f"--seed must be an integer in 0 .. 2**64 - 1, got {args.seed}")
            return EXIT_PARSE
        try:
            fx = oracle.random_fixture(args.p, args.q, args.m, args.norm, args.seed)
        except ValueError as exc:
            _err(str(exc))
            return EXIT_PARSE
        metadata = {"seed": args.seed, "provenance": fx.note}
    else:
        if args.g_file is None:
            _err("either a symbol file or --random is required")
            return EXIT_PARSE
        g = _load_symbol(args.g_file)
        fx = oracle.synthesize_data(g, note=f"synthesized from {args.g_file}")
        metadata = {"provenance": fx.note}
    doc = io_json.problem_to_json(fx.data, g=fx.g, metadata=metadata)
    io_json.write_json(args.out_file, doc)
    print(f"wrote {args.out_file}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.order is not None and args.method not in ("truncated", "all"):
        _err(f"--order sets the window of the truncated route; --method {args.method} "
             "has no window (only truncated and all read --order)")
        return EXIT_PARSE
    data, _, _ = io_json.problem_from_json(io_json.read_json(args.data_file))
    try:
        if args.method == "all":
            reports, gap, notes = solver.solve_all(data, n_blocks=args.order, tol=args.tol)
            doc = {
                "methods": reports,
                "cross_method_gap": gap,
                "notes": notes,
            }
            accepted = all(r.accepted for r in reports.values())
        else:
            fn = {
                "poly": solver.solve_polynomial,
                "truncated": lambda d, tol: solver.solve_truncated(
                    d, n_blocks=args.order, tol=tol
                ),
                "factorization": solver.solve_factorization,
            }[args.method]
            report = fn(data, tol=args.tol)
            doc, accepted = report, report.accepted
    except _REFUSAL_ERRORS as exc:
        _err(str(exc))
        _emit({"refused": True, "reason": str(exc)})
        return EXIT_REFUSED
    _emit(doc)
    if not accepted:
        _err("solution rejected: inclusion residuals above tolerance")
        return EXIT_REFUSED
    return EXIT_OK


def cmd_check(args) -> int:
    data, _, _ = io_json.problem_from_json(io_json.read_json(args.data_file))
    report = diagnostics.check_strict_contraction(data, tol=args.tol)
    _emit(io_json.check_report_to_json(report))
    return _check_exit(report)


def cmd_verify(args) -> int:
    data, embedded_g, _ = io_json.problem_from_json(io_json.read_json(args.data_file))
    g = _load_symbol(args.g_file) if args.g_file else embedded_g
    if g is None:
        _err("no symbol to verify: pass a g file or embed g in the problem file")
        return EXIT_PARSE
    report = diagnostics.verify_solution(data, g, tol=args.tol)
    _emit(io_json.check_report_to_json(report))
    return _check_exit(report)


def cmd_invert(args) -> int:
    g = _load_symbol(args.g_file)
    fx = oracle.synthesize_data(g)
    n = fx.data.extent() if args.order is None else args.order
    suite = check_lemma_suite(fx.data, n, tol=args.tol)
    margin = inverse_margin(fx.data, g, n)
    inv = verify_inverse(build_omega(g, n), suite["m"], g.rows, g.cols, margin)
    doc = {
        "window": n,
        "margin": margin,
        "inverse_residuals": {"m_omega": inv["m_omega"], "omega_m": inv["omega_m"]},
        "lemma_suite": {
            k: v
            for k, v in suite.items()
            if k != "margin" and isinstance(v, (int, float, bool))
        },
    }
    _emit(doc)
    if margin <= 0 or suite["inconclusive"]:
        return EXIT_INCONCLUSIVE
    numeric = [inv["m_omega"], inv["omega_m"]] + [
        v for k, v in suite.items() if isinstance(v, float)
    ]
    # a NaN residual was not measured, and it fails like one above tol
    worst = next((v for v in numeric if math.isnan(v)), max(numeric))
    if not worst <= args.tol:
        _err(f"identity residual {worst:.3e} above tolerance {args.tol:.1e}")
        return EXIT_FAIL
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    ap = argparse.ArgumentParser(
        prog="hankelinv",
        description="Structured inverse problems for matrix symbols on the unit circle.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synthesize", help="build the data set generated by a symbol")
    sp.add_argument("g_file", nargs="?", help="JSON symbol file (plus support)")
    sp.add_argument("out_file", help="output problem file")
    sp.add_argument("--random", action="store_true", help="draw a random symbol instead")
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--norm", type=float, help="target Hankel norm (< 1)")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_synthesize)

    so = sub.add_parser("solve", help="recover g from a problem file")
    so.add_argument("data_file")
    so.add_argument(
        "--method",
        choices=["poly", "truncated", "factorization", "all"],
        default="all",
    )
    so.add_argument(
        "--order", type=int, default=None,
        help="window size N of the truncated route (default m+1, where it is exact); "
        "read by --method truncated and all only",
    )
    so.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
    so.set_defaults(func=cmd_solve)

    sc = sub.add_parser("check", help="data identities and solvability conditions")
    sc.add_argument("data_file")
    sc.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
    sc.set_defaults(func=cmd_check)

    sv = sub.add_parser("verify", help="verify a candidate solution against data")
    sv.add_argument("data_file")
    sv.add_argument("g_file", nargs="?")
    sv.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
    sv.set_defaults(func=cmd_verify)

    si = sub.add_parser("invert", help="inversion identity suite for a symbol")
    si.add_argument("g_file")
    si.add_argument(
        "--order", type=int, default=None,
        help="window size N (default m+1, where every identity is exact; N <= m is inconclusive)",
    )
    si.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
    si.set_defaults(func=cmd_invert)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "order", None) is not None and args.order < 1:
        _err(f"--order must be a positive block count, got {args.order}")
        return EXIT_PARSE
    if hasattr(args, "tol") and not 0 < args.tol < float("inf"):
        _err(f"--tol must be a finite positive number, got {args.tol}")
        return EXIT_PARSE
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow reads inf or NaN; reports judge it
            return args.func(args)
    except (ParseError, ShapeError) as exc:
        _err(str(exc))
        return EXIT_PARSE
    except SynthesisError as exc:  # raised before any file is written
        _err(str(exc))
        return EXIT_SYNTHESIS
    except MemoryError as exc:  # a window too large, e.g. --order 1000000
        _err(f"out of memory: {exc}")
        return EXIT_PARSE


def entrypoint():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
