"""Self-test of the benchmark's generator, checks and tracer.

    python3 benchmark/selftest.py

For each workload it shows that the generated data satisfy the three data
identities in plain numpy, that a real report passes its check, and that
the check rejects a perturbed g, a tampered report, a NaN token and data
from a broken generator.  It also shows that the tracer puts every patched
name back and records one outermost span per call.  Exits 1 if any
expectation does not hold.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import run  # sets the thread variables before numpy is imported

import numpy as np  # noqa: E402

import problems  # noqa: E402
import tracer  # noqa: E402

IDENTITY_BOUND = 1e-12
FAILURES = []


def expect(ok, what):
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejects(check, text, inst, what):
    try:
        check(text, inst)
    except problems.CheckFailure as exc:
        expect(True, f"{what} rejected ({exc})")
    else:
        expect(False, f"{what} rejected")


def tampered_solve_reports(text, inst):
    rep = json.loads(text)
    g_scale = float(np.max(np.abs(inst.g)))
    off = copy.deepcopy(rep)
    off["g"]["coeffs"][0]["mat"][0][0][0] += 1e-9 * g_scale
    yield "g perturbed by 1e-9 relative", json.dumps(off)
    tail = copy.deepcopy(rep)
    tail["g"]["coeffs"].append(
        {"deg": inst.m + 1, "mat": [[[1e-9 * g_scale, 0.0]] * inst.q] * inst.p}
    )
    yield "coefficient beyond degree m", json.dumps(tail)
    refused = dict(rep, accepted=False)
    yield "report marked not accepted", json.dumps(refused)
    nan = copy.deepcopy(rep)
    nan["residual_identities"][0] = float("nan")
    yield "NaN token", json.dumps(nan)
    yield "truncated report", text[: len(text) // 2]


def tampered_check_reports(text, inst):
    rep = json.loads(text)
    for name in ("alpha_det_zeros", "delta_det_zeros", "hankel_norm"):
        bad = copy.deepcopy(rep)
        for entry in bad["entries"]:
            if entry["name"] == name:
                if name == "hankel_norm":
                    entry["value"] += 1e-9
                else:
                    entry["verdict"] = "inconclusive"
        yield f"tampered {name}", json.dumps(bad)
    yield "overall fail", json.dumps(dict(rep, overall="fail"))
    nan = copy.deepcopy(rep)
    nan["entries"][0]["value"] = float("inf")
    yield "Infinity token", json.dumps(nan)


def main() -> int:
    cli = run.import_package()
    os.makedirs(run.OUT, exist_ok=True)
    for name, wl in run.WORKLOADS.items():
        print(name)
        inst = problems.make_instance(wl.p, wl.q, wl.m, wl.norm, (0, 0))
        res = problems.identity_residuals(inst)
        expect(max(res) < IDENTITY_BOUND, f"data identities hold: {', '.join(f'{r:.1e}' for r in res)}")
        path = os.path.join(run.OUT, f"selftest-{name}.json")
        problems.write_problem(path, inst)
        runner = run.Runner(cli, wl, [inst], [path])
        _, code, text = runner.operation(path)
        runner.judge(inst, code, text)
        expect(code == 0 and runner.failed == 0, "the real report passes")
        runner.judge(inst, 4, text)
        expect(runner.failed == 1 and runner.wrong == 0, "a non-zero exit counts as failed")

        tampered = (
            tampered_check_reports if wl.check is problems.check_contraction
            else tampered_solve_reports
        )
        for what, bad in tampered(text, inst):
            rejects(wl.check, bad, inst, what)

        broken = dataclasses.replace(inst, alpha=inst.alpha + 1e-9)
        expect(
            max(problems.identity_residuals(broken)) > IDENTITY_BOUND,
            "data from a broken generator violate the identities",
        )
        if wl.check is problems.check_solve:
            rejects(wl.check, text, broken, "report judged against broken data")

        tr = tracer.Tracer()
        tr.install()
        try:
            runner.operation(path)
        finally:
            tr.uninstall()
        calls, _ = tr.totals()
        expect(
            calls["cli.main"] == 1 and calls["io_json.dumps"] == 1 and calls["series.lp_mul"] > 0,
            f"one traced operation: {calls['cli.main']} cli.main, {calls['io_json.dumps']} "
            f"outermost io_json.dumps, {calls['series.lp_mul']} series.lp_mul spans",
        )

    print("tracer")
    tr = tracer.Tracer()
    before = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("hankelinv")}
    tr.install()
    patched = [
        name for name in before
        if any(vars(sys.modules[name])[a] is not v for a, v in before[name].items())
    ]
    expect(len(patched) >= len(set(m for m, _ in tracer.TARGETS)), f"tracer patched {len(patched)} modules")
    tr.uninstall()
    after = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("hankelinv")}
    expect(
        all(after[k][a] is v for k, ns in before.items() for a, v in ns.items()),
        "uninstall restores every name",
    )
    if FAILURES:
        print(f"{len(FAILURES)} expectation(s) failed")
        return 1
    print("all expectations hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
