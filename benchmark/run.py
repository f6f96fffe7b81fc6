"""End-to-end benchmark of ``hankelinv solve`` and ``hankelinv check``.

Usage, from the repository root:

    python3 benchmark/run.py --workload poly-solve --seed 1 --seconds 20 --trace 0

One process, one client in a closed loop: each operation is the in-process
call ``hankelinv.cli.main([...])`` on a problem file, stdout captured, and
the next starts when it returns.  A run attempts whole rounds over the
workload's eight instances, after one untimed warm-up round, until
``--seconds`` have passed and at least MIN_ROUNDS rounds are done.  Every
report is checked against the benchmark's own numpy computation
(problems.py).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of stdout is one JSON object; a human summary goes to stderr.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import problems  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

ROUND = 8            # instances per round, one operation each
MIN_ROUNDS = 13      # >= 100 operations, so ten or more lie beyond p90
SETUP_REPEATS = 3   # fresh interpreters before the timed loop, and again after


@dataclass(frozen=True)
class Workload:
    p: int
    q: int
    m: int
    norm: float
    argv: tuple
    check: object


WORKLOADS = {
    "poly-solve": Workload(3, 3, 32, 0.9, ("solve", "--method", "poly"), problems.check_solve),
    "window-solve": Workload(2, 2, 24, 0.9, ("solve", "--method", "truncated"), problems.check_solve),
    "contraction-check": Workload(3, 3, 32, 0.99, ("check",), problems.check_contraction),
}

# per-layer metrics printed by a traced run: (span name, figure, unit)
LAYER_METRICS = (
    ("series.lp_mul", "calls", "count"),
    ("series.lp_mul", "block_products", "count"),
    ("series.lp_mul", "self_ms", "ms"),
    ("inversion.identity_residual_triple", "calls", "count"),
    ("inversion.identity_residual_triple", "self_ms", "ms"),
    ("inversion.build_m", "self_ms", "ms"),
    ("inversion.build_m", "dense_bytes", "B"),
    ("structured.build", "calls", "count"),
    ("structured.build", "self_ms", "ms"),
    ("solver.tri_toeplitz_solve", "calls", "count"),
    ("solver.tri_toeplitz_solve", "self_ms", "ms"),
    ("solver.solve_dual_phi", "self_ms", "ms"),
    ("solver.solve_truncated", "self_ms", "ms"),
    ("solver.solve_polynomial", "self_ms", "ms"),
    ("diagnostics.check_zero_locations", "self_ms", "ms"),
    ("diagnostics.hankel_norm", "self_ms", "ms"),
    ("diagnostics.check_identities", "self_ms", "ms"),
    ("diagnostics.check_strict_contraction", "self_ms", "ms"),
    ("diagnostics.inclusion_residuals", "self_ms", "ms"),
    ("io_json.read_json", "self_ms", "ms"),
    ("io_json.problem_from_json", "self_ms", "ms"),
    ("io_json.dumps", "self_ms", "ms"),
    ("cli.main", "self_ms", "ms"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_facts() -> str:
    import platform

    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (
        f"host: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"numpy {np.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas['name']} {blas['version']}, {THREAD_VARS[1]}={os.environ[THREAD_VARS[1]]}"
    )


def calibration_ms() -> float:
    """A fixed Python plus numpy loop: a reference for the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160) + 1j
    for _ in range(30):
        a = a @ a
        a /= np.abs(a).max()
    return (time.perf_counter() - start) * 1e3


def measure_setup() -> list:
    """Wall times from a fresh interpreter to ``import hankelinv.cli`` done."""
    code = "import hankelinv.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("fresh interpreter could not import hankelinv")
    return times


class Runner:
    """Runs and checks operations; one instance per workload run."""

    def __init__(self, cli, workload: Workload, instances, paths):
        self.cli = cli
        self.workload = workload
        self.jobs = list(zip(instances, paths))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # exited 0 but contradicted the check
        self.report_bytes = 0

    def operation(self, path):
        """One timed call; returns (seconds, exit code, captured stdout)."""
        out = io.StringIO()
        argv = [*self.workload.argv, path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # counted as a failed operation; the run goes on
                code = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue()

    def judge(self, inst, code, text):
        self.attempted += 1
        self.report_bytes += len(text.encode("utf-8"))
        try:
            if code != 0:
                raise problems.CheckFailure(f"exit {code}")
            self.workload.check(text, inst)
        except problems.CheckFailure as exc:
            self.failed += 1
            self.wrong += code == 0
            log(f"operation failed on instance {inst.seed}: {exc}")

    def round(self):
        """One operation per instance; returns their latencies in seconds."""
        lat = []
        for inst, path in self.jobs:
            elapsed, code, text = self.operation(path)
            lat.append(elapsed)
            self.judge(inst, code, text)
        return lat


def import_package():
    if not os.path.isfile(os.path.join(SRC, "hankelinv", "cli.py")):
        log(f"benchmark: no hankelinv sources under {SRC}")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import hankelinv.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        log(f"benchmark: imported hankelinv from {cli.__file__}, not from {SRC}")
        raise SystemExit(2)
    return cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cli = import_package()
    log(host_facts())
    calib_start = calibration_ms()
    setup_times = measure_setup()

    os.makedirs(OUT, exist_ok=True)
    instances, paths = [], []
    for i in range(ROUND):
        inst = problems.make_instance(
            workload.p, workload.q, workload.m, workload.norm, (args.seed, i)
        )
        path = os.path.join(OUT, f"{args.workload}-{i}.json")
        problems.write_problem(path, inst)
        instances.append(inst)
        paths.append(path)

    runner = Runner(cli, workload, instances, paths)
    for path in paths:  # warm-up, untimed and uncounted
        runner.operation(path)

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    busy = 0.0
    rounds = 0
    loop_start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - loop_start < args.seconds or (
        tracer is not None and rounds % 2
    ):
        if tracer is not None and rounds % 2:
            tracer.install()
            try:
                lat = runner.round()
            finally:
                tracer.uninstall()
            traced += lat
        else:
            lat = runner.round()
            plain += lat
        busy += sum(lat)
        rounds += 1
    calib_end = calibration_ms()
    setup_s = statistics.median(setup_times + measure_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    log(
        f"{args.workload}: seed {args.seed}, {runner.attempted} operations in {rounds} rounds, "
        f"{runner.failed} failed; calibration {calib_start:.1f} ms at start, "
        f"{calib_end:.1f} ms at end (reference only)"
    )
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_p50_ms": (float(np.percentile(plain, 50)) * 1e3, "ms"),
            "latency_p90_ms": (float(np.percentile(plain, 90)) * 1e3, "ms"),
            "throughput_per_s": ((runner.attempted - runner.failed) / busy, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, len(traced), runner)
        metrics["trace.overhead_ms"] = (
            (float(np.percentile(traced, 50)) - float(np.percentile(plain, 50))) * 1e3,
            "ms",
        )
        with open(os.path.join(OUT, f"{args.workload}-spans.json"), "w") as fh:
            json.dump({"fields": ["op", "name", "parent", "start", "end"], "spans": tracer.spans}, fh)
    for name, (value, unit) in metrics.items():
        log(f"  {name:45s} {value:14.4f} {unit}")
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, n_traced, runner):
    calls, self_s = tracer.totals()
    out = {}
    for name, figure, unit in LAYER_METRICS:
        if figure == "calls":
            value = calls[name] / n_traced
        elif figure == "self_ms":
            value = self_s[name] * 1e3 / n_traced
        else:
            value = tracer.work[f"{name}.{figure}"] / n_traced
        out[f"{name}.{figure}"] = (value, unit)
    out["io_json.report_bytes"] = (runner.report_bytes / runner.attempted, "B")
    return out


if __name__ == "__main__":
    raise SystemExit(main())
