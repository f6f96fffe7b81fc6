"""Every function the benchmark tracer patches by name exists in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{name}"
        for mod, name in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"), name, None))
    ]
    assert tracer.TARGETS
    assert not missing, f"traced functions missing from {tracer.PACKAGE}: {missing}"
