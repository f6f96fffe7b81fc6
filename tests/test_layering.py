"""The package's module layering, read from the source with ``ast``.

The modules stack as series -> structured -> inversion -> diagnostics ->
solver: no module below the solver routes imports them, and no module
reaches into another for a private (underscore) name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hankelinv"
BELOW_SOLVER = ("series", "structured", "inversion", "diagnostics")


def _package_imports(path):
    """(line, module, name) for every name imported from a package module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                mod = node.module
            elif node.level == 0 and (node.module or "").startswith("hankelinv"):
                mod = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                # "from . import solver" imports the module itself
                out.append((node.lineno, mod or alias.name, None if mod is None else alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hankelinv."):
                    out.append((node.lineno, alias.name.partition(".")[2], None))
    return out


def test_modules_import_no_private_names_and_nothing_above_them():
    files = sorted(SRC.glob("*.py"))
    assert {f.stem for f in files} >= set(BELOW_SOLVER) | {"solver"}
    bad = []
    for path in files:
        for line, mod, name in _package_imports(path):
            where = f"{path.name}:{line}"
            if name is not None and name.startswith("_"):
                bad.append(f"{where} imports private {mod}.{name}")
            if path.stem in BELOW_SOLVER and mod.partition(".")[0] == "solver":
                bad.append(f"{where} imports from solver")
    assert not bad, bad
