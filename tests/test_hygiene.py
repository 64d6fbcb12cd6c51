"""Static checks on the package: no dead imports, and the benchmark's traced
names still resolve.

`bench/tracing.py` wraps the functions it lists in TRACED by name, so a
renamed or deleted function would only show up as a crash of the traced
benchmark pass.  Loading the file here (without installing anything) turns
that into a test failure.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "betalab"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused += _unused_imports(path)
    assert not unused, unused


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"betalab.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert not missing, missing
