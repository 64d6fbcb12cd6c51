"""Static checks on the package: numpy is its only dependency, no dead
imports, no unreachable public names, and the benchmark's traced names still
resolve.

`bench/tracing.py` wraps the functions it lists in TRACED by name, so a
renamed or deleted function would only show up as a crash of the traced
benchmark pass.  Loading the file here (without installing anything) turns
that into a test failure.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "betalab"

# Public names that only tests reach, kept because tests compare against them.
REFERENCE_ONLY = {
    # exact conditional law of a Markov source: the oracle that
    # tests/test_sources.py::test_near_diagonal_matches_enumeration checks
    # near_diagonal_mass against
    "ConditionalMeasure",
    "conditional_measure",
}


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


def test_package_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {root}"
                for root in roots
                if root not in ("betalab", "numpy") and root not in sys.stdlib_module_names
            ]
    assert not foreign, foreign


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _public_names(tree: ast.Module) -> list[str]:
    """The module's __all__, or else its top-level functions and classes
    whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _referenced(node: ast.AST) -> set[str]:
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_every_public_name_is_reached():
    """A public name is used by another definition in src/, by an acceptance
    criterion, by the README or by the benchmark's tracer; the package root's
    re-exports do not count as uses."""
    used = set()
    public = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        public += [(path.stem, name) for name in _public_names(tree)]
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue  # an import alone is not a use
            refs = _referenced(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(node.name)  # recursion is not a use
            used |= refs
    used |= _referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for names in _load_tracing().TRACED.values():
        used |= {name.split(".")[0] for name in names}
    unreached = [
        f"{module}.{name}" for module, name in public if name not in used | REFERENCE_ONLY
    ]
    assert not unreached, unreached


def test_traced_names_resolve():
    tracing = _load_tracing()
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
