"""Static checks on the package: numpy is its only dependency, no dead
imports, no __all__ lists, no unreachable public names, no private name that
src/ never uses, and the benchmark's traced names still resolve.

`bench/tracing.py` wraps the functions it lists in TRACED by name, so a
renamed or deleted function would only show up as a crash of the traced
benchmark pass.  Loading the file here (without installing anything) turns
that into a test failure, and one traced run of three commands checks what
its hooks read.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
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
    "ConditionalMeasure.cylinder_mass",
    "conditional_measure",
    # the marker process's marginal P(R_0 = 1), exact by transfer counting and
    # sampled through _r_values: tests/test_coding.py checks each against
    # enumeration and against the other, which tests the marginal law of
    # _r_values that estimate_near_diagonal draws from
    "CodedProcess.exact_marginal",
    "CodedProcess.sample_marginal",
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
    """Top-level functions and classes whose names do not start with an
    underscore, and the methods and properties of those classes that do not
    either, each named Class.member."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{member.name}"
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
    return names


def test_no_module_declares_all():
    """A name is public by its spelling alone; the package root's imports are
    the one export list, so no module keeps an __all__ that could drift."""
    declaring = []
    for path in sorted(PACKAGE.glob("*.py")):
        declaring += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
        ]
    assert not declaring, declaring


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


def _uses(node: ast.stmt) -> set[str]:
    """Names a statement refers to.  A definition's references to its own
    name, a method's to itself included, are recursion, not use."""
    if isinstance(node, ast.ClassDef):
        header = [*node.bases, *node.keywords, *node.decorator_list]
        refs = set().union(*map(_referenced, header), *map(_uses, node.body))
    else:
        refs = _referenced(node)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        refs.discard(node.name)
    return refs


def _modules() -> list[tuple[str, ast.Module]]:
    """(name, syntax tree) of every module but the package root, whose
    re-exports are imports only."""
    return [
        (path.stem, ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _src_uses(modules) -> set[str]:
    """Names the package's top-level statements refer to; an import alone is
    no use, nor is a constant's assignment a use of the constant."""
    used = set()
    for _, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            refs = _uses(node)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                refs -= set(_assigned(node))
            used |= refs
    return used


def test_every_public_name_is_reached():
    """A public name is used by another definition in src/, by an acceptance
    criterion, by the README or by the benchmark's tracer; the package root's
    re-exports do not count as uses.  Members match by their own name, as
    attribute access cannot tell which class it reaches."""
    modules = _modules()
    public = [(module, name) for module, tree in modules for name in _public_names(tree)]
    used = _src_uses(modules)
    used |= _referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for names in _load_tracing().TRACED.values():
        used |= {part for name in names for part in name.split(".")}
    unreached = [
        f"{module}.{name}"
        for module, name in public
        if name not in REFERENCE_ONLY and name.split(".")[-1] not in used
    ]
    assert not unreached, unreached


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _assigned(node: ast.Assign | ast.AnnAssign) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _private_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants whose names start with an
    underscore, and the private methods of every top-level class, each named
    Class.member; dunder methods are not private."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{member.name}"
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and _is_private(member.name)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names += filter(_is_private, _assigned(node))
    return names


def test_every_private_name_is_used_in_src():
    """A private name is referenced from src/ outside its own definition:
    tests, the tracer and docstrings do not keep it alive, so code left
    behind when its last caller goes fails here.  Members match by their own
    name, as in `test_every_public_name_is_reached`."""
    modules = _modules()
    used = _src_uses(modules)
    unused = [
        f"{module}.{name}"
        for module, tree in modules
        for name in _private_names(tree)
        if name.split(".")[-1] not in used
    ]
    assert not unused, unused


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


_TRACED_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from betalab.cli import main
out = sys.argv[2]
for label, argv in json.loads(sys.argv[3]).items():
    assert main([*argv, "--out", f"{out}/{label}"]) == 0, label
metrics = tracing.layer_metrics(tracer)
tracing.span_table(tracer)
print(json.dumps({name: value for name, (value, _) in metrics.items()}))
"""


def test_traced_commands_run(tmp_path):
    """The tracer's hooks bind the arguments of the methods they wrap and
    read `ParryDensity._orbit`, so a changed signature or attribute would
    only crash the traced benchmark pass.  Small `parry`, `decay` and
    `lemma32 --mu parry` runs under an installed tracer, in a child process
    because `install` patches the package for good."""
    runs = {
        "parry": ["parry", "--beta", "2.2", "--grid", "16", "--fourier", "2"],
        "decay": ["decay", "--beta", "(1+sqrt5)/2", "--iid", "1/2,1/2", "--N", "400",
                  "--samples", "16", "--workers", "1"],
        "lemma32": ["lemma32", "--mu", "parry", "--beta", "(1+sqrt5)/2", "--m", "4"],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _TRACED_CHILD, str(ROOT / "bench" / "tracing.py"), str(tmp_path),
         json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    metrics = json.loads(child.stdout.splitlines()[-1])
    assert metrics["parry.terms"] > 0
