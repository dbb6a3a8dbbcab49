"""The package runs on the standard library alone."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superflag"


def test_modules_import_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def _after_cli_import(expression: str) -> str:
    """What a fresh interpreter prints for ``expression`` (over ``sys``)
    right after ``import superflag.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    probe = f"import sys, superflag.cli; print({expression})"
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout


def test_cli_starts_without_dataclass_machinery():
    """Records are NamedTuples or slotted classes: ``dataclasses`` (which
    pulls in ``inspect``) costs every short CLI run tens of milliseconds."""
    out = _after_cli_import("sorted({'dataclasses', 'inspect'} & set(sys.modules))")
    assert out == "[]\n"


def test_cli_import_loads_every_module():
    """``bench/tracer.py``'s ``install`` rebinds each traced function by
    name in the ``superflag`` modules loaded at that moment, once.  A module
    imported later keeps its unpatched by-name bindings, so the calls made
    through it record no spans: with ``toric`` imported lazily inside a
    command, ``linalg.nullspace`` recorded no span on ``verify-example``
    while cProfile saw 4 calls.  So the CLI imports every module up front."""
    out = _after_cli_import(
        "sorted(m for m in sys.modules if m.startswith('superflag.'))"
    )
    modules = sorted(
        f"superflag.{path.stem}" for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    )
    assert out == f"{modules}\n"


def test_no_true_division_outside_linalg_div():
    """A bare ``/`` between two ints gives a float, so every quotient in the
    package goes through the exact ``linalg.div``."""
    found = []
    inside_div = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "linalg.py":
            [div] = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "div"
            ]
            inside_div = {id(node) for node in ast.walk(div)}
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)
                and id(node) not in inside_div
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert inside_div, "linalg.div not found"
    assert found == []


def test_tracer_targets_are_package_functions():
    """Every layer ``bench/tracer.py`` wraps is a plain function of the
    package, so a rename shows up here and not only in the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for target in tracer.TARGETS:
        code = tracer.resolve(target)[2].__code__
        assert Path(code.co_filename).resolve().parent == PACKAGE, target


# Public names that nothing in the package, the benchmark or the acceptance
# criteria calls, kept on purpose.
KEPT = {
    "validate": "reference oracle: the Cartan action against the stored weights",
    "tensor_power": "reference oracle: tensor powers against the tower's levels",
    "exponent_weight": "reference oracle: the weight of a scanned monomial",
    "supertrace": "reference check: the sl and osp bases are supertraceless",
    "parse_essential_set": "round-trip twin of serialize_essential_set",
    "serialize_system": "round-trip twin of parse_system",
}


def _public_definitions(tree):
    """(name, first line, last line) of each public module function and
    each public method of a module-level class."""
    scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of every use of a name: identifiers, attributes,
    imported names and the components of dotted-name strings (the
    tracer's targets), leaving out the ``__all__`` lists."""
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip |= {id(sub) for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                for part in node.value.split("."):
                    yield part, node.lineno


def test_every_public_name_has_a_caller():
    """A public function or method that no package code, benchmark file or
    acceptance criterion calls is surface every refactor must carry; delete
    it or say in ``KEPT`` why it stays."""
    callers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in callers:
        for name, line in _references(ast.parse(path.read_text(encoding="utf-8"))):
            refs.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, first, last in _public_definitions(tree):
            used = any(
                not (where == path and first <= line <= last)
                for where, line in refs.get(name, ())
            )
            if not used and name not in KEPT:
                dead.append(f"{path.name}:{first}: {name}")
    assert not dead, "public names without a caller: " + ", ".join(dead)
    stale = [name for name in KEPT if name in refs]
    assert not stale, "KEPT names that now have a caller: " + ", ".join(stale)
