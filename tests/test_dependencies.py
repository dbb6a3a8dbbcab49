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
    while cProfile saw 2 calls.  With ``toric`` and ``polytopes`` imported
    lazily, ``test_every_call_of_a_reached_function_records_a_span`` of
    ``bench/test_bench.py`` fails on ``verify_catalog`` and ``region_toric``
    (0 spans against 2), although the set-up probe imports both modules
    anyway.  So the CLI imports every module up front."""
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


def test_no_rat_of_an_int_literal():
    """``Rat(n)`` of an int is that int, so a one-argument call on an int
    literal is a no-op call; write the literal."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Rat"
                and len(node.args) == 1
                and not node.keywords
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
                arg = arg.operand
            if isinstance(arg, ast.Constant) and type(arg.value) is int:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_no_constructor_bypass():
    """``Name.__new__(Name)`` builds an instance without running its
    ``__init__``, so the class's own invariants go unchecked; build it
    through the constructor or use a plain value.  ``super().__new__(cls)``
    inside ``__new__`` (a singleton) is not a bypass."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and isinstance(node.func.value, ast.Name)
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == node.func.value.id
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
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
# criteria calls, and stored fields (``Class.field``) that none of them reads,
# kept on purpose.
KEPT = {
    "validate": "reference oracle: homogeneity, a diagonal Cartan and the bracket",
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
            # a dotted name only: a bare word such as the JSON key "unit"
            # names nothing
            parts = node.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                for part in parts:
                    yield part, node.lineno


def _callers():
    """The files whose uses keep a name alive: the package, the benchmark
    and the acceptance criteria."""
    callers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return callers + [ROOT / "tests" / "test_acceptance.py"]


def test_every_public_name_has_a_caller():
    """A public function or method that no package code, benchmark file or
    acceptance criterion calls is surface every refactor must carry; delete
    it or say in ``KEPT`` why it stays."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in _callers():
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


def _stored_fields(tree):
    """(class, field, line) of each ``NamedTuple`` field and each
    ``__slots__`` entry of a module-level class."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        named = any(ast.unparse(base) == "NamedTuple" for base in cls.bases)
        for node in cls.body:
            if named and isinstance(node, ast.AnnAssign):
                yield cls.name, node.target.id, node.lineno
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                for entry in node.value.elts:
                    yield cls.name, entry.value, entry.lineno


def test_every_stored_field_is_read():
    """A stored field that no package code, benchmark file or acceptance
    criterion reads as an attribute is state every constructor must build
    and carry; derive it where it is needed, or say in ``KEPT`` why it
    stays."""
    loaded = set()
    for path in _callers():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls, name, line in _stored_fields(tree):
            if name not in loaded and f"{cls}.{name}" not in KEPT:
                unread.append(f"{path.name}:{line}: {cls}.{name}")
    assert not unread, "stored fields nothing reads: " + ", ".join(unread)
    stale = [key for key in KEPT if "." in key and key.split(".")[1] in loaded]
    assert not stale, "KEPT fields that are now read: " + ", ".join(stale)
