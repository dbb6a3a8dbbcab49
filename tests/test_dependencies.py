"""The package runs on the standard library alone."""

import ast
import importlib.util
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
