"""The package runs on the standard library alone."""

import ast
import functools
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
# criteria uses, kept on purpose: ``Class.name`` for a method, property or
# stored field, the bare name for a module function.  Each must still be
# used by a test other than this file.
KEPT = {
    "Representation.validate":
        "reference oracle: homogeneity, a diagonal Cartan and the bracket",
    "Representation.weight":
        "reference oracle: a basis vector's weight, for exponent_weight and "
        "the tensor weight law",
    "tensor_power": "reference oracle: tensor powers against the tower's levels",
    "exponent_weight": "reference oracle: the weight of a scanned monomial",
    "SuperMatrix.supertrace":
        "reference check: the sl and osp bases are supertraceless",
    "parse_essential_set": "round-trip twin of serialize_essential_set",
    "serialize_system": "round-trip twin of parse_system",
    "SuperMatrix.rows":
        "reference view: the dense rows the algebra-basis golden records",
    "CatalogMatch.kind": "checked against an exhaustive search in the tests",
    "CatalogMatch.permutation": "checked against an exhaustive search in the tests",
    "CatalogMatch.essential": "checked against an exhaustive search in the tests",
}


def _annotation(node):
    """An annotation as an expression; a string annotation is parsed."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ast.parse(node.value, mode="eval").body
    return node


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


class _Scope:
    """The names a function, comprehension or module binds, each with how
    it is bound: ("ann", annotation), ("value", expression, scope), ("iter",
    iterated expression, scope), ("item", binding, position) for a part of
    an unpacked target, ("class", C) for the class object, ("self", C) for
    an instance of C, ("function", name), or None when nothing is known."""

    def __init__(self, parent=None, is_class=False):
        self.parent = parent
        self.is_class = is_class
        self.bindings: dict[str, list] = {}

    def bind(self, name: str, how) -> None:
        self.bindings.setdefault(name, []).append(how)


_BUSY = object()  # a binding met again while it is being resolved
# generic collections whose one parameter is the element type
_COLLECTIONS = {
    "list", "set", "frozenset", "Sequence", "Iterable", "Iterator", "Collection",
}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp)
# builtins that return a collection of their argument's elements
_SAME_ELEMENTS = {"sorted", "reversed", "list", "tuple", "set", "frozenset", "iter"}


class _Surface:
    """Which members and functions of the ``package`` modules the
    ``callers`` use.

    A reference ``X.attr`` credits class C's ``attr`` only when X resolves
    to C: ``self``/``cls`` in C's methods, the name C, a parameter or local
    annotated C (also ``C | None`` and string annotations), a local bound to
    ``C(...)``, to ``C.method(...)`` or to a call whose return annotation is
    C, or an attribute whose annotation (or, for a ``__slots__`` field, the
    value ``self.field`` is bound to) is C.  A receiver that resolves to no
    class credits ``attr`` only when a single class defines it.  A module
    function is credited by its bare name.  A use inside the function's own
    body (recursion) does not count."""

    def __init__(self, package: dict[str, ast.Module], callers: dict[str, ast.Module]):
        self.package = package
        self.members: dict[str, dict[str, tuple[str, object, int]]] = {}
        self.bases: dict[str, list[str]] = {}
        self.returns: dict[str, object] = {}
        for tree in package.values():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._index_class(node)
                elif isinstance(node, ast.FunctionDef):
                    self.returns[node.name] = node.returns
        self.definers: dict[str, set[str]] = {}
        for cls, members in self.members.items():
            for name in members:
                self.definers.setdefault(name, set()).add(cls)
        self.slot_values: dict[tuple[str, str], list] = {}
        self._busy: set[int] = set()
        self._comprehensions: dict[int, _Scope] = {}
        self.credits: dict[object, list[tuple[str, int, bool]]] = {}
        self._attributes = []
        for where, tree in callers.items():
            self._visit_module(tree, where, where in package)
        for node, scope, where in self._attributes:
            self._credit_attribute(node, scope, where)

    # -- what the package defines ------------------------------------------

    def _index_class(self, cls: ast.ClassDef) -> None:
        members = self.members[cls.name] = {}
        self.bases[cls.name] = [ast.unparse(base) for base in cls.bases]
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                decorators = {ast.unparse(d) for d in node.decorator_list}
                kind = "property" if "property" in decorators else "method"
                members[node.name] = (kind, node.returns, node.lineno)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members[node.target.id] = ("field", node.annotation, node.lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        for entry in node.value.elts:
                            members[entry.value] = ("slot", None, entry.lineno)
                    elif isinstance(target, ast.Name):
                        members[target.id] = ("field", None, node.lineno)

    def _lookup(self, cls: str, attr: str):
        """(owner, kind, annotation, line) of ``cls.attr``, searching the
        package bases of ``cls``; None when the package defines none."""
        if attr in self.members.get(cls, {}):
            return (cls, *self.members[cls][attr])
        for base in self.bases.get(cls, ()):
            found = self._lookup(base, attr)
            if found:
                return found
        return None

    # -- the walk over the callers -----------------------------------------

    def _credit(self, key, where: str, line: int, load: bool = True) -> None:
        self.credits.setdefault(key, []).append((where, line, load))

    def _visit_module(self, tree: ast.Module, where: str, defines: bool) -> None:
        scope = _Scope()
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._visit_class(node, scope, where, defines)
            elif not _is_all(node):
                self._visit(node, scope, where)

    def _visit_class(self, node: ast.ClassDef, scope: _Scope, where: str,
                     defines: bool = False) -> None:
        """A class body; in a package class the first parameter of a method
        is an instance (the class object for a classmethod, nothing for a
        staticmethod)."""
        for sub in node.bases + node.keywords + node.decorator_list:
            self._visit(sub, scope, where)
        scope.bind(node.name, ("class", node.name) if defines else None)
        body = _Scope(scope, is_class=True)
        for sub in node.body:
            self._visit(sub, body, where, node.name if defines else None)

    def _visit(self, node, scope: _Scope, where: str, cls: str | None = None) -> None:
        """Record the bindings of ``node`` in ``scope`` and the uses in it;
        ``cls`` names the module-level class whose body holds ``node``."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            self._visit_function(node, scope, where, cls)
            return
        if isinstance(node, ast.ClassDef):
            self._visit_class(node, scope, where)
            return
        if isinstance(node, _COMPREHENSIONS + (ast.DictComp,)):
            inner = _Scope(scope)
            self._comprehensions[id(node)] = inner
            for i, gen in enumerate(node.generators):
                self._visit(gen.iter, scope if i == 0 else inner, where)
                source = ("iter", gen.iter, scope if i == 0 else inner)
                self._bind_target(gen.target, source, inner, where)
                for cond in gen.ifs:
                    self._visit(cond, inner, where)
            for part in ("elt", "key", "value"):
                if hasattr(node, part):
                    self._visit(getattr(node, part), inner, where)
            return
        if isinstance(node, ast.Assign):
            self._visit(node.value, scope, where)
            for target in node.targets:
                self._bind_target(target, ("value", node.value, scope), scope, where)
            return
        if isinstance(node, ast.AnnAssign):
            self._visit(node.annotation, scope, where)
            if node.value is not None:
                self._visit(node.value, scope, where)
            self._bind_target(node.target, ("ann", node.annotation), scope, where)
            return
        if isinstance(node, ast.NamedExpr):
            self._visit(node.value, scope, where)
            self._bind_target(node.target, ("value", node.value, scope), scope, where)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind_target(node.target, ("iter", node.iter, scope), scope, where)
        elif isinstance(node, ast.AugAssign):
            self._bind_target(node.target, None, scope, where)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            self._bind_target(node.optional_vars, None, scope, where)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.bind(node.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                scope.bind((alias.asname or alias.name).split(".")[0], None)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                self._credit(alias.name, where, node.lineno)
                if alias.name in self.members:
                    how = ("class", alias.name)
                elif alias.name in self.returns:
                    how = ("function", alias.name)
                else:
                    how = None
                scope.bind(alias.asname or alias.name, how)
        elif isinstance(node, ast.Name):
            self._credit(node.id, where, node.lineno)
        elif isinstance(node, ast.Attribute):
            self._attributes.append((node, scope, where))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            self._credit_dotted(node.value, where, node.lineno)
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope, where)

    def _visit_function(self, node, scope: _Scope, where: str, cls: str | None) -> None:
        args = node.args
        for sub in args.defaults + [d for d in args.kw_defaults if d is not None]:
            self._visit(sub, scope, where)
        inner = _Scope(scope.parent if scope.is_class else scope)
        params = args.posonlyargs + args.args + args.kwonlyargs
        first = None
        if not isinstance(node, ast.Lambda):
            for sub in node.decorator_list:
                self._visit(sub, scope, where)
            decorators = {ast.unparse(d) for d in node.decorator_list}
            if cls and params and "staticmethod" not in decorators:
                first = ("class" if "classmethod" in decorators else "self", cls)
            for arg in params + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    self._visit(arg.annotation, scope, where)
            if node.returns is not None:
                self._visit(node.returns, scope, where)
            scope.bind(node.name, None if scope.parent else ("function", node.name))
        for i, arg in enumerate(params):
            if i == 0 and first:
                inner.bind(arg.arg, first)
            elif arg.annotation is not None:
                inner.bind(arg.arg, ("ann", arg.annotation))
            else:
                inner.bind(arg.arg, None)
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                inner.bind(arg.arg, None)
        for sub in node.body if isinstance(node.body, list) else [node.body]:
            self._visit(sub, inner, where)

    def _bind_target(self, target, how, scope: _Scope, where: str) -> None:
        if isinstance(target, ast.Name):
            scope.bind(target.id, how)
        elif isinstance(target, (ast.Tuple, ast.List)):
            starred = any(isinstance(elt, ast.Starred) for elt in target.elts)
            for i, elt in enumerate(target.elts):
                part = None if starred or how is None else ("item", how, i)
                self._bind_target(elt, part, scope, where)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None, scope, where)
        else:
            if isinstance(target, ast.Attribute):
                owner = self._type(target.value, scope)
                if owner and owner[0] == "self":
                    self.slot_values.setdefault((owner[1], target.attr), []).append(how)
            self._visit(target, scope, where)

    def _credit_dotted(self, text: str, where: str, line: int) -> None:
        """A dotted-name string (a tracer target) uses each of its parts;
        ``Class.attr`` in it uses that member."""
        parts = text.split(".")
        if len(parts) < 2 or not all(part.isidentifier() for part in parts):
            return
        for before, part in zip([None] + parts, parts):
            self._credit(part, where, line)
            found = before in self.members and self._lookup(before, part)
            if found:
                self._credit((found[0], part), where, line)
            elif len(self.definers.get(part, ())) == 1:
                [owner] = self.definers[part]
                self._credit((owner, part), where, line)

    def _credit_attribute(self, node: ast.Attribute, scope: _Scope, where: str) -> None:
        load = isinstance(node.ctx, ast.Load)
        receiver = self._type(node.value, scope)
        if receiver and receiver[0] in ("self", "class"):
            found = self._lookup(receiver[1], node.attr)
            if found:
                self._credit((found[0], node.attr), where, node.lineno, load)
            return
        self._credit(node.attr, where, node.lineno, load)
        if len(self.definers.get(node.attr, ())) == 1:
            [owner] = self.definers[node.attr]
            self._credit((owner, node.attr), where, node.lineno, load)

    # -- resolving a receiver ----------------------------------------------
    #
    # A type is ("self", C) for an instance of C, ("class", C) for the class
    # object, ("function", f) for a package function, ("of", T) for a
    # collection of T, ("map", K, V) for a mapping and ("tuple", (T0, ..))
    # for a fixed tuple; None is unknown, and _BUSY a binding met again
    # while it is being resolved.

    def _annotated(self, node):
        """The type an annotation names."""
        node = _annotation(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [
                side for side in (node.left, node.right)
                if not (isinstance(side, ast.Constant) and side.value is None)
            ]
            return self._annotated(sides[0]) if len(sides) == 1 else None
        if isinstance(node, ast.Subscript):
            head = ast.unparse(node.value).split(".")[-1]
            args = getattr(node.slice, "elts", [node.slice])
            if head == "Optional":
                return self._annotated(args[0])
            if head in _COLLECTIONS or (
                head == "tuple" and len(args) == 2
                and isinstance(args[1], ast.Constant) and args[1].value is Ellipsis
            ):
                return ("of", self._annotated(args[0]))
            if head == "tuple":
                return ("tuple", tuple(self._annotated(arg) for arg in args))
            if head in ("dict", "Mapping"):
                return ("map", *(self._annotated(arg) for arg in args))
            return None
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return ("self", name) if name in self.members else None

    def _type(self, node, scope: _Scope):
        """The type of the expression ``node`` evaluated in ``scope``."""
        if isinstance(node, ast.Name):
            while scope is not None and node.id not in scope.bindings:
                scope = scope.parent
            if scope is None:
                return ("class", node.id) if node.id in self.members else None
            return self._resolve(scope.bindings[node.id])
        if isinstance(node, ast.Attribute):
            receiver = self._type(node.value, scope)
            found = self._member(receiver, node.attr)
            if found is _BUSY or found is None:
                return found
            owner, kind, annotation, _ = found
            if kind == "slot":
                return self._resolve(self.slot_values.get((owner, node.attr), [None]))
            return None if kind == "method" else self._annotated(annotation)
        if isinstance(node, ast.Subscript):
            held = self._type(node.value, scope)
            if held is _BUSY or held is None or isinstance(node.slice, ast.Slice):
                return held if held is _BUSY or (held and held[0] == "of") else None
            if held[0] == "of":
                return held[1]
            if held[0] == "map":
                return held[2]
            index = getattr(node.slice, "value", None)
            if held[0] == "tuple" and index in range(len(held[1])):
                return held[1][index]
            return None
        if isinstance(node, ast.Tuple):
            return ("tuple", tuple(self._type(elt, scope) for elt in node.elts))
        if isinstance(node, _COMPREHENSIONS):
            element = self._type(node.elt, self._comprehensions[id(node)])
            return element if element is _BUSY else ("of", element)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = self._type(func.value, scope)
                if receiver and receiver is not _BUSY and receiver[0] == "map":
                    return receiver[2] if func.attr == "get" else None
                found = self._member(receiver, func.attr)
                if found is _BUSY or found is None or found[1] != "method":
                    return found if found is _BUSY else None
                returned = found[2] and self._annotated(found[2])
                if returned or receiver[0] == "self":
                    return returned
                return ("self", receiver[1])  # C.method(...)
            called = self._type(func, scope)
            builtin = called is None and getattr(func, "id", None) in _SAME_ELEMENTS
            if builtin and node.args:
                element = self._element(node.args[0], scope)
                return element if element is _BUSY else ("of", element)
            if called is _BUSY or called is None:
                return called
            if called[0] == "class":
                return ("self", called[1])
            if called[0] == "function" and self.returns.get(called[1]):
                return self._annotated(self.returns[called[1]])
        return None

    def _member(self, receiver, attr: str):
        """``_lookup`` of ``attr`` on a receiver type that is a class."""
        if receiver is _BUSY:
            return _BUSY
        if receiver and receiver[0] in ("self", "class"):
            return self._lookup(receiver[1], attr)
        return None

    def _element(self, node, scope: _Scope):
        """The type of the items that iterating ``node`` yields."""
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and node.args and self._type(func, scope) is None:
            if func.id == "enumerate":
                return ("tuple", (None, self._element(node.args[0], scope)))
            if func.id == "zip":
                return ("tuple", tuple(self._element(arg, scope) for arg in node.args))
            if func.id in _SAME_ELEMENTS:
                return self._element(node.args[0], scope)
        if isinstance(func, ast.Attribute) and func.attr in ("items", "keys", "values"):
            held = self._type(func.value, scope)
            if held is _BUSY or not held or held[0] != "map":
                return _BUSY if held is _BUSY else None
            _, key, value = held
            items = ("tuple", (key, value))
            return {"items": items, "keys": key, "values": value}[func.attr]
        held = self._type(node, scope)
        if held is _BUSY or not held or held[0] not in ("of", "map"):
            return _BUSY if held is _BUSY else None
        return held[1]

    def _binding(self, how):
        """The type one binding gives its name."""
        if how is None or how[0] in ("self", "class", "function"):
            return how
        if how[0] == "ann":
            return self._annotated(how[1])
        if how[0] == "value":
            return self._type(how[1], how[2])
        if how[0] == "iter":
            return self._element(how[1], how[2])
        whole = self._binding(how[1])  # ("item", binding, position)
        if whole is _BUSY or whole is None:
            return whole
        if whole[0] == "of":
            return whole[1]
        if whole[0] == "tuple" and how[2] < len(whole[1]):
            return whole[1][how[2]]
        return None

    def _resolve(self, bindings: list):
        """The one type every binding in ``bindings`` gives, else None."""
        if id(bindings) in self._busy:
            return _BUSY
        self._busy.add(id(bindings))
        try:
            found = set()
            for how in bindings:
                got = self._binding(how)
                if got is None:
                    return None
                if got is not _BUSY:
                    found.add(got)
            return found.pop() if len(found) == 1 else None
        finally:
            self._busy.discard(id(bindings))

    # -- the verdicts -------------------------------------------------------

    def _used(self, key, where: str, first: int, last: int, loads: bool) -> bool:
        return any(
            not (site == where and first <= line <= last) and (load or not loads)
            for site, line, load in self.credits.get(key, ())
        )

    def uncalled(self) -> list[tuple[str, str]]:
        """(file:line, name) of each public module function and public
        method or property of a module-level class that no caller uses."""
        out = []
        for where, tree in self.package.items():
            scopes = [(None, tree)] + [
                (node.name, node)
                for node in tree.body if isinstance(node, ast.ClassDef)
            ]
            for cls, scope in scopes:
                for node in scope.body:
                    if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                        key = (cls, node.name) if cls else node.name
                        first, last = node.lineno, node.end_lineno
                        if not self._used(key, where, first, last, False):
                            name = f"{cls}.{node.name}" if cls else node.name
                            out.append((f"{where}:{first}", name))
        return out

    def unread(self) -> list[tuple[str, str]]:
        """(file:line, Class.field) of each ``NamedTuple`` field and each
        ``__slots__`` entry of a module-level class that no caller reads."""
        out = []
        for where, tree in self.package.items():
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                named = any(ast.unparse(base) == "NamedTuple" for base in cls.bases)
                for name, (kind, _, line) in self.members[cls.name].items():
                    stored = kind == "slot" or (kind == "field" and named)
                    if stored and not self._used((cls.name, name), where, 0, 0, True):
                        out.append((f"{where}:{line}", f"{cls.name}.{name}"))
        return out


def _parsed(paths) -> dict[str, ast.Module]:
    return {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in paths
    }


@functools.cache
def _package_surface() -> _Surface:
    """The package's surface as the package itself, the benchmark and the
    acceptance criteria use it."""
    package = _parsed(sorted(PACKAGE.glob("*.py")))
    others = _parsed(
        sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    )
    return _Surface(package, {**package, **others})


def test_every_public_name_has_a_caller():
    """A public function or method that no package code, benchmark file or
    acceptance criterion calls is surface every refactor must carry; delete
    it or say in ``KEPT`` why it stays."""
    uncalled = _package_surface().uncalled()
    dead = [f"{where}: {name}" for where, name in uncalled if name not in KEPT]
    assert not dead, "public names without a caller: " + ", ".join(dead)
    unread = _package_surface().unread()
    stale = set(KEPT) - {name for _, name in uncalled + unread}
    assert not stale, "KEPT names that now have a caller: " + ", ".join(sorted(stale))


def test_every_stored_field_is_read():
    """A stored field that no package code, benchmark file or acceptance
    criterion reads as an attribute is state every constructor must build
    and carry; derive it where it is needed, or say in ``KEPT`` why it
    stays."""
    unread = [
        f"{where}: {name}" for where, name in _package_surface().unread()
        if name not in KEPT
    ]
    assert not unread, "stored fields nothing reads: " + ", ".join(unread)


def _package_returns_and_methods() -> tuple[dict[str, set[str]], set[str]]:
    """Class name -> the package functions whose return annotation names
    it, and the ``Class.name`` of every method (called, not read)."""
    returning: dict[str, set[str]] = {}
    methods = set()
    for tree in _parsed(sorted(PACKAGE.glob("*.py"))).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods |= {
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in item.decorator_list
                    )
                }
            elif isinstance(node, ast.FunctionDef) and node.returns:
                for sub in ast.walk(_annotation(node.returns)):
                    if isinstance(sub, ast.Name):
                        returning.setdefault(sub.id, set()).add(node.name)
    return returning, methods


def test_every_kept_name_has_a_test():
    """A ``KEPT`` name stays only while a test uses it: an oracle whose last
    test is gone is dead surface.  A member ``Class.name`` counts only in a
    file that calls ``.name`` (a method) or reads it uncalled (a field or
    property) and also names ``Class`` or calls a package function whose
    return annotation names it."""
    returning, methods = _package_returns_and_methods()
    untested = set(KEPT)
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callees = {node.func for node in ast.walk(tree) if isinstance(node, ast.Call)}
        names, called, read = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                (called if node in callees else read).add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
        calls = {getattr(f, "id", getattr(f, "attr", None)) for f in callees}
        for kept in list(untested):
            cls, _, member = kept.rpartition(".")
            if not cls:
                used = member in names
            else:
                used = member in (called if kept in methods else read) and (
                    cls in names or bool(calls & returning.get(cls, set()))
                )
            if used:
                untested.discard(kept)
    untested = [name for name in KEPT if name in untested]
    assert not untested, "KEPT names no test uses: " + ", ".join(untested)


# Two classes that share a method name; only Circle's is called, through
# ``self``.
SHAPES = '''
class Circle:
    def area(self):
        return 3

    def __repr__(self):
        return str(self.area())


class Square:
    def area(self):
        return 4
'''


def _shapes_surface(caller: str) -> _Surface:
    package = {"shapes.py": ast.parse(SHAPES)}
    return _Surface(package, {**package, "caller.py": ast.parse(caller)})


def test_the_guard_credits_a_shared_name_only_through_its_receiver():
    """``shape.area()`` on an untyped receiver credits neither ``area``, so
    Square's, called nowhere else, is dead; annotating the parameter
    Square credits it.  A guard that credited every ``area`` would report
    nothing in the first case."""
    untyped = _shapes_surface("def _total(shape):\n    return shape.area()\n")
    assert [name for _, name in untyped.uncalled()] == ["Square.area"]
    typed = _shapes_surface(
        "def _total(shape: 'Square | None'):\n    return shape.area()\n"
    )
    assert typed.uncalled() == []
