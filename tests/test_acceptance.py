"""Acceptance suite: one test per criterion of ``quadversary.acceptance``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings; ``quadversary verify`` prints the same lines.  Each
test keeps its criterion's function name, prefixed with ``test_``.
"""

import ast
import importlib
from pathlib import Path

import quadversary
from quadversary import acceptance


def _acceptance_test(criterion):
    def test():
        print(acceptance.run_criterion(criterion))

    return test


for _criterion in acceptance.CRITERIA:
    globals()["test_" + _criterion.check.__name__] = _acceptance_test(_criterion)


def test_package_has_no_assert_statements():
    # the criteria ship in the package, and python -O strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(quadversary.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_package_all_names_resolve():
    # a deleted symbol must not linger in its module's exports
    stale = []
    for path in sorted(Path(quadversary.__file__).parent.glob("*.py")):
        name = "quadversary" if path.stem == "__init__" else f"quadversary.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not stale, f"names in __all__ that do not resolve: {stale}"


# Public names that nothing in src/ or bench/ reads, kept on purpose.  Every
# exception class is kept too: callers outside the package catch them by name.
_UNREAD_BY_DESIGN = {
    "AdaptiveCubature",  # the protocol every algorithm implements; only hints name it
    "vertexize",  # the planned cover check of the height-t slices will read these two
    "caratheodory_cube_decomposition",
}


def _reads(path: Path) -> set[str]:
    """Names the file's top-level statements load, each other than the names it defines.

    A type hint is not a read: it calls nothing.
    """
    reads = set()
    for stmt in ast.parse(path.read_text()).body:
        nodes = list(ast.walk(stmt))
        hints = {
            id(part)
            for node in nodes
            if (hint := getattr(node, "annotation", None) or getattr(node, "returns", None))
            for part in ast.walk(hint)
        }
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        own = {getattr(stmt, "name", None)} | {getattr(t, "id", None) for t in targets}
        for node in nodes:
            if id(node) in hints or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name not in own:
                reads.add(name)
    return reads


def test_every_public_name_has_a_reader_outside_tests():
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src").rglob("*.py")) + sorted((root / "bench").rglob("*.py"))
    reads = set().union(*(_reads(p) for p in sources if p.name != "__init__.py"))
    unread = []
    for path in sorted(Path(quadversary.__file__).parent.glob("*.py")):
        name = "quadversary" if path.stem == "__init__" else f"quadversary.{path.stem}"
        module = importlib.import_module(name)
        for n in getattr(module, "__all__", ()):
            obj = getattr(module, n)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            if n not in reads and n not in _UNREAD_BY_DESIGN:
                unread.append(f"{name}.{n}")
    assert not unread, f"public names that only tests read: {unread}"


def _dataclass_fields(path: Path) -> list[tuple[str, str]]:
    """(class name, field name) of every field of every ``@dataclass`` in the file."""
    return [
        (stmt.name, item.target.id)
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in stmt.decorator_list)
        for item in stmt.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def test_every_dataclass_field_has_a_reader_outside_tests():
    # a field that only tests read is state the program carries for nothing
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src").rglob("*.py")) + sorted((root / "bench").rglob("*.py"))
    loaded = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path in sorted(Path(quadversary.__file__).parent.glob("*.py"))
        for cls, name in _dataclass_fields(path)
        if name not in loaded
    ]
    assert not unread, f"dataclass fields that no code in src/ or bench/ reads: {unread}"


def _defaulted_parameters(path: Path) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position or None) of each defaulted parameter.

    Covers public functions and the public methods of public classes; a
    method's position does not count ``self``, and a constructor is called by
    its class name.
    """
    found = []

    def visit(fn: ast.FunctionDef, callee: str, method: bool) -> None:
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        if method:
            positional = positional[1:]
        for i in range(len(positional) - len(a.defaults), len(positional)):
            found.append((callee, positional[i], i))
        found.extend((callee, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)

    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            visit(stmt, stmt.name, False)
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    visit(fn, stmt.name, True)
                elif isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    visit(fn, fn.name, True)
    return found


def _passed(path: Path) -> set[tuple[str, str | int]]:
    """(callee name, keyword or position) of every argument the file's calls pass.

    A ``*args`` or ``**kwargs`` argument passes every position or keyword.
    """
    passed = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for i, arg in enumerate(node.args):
            passed.add((callee, "*" if isinstance(arg, ast.Starred) else i))
        passed.update((callee, kw.arg or "**") for kw in node.keywords)
    return passed


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    # a default that no caller overrides is a constant in disguise
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src").rglob("*.py")) + sorted((root / "bench").rglob("*.py"))
    passed = set().union(*(_passed(p) for p in sources))

    def is_passed(callee: str, param: str, position: int | None) -> bool:
        ways = {(callee, param), (callee, "**")}
        if position is not None:
            ways |= {(callee, position), (callee, "*")}
        return bool(ways & passed)

    unpassed = [
        f"{path.stem}.{callee}({param}=)"
        for path in sorted(Path(quadversary.__file__).parent.glob("*.py"))
        if path.name != "acceptance.py"
        for callee, param, position in _defaulted_parameters(path)
        if not is_passed(callee, param, position)
    ]
    assert not unpassed, f"defaulted parameters that no call in src/ or bench/ passes: {unpassed}"
