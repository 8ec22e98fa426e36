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
