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
