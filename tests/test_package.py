import ast
import collections
import importlib
import inspect
import pathlib
import pkgutil
import typing

import pytest

import andex
from andex import spectrum

MODULES = sorted(m.name for m in pkgutil.iter_modules(andex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # tracing wraps each name of __all__ by getattr, so a stale entry
    # would break every traced run
    module = importlib.import_module(f"andex.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    assert [n for n in public if not hasattr(module, n)] == []


def test_spectrum_exports_one_eigensolver():
    # top_k_eigs is the one public function that returns eigenpairs; the
    # full-eigh oracle the tests compare it with lives in tests/oracles.py
    solvers = [
        name
        for name in spectrum.__all__
        if inspect.isfunction(fn := getattr(spectrum, name))
        and typing.get_type_hints(fn).get("return") is spectrum.SpectralResult
    ]
    assert solvers == ["top_k_eigs"]


# Names exempt from having a caller in the package: none.  A name that only
# tests read lives in tests/oracles.py.
AWAITING_CALLERS = {}


def _references():
    """name -> (module, names of the enclosing definitions) of each read of
    the name, bare or as an attribute, in the package's source."""
    refs = collections.defaultdict(list)
    for path in pathlib.Path(andex.__path__[0]).glob("*.py"):

        def walk(node, enclosing):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                enclosing = enclosing | {node.name}
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs[node.id].append((path.stem, enclosing))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((path.stem, enclosing))
            for child in ast.iter_child_nodes(node):
                walk(child, enclosing)

        walk(ast.parse(path.read_text()), frozenset())
    return refs


def _definitions(module):
    """Names of the module-level functions and classes of andex.<module>."""
    tree = ast.parse(pathlib.Path(andex.__path__[0], f"{module}.py").read_text())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body if isinstance(node, kinds)}


def test_every_public_name_has_a_caller_in_the_package():
    # a public name, or a module-level function or class, that only tests
    # call is code nothing uses; a read inside the name's own definition is
    # not a caller
    refs = _references()
    unused = collections.defaultdict(set)
    for module in MODULES:
        public = getattr(importlib.import_module(f"andex.{module}"), "__all__", [])
        for name in set(public) | _definitions(module):
            if all(m == module and name in enclosing for m, enclosing in refs[name]):
                unused[module].add(name)
    assert dict(unused) == AWAITING_CALLERS
