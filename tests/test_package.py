import importlib
import inspect
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
