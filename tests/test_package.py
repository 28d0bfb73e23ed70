import importlib
import pkgutil

import pytest

import andex

MODULES = sorted(m.name for m in pkgutil.iter_modules(andex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # tracing wraps each name of __all__ by getattr, so a stale entry
    # would break every traced run
    module = importlib.import_module(f"andex.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    assert [n for n in public if not hasattr(module, n)] == []
