"""Every name a module exports exists in it."""

import importlib
import pkgutil

import pytest

import skewtorsion

MODULES = sorted(m.name for m in pkgutil.iter_modules(skewtorsion.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"skewtorsion.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
