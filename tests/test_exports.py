import importlib
import pkgutil

import pytest

import epslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(epslab.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"epslab.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
