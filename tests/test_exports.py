import importlib
import pkgutil

import pytest

import mrgark

MODULES = [mrgark] + [importlib.import_module(f"mrgark.{info.name}") for info in pkgutil.iter_modules(mrgark.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing
