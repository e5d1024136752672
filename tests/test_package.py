import importlib

import pytest

import quadsig

MODULES = ("analysis", "covering", "errors", "geometry", "scheme", "simulate")


@pytest.mark.parametrize("module", MODULES)
def test_module_public_names_are_package_attributes(module):
    names = importlib.import_module(f"quadsig.{module}").__all__
    assert [name for name in names if not hasattr(quadsig, name)] == []
