import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import quadsig

MODULES = ("analysis", "covering", "errors", "geometry", "scheme", "simulate")


@pytest.mark.parametrize("module", MODULES)
def test_module_public_names_are_package_attributes(module):
    names = importlib.import_module(f"quadsig.{module}").__all__
    assert [name for name in names if not hasattr(quadsig, name)] == []


def test_private_names_in_the_docs_exist():
    # a backquoted `_name` in a docstring or the README must still name
    # something, so that a mention does not outlive a rename
    modules = [importlib.import_module(f"quadsig.{info.name}")
               for info in pkgutil.iter_modules(quadsig.__path__)]
    docs = [(Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")]
    for module in modules:
        docs.append(module.__doc__)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                docs.append(obj.__doc__)
            elif inspect.isclass(obj):
                docs.append(obj.__doc__)
                docs += [f.__doc__ for f in vars(obj).values() if inspect.isfunction(f)]
    cited = {name for doc in docs if doc for name in re.findall(r"`(_\w+)`", doc)}
    known = set().union(*(vars(module) for module in modules))
    assert cited and sorted(cited - known) == []
