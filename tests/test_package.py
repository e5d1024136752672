import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadsig

MODULES = ("analysis", "covering", "errors", "geometry", "scheme", "simulate")

# What `import quadsig` loads beyond `import numpy` in a fresh interpreter.
# Every command pays for these at start-up, so a new module-level import
# (scipy, say, which geometry imports only where it is used) fails a test
# until it is added here on purpose.
IMPORTED = {
    "__future__", "_json", "copy", "dataclasses", "json", "json.decoder",
    "json.encoder", "json.scanner", "quadsig", "quadsig.analysis", "quadsig.covering",
    "quadsig.errors", "quadsig.geometry", "quadsig.scheme", "quadsig.simulate",
}


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


def test_import_loads_no_new_module():
    src = str(Path(quadsig.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, numpy; before = set(sys.modules); import quadsig; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "quadsig.scheme" in out
    assert sorted(set(out) - IMPORTED) == []
