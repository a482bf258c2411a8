"""Every name a module lists in ``__all__`` resolves.

A stale entry is not caught by importing the module: it breaks only
``from ciindex.x import *``, and removing a public name leaves one behind
unless its list is edited too.
"""

import importlib
import pkgutil

import pytest

import ciindex

MODULES = ["ciindex"] + sorted(f"ciindex.{m.name}" for m in pkgutil.iter_modules(ciindex.__path__))


def test_every_module_is_listed():
    # a new module joins the check below without editing it
    assert {"ciindex.calibration", "ciindex.mean_intervals", "ciindex.sampling"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # noqa: S102 - the import under test
    assert set(exported) <= set(namespace)
