"""Every exported name exists: each module's ``__all__`` and each name the
package ``__init__`` imports, so a deleted function cannot leave a stale
export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import riskcdf

MODULES = sorted(f"riskcdf.{m.name}" for m in pkgutil.iter_modules(riskcdf.__path__))


def init_imports():
    """(module, name) for each ``from .module import name`` in riskcdf/__init__.py."""
    tree = ast.parse(Path(riskcdf.__file__).read_text())
    return [(f"riskcdf.{node.module}", alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_module_is_listed():
    assert {"riskcdf.cdf", "riskcdf.cli", "riskcdf.risks"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"{module}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names what it does not define"


def test_package_imports_resolve_and_are_exported():
    imports = init_imports()
    assert len(imports) > 40
    for module, name in imports:
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{module}.{name}"
        assert hasattr(riskcdf, name), name
        assert name in getattr(mod, "__all__", [name]), f"{name} is not in {module}.__all__"
