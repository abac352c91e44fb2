"""Every exported name exists: each module's ``__all__``, each name the
package ``__init__`` imports and each name the benchmark harness in
``perfbench/`` binds, so a deleted function cannot leave a stale export or a
broken traced run behind."""

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def traced_bindings():
    """(module, attribute) pairs of ``LAYERS`` in perfbench/tracing.py, read
    without importing it; a dotted attribute names a method or class hook."""
    for node in perfbench_tree("tracing.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return [b for bindings in ast.literal_eval(node.value).values() for b in bindings]
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def sweep_names():
    """(module, name) for each ``module.name`` that perfbench/sweep.py reads
    from a module it imports with ``from riskcdf import ...``."""
    tree = perfbench_tree("sweep.py")
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "riskcdf"
               for alias in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_perfbench_traced_bindings_resolve():
    bindings = traced_bindings()
    assert ("risks", "SpectrumSpec.__post_init__") in bindings
    for module, attr in bindings:
        obj = importlib.import_module(f"riskcdf.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"riskcdf.{module}.{attr}"
            obj = getattr(obj, part)


def test_perfbench_sweep_names_resolve():
    names = sweep_names()
    assert ("risks", "cvar_spectrum") in names and ("cdf", "build_cdf") in names
    missing = [f"riskcdf.{m}.{n}" for m, n in names
               if not hasattr(importlib.import_module(f"riskcdf.{m}"), n)]
    assert missing == []
