"""Every exported name exists: each module's ``__all__``, each name the
package ``__init__`` imports and each name the benchmark harness in
``perfbench/`` binds, so a deleted function cannot leave a stale export or a
broken traced run behind."""

import ast
import importlib
import importlib.util
import pkgutil
import re
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
    assert {"riskcdf.cdf", "riskcdf.risks", "riskcdf.bounds"} <= {m for m, _ in imports}
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


def load_tracing():
    """perfbench/tracing.py as a module, loaded by path (it imports only the
    standard library, and riskcdf when installing)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, attr):
    """The owner (module or class) of a binding and the object it binds."""
    owner = importlib.import_module(f"riskcdf.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, getattr(owner, name)


def test_perfbench_tracer_round_trip():
    """Installing the tracer wraps each binding exactly once, around the object
    it bound before; uninstalling restores every original and leaves no class
    with an attribute of its own that it did not have."""
    tracing = load_tracing()
    bindings = traced_bindings()
    resolved = {b: resolve(*b) for b in bindings}
    originals = {b: obj for b, (_, obj) in resolved.items()}
    own = {owner: dict(vars(owner)) for owner, _ in resolved.values() if isinstance(owner, type)}
    traced_code = tracing.Tracer().wrap("probe", lambda: None).__code__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for binding in bindings:
            current = resolve(*binding)[1]
            assert current.__code__ is traced_code, binding
            assert current.__wrapped__ is originals[binding], f"{binding} is wrapped twice"
    finally:
        tracer.uninstall()
    for binding in bindings:
        assert resolve(*binding)[1] is originals[binding], binding
    for cls, attributes in own.items():
        assert dict(vars(cls)) == attributes, cls.__name__


def test_perfbench_sweep_names_resolve():
    names = sweep_names()
    assert ("risks", "cvar_spectrum") in names and ("cdf", "build_cdf") in names
    missing = [f"riskcdf.{m}.{n}" for m, n in names
               if not hasattr(importlib.import_module(f"riskcdf.{m}"), n)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riskcdf"


def exported_names():
    """(module, name) for every entry of every riskcdf module's ``__all__``."""
    return [(module, name) for module in MODULES
            for name in getattr(importlib.import_module(module), "__all__", [])]


def package_reads():
    """Every name and attribute that code in riskcdf reads (loads), outside
    ``__init__.py``: definitions, ``__all__`` strings, imports, docstrings and
    messages are not reads."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


def readme_code_spans():
    return re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())


def test_every_export_has_a_user_path():
    """Each name in a module's ``__all__`` is read outside tests/: by riskcdf's
    own code, by a script or the benchmark harness, or named in backticks in
    README.md.  A name none of them reads is test-only API."""
    reads = package_reads()
    outside = " ".join(p.read_text() for d in ("scripts", "perfbench")
                       for p in sorted((ROOT / d).glob("*.py")))
    spans = readme_code_spans()
    unread = [f"{module}.{name}" for module, name in exported_names()
              if name not in reads
              and not re.search(rf"\b{re.escape(name)}\b", outside)
              and not any(re.search(rf"\b{re.escape(name)}\b", s) for s in spans)]
    assert unread == [], "exported but read only by tests: " + ", ".join(unread)
