"""riskcdf runs on numpy alone: every risk family and every subcommand work in
a fresh interpreter where importing scipy fails.  It reads nothing from the
process environment: every flag value comes from the command line.  One
function writes its JSON and one its CSV.  Its lower layers (CDFs,
certificates, permutation complexity) import none of the layers built on
them.  Its dataclasses that hold arrays compare and hash by identity."""

import argparse
import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import riskcdf
from riskcdf.bounds import CERTIFICATE_METHODS, MonteCarloEnResult
from riskcdf.cdf import build_cdf
from riskcdf.cli import _RETIRED, build_parser
from riskcdf.models import init_model
from riskcdf.optim import TrainTrace
from riskcdf.permcomplexity import LossMatrix, PermComplexityEstimate

SRC = str(Path(riskcdf.__file__).resolve().parents[1])

SCRIPT = textwrap.dedent("""
    import os
    import sys

    sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

    import numpy as np

    from riskcdf import cli, risks
    from riskcdf.cdf import build_cdf

    cdf = build_cdf([0.0, 1.0, 1.0, 2.5, 4.0])
    values = [
        risks.distortion_risk(cdf, risks.identity_distortion()),
        risks.cvar(cdf, 0.4),
        risks.spectral_risk(cdf, risks.cvar_spectrum(0.4)),
        risks.distortion_risk(cdf, risks.cvar_spectrum(0.4)),
        risks.mean_variance(cdf, 0.5),
    ]
    for spec in (risks.oce_mean_spec(4.0), risks.oce_entropic_spec(4.0),
                 risks.oce_cvar_spec(0.4, 4.0)):
        values += [risks.oce_risk(cdf, spec), risks.inverted_oce_risk(cdf, spec)]
    assert all(np.isfinite(v.value) and np.isfinite(v.L) for v in values)

    work = sys.argv[1]
    def path(name, text):
        full = os.path.join(work, name)
        with open(full, "w") as fh:
            fh.write(text)
        return full

    table = path("table.csv", "a,b\\n0.5,1\\n2,0\\n3.5,4\\n1,1\\n")
    dist = path("dist.csv", "t,g\\n0,0\\n0.5,0.8\\n1,1\\n")
    spec = path("spec.csv", "u,h\\n0,0.5\\n1,1.5\\n")
    tokens = ["mean", "cvar:0.5", "mean_var:0.5", "oce:mean", "oce:entropic", "oce:cvar:0.5",
              f"distortion-file:{dist}", f"spectral-file:{spec}"]
    assess = ["assess", "--input", table, "--support-bound", "4"]
    for token in tokens:
        assess += ["--risk", token]
    runs = [
        assess,
        ["cdf", "--input", path("losses.csv", "3\\n1\\n2\\n")],
        ["bound", "--method", "finite_class", "--class-size", "3", "--n", "50"],
        ["train", "--risk", f"distortion-file:{dist}", "--eta", "0.1", "--iters", "3"],
        ["train", "--risk", f"spectral-file:{spec}", "--eta", "0.1", "--iters", "3"],
        ["complexity", "--input", path("matrix.csv", "1,2,3\\n3,2,1\\n")],
        ["gradcheck", "--arch", "mlp_tanh", "--trials", "2"],
    ]
    for i, argv in enumerate(runs):
        out = os.path.join(work, f"out{i}")
        assert cli.main([*argv, "--out", out]) == 0, argv
    manifest = os.path.join(work, "out0", "manifest.json")
    assert cli.main(["rerun", "--manifest", manifest, "--out", os.path.join(work, "replay")]) == 0
    assert sys.modules["scipy"] is None
    print("ok")
""")


def test_runs_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")


def test_no_module_imports_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    sources = sorted(Path(SRC, "riskcdf").glob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text())] == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Lines of ``source`` that read the environment through ``os``:
    ``os.environ``, ``os.getenv`` or ``from os import environ``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENVIRONMENT_READS for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    assert environment_reads("import os\nos.environ.get('A')\nos.getenv('B')\n"
                             "from os import environ\n") == [2, 3, 4]
    sources = sorted(Path(SRC, "riskcdf").glob("*.py"))
    assert sources
    found = [f"{p.name}:{line}" for p in sources for line in environment_reads(p.read_text())]
    assert found == []


def nodes_in_functions(source: str):
    """Each AST node of ``source`` in source order, with the name of the
    function around it (``<module>`` outside any function)."""

    def visit(node: ast.AST, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield child, where
            yield from visit(child, where)

    yield from visit(ast.parse(source), "<module>")


def module_calls(node: ast.AST, module: str, names: set[str]) -> bool:
    """Whether ``node`` is a call ``module.name(...)`` for a name in ``names``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names and isinstance(node.func.value, ast.Name)
            and node.func.value.id == module)


def imports_from(node: ast.AST, module: str, names: set[str]) -> bool:
    """Whether ``node`` is ``from module import name`` for a name in ``names``."""
    return (isinstance(node, ast.ImportFrom) and node.module == module
            and any(alias.name in names for alias in node.names))


JSON_WRITES = {"dump", "dumps"}


def json_writers(source: str) -> list[str]:
    """The function of ``source`` around each ``json.dump``/``json.dumps``
    call (``<module>`` outside any function), and ``<import>`` for each
    ``from json import dump`` or ``dumps``."""
    found = []
    for node, where in nodes_in_functions(source):
        if module_calls(node, "json", JSON_WRITES):
            found.append(where)
        elif imports_from(node, "json", JSON_WRITES):
            found.append("<import>")
    return found


def test_one_json_writer():
    """Every JSON file riskcdf writes goes through ``data._write_json``, so
    all share one format and one non-finite rule."""
    assert json_writers("import json\njson.dumps(1)\ndef f():\n    def g():\n"
                        "        json.dump(1, fh)\n    return json.dumps(2)\n"
                        "from json import dumps\njson.loads('1')\n") == [
        "<module>", "g", "f", "<import>"]
    sources = sorted(Path(SRC, "riskcdf").glob("*.py"))
    assert sources
    found = [f"{p.name}:{where}" for p in sources for where in json_writers(p.read_text())]
    assert found == ["data.py:_write_json"]


CSV_WRITERS = {"writer", "DictWriter"}


def open_modes(node: ast.AST) -> list[ast.expr] | None:
    """The mode arguments of ``node`` (none if it gives no mode) if it is
    ``open(path, mode)``, ``io.open(path, mode)`` or ``path.open(mode)``,
    else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open" or module_calls(node, "io", {"open"}):
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return None
    return [k.value for k in node.keywords if k.arg == "mode"] + node.args[position:position + 1]


def path_calls(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` is a call ``x.name(...)`` for a name in ``names``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names)


def opens_for_writing(node: ast.AST) -> bool:
    """Whether ``node`` opens a file in a mode that may write: ``open(path,
    mode)``, ``io.open(path, mode)`` or ``path.open(mode)`` whose mode has w,
    a, x or + or is not a literal, or ``path.write_text``/``write_bytes``."""
    if path_calls(node, {"write_text", "write_bytes"}):
        return True
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in open_modes(node) or [])


def file_writers(source: str) -> list[str]:
    """``open:F`` for each file that function F of ``source`` opens for
    writing (``<module>`` outside any function), ``csv:F`` for each
    ``csv.writer``/``csv.DictWriter`` it makes, and ``csv:<import>`` for
    ``from csv import writer`` or ``DictWriter``."""
    found = []
    for node, where in nodes_in_functions(source):
        if opens_for_writing(node):
            found.append(f"open:{where}")
        elif module_calls(node, "csv", CSV_WRITERS):
            found.append(f"csv:{where}")
        elif imports_from(node, "csv", CSV_WRITERS):
            found.append("csv:<import>")
    return found


def test_one_file_writer():
    """Every file riskcdf and its scripts write is opened by
    ``data._write_csv`` or ``data._write_json``, and only ``data`` makes a csv
    writer, so each format is decided in one place."""
    assert file_writers(textwrap.dedent("""
        open(p)
        open(p, "rb")
        open(p, newline="")
        Path(p).open()
        def f():
            with open(p, "w", newline="") as fh:
                csv.writer(fh)
        def g(mode):
            Path(p).open("a")
            open(p, mode)
            open(p, mode="x")
            p.write_text("t")
            csv.reader(fh)
        from csv import writer
        io.open(p, "r+")
    """)) == ["open:f", "csv:f", "open:g", "open:g", "open:g", "open:g", "csv:<import>",
              "open:<module>"]
    sources = sorted(Path(SRC, "riskcdf").glob("*.py"))
    scripts = sorted(Path(SRC).parent.joinpath("scripts").glob("*.py"))
    assert sources and scripts
    found = [f"{p.parent.name}/{p.name}:{where}"
             for p in sources + scripts for where in file_writers(p.read_text())]
    assert found == ["riskcdf/data.py:open:_write_json", "riskcdf/data.py:csv:_write_csv",
                     "riskcdf/data.py:open:_write_csv"]


def constructions(source: str, name: str) -> list[str]:
    """The function around each call ``name(...)`` or ``module.name(...)`` in
    ``source`` (``<module>`` outside any function)."""
    return [where for node, where in nodes_in_functions(source)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_one_support_rule():
    """Only ``cdf._support_bound`` makes a :class:`SupportViolation`, so the
    [0, D] rule that every Holder constant needs is decided in one place."""
    assert constructions(textwrap.dedent("""
        SupportViolation("a")
        def f():
            raise errors.SupportViolation(x)
        def g():
            return SupportViolation
    """), "SupportViolation") == ["<module>", "f"]
    found = {f"{p.name}:{where}" for p in Path(SRC, "riskcdf").glob("*.py")
             for where in constructions(p.read_text(), "SupportViolation")}
    assert found == {"cdf.py:_support_bound"}


def catchers(source: str, name: str) -> list[str]:
    """The function around each ``except`` clause of ``source`` whose types
    name ``name`` (``<module>`` outside any function)."""
    return [where for node, where in nodes_in_functions(source)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(name in (getattr(n, "id", None), getattr(n, "attr", None))
                    for n in ast.walk(node.type))]


def test_one_overflow_rule():
    """Only ``data.py`` catches an :class:`OverflowError`: every real argument
    is converted by ``data._real``, which turns an integer beyond float range
    into infinity, so no other check needs an overflow branch."""
    assert catchers(textwrap.dedent("""
        try:
            pass
        except OverflowError:
            pass
        def f():
            try:
                pass
            except (ValueError, builtins.OverflowError) as exc:
                pass
            except ValueError:
                pass
    """), "OverflowError") == ["<module>", "f"]
    found = {f"{p.name}:{where}" for p in Path(SRC, "riskcdf").glob("*.py")
             for where in catchers(p.read_text(), "OverflowError")}
    assert found == {"data.py:_real"}


def parameter_count(args: ast.arguments) -> int:
    """How many parameters a signature has, ``*args`` and ``**kwargs`` included."""
    return (len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
            + (args.vararg is not None) + (args.kwarg is not None))


def closed_form_arities(source: str) -> list[tuple[str, int | None]]:
    """For each ``.closed_form(...)`` call in ``source``, ``("call", its
    argument count)``; for each callable passed as ``closed_form=``, its name
    (``lambda`` for a lambda) and its parameter count, None when it is not a
    lambda or a function ``source`` defines."""
    tree = ast.parse(source)
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "closed_form":
            found.append(("call", len(node.args) + len(node.keywords)))
        for keyword in node.keywords:
            if keyword.arg != "closed_form":
                continue
            value = keyword.value
            if isinstance(value, ast.Lambda):
                found.append(("lambda", parameter_count(value.args)))
            elif isinstance(value, ast.Name) and value.id in functions:
                found.append((value.id, parameter_count(functions[value.id].args)))
            else:
                found.append((ast.unparse(value), None))
    return found


def test_one_oce_direction():
    """Every OCE closed form takes one argument, the sorted sample, so none
    carries a direction: ``inverted_oce_risk`` reflects the sample instead."""
    assert closed_form_arities(textwrap.dedent("""
        spec.closed_form(x)
        spec.closed_form(x, sign=-1.0)
        def value(x, sign):
            pass
        OceSpec(closed_form=lambda x: x)
        OceSpec(closed_form=value)
        OceSpec(closed_form=partial(value, sign=1.0))
    """)) == [("call", 1), ("call", 2), ("lambda", 1), ("value", 2),
              ("partial(value, sign=1.0)", None)]
    calls = [count for p in Path(SRC, "riskcdf").glob("*.py")
             for kind, count in closed_form_arities(p.read_text()) if kind == "call"]
    passed = [(kind, count) for kind, count
              in closed_form_arities(Path(SRC, "riskcdf", "risks.py").read_text())
              if kind != "call"]
    assert calls and all(count == 1 for count in calls), calls
    assert passed and all(count == 1 for _, count in passed), passed


def attribute_reads(source: str, name: str) -> list[int]:
    """Lines of ``source`` that read the attribute ``name`` off any object."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == name)


def matmul_owners(source: str) -> list[str]:
    """The dotted name of the classes and functions around each ``@`` in
    ``source`` (``<module>`` outside any)."""

    def visit(node: ast.AST, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                yield where or "<module>"
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{where}.{child.name}".lstrip("."))
            else:
                yield from visit(child, where)

    return list(visit(ast.parse(source), ""))


def test_one_rank_rule():
    """``DistortionSpec`` owns the rank rule: only ``risks`` reads its weight
    cache, one ``@`` in ``risks`` and ``optim`` dots rank weights with losses,
    and ``optim`` sorts no losses, so ``assess``, ``oce:cvar`` and ``train``
    rank a sample the same way."""
    assert attribute_reads("spec._ranked(3)\nx = y._ranked\nz._rank_sum(x)\n",
                           "_ranked") == [1, 2]
    assert matmul_owners(textwrap.dedent("""
        a @ b
        class C:
            def f(self):
                x @= y
                def g():
                    return [u @ v]
    """)) == ["<module>", "C.f", "C.f.g"]
    sources = sorted(Path(SRC, "riskcdf").glob("*.py"))
    scripts = sorted(Path(SRC).parent.joinpath("scripts").glob("*.py"))
    assert sources and scripts
    readers = {p.name for p in sources + scripts if attribute_reads(p.read_text(), "_ranked")}
    assert readers == {"risks.py"}
    owners = [owner for name in ("risks.py", "optim.py")
              for owner in matmul_owners(Path(SRC, "riskcdf", name).read_text())]
    assert owners == ["DistortionSpec._rank_sum"]
    optim = Path(SRC, "riskcdf", "optim.py").read_text()
    assert [name for name in ("argsort", "partition", "argpartition", "sort")
            if constructions(optim, name)] == []


def text_opens_without_utf8(source: str) -> list[str]:
    """The function of ``source`` around each call that opens a file as text
    without ``encoding="utf-8"`` (``<module>`` outside any function): an
    ``open``, ``io.open`` or ``path.open`` whose mode is not a literal with
    b in it, or a ``path.read_text``/``write_text``."""
    found = []
    for node, where in nodes_in_functions(source):
        modes = open_modes(node)
        if modes is None and not path_calls(node, {"read_text", "write_text"}):
            continue
        if any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes or []):
            continue
        if not any(k.arg == "encoding" and isinstance(k.value, ast.Constant)
                   and k.value.value == "utf-8" for k in node.keywords):
            found.append(where)
    return found


def test_text_opens_name_utf8():
    """Every file riskcdf and its scripts open as text is read or written as
    UTF-8, not in the locale's encoding; binary opens are exempt."""
    assert text_opens_without_utf8(textwrap.dedent("""
        open(p)
        open(p, "rb")
        open(p, encoding="utf-8")
        def f(mode):
            open(p, "w", newline="")
            open(p, mode, encoding="utf-8")
            open(p, mode)
            io.open(p, mode="wb")
            Path(p).open(encoding="latin-1")
        def g():
            p.read_text()
            p.write_text("t", encoding="utf-8")
            p.read_bytes()
    """)) == ["<module>", "f", "f", "f", "g"]
    sources = sorted(Path(SRC, "riskcdf").glob("*.py"))
    scripts = sorted(Path(SRC).parent.joinpath("scripts").glob("*.py"))
    assert sources and scripts
    found = [f"{p.parent.name}/{p.name}:{where}"
             for p in sources + scripts for where in text_opens_without_utf8(p.read_text())]
    assert found == []


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports of ``source`` bind and the module
    never loads.  ``__future__`` imports and imports with ``# noqa: F401``
    on one of their lines are left out."""
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


def test_no_unused_imports():
    """Every name a module of riskcdf, its scripts or its tests imports is
    used.  A package's ``__init__.py`` imports its exports, so it is left out."""
    assert unused_imports(textwrap.dedent("""
        from __future__ import annotations
        import os
        import os.path
        import numpy as np
        from a import (b,
                       c)  # noqa: F401
        from d import e as f, g
        def h():
            import json
            return np.zeros(1), g
    """)) == ["os", "os", "f"]
    sources = sorted(p for p in Path(SRC, "riskcdf").glob("*.py") if p.name != "__init__.py")
    root = Path(SRC).parent
    scripts = sorted(root.joinpath("scripts").glob("*.py"))
    tests = sorted(root.joinpath("tests").glob("*.py"))
    assert sources and scripts and tests
    found = [f"{p.parent.name}/{p.name}:{name}"
             for p in sources + scripts + tests for name in unused_imports(p.read_text())]
    assert found == []


LOWER_LAYERS = ("cdf", "bounds", "permcomplexity")
UPPER_LAYERS = {"risks", "models", "optim", "cli"}


def riskcdf_imports(source: str) -> set[str]:
    """The riskcdf modules that ``source``, a module of the package, imports:
    ``from .m import x``, ``from . import m`` and ``riskcdf.m`` forms."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("riskcdf")):
            module = (node.module or "").removeprefix("riskcdf").lstrip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("riskcdf.")}
    return found


def test_lower_layers_import_no_upper_layer():
    assert riskcdf_imports("from .risks import x\nfrom . import cli, data\n"
                           "import riskcdf.models\nfrom riskcdf.optim import y\n"
                           "import numpy\n") == {"risks", "cli", "data", "models", "optim"}
    found = {name: riskcdf_imports(Path(SRC, "riskcdf", f"{name}.py").read_text()) & UPPER_LAYERS
             for name in LOWER_LAYERS}
    assert found == {name: set() for name in LOWER_LAYERS}


def subcommand_dests(source: str) -> set[str]:
    """The ``dest`` of each ``add_argument`` call in ``source`` but
    ``--version``: its ``dest=`` or its first long option, dashes as
    underscores."""
    dests = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        keywords = {k.arg: k.value.value for k in node.keywords
                    if isinstance(k.value, ast.Constant)}
        if keywords.get("action") == "version":
            continue
        flag = next(a.value for a in node.args if a.value.startswith("--"))
        dests.add(keywords.get("dest", flag[2:].replace("-", "_")))
    return dests


def flag_reads(source: str) -> set[str]:
    """The flags ``source`` reads: ``params["x"]`` and ``params.get("x")``
    loads, and ``ns.x`` for the flags ``main`` reads off the namespace."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "params"
                and isinstance(node.slice, ast.Constant)):
            reads.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "params" and isinstance(node.args[0], ast.Constant)):
            reads.add(node.args[0].value)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id == "ns"):
            reads.add(node.attr)
    return reads


def test_every_flag_is_read():
    """No flag is write-only: each one a subcommand defines is read by a
    runner.  ``bound`` reads the count flags through its certificate table."""
    snippet = ('parser.add_argument("--version", action="version")\n'
               'p.add_argument("--input")\np.add_argument("--threads", type=int)\n'
               'p.add_argument("--n-pi", dest="n_pi")\np.add_argument("--out")\n'
               'params["input"]\nparams.get("n_pi")\nparams["threads"] = 2\nns.out\n')
    assert subcommand_dests(snippet) == {"input", "threads", "n_pi", "out"}
    assert flag_reads(snippet) == {"input", "n_pi", "out"}
    source = Path(SRC, "riskcdf", "cli.py").read_text()
    counts = {entry[0] for entry in CERTIFICATE_METHODS.values()}
    assert counts <= subcommand_dests(source)
    assert subcommand_dests(source) - flag_reads(source) - counts == set()


def test_retired_flags_are_not_defined():
    """Each flag in ``cli._RETIRED`` is one its command's parser no longer
    defines: a replay pops a retired flag's recorded value, so a live flag
    listed there could never replay."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, retired in _RETIRED.items():
        assert not {a.dest for a in sub.choices[command]._actions} & set(retired), command


def array_holders(source: str) -> dict[str, bool]:
    """Each ``@dataclass`` class of ``source`` with a field whose annotation
    names ``np.ndarray``, and whether its decorator passes ``eq=False``."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
                isinstance(field, ast.AnnAssign) and "np.ndarray" in ast.unparse(field.annotation)
                for field in node.body):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            if ast.unparse(call.func if call else decorator) in ("dataclass",
                                                                 "dataclasses.dataclass"):
                found[node.name] = call is not None and any(
                    k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in call.keywords)
    return found


ARRAY_HOLDERS = {
    "EmpiricalCDF": lambda: build_cdf([1.0, 2.0]),
    "LossModel": lambda: init_model("logistic_crossentropy", 2, seed=0),
    "LossMatrix": lambda: LossMatrix(np.ones((2, 3))),
    "MonteCarloEnResult": lambda: MonteCarloEnResult(values=np.zeros(3)),
    "TrainTrace": lambda: TrainTrace(risk=np.zeros(2), grad_norm=np.zeros(2), snapshots=()),
    "PermComplexityEstimate": lambda: PermComplexityEstimate(values=np.ones(2),
                                                             solvers=("exact", "exact")),
}


def test_array_holders_compare_by_identity():
    """Every riskcdf dataclass that holds an array passes ``eq=False``: a
    generated ``__eq__`` compares the arrays, so ``==`` raises on two equal
    samples, and the class is left unhashable."""
    assert array_holders(textwrap.dedent("""
        @dataclass(frozen=True)
        class A:
            x: np.ndarray
        @dataclasses.dataclass
        class B:
            y: tuple[tuple[int, np.ndarray], ...] = ()
        @dataclass(frozen=True, eq=False)
        class C:
            x: np.ndarray = field(repr=False)
        @dataclass(frozen=True)
        class D:
            x: float
        class E:
            x: np.ndarray
    """)) == {"A": False, "B": False, "C": True}
    found = {}
    for p in sorted(Path(SRC, "riskcdf").glob("*.py")):
        found.update(array_holders(p.read_text()))
    assert set(ARRAY_HOLDERS) <= set(found)
    assert [name for name, identity in found.items() if not identity] == []


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_hash_and_compare(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a and hash(a) == hash(a)
    assert a != b and not a == b
    assert len({a, b, a}) == 2 and a in {a} and b not in {a}
