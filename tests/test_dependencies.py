"""riskcdf runs on numpy alone: every risk family and every subcommand work in
a fresh interpreter where importing scipy fails.  It reads nothing from the
process environment: every flag value comes from the command line.  One
function writes its JSON and one its CSV.  Its lower layers (CDFs,
certificates, permutation complexity) import none of the layers built on
them."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import riskcdf

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


def opens_for_writing(node: ast.AST) -> bool:
    """Whether ``node`` opens a file in a mode that may write: ``open(path,
    mode)``, ``io.open(path, mode)`` or ``path.open(mode)`` whose mode has w,
    a, x or + or is not a literal, or ``path.write_text``/``write_bytes``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in {"write_text", "write_bytes"}:
        return True
    if isinstance(func, ast.Name) and func.id == "open" or module_calls(node, "io", {"open"}):
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[position:position + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


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
