"""riskcdf runs on numpy alone: every risk family and every subcommand work in
a fresh interpreter where importing scipy fails.  It reads nothing from the
process environment: every flag value comes from the command line.  One
function writes its JSON.  Its lower layers (CDFs, certificates,
permutation complexity) import none of the layers built on them."""

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


JSON_WRITES = {"dump", "dumps"}


def json_writers(source: str) -> list[str]:
    """The function of ``source`` around each ``json.dump``/``json.dumps``
    call (``<module>`` outside any function), and ``<import>`` for each
    ``from json import dump`` or ``dumps``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in JSON_WRITES and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "json"):
                found.append(where)
            elif (isinstance(child, ast.ImportFrom) and child.module == "json"
                  and any(alias.name in JSON_WRITES for alias in child.names)):
                found.append("<import>")
            visit(child, where)

    visit(ast.parse(source), "<module>")
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
