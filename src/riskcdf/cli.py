"""Command-line frontend and experiment harness.

Subcommands: ``cdf`` (CDF export), ``assess`` (multi-risk assessment of a
loss table under one shared certificate), ``bound`` (certificate from a
complexity method), ``train`` (distortion risk minimization), ``complexity``
(permutation complexity of a loss matrix), ``gradcheck`` (finite-difference
gradient audit), and ``rerun`` (replay a recorded run).

Every command writes a ``manifest.json`` with the resolved flag set, input
file digests, toolkit version, and timestamp; ``rerun`` replays a manifest
and reproduces the primary outputs byte for byte under the same numpy and
BLAS build and the same BLAS thread count, which riskcdf neither sets nor
records.
Flag values come from the command line alone; unset flags take the
parser's defaults (``--out .``, ``--seed 0``, ``--delta 0.05``,
``--iters 500``).  Only ``train`` and ``gradcheck`` draw random numbers,
so only they take ``--seed``.  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, bounds, data, risks
from .cdf import _support_bound, build_cdf, moment, read_losses_csv, write_cdf_csv
from .data import _write_csv, _write_json
from .errors import ConfigError, Diverged, FormatError, ToolkitError
from .models import ARCHITECTURES, finite_difference_check, init_model, save_checkpoint
from .optim import stationarity_report, train
from .permcomplexity import exact_min_permutations, greedy_min_permutations, load_loss_matrix_csv
from .seeds import derive_seed, rng_from, standard_normal

PROG = "riskcdf"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise FormatError(f"cannot read input {path}: {exc}") from None
    return h.hexdigest()


def _write_manifest(command: str, params: dict, out_dir: str, digests: dict[str, str]) -> None:
    # JSON has no NaN or infinity, so a non-finite flag value is recorded as
    # its text; every run given one fails, and so does its replay.
    args = {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in params.items()}
    manifest = {
        "command": command,
        "args": args,
        "input_digests": digests,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    os.makedirs(out_dir, exist_ok=True)  # after the inputs are read: a bad one leaves no directory
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))


def _parse_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise ConfigError(f"--hidden expects comma-separated widths, got {text!r}") from None


def run_cdf(params: dict, out_dir: str) -> None:
    losses = read_losses_csv(params["input"])
    cdf = build_cdf(losses)
    summary = {
        "n": cdf.n,
        "min": cdf.min,
        "max": cdf.max,
        "moments": {str(k): moment(cdf, k) for k in (1, 2, 3, 4)},
    }
    write_cdf_csv(cdf, os.path.join(out_dir, "cdf.csv"))
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    print(f"{PROG} cdf: n={cdf.n} min={cdf.min:g} max={cdf.max:g}")


def run_assess(params: dict, out_dir: str) -> None:
    names, losses = data.load_loss_table(params["input"])
    inferred = params["support_bound"] is None
    # A given D is checked once, before any token is parsed, so every risk
    # rejects a bad one with the same error.
    largest = float(losses.max())
    support = _support_bound(float(losses.min()), largest,
                             largest if inferred else params["support_bound"])
    cert = bounds.certificate("finite_class", losses.shape[0], params["delta"], len(names))
    tokens = list(dict.fromkeys(params["risks"] or ["mean"]))  # a repeated token counts once
    evaluators = {token: risks.parse_risk(token, support) for token in tokens}
    # One sorted CDF per model, shared by every token; records stay token-major.
    cells: dict[str, list[risks.RiskValue]] = {token: [] for token in evaluators}
    for column in losses.T:
        cdf = build_cdf(column)
        for token, evaluate in evaluators.items():
            cells[token].append(evaluate(cdf))
    records = [{"model": name, "risk_name": rv.risk_name, "value": rv.value, "L": rv.L,
                "p": rv.p, "error_bound": bounds.risk_error_bound(cert, rv.L, rv.p)}
               for row in cells.values() for name, rv in zip(names, row)]
    payload = {
        "certificate": cert.to_dict(),
        "support_bound": support,
        "support_bound_inferred": inferred,
        "records": records,
    }
    _write_json(payload, os.path.join(out_dir, "assessment.json"))
    values = np.array([[rv.value for rv in cells[token]] for token in tokens])
    _write_csv(os.path.join(out_dir, "assessment.csv"), ["risk", *names], [tokens, *values.T])
    print(f"{PROG} assess: {len(tokens)} risks x {len(names)} models, "
          f"epsilon={cert.epsilon:.6g} (one shared certificate)")


def run_bound(params: dict, out_dir: str) -> None:
    method = params["method"]
    n, delta = params["n"], params["delta"]
    flag = bounds.CERTIFICATE_METHODS[method][0]
    count = params[flag]
    if method == "growth" and count is None:
        # A finite class of size |F| has at most (n+1)|F| labelings; |F| is
        # checked as finite_class checks it, so a bad one is named as given.
        if params["class_size"] is None:
            raise ConfigError("--growth or --class-size is required for method=growth")
        count = (bounds._check_n(n) + 1) * bounds._check_count("finite_class",
                                                                params["class_size"])
    elif count is None:
        raise ConfigError(f"--{flag.replace('_', '-')} is required for method={method}")
    cert = bounds.certificate(method, n, delta, count)
    _write_json(cert.to_dict(), os.path.join(out_dir, "certificate.json"))
    print(f"{PROG} bound: method={method} n={n} delta={delta} epsilon={cert.epsilon:.6g}")
    if cert.vacuous:
        print(f"{PROG} bound: note: epsilon >= 1 is vacuous; a CDF sup-norm distance "
              "never exceeds 1, so this certifies nothing")


def run_train(params: dict, out_dir: str) -> None:
    if params["input"] is not None:
        features, labels = data.load_dataset_csv(params["input"],
                                                 label_column=params["label_column"])
    else:
        features, labels = data.toy_blobs(seed=derive_seed(params["seed"], "data"))
    spec = risks.parse_distortion(params["risk"])
    if params.get("add_bias"):
        features = np.hstack([features, np.ones((features.shape[0], 1))])
    model = init_model(params["arch"], features.shape[1], _parse_hidden(params["hidden"]),
                       seed=params["seed"])
    try:
        final_model, trace = train(model, features, labels, spec, params["iters"],
                                   eta=params["eta"], beta=params["beta"], seed=params["seed"])
    except Diverged as exc:
        if exc.trace is not None:  # keep the evidence up to the failing iteration
            exc.trace.to_csv(os.path.join(out_dir, "trace.csv"))
        raise
    try:
        payload = {"available": True, **stationarity_report(trace, beta=params["beta"])}
    except ConfigError as exc:
        payload = {"available": False, "reason": str(exc)}
    trace.to_csv(os.path.join(out_dir, "trace.csv"))
    save_checkpoint(final_model, os.path.join(out_dir, "checkpoint.json"))
    _write_json(payload, os.path.join(out_dir, "stationarity.json"))
    print(f"{PROG} train: objective={spec.name} T={trace.iterations} "
          f"risk {trace.initial_risk:.6g} -> {trace.risk[-1]:.6g}")


def run_complexity(params: dict, out_dir: str) -> None:
    matrix = load_loss_matrix_csv(params["input"])
    if params["mode"] == "exact":
        value, witnesses = exact_min_permutations(matrix)
    else:
        value, witnesses = greedy_min_permutations(matrix)
    payload = {
        "mode": params["mode"],
        "value": value,
        "witness_permutations": [list(p) for p in witnesses],
        "n_points": matrix.n_points,
        "n_hypotheses": matrix.n_hypotheses,
        "is_upper_bound": params["mode"] == "greedy",
    }
    _write_json(payload, os.path.join(out_dir, "complexity.json"))
    print(f"{PROG} complexity: mode={params['mode']} value={value}")


def run_gradcheck(params: dict, out_dir: str) -> None:
    arch = params["arch"]
    hidden = _parse_hidden(params["hidden"])
    dim = params["input_dim"]
    if params["trials"] < 1:
        raise ConfigError(f"--trials must be at least 1, got {params['trials']}")
    worst = 0.0
    for t in range(params["trials"]):
        trial_seed = derive_seed(params["seed"], "gradcheck", t)
        model = init_model(arch, dim, hidden, seed=trial_seed)
        rng = rng_from(trial_seed, "example")
        x = standard_normal(rng, dim)
        if arch == "linear_squared":
            y = float(standard_normal(rng, 1)[0])
        else:
            y = float(rng.random() < 0.5)
        v = standard_normal(rng, model.dim)
        worst = max(worst, finite_difference_check(model, x, y, v, step=params["step"]))
    payload = {
        "architecture": arch,
        "trials": params["trials"],
        "step": params["step"],
        "max_relative_error": worst,
    }
    _write_json(payload, os.path.join(out_dir, "gradcheck.json"))
    print(f"{PROG} gradcheck: arch={arch} trials={params['trials']} "
          f"max_relative_error={worst:.3g}")


RUNNERS = {
    "cdf": run_cdf,
    "assess": run_assess,
    "bound": run_bound,
    "train": run_train,
    "complexity": run_complexity,
    "gradcheck": run_gradcheck,
}


def _input_paths(params: dict) -> list[str]:
    """The files a run reads: ``--input`` and each file a risk token names
    (assess's ``--risk`` list, train's single ``--risk``)."""
    tokens = params.get("risks") or ([params["risk"]] if params.get("risk") else [])
    paths = [params["input"]] if params.get("input") else []
    return paths + [p for p in map(risks.token_path, tokens) if p is not None]


def _execute(command: str, params: dict, out_dir: str, digests: dict[str, str]) -> None:
    """Write the manifest, with ``digests`` of the run's inputs, then run ``command``."""
    _write_manifest(command, params, out_dir, digests)
    RUNNERS[command](params, out_dir)


def _flag_accepts(action: argparse.Action, value: object) -> bool:
    """Whether ``value`` has the type (and choice) that parsing ``action`` yields."""
    if value is None:
        return action.default is None and not action.required
    if action.nargs == 0:  # --flag switches
        return isinstance(value, bool)
    if isinstance(action, argparse._AppendAction):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    kinds = {int: int, float: (int, float)}.get(action.type, str)
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and (action.choices is None or value in action.choices))


# Flags a command no longer has, each with the value a run recorded when it was
# left unset: a recorded run replays only if it holds that value.
_RETIRED = {"cdf": {"has_header": False}, "assess": {"n": None},
            "train": {"has_header": True, "disable_noise": False}}


def _replay_params(manifest: object, where: str) -> tuple[str, dict, dict]:
    """The command, flags and input digests of a manifest, checked against the
    flags that command defines: every flag present, none unknown, each of the
    type its parser gives, and a digest for every input file."""
    if not isinstance(manifest, dict):
        raise ConfigError(f"{where}: a manifest is a JSON object, got {type(manifest).__name__}")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in RUNNERS:
        raise ConfigError(f"{where}: unknown command {command!r}")
    params = manifest.get("args")
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: 'args' must be an object of flags, got {params!r}")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}
    if "seed" not in actions:  # recorded before cdf, assess, bound and complexity lost --seed
        params = {k: v for k, v in params.items() if k != "seed"}
    for dest, default in _RETIRED.get(command, {}).items():
        if (value := params.pop(dest, default)) is not default:
            raise ConfigError(f"{where}: {command} no longer has the flag {dest!r}; "
                              f"a run recorded with {dest}={value!r} cannot be replayed")
    unknown = sorted(set(params) - set(actions))
    if unknown:
        raise ConfigError(f"{where}: {command} has no flag {unknown[0]!r}")
    for dest, action in actions.items():
        if dest not in params:
            raise ConfigError(f"{where}: args lack the {command} flag {dest!r}")
        if not _flag_accepts(action, params[dest]):
            raise ConfigError(f"{where}: {command} flag {dest!r} cannot be {params[dest]!r}")
    digests = manifest.get("input_digests")
    if not (isinstance(digests, dict) and all(isinstance(v, str) for v in digests.values())):
        raise ConfigError(f"{where}: 'input_digests' must map paths to digests, got {digests!r}")
    for path in _input_paths(params):
        if path not in digests:
            raise ConfigError(f"{where}: input {path} has no recorded digest")
    return command, params, digests


def run_rerun(manifest_path: str, out_dir: str) -> None:
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{manifest_path}: not a JSON manifest: {exc}") from None
    command, params, digests = _replay_params(manifest, manifest_path)
    for path, digest in digests.items():
        if not os.path.exists(path):
            raise ConfigError(f"{manifest_path}: recorded input {path} is missing")
        if _sha256(path) != digest:
            raise ConfigError(f"{manifest_path}: input {path} changed since the recorded run")
    params["out"] = out_dir
    _execute(command, params, out_dir, {p: digests[p] for p in _input_paths(params)})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged).  It is the only source of flag values: a flag left off the
    command line takes the default given here."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Loss-CDF risk assessment, uniform-convergence certificates, "
                    "and distortion risk minimization.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=".",
                       help="output directory (default: current directory)")

    p = sub.add_parser("cdf", help="build an empirical CDF from a loss CSV")
    common(p)
    p.add_argument("--input", required=True)

    p = sub.add_parser("assess", help="evaluate risks on a loss table under one certificate")
    common(p)
    p.add_argument("--input", required=True, help="loss table CSV (header = model names)")
    p.add_argument("--risk", action="append", dest="risks", default=None, metavar="SPEC",
                   help="repeatable: " + " | ".join(risks.RISK_TOKENS))
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--support-bound", type=float, dest="support_bound", default=None,
                   help="loss support bound D (default: table maximum)")

    p = sub.add_parser("bound", help="compute a CDF uniform-convergence certificate")
    common(p)
    p.add_argument("--method", required=True, choices=list(bounds.CERTIFICATE_METHODS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--class-size", type=int, dest="class_size", default=None)
    p.add_argument("--n-pi", type=float, dest="n_pi", default=None)
    p.add_argument("--growth", type=float, default=None)
    p.add_argument("--nu", type=int, default=None)

    p = sub.add_parser("train", help="minimize an empirical distortion risk")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None,
                   help="dataset CSV; omitted = built-in imbalanced blob preset")
    p.add_argument("--label-column", dest="label_column", default="label",
                   help="label header name, or a 0-based column index (required when "
                        "the first row is all numbers, so there is no header)")
    p.add_argument("--arch", default="logistic_crossentropy", choices=ARCHITECTURES)
    p.add_argument("--hidden", default="8", help="MLP widths, comma-separated")
    p.add_argument("--risk", default="mean",
                   help="objective, a distortion risk: " + " | ".join(risks.DISTORTION_TOKENS))
    p.add_argument("--add-bias", dest="add_bias", action="store_true",
                   help="append a constant-1 feature column (intercept)")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--iters", type=int, default=500)

    p = sub.add_parser("complexity", help="permutation complexity of a loss matrix")
    common(p)
    p.add_argument("--input", required=True, help="CSV, rows = hypotheses")
    p.add_argument("--mode", default="exact", choices=["exact", "greedy"])

    p = sub.add_parser("gradcheck", help="directional finite-difference audit of loss gradients")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", default="logistic_crossentropy", choices=ARCHITECTURES)
    p.add_argument("--hidden", default="4")
    p.add_argument("--input-dim", type=int, dest="input_dim", default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--step", type=float, default=1e-6)

    p = sub.add_parser("rerun", help="replay a recorded run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=".")

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "rerun":
            run_rerun(ns.manifest, ns.out)
            return 0
        params = {k: v for k, v in vars(ns).items() if k != "command"}
        _execute(ns.command, params, params["out"], {p: _sha256(p) for p in _input_paths(params)})
        return 0
    except ToolkitError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
