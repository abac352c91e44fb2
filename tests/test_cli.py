import csv
import hashlib
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskcdf.bounds import CERTIFICATE_METHODS
from riskcdf.cdf import build_cdf
from riskcdf.cli import _write_json, build_parser, main
from riskcdf.data import save_dataset_csv, toy_blobs
from riskcdf.errors import NumericError
from riskcdf.models import LossModel, init_model
from riskcdf.seeds import rng_from


def run(argv):
    return main([str(a) for a in argv])


def write_losses(path, values):
    path.write_text("\n".join(f"{v:.17g}" for v in values) + "\n")


def write_table(path, names, columns):
    rows = np.column_stack(columns)
    lines = [",".join(names)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestCmdCdf:
    def test_export_and_summary(self, tmp_path):
        src = tmp_path / "losses.csv"
        write_losses(src, [1, 2, 3])
        out = tmp_path / "out"
        assert run(["cdf", "--input", src, "--out", out]) == 0
        lines = (out / "cdf.csv").read_text().strip().splitlines()
        assert lines[1:] == [
            "1,0.33333333333333331",
            "2,0.66666666666666663",
            "3,1",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 3
        assert summary["moments"]["1"] == pytest.approx(2.0)

    def test_duplicate_heavy_step(self, tmp_path):
        src = tmp_path / "losses.csv"
        write_losses(src, [1, 1, 1, 2])
        out = tmp_path / "out"
        assert run(["cdf", "--input", src, "--out", out]) == 0
        lines = (out / "cdf.csv").read_text().strip().splitlines()
        assert float(lines[1].split(",")[1]) == 0.75

    def test_empty_file_is_data_error(self, tmp_path):
        src = tmp_path / "losses.csv"
        src.write_text("")
        assert run(["cdf", "--input", src, "--out", tmp_path / "o"]) == 3

    def test_text_first_row_is_a_header(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        write_losses(plain, [3, 1, 4])
        headed = tmp_path / "headed.csv"
        headed.write_text("loss\n" + plain.read_text())
        assert run(["cdf", "--input", plain, "--out", tmp_path / "a"]) == 0
        assert run(["cdf", "--input", headed, "--out", tmp_path / "b"]) == 0
        assert capsys.readouterr().out.splitlines() == ["riskcdf cdf: n=3 min=1 max=4"] * 2
        for name in ("cdf.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


MISSING_COUNT = {
    "finite_class": "--class-size is required for method=finite_class",
    "permutation": "--n-pi is required for method=permutation",
    "growth": "--growth or --class-size is required for method=growth",
    "vc_sauer": "--nu is required for method=vc_sauer",
}

# `bound` runs as recorded before the certificate table replaced one function
# per method: each run's argv, exit code, exact certificate.json text (None
# when the run fails), stdout and stderr.  The growth runs with --class-size
# -1 and 0 name the class size since the preset checks it before (n+1)|F|.
CERTIFICATE_PINS = json.loads(
    (Path(__file__).parent / "data" / "certificate_pins.json").read_text())

# `train` runs as recorded before the noise was drawn in blocks: each run's
# argv, exit code and the sha256 of trace.csv, checkpoint.json and
# stationarity.json (None for a file the run does not write).  They cover the
# three architectures, mean (every rank weighted) and CVaR, --beta, plain
# descent (recorded with the retired --disable-noise, replayed with a zero
# noise source), runs that end inside a noise block, a model with one step
# per block (mlp 64,16: 1249 parameters), a diverging run that keeps a partial
# trace and a run whose parameter movement overflows.
TRAIN_PINS = json.loads((Path(__file__).parent / "data" / "train_pins.json").read_text())

# `assess` runs as recorded before the inverted OCE became the reflected OCE:
# each run's argv and the sha256 of assessment.json and assessment.csv.  Each
# of the eight token forms runs alone and all eight run together, with the
# support bound given (6) and inferred (the table's maximum, 5), on the inputs
# `write_assess_inputs` writes.  Runs start in the inputs' directory, since
# risk names embed a token's path.
ASSESS_PINS = json.loads((Path(__file__).parent / "data" / "assess_pins.json").read_text())


def write_assess_inputs(where):
    """A seeded 300 x 4 loss table in [0, 5], ties on a 0.05 grid in two
    columns and both 0 and 5 attained, a concave distortion table and a
    spectrum table, written to ``where`` as losses.csv, g.csv and h.csv."""
    rng = np.random.default_rng(35)
    cols = []
    for j in range(4):
        x = 5.0 * rng.beta(1.0 + j % 3, 1.5 + j % 2, 300)
        cols.append(np.round(x * 20.0) / 20.0 if j % 2 == 0 else x)
    cols[0][7], cols[1][11] = 5.0, 0.0
    write_table(where / "losses.csv", ["m0", "m1", "m2", "m3"], cols)
    (where / "g.csv").write_text("t,g\n0,0\n0.2,0.5\n0.6,0.9\n1,1\n")
    (where / "h.csv").write_text("u,h\n0,0.5\n0.5,1\n1,1.5\n")


class TestCmdBound:
    def test_finite_class_spot_value(self, tmp_path):
        out = tmp_path / "b"
        assert run(["bound", "--method", "finite_class", "--class-size", 5,
                    "--n", 100, "--delta", 0.1, "--out", out]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert f"{cert['epsilon']:.4g}" == "0.3521"

    def test_permutation_is_smallest_at_npi_one(self, tmp_path):
        eps = {}
        for method, extra in [
            ("permutation", ["--n-pi", 1]),
            ("finite_class", ["--class-size", 5]),
            ("vc_sauer", ["--nu", 3]),
        ]:
            out = tmp_path / method
            assert run(["bound", "--method", method, "--n", 100, "--delta", 0.1,
                        "--out", out, *extra]) == 0
            eps[method] = json.loads((out / "certificate.json").read_text())["epsilon"]
        assert eps["permutation"] < eps["finite_class"] < eps["vc_sauer"]

    def test_vc_sauer_rademacher_value(self, tmp_path):
        out = tmp_path / "v"
        assert run(["bound", "--method", "vc_sauer", "--nu", 3, "--n", 100,
                    "--delta", 0.1, "--out", out]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["rademacher_bound"] == pytest.approx(
            2 * math.sqrt(3 * math.log(101) / 100)
        )

    def test_missing_method_input_is_config_error(self, tmp_path):
        assert run(["bound", "--method", "finite_class", "--n", 100,
                    "--out", tmp_path / "x"]) == 2

    def test_method_choices_are_the_table(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        method = next(a for a in sub.choices["bound"]._actions if a.dest == "method")
        assert method.choices == list(CERTIFICATE_METHODS) == list(MISSING_COUNT)

    @pytest.mark.parametrize("method", MISSING_COUNT)
    def test_missing_count_names_its_flag(self, tmp_path, capsys, method):
        assert run(["bound", "--method", method, "--n", 100, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"riskcdf: error: {MISSING_COUNT[method]}\n"

    @pytest.mark.parametrize("pin", CERTIFICATE_PINS, ids=[p["name"] for p in CERTIFICATE_PINS])
    def test_pinned_run(self, tmp_path, capsys, pin):
        out = tmp_path / "out"
        assert main([*pin["argv"], "--out", str(out)]) == pin["exit_code"]
        path = out / "certificate.json"
        assert (path.read_text() if path.exists() else None) == pin["certificate"]
        assert capsys.readouterr() == (pin["stdout"], pin["stderr"])

    def test_vacuous_certificate_is_marked(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run(["bound", "--method", "vc_sauer", "--nu", 100000, "--n", 10,
                    "--out", out]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["epsilon"] >= 1 and cert["vacuous"] is True
        assert "vacuous" in capsys.readouterr().out

    def test_informative_certificate_is_not_vacuous(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert run(["bound", "--method", "finite_class", "--class-size", 5,
                    "--n", 100, "--delta", 0.1, "--out", out]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["epsilon"] < 1 and cert["vacuous"] is False
        assert "vacuous" not in capsys.readouterr().out


class TestCmdAssess:
    def test_single_certificate_and_ratio(self, tmp_path):
        src = tmp_path / "table.csv"
        rng = rng_from(0, "assess")
        cols = [rng.random(400) for _ in range(3)]
        write_table(src, ["m1", "m2", "m3"], cols)
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "mean", "--risk", "cvar:0.05",
                    "--delta", 0.05, "--support-bound", 1, "--out", out]) == 0
        payload = json.loads((out / "assessment.json").read_text())
        assert isinstance(payload["certificate"], dict)  # exactly one certificate
        eps = payload["certificate"]["epsilon"]
        by_risk = {}
        for record in payload["records"]:
            by_risk.setdefault(record["risk_name"], record)
        assert by_risk["mean"]["error_bound"] == pytest.approx(eps)
        assert by_risk["cvar:0.05"]["error_bound"] == pytest.approx(20 * eps)

    def test_large_n_spot_value(self, tmp_path):
        # The certificate's n is the table's row count, here 50,000.
        src = tmp_path / "table.csv"
        write_table(src, ["a", "b", "c", "d", "e"], [np.linspace(0, 1, 50_000)] * 5)
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "mean",
                    "--delta", 0.05, "--support-bound", 1, "--out", out]) == 0
        payload = json.loads((out / "assessment.json").read_text())
        assert payload["certificate"]["n"] == 50_000
        assert payload["certificate"]["epsilon"] == pytest.approx(0.01642, abs=1e-5)
        mean_records = [r for r in payload["records"] if r["risk_name"] == "mean"]
        assert mean_records[0]["error_bound"] == pytest.approx(0.01642, abs=1e-5)

    def test_delta_one_drops_mcdiarmid_term(self, tmp_path):
        src = tmp_path / "table.csv"
        write_table(src, ["solo"], [np.linspace(0, 1, 16)])
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "mean", "--delta", 1,
                    "--support-bound", 1, "--out", out]) == 0
        payload = json.loads((out / "assessment.json").read_text())
        cert = payload["certificate"]
        assert cert["epsilon"] == pytest.approx(2 * cert["rademacher_bound"])
        assert payload["records"][0]["error_bound"] == pytest.approx(cert["epsilon"])

    def test_oce_and_mean_var_risks(self, tmp_path):
        src = tmp_path / "table.csv"
        write_table(src, ["m"], [np.array([1.0, 2.0, 3.0, 4.0])])
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "mean_var:0.5",
                    "--risk", "oce:cvar:0.5", "--support-bound", 4, "--out", out]) == 0
        matrix = (out / "assessment.csv").read_text().strip().splitlines()
        assert matrix[0] == "risk,m"
        values = {line.split(",")[0]: float(line.split(",")[1]) for line in matrix[1:]}
        assert values["mean_var:0.5"] == pytest.approx(2.5 + 0.5 * 1.25)
        assert values["oce:cvar:0.5"] == pytest.approx(3.5, abs=1e-6)

    def test_oce_cvar_equals_cvar_at_tiny_alpha(self, tmp_path):
        src = tmp_path / "table.csv"
        write_table(src, ["a", "b"], [np.array([1.0, 2.0, 3.0, 4.0]),
                                      np.array([0.5, 0.0, 2.5, 2.5])])
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "oce:cvar:1e-17",
                    "--risk", "cvar:1e-17", "--out", out]) == 0
        oce, plain = (out / "assessment.csv").read_text().splitlines()[1:]
        assert oce.split(",", 1) == ["oce:cvar:1e-17", plain.split(",", 1)[1]]

    def test_csv_quotes_names_and_tokens_with_commas(self, tmp_path):
        src = tmp_path / "table.csv"
        src.write_text('"a,b",c\n1,2\n3,4\n')
        dist = tmp_path / "g,1.csv"
        dist.write_text("t,g\n0,0\n1,1\n")
        token = f"distortion-file:{dist}"
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "mean", "--risk", token,
                    "--out", out]) == 0
        with open(out / "assessment.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["risk", "a,b", "c"], ["mean", "2", "3"], [token, "2", "3"]]
        assert (out / "assessment.csv").read_bytes().count(b"\r\n") == 3

    def test_unknown_risk_is_config_error(self, tmp_path):
        src = tmp_path / "table.csv"
        write_table(src, ["m"], [np.array([1.0])])
        assert run(["assess", "--input", src, "--risk", "nope",
                    "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("token", ["cvar:abc", "oce:cvar:", "mean_var:x", "cvar:abc:0.5",
                                       "mean_var:x:0.5", "oce:cvar:q:0.5", "mean_var:nan",
                                       "mean_var:inf"])
    def test_non_numeric_risk_parameter_is_config_error(self, tmp_path, capsys, token):
        src = tmp_path / "table.csv"
        write_table(src, ["m"], [np.array([1.0])])
        assert run(["assess", "--input", src, "--risk", token,
                    "--out", tmp_path / "x"]) == 2
        assert "is not a finite number" in capsys.readouterr().err

    def test_negative_mean_var_constant_is_positive(self, tmp_path):
        src = tmp_path / "table.csv"
        write_table(src, ["m"], [np.array([0.0, 1.0, 3.0])])
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "mean_var:-1", "--support-bound", 3,
                    "--out", out]) == 0
        record = json.loads((out / "assessment.json").read_text())["records"][0]
        assert record["L"] == 3 + 3 * 9
        assert record["error_bound"] > 0

    def test_steep_distortion_file_bound(self, tmp_path):
        src = tmp_path / "table.csv"
        write_table(src, ["m"], [np.array([1.0, 2.0, 3.0, 4.0])])
        dist = tmp_path / "steep.csv"
        dist.write_text("t,g\n0,0\n0.5,0.1\n0.50001,0.9\n1,1\n")
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", f"distortion-file:{dist}",
                    "--support-bound", 4, "--out", out]) == 0
        payload = json.loads((out / "assessment.json").read_text())
        record = payload["records"][0]
        assert record["L"] == pytest.approx(4 * 0.8 / 1e-5, rel=1e-9)
        assert record["error_bound"] == pytest.approx(
            record["L"] * payload["certificate"]["epsilon"], rel=1e-12)

    @pytest.mark.parametrize("bound", ["-1", "3.5", "nan"])
    def test_support_bound_below_losses_is_data_error(self, tmp_path, capsys, bound):
        src = tmp_path / "table.csv"
        write_table(src, ["m"], [np.array([1.0, 4.0])])
        assert run(["assess", "--input", src, "--risk", "cvar:0.5", "--support-bound", bound,
                    "--out", tmp_path / "x"]) == 3
        assert "support bound" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["nan", "inf", "-1", "3.5"])
    def test_bad_support_bound_gives_one_error_for_every_token(self, tmp_path, capsys, bound):
        src = tmp_path / "table.csv"
        write_table(src, ["m", "k"], [np.array([1.0, 4.0]), np.array([0.5, 2.0])])
        errors = set()
        for token in ["mean", "oce:mean", "oce:entropic"]:
            assert run(["assess", "--input", src, "--risk", token, "--support-bound", bound,
                        "--out", tmp_path / token]) == 3, token
            errors.add(capsys.readouterr().err)
        assert errors == {f"riskcdf: error: support bound {float(bound)} must be finite "
                          "and at least the largest loss 4.0\n"}

    def test_negative_loss_is_data_error(self, tmp_path):
        src = tmp_path / "table.csv"
        src.write_text("m\n-3\n")
        assert run(["assess", "--input", src, "--out", tmp_path / "x"]) == 3

    @pytest.mark.parametrize("flags, inferred, support", [
        ([], True, 4.0), (["--support-bound", 5], False, 5.0)], ids=["inferred", "given"])
    def test_support_bound_inferred_flag(self, tmp_path, flags, inferred, support):
        src = tmp_path / "table.csv"
        write_table(src, ["m"], [np.array([1.0, 4.0])])
        out = tmp_path / "a"
        assert run(["assess", "--input", src, "--risk", "mean", *flags, "--out", out]) == 0
        payload = json.loads((out / "assessment.json").read_text())
        assert payload["support_bound_inferred"] is inferred
        assert payload["support_bound"] == support


class TestAssessPins:
    @pytest.mark.parametrize("pin", ASSESS_PINS, ids=[p["name"] for p in ASSESS_PINS])
    def test_pinned_run(self, tmp_path, monkeypatch, pin):
        monkeypatch.chdir(tmp_path)
        write_assess_inputs(tmp_path)
        assert main([*pin["argv"], "--out", "out"]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in pin["sha256"]}
        assert digests == pin["sha256"]


class TestAssessHotPath:
    """Guards on what one assess run computes: one CDF per model, one entry per
    distinct token, and the same values as evaluating each cell on its own."""

    TOKENS = ["mean", "cvar:0.25", "mean_var:0.5", "oce:entropic"]

    def write(self, tmp_path):
        src = tmp_path / "table.csv"
        rng = rng_from(3, "hot-path")
        cols = [np.round(rng.random(50) * 8) / 4 for _ in range(3)]  # ties
        write_table(src, ["m1", "m2", "m3"], cols)
        return src, cols

    def assess(self, src, out, tokens):
        argv = ["assess", "--input", src, "--support-bound", 2, "--out", out]
        for token in tokens:
            argv += ["--risk", token]
        assert run(argv) == 0
        return json.loads((out / "assessment.json").read_text())

    def test_one_cdf_per_model(self, tmp_path, monkeypatch):
        import riskcdf.cli as cli

        built = []
        original = cli.build_cdf
        monkeypatch.setattr(cli, "build_cdf", lambda x: built.append(1) or original(x))
        src, _ = self.write(tmp_path)
        payload = self.assess(src, tmp_path / "a", self.TOKENS)
        assert len(built) == 3
        assert [(r["risk_name"], r["model"]) for r in payload["records"]] == [
            (token, m) for token in self.TOKENS for m in ("m1", "m2", "m3")]

    def test_repeated_token_counts_once(self, tmp_path):
        src, _ = self.write(tmp_path)
        out = tmp_path / "a"
        payload = self.assess(src, out, ["mean", "oce:entropic", "mean", "oce:entropic"])
        assert [(r["risk_name"], r["model"]) for r in payload["records"]] == [
            (token, m) for token in ("mean", "oce:entropic") for m in ("m1", "m2", "m3")]
        rows = (out / "assessment.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["risk", "mean", "oce:entropic"]

    @pytest.mark.parametrize("models", [1, 3, 8])
    def test_rank_weights_once_per_token(self, tmp_path, monkeypatch, models):
        from riskcdf import risks

        calls = []
        f = risks.DistortionSpec.rank_weights
        monkeypatch.setattr(risks.DistortionSpec, "rank_weights",
                            lambda self, n: calls.append(n) or f(self, n))
        src = tmp_path / "table.csv"
        rng = rng_from(4, "hot-path")
        write_table(src, [f"m{j}" for j in range(models)],
                    [np.round(rng.random(50) * 8) / 4 for _ in range(models)])
        dist, spec = tmp_path / "g.csv", tmp_path / "h.csv"
        dist.write_text("t,g\n0,0\n0.5,0.8\n1,1\n")
        spec.write_text("u,h\n0,0.5\n1,1.5\n")
        rank_weighted = ["mean", "cvar:0.25", "oce:cvar:0.3", f"distortion-file:{dist}",
                         f"spectral-file:{spec}"]
        self.assess(src, tmp_path / "a", [*rank_weighted, "mean_var:0.5", "oce:entropic"])
        assert calls == [50] * len(rank_weighted)

    def test_values_equal_per_cell_evaluation(self, tmp_path):
        from riskcdf import risks
        from riskcdf.cdf import build_cdf

        src, cols = self.write(tmp_path)
        payload = self.assess(src, tmp_path / "a", self.TOKENS)
        per_cell = {
            "mean": lambda c: risks.distortion_risk(c, risks.identity_distortion(), 2.0),
            "cvar:0.25": lambda c: risks.cvar(c, 0.25, 2.0),
            "mean_var:0.5": lambda c: risks.mean_variance(c, 0.5, 2.0),
        }
        records = {(r["risk_name"], r["model"]): r["value"] for r in payload["records"]}
        for token, evaluate in per_cell.items():
            for name, col in zip(("m1", "m2", "m3"), cols):
                assert records[(token, name)] == evaluate(build_cdf(col)).value


class TestCmdTrain:
    @pytest.mark.parametrize("pin", TRAIN_PINS, ids=[p["name"] for p in TRAIN_PINS])
    def test_pinned_run(self, tmp_path, request, pin):
        out = tmp_path / "out"
        argv = [a for a in pin["argv"] if a != "--disable-noise"]
        if argv != pin["argv"]:
            request.getfixturevalue("zero_step_noise")
        assert main([*argv, "--out", str(out)]) == pin["exit_code"]
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   if (out / name).exists() else None for name in pin["sha256"]}
        assert digests == pin["sha256"]

    def test_identity_matches_plain_erm_reference(self, tmp_path, zero_step_noise):
        # Independent reference: hand-rolled full-batch logistic GD with the
        # same init and no noise must match the CLI trajectory exactly.
        X, y = toy_blobs(seed=7)
        src = tmp_path / "ds.csv"
        save_dataset_csv(X, y, src)
        out = tmp_path / "t"
        assert run(["train", "--input", src, "--arch", "logistic_crossentropy",
                    "--risk", "mean", "--eta", 0.2, "--iters", 40, "--seed", 7,
                    "--out", out]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())

        theta = init_model("logistic_crossentropy", 2, seed=7).params.copy()
        for _ in range(40):
            p = 1.0 / (1.0 + np.exp(-(X @ theta)))
            theta = theta - 0.2 * ((p - y)[:, None] * X).mean(axis=0)
        assert np.allclose(ckpt["parameter_vector"], theta, atol=1e-9)

    def test_mlp_without_hidden_layer(self, tmp_path):
        """``--hidden ""`` trains an MLP with no hidden layer: two weights and a bias."""
        assert run(["train", "--arch", "mlp_tanh", "--hidden", "", "--eta", 0.1, "--iters", 5,
                    "--out", tmp_path]) == 0
        ckpt = json.loads((tmp_path / "checkpoint.json").read_text())
        assert ckpt["hyperparameters"] == {"input_dim": 2, "hidden": []}
        assert len(ckpt["parameter_vector"]) == 3

    @pytest.mark.parametrize("key, message", [
        ("NAN_DATASET", "{src}: row 3, column 2 (b): not a finite number: nan"),
        ("LABEL_DATASET", "logistic_crossentropy: label 2 of example 2 is outside [0, 1], "
                          "which cross-entropy needs"),
    ])
    def test_input_data_errors_name_their_cause(self, tmp_path, capsys, key, message):
        src = tmp_path / "d.csv"
        src.write_text(DATASETS[key])
        assert run(["train", "--input", src, "--eta", 0.1, "--iters", 3,
                    "--out", tmp_path / "o"]) == 3
        assert capsys.readouterr().err == f"riskcdf: error: {message.format(src=src)}\n"

    def test_eta_zero_is_flat(self, tmp_path):
        out = tmp_path / "t"
        assert run(["train", "--risk", "mean", "--eta", 0, "--iters", 5, "--out", out]) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()[1:]
        risks = {line.split(",")[1] for line in lines}
        assert len(risks) == 1

    def test_cvar_objective_on_blob_preset(self, tmp_path):
        out_mean = tmp_path / "mean"
        out_cvar = tmp_path / "cvar"
        for out, risk in [(out_mean, "mean"), (out_cvar, "cvar:0.05")]:
            assert run(["train", "--risk", risk, "--eta", 0.1, "--iters", 300,
                        "--seed", 11, "--add-bias", "--out", out]) == 0
        final_cvar = {}
        for name, out in [("mean", out_mean), ("cvar", out_cvar)]:
            from riskcdf.cdf import build_cdf
            from riskcdf.data import toy_blobs as blobs
            from riskcdf.models import load_checkpoint
            from riskcdf.risks import cvar
            from riskcdf.seeds import derive_seed
            model = load_checkpoint(out / "checkpoint.json")
            features, y = blobs(seed=derive_seed(11, "data"))
            X = np.hstack([features, np.ones((features.shape[0], 1))])
            losses = model.batch_losses(X, y)
            final_cvar[name] = cvar(build_cdf(losses), 0.05).value
        assert final_cvar["cvar"] < final_cvar["mean"]

    def test_subnormal_cvar_level_trains_without_warning(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--risk", "cvar:1e-320", "--eta", 0.1, "--iters", 5,
                        "--out", tmp_path / "x"]) == 0
        assert not [str(w.message) for w in caught]
        assert capsys.readouterr().err == ""

    def test_missing_eta_and_beta_is_config_error(self, tmp_path):
        assert run(["train", "--iters", 3, "--out", tmp_path / "x"]) == 2

    def test_divergence_exit_code(self, tmp_path):
        src = tmp_path / "ds.csv"
        save_dataset_csv(*toy_blobs(seed=1), src)
        assert run(["train", "--input", src, "--arch", "linear_squared",
                    "--risk", "mean", "--eta", 50, "--iters", 200,
                    "--out", tmp_path / "x"]) == 4

    def test_non_finite_loss_diverges(self, tmp_path, capsys):
        # The first step moves the weight to about 1e308, where the next
        # iteration's squared residual overflows to inf.
        src = tmp_path / "ds.csv"
        src.write_text("a,label\n1,0\n1,0\n")
        out = tmp_path / "x"
        assert run(["train", "--input", src, "--arch", "linear_squared", "--eta", "1e308",
                    "--out", out]) == 4
        assert capsys.readouterr().err == "riskcdf: error: non-finite loss at iteration 2\n"
        assert (out / "trace.csv").read_text().count("\n") == 2  # header and iteration 1

    def test_divergence_keeps_partial_trace(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["train", "--arch", "linear_squared", "--eta", 1e6, "--iters", 50,
                    "--out", out]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failed_at = int(err.rsplit("iteration", 1)[1])
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,risk,grad_norm,avg_sq_grad_norm"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, failed_at))
        assert failed_at >= 2

    def test_non_finite_step_writes_no_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--arch", "linear_squared", "--eta", 1e308, "--iters", 1,
                        "--out", out]) == 4
        assert not [str(w.message) for w in caught]  # a warning would reach stderr too
        assert capsys.readouterr().err == (
            "riskcdf: error: the step at iteration 1 made the parameters non-finite\n")
        assert sorted(os.listdir(out)) == ["manifest.json", "trace.csv"]
        lines = (out / "trace.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["t", "1"]

    def test_overflowing_movement_is_reported_without_warning(self, tmp_path, capsys):
        # The step takes the parameters to about 3.5e307: finite, but the norm
        # of their movement overflows.
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--arch", "mlp_tanh", "--eta", 1e308, "--iters", 2,
                        "--out", out]) == 0
        assert not [str(w.message) for w in caught]
        assert capsys.readouterr().err == ""
        assert json.loads((out / "stationarity.json").read_text()) == {
            "available": False,
            "reason": "cannot estimate beta: parameter movement is not finite"}

    def test_headerless_dataset_by_column_index(self, tmp_path):
        with_header = tmp_path / "ds.csv"
        save_dataset_csv(*toy_blobs(seed=3), with_header)
        headerless = tmp_path / "plain.csv"
        headerless.write_text(with_header.read_text().split("\n", 1)[1])
        flags = ["--arch", "logistic_crossentropy", "--eta", 0.2, "--iters", 5]
        assert run(["train", "--input", with_header, *flags, "--out", tmp_path / "a"]) == 0
        assert run(["train", "--input", headerless, "--label-column", 2,
                    *flags, "--out", tmp_path / "b"]) == 0
        for name in ("trace.csv", "checkpoint.json", "stationarity.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_headerless_label_name_is_config_error(self, tmp_path, capsys):
        src = tmp_path / "plain.csv"
        src.write_text("0.5,1.0,0\n3,4,1\n")
        assert run(["train", "--input", src, "--eta", 0.1, "--iters", 2,
                    "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == (
            f"riskcdf: error: {src} has no header, so the label column must be a 0-based "
            "column index, got 'label'\n")


class TestCmdComplexity:
    def test_monotone_family(self, tmp_path):
        base = np.array([0.3, 0.9, 0.1, 0.5])
        rows = np.stack([base, base ** 2, 5 * base])
        src = tmp_path / "m.csv"
        src.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in rows))
        out = tmp_path / "c"
        assert run(["complexity", "--input", src, "--mode", "exact", "--out", out]) == 0
        payload = json.loads((out / "complexity.json").read_text())
        assert payload["value"] == 1

    def test_all_binary_patterns_with_witnesses(self, tmp_path):
        import itertools
        rows = list(itertools.product([0, 1], repeat=3))
        src = tmp_path / "m.csv"
        src.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        out = tmp_path / "c"
        assert run(["complexity", "--input", src, "--mode", "exact", "--out", out]) == 0
        payload = json.loads((out / "complexity.json").read_text())
        assert payload["value"] <= 4
        assert len(payload["witness_permutations"]) == payload["value"]

    def test_negative_entries_are_accepted(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,2,3\n4,-1,6\n")
        out = tmp_path / "c"
        assert run(["complexity", "--input", src, "--out", out]) == 0
        assert json.loads((out / "complexity.json").read_text())["value"] == 2

    def test_greedy_beyond_64_weak_orders(self, tmp_path, capsys):
        rows = np.random.default_rng(100).uniform(size=(100, 12))
        src = tmp_path / "m.csv"
        src.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in rows))
        out = tmp_path / "c"
        assert run(["complexity", "--input", src, "--mode", "greedy", "--out", out]) == 0
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((out / "complexity.json").read_text())
        assert payload["is_upper_bound"] is True
        assert payload["value"] == len(payload["witness_permutations"]) <= 100

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_blank_cell_rows_skipped(self, tmp_path, mode):
        rows = np.random.default_rng(4).integers(0, 3, size=(12, 5))
        text = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text(text)
        blank.write_text(",\n" + text.replace("\n", "\n,,,,\n", 3))
        for src, out in [(plain, "a"), (blank, "b")]:
            assert run(["complexity", "--input", src, "--mode", mode,
                        "--out", tmp_path / out]) == 0
        got = [(tmp_path / out / "complexity.json").read_bytes() for out in "ab"]
        assert got[0] == got[1]

    def test_exact_limit_counts_distinct_orders(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("2,0,1,1,3\n" * 100)
        out = tmp_path / "c"
        assert run(["complexity", "--input", src, "--mode", "exact", "--out", out]) == 0
        payload = json.loads((out / "complexity.json").read_text())
        assert (payload["value"], payload["witness_permutations"]) == (1, [[1, 2, 3, 0, 4]])

    def test_too_large_suggests_greedy(self, tmp_path, capsys):
        src = tmp_path / "m.csv"
        src.write_text(",".join(["1"] * 9) + "\n" + ",".join(["2"] * 9))
        assert run(["complexity", "--input", src, "--mode", "exact",
                    "--out", tmp_path / "c"]) == 4
        assert "greedy" in capsys.readouterr().err


class TestCmdGradcheck:
    @pytest.mark.parametrize("arch,tol", [
        ("linear_squared", 1e-7),
        ("logistic_crossentropy", 1e-4),
        ("mlp_tanh", 1e-4),
    ])
    def test_architectures(self, tmp_path, arch, tol):
        out = tmp_path / arch
        assert run(["gradcheck", "--arch", arch, "--trials", 25, "--seed", 0,
                    "--out", out]) == 0
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["max_relative_error"] <= tol

    def test_mlp_without_hidden_layer(self, tmp_path):
        """``--hidden ""`` audits an MLP with no hidden layer: weights and a bias."""
        assert run(["gradcheck", "--arch", "mlp_tanh", "--hidden", "", "--trials", 25,
                    "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "gradcheck.json").read_text())["max_relative_error"] <= 1e-4

    def test_overflowing_step_names_the_step(self, tmp_path, capsys):
        assert run(["gradcheck", "--arch", "linear_squared", "--step", "1e300", "--trials", 2,
                    "--out", tmp_path / "g"]) == 4
        assert capsys.readouterr().err == (
            "riskcdf: error: the finite-difference relative error is nan at step 1e+300\n")

    @pytest.mark.parametrize("fault", ["output-bias-zeroed", "first-layer-halved",
                                       "first-weight-negated"])
    @pytest.mark.parametrize("sizes", [[], ["--input-dim", 100, "--hidden", 128, "--trials", 2]],
                             ids=["default", "d13057"])
    def test_backward_pass_faults_are_caught(self, tmp_path, monkeypatch, fault, sizes):
        backward = LossModel._mlp_vjp

        def faulty(self, activations, delta):
            grad = backward(self, activations, delta)
            if fault == "output-bias-zeroed":
                grad[-1] = 0.0
            elif fault == "first-layer-halved":
                w, b = self._mlp_layers()[0]
                grad[:w.size + b.size] *= 0.5
            else:
                grad[0] = -grad[0]
            return grad

        monkeypatch.setattr(LossModel, "_mlp_vjp", faulty)
        assert run(["gradcheck", "--arch", "mlp_tanh", *sizes, "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "gradcheck.json").read_text())["max_relative_error"] > 1e-4


class TestManifestRerun:
    @staticmethod
    def primary_files(out):
        return sorted(p.name for p in out.iterdir() if p.name != "manifest.json")

    def assert_rerun_identical(self, tmp_path, argv):
        out_a = tmp_path / "a"
        assert run([*argv, "--out", out_a]) == 0
        out_b = tmp_path / "b"
        assert run(["rerun", "--manifest", out_a / "manifest.json", "--out", out_b]) == 0
        names = self.primary_files(out_a)
        assert names == self.primary_files(out_b)
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_bound_rerun(self, tmp_path):
        self.assert_rerun_identical(
            tmp_path, ["bound", "--method", "finite_class", "--class-size", 3, "--n", 50]
        )

    def test_train_rerun(self, tmp_path):
        self.assert_rerun_identical(
            tmp_path,
            ["train", "--risk", "cvar:0.5", "--eta", 0.05, "--iters", 30,
             "--seed", 5],
        )

    def test_assess_rerun(self, tmp_path):
        src = tmp_path / "table.csv"
        write_table(src, ["m1", "m2"], [np.linspace(0, 1, 9), np.linspace(1, 0, 9) ** 2])
        self.assert_rerun_identical(
            tmp_path, ["assess", "--input", src, "--risk", "cvar:0.25", "--risk", "oce:entropic"]
        )

    def test_cdf_rerun_and_digest_guard(self, tmp_path):
        src = tmp_path / "l.csv"
        write_losses(src, [3, 1, 4, 1, 5])
        out_a = tmp_path / "a"
        assert run(["cdf", "--input", src, "--out", out_a]) == 0
        write_losses(src, [9, 9])
        assert run(["rerun", "--manifest", out_a / "manifest.json",
                    "--out", tmp_path / "b"]) == 2

    def test_missing_recorded_input_is_config_error(self, tmp_path, capsys):
        src = tmp_path / "l.csv"
        write_losses(src, [3, 1, 4])
        assert run(["cdf", "--input", src, "--out", tmp_path / "a"]) == 0
        src.unlink()
        manifest = tmp_path / "a" / "manifest.json"
        assert run(["rerun", "--manifest", manifest, "--out", tmp_path / "b"]) == 2
        assert capsys.readouterr().err == (
            f"riskcdf: error: {manifest}: recorded input {src} is missing\n")

    def test_rerun_hashes_each_input_once(self, tmp_path, monkeypatch):
        """The digests a rerun checks are the ones its manifest records."""
        import riskcdf.cli as cli

        src = tmp_path / "l.csv"
        write_losses(src, [3, 1, 4])
        out_a = tmp_path / "a"
        assert run(["cdf", "--input", src, "--out", out_a]) == 0
        hashed = []
        original = cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or original(path))
        assert run(["rerun", "--manifest", out_a / "manifest.json", "--out", tmp_path / "b"]) == 0
        assert hashed == [str(src)]
        recorded = json.loads((out_a / "manifest.json").read_text())["input_digests"]
        replayed = json.loads((tmp_path / "b" / "manifest.json").read_text())["input_digests"]
        assert replayed == recorded == {str(src): hashlib.sha256(src.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("prefix, table, edited", [
        ("distortion-file", "t,g\n0,0\n0.5,0.8\n1,1\n", "t,g\n0,0\n0.5,0.2\n1,1\n"),
        ("spectral-file", "u,h\n0,0.5\n1,1.5\n", "u,h\n0,0\n0.5,1\n1,2\n"),
    ], ids=["distortion-file", "spectral-file"])
    def test_train_distortion_file_digest_guard(self, tmp_path, capsys, prefix, table, edited):
        dist = tmp_path / "g.csv"
        dist.write_text(table)
        out_a = tmp_path / "a"
        assert run(["train", "--risk", f"{prefix}:{dist}", "--eta", 0.05,
                    "--iters", 5, "--out", out_a]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert list(manifest["input_digests"]) == [str(dist)]
        dist.write_text(edited)
        capsys.readouterr()
        assert run(["rerun", "--manifest", out_a / "manifest.json",
                    "--out", tmp_path / "b"]) == 2
        assert f"input {dist} changed since the recorded run" in capsys.readouterr().err

    def test_old_train_manifest_with_distortion_file_flag_rejected(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        assert run(["train", "--eta", 0.05, "--iters", 3, "--out", out_a]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["args"]["distortion_file"] = None
        path = tmp_path / "old.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["rerun", "--manifest", path, "--out", tmp_path / "b"]) == 2
        assert "train has no flag 'distortion_file'" in capsys.readouterr().err

    def test_recorded_manifest_replays_byte_identically(self, tmp_path):
        """A manifest as recorded for ``train --eta 0.1 --iters 3`` when unset
        flags could still be preset from the environment: its args equal
        those a run records now but for the retired ``has_header`` and
        ``disable_noise``, and its replay writes the same files."""
        recorded = {
            "args": {"add_bias": False, "arch": "logistic_crossentropy", "beta": None,
                     "disable_noise": False, "eta": 0.1, "has_header": True, "hidden": "8",
                     "input": None, "iters": 3, "label_column": "label", "out": "m1",
                     "risk": "mean", "seed": 0},
            "command": "train",
            "input_digests": {},
            "seed": 0,
            "timestamp": "2026-10-19T12:03:08.194845+00:00",
            "version": "0.1.0",
        }
        path = tmp_path / "recorded.json"
        path.write_text(json.dumps(recorded, indent=2))
        out_a = tmp_path / "a"
        assert run(["train", "--eta", 0.1, "--iters", 3, "--out", out_a]) == 0
        written = json.loads((out_a / "manifest.json").read_text())
        args = {k: v for k, v in recorded["args"].items()
                if k not in ("has_header", "disable_noise")}
        assert written["args"] == {**args, "out": str(out_a)}
        out_b = tmp_path / "b"
        assert run(["rerun", "--manifest", path, "--out", out_b]) == 0
        names = self.primary_files(out_a)
        assert names == self.primary_files(out_b) == [
            "checkpoint.json", "stationarity.json", "trace.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_recorded_assess_manifest_with_seed_replays(self, tmp_path):
        """A manifest as recorded for ``assess`` when it still took ``--seed``
        and ``--n``: its replay drops both and writes the same files as a run
        today."""
        table = tmp_path / "table.csv"
        table.write_text("m1,m2\n0.5,1\n2,0\n3.5,4\n")
        recorded = {
            "args": {"delta": 0.05, "input": str(table), "n": None, "out": "a",
                     "risks": ["cvar:0.5", "mean_var:0.5"], "seed": 0, "support_bound": None},
            "command": "assess",
            "input_digests": {
                str(table): "2a8a7435c8de907392a3c847f0592099e9c7792f45b6844f0fb956b933c9a722"},
            "seed": 0,
            "timestamp": "2026-10-19T13:05:50.479895+00:00",
            "version": "0.1.0",
        }
        path = tmp_path / "recorded.json"
        path.write_text(json.dumps(recorded, indent=2))
        out_a = tmp_path / "a"
        assert run(["assess", "--input", table, "--risk", "cvar:0.5", "--risk", "mean_var:0.5",
                    "--out", out_a]) == 0
        written = json.loads((out_a / "manifest.json").read_text())
        args = {k: v for k, v in recorded["args"].items() if k not in ("seed", "n")}
        assert written["args"] == {**args, "out": str(out_a)}
        out_b = tmp_path / "b"
        assert run(["rerun", "--manifest", path, "--out", out_b]) == 0
        replayed = json.loads((out_b / "manifest.json").read_text())
        assert replayed["args"] == {**args, "out": str(out_b)}
        assert (out_b / "assessment.csv").read_text() == (
            "risk,m1,m2\ncvar:0.5,3,3\nmean_var:0.5,2.75,3.1111111111111112\n")
        names = self.primary_files(out_a)
        assert names == self.primary_files(out_b) == ["assessment.csv", "assessment.json"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("command, dest, default, value", [
        ("cdf", "has_header", False, True),
        ("assess", "n", None, 5),
        ("train", "has_header", True, False),
        ("train", "disable_noise", False, True),
    ])
    def test_retired_flag_replays_only_at_its_old_default(self, tmp_path, capsys, command,
                                                          dest, default, value):
        src = tmp_path / "in.csv"
        src.write_text("m\n1\n2\n")  # a loss vector with a header, or a loss table
        argv = {"cdf": ["cdf", "--input", src], "assess": ["assess", "--input", src],
                "train": ["train", "--eta", 0.1, "--iters", 2]}[command]
        out_a = tmp_path / "a"
        assert run([*argv, "--out", out_a]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        path = tmp_path / "old.json"
        manifest["args"][dest] = default
        path.write_text(json.dumps(manifest))
        out_b = tmp_path / "b"
        assert run(["rerun", "--manifest", path, "--out", out_b]) == 0
        names = self.primary_files(out_a)
        assert names == self.primary_files(out_b)
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        manifest["args"][dest] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["rerun", "--manifest", path, "--out", tmp_path / "c"]) == 2
        assert capsys.readouterr().err == (
            f"riskcdf: error: {path}: {command} no longer has the flag {dest!r}; "
            f"a run recorded with {dest}={value!r} cannot be replayed\n")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_recorded_seed_still_checked_where_it_is_a_flag(self, tmp_path, capsys, command):
        out_a = tmp_path / "a"
        argv = ["--eta", 0.1, "--iters", 2] if command == "train" else ["--trials", 1]
        assert run([command, *argv, "--out", out_a]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["args"]["seed"] = "7"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["rerun", "--manifest", path, "--out", tmp_path / "b"]) == 2
        assert f"{command} flag 'seed' cannot be '7'" in capsys.readouterr().err

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "o"
        src = tmp_path / "d.csv"
        src.write_text("a,label\n1,0\n2,1\n")
        assert run(["train", "--input", src, "--seed", 3, "--eta", 0.1, "--iters", 2,
                    "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["args"]["seed"] == 3
        assert manifest["version"]
        assert str(src) in manifest["input_digests"]

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", 3, "--eta", 0.1, "--iters", 2],
        ["gradcheck", "--seed", 3, "--trials", 1],
        ["bound", "--method", "vc_sauer", "--n", 10, "--nu", 3],
    ], ids=lambda argv: argv[0])
    def test_manifest_records_the_seed_once(self, tmp_path, argv):
        """The seed is a flag like any other: only ``args`` records it."""
        out = tmp_path / "o"
        assert run([*argv, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["args", "command", "input_digests", "timestamp", "version"]


CDF_ARGS = {"input": "losses.csv", "out": "."}
HUGE = "1" + "0" * 400  # a count no float holds
# Iteration counts whose trace buffers no machine holds: 8e18 bytes fails to
# allocate, and 1e19 exceeds numpy's largest dimension.  (A count near 1e12
# is not used: under memory overcommit it may allocate and then run.)
ITERS_1E18 = "1" + "0" * 18
ITERS_1E19 = "1" + "0" * 19
# Widths whose parameter vector no machine holds: 1e14 float64s are 728 TiB,
# more than a 48-bit address space maps, and 1e19 exceeds numpy's largest
# dimension, so neither is ever partly allocated.
WIDTH_1E14 = "1" + "0" * 14
WIDTH_1E19 = ITERS_1E19
LOGISTIC = "logistic_crossentropy"  # gradcheck's default architecture
DATASETS = {"NAN_DATASET": "a,b,label\n1,2,0\n3,nan,1\n",
            "LABEL_DATASET": "a,b,label\n1,2,0\n3,4,2\n",
            "NAN_LOSSES": "1\n2\n\nnan\n",
            "INF_TABLE": "m,k\n1,2\n3,inf\n",
            "NAN_MATRIX": "1,2,3\n4,nan,6\n",
            "REPEATED_NAME_TABLE": "m,m\n1,5\n2,6\n",
            "HUGE_LOSSES": "1e200\n1\n",
            "HUGE_TABLE": "m\n1e200\n1\n",
            "THREE_COLUMNS": "1,2,3\n4,5,6\n",
            "HEADERLESS_DATASET": "1,2,0\n3,4,1\n"}

# (case, argv, manifest text for MANIFEST or None, exit code)
REJECTIONS = [
    ("manifest-not-json", ["rerun", "--manifest", "MANIFEST"], "{not json", 2),
    ("manifest-list", ["rerun", "--manifest", "MANIFEST"], "[1, 2]", 2),
    ("manifest-args-number", ["rerun", "--manifest", "MANIFEST"],
     json.dumps({"command": "cdf", "args": 5}), 2),
    ("manifest-digests-list", ["rerun", "--manifest", "MANIFEST"],
     json.dumps({"command": "cdf", "args": CDF_ARGS, "input_digests": [1]}), 2),
    ("manifest-args-empty", ["rerun", "--manifest", "MANIFEST"],
     json.dumps({"command": "cdf", "args": {}}), 2),
    ("manifest-flag-type", ["rerun", "--manifest", "MANIFEST"],
     json.dumps({"command": "cdf", "args": {**CDF_ARGS, "input": 5},
                 "input_digests": {}}), 2),
    ("manifest-unknown-flag", ["rerun", "--manifest", "MANIFEST"],
     json.dumps({"command": "cdf", "args": {**CDF_ARGS, "trials": 3}, "input_digests": {}}), 2),
    ("manifest-command-list", ["rerun", "--manifest", "MANIFEST"],
     json.dumps({"command": ["cdf"], "args": CDF_ARGS, "input_digests": {}}), 2),
    ("manifest-input-undigested", ["rerun", "--manifest", "MANIFEST"],
     json.dumps({"command": "cdf", "args": CDF_ARGS, "input_digests": {}}), 2),
    ("manifest-missing", ["rerun", "--manifest", "MANIFEST"], None, 3),
    ("hidden-negative", ["train", "--arch", "mlp_tanh", "--hidden", "-3", "--eta", 0.1], None, 2),
    ("hidden-zero", ["train", "--arch", "mlp_tanh", "--hidden", "0", "--eta", 0.1], None, 2),
    ("eta-nan", ["train", "--eta", "nan", "--iters", 3], None, 2),
    ("beta-inf", ["train", "--beta", "inf", "--iters", 3], None, 2),
    ("trials-zero", ["gradcheck", "--trials", 0], None, 2),
    ("trials-negative", ["gradcheck", "--trials", -1], None, 2),
    ("input-dim-negative", ["gradcheck", "--input-dim", -1, "--trials", 2], None, 2),
    ("step-nan", ["gradcheck", "--step", "nan", "--trials", 2], None, 2),
    ("growth-nan", ["bound", "--method", "growth", "--n", 10, "--growth", "nan"], None, 2),
    ("n-pi-nan", ["bound", "--method", "permutation", "--n", 10, "--n-pi", "nan"], None, 2),
    ("n-pi-inf", ["bound", "--method", "permutation", "--n", 10, "--n-pi", "inf"], None, 2),
    ("n-pi-infinite-bound", ["bound", "--method", "permutation", "--n", 10, "--n-pi", "1e308"],
     None, 2),
    ("class-size-401-digits", ["bound", "--method", "finite_class", "--n", 10,
                               "--class-size", HUGE], None, 2),
    ("growth-class-size-401-digits", ["bound", "--method", "growth", "--n", 10,
                                      "--class-size", HUGE], None, 2),
    ("nu-401-digits", ["bound", "--method", "vc_sauer", "--n", 10, "--nu", HUGE], None, 2),
    ("bound-n-401-digits", ["bound", "--method", "vc_sauer", "--n", HUGE, "--nu", 3], None, 2),
    ("gradcheck-step-overflow", ["gradcheck", "--arch", "linear_squared", "--step", "1e300",
                                 "--trials", 2], None, 4),
    ("train-input-nan-feature", ["train", "--input", "NAN_DATASET", "--eta", 0.1,
                                 "--iters", 3], None, 3),
    ("train-input-label-two", ["train", "--input", "LABEL_DATASET", "--eta", 0.1,
                               "--iters", 3], None, 3),
    ("cdf-input-nan-loss", ["cdf", "--input", "NAN_LOSSES"], None, 3),
    ("assess-input-inf-loss", ["assess", "--input", "INF_TABLE"], None, 3),
    ("complexity-input-nan-loss", ["complexity", "--input", "NAN_MATRIX"], None, 3),
    ("assess-repeated-model-name", ["assess", "--input", "REPEATED_NAME_TABLE"], None, 3),
    ("oce-entropic-overflow", ["assess", "--input", "TABLE", "--risk", "oce:entropic",
                               "--support-bound", 800], None, 4),
    ("oce-cvar-subnormal-level", ["assess", "--input", "TABLE", "--risk", "oce:cvar:1e-320"],
     None, 4),
    ("mean-var-constant-overflow", ["assess", "--input", "TABLE", "--risk", "mean_var:1e308"],
     None, 4),
    ("mean-var-support-overflow", ["assess", "--input", "TABLE", "--risk", "mean_var:1",
                                   "--support-bound", "1e160"], None, 4),
    ("cdf-moment-overflow", ["cdf", "--input", "HUGE_LOSSES"], None, 4),
    ("mean-var-moment-overflow", ["assess", "--input", "HUGE_TABLE", "--risk", "mean_var:1"],
     None, 4),
    ("risk-unknown", ["assess", "--input", "TABLE", "--risk", "nope"], None, 2),
    ("assess-cvar-subnormal-level", ["assess", "--input", "TABLE", "--risk", "cvar:1e-320"],
     None, 4),
    ("train-iters-1e18", ["train", "--eta", 0.1, "--iters", ITERS_1E18], None, 2),
    ("train-iters-1e19", ["train", "--eta", 0.1, "--iters", ITERS_1E19], None, 2),
    ("train-risk-malformed", ["train", "--risk", "cvar:abc:0.5", "--eta", 0.1, "--iters", 3],
     None, 2),
    ("train-risk-not-distortion", ["train", "--risk", "oce:mean", "--eta", 0.1, "--iters", 3],
     None, 2),
    ("train-risk-mean-var", ["train", "--risk", "mean_var:0.5", "--eta", 0.1, "--iters", 3],
     None, 2),
    ("assess-distortion-narrow-dip", ["assess", "--input", "TABLE", "--risk", "DIP_G"], None, 2),
    ("assess-spectrum-narrow-negative-dip", ["assess", "--input", "TABLE", "--risk", "DIP_H"],
     None, 2),
    ("train-distortion-narrow-dip", ["train", "--risk", "DIP_G", "--eta", 0.1, "--iters", 3],
     None, 2),
    ("train-spectrum-narrow-negative-dip", ["train", "--risk", "DIP_H", "--eta", 0.1,
                                            "--iters", 3], None, 2),
    ("cdf-input-three-columns", ["cdf", "--input", "THREE_COLUMNS"], None, 3),
    ("assess-distortion-three-columns", ["assess", "--input", "TABLE", "--risk", "WIDE_G"],
     None, 3),
    ("assess-spectrum-one-row", ["assess", "--input", "TABLE", "--risk", "SHORT_H"], None, 3),
    ("train-input-label-index-out-of-range", ["train", "--input", "HEADERLESS_DATASET",
                                              "--label-column", 5, "--eta", 0.1, "--iters", 3],
     None, 3),
    ("train-hidden-not-integer", ["train", "--arch", "mlp_tanh", "--hidden", "8,x", "--eta", 0.1,
                                  "--iters", 3], None, 2),
    ("gradcheck-input-dim-1e14", ["gradcheck", "--input-dim", WIDTH_1E14], None, 2),
    ("gradcheck-input-dim-1e19", ["gradcheck", "--input-dim", WIDTH_1E19], None, 2),
    ("train-hidden-1e14", ["train", "--arch", "mlp_tanh", "--hidden", WIDTH_1E14, "--eta", 0.1,
                           "--iters", 3], None, 2),
    ("train-hidden-1e19", ["train", "--arch", "mlp_tanh", "--hidden", WIDTH_1E19, "--eta", 0.1,
                           "--iters", 3], None, 2),
]

# DIP_G and DIP_H are tables valid except on a piece too narrow for a
# 10,001-point grid: g falls from 0.6 to 0.2 within 1e-5, and h dips to -c
# within 2e-7 (c keeps the integral at 1).  WIDE_G has three columns and
# SHORT_H one row.
C_DIP = 1.0 / (1.0 - 2e-7)
RISK_TABLES = {
    "DIP_G": ("distortion-file", "t,g\n0,0\n0.50001,0.6\n0.50002,0.2\n0.50003,0.6\n1,1\n"),
    "DIP_H": ("spectral-file", f"u,h\n0,{C_DIP!r}\n0.5,{C_DIP!r}\n0.5000001,{-C_DIP!r}\n"
                               f"0.5000002,{C_DIP!r}\n1,{C_DIP!r}\n"),
    "WIDE_G": ("distortion-file", "t,g,h\n0,0,0\n1,1,1\n"),
    "SHORT_H": ("spectral-file", "u,h\n0,1\n"),
}


class TestRejections:
    """Bad flags, bad inputs and bad manifests end in one error line and exit 2
    (3 for bad data, 4 for a numeric failure), never in a traceback or a
    vacuous success: no output but the manifest is written."""

    @pytest.mark.parametrize("argv, manifest, code", [case[1:] for case in REJECTIONS],
                             ids=[case[0] for case in REJECTIONS])
    def test_rejected(self, tmp_path, capsys, argv, manifest, code):
        path = tmp_path / "manifest.json"
        if manifest is not None:
            path.write_text(manifest)
        table = tmp_path / "table.csv"
        write_table(table, ["m"], [np.array([1.0, 2.0])])
        files = {"MANIFEST": path, "TABLE": table}
        for key, (head, text) in RISK_TABLES.items():
            (tmp_path / key).write_text(text)
            files[key] = f"{head}:{tmp_path / key}"
        for key, text in DATASETS.items():
            (tmp_path / key).write_text(text)
            files[key] = tmp_path / key
        argv = [files.get(a, a) for a in argv]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([*argv, "--out", out]) == code
        assert not [str(w.message) for w in caught]  # a warning would reach stderr too
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("riskcdf: error: ") and err.count("\n") == 1
        assert not out.exists() or os.listdir(out) == ["manifest.json"]
        if out.exists():  # standard JSON: no NaN or Infinity
            json.loads((out / "manifest.json").read_text(), parse_constant=pytest.fail)

    @pytest.mark.parametrize("argv", [
        ["cdf", "--input", "l.csv"],
        ["assess", "--input", "t.csv"],
        ["bound", "--method", "vc_sauer", "--n", 10, "--nu", 3],
        ["complexity", "--input", "m.csv"],
    ], ids=lambda argv: argv[0])
    def test_seed_only_where_randomness_is_drawn(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run([*argv, "--seed", 0, "--out", tmp_path / "o"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["assess", "--input", "t.csv"], ["--n", "5"]),
        (["cdf", "--input", "l.csv"], ["--has-header"]),
        (["train", "--input", "d.csv"], ["--has-header"]),
        (["train", "--input", "d.csv"], ["--no-has-header"]),
        (["train", "--input", "d.csv"], ["--disable-noise"]),
    ], ids=["assess-n", "cdf-has-header", "train-has-header", "train-no-has-header",
            "train-disable-noise"])
    def test_input_decides_what_retired_flags_set(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            run([*argv, *flag, "--out", tmp_path / "o"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("iters", [ITERS_1E18, ITERS_1E19])
    def test_iteration_count_beyond_memory_is_named(self, tmp_path, capsys, iters):
        assert run(["train", "--eta", 0.1, "--iters", iters, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            f"riskcdf: error: cannot hold the trace of {iters} iterations in memory\n")

    @pytest.mark.parametrize("argv, model", [
        (["gradcheck", "--input-dim", WIDTH_1E14], f"{LOGISTIC}: cannot hold {WIDTH_1E14}"),
        (["gradcheck", "--input-dim", WIDTH_1E19], f"{LOGISTIC}: cannot hold {WIDTH_1E19}"),
        (["train", "--arch", "mlp_tanh", "--hidden", WIDTH_1E14, "--eta", 0.1],
         f"mlp_tanh: cannot hold {4 * 10 ** 14 + 1}"),
        (["train", "--arch", "mlp_tanh", "--hidden", WIDTH_1E19, "--eta", 0.1],
         f"mlp_tanh: cannot hold {4 * 10 ** 19 + 1}"),
    ], ids=["gradcheck-1e14", "gradcheck-1e19", "train-1e14", "train-1e19"])
    def test_parameter_count_beyond_memory_is_named(self, tmp_path, capsys, argv, model):
        assert run([*argv, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"riskcdf: error: {model} parameters in memory\n"

    def test_unreadable_input_is_data_error(self, tmp_path, capsys):
        assert run(["cdf", "--input", tmp_path, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"riskcdf: error: cannot read input {tmp_path}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, where", [
        ("cdf", "NAN_LOSSES", "row 4, column 1"),
        ("assess", "INF_TABLE", "row 3, column 2 (k)"),
        ("complexity", "NAN_MATRIX", "row 2, column 2"),
    ])
    def test_non_finite_loss_names_its_cell(self, tmp_path, capsys, command, key, where):
        src = tmp_path / "in.csv"
        src.write_text(DATASETS[key])
        assert run([command, "--input", src, "--out", tmp_path / "o"]) == 3
        assert capsys.readouterr().err == f"riskcdf: error: {src}: non-finite loss at {where}\n"

    @pytest.mark.parametrize("argv, data", [
        (["assess", "--input", "BAD"], b"m1,m2\n1,\xff\n"),
        (["assess", "--input", "BAD"], b"m1,m2\n" + b"1,2\n" * 20_000 + b"1,\xff\n"),
        (["complexity", "--input", "BAD"], b"m1,m2\n1,\xff\n"),
        (["assess", "--input", "TABLE", "--risk", "distortion-file:BAD"], b"m1,m2\n1,\xff\n"),
        (["cdf", "--input", "BAD"], b"x\n1\n\xff\n"),
        (["train", "--input", "BAD", "--eta", 0.1, "--iters", 3], b"a,b,label\n1,\xff,0\n"),
    ], ids=["assess", "assess-late-byte", "complexity", "distortion-file", "cdf", "train"])
    def test_input_not_utf8_is_named(self, tmp_path, capsys, argv, data):
        # Bytes, not text: write_text would encode \xff as two UTF-8 bytes.
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        table = tmp_path / "table.csv"
        write_table(table, ["m"], [np.array([1.0, 2.0])])
        argv = [table if a == "TABLE" else str(a).replace("BAD", str(bad)) for a in argv]
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == 3
        assert capsys.readouterr().err == f"riskcdf: error: {bad}: not UTF-8 text\n"
        assert os.listdir(out) == ["manifest.json"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_output_holds_only_finite_numbers(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(NumericError, match=f"cannot write {path}"):
            _write_json({"ok": 1.0, "bad": [value]}, str(path))
        assert not path.exists()


class TestRiskGrammarDocs:
    """The README and both --help texts list the one grammar in risks."""

    @staticmethod
    def risk_help(command):
        from riskcdf.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return next(a.help for a in sub.choices[command]._actions if "--risk" in a.option_strings)

    def test_readme_and_help_list_every_form(self):
        from pathlib import Path

        from riskcdf.risks import DISTORTION_TOKENS, RISK_TOKENS

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        grammar = readme[readme.index("Risk grammar"):]
        grammar = " ".join(grammar[:grammar.index("\n\n")].split())
        train_sentence = grammar[grammar.index("`train --risk`"):].split(".")[0]
        assert set(RISK_TOKENS) >= set(DISTORTION_TOKENS)
        for form in RISK_TOKENS:
            assert f"`{form}`" in grammar, form
            assert form in self.risk_help("assess"), form
            assert (f"`{form}`" in train_sentence) == (form in DISTORTION_TOKENS), form
            assert (form in self.risk_help("train")) == (form in DISTORTION_TOKENS), form

    def test_distortion_tokens_are_the_entries_with_a_spec(self, tmp_path):
        from riskcdf.errors import ConfigError
        from riskcdf.risks import DISTORTION_TOKENS, RISK_TOKENS, parse_distortion, parse_risk

        tables = {"distortion-file": "t,g\n0,0\n0.5,0.8\n1,1\n",
                  "spectral-file": "u,h\n0,0.5\n1,1.5\n"}
        for form in RISK_TOKENS:
            token = form.replace("ALPHA", "0.5").replace("C", "0.5")
            head = form.split(":")[0]
            if head in tables:
                (tmp_path / head).write_text(tables[head])
                token = token.replace("PATH", str(tmp_path / head))
            evaluate = parse_risk(token, 1.0)
            assert math.isfinite(evaluate(build_cdf([0.0, 0.5, 1.0])).value), form
            if form in DISTORTION_TOKENS:
                assert len(parse_distortion(token).rank_weights(3)) == 3, form
            else:
                with pytest.raises(ConfigError, match="is not a distortion risk"):
                    parse_distortion(token)
