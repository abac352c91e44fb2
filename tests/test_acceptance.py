"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either computed here by an independent oracle
(top-fraction means, brute-force covers, finite differences) or asserted
at the tolerance the criterion fixes.  Runtime budgets are enforced.
"""

import itertools
import json
import time

import numpy as np
import pytest

from riskcdf.bounds import certificate_finite_class, monte_carlo_en
from riskcdf.cdf import build_cdf
from riskcdf.cli import main as cli_main
from riskcdf.data import blob_mixture_sampler, save_dataset_csv, toy_blobs
from riskcdf.models import init_model, relative_error
from riskcdf.optim import (
    TrainConfig,
    distortion_gradient,
    estimate_beta,
    stationarity_report,
    train,
)
from riskcdf.permcomplexity import (
    LossMatrix,
    exact_min_permutations,
    greedy_min_permutations,
    permutation_sorts,
    weak_order,
)
from riskcdf.risks import (
    cvar,
    cvar_distortion,
    distortion_risk,
    identity_distortion,
    oce_cvar_spec,
    oce_risk,
)
from riskcdf.seeds import derive_seed, rng_from, standard_normal

ALPHAS = (0.05, 0.25, 0.5, 1.0)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeded {self.seconds}s budget"
        return elapsed


def announce(number, name, elapsed):
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")


def test_criterion_1_risk_oracle_equivalence():
    budget = Budget(10.0)
    rng = rng_from(2024, "criterion1")
    # Lengths are multiples of 20 so that alpha*n is integral for every
    # tested alpha; log-spaced up to the 1000-point cap.
    sizes = (20 * np.exp(rng.random(1000) * np.log(50))).astype(int) * 1
    sizes = np.clip((sizes // 20) * 20, 20, 1000)
    for i, n in enumerate(sizes):
        losses = rng.random(int(n)) * 10.0
        cdf = build_cdf(losses)
        assert abs(distortion_risk(cdf, identity_distortion()).value - losses.mean()) < 1e-12
        srt = np.sort(losses)
        for alpha in ALPHAS:
            k = round(alpha * n)
            oracle = float(srt[-k:].mean())
            assert abs(cvar(cdf, alpha).value - oracle) < 1e-12
            spec = oce_cvar_spec(alpha, support_bound=10.0)
            assert abs(oce_risk(cdf, spec).value - oracle) < 1e-12
    elapsed = budget.check()
    announce(1, "risk oracle equivalence", elapsed)


def empirical_distortion_risk(model, X, y, spec):
    """Distortion risk of the model's per-example losses, through their CDF."""
    return distortion_risk(build_cdf(model.batch_losses(X, y)), spec).value


def test_criterion_2_gradient_correctness():
    budget = Budget(30.0)
    h = 1e-6
    distortions = [
        ("identity", identity_distortion()),
        ("cvar:0.5", cvar_distortion(0.5)),
        ("cvar:0.05", cvar_distortion(0.05)),
    ]
    for arch in ("linear_squared", "logistic_crossentropy", "mlp_tanh"):
        for dist_name, spec in distortions:
            worst = 0.0
            checked = 0
            trial = 0
            while checked < 100:
                trial += 1
                seed = derive_seed(77, arch, dist_name, trial)
                rng = rng_from(seed, "data")
                X = standard_normal(rng, (30, 3))
                if arch == "linear_squared":
                    y = standard_normal(rng, 30)
                else:
                    y = (rng.random(30) < 0.5).astype(float)
                model = init_model(arch, 3, (4,) if arch == "mlp_tanh" else (), seed=seed)
                losses = model.batch_losses(X, y)
                if np.min(np.diff(np.sort(losses))) < 1e-4:
                    continue  # tie (or near-tie) rejected and re-sampled
                u = standard_normal(rng_from(seed, "dir"), model.dim)
                u /= np.linalg.norm(u)
                up = empirical_distortion_risk(model.with_params(model.params + h * u), X, y, spec)
                dn = empirical_distortion_risk(model.with_params(model.params - h * u), X, y, spec)
                fd = (up - dn) / (2 * h)
                ip = float(distortion_gradient(model, X, y, spec) @ u)
                worst = max(worst, relative_error(fd, ip))
                checked += 1
            assert worst <= 1e-4, f"{arch}/{dist_name}: max relative error {worst}"
    elapsed = budget.check()
    announce(2, "distortion gradient correctness", elapsed)


def test_criterion_3_bound_validity_monte_carlo():
    budget = Budget(120.0)
    seed = 321
    models = [
        init_model("logistic_crossentropy", 2, seed=derive_seed(seed, "model", j))
        for j in range(5)
    ]
    loss_fns = [(lambda X, y, m=m: m.batch_losses(X, y)) for m in models]
    sampler = blob_mixture_sampler()
    cert = certificate_finite_class(200, 5, 0.1)
    res200 = monte_carlo_en(loss_fns, sampler, n=200, reps=1000, seed=seed,
                            reference_sample_size=20_000)
    violations = res200.violation_fraction(cert.epsilon)
    assert violations <= 0.1, f"violation fraction {violations}"
    res800 = monte_carlo_en(loss_fns, sampler, n=800, reps=1000, seed=seed,
                            reference_sample_size=20_000)
    ratio = res800.median / res200.median
    assert 0.35 <= ratio <= 0.65, f"median scaling ratio {ratio}"
    elapsed = budget.check()
    announce(3, f"bound validity (violations={violations:.3f}, scaling={ratio:.3f})", elapsed)


def test_criterion_4_permutation_complexity():
    budget = Budget(60.0)
    # Monotone transforms of one score vector: complexity exactly 1.
    base = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
    rows = np.stack([base, np.exp(base), 3 * base + 1, base ** 3])
    count, _ = exact_min_permutations(LossMatrix(rows))
    assert count == 1

    # Full binary cube on 3 points: at most 4 permutations, witnesses verified.
    cube = np.asarray(list(itertools.product([0.0, 1.0], repeat=3)))
    value, witnesses = exact_min_permutations(LossMatrix(cube))
    assert value <= 4
    for row in cube:
        w = weak_order(row)
        assert any(permutation_sorts(p, w) for p in witnesses), f"uncovered row {row}"

    rng = rng_from(99, "criterion4")
    for _ in range(200):
        n_rows = int(rng.integers(1, 21))
        n_pts = int(rng.integers(2, 8))
        rows = rng.integers(0, 4, size=(n_rows, n_pts)).astype(float)
        m = LossMatrix(rows)
        exact, _ = exact_min_permutations(m)
        greedy, _ = greedy_min_permutations(m)
        assert exact <= greedy
    elapsed = budget.check()
    announce(4, "permutation complexity", elapsed)


def _augmented_toy(seed):
    ds = toy_blobs(seed=seed)
    X = np.hstack([ds.X, np.ones((ds.n, 1))])  # intercept column
    return X, ds.y


def test_criterion_5_toy_training_ordering():
    budget = Budget(30.0)
    seed = 42
    X, y = _augmented_toy(seed=0)
    model0 = init_model("logistic_crossentropy", 3, seed=seed)
    runs = {}
    for name, spec in [("mean", identity_distortion()), ("cvar", cvar_distortion(0.05))]:
        cfg = TrainConfig(distortion=spec, iterations=2000, eta=0.1, seed=seed)
        final, _ = train(model0, X, y, cfg)
        losses = final.batch_losses(X, y)
        runs[name] = {
            "mean": float(losses.mean()),
            "cvar05": cvar(build_cdf(losses), 0.05).value,
            "max": float(losses.max()),
        }
    assert runs["cvar"]["cvar05"] < runs["mean"]["cvar05"], runs
    assert runs["cvar"]["max"] < runs["mean"]["max"], runs
    assert runs["mean"]["mean"] <= runs["cvar"]["mean"], runs
    elapsed = budget.check()
    announce(5, "toy experiment risk ordering", elapsed)


def test_criterion_6_stationarity_diagnostic():
    budget = Budget(30.0)
    X, y = _augmented_toy(seed=0)
    model0 = init_model("logistic_crossentropy", 3, seed=7)
    probe_cfg = TrainConfig(distortion=identity_distortion(), iterations=100, eta=0.01,
                            seed=7, snapshot_every=1)
    _, probe = train(model0, X, y, probe_cfg)
    beta = estimate_beta(probe)
    T = 2000
    cfg = TrainConfig(distortion=identity_distortion(), iterations=T, beta=beta, seed=7)
    assert cfg.effective_eta == pytest.approx(1.0 / (beta * np.sqrt(T)))
    _, trace = train(model0, X, y, cfg)
    report = stationarity_report(trace, beta=beta)
    assert report.last_decile_mean_sq < report.first_decile_mean_sq, report
    assert report.holds, report
    elapsed = budget.check()
    announce(6, f"stationarity (lhs={report.mean_sq_grad_norm:.4g} <= rhs={report.rhs:.4g})",
             elapsed)


def test_criterion_7_formula_spot_values(tmp_path):
    budget = Budget(10.0)
    cases = [
        (["bound", "--method", "finite_class", "--class-size", "5", "--n", "100",
          "--delta", "0.1"], "0.3521"),
        (["bound", "--method", "finite_class", "--class-size", "5", "--n", "50000",
          "--delta", "0.05"], "0.01642"),
    ]
    for i, (argv, expected) in enumerate(cases):
        out = tmp_path / f"case{i}"
        assert cli_main([*argv, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert f"{cert['epsilon']:.4g}" == expected
    elapsed = budget.check()
    announce(7, "certificate spot values", elapsed)


def test_criterion_8_manifest_reproducibility(tmp_path):
    budget = Budget(60.0)
    losses_csv = tmp_path / "losses.csv"
    losses_csv.write_text("\n".join(str(v) for v in (3, 1, 4, 1, 5, 9, 2, 6)) + "\n")
    table_csv = tmp_path / "table.csv"
    table_csv.write_text("m1,m2\n" + "\n".join(
        f"{a:.17g},{b:.17g}" for a, b in rng_pairs()) + "\n")
    dataset_csv = tmp_path / "ds.csv"
    save_dataset_csv(toy_blobs(seed=3), dataset_csv)
    matrix_csv = tmp_path / "matrix.csv"
    matrix_csv.write_text("0,1,2\n2,1,0\n1,1,1\n")

    commands = [
        ["cdf", "--input", str(losses_csv)],
        ["assess", "--input", str(table_csv), "--risk", "mean", "--risk", "cvar:0.5",
         "--delta", "0.1", "--support-bound", "1"],
        ["bound", "--method", "vc_sauer", "--nu", "3", "--n", "100", "--delta", "0.1"],
        ["train", "--input", str(dataset_csv), "--risk", "cvar:0.25", "--eta", "0.05",
         "--iters", "60", "--seed", "11"],
        ["complexity", "--input", str(matrix_csv), "--mode", "exact"],
        ["gradcheck", "--arch", "mlp_tanh", "--trials", "10", "--seed", "2"],
    ]
    for i, argv in enumerate(commands):
        out_a = tmp_path / f"run{i}a"
        out_b = tmp_path / f"run{i}b"
        assert cli_main([*argv, "--out", str(out_a)]) == 0, argv
        assert cli_main(["rerun", "--manifest", str(out_a / "manifest.json"),
                         "--out", str(out_b)]) == 0, argv
        names_a = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
        names_b = sorted(p.name for p in out_b.iterdir() if p.name != "manifest.json")
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (argv, name)
    elapsed = budget.check()
    announce(8, "manifest reproducibility", elapsed)


def rng_pairs():
    rng = rng_from(5, "table")
    return [(float(a), float(b)) for a, b in rng.random((50, 2))]
