#!/usr/bin/env python3
"""Train logistic models on the imbalanced blob data under the mean and a
tail-risk objective, then compare the resulting loss distributions.

Writes one training trace per objective plus a side-by-side risk table
(plot-ready CSV), and prints the comparison.

    python3 scripts/toy_experiment.py --out results/toy --seed 42
"""

import argparse
import os
import sys

import numpy as np

from riskcdf.cdf import build_cdf
from riskcdf.data import _write_csv, toy_blobs
from riskcdf.models import init_model
from riskcdf.optim import train
from riskcdf.risks import cvar, cvar_distortion, identity_distortion, mean_variance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/toy")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--iters", type=int, default=2000)
    parser.add_argument("--eta", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="tail level of the CVaR objective")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    features, y = toy_blobs(seed=0)
    X = np.hstack([features, np.ones((features.shape[0], 1))])  # intercept column
    model0 = init_model("logistic_crossentropy", X.shape[1], seed=args.seed)

    objectives = {
        "mean": identity_distortion(),
        f"cvar{args.alpha:g}": cvar_distortion(args.alpha),
    }
    rows = []
    for name, spec in objectives.items():
        final, trace = train(model0, X, y, spec, args.iters, eta=args.eta, seed=args.seed)
        trace.to_csv(os.path.join(args.out, f"trace_{name}.csv"))
        losses = final.batch_losses(X, y)
        cdf = build_cdf(losses)
        rows.append({
            "objective": name,
            "mean": float(losses.mean()),
            f"cvar_{args.alpha:g}": cvar(cdf, args.alpha).value,
            "mean_var_0.5": mean_variance(cdf, 0.5).value,
            "max_loss": float(losses.max()),
        })

    header = list(rows[0])
    table_path = os.path.join(args.out, "risk_comparison.csv")
    _write_csv(table_path, header, [[row[h] for row in rows] for h in header])

    print("  ".join(f"{h:>14}" for h in header))
    for row in rows:
        print("  ".join(f"{row[h]:>14.5g}" if h != "objective" else f"{row[h]:>14}"
                        for h in header))
    print(f"\nwrote {table_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
