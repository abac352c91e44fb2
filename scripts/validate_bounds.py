#!/usr/bin/env python3
"""Monte Carlo check of the finite-class CDF uniform-convergence certificate.

Draws a fixed set of logistic models, repeatedly samples fresh data from
the blob mixture, and measures the worst-case sup-norm gap between each
n-sample loss CDF and a large-reference stand-in for the truth.  Reports
the certificate, the observed violation fraction, and the empirical
quantile; writes the per-repetition values as CSV.

    python3 scripts/validate_bounds.py --n 200 --reps 1000 --out results/bounds
"""

import argparse
import os
import sys

from riskcdf.bounds import certificate_finite_class, monte_carlo_en
from riskcdf.data import blob_mixture_sampler
from riskcdf.errors import ToolkitError
from riskcdf.models import init_model
from riskcdf.seeds import derive_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/bounds")
    parser.add_argument("--seed", type=int, default=321)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--models", type=int, default=5)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--reference-size", type=int, default=20_000)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    models = [
        init_model("logistic_crossentropy", 2, seed=derive_seed(args.seed, "model", j))
        for j in range(args.models)
    ]
    loss_fns = [(lambda X, y, m=m: m.batch_losses(X, y)) for m in models]
    try:
        result = monte_carlo_en(
            loss_fns,
            blob_mixture_sampler(),
            n=args.n,
            reps=args.reps,
            seed=args.seed,
            reference_sample_size=args.reference_size,
        )
    except ToolkitError as exc:
        print(f"validate_bounds: error: {exc}", file=sys.stderr)
        return exc.exit_code
    result.to_csv(os.path.join(args.out, "en_samples.csv"))

    cert = certificate_finite_class(args.n, args.models, args.delta)
    q = result.quantile(1.0 - args.delta)
    print(f"certificate: epsilon={cert.epsilon:.5f} "
          f"(n={args.n}, |F|={args.models}, delta={args.delta})")
    print(f"observed   : median={result.median:.5f} "
          f"{(1 - args.delta) * 100:.0f}%-quantile={q:.5f} "
          f"max={result.values.max():.5f}")
    print(f"violations : {result.violation_fraction(cert.epsilon):.4f} "
          f"(certified <= {args.delta})")
    print(f"slack      : certificate / quantile = {cert.epsilon / q:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
