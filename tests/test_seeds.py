"""One seed rule: a seed is an integer and not a bool.  Every public ``seed=``
argument goes through ``derive_seed``, so a float, a string or None raises
:class:`ConfigError` naming it instead of standing in for another seed."""

import math
import re

import numpy as np
import pytest

from riskcdf.bounds import monte_carlo_en
from riskcdf.data import blob_mixture_sampler, toy_blobs
from riskcdf.errors import ConfigError
from riskcdf.models import init_model
from riskcdf.optim import train
from riskcdf.permcomplexity import monte_carlo_permutation_complexity
from riskcdf.risks import identity_distortion
from riskcdf.seeds import derive_seed, rng_from


def first_feature(X, y):
    return np.abs(X[:, 0])


def train_two_steps(seed):
    model = init_model("logistic_crossentropy", 2, seed=0)
    X, y = toy_blobs(0)
    return train(model, X[:20], y[:20], identity_distortion(), 2, eta=0.1, seed=seed)


SEEDED = {
    "derive_seed": lambda seed: derive_seed(seed, "scope"),
    "rng_from": lambda seed: rng_from(seed, "scope").random(),
    "init_model": lambda seed: init_model("logistic_crossentropy", 2, seed=seed).params,
    "train": train_two_steps,
    "toy_blobs": toy_blobs,
    "monte_carlo_en": lambda seed: monte_carlo_en(
        [first_feature], blob_mixture_sampler(), n=5, reps=2, seed=seed,
        reference_sample_size=50).values,
    "monte_carlo_permutation_complexity": lambda seed: monte_carlo_permutation_complexity(
        [first_feature], blob_mixture_sampler(), n=3, reps=2, seed=seed).values,
}

NOT_SEEDS = [1.9, 0.7, 1.0, np.float64(3.0), True, False, "7", "a", None, math.nan,
             math.inf]


@pytest.mark.parametrize("call", SEEDED.values(), ids=list(SEEDED))
@pytest.mark.parametrize("seed", NOT_SEEDS, ids=[repr(s) for s in NOT_SEEDS])
def test_a_seed_that_is_not_an_integer_is_a_config_error(call, seed):
    with pytest.raises(ConfigError, match=rf"^a seed must be an integer, got {re.escape(repr(seed))}$"):
        call(seed)


@pytest.mark.parametrize("call", SEEDED.values(), ids=list(SEEDED))
def test_integer_seeds_of_any_sign_and_size_run(call):
    for seed in (0, -3, 10**30, np.int64(7), np.uint64(2**63)):
        call(seed)


def test_numpy_integers_derive_the_seed_of_their_value():
    assert derive_seed(np.int64(7), "x") == derive_seed(7, "x")
    assert derive_seed(np.uint64(2**63), "x") == derive_seed(2**63, "x")
    assert derive_seed(-7, "x") != derive_seed(7, "x")

