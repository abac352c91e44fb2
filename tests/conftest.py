import numpy as np
import pytest

from riskcdf import optim, risks


@pytest.fixture
def zero_step_noise(monkeypatch):
    """Plain descent: ``train`` draws zeros for its step noise, so each step
    adds +0.0 to the gradient."""
    monkeypatch.setattr(optim, "standard_normal_rows",
                        lambda rng, uniforms: np.zeros((uniforms.shape[0], uniforms.shape[2])))


@pytest.fixture
def rank_weight_calls(monkeypatch):
    """The n of each ``DistortionSpec.rank_weights`` call the test makes."""
    calls = []
    build = risks.DistortionSpec.rank_weights
    monkeypatch.setattr(risks.DistortionSpec, "rank_weights",
                        lambda self, n: calls.append(n) or build(self, n))
    return calls
