import numpy as np
import pytest

from riskcdf import optim


@pytest.fixture
def zero_step_noise(monkeypatch):
    """Plain descent: ``train`` draws zeros for its step noise, so each step
    adds +0.0 to the gradient."""
    monkeypatch.setattr(optim, "standard_normal_rows",
                        lambda rng, uniforms: np.zeros((uniforms.shape[0], uniforms.shape[2])))
