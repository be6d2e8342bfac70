"""Central-difference gradient checks for both trained-from-scratch nets."""

import numpy as np

from swipebench.classifiers.neural import MlpNetwork
from swipebench.stacking import LstmStacker


def relative_error(analytic, numeric):
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


def numeric_gradient(loss_fn, params, eps=1e-6, sample=None, rng=None):
    """Central differences; checks a random coordinate subset when the
    parameter vector is large."""
    idx = np.arange(len(params))
    if sample is not None and sample < len(params):
        idx = rng.choice(len(params), size=sample, replace=False)
    g = np.zeros(len(idx))
    for k, i in enumerate(idx):
        p_hi = params.copy()
        p_hi[i] += eps
        p_lo = params.copy()
        p_lo[i] -= eps
        g[k] = (loss_fn(p_hi) - loss_fn(p_lo)) / (2 * eps)
    return idx, g


def test_mlp_gradient_check():
    rng = np.random.default_rng(31415)
    net = MlpNetwork(d_in=5, hidden=(8, 6), bn_momentum=0.99, bn_eps=1e-3,
                     rng=rng)
    X = rng.normal(size=(12, 5))
    y = (rng.random(12) < 0.5).astype(float)

    params0 = net.param_vector()
    _, analytic = net.loss_and_grad(X, y)

    def loss_at(p):
        net.set_param_vector(p)
        loss, _ = net.loss_and_grad(X, y)
        return loss

    idx, numeric = numeric_gradient(loss_at, params0, sample=200, rng=rng)
    net.set_param_vector(params0)
    err = relative_error(analytic[idx], numeric)
    assert err < 1e-4, err


def test_lstm_gradient_check():
    rng = np.random.default_rng(27182)
    net = LstmStacker(hidden=20, rng=rng)
    X = rng.normal(size=(6, 5))        # 6 sequences of 5 scores
    y = (rng.random(6) < 0.5).astype(float)

    params0 = net.param_vector()
    _, analytic = net.loss_and_grad(X, y)

    def loss_at(p):
        net.set_param_vector(p)
        loss, _ = net.loss_and_grad(X, y)
        return loss

    idx, numeric = numeric_gradient(loss_at, params0, sample=300, rng=rng)
    net.set_param_vector(params0)
    err = relative_error(analytic[idx], numeric)
    assert err < 1e-4, err


def test_lstm_full_gradient_small_net():
    rng = np.random.default_rng(979)
    net = LstmStacker(hidden=3, rng=rng)
    X = rng.normal(size=(4, 3))
    y = np.array([1.0, 0.0, 1.0, 0.0])

    params0 = net.param_vector()
    _, analytic = net.loss_and_grad(X, y)

    def loss_at(p):
        net.set_param_vector(p)
        loss, _ = net.loss_and_grad(X, y)
        return loss

    _, numeric = numeric_gradient(loss_at, params0)
    net.set_param_vector(params0)
    err = relative_error(analytic, numeric)
    assert err < 1e-6, err


def test_loss_and_grad_returns_a_gradient_the_caller_owns():
    """A second call, on other data, leaves the first gradient as it was:
    only the training loops reuse one gradient buffer."""
    rng = np.random.default_rng(4)
    mlp = MlpNetwork(d_in=5, hidden=(8, 6), bn_momentum=0.99, bn_eps=1e-3,
                     rng=rng)
    lstm = LstmStacker(hidden=3, rng=rng)
    for net, shape in ((mlp, (12, 5)), (lstm, (6, 4))):
        X = rng.normal(size=shape)
        y = (rng.random(shape[0]) < 0.5).astype(float)
        _, first = net.loss_and_grad(X, y)
        kept = first.copy()
        _, second = net.loss_and_grad(X[::-1] * 2.0, 1.0 - y)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.params)
        assert first.tobytes() == kept.tobytes()
        assert second.tobytes() != kept.tobytes()
