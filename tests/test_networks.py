"""Trained network weights: a frozen golden file, the flat buffer, and
byte equality with the reference training steps in
``tests/bitwise_oracles.py``.

``tests/data/golden_networks.json`` holds the parameter vectors and
training-set scores of a small seeded MLP and a small seeded LSTM
stacker after training. Any change to initialisation order, batch
order, gradients or the Adam update shows up here. Regenerate the file
only for a deliberate change of training:

    PYTHONPATH=src python tests/test_networks.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bitwise_oracles import (o_lstm_backward, o_lstm_forward,
                             o_mlp_backward, o_mlp_forward, o_sigmoid)
from swipebench.classifiers import ClassifierSpec, train
from swipebench.classifiers.neural import MlpNetwork, _sigmoid
from swipebench.stacking import (LstmStacker, StackerSpec, stack_score,
                                 train_stacker)

GOLDEN = Path(__file__).parent / "data" / "golden_networks.json"
TOL = 1e-9


def train_golden_mlp():
    rng = np.random.default_rng(2718)
    X = rng.normal(size=(42, 7))
    y = (X[:, 0] + 0.5 * rng.normal(size=42) > 0).astype(float)
    spec = ClassifierSpec("neural_net", {"hidden": (8, 6), "epochs": 4,
                                         "batch_size": 8, "dropout": 0.3},
                          seed=11)
    model = train(spec, X, y)
    return model.net, model.score(X)


def train_golden_lstm():
    rng = np.random.default_rng(3141)
    X = rng.random((30, 5))
    y = (X.mean(axis=1) + 0.1 * rng.normal(size=30) > 0.5).astype(float)
    net = train_stacker(X, y, StackerSpec(hidden=4, epochs=5, batch_size=7,
                                          seed=13))
    return net, stack_score(net, X)


def golden_doc() -> dict:
    doc = {}
    for name, recipe in (("mlp", train_golden_mlp),
                         ("lstm", train_golden_lstm)):
        net, scores = recipe()
        doc[name] = {"params": net.param_vector().tolist(),
                     "scores": scores.tolist()}
    return doc


def assert_close(actual, expected, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, what
    bound = TOL * np.maximum(1.0, np.maximum(abs(actual), abs(expected)))
    worst = int(np.argmax(abs(actual - expected) - bound))
    assert np.all(abs(actual - expected) <= bound), \
        f"{what}[{worst}]: {actual[worst]!r} != {expected[worst]!r}"


def test_trained_networks_match_golden():
    saved = json.loads(GOLDEN.read_text())
    fresh = golden_doc()
    for name in ("mlp", "lstm"):
        for field in ("params", "scores"):
            assert_close(fresh[name][field], saved[name][field],
                         f"{name}.{field}")


MLP_ARRAYS = ("W", "b", "gamma", "beta")
LSTM_ARRAYS = ("Wx", "Wh", "bias", "w_out")


def assert_mlp_views(net: MlpNetwork):
    for layer in net.layers:
        for key in MLP_ARRAYS:
            assert np.shares_memory(layer[key], net.params), key
        for key in ("run_mean", "run_var"):
            assert not np.shares_memory(layer[key], net.params), key
    for key in ("W", "b"):
        assert np.shares_memory(net.out[key], net.params), key
    sizes = sum(layer[k].size for layer in net.layers for k in MLP_ARRAYS)
    assert sizes + net.out["W"].size + net.out["b"].size == net.params.size


def assert_lstm_views(net: LstmStacker):
    for key in LSTM_ARRAYS:
        assert np.shares_memory(getattr(net, key), net.params), key
    assert isinstance(net.b_out, float)
    assert net.b_out == net.params[-1]
    sizes = sum(getattr(net, key).size for key in LSTM_ARRAYS)
    assert sizes + 1 == net.params.size


def test_mlp_arrays_are_views_of_params():
    net = MlpNetwork(5, (8, 6), 0.99, 1e-3, rng=np.random.default_rng(1))
    assert_mlp_views(net)
    trained, _ = train_golden_mlp()
    assert_mlp_views(trained)
    X = np.random.default_rng(2).normal(size=(9, trained.d_in))
    before = trained.predict(X)
    trained.set_param_vector(trained.param_vector() * 0.5)
    assert not np.array_equal(trained.predict(X), before)
    assert_mlp_views(trained)


def test_lstm_arrays_are_views_of_params():
    net = LstmStacker(hidden=3, rng=np.random.default_rng(1))
    assert_lstm_views(net)
    trained, _ = train_golden_lstm()
    assert_lstm_views(trained)
    X = np.random.default_rng(2).random((6, 5))
    before = trained.predict(X)
    trained.set_param_vector(trained.param_vector() * 0.5)
    assert not np.array_equal(trained.predict(X), before)
    assert_lstm_views(trained)


# -- bitwise against the reference training steps ---------------------------
# golden_networks.json allows 1e-9, which a last-bit change passes; these
# train with the package's steps and with the reference steps in
# tests/bitwise_oracles.py and compare bytes.

def assert_bytes_equal(actual, expected, what):
    """Equal bytes, except that a NaN only has to meet a NaN."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan), what
    assert actual[~nan].tobytes() == expected[~nan].tobytes(), what


def test_sigmoid_equals_reference_bitwise():
    rng = np.random.default_rng(5)
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0,
                      -709.0, 710.0, -710.0, 745.5, -745.5, 800.0, -800.0,
                      np.inf, -np.inf, np.nan, -np.nan])
    z = np.concatenate([edges, rng.normal(size=491) * 5.0,
                        rng.normal(size=491) * 1e3])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = o_sigmoid(z)
    got = _sigmoid(z)
    assert_bytes_equal(got, expected, "sigmoid")
    assert_bytes_equal(_sigmoid(z.reshape(4, -1)[:, 1:7]),
                       expected.reshape(4, -1)[:, 1:7], "strided sigmoid")


def reference_fit(params, batch_grad, n, rng, epochs, batch_size,
                  lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Shuffled mini-batch Adam written out: a permutation per epoch, then
    per batch m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (m_hat*lr) / (sqrt(v_hat) + eps), with params updated in place."""
    m, v, t = np.zeros_like(params), np.zeros_like(params), 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            g = batch_grad(order[start:start + batch_size])
            t += 1
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            params -= (m / (1 - b1 ** t)) * lr / (
                np.sqrt(v / (1 - b2 ** t)) + eps)


def reference_train_mlp(net, X, y, rng, epochs, batch_size, dropout):
    def batch_grad(idx):
        z, caches = o_mlp_forward(net, X[idx], True, dropout, rng, True)
        return o_mlp_backward(net, caches, z, y[idx], dropout)

    reference_fit(net.params, batch_grad, len(y), rng, epochs, batch_size)


@pytest.mark.parametrize("hidden", [(6,), (8, 5), (9, 7, 5)])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("n, batch_size, out_scale", [
    (40, 8, 1.0),       # equal batches
    (21, 10, 1.0),      # a final batch of one row: batch variance 0
    (23, 11, 2e3),      # output weights that put logits beyond +-710
])
def test_mlp_training_equals_reference_bitwise(hidden, dropout, n,
                                               batch_size, out_scale):
    data = np.random.default_rng(len(hidden) * 100 + n)
    X = data.normal(size=(n, 7)) * data.choice([1.0, 30.0], size=7)
    y = (X[:, 0] + data.normal(size=n) > 0).astype(float)
    nets, rngs = [], []
    for _ in range(2):
        rng = np.random.default_rng(n)
        net = MlpNetwork(7, hidden, 0.99, 1e-3, dropout=dropout, rng=rng)
        net.out["W"] *= out_scale
        nets.append(net)
        rngs.append(rng)
    got, ref = nets
    if out_scale > 1.0:
        z, _ = o_mlp_forward(ref, X, train=True)
        assert np.abs(z).max() > 710.0
    with np.errstate(over="ignore", invalid="ignore"):
        reference_train_mlp(ref, X, y, rngs[1], 3, batch_size, dropout)
    got.fit(X, y, rngs[0], epochs=3, batch_size=batch_size, lr=1e-3,
            beta1=0.9, beta2=0.999, adam_eps=1e-8)
    assert got.params.tobytes() == ref.params.tobytes()
    for a, b in zip(got.layers, ref.layers):
        for key in ("run_mean", "run_var"):
            assert a[key].tobytes() == b[key].tobytes(), key
    probe = np.concatenate([X, X[:3] * 1e3])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = o_sigmoid(o_mlp_forward(ref, probe, train=False)[0])
    assert got.predict(probe).tobytes() == expected.tobytes()


def reference_train_stacker(X, y, spec):
    rng = np.random.default_rng(spec.seed)
    net = LstmStacker(spec.hidden, rng=rng)

    def batch_grad(idx):
        z, caches = o_lstm_forward(net, X[idx])
        return o_lstm_backward(net, caches, z, y[idx])

    reference_fit(net.params, batch_grad, len(y), rng, spec.epochs,
                  spec.batch_size, spec.lr, spec.beta1, spec.beta2,
                  spec.adam_eps)
    return net


@pytest.mark.parametrize("hidden, T, n, batch_size, scale", [
    (4, 5, 30, 7, 1.0),     # a final batch of two rows
    (3, 1, 9, 4, 1.0),      # one time step; a final batch of one row
    (20, 6, 24, 20, 1.0),
    (5, 4, 16, 5, 1e3),     # saturated gates and logits
])
def test_lstm_training_equals_reference_bitwise(hidden, T, n, batch_size,
                                                scale):
    data = np.random.default_rng(hidden * 10 + T)
    X = data.random((n, T)) * scale
    y = (data.random(n) < 0.5).astype(float)
    spec = StackerSpec(hidden=hidden, epochs=3, batch_size=batch_size,
                       seed=n)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_train_stacker(X, y, spec)
        expected = o_sigmoid(o_lstm_forward(ref, X)[0])
    got = train_stacker(X, y, spec)
    assert got.params.tobytes() == ref.params.tobytes()
    assert stack_score(got, X).tobytes() == expected.tobytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1) + "\n")
