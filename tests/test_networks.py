"""Trained network weights: a frozen golden file and the flat buffer.

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

from swipebench.classifiers import ClassifierSpec, train
from swipebench.classifiers.neural import MlpNetwork
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


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1) + "\n")
