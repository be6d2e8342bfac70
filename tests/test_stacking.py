"""Sequence stacker: training behaviour and the spec."""

import dataclasses

import numpy as np
import pytest

from swipebench.errors import InconsistentSequenceLength
from swipebench.stacking import (LstmStacker, StackerSpec, stack_score,
                                 train_stacker)


def toy_sequences(rng, n_per=40, length=5):
    """Genuine sequences run high with an upward drift, impostors low."""
    genuine = np.clip(rng.normal(0.7, 0.1, size=(n_per, length))
                      + np.linspace(0, 0.1, length), 0, 1)
    impostor = np.clip(rng.normal(0.3, 0.1, size=(n_per, length)), 0, 1)
    X = np.vstack([genuine, impostor])
    y = np.concatenate([np.ones(n_per), np.zeros(n_per)])
    return X, y


def test_training_reduces_loss():
    rng = np.random.default_rng(17)
    X, y = toy_sequences(rng)
    spec = StackerSpec(seed=3)
    probe = LstmStacker(hidden=spec.hidden,
                        rng=np.random.default_rng(99))
    net = train_stacker(X, y, spec)
    loss_before, _ = probe.loss_and_grad(X, y)
    loss_after, _ = net.loss_and_grad(X, y)
    assert loss_after < loss_before
    assert loss_after < 0.2


def test_trained_stacker_separates_toy_sequences():
    rng = np.random.default_rng(23)
    X, y = toy_sequences(rng)
    net = train_stacker(X, y, StackerSpec(epochs=40, seed=1))
    s = stack_score(net, X)
    assert s.shape == (len(X),)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert s[y == 1].mean() > s[y == 0].mean() + 0.2
    acc = np.mean((s >= 0.5) == (y == 1))
    assert acc >= 0.9


def test_training_is_deterministic():
    rng = np.random.default_rng(31)
    X, y = toy_sequences(rng, n_per=20)
    a = train_stacker(X, y, StackerSpec(epochs=10, seed=5))
    b = train_stacker(X, y, StackerSpec(epochs=10, seed=5))
    np.testing.assert_array_equal(a.param_vector(), b.param_vector())
    np.testing.assert_array_equal(stack_score(a, X), stack_score(b, X))


def test_different_seeds_start_differently():
    rng = np.random.default_rng(37)
    X, y = toy_sequences(rng, n_per=10)
    a = train_stacker(X, y, StackerSpec(epochs=1, seed=1))
    b = train_stacker(X, y, StackerSpec(epochs=1, seed=2))
    assert not np.array_equal(a.param_vector(), b.param_vector())


def test_seed_is_taken_mod_2_to_the_32():
    """As for a ClassifierSpec: a negative seed trains, as its residue."""
    rng = np.random.default_rng(43)
    X, y = toy_sequences(rng, n_per=10)
    a = train_stacker(X, y, StackerSpec(epochs=1, seed=-1))
    b = train_stacker(X, y, StackerSpec(epochs=1, seed=2 ** 32 - 1))
    assert a.param_vector().tobytes() == b.param_vector().tobytes()


def test_ragged_sequences_rejected():
    with pytest.raises(InconsistentSequenceLength):
        train_stacker([[0.1, 0.2], [0.3, 0.4, 0.5]], [1, 0])
    net = LstmStacker(hidden=4, rng=np.random.default_rng(0))
    with pytest.raises(InconsistentSequenceLength):
        stack_score(net, [[0.1], [0.2, 0.3]])


def test_spec_roundtrip_and_with_seed():
    spec = StackerSpec(hidden=11, epochs=7, seed=2)
    assert StackerSpec.from_dict(spec.as_dict()) == spec
    assert dataclasses.replace(spec, seed=9).seed == 9
    assert dataclasses.replace(spec, seed=9).hidden == 11


def test_forward_batch_shapes():
    net = LstmStacker(hidden=6, rng=np.random.default_rng(3))
    X = np.random.default_rng(4).random((7, 9))
    z, caches = net.forward(X)
    assert z.shape == (7,)
    assert len(caches) == 10  # one per step plus the final summary entry
    s = net.predict(X)
    assert np.all((s >= 0.0) & (s <= 1.0))
