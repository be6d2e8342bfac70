"""Trained tree models: a frozen golden file and degenerate input.

``tests/data/golden_trees.json`` holds the ``to_blob`` documents and the
probe-row scores of a small seeded decision tree, random forest and
isolation forest, all trained on one seeded matrix with a defined-mask.
Any change to split search, random-number order, node order or the blob
payloads shows up here, and the stored blobs must keep loading. Regenerate
the file only for a deliberate change of training:

    PYTHONPATH=src python tests/test_trees.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from swipebench.classifiers import ClassifierSpec, from_blob, to_blob, train

GOLDEN = Path(__file__).parent / "data" / "golden_trees.json"
TOL = 1e-9
SPECS = {
    "decision_tree": {},
    "random_forest": {"n_trees": 3, "max_depth": 4},
    "isolation_forest": {"n_trees": 3, "subsample": 16},
}


def golden_data():
    rng = np.random.default_rng(1729)
    X = rng.normal(size=(48, 5))
    y = (X[:, 0] - 0.5 * X[:, 2] + 0.6 * rng.normal(size=48) > 0).astype(int)
    defined = rng.random(X.shape) > 0.15
    probe = rng.normal(size=(12, 5))
    return X, y, defined, probe


def golden_doc() -> dict:
    X, y, defined, probe = golden_data()
    doc = {}
    for kind, params in SPECS.items():
        model = train(ClassifierSpec(kind, params, seed=5), X, y, defined)
        doc[kind] = {"blob": json.loads(to_blob(model)),
                     "scores": model.score(probe).tolist()}
    return doc


def assert_same(actual, expected, where="blob"):
    """Equal structure; ints (and strings, bools, None) exact, floats
    within TOL relative to max(1, |value|)."""
    assert type(actual) is type(expected), \
        f"{where}: {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: length"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert abs(actual - expected) <= TOL * max(1.0, abs(expected)), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def saved():
    return json.loads(GOLDEN.read_text())


def test_trained_trees_match_golden_blobs(saved):
    fresh = golden_doc()
    for kind in SPECS:
        assert_same(fresh[kind]["blob"], saved[kind]["blob"], kind)


def test_golden_blobs_load_and_score(saved):
    _X, _y, _defined, probe = golden_data()
    for kind in SPECS:
        blob = json.dumps(saved[kind]["blob"], sort_keys=True).encode()
        model = from_blob(blob)
        assert to_blob(model) == blob, kind
        np.testing.assert_allclose(model.score(probe), saved[kind]["scores"],
                                   rtol=TOL, atol=TOL, err_msg=kind)


def tree_docs(blob: dict) -> list[dict]:
    payload = blob["model"]
    return [payload["tree"]] if "tree" in payload else payload["trees"]


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_constant_columns_grow_single_leaves(kind):
    """All-constant columns standardize to zeros: nothing can be split, so
    every tree is its root and every row lands there without a step."""
    X = np.ones((10, 3))
    y = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0])
    model = train(ClassifierSpec(kind, seed=3), X, y)
    trees = tree_docs(json.loads(to_blob(model)))
    for tree in trees:
        assert tree["feature"] == [-1]
        assert tree["left"] == [-1] and tree["right"] == [-1]
    probe = np.random.default_rng(0).normal(size=(6, 3))
    scores = model.score(probe)
    assert np.all(np.isfinite(scores))
    assert np.all(scores == scores[0])
    assert 0.0 <= scores[0] <= 1.0
    if kind == "decision_tree":
        assert scores[0] == 0.7
    elif kind == "random_forest":
        assert scores[0] == pytest.approx(
            np.mean([tree["value"][0] for tree in trees]))
    else:
        assert all(tree["size"] == [7] for tree in trees)
        assert scores[0] == 0.5


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1) + "\n")
