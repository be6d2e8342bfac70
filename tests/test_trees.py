"""Trained tree models: a frozen golden file, degenerate input, and the
one forest descent against the per-tree reference in
``tests/bitwise_oracles.py``.

``tests/data/golden_trees.json`` holds the ``to_blob`` documents and the
probe-row scores of a small seeded decision tree, random forest and
isolation forest, all trained on one seeded matrix with a defined-mask,
plus a decision tree and a random forest trained without a mask on a
tie-heavy matrix (rounded and duplicated columns), which pins the split
search's tie rule. Any change to split search, random-number order, node
order or the blob payloads shows up here, and the stored blobs must keep
loading. Regenerate the file only for a deliberate change of training:

    PYTHONPATH=src python tests/test_trees.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bitwise_oracles import o_best_split, o_tree_leaves
from swipebench.classifiers import (ClassifierSpec, from_blob, to_blob, train,
                                    tree)
from swipebench.classifiers.isolation import (average_path_length,
                                              node_path_lengths)

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


def tie_data():
    """Half-unit values; columns 1 and 5 duplicate column 0 and column 3
    is column 2 on the unit grid, so equal gini recurs across thresholds
    and across columns: changing either half of the tie rule changes
    both trees."""
    rng = np.random.default_rng(2)
    base = np.round(rng.normal(size=(60, 3)) * 2.0) / 2.0
    X = np.column_stack([base[:, 0], base[:, 0], base[:, 1],
                         np.round(base[:, 1]), base[:, 2], base[:, 0]])
    y = (base[:, 0] + base[:, 1] + 0.8 * rng.normal(size=60) > 0).astype(int)
    probe = np.round(rng.normal(size=(12, 6)) * 2.0) / 2.0
    return X, y, None, probe


# golden entry -> (kind, params, training data)
CASES = {kind: (kind, params, golden_data) for kind, params in SPECS.items()}
CASES["decision_tree_ties"] = ("decision_tree", {}, tie_data)
CASES["random_forest_ties"] = ("random_forest",
                               {"n_trees": 4, "max_depth": 6}, tie_data)


def golden_doc() -> dict:
    doc = {}
    for name, (kind, params, data) in CASES.items():
        X, y, defined, probe = data()
        model = train(ClassifierSpec(kind, params, seed=5), X, y, defined)
        doc[name] = {"blob": json.loads(to_blob(model)),
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
    assert sorted(saved) == sorted(CASES)
    for name in CASES:
        assert_same(fresh[name]["blob"], saved[name]["blob"], name)


def test_golden_blobs_load_and_score(saved):
    for name, (_kind, _params, data) in CASES.items():
        probe = data()[3]
        blob = json.dumps(saved[name]["blob"], sort_keys=True).encode()
        model = from_blob(blob)
        assert to_blob(model) == blob, name
        np.testing.assert_allclose(model.score(probe), saved[name]["scores"],
                                   rtol=TOL, atol=TOL, err_msg=name)


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


def fuzz_nodes(seed: int, count: int):
    """Random split-search nodes: n in 2..120, d of 5/30/149, some
    columns constant, some nodes rounded to a coarse grid (ties across
    thresholds and columns), some all-constant, and full or sqrt-sized
    subsampled candidate sets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 121))
        d = int(rng.choice([5, 30, 149]))
        Z = rng.normal(size=(n, d))
        shape = rng.random()
        if shape < 0.4:
            Z = np.round(Z, int(rng.integers(0, 2)))
            Z[:, 1::2] = Z[:, :-1:2]    # odd columns copy their left neighbours
        elif shape > 0.9:
            Z[:] = rng.normal()
        Z[:, rng.random(d) < 0.2] = 0.0
        y = rng.integers(0, 2, size=n)
        if rng.random() < 0.5:
            m = max(1, int(np.sqrt(d)))
            candidates = np.sort(rng.choice(d, size=m, replace=False))
        else:
            candidates = np.arange(d)
        yield Z, y, candidates


def test_best_split_matches_per_column_reference():
    results = []
    for Z, y, candidates in fuzz_nodes(31, 600):
        got = tree._best_split(Z, y, candidates)
        assert got == o_best_split(Z, y, candidates)
        results.append(got)
    # the fuzz reaches both outcomes
    assert any(r is None for r in results)
    assert sum(r is not None for r in results) > 400


def test_best_split_tie_rule_on_duplicate_columns():
    """Identical columns tie on every cut: the lowest candidate wins,
    and within it the lowest of equal-gini thresholds."""
    col = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    y = np.array([1, 1, 0, 0, 0, 0, 1, 1])
    Z = np.column_stack([col * 0.0, col, col, col])
    # cuts at 0.5 and 2.5 both isolate one pure pair: same gini
    assert tree._best_split(Z, y, np.arange(4)) == (1, 0.5)
    assert tree._best_split(Z, y, np.array([2, 3])) == (2, 0.5)
    assert tree._best_split(Z, y, np.array([0])) is None


def test_best_split_sorts_once_per_node(monkeypatch):
    """One argsort over all candidate columns, whatever their number."""
    calls = []
    real = np.argsort

    def counting(a, *args, **kw):
        calls.append(np.shape(a))
        return real(a, *args, **kw)

    monkeypatch.setattr(tree.np, "argsort", counting)
    Z, y, _ = next(fuzz_nodes(7, 1))
    for m in (1, 3, Z.shape[1]):
        calls.clear()
        tree._best_split(Z, y, np.arange(m))
        assert calls == [(len(y), m)]


# -- one descent for a whole forest, against the per-tree reference --------

def reference_score_std(model, Z):
    """The per-tree scoring of each kind, tree by tree in tree order."""
    trees = model.trees
    if model.spec.kind == "decision_tree":
        return np.asarray(trees[0].value)[o_tree_leaves(trees[0], Z)]
    if model.spec.kind == "random_forest":
        acc = np.zeros(len(Z))
        for t in trees:
            acc += np.asarray(t.value)[o_tree_leaves(t, Z)]
        return acc / len(trees)
    depths = np.zeros(len(Z))
    for t in trees:
        depths += node_path_lengths(t)[o_tree_leaves(t, Z)]
    mean_depth = depths / len(trees)
    anomaly = np.power(2.0, -mean_depth / average_path_length(model.psi))
    return 1.0 - anomaly


def on_thresholds(trees, Z, rng):
    """Rows of Z with one column set exactly to an internal node's
    threshold, so the row takes the <= branch there."""
    rows = []
    for t in trees:
        for node in np.flatnonzero(np.asarray(t.feature) >= 0)[:6]:
            row = Z[rng.integers(len(Z))].copy()
            row[t.feature[node]] = t.threshold[node]
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("kind, params", [
    ("decision_tree", {}),
    ("decision_tree", {"max_depth": 2}),
    ("random_forest", {"n_trees": 24}),
    ("random_forest", {"n_trees": 5, "max_depth": 3, "max_features": None}),
    ("isolation_forest", {"n_trees": 30, "subsample": 32}),
])
def test_forest_descent_equals_per_tree_reference_bitwise(kind, params):
    rng = np.random.default_rng(len(params) + len(kind))
    X = np.round(rng.normal(size=(70, 6)), 1)
    y = (X[:, 0] + X[:, 3] + 0.7 * rng.normal(size=70) > 0).astype(int)
    model = train(ClassifierSpec(kind, params, seed=9), X, y)
    trees = model.trees
    Z = model.standardizer.transform(X)
    for probe in (Z, rng.normal(size=(40, 6)) * 3.0,
                  on_thresholds(trees, Z, rng), Z[:0]):
        leaves = tree.forest_leaves(model.forest, probe)
        assert leaves.shape == (len(trees), len(probe))
        for k, t in enumerate(trees):
            assert np.array_equal(leaves[k] - model.forest.roots[k],
                                  o_tree_leaves(t, probe))
        got = (model._genuineness(probe) if kind == "isolation_forest"
               else model._score_std(probe))
        assert got.tobytes() == reference_score_std(model, probe).tobytes()
    assert from_blob(to_blob(model)).score(X).tobytes() == \
        model.score(X).tobytes()


def test_forest_descent_with_root_only_trees():
    """A forest that mixes root-only trees with grown ones: the root-only
    trees send every row to their root without a step."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4))
    y = (X[:, 1] > 0).astype(int)
    grown = train(ClassifierSpec("random_forest", {"n_trees": 2}, seed=1),
                  X, y).trees
    root = tree.TreeArrays()
    root.add()
    root.value[0] = 0.25
    trees = [root, grown[0], root, grown[1], root]
    forest = tree.Forest.of(trees, [t.value for t in trees])
    probe = np.concatenate([X, on_thresholds(grown, X, rng)])
    leaves = tree.forest_leaves(forest, probe)
    acc = np.zeros(len(probe))
    for k, t in enumerate(trees):
        local = o_tree_leaves(t, probe)
        assert np.array_equal(leaves[k] - forest.roots[k], local)
        acc += np.asarray(t.value)[local]
    assert tree.forest_mean(forest, probe).tobytes() == \
        (acc / len(trees)).tobytes()
    only_root = tree.Forest.of([root], [root.value])
    assert tree.forest_leaves(only_root, probe).tolist() == \
        [[0] * len(probe)]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1) + "\n")
