"""Trees: the one node store, grow loop and descent, and CART on top.

Every tree kind (decision tree, random forest, isolation forest) is a
``TreeArrays``: flat ``feature``, ``threshold``, ``left`` and ``right``
lists, where feature == -1 marks a leaf, plus one per-node ``value``. In a
CART tree ``value`` is the node's genuine fraction (payload key "value",
floats); in an isolation tree it is the node's row count (payload key
"size", ints). ``grow(Z, split)`` builds any kind depth first and asks a
kind-specific ``split(rows, depth)`` for each node's value and cut. Rows
with Z[:, feature] <= threshold go left.

Every kind is a ``TreeModel``: it keeps a list of trees (a decision tree
is a forest of one), saves them in its blob and scores with one descent.
Each model builds a ``Forest`` once, when it is made: flat node arrays
over all its trees, plus the per-node value it averages, which never
enter the blob. ``forest_leaves`` moves every (tree, row) pair one level
per step, so a step is a few NumPy calls whatever the number of trees,
and ``forest_mean`` adds the trees' leaf values in tree order.

CART split search is exhaustive over midpoints between distinct sorted
values, in one pass over all candidate features: one stable column-wise
argsort, cumsum and gini, with cuts between equal values set to inf.
Ties resolve deterministically, as a per-feature scan that keeps only
strict improvements would: the lowest candidate feature index wins
(argmin over the per-feature minima returns the first), and within a
feature the lowest threshold (argmin down the feature's sorted cuts
returns the first). Decision trees and random forests score a row by its
leaf's value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ClassifierSpec, TrainedModel, register_model, training_inputs


class TreeArrays:
    """Flat node store: feature == -1 marks a leaf; value is per kind."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0)
        return len(self.feature) - 1

    def as_dict(self, key: str = "value") -> dict:
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left, "right": self.right, key: self.value}

    @classmethod
    def from_dict(cls, d: dict, key: str = "value", cast=float) -> "TreeArrays":
        t = cls()
        t.feature = [int(v) for v in d["feature"]]
        t.threshold = [float(v) for v in d["threshold"]]
        t.left = [int(v) for v in d["left"]]
        t.right = [int(v) for v in d["right"]]
        t.value = [cast(v) for v in d[key]]
        return t


@dataclass(frozen=True)
class Forest:
    """The nodes of a model's trees in flat arrays, built once per model:
    tree k's nodes follow tree k-1's, its root is ``roots[k]`` and
    ``left``/``right`` hold these global ids. ``value`` is a per-node
    number that scoring averages over the trees."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @classmethod
    def of(cls, trees: list[TreeArrays], values) -> "Forest":
        """The flat arrays of ``trees``, with ``values[k]`` read per node of
        tree k."""
        sizes = [len(t.feature) for t in trees]
        roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        shift = np.repeat(roots, sizes)

        def flat(key: str) -> np.ndarray:
            return np.concatenate([getattr(t, key) for t in trees])

        return cls(feature=flat("feature").astype(np.intp),
                   threshold=flat("threshold").astype(float),
                   left=flat("left") + shift, right=flat("right") + shift,
                   value=np.concatenate(values).astype(float), roots=roots)


def forest_leaves(forest: Forest, Z: np.ndarray) -> np.ndarray:
    """(n_trees, n_rows) leaf ids: every (tree, row) pair descends one
    level per step, and pairs that reach a leaf drop out."""
    n = len(Z)
    node = np.repeat(forest.roots, n)
    row = np.tile(np.arange(n), len(forest.roots))
    live = np.flatnonzero(forest.feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = Z[row[live], forest.feature[at]] <= forest.threshold[at]
        node[live] = np.where(go_left, forest.left[at], forest.right[at])
        live = live[forest.feature[node[live]] >= 0]
    return node.reshape(len(forest.roots), n)


def forest_mean(forest: Forest, Z: np.ndarray) -> np.ndarray:
    """Mean over the trees of each row's leaf value, summed in tree
    order."""
    acc = np.zeros(len(Z))
    for per_tree in forest.value[forest_leaves(forest, Z)]:
        acc += per_tree
    return acc / len(forest.roots)


def grow(Z: np.ndarray, split) -> TreeArrays:
    """Grow a tree over the rows of Z depth first. split(rows, depth)
    returns the node's value and its (feature, threshold), or None for a
    leaf. Left is pushed before right, so right is grown first."""
    tree = TreeArrays()
    stack = [(tree.add(), np.arange(len(Z)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        tree.value[node], cut = split(rows, depth)
        if cut is None:
            continue
        f, thr = cut
        go_left = Z[rows, f] <= thr
        if not go_left.any() or go_left.all():
            continue
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.left[node] = left = tree.add()
        tree.right[node] = right = tree.add()
        stack.append((left, rows[go_left], depth + 1))
        stack.append((right, rows[~go_left], depth + 1))
    return tree


def _best_split(Z: np.ndarray, y: np.ndarray, candidates) -> tuple[int, float] | None:
    """Lowest weighted child gini over candidate features; None when no
    feature admits a split."""
    n = len(y)
    Zc = Z[:, candidates]
    order = np.argsort(Zc, axis=0, kind="stable")
    xs = np.take_along_axis(Zc, order, axis=0)
    c1 = np.cumsum(y[order], axis=0)[:-1].astype(float)
    left_n = np.arange(1, n, dtype=float)[:, None]
    right_n = n - left_n
    l1 = c1 / left_n
    r1 = (float(y.sum()) - c1) / right_n
    gini_l = 1.0 - l1 ** 2 - (1.0 - l1) ** 2
    gini_r = 1.0 - r1 ** 2 - (1.0 - r1) ** 2
    weighted = (left_n * gini_l + right_n * gini_r) / n
    weighted[xs[1:] == xs[:-1]] = np.inf
    j = int(np.argmin(weighted.min(axis=0)))
    k = int(np.argmin(weighted[:, j]))
    if weighted[k, j] == np.inf:
        return None
    return int(candidates[j]), float((xs[k, j] + xs[k + 1, j]) / 2.0)


def grow_tree(Z: np.ndarray, y: np.ndarray, max_depth: int | None,
              max_features: int | None,
              rng: np.random.Generator | None) -> TreeArrays:
    """CART tree; each node's value is its genuine fraction. Candidate
    features are drawn only after the stop checks."""
    d = Z.shape[1]

    def split(rows, depth):
        yn = y[rows]
        mean = float(yn.mean())
        if (mean == 0.0 or mean == 1.0 or len(rows) < 2
                or (max_depth is not None and depth >= max_depth)):
            return mean, None
        if max_features is not None and max_features < d:
            candidates = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            candidates = np.arange(d)
        return mean, _best_split(Z[rows], yn, candidates)

    return grow(Z, split)


@dataclass(eq=False)
class TreeModel(TrainedModel):
    """A model that scores a row by the mean over its trees of the value at
    the row's leaf. It keeps ``trees`` and builds their ``Forest`` once,
    when it is made; a kind gives its ``train``, ``node_values`` (each
    node's value to average) and the payload key and type of
    ``TreeArrays.value``. The blob holds the trees under "trees"."""

    trees: list[TreeArrays]

    VALUE_KEY = "value"
    VALUE_TYPE = float

    def __post_init__(self) -> None:
        self.forest = Forest.of(self.trees,
                                [self.node_values(t) for t in self.trees])

    @staticmethod
    def node_values(tree: TreeArrays):
        return tree.value

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        return forest_mean(self.forest, Z)

    def _payload(self) -> dict:
        state = super()._payload()
        state["trees"] = [t.as_dict(self.VALUE_KEY) for t in self.trees]
        return state

    @classmethod
    def _from_payload(cls, spec, standardizer, n_features, payload):
        trees = [TreeArrays.from_dict(t, cls.VALUE_KEY, cls.VALUE_TYPE)
                 for t in payload["trees"]]
        return cls(spec, standardizer, n_features, **dict(payload, trees=trees))


@register_model("decision_tree")
class DecisionTreeModel(TreeModel):
    """A forest of one tree, saved under the payload key "tree"."""

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "DecisionTreeModel":
        std, Z, y = training_inputs(spec, X, y, defined)
        tree = grow_tree(Z, y, spec.params["max_depth"], None, None)
        return cls(spec, std, Z.shape[1], [tree])

    def _payload(self) -> dict:
        return {"tree": super()._payload()["trees"][0]}

    @classmethod
    def _from_payload(cls, spec, standardizer, n_features, payload):
        return super()._from_payload(spec, standardizer, n_features,
                                     {"trees": [payload["tree"]]})


@register_model("random_forest")
class RandomForestModel(TreeModel):
    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "RandomForestModel":
        std, Z, y = training_inputs(spec, X, y, defined)
        p = spec.params
        d = Z.shape[1]
        if p["max_features"] == "sqrt":
            m = max(1, int(np.sqrt(d)))
        elif p["max_features"] is None:
            m = d
        else:
            m = max(1, min(d, int(p["max_features"])))
        n = len(y)
        seeds = np.random.SeedSequence(spec.seed).spawn(int(p["n_trees"]))
        trees = []
        for ss in seeds:
            rng = np.random.default_rng(ss)
            boot = rng.integers(0, n, size=n)
            trees.append(grow_tree(Z[boot], y[boot], p["max_depth"], m, rng))
        return cls(spec, std, d, trees)
