"""Isolation forest for one-class scoring.

Standard construction: each tree isolates a subsample with uniformly random
axis-aligned splits up to depth ceil(log2(subsample)); the anomaly score is
2^(-E[path length]/c(subsample)). Genuineness = 1 - anomaly, min-max
normalized against the training rows and clamped to [0, 1].

The trees are ``tree.TreeArrays`` grown by ``tree.grow`` with the random
split rule below, so each node's ``value`` is its row count (stored under
the payload key "size"). A row's path length is its leaf's depth plus
c(leaf size); those are the per-node values that ``tree.TreeModel``
averages over the trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import (ClassifierSpec, min_max_scale, register_model,
                   training_inputs)
from .tree import TreeArrays, TreeModel, forest_mean, grow

_EULER = 0.5772156649015329


def average_path_length(n: int) -> float:
    """c(n): expected unsuccessful-search path length in a BST of n nodes."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    h = math.log(n - 1.0) + _EULER
    return 2.0 * h - 2.0 * (n - 1.0) / n


def random_split(Z: np.ndarray, rng: np.random.Generator, depth_limit: int):
    """Isolation split rule for grow(): a uniformly random usable feature
    (integers drawn first), then a uniform threshold in its range. A node's
    value is its row count."""
    def split(rows, depth):
        if len(rows) <= 1 or depth >= depth_limit:
            return len(rows), None
        block = Z[rows]
        lo = block.min(axis=0)
        hi = block.max(axis=0)
        usable = np.flatnonzero(hi > lo)
        if usable.size == 0:
            return len(rows), None
        f = int(usable[rng.integers(len(usable))])
        return len(rows), (f, float(rng.uniform(lo[f], hi[f])))

    return split


def node_path_lengths(tree: TreeArrays) -> np.ndarray:
    """depth + c(size) of every node, in float64. Relies on grow() adding
    each node's children after the node itself."""
    depth = [0] * len(tree.feature)
    for node, f in enumerate(tree.feature):
        if f >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return np.array([d + average_path_length(n)
                     for d, n in zip(depth, tree.value)])


@register_model("isolation_forest")
@dataclass(eq=False)
class IsolationForestModel(TreeModel):
    psi: int
    lo: float
    hi: float

    VALUE_KEY = "size"
    VALUE_TYPE = int
    node_values = staticmethod(node_path_lengths)

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y=None, defined=None
              ) -> "IsolationForestModel":
        std, Z, _ = training_inputs(spec, X, y, defined)
        p = spec.params
        n = len(Z)
        psi = min(int(p["subsample"]), n)
        depth_limit = max(1, math.ceil(math.log2(max(psi, 2))))
        seeds = np.random.SeedSequence(spec.seed).spawn(int(p["n_trees"]))
        trees = []
        for ss in seeds:
            rng = np.random.default_rng(ss)
            sample = Z[rng.choice(n, size=psi, replace=False)]
            trees.append(grow(sample, random_split(sample, rng, depth_limit)))
        model = cls(spec, std, Z.shape[1], trees, psi, 0.0, 1.0)
        raw = model._genuineness(Z)
        model.lo = float(raw.min())
        model.hi = float(raw.max())
        return model

    def _genuineness(self, Z: np.ndarray) -> np.ndarray:
        mean_depth = forest_mean(self.forest, Z)
        anomaly = np.power(2.0, -mean_depth / average_path_length(self.psi))
        return 1.0 - anomaly

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        return min_max_scale(self._genuineness(Z), self.lo, self.hi)
