"""Multi-swipe score aggregation.

A decision is made over a window of consecutive same-session swipes
rather than a single one. Windows never span a session boundary.
Supported reducers over the per-swipe scores of a window:

- ``mean``     arithmetic mean
- ``median``   linear-interpolation median
- ``vote``     fraction of scores at or above a threshold
- ``trust``    bounded additive trust walk, final trust value
- ``feed``     no reducer; the raw feature vectors of the window are
               concatenated and scored by a classifier trained on
               concatenated windows
- ``stacking`` learned reducer (LSTM over the score sequence)

This module owns windowing, the closed-form reducers and the trust
model. The feed and stacking variants need training and live with the
evaluation protocol; their parameter containers are defined here so a
single spec type covers every method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyWindow
from .spec import Spec, count, number
from .stacking import StackerSpec

METHODS = ("none", "mean", "median", "vote", "feed", "trust", "stacking")


@dataclass(frozen=True)
class TrustParams(Spec):
    """Additive trust update, clamped to [0, 1].

    After score s the trust moves by reward*(s - threshold) when
    s >= threshold and by penalty*(s - threshold) otherwise.
    """

    initial: float = 0.5
    threshold: float = 0.5
    reward: float = 0.2
    penalty: float = 0.2

    RULES = {"initial": number(0, 1), "threshold": number(0, 1),
             "reward": number(0), "penalty": number(0)}


@dataclass(frozen=True)
class AggregationSpec(Spec):
    """An omitted window follows the method: 1 for ``none``, else 5."""

    method: str = "none"
    window: int = None
    vote_threshold: float = 0.5
    trust: TrustParams = field(default_factory=TrustParams)
    stacker: StackerSpec = field(default_factory=StackerSpec)

    RULES = {"window": count(1), "vote_threshold": number(0, 1)}

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown aggregation method {self.method!r}, "
                f"expected one of {METHODS}")
        if self.window is None:
            object.__setattr__(self, "window",
                               1 if self.method == "none" else 5)
        super().__post_init__()
        if self.method == "none" and self.window != 1:
            raise ConfigError("method 'none' requires window == 1")

    def as_dict(self) -> dict:
        d = {"method": self.method, "window": self.window}
        if self.method == "vote":
            d["vote_threshold"] = self.vote_threshold
        if self.method == "trust":
            d["trust"] = self.trust.as_dict()
        if self.method == "stacking":
            d["stacker"] = self.stacker.as_dict()
        return d


def window_slices(session_ids, window: int, stride: int) -> list[np.ndarray]:
    """Index windows over a swipe stream, restarting at session changes.

    session_ids is the per-swipe session labels in stream order. Returns
    one integer index array per window, each a row of one (n, window)
    matrix; only full windows are emitted. Sessions shorter than the
    window contribute nothing.
    """
    if window < 1 or stride < 1:
        raise ConfigError("window and stride must be >= 1")
    labels = list(session_ids)
    starts = np.array([0] + [i for i in range(1, len(labels))
                             if labels[i] != labels[i - 1]])
    lengths = np.diff(starts, append=len(labels))
    counts = np.maximum(0, (lengths - window) // stride + 1)
    # window k of a run starts at run start + stride * (k - first k of run)
    k = np.arange(counts.sum())
    firsts = np.repeat(starts + stride * (counts - np.cumsum(counts)), counts)
    return list((firsts + stride * k)[:, None] + np.arange(window))


def reduce_scores(scores, spec: AggregationSpec) -> float:
    """Apply a closed-form reducer to one window of scores."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise EmptyWindow("cannot aggregate an empty window")
    if spec.method in ("none", "mean"):
        return float(np.add.reduce(s) / s.size)
    if spec.method == "median":
        t = np.sort(s)
        if t[-1] != t[-1]:    # NaN sorts last; np.median returns it
            return float(np.median(s))
        # the mean of the middle one or two values, as np.median takes it
        middle = t[(t.size - 1) // 2:t.size // 2 + 1]
        return float(np.add.reduce(middle) / middle.size)
    if spec.method == "vote":
        return float(np.count_nonzero(s >= spec.vote_threshold) / s.size)
    if spec.method == "trust":
        return _trust_walk(s.tolist(), spec.trust)[-1]
    raise ConfigError(
        f"method {spec.method!r} is not a closed-form reducer")


def trust_trace(scores, params: TrustParams = TrustParams()) -> np.ndarray:
    """Trust value after each score, starting from params.initial."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise EmptyWindow("trust trace needs at least one score")
    return np.array(_trust_walk(s.tolist(), params))


def _trust_walk(scores: list[float], params: TrustParams) -> list[float]:
    out = []
    trust = params.initial
    for score in scores:
        delta = score - params.threshold
        weight = params.reward if delta >= 0 else params.penalty
        trust = min(1.0, max(0.0, trust + weight * delta))
        out.append(trust)
    return out


def concat_window(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Feature vectors of a window laid out end to end (feed variant).

    idx is one window of row indices, or an (n, w) matrix of windows,
    which gives one row per window."""
    idx = np.asarray(idx)
    return np.asarray(X)[idx].reshape(*idx.shape[:-1], -1)
