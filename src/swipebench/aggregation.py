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
from .stacking import StackerSpec

METHODS = ("none", "mean", "median", "vote", "feed", "trust", "stacking")


@dataclass(frozen=True)
class TrustParams:
    """Additive trust update, clamped to [0, 1].

    After score s the trust moves by reward*(s - threshold) when
    s >= threshold and by penalty*(s - threshold) otherwise.
    """

    initial: float = 0.5
    threshold: float = 0.5
    reward: float = 0.2
    penalty: float = 0.2

    def __post_init__(self):
        for name in ("initial", "threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"trust {name} must be in [0, 1], got {v}")
        for name in ("reward", "penalty"):
            if getattr(self, name) < 0:
                raise ConfigError(f"trust {name} must be >= 0")

    def as_dict(self) -> dict:
        return {"initial": self.initial, "threshold": self.threshold,
                "reward": self.reward, "penalty": self.penalty}

    @classmethod
    def from_dict(cls, d: dict) -> "TrustParams":
        return cls(**d)


@dataclass(frozen=True)
class AggregationSpec:
    method: str = "none"
    window: int = 5
    vote_threshold: float = 0.5
    trust: TrustParams = field(default_factory=TrustParams)
    stacker: StackerSpec = field(default_factory=StackerSpec)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown aggregation method {self.method!r}, "
                f"expected one of {METHODS}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
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

    @classmethod
    def from_dict(cls, d: dict) -> "AggregationSpec":
        kw = dict(d)
        if "trust" in kw:
            kw["trust"] = TrustParams.from_dict(kw["trust"])
        if "stacker" in kw:
            kw["stacker"] = StackerSpec.from_dict(kw["stacker"])
        return cls(**kw)


def window_slices(session_ids, window: int, stride: int) -> list[np.ndarray]:
    """Index windows over a swipe stream, restarting at session changes.

    session_ids is the per-swipe session labels in stream order. Returns
    one integer index array per window; only full windows are emitted.
    Sessions shorter than the window contribute nothing.
    """
    if window < 1 or stride < 1:
        raise ConfigError("window and stride must be >= 1")
    session_ids = list(session_ids)
    out: list[np.ndarray] = []
    run_start = 0
    n = len(session_ids)
    for pos in range(n + 1):
        boundary = pos == n or (pos > run_start
                                and session_ids[pos] != session_ids[run_start])
        if not boundary:
            continue
        run_len = pos - run_start
        for off in range(0, run_len - window + 1, stride):
            out.append(np.arange(run_start + off, run_start + off + window))
        run_start = pos
    return out


def reduce_scores(scores, spec: AggregationSpec) -> float:
    """Apply a closed-form reducer to one window of scores."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise EmptyWindow("cannot aggregate an empty window")
    if spec.method in ("none", "mean"):
        return float(s.mean())
    if spec.method == "median":
        return float(np.median(s))
    if spec.method == "vote":
        return float(np.mean(s >= spec.vote_threshold))
    if spec.method == "trust":
        return float(trust_trace(s, spec.trust)[-1])
    raise ConfigError(
        f"method {spec.method!r} is not a closed-form reducer")


def trust_trace(scores, params: TrustParams = TrustParams()) -> np.ndarray:
    """Trust value after each score, starting from params.initial."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise EmptyWindow("trust trace needs at least one score")
    out = np.empty(s.size)
    trust = params.initial
    for i, score in enumerate(s):
        delta = score - params.threshold
        weight = params.reward if delta >= 0 else params.penalty
        trust = min(1.0, max(0.0, trust + weight * delta))
        out[i] = trust
    return out


def concat_window(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Feature vectors of one window laid out end to end (feed variant)."""
    return np.asarray(X)[idx].ravel()
