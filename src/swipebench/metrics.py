"""ROC curves and equal error rate.

Score convention: higher = more genuine. The curve is evaluated at every
distinct observed score plus one sentinel below and one above, so the full
staircase is covered: FAR(t) = fraction of impostor scores >= t (accepted),
FRR(t) = fraction of genuine scores < t (rejected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyScores, NonFiniteScores


@dataclass
class RocCurve:
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    def as_dict(self) -> dict:
        return {"thresholds": [float(v) for v in self.thresholds],
                "far": [float(v) for v in self.far],
                "frr": [float(v) for v in self.frr]}


@dataclass
class EerResult:
    eer: float
    threshold: float


def compute_roc(genuine, impostor) -> RocCurve:
    gen = np.asarray(genuine, dtype=float)
    imp = np.asarray(impostor, dtype=float)
    if gen.size == 0 or imp.size == 0:
        raise EmptyScores("both genuine and impostor scores are required")
    both = np.sort(np.concatenate([gen, imp]))
    if not np.isfinite(both).all():
        raise NonFiniteScores("scores must be finite")
    distinct = both[np.concatenate(([True], both[1:] != both[:-1]))]
    thresholds = np.concatenate(([both[0] - 1.0], distinct,
                                 [both[-1] + 1.0]))
    gen_sorted = np.sort(gen)
    imp_sorted = np.sort(imp)
    far = (imp.size - np.searchsorted(imp_sorted, thresholds, side="left")) / imp.size
    frr = np.searchsorted(gen_sorted, thresholds, side="left") / gen.size
    return RocCurve(thresholds=thresholds, far=far, frr=frr)


def compute_eer(roc: RocCurve) -> EerResult:
    """EER from a curve: the exact FAR = FRR point when one exists at an
    evaluated threshold (first such, i.e. lowest threshold), otherwise the
    linear interpolation across the first sign change of FAR - FRR."""
    d = roc.far - roc.frr
    hit = d == 0.0
    hit[:-1] |= (d[:-1] > 0.0) & (d[1:] < 0.0)
    hits = np.flatnonzero(hit)
    if not hits.size:
        raise AssertionError(
            "FAR - FRR never crossed zero; sentinel invariant broken")
    i = int(hits[0])
    if d[i] == 0.0:
        return EerResult(eer=float(roc.far[i]),
                         threshold=float(roc.thresholds[i]))
    lam = d[i] / (d[i] - d[i + 1])
    eer = roc.far[i] + lam * (roc.far[i + 1] - roc.far[i])
    thr = roc.thresholds[i] + lam * (roc.thresholds[i + 1] - roc.thresholds[i])
    return EerResult(eer=float(eer), threshold=float(thr))


def eer_from_scores(genuine, impostor) -> EerResult:
    return compute_eer(compute_roc(genuine, impostor))
