"""Classifier suite: binary verifiers, one-class detectors, the ensemble.

Kinds: svm_rbf, random_forest, neural_net, gaussian_nb, knn, decision_tree,
logistic_regression, oc_svm_rbf, isolation_forest, ensemble (short aliases
accepted, e.g. "rf"). Labels are 1 = genuine, 0 = impostor; one-class kinds
train on genuine rows only and accept y=None.
"""

from __future__ import annotations

import numpy as np

from .base import (DEFAULT_PARAMS, ONE_CLASS_KINDS, ClassifierSpec,
                   Standardizer, TrainedModel, canonical_kind, from_blob,
                   model_class, to_blob)
from . import ensemble as _ensemble  # noqa: F401  (registers the model kind)
from . import isolation as _isolation  # noqa: F401
from . import neural as _neural  # noqa: F401
from . import simple as _simple  # noqa: F401
from . import svm as _svm  # noqa: F401
from . import tree as _tree  # noqa: F401

KINDS = tuple(sorted(DEFAULT_PARAMS))


def train(spec: ClassifierSpec, X, y=None,
          defined: np.ndarray | None = None) -> TrainedModel:
    """Fit one model per its spec. Binary kinds need both labels present."""
    cls = model_class(spec.kind)
    return cls.train(spec, X, y, defined=defined)


__all__ = ["ClassifierSpec", "TrainedModel", "Standardizer", "KINDS",
           "ONE_CLASS_KINDS", "canonical_kind", "train",
           "to_blob", "from_blob"]
