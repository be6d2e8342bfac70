"""Probability-averaging ensemble of the SVM, random forest, and network.

The combined score is the exact arithmetic mean of the member scores,
accumulated in member-list order: ((s_svm + s_rf) + s_nn) / 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (ClassifierSpec, Standardizer, TrainedModel,
                   check_training_inputs, from_doc, register_model, to_doc)


def member_specs(spec: ClassifierSpec) -> list[ClassifierSpec]:
    """Default member specs with seeds derived from the ensemble seed."""
    members = spec.params["members"]
    children = np.random.SeedSequence(spec.seed).spawn(len(members))
    return [ClassifierSpec(kind=kind, seed=int(child.generate_state(1)[0]))
            for kind, child in zip(members, children)]


@register_model("ensemble")
@dataclass(eq=False)
class EnsembleModel(TrainedModel):
    models: list[TrainedModel]

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "EnsembleModel":
        from . import train as train_any
        X, y, defined = check_training_inputs(spec, X, y, defined)
        models = [train_any(ms, X, y, defined=defined)
                  for ms in member_specs(spec)]
        d = X.shape[1]
        identity = Standardizer(mean=np.zeros(d), std=np.ones(d))
        return cls(spec, identity, d, models)

    def score(self, X, defined=None) -> np.ndarray:
        # Members own their standardization; masks must reach them raw.
        acc = self.models[0].score(X, defined)
        for model in self.models[1:]:
            acc = acc + model.score(X, defined)
        return acc / len(self.models)

    def _payload(self) -> dict:
        return {"members": [to_doc(m) for m in self.models]}

    @classmethod
    def _from_payload(cls, spec, standardizer, n_features, payload):
        models = [from_doc(doc) for doc in payload["members"]]
        return cls(spec, standardizer, n_features, models)
