"""Shared classifier machinery: specs, standardization, serialization.

All models consume a feature matrix plus a defined-mask of its shape; a
missing mask is all-true. Feature standardization is fitted per model on
mask-defined training entries; masked entries become 0 after
standardization, i.e. the training mean. Scores are always in [0, 1],
higher = more genuine.

Each model kind declares its learned state once, as dataclass fields
named after its blob's payload keys. Every kind but the ensemble trains
on what ``training_inputs`` returns; one-class kinds keep genuine rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import (ConfigError, DimensionMismatch,
                      SingleClassForBinarySpec, TooFewSamples)
from ..spec import Spec, check, count, is_count, is_number, number

KIND_ALIASES = {
    "svm": "svm_rbf",
    "rf": "random_forest",
    "nn": "neural_net",
    "nb": "gaussian_nb",
    "dt": "decision_tree",
    "lr": "logistic_regression",
    "oc-svm": "oc_svm_rbf",
    "ocsvm": "oc_svm_rbf",
    "oc_svm": "oc_svm_rbf",
    "if": "isolation_forest",
    "ens": "ensemble",
}

DEFAULT_PARAMS: dict[str, dict] = {
    "svm_rbf": {"C": 1.0, "gamma": "scale", "tol": 1e-3, "max_iter": 100_000,
                "platt_folds": 3},
    "random_forest": {"n_trees": 100, "max_depth": 20, "max_features": "sqrt"},
    "neural_net": {"hidden": (150, 150, 75), "dropout": 0.3, "lr": 1e-3,
                   "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
                   "batch_size": 20, "epochs": 50,
                   "bn_momentum": 0.99, "bn_eps": 1e-3},
    "gaussian_nb": {"var_smoothing": 1e-9},
    "knn": {"k": 18},
    "decision_tree": {"max_depth": None},
    "logistic_regression": {"C": 1.0, "max_iter": 1000},
    "oc_svm_rbf": {"nu": 0.5, "gamma": "scale", "tol": 1e-3, "max_iter": 100_000},
    "isolation_forest": {"n_trees": 100, "subsample": 256},
    "ensemble": {"members": ("svm_rbf", "random_forest", "neural_net")},
}

ONE_CLASS_KINDS = frozenset({"oc_svm_rbf", "isolation_forest"})


def canonical_kind(kind: str) -> str:
    k = kind.strip().lower()
    k = KIND_ALIASES.get(k, k)
    if k not in DEFAULT_PARAMS:
        raise ConfigError(f"unknown classifier kind {kind!r}; "
                          f"known: {sorted(DEFAULT_PARAMS)}")
    return k


def _is_kind(v) -> bool:
    if not isinstance(v, str):
        return False
    k = v.strip().lower()
    return KIND_ALIASES.get(k, k) in DEFAULT_PARAMS


# every kind's param -> its rule; an int is accepted where a float is
PARAM_RULES = {
    "C": number(0, ends="()"),
    "gamma": (lambda v: v == "scale" or (is_number(v) and v > 0),
              '"scale" or a number > 0'),
    "tol": number(0, ends="()"),
    "max_iter": count(1),
    "platt_folds": count(2),
    "n_trees": count(1),
    "max_depth": (lambda v: v is None or (is_count(v) and v >= 1),
                  "null or an integer >= 1"),
    "max_features": (lambda v: v is None or v == "sqrt"
                     or (is_count(v) and v >= 1),
                     '"sqrt", null or an integer >= 1'),
    "hidden": (lambda v: isinstance(v, (list, tuple))
               and all(is_count(h) and h >= 1 for h in v),
               "a list of positive integers"),
    "dropout": number(0, 1, "[)"),
    "lr": number(0, ends="()"),
    "beta1": number(0, 1, "[)"),
    "beta2": number(0, 1, "[)"),
    "adam_eps": number(0, ends="()"),
    "batch_size": count(1),
    "epochs": count(0),
    "bn_momentum": number(0, 1),
    "bn_eps": number(0, ends="()"),
    "var_smoothing": number(0, ends="()"),
    "k": count(1),
    "nu": number(0, 1, "(]"),
    "subsample": count(2),
    "members": (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                and all(map(_is_kind, v)), "a non-empty list of kind names"),
}


@dataclass(frozen=True)
class ClassifierSpec(Spec):
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        defaults = DEFAULT_PARAMS[self.kind]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown params for {self.kind}: {sorted(unknown)}")
        for name, value in self.params.items():
            check(f"params.{name}", value, PARAM_RULES[name])
        merged = dict(defaults)
        merged.update((k, tuple(v) if isinstance(v, list) else v)
                      for k, v in self.params.items())
        object.__setattr__(self, "params", merged)
        object.__setattr__(self, "seed", int(self.seed) % 2 ** 32)

    @property
    def is_one_class(self) -> bool:
        return self.kind in ONE_CLASS_KINDS


@dataclass
class Standardizer:
    """Per-feature (x - mean) / std with stats from defined training entries;
    fit(X) is fit(X, all-true). Zero-variance (or never-defined) columns map
    to 0; masked entries map to 0 after the transform."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray, defined: np.ndarray | None = None) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        defined = checked_mask(defined, X)
        # columns grouped by their mask, packed into one bytes key; each
        # group's contiguous (columns, defined rows) block then sums
        # pairwise along its rows, as a per-column call would
        packed = np.ascontiguousarray(np.packbits(defined, axis=0).T)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, group = np.unique(keys, return_index=True,
                                    return_inverse=True)
        mean = np.zeros(X.shape[1])
        std = np.zeros(X.shape[1])
        for g, j in enumerate(first):
            rows = defined[:, j]
            if rows.any():
                cols = np.flatnonzero(group == g)
                block = np.ascontiguousarray(X.T[cols][:, rows])
                mean[cols] = np.mean(block, axis=1)
                std[cols] = np.std(block, axis=1)
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray, defined: np.ndarray | None = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        safe = np.where(self.std > 0.0, self.std, 1.0)
        Z = (X - self.mean) / safe
        Z[:, self.std == 0.0] = 0.0
        if defined is not None:
            Z = np.where(defined, Z, 0.0)
        return Z

    def as_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(mean=np.array(d["mean"], dtype=float),
                   std=np.array(d["std"], dtype=float))


@dataclass(eq=False)
class TrainedModel:
    """A fitted scorer. Subclasses implement _score_std on standardized
    features; state of arrays and numbers (de)serializes field by field,
    and compound state overrides _payload and _from_payload."""

    spec: ClassifierSpec
    standardizer: Standardizer
    n_features: int

    def score(self, X, defined: np.ndarray | None = None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"model expects {self.n_features} features, got {X.shape[1]}")
        Z = self.standardizer.transform(X, checked_mask(defined, X))
        s = np.asarray(self._score_std(Z), dtype=float)
        return np.clip(s, 0.0, 1.0)

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _payload(self) -> dict:
        state = fields(self)[len(fields(TrainedModel)):]
        return {f.name: _encode(getattr(self, f.name)) for f in state}

    @classmethod
    def _from_payload(cls, spec: ClassifierSpec, standardizer: Standardizer,
                      n_features: int, payload: dict) -> "TrainedModel":
        state = {name: np.array(v, dtype=float) if isinstance(v, list) else v
                 for name, v in payload.items()}
        return cls(spec, standardizer, n_features, **state)


def _encode(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def min_max_scale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """values mapped from the training range [lo, hi] onto [0, 1], clamped;
    0.5 everywhere when the range is a single point."""
    if hi == lo:
        return np.full(len(values), 0.5)
    return np.clip((values - lo) / (hi - lo), 0.0, 1.0)


_MODEL_CLASSES: dict[str, type] = {}


def register_model(kind: str):
    def wrap(cls):
        _MODEL_CLASSES[kind] = cls
        return cls
    return wrap


def model_class(kind: str) -> type:
    return _MODEL_CLASSES[canonical_kind(kind)]


def to_doc(model: TrainedModel) -> dict:
    """The model as a JSON-ready document; its blob is the sorted JSON."""
    return {
        "format": "swipebench-model",
        "version": 1,
        "spec": model.spec.as_dict(),
        "n_features": model.n_features,
        "standardizer": model.standardizer.as_dict(),
        "model": model._payload(),
    }


def from_doc(doc: dict) -> TrainedModel:
    if doc.get("format") != "swipebench-model":
        raise ConfigError("not a model blob")
    spec = ClassifierSpec.from_dict(doc["spec"])
    standardizer = Standardizer.from_dict(doc["standardizer"])
    cls = model_class(spec.kind)
    return cls._from_payload(spec, standardizer, doc["n_features"], doc["model"])


def to_blob(model: TrainedModel) -> bytes:
    return json.dumps(to_doc(model), sort_keys=True).encode()


def from_blob(blob: bytes) -> TrainedModel:
    return from_doc(json.loads(blob.decode()))


def checked_mask(defined, X: np.ndarray) -> np.ndarray:
    """``defined`` as a bool array of X's shape, all-true when None;
    DimensionMismatch for any other shape (after ``atleast_2d``)."""
    if defined is None:
        return np.ones(X.shape, dtype=bool)
    defined = np.atleast_2d(np.asarray(defined, dtype=bool))
    if defined.shape != X.shape:
        raise DimensionMismatch(f"mask of shape {defined.shape} for "
                                f"features of shape {X.shape}")
    return defined


def check_training_inputs(spec: ClassifierSpec, X: np.ndarray,
                          y: np.ndarray | None, defined: np.ndarray | None,
                          ) -> tuple[np.ndarray, np.ndarray | None,
                                     np.ndarray]:
    """Validated (X, y, defined); one-class kinds keep the genuine rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise TooFewSamples(f"training matrix must be 2-d, got shape {X.shape}")
    if X.shape[0] < 2:
        raise TooFewSamples(f"need >= 2 training rows, got {X.shape[0]}")
    defined = checked_mask(defined, X)
    if y is None:
        if not spec.is_one_class:
            raise SingleClassForBinarySpec(
                f"{spec.kind} needs labels for both classes")
        return X, None, defined
    y = np.asarray(y).astype(int)
    if len(y) != X.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows but {len(y)} labels")
    if set(np.unique(y)) - {0, 1}:
        raise ValueError("labels must be 0 (impostor) or 1 (genuine)")
    if not spec.is_one_class and len(np.unique(y)) < 2:
        raise SingleClassForBinarySpec(
            f"{spec.kind} needs both classes in training data")
    if spec.is_one_class:
        keep = y == 1
        X, y, defined = X[keep], y[keep], defined[keep]
        if len(y) < 2:
            raise TooFewSamples("one-class training needs >= 2 genuine rows")
    return X, y, defined


def training_inputs(spec: ClassifierSpec, X: np.ndarray,
                    y: np.ndarray | None, defined: np.ndarray | None,
                    ) -> tuple[Standardizer, np.ndarray, np.ndarray | None]:
    """The checked rows' standardizer, fitted on their defined entries, and
    their standardized features Z and labels y."""
    X, y, defined = check_training_inputs(spec, X, y, defined)
    std = Standardizer.fit(X, defined)
    return std, std.transform(X, defined), y


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) squared euclidean distances |a|^2 + |b|^2 - 2 a.b,
    which rounding can take slightly below 0."""
    return (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
            - 2.0 * A @ B.T)
