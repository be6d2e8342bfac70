"""Gaussian naive Bayes, k-nearest-neighbours, and logistic regression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (ClassifierSpec, TrainedModel, register_model,
                   squared_distances, training_inputs)


@register_model("gaussian_nb")
@dataclass(eq=False)
class GaussianNbModel(TrainedModel):
    theta: np.ndarray       # (2, d) per-class means
    var: np.ndarray         # (2, d) smoothed variances
    log_prior: np.ndarray   # (2,)

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "GaussianNbModel":
        std, Z, y = training_inputs(spec, X, y, defined)
        d = Z.shape[1]
        theta = np.zeros((2, d))
        var = np.zeros((2, d))
        prior = np.zeros(2)
        eps = spec.params["var_smoothing"] * float(Z.var(axis=0).max())
        for c in (0, 1):
            block = Z[y == c]
            theta[c] = block.mean(axis=0)
            var[c] = block.var(axis=0) + eps
            prior[c] = len(block) / len(y)
        var[var <= 0.0] = spec.params["var_smoothing"]
        return cls(spec, std, d, theta, var, np.log(prior))

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        jll = np.empty((len(Z), 2))
        for c in (0, 1):
            jll[:, c] = self.log_prior[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.var[c])
                + (Z - self.theta[c]) ** 2 / self.var[c], axis=1)
        m = jll.max(axis=1, keepdims=True)
        p = np.exp(jll - m)
        return p[:, 1] / p.sum(axis=1)


@register_model("knn")
@dataclass(eq=False)
class KnnModel(TrainedModel):
    """Score = genuine fraction among the k nearest training rows
    (euclidean, standardized space). k is clipped to the training size, so
    an oversized k degrades to the global genuine fraction. Distance ties
    resolve toward the lower training-row index."""

    Z_train: np.ndarray
    y_train: np.ndarray

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "KnnModel":
        std, Z, y = training_inputs(spec, X, y, defined)
        return cls(spec, std, Z.shape[1], Z, y.astype(float))

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        k = min(int(self.spec.params["k"]), len(self.y_train))
        sq = squared_distances(Z, self.Z_train)
        order = np.argsort(sq, axis=1, kind="stable")[:, :k]
        return self.y_train[order].mean(axis=1)


@register_model("logistic_regression")
@dataclass(eq=False)
class LogisticRegressionModel(TrainedModel):
    """L2-regularized logistic regression fitted with L-BFGS:
    minimize 0.5 w'w + C * sum log(1 + exp(-z f)), intercept unpenalized."""

    w: np.ndarray
    b: float

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None
              ) -> "LogisticRegressionModel":
        # imported here: SciPy's optimizer stack costs every process that
        # imports swipebench about 50 MB and half a second otherwise
        from scipy.optimize import minimize

        std, Z, y = training_inputs(spec, X, y, defined)
        zpm = np.where(y == 1, 1.0, -1.0)
        C = float(spec.params["C"])
        d = Z.shape[1]

        def objective(wb):
            w, b = wb[:d], wb[d]
            f = Z @ w + b
            zf = zpm * f
            # log(1 + exp(-zf)) without overflow
            loss = np.where(zf > 0, np.log1p(np.exp(-zf)),
                            -zf + np.log1p(np.exp(zf)))
            sig = 1.0 / (1.0 + np.exp(np.clip(zf, -500, 500)))
            g_f = -zpm * sig
            grad_w = w + C * (Z.T @ g_f)
            grad_b = C * g_f.sum()
            return (0.5 * w @ w + C * loss.sum(),
                    np.concatenate([grad_w, [grad_b]]))

        res = minimize(objective, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                       options={"maxiter": int(spec.params["max_iter"])})
        wb = res.x
        return cls(spec, std, d, wb[:d].copy(), float(wb[d]))

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        f = np.clip(Z @ self.w + self.b, -500, 500)
        return 1.0 / (1.0 + np.exp(-f))
