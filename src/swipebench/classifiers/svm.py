"""RBF-kernel SVMs trained by sequential minimal optimization.

One solver, ``smo_solve``, is the classic maximal-violating-pair scheme:
pick the steepest feasible ascent/descent pair, take the clipped Newton
step on it, repeat until the KKT gap falls below tol. Its two call sites
are the binary machine (``smo_solve_binary``: exact bounds) and the
one-class machine (``OneClassSvmModel.train``: bounds kept 1e-15 inside
the box); each margin pins its machine's solutions bit for bit. The binary
machine calibrates its decision values into probabilities with a sigmoid
fitted on 3-fold cross-validated decision values; the one-class machine
min-max normalizes its decision values against the training range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import (ClassifierSpec, TrainedModel, min_max_scale,
                   register_model, squared_distances, training_inputs)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = squared_distances(A, B)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def gamma_value(gamma, X: np.ndarray) -> float:
    """'scale' resolves to 1 / (d * var(X)) over the training matrix."""
    if gamma == "scale":
        var = float(X.var())
        return 1.0 / (X.shape[1] * var) if var > 0.0 else 1.0
    return float(gamma)


def smo_solve(K: np.ndarray, y: np.ndarray, p: np.ndarray, box: float,
              alpha0: np.ndarray, tol: float, max_iter: int, margin: float,
              ) -> tuple[np.ndarray, np.ndarray]:
    """Minimize 0.5 a'Qa + p'a with Q = yy' * K, subject to 0 <= a <= box
    and y'a fixed at its value at the feasible start alpha0, for y in
    {-1, +1}. A coefficient may still rise while below box - margin and
    fall while above margin. Returns alpha and -y * (Qa + p)."""
    # The loop runs on u = y * a, which lies in [hi - box, hi] and moves
    # by +t at i and -t at j; -neg_yg is the gradient of the same
    # objective, 0.5 u'Ku + (y * p)'u. Adding 0.0 to y * u turns the -0.0
    # of a coefficient that returned to its bound at 0 into 0.0.
    u = y * alpha0
    hi = np.where(y > 0, box, 0.0)
    lo = hi - box
    up_limit = hi - margin
    low_limit = lo + margin
    neg_yg = -(K @ u + y * p)
    for _ in range(max_iter):
        up = u < up_limit
        low = u > low_limit
        if not up.any() or not low.any():
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = up_idx[np.argmax(neg_yg[up_idx])]
        j = low_idx[np.argmin(neg_yg[low_idx])]
        m, M = neg_yg[i], neg_yg[j]
        if m - M < tol:
            break
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 1e-12:
            quad = 1e-12
        t = min((m - M) / quad, hi[i] - u[i], u[j] - lo[j])
        if t <= 0.0:
            break
        u[i] += t
        u[j] -= t
        neg_yg -= t * (K[:, i] - K[:, j])
    return y * u + 0.0, neg_yg


def smo_solve_binary(K: np.ndarray, y: np.ndarray, C: float,
                     tol: float = 1e-3, max_iter: int = 100_000,
                     ) -> tuple[np.ndarray, float]:
    """Solve the C-SVC dual for labels y in {-1, +1}: minimize
    0.5 a'Qa - e'a with Q = yy' * K, subject to 0 <= a <= C, y'a = 0.
    Returns (alpha, b) with decision f(x) = sum a_i y_i K(x_i, x) + b.
    """
    n = len(y)
    alpha, neg_yg = smo_solve(K, y, -np.ones(n), C, np.zeros(n), tol,
                              max_iter, margin=0.0)
    free = (alpha > 1e-12) & (alpha < C - 1e-12)
    if free.any():
        b = float(np.mean(neg_yg[free]))
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        hi = neg_yg[up].max() if up.any() else 0.0
        lo = neg_yg[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)
    return alpha, b


def fit_platt_sigmoid(decision: np.ndarray,
                      y01: np.ndarray) -> tuple[float, float]:
    """Fit P(genuine | f) = 1 / (1 + exp(A f + B)) by penalized maximum
    likelihood (Newton with backtracking, the standard robust recipe)."""
    prior1 = float(np.sum(y01 == 1))
    prior0 = float(np.sum(y01 == 0))
    hi_t = (prior1 + 1.0) / (prior1 + 2.0)
    lo_t = 1.0 / (prior0 + 2.0)
    t = np.where(y01 == 1, hi_t, lo_t)

    A = 0.0
    B = math.log((prior0 + 1.0) / (prior1 + 1.0))
    sigma = 1e-12
    min_step = 1e-10
    max_iter = 100

    def objective(a: float, b: float) -> float:
        fApB = decision * a + b
        pos = fApB >= 0
        out = np.where(pos,
                       t * fApB + np.log1p(np.exp(-fApB)),
                       (t - 1.0) * fApB + np.log1p(np.exp(fApB)))
        return float(out.sum())

    fval = objective(A, B)
    for _ in range(max_iter):
        fApB = decision * A + B
        pos = fApB >= 0
        p = np.where(pos, np.exp(-fApB) / (1.0 + np.exp(-fApB)),
                     1.0 / (1.0 + np.exp(fApB)))
        q = 1.0 - p
        d1 = t - p
        d2 = p * q
        g1 = float(np.sum(decision * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        h11 = float(np.sum(decision * decision * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.sum(decision * d2))
        det = h11 * h22 - h21 * h21
        dA = -(h22 * g1 - h21 * g2) / det
        dB = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * dA + g2 * dB
        step = 1.0
        while step >= min_step:
            newA, newB = A + step * dA, B + step * dB
            newf = objective(newA, newB)
            if newf < fval + 1e-4 * step * gd:
                A, B, fval = newA, newB, newf
                break
            step /= 2.0
        else:
            break
    return A, B


def _stratified_folds(y01: np.ndarray, n_folds: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled per-class round-robin assignment into n_folds folds."""
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        idx = np.flatnonzero(y01 == cls)
        idx = idx[rng.permutation(len(idx))]
        for pos, row in enumerate(idx):
            folds[pos % n_folds].append(int(row))
    return [np.array(sorted(f), dtype=int) for f in folds]


@register_model("svm_rbf")
@dataclass(eq=False)
class SvmModel(TrainedModel):
    sv: np.ndarray          # support vectors (standardized space)
    sv_coef: np.ndarray     # alpha_i * y_i
    b: float
    gamma: float
    platt_a: float
    platt_b: float

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y, defined=None) -> "SvmModel":
        std, Z, y = training_inputs(spec, X, y, defined)
        p = spec.params
        gamma = gamma_value(p["gamma"], Z)
        ypm = np.where(y == 1, 1.0, -1.0)

        def decisions(train_idx, eval_idx):
            Ksub = rbf_kernel(Z[train_idx], Z[train_idx], gamma)
            a, b = smo_solve_binary(Ksub, ypm[train_idx], p["C"],
                                    tol=p["tol"], max_iter=p["max_iter"])
            coef = a * ypm[train_idx]
            Keval = rbf_kernel(Z[eval_idx], Z[train_idx], gamma)
            return Keval @ coef + b

        # Calibration decision values come from internal cross-validation so
        # the sigmoid does not see resubstitution optimism.
        rng = np.random.default_rng(spec.seed)
        n_folds = int(p["platt_folds"])
        counts = np.bincount(y, minlength=2)
        all_idx = np.arange(len(y))
        if counts.min() >= n_folds:
            dec = np.empty(len(y))
            for fold in _stratified_folds(y, n_folds, rng):
                train_idx = np.setdiff1d(all_idx, fold)
                dec[fold] = decisions(train_idx, fold)
        else:
            dec = None  # too small to fold; fit on in-sample values below

        K = rbf_kernel(Z, Z, gamma)
        alpha, b = smo_solve_binary(K, ypm, p["C"], tol=p["tol"],
                                    max_iter=p["max_iter"])
        coef = alpha * ypm
        if dec is None:
            dec = K @ coef + b
        A, B = fit_platt_sigmoid(dec, y)

        keep = alpha > 1e-12
        if not keep.any():
            keep = np.ones(len(alpha), dtype=bool)
        return cls(spec, std, Z.shape[1], Z[keep].copy(), coef[keep].copy(),
                   float(b), float(gamma), float(A), float(B))

    def decision_values(self, Z: np.ndarray) -> np.ndarray:
        return rbf_kernel(Z, self.sv, self.gamma) @ self.sv_coef + self.b

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        f = self.decision_values(Z)
        fApB = f * self.platt_a + self.platt_b
        return np.where(fApB >= 0,
                        np.exp(-fApB) / (1.0 + np.exp(-fApB)),
                        1.0 / (1.0 + np.exp(fApB)))


@register_model("oc_svm_rbf")
@dataclass(eq=False)
class OneClassSvmModel(TrainedModel):
    sv: np.ndarray
    sv_alpha: np.ndarray
    rho: float
    gamma: float
    lo: float       # training decision-value range for normalization
    hi: float

    @classmethod
    def train(cls, spec: ClassifierSpec, X, y=None, defined=None) -> "OneClassSvmModel":
        std, Z, _ = training_inputs(spec, X, y, defined)
        p = spec.params
        gamma = gamma_value(p["gamma"], Z)
        K = rbf_kernel(Z, Z, gamma)
        # The one-class dual: minimize 0.5 a'Ka subject to
        # 0 <= a_i <= 1/(nu n), sum a = 1, from boxes filled from the front
        # until the mass reaches 1.
        n = len(Z)
        box = 1.0 / (p["nu"] * n)
        alpha0 = np.zeros(n)
        full = int(math.floor(p["nu"] * n))
        alpha0[:full] = box
        if full < n:
            alpha0[full] = 1.0 - box * full
        alpha, _ = smo_solve(K, np.ones(n), np.zeros(n), box, alpha0,
                             p["tol"], p["max_iter"], margin=1e-15)
        g = K @ alpha
        free = (alpha > 1e-12) & (alpha < box - 1e-12)
        rho = float(np.mean(g[free])) if free.any() else float(np.mean(g[alpha > 1e-12]))

        keep = alpha > 1e-12
        dec_train = g - rho
        lo, hi = float(dec_train.min()), float(dec_train.max())
        return cls(spec, std, Z.shape[1], Z[keep].copy(), alpha[keep].copy(),
                   rho, float(gamma), lo, hi)

    def decision_values(self, Z: np.ndarray) -> np.ndarray:
        return rbf_kernel(Z, self.sv, self.gamma) @ self.sv_alpha - self.rho

    def _score_std(self, Z: np.ndarray) -> np.ndarray:
        return min_max_scale(self.decision_values(Z), self.lo, self.hi)
