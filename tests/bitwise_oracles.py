"""Bitwise references for the package's vectorised, shared or in-place
forms of a computation.

Per-column NumPy loops, the binary and one-class SMO loops, the per-swipe
feature extraction, the network training steps and per-tree descent, and
the per-stroke synthetic generator. The package must reproduce their
results bit for bit. Kept apart from oracles.py, which the benchmark
imports, so a benchmark run never compiles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# per-column NumPy loops: bitwise references for vectorised code

def o_best_split(Z, y, candidates):
    """CART split search one candidate column at a time: lowest weighted
    child gini; a later column or threshold replaces the incumbent only
    when strictly lower. None when no column admits a split."""
    n = len(y)
    total1 = float(y.sum())
    best_imp = np.inf
    best = None
    left_n = np.arange(1, n, dtype=float)
    right_n = n - left_n
    for f in candidates:
        order = np.argsort(Z[:, f], kind="stable")
        xs = Z[order, f]
        valid = xs[1:] != xs[:-1]
        if not valid.any():
            continue
        c1 = np.cumsum(y[order])[:-1].astype(float)
        l1 = c1 / left_n
        r1 = (total1 - c1) / right_n
        gini_l = 1.0 - l1 ** 2 - (1.0 - l1) ** 2
        gini_r = 1.0 - r1 ** 2 - (1.0 - r1) ** 2
        weighted = (left_n * gini_l + right_n * gini_r) / n
        weighted[~valid] = np.inf
        k = int(np.argmin(weighted))
        if weighted[k] < best_imp:
            best_imp = float(weighted[k])
            best = (int(f), float((xs[k] + xs[k + 1]) / 2.0))
    return best


def o_standardizer_stats(X, defined):
    """Per-column mean and std over each column's defined entries; 0 and
    0 for a column that is never defined."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    mean = np.zeros(d)
    std = np.zeros(d)
    for j in range(d):
        col = X[defined[:, j], j]
        if col.size:
            mean[j] = col.mean()
            std[j] = col.std()
    return mean, std


# ---------------------------------------------------------------------------
# the binary and one-class SMO loops: bitwise references for the package's
# one solver

def o_smo_solve_binary(K: np.ndarray, y: np.ndarray, C: float,
                       tol: float = 1e-3, max_iter: int = 100_000,
                       ) -> tuple[np.ndarray, float]:
    """Solve the C-SVC dual for labels y in {-1, +1}: minimize
    0.5 a'Qa - e'a with Q = yy' * K, subject to 0 <= a <= C, y'a = 0.
    Returns (alpha, b) with decision f(x) = sum a_i y_i K(x_i, x) + b.
    """
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)          # Q alpha - e at alpha = 0

    for _ in range(max_iter):
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
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
        t = (m - M) / quad
        # Box limits along the direction a_i += y_i t, a_j -= y_j t.
        t_max_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        t_max_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        t = min(t, t_max_i, t_max_j)
        if t <= 0.0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        grad += t * y * (K[:, i] - K[:, j])

    neg_yg = -y * grad
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


def o_smo_solve_one_class(K: np.ndarray, nu: float, tol: float = 1e-3,
                          max_iter: int = 100_000) -> np.ndarray:
    """Solve the one-class dual: minimize 0.5 a'Ka subject to
    0 <= a_i <= 1/(nu n), sum a = 1."""
    n = K.shape[0]
    box = 1.0 / (nu * n)
    alpha = np.zeros(n)
    # Fill boxes from the front until the mass reaches 1.
    full = int(math.floor(nu * n))
    alpha[:full] = box
    if full < n:
        alpha[full] = 1.0 - box * full
    grad = K @ alpha

    for _ in range(max_iter):
        can_up = alpha < box - 1e-15
        can_down = alpha > 1e-15
        if not can_up.any() or not can_down.any():
            break
        up_idx = np.flatnonzero(can_up)
        down_idx = np.flatnonzero(can_down)
        i = up_idx[np.argmin(grad[up_idx])]
        j = down_idx[np.argmax(grad[down_idx])]
        if grad[j] - grad[i] < tol:
            break
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 1e-12:
            quad = 1e-12
        t = (grad[j] - grad[i]) / quad
        t = min(t, box - alpha[i], alpha[j])
        if t <= 0.0:
            break
        alpha[i] += t
        alpha[j] -= t
        grad += t * (K[:, i] - K[:, j])
    return alpha


# ---------------------------------------------------------------------------
# per-swipe feature extraction: the bitwise reference for the package's
# extraction over blocks of equal-length swipes

@dataclass
class OKinematicSeries:
    dt_ms: np.ndarray          # n-1 inter-sample gaps, milliseconds
    seg_dx: np.ndarray         # n-1 displacement components
    seg_dy: np.ndarray
    seg_len: np.ndarray        # n-1 displacement lengths
    velocity: np.ndarray       # n-1, px/s
    acceleration: np.ndarray   # n-2, px/s^2
    deviation: np.ndarray      # n absolute chord deviations
    pairwise_angle: np.ndarray  # n-2 signed turn angles
    phase_angle: np.ndarray    # n-1 displacement directions
    angular_velocity: np.ndarray  # n-2, rad/s
    pressure_delta: np.ndarray  # n-1
    area_delta: np.ndarray     # n-1

    @property
    def ldp_index(self) -> int:
        """Index of the largest-deviation point (first on ties)."""
        return int(np.argmax(self.deviation))

    def point_velocity(self, i: int) -> float:
        """Velocity attributed to sample i: the segment starting there,
        the final segment for the last sample."""
        v = self.velocity
        return float(v[min(i, len(v) - 1)])


def o_chord_deviations(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Absolute perpendicular distance of every point from the start->stop
    chord; distance to the start point when start == stop."""
    ax, ay = xs[0], ys[0]
    bx, by = xs[-1], ys[-1]
    cx, cy = bx - ax, by - ay
    norm = np.hypot(cx, cy)
    if norm == 0.0:
        return np.hypot(xs - ax, ys - ay)
    return np.abs(cx * (ys - ay) - cy * (xs - ax)) / norm


def o_compute_kinematics(swipe) -> OKinematicSeries:
    """Build every derived series for one swipe (needs >= 2 samples)."""
    t = swipe.t_ms
    if len(t) < 2:
        raise ValueError("kinematics need at least 2 samples")
    xs, ys = swipe.xs, swipe.ys

    dt_ms = np.diff(t)
    dt_s = dt_ms / 1000.0
    seg_dx = np.diff(xs)
    seg_dy = np.diff(ys)
    seg_len = np.hypot(seg_dx, seg_dy)
    velocity = seg_len / dt_s

    # Midpoint spacing: velocity i lives at (t_i + t_{i+1}) / 2.
    if len(velocity) >= 2:
        mid_dt_s = (t[2:] - t[:-2]) / 2000.0
        acceleration = np.diff(velocity) / mid_dt_s
    else:
        mid_dt_s = np.empty(0)
        acceleration = np.empty(0)

    deviation = o_chord_deviations(xs, ys)
    phase_angle = np.arctan2(seg_dy, seg_dx)

    if len(seg_dx) >= 2:
        cross = seg_dx[:-1] * seg_dy[1:] - seg_dy[:-1] * seg_dx[1:]
        dot = seg_dx[:-1] * seg_dx[1:] + seg_dy[:-1] * seg_dy[1:]
        pairwise_angle = np.arctan2(cross, dot)
        angular_velocity = pairwise_angle / mid_dt_s
    else:
        pairwise_angle = np.empty(0)
        angular_velocity = np.empty(0)

    return OKinematicSeries(
        dt_ms=dt_ms.astype(float),
        seg_dx=seg_dx, seg_dy=seg_dy, seg_len=seg_len,
        velocity=velocity, acceleration=acceleration,
        deviation=deviation,
        pairwise_angle=pairwise_angle, phase_angle=phase_angle,
        angular_velocity=angular_velocity,
        pressure_delta=np.diff(swipe.pressures),
        area_delta=np.diff(swipe.areas),
    )


def o_skew_kurtosis(a: np.ndarray) -> tuple[float, bool, float, bool]:
    """Bias-uncorrected moment skewness and excess kurtosis from one
    centring, as (skew, defined, kurtosis, defined). Skewness needs >= 3
    observations and kurtosis >= 4; a zero-variance series has both
    defined as 0."""
    n = len(a)
    if n < 3:
        return 0.0, False, 0.0, False
    d = a - a.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return 0.0, True, 0.0, n >= 4
    skew = float(np.mean(d ** 3) / m2 ** 1.5)
    if n < 4:
        return skew, True, 0.0, False
    return skew, True, float(np.mean(d ** 4) / (m2 * m2) - 3.0), True


def o_np_iqr(a: np.ndarray) -> float:
    q25, q75 = np.percentile(a, [25, 75])
    return float(q75 - q25)


def o_extract_features(swipe, prev_end_ms=None):
    """Compute the full feature vector for one swipe from NumPy calls on
    its own 1-D series, as (values, defined).

    prev_end_ms is the final timestamp of the previous swipe in the same
    session; the inter-stroke time (id 10) is masked without it.
    """
    kin = o_compute_kinematics(swipe)
    n = swipe.n
    t = swipe.t_ms
    xs, ys = swipe.xs, swipe.ys
    pr, ar = swipe.pressures, swipe.areas
    vel, acc = kin.velocity, kin.acceleration
    dev, seg = kin.deviation, kin.seg_len
    pa, ph, av = kin.pairwise_angle, kin.phase_angle, kin.angular_velocity

    vals = np.zeros(149)
    mask = np.ones(149, dtype=bool)

    def put(fid: int, value, defined: bool = True) -> None:
        v = float(value)
        if not (defined and math.isfinite(v)):
            vals[fid - 1] = 0.0
            mask[fid - 1] = False
        else:
            vals[fid - 1] = v

    def put_shape(fid: int, series: np.ndarray) -> None:
        """Skewness at fid, excess kurtosis at fid + 1."""
        skew, skew_ok, kurt, kurt_ok = o_skew_kurtosis(series)
        put(fid, skew, skew_ok)
        put(fid + 1, kurt, kurt_ok)

    chord_dx = float(xs[-1] - xs[0])
    chord_dy = float(ys[-1] - ys[0])
    chord_len = math.hypot(chord_dx, chord_dy)
    traj_len = float(seg.sum())
    duration_ms = float(t[-1] - t[0])
    i_mid = (n - 1) // 2
    ldp = kin.ldp_index

    put(1, xs[0])
    put(2, ys[0])
    put(3, xs[-1])
    put(4, ys[-1])
    put(5, duration_ms)
    put(6, chord_len)
    put(7, pr[i_mid])
    put(8, ar[i_mid])
    put(9, traj_len)
    if prev_end_ms is None:
        put(10, 0.0, defined=False)
    else:
        put(10, float(t[0]) - prev_end_ms)
    cos_mean = float(np.mean(np.cos(ph)))
    sin_mean = float(np.mean(np.sin(ph)))
    put(11, float(np.hypot(cos_mean, sin_mean)))

    k5 = min(5, n)
    put(12, float(np.median(acc[:k5 - 2])))
    put(13, float(np.median(vel[-2:])))
    put(14, float(vel.mean()))

    direct_angle = math.atan2(chord_dy, chord_dx)
    if -math.pi / 4 <= direct_angle < math.pi / 4:
        sector = 0  # right
    elif math.pi / 4 <= direct_angle < 3 * math.pi / 4:
        sector = 1  # down: screen y grows downward
    elif -3 * math.pi / 4 <= direct_angle < -math.pi / 4:
        sector = 3  # up
    else:
        sector = 2  # left
    put(15, float(sector))
    put(16, direct_angle)
    put(17, math.atan2(sin_mean, cos_mean))
    put(18, chord_len / traj_len if traj_len > 0 else 0.0, defined=traj_len > 0)

    # One percentile call per series. Ids 20, 23 and 26 are 50th
    # percentiles, which can differ from np.median in the last bit.
    vel_q = np.percentile(vel, [20, 25, 50, 75, 80])
    acc_q = np.percentile(acc, [20, 25, 50, 75, 80])
    dev_q = np.percentile(dev, [20, 25, 50, 75, 80])
    pr_q = np.percentile(pr, [25, 75])
    ar_q = np.percentile(ar, [25, 75])
    for base, q in ((19, vel_q), (22, acc_q), (25, dev_q)):
        put(base, q[0])
        put(base + 1, q[2])
        put(base + 2, q[4])
    put(28, float(dev.max()))

    put(29, pr[0])
    put(30, ar[0])
    put(31, float(ph[0]))
    put(32, float(ph.mean()))
    put(33, float(np.abs(pa).mean()) if len(pa) else 0.0, defined=len(pa) > 0)

    # Distance of each interior point to the chord of its two neighbours.
    if n >= 3:
        cd = []
        for i in range(1, n - 1):
            ax_, ay_ = xs[i - 1], ys[i - 1]
            bx_, by_ = xs[i + 1], ys[i + 1]
            ex, ey = bx_ - ax_, by_ - ay_
            nrm = math.hypot(ex, ey)
            if nrm == 0.0:
                cd.append(math.hypot(xs[i] - ax_, ys[i] - ay_))
            else:
                cd.append(abs(ex * (ys[i] - ay_) - ey * (xs[i] - ax_)) / nrm)
        put(34, float(np.mean(cd)))
    else:
        put(34, 0.0, defined=False)

    put(35, float(pr.mean()))
    put(36, float(ar.mean()))
    # argmax/argmin would return a NaN's index, a junk-but-finite position
    put(37, float(np.argmax(ar)) / (n - 1), defined=not bool(np.isnan(ar).any()))
    put(38, float(np.argmin(pr)) / (n - 1), defined=not bool(np.isnan(pr).any()))
    put(39, float(acc.mean()))
    put(40, float(pr.std()))
    put(41, float(ar.std()))
    put(42, float(vel.std()))
    put(43, float(acc.std()))
    for fid, (q25, q75) in ((44, pr_q), (45, ar_q), (46, vel_q[[1, 3]]),
                            (47, acc_q[[1, 3]])):
        put(fid, q25)
        put(fid + 4, q75)

    e1 = int(np.argmax(np.hypot(xs - xs[0], ys - ys[0])))
    e2 = int(np.argmax(np.hypot(xs - xs[-1], ys - ys[-1])))
    put(52, xs[e1])
    put(53, ys[e1])
    put(54, xs[e2])
    put(55, ys[e2])
    put(56, float(ph[-1]))
    put(57, float(vel[0]))
    put(58, ar[-1])
    put(59, pr[-1])
    put(60, float(vel[-1]))
    put(61, float(ph[-1]))
    put(62, float(seg.mean()))
    put(63, float(seg.std()))

    put(64, xs[ldp])
    put(65, ys[ldp])
    put(66, ar[ldp])
    put(67, pr[ldp])
    put(68, kin.point_velocity(ldp))
    put(69, float(t[ldp] - t[0]))
    start_ldp = math.hypot(float(xs[ldp] - xs[0]), float(ys[ldp] - ys[0]))
    ldp_stop = math.hypot(float(xs[-1] - xs[ldp]), float(ys[-1] - ys[ldp]))
    put(70, start_ldp)
    put(71, math.atan2(float(ys[ldp] - ys[0]), float(xs[ldp] - xs[0])))
    put(72, float(t[-1] - t[ldp]))
    put(73, ldp_stop)
    put(74, math.atan2(float(ys[-1] - ys[ldp]), float(xs[-1] - xs[ldp])))
    put(75, start_ldp / chord_len if chord_len > 0 else 0.0, defined=chord_len > 0)

    put(76, chord_len)
    put(77, chord_len / traj_len if traj_len > 0 else 0.0, defined=traj_len > 0)
    put(78, float(np.median(seg)))
    put(79, o_np_iqr(seg))
    put_shape(80, seg)
    put(82, float(dev.mean()))
    put(83, float(dev.std()))
    put(84, dev_q[3] - dev_q[1])
    put_shape(85, dev)

    for base, series in ((87, pa), (93, ph)):
        put(base, float(series.mean()) if len(series) else 0.0, defined=len(series) > 0)
        put(base + 1, float(np.median(series)) if len(series) else 0.0,
            defined=len(series) > 0)
        put(base + 2, float(series.std()) if len(series) else 0.0,
            defined=len(series) > 0)
        put(base + 3, o_np_iqr(series) if len(series) else 0.0, defined=len(series) > 0)
        put_shape(base + 4, series)

    put(99, chord_len / (duration_ms / 1000.0))
    put(100, vel_q[3] - vel_q[1])
    put_shape(101, vel)

    put(103, float(av.mean()) if len(av) else 0.0, defined=len(av) > 0)
    put(104, float(np.median(av)) if len(av) else 0.0, defined=len(av) > 0)
    put(105, float(av.std()) if len(av) else 0.0, defined=len(av) > 0)
    put(106, o_np_iqr(av) if len(av) else 0.0, defined=len(av) > 0)
    put_shape(107, av)

    put(109, acc_q[3] - acc_q[1])
    put_shape(110, acc)
    put(112, pr_q[1] - pr_q[0])
    put_shape(113, pr)

    put(115, float(pr.min()))
    put(116, float(pr.max()))
    put(117, float(ar.min()))
    put(118, float(ar.max()))
    put(119, float(vel.min()))
    put(120, float(vel.max()))

    prd, ard = kin.pressure_delta, kin.area_delta
    put(121, float(prd.min()))
    put(122, float(prd.max()))
    put(123, float(prd.mean()))
    put(124, float(np.median(prd)))
    put(125, float(ard.min()))
    put(126, float(ard.max()))
    put(127, float(ard.mean()))
    put(128, float(np.median(ard)))

    vmax = int(np.argmax(vel))
    vmin = int(np.argmin(vel))
    put(129, xs[vmax])
    put(130, ys[vmax])
    put(131, xs[vmin])
    put(132, ys[vmin])

    # Quadratic pressure profile over normalized arc position (falls back to
    # normalized sample index when the trajectory has zero length).
    if traj_len > 0:
        s = np.concatenate(([0.0], np.cumsum(seg))) / traj_len
    else:
        s = np.arange(n) / (n - 1)
    if len(np.unique(s)) >= 3:
        vander = np.column_stack([s * s, s, np.ones(n)])
        coef, *_ = np.linalg.lstsq(vander, pr, rcond=None)
        put(133, coef[0])
        put(134, coef[1])
        put(135, coef[2])
    else:
        for fid in (133, 134, 135):
            put(fid, 0.0, defined=False)

    put(136, float(kin.dt_ms.min()))
    put(137, float(kin.dt_ms.max()))
    put(138, float(kin.dt_ms.mean()))

    dxm = np.abs(xs - xs.mean())
    dym = np.abs(ys - ys.mean())
    put(139, float(dxm.max()))
    put(140, float(dym.max()))
    dxm_q = np.percentile(dxm, [20, 80])
    dym_q = np.percentile(dym, [20, 80])
    put(141, dxm_q[0])
    put(142, dym_q[0])
    put(143, float(np.median(dxm)))
    put(144, float(np.median(dym)))
    put(145, dxm_q[1])
    put(146, dym_q[1])

    if chord_len > 0:
        put(147, chord_dx / chord_len)
        put(148, chord_dy / chord_len)
    else:
        put(147, 0.0, defined=False)
        put(148, 0.0, defined=False)
    put(149, 1.0 if abs(chord_dx) >= abs(chord_dy) else 0.0)

    return vals, mask


# ---------------------------------------------------------------------------
# network steps and per-tree descent: bitwise references for the package's
# in-place training steps and one descent for a whole forest

def o_sigmoid(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                    np.exp(z) / (1.0 + np.exp(z)))


def o_mlp_forward(net, X: np.ndarray, train: bool,
                  dropout_rate: float = 0.0,
                  rng: np.random.Generator | None = None,
                  update_running: bool = False):
    """``MlpNetwork.forward``: (logits, caches)."""
    h = X
    caches = []
    last_hidden = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        a = h @ layer["W"] + layer["b"]
        if train:
            mu = a.mean(axis=0)
            var = a.var(axis=0)
            if update_running:
                m = net.bn_momentum
                layer["run_mean"] = m * layer["run_mean"] + (1 - m) * mu
                layer["run_var"] = m * layer["run_var"] + (1 - m) * var
        else:
            mu = layer["run_mean"]
            var = layer["run_var"]
        inv = 1.0 / np.sqrt(var + net.bn_eps)
        xhat = (a - mu) * inv
        bn = layer["gamma"] * xhat + layer["beta"]
        relu = np.maximum(bn, 0.0)
        if train and dropout_rate > 0.0 and rng is not None and i < last_hidden:
            keep = (rng.random(relu.shape) >= dropout_rate)
            dropped = relu * keep / (1.0 - dropout_rate)
        else:
            keep = None
            dropped = relu
        caches.append({"h_in": h, "a": a, "xhat": xhat, "inv": inv,
                       "bn": bn, "keep": keep})
        h = dropped
    z = (h @ net.out["W"] + net.out["b"]).ravel()
    caches.append({"h_in": h})
    return z, caches


def o_mlp_backward(net, caches, z: np.ndarray, y: np.ndarray,
                   dropout_rate: float = 0.0) -> np.ndarray:
    """``MlpNetwork.backward``: a new flat gradient per call."""
    grad, grad_layers, grad_out = net._buffer()
    m = len(y)
    dz = (o_sigmoid(z) - y)[:, None] / m
    grad_out["W"][:] = caches[-1]["h_in"].T @ dz
    grad_out["b"][:] = dz.sum(axis=0)
    dh = dz @ net.out["W"].T

    for i in range(len(net.layers) - 1, -1, -1):
        layer, cache, g = net.layers[i], caches[i], grad_layers[i]
        if cache["keep"] is not None:
            dh = dh * cache["keep"] / (1.0 - dropout_rate)
        drelu = dh * (cache["bn"] > 0.0)
        g["gamma"][:] = (drelu * cache["xhat"]).sum(axis=0)
        g["beta"][:] = drelu.sum(axis=0)
        dxhat = drelu * layer["gamma"]
        bm = len(cache["a"])
        da = (cache["inv"] / bm) * (
            bm * dxhat - dxhat.sum(axis=0)
            - cache["xhat"] * (dxhat * cache["xhat"]).sum(axis=0))
        g["W"][:] = cache["h_in"].T @ da
        g["b"][:] = da.sum(axis=0)
        dh = da @ layer["W"].T
    return grad


def o_lstm_forward(net, X: np.ndarray):
    """``LstmStacker.forward``: (logits, caches)."""
    B, T = X.shape
    H = net.hidden
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    caches = []
    for t in range(T):
        pre = X[:, t, None] * net.Wx[None, :] + h @ net.Wh + net.bias
        i = o_sigmoid(pre[:, :H])
        f = o_sigmoid(pre[:, H:2 * H])
        g = np.tanh(pre[:, 2 * H:3 * H])
        o = o_sigmoid(pre[:, 3 * H:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        caches.append({"x": X[:, t], "h_prev": h, "c_prev": c,
                       "i": i, "f": f, "g": g, "o": o,
                       "c": c_new, "tanh_c": tanh_c})
        h, c = h_new, c_new
    z = h @ net.w_out + net.b_out
    caches.append({"h_final": h})
    return z, caches


def o_lstm_backward(net, caches, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``LstmStacker.backward``: a new flat gradient per call."""
    B = len(y)
    H = net.hidden
    grad, (dWx, dWh, dbias, d_w_out, d_b_out) = net._buffer()
    dz = (o_sigmoid(z) - y) / B
    d_w_out[:] = caches[-1]["h_final"].T @ dz
    d_b_out[0] = dz.sum()
    dh = dz[:, None] * net.w_out[None, :]
    dc = np.zeros((B, H))
    for cache in reversed(caches[:-1]):
        i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
        tanh_c = cache["tanh_c"]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c ** 2)
        di = dc * g
        df = dc * cache["c_prev"]
        dg = dc * i
        dpre = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g ** 2),
            do * o * (1.0 - o)], axis=1)
        dWx += cache["x"] @ dpre
        dWh += cache["h_prev"].T @ dpre
        dbias += dpre.sum(axis=0)
        dh = dpre @ net.Wh.T
        dc = dc * f
    return grad


def o_tree_leaves(tree, Z: np.ndarray) -> np.ndarray:
    """``TreeArrays.leaves``: the leaf node of every row of one tree,
    walking each node's rows at once."""
    leaf = np.empty(len(Z), dtype=np.intp)
    stack = [(0, np.arange(len(Z)))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            leaf[rows] = node
        else:
            go_left = Z[rows, f] <= tree.threshold[node]
            stack.append((tree.left[node], rows[go_left]))
            stack.append((tree.right[node], rows[~go_left]))
    return leaf


# ---------------------------------------------------------------------------
# synthetic corpora: one stroke at a time, as the generator first drew them

def _o_stroke_series(lat, rng, start_ms, pushed):
    """One swipe's t, x, y, pressure and area series; appends True to
    ``pushed`` when the chord < 40 px branch fires."""
    from swipebench.synthetic import _LATENTS, SCREEN_H, SCREEN_W

    def draw(key):
        base, within = _LATENTS[key]
        return lat[key] + within * rng.standard_normal()

    sx = float(np.clip(draw("start_x"), 0.0, SCREEN_W - 1))
    sy = float(np.clip(draw("start_y"), 0.0, SCREEN_H - 1))
    ex = float(np.clip(draw("end_x"), 0.0, SCREEN_W - 1))
    ey = float(np.clip(draw("end_y"), 0.0, SCREEN_H - 1))
    speed = max(120.0, draw("speed"))
    level_p = min(1.5, max(0.02, draw("pressure")))
    level_a = min(1.5, max(0.02, draw("area")))
    bow = draw("curvature")

    chord = np.hypot(ex - sx, ey - sy)
    if chord < 40.0:
        pushed.append(True)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        ex = float(np.clip(sx + 160.0 * np.cos(theta), 0.0, SCREEN_W - 1))
        ey = float(np.clip(sy + 160.0 * np.sin(theta), 0.0, SCREEN_H - 1))
        chord = max(np.hypot(ex - sx, ey - sy), 1.0)

    n_pts = int(rng.integers(8, 17))
    u = np.linspace(0.0, 1.0, n_pts)
    u[1:-1] += rng.uniform(-0.3, 0.3, size=n_pts - 2) / (n_pts - 1)
    u = np.sort(np.clip(u, 0.0, 1.0))

    mx, my = (sx + ex) / 2.0, (sy + ey) / 2.0
    px, py = -(ey - sy) / chord, (ex - sx) / chord
    cx = mx + bow * chord * px
    cy = my + bow * chord * py
    one = 1.0 - u
    xs = one ** 2 * sx + 2 * one * u * cx + u ** 2 * ex
    ys = one ** 2 * sy + 2 * one * u * cy + u ** 2 * ey
    xs += rng.normal(0.0, 1.5, size=n_pts)
    ys += rng.normal(0.0, 1.5, size=n_pts)
    xs = np.clip(xs, 0.0, SCREEN_W - 1)
    ys = np.clip(ys, 0.0, SCREEN_H - 1)

    duration_ms = max(60.0, 1000.0 * chord / speed)
    dt = np.diff(u) * duration_ms
    dt = dt * rng.uniform(0.8, 1.25, size=n_pts - 1)
    dt = np.maximum(1, np.rint(dt).astype(int))
    t = start_ms + np.concatenate([[0], np.cumsum(dt)])

    profile = 0.85 + 0.3 * np.sin(np.pi * u)
    pressures = np.maximum(0.01, level_p * profile
                           + rng.normal(0.0, 0.01, size=n_pts))
    areas = np.maximum(0.01, level_a * profile
                       + rng.normal(0.0, 0.01, size=n_pts))
    return t, xs, ys, pressures, areas


def o_synthetic_columns(spec):
    """(TouchColumns, number of pushed endpoints) of ``spec``'s corpus,
    drawn and shaped one stroke at a time, with the session clock
    carried from stroke to stroke."""
    from swipebench.synthetic import SESSION_GAP_MS, _user_latents
    from swipebench.touchdata import DOWN, MOVE, UP, TouchColumns

    rng = np.random.default_rng(spec.seed)
    latents = _user_latents(spec, rng)
    series, sessions, pushed = [], [], []
    for ui in range(spec.users):
        for si in range(spec.sessions_per_user):
            clock = si * SESSION_GAP_MS
            for _ in range(spec.swipes_per_session):
                stroke = _o_stroke_series(latents[ui], rng, clock, pushed)
                series.append(stroke)
                sessions.append((f"u{ui:02d}", f"s{si:02d}"))
                clock = int(stroke[0][-1]) + int(rng.integers(200, 2000))

    lengths = [len(stroke[0]) for stroke in series]
    t, x, y, pressure, area = (np.concatenate(c) for c in zip(*series))
    user_id, session_id = (np.repeat(np.array(c, dtype=object), lengths)
                           for c in zip(*sessions))
    phase = np.full(len(t), MOVE, dtype=np.int8)
    stops = np.cumsum(lengths)
    phase[stops - 1] = UP
    phase[stops - lengths] = DOWN
    columns = TouchColumns(
        dataset=np.full(len(t), spec.name, dtype=object), user_id=user_id,
        session_id=session_id,
        device_model=np.full(len(t), "synthetic-device", dtype=object),
        t=t.astype(np.int64), phase=phase, x=x, y=y, pressure=pressure,
        area=area)
    return columns, len(pushed)
