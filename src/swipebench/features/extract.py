"""Feature extraction for blocks of equal-length swipes, and dataset-level
feature tables.

Every swipe yields a 149-slot vector plus a defined-mask. Features whose
definition cannot be evaluated (no previous stroke for the inter-stroke
time, too few observations for skewness/kurtosis, zero-length denominators)
are imputed as 0 with mask false; every mask-true value is finite. Units:
coordinates px, durations ms, velocities px/s, accelerations px/s^2,
angles rad.

A feature table stacks the swipes that share a sample count into one
(k, n) block per series and computes each feature as a row-wise operation
on it; ``extract_features`` is the same code on a block of one swipe. Each
row is bitwise what the swipe gives alone: row reductions keep NumPy's
per-row pairwise sums, and the scalar features keep Python's math.hypot,
math.atan2 and float ``**``, applied element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyMatrix
from ..touchdata import Dataset, Swipe, gather
from .catalog import ALL_IDS, FEATURE_COUNT, resolve_feature_ids
from .kinematics import compute_kinematics


_SECTOR_EDGES = (-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4)
# left, up, right, down (screen y grows downward), left
_SECTORS = np.array([2.0, 3.0, 0.0, 1.0, 2.0])


def _pointwise(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fn(a, b) on Python floats, element by element: math.hypot and
    math.atan2 differ from np.hypot and np.arctan2 in the last bit."""
    out = np.fromiter(map(fn, a.ravel().tolist(), b.ravel().tolist()),
                      dtype=float, count=a.size)
    return out.reshape(a.shape)


def skew_kurtosis(a: np.ndarray) -> tuple[np.ndarray, bool, np.ndarray, bool]:
    """Bias-uncorrected moment skewness and excess kurtosis of each row
    from one centring, as (skew, defined, kurtosis, defined). Skewness
    needs >= 3 observations and kurtosis >= 4; a zero-variance row has
    both defined as 0."""
    d = a - a.mean(axis=1, keepdims=True)
    m2 = np.mean(d * d, axis=1)
    flat = m2 == 0.0
    # m2 ** 1.5 on Python floats: np.power differs in the last bit
    skew = np.mean(d ** 3, axis=1) / np.array([m ** 1.5 for m in m2.tolist()])
    kurt = np.mean(d ** 4, axis=1) / (m2 * m2) - 3.0
    n = a.shape[1]
    return np.where(flat, 0.0, skew), n >= 3, np.where(flat, 0.0, kurt), n >= 4


def _per_series(fn, *series: np.ndarray) -> np.ndarray:
    """fn(block, axis=1) over equal-length (k, m) series stacked into one
    block, as one row of k results per series: one NumPy call instead of
    one per series, each row reduced exactly as on its own."""
    return fn(np.concatenate(series), axis=1).reshape(len(series), -1)


def _iqr(a: np.ndarray) -> np.ndarray:
    q25, q75 = np.percentile(a, [25, 75], axis=1)
    return q75 - q25


@dataclass
class FeatureVector:
    """All 149 feature values for one swipe, with a defined mask."""

    values: np.ndarray
    defined: np.ndarray

    def value(self, fid: int) -> float:
        return float(self.values[fid - 1])

    def is_defined(self, fid: int) -> bool:
        return bool(self.defined[fid - 1])

    def take(self, ids) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(ids, dtype=int) - 1
        return self.values[idx], self.defined[idx]


def extract_features(swipe: Swipe, prev_end_ms: int | None = None) -> FeatureVector:
    """Compute the full feature vector for one swipe.

    prev_end_ms is the final timestamp of the previous swipe in the same
    session; the inter-stroke time (id 10) is masked without it.
    """
    values, defined = _extract_block([swipe], [prev_end_ms])
    return FeatureVector(values=values[0], defined=defined[0])


@np.errstate(divide="ignore", invalid="ignore")
def _extract_block(swipes: list[Swipe], prev_ends: list[int | None]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Feature values and defined-mask, each (k, 149), for k swipes with
    one sample count (>= 3). prev_ends holds each swipe's prev_end_ms."""
    k, n = len(swipes), swipes[0].n
    if n < 3:
        raise ValueError("features need at least 3 samples")
    t, xs, ys, pr, ar = (a.reshape(k, n) for a in gather(
        swipes, ("t_ms", "x", "y", "pressure", "area")))
    kin = compute_kinematics(t, xs, ys, pr, ar)
    vel, acc = kin.velocity, kin.acceleration
    dev, seg = kin.deviation, kin.seg_len
    pa, ph, av = kin.pairwise_angle, kin.phase_angle, kin.angular_velocity
    prd, ard, dt = kin.pressure_delta, kin.area_delta, kin.dt_ms
    dxm = np.abs(xs - xs.mean(axis=1, keepdims=True))
    dym = np.abs(ys - ys.mean(axis=1, keepdims=True))
    rows = np.arange(k)

    # Row statistics, one call per statistic and series length: n
    # samples, n - 1 segments, n - 2 turns.
    pr_mean, ar_mean, dev_mean = _per_series(np.mean, pr, ar, dev)
    pr_std, ar_std, dev_std = _per_series(np.std, pr, ar, dev)
    pr_min, ar_min = _per_series(np.min, pr, ar)
    pr_max, ar_max, dev_max, dxm_max, dym_max = _per_series(
        np.max, pr, ar, dev, dxm, dym)
    dxm_med, dym_med = _per_series(np.median, dxm, dym)
    (vel_mean, seg_mean, ph_mean, prd_mean, ard_mean, dt_mean, cos_mean,
     sin_mean) = _per_series(np.mean, vel, seg, ph, prd, ard, dt, np.cos(ph),
                             np.sin(ph))
    vel_std, seg_std, ph_std = _per_series(np.std, vel, seg, ph)
    vel_min, prd_min, ard_min, dt_min = _per_series(np.min, vel, prd, ard, dt)
    vel_max, prd_max, ard_max, dt_max = _per_series(np.max, vel, prd, ard, dt)
    seg_med, ph_med, prd_med, ard_med = _per_series(np.median, seg, ph, prd,
                                                    ard)
    acc_mean, pa_mean, av_mean, abs_pa_mean = _per_series(
        np.mean, acc, pa, av, np.abs(pa))
    acc_std, pa_std, av_std = _per_series(np.std, acc, pa, av)
    pa_med, av_med = _per_series(np.median, pa, av)

    # One percentile call per series. Ids 20, 23 and 26 are 50th
    # percentiles, which can differ from np.median in the last bit.
    vel_q = np.percentile(vel, [20, 25, 50, 75, 80], axis=1)
    acc_q = np.percentile(acc, [20, 25, 50, 75, 80], axis=1)
    dev_q = np.percentile(dev, [20, 25, 50, 75, 80], axis=1)
    pr_q = np.percentile(pr, [25, 75], axis=1)
    ar_q = np.percentile(ar, [25, 75], axis=1)
    dxm_q = np.percentile(dxm, [20, 80], axis=1)
    dym_q = np.percentile(dym, [20, 80], axis=1)

    # Lengths and directions of the start->stop chord, of the two legs
    # through the largest-deviation point (ldp, first on ties) and of the
    # mean phase vector, one math call per swipe and quantity.
    ldp = np.argmax(dev, axis=1)
    x_ldp, y_ldp = xs[rows, ldp], ys[rows, ldp]
    dx = np.array([xs[:, -1] - xs[:, 0], x_ldp - xs[:, 0], xs[:, -1] - x_ldp,
                   cos_mean])
    dy = np.array([ys[:, -1] - ys[:, 0], y_ldp - ys[:, 0], ys[:, -1] - y_ldp,
                   sin_mean])
    chord_len, start_ldp, ldp_stop = _pointwise(math.hypot, dx[:3], dy[:3])
    direct_angle, start_angle, stop_angle, mean_phase = _pointwise(
        math.atan2, dy, dx)
    chord_dx, chord_dy = dx[0], dy[0]
    has_chord = chord_len > 0
    traj_len = seg.sum(axis=1)
    has_traj = traj_len > 0
    duration_ms = t[:, -1] - t[:, 0]
    i_mid = (n - 1) // 2

    vals = np.empty((FEATURE_COUNT, k))
    mask = np.ones((FEATURE_COUNT, k), dtype=bool)

    def put(fid: int, value, defined=True) -> None:
        vals[fid - 1] = value
        mask[fid - 1] = defined

    put(1, xs[:, 0])
    put(2, ys[:, 0])
    put(3, xs[:, -1])
    put(4, ys[:, -1])
    put(5, duration_ms)
    put(6, chord_len)
    put(7, pr[:, i_mid])
    put(8, ar[:, i_mid])
    put(9, traj_len)
    # NaN, and so masked, without a previous stroke
    put(10, t[:, 0] - np.array([np.nan if p is None else p for p in prev_ends],
                               dtype=float))
    put(11, np.hypot(cos_mean, sin_mean))

    put(12, np.median(acc[:, :min(5, n) - 2], axis=1))
    put(13, np.median(vel[:, -2:], axis=1))
    put(14, vel_mean)

    put(15, _SECTORS[np.digitize(direct_angle, _SECTOR_EDGES)])
    put(16, direct_angle)
    put(17, mean_phase)
    put(18, chord_len / traj_len, defined=has_traj)

    for base, q in ((19, vel_q), (22, acc_q), (25, dev_q)):
        put(base, q[0])
        put(base + 1, q[2])
        put(base + 2, q[4])
    put(28, dev_max)

    put(29, pr[:, 0])
    put(30, ar[:, 0])
    put(31, ph[:, 0])
    put(32, ph_mean)
    put(33, abs_pa_mean)

    # Distance of each interior point to the chord of its two neighbours.
    ex, ey = xs[:, 2:] - xs[:, :-2], ys[:, 2:] - ys[:, :-2]
    px, py = xs[:, 1:-1] - xs[:, :-2], ys[:, 1:-1] - ys[:, :-2]
    nrm = _pointwise(math.hypot, ex, ey)
    cd = np.abs(ex * py - ey * px) / nrm
    flat = nrm == 0.0
    cd[flat] = _pointwise(math.hypot, px[flat], py[flat])
    put(34, cd.mean(axis=1))

    put(35, pr_mean)
    put(36, ar_mean)
    # argmax/argmin would return a NaN's index, a junk-but-finite position
    put(37, np.argmax(ar, axis=1) / (n - 1), defined=~np.isnan(ar).any(axis=1))
    put(38, np.argmin(pr, axis=1) / (n - 1), defined=~np.isnan(pr).any(axis=1))
    put(39, acc_mean)
    put(40, pr_std)
    put(41, ar_std)
    put(42, vel_std)
    put(43, acc_std)
    for fid, (q25, q75) in ((44, pr_q), (45, ar_q), (46, vel_q[[1, 3]]),
                            (47, acc_q[[1, 3]])):
        put(fid, q25)
        put(fid + 4, q75)

    e1 = np.argmax(np.hypot(xs - xs[:, :1], ys - ys[:, :1]), axis=1)
    e2 = np.argmax(np.hypot(xs - xs[:, -1:], ys - ys[:, -1:]), axis=1)
    put(52, xs[rows, e1])
    put(53, ys[rows, e1])
    put(54, xs[rows, e2])
    put(55, ys[rows, e2])
    put(56, ph[:, -1])
    put(57, vel[:, 0])
    put(58, ar[:, -1])
    put(59, pr[:, -1])
    put(60, vel[:, -1])
    put(61, ph[:, -1])
    put(62, seg_mean)
    put(63, seg_std)

    put(64, x_ldp)
    put(65, y_ldp)
    put(66, ar[rows, ldp])
    put(67, pr[rows, ldp])
    # the segment starting at the point, the final one for the last sample
    put(68, vel[rows, np.minimum(ldp, n - 2)])
    put(69, t[rows, ldp] - t[:, 0])
    put(70, start_ldp)
    put(71, start_angle)
    put(72, t[:, -1] - t[rows, ldp])
    put(73, ldp_stop)
    put(74, stop_angle)
    put(75, start_ldp / chord_len, defined=has_chord)

    put(76, chord_len)
    put(77, chord_len / traj_len, defined=has_traj)
    put(78, seg_med)
    put(79, _iqr(seg))
    put(82, dev_mean)
    put(83, dev_std)
    put(84, dev_q[3] - dev_q[1])

    put(87, pa_mean)
    put(88, pa_med)
    put(89, pa_std)
    put(90, _iqr(pa))
    put(93, ph_mean)
    put(94, ph_med)
    put(95, ph_std)
    put(96, _iqr(ph))

    put(99, chord_len / (duration_ms / 1000.0))
    put(100, vel_q[3] - vel_q[1])

    put(103, av_mean)
    put(104, av_med)
    put(105, av_std)
    put(106, _iqr(av))

    put(109, acc_q[3] - acc_q[1])
    put(112, pr_q[1] - pr_q[0])

    # Skewness at each id and excess kurtosis at the id + 1, from one call
    # per series length.
    for fids, series in (((80, 97, 101), (seg, ph, vel)),
                         ((91, 107, 110), (pa, av, acc)),
                         ((85, 113), (dev, pr))):
        skew, skew_ok, kurt, kurt_ok = skew_kurtosis(np.concatenate(series))
        for fid, sk, ku in zip(fids, skew.reshape(-1, k), kurt.reshape(-1, k)):
            put(fid, sk, skew_ok)
            put(fid + 1, ku, kurt_ok)

    put(115, pr_min)
    put(116, pr_max)
    put(117, ar_min)
    put(118, ar_max)
    put(119, vel_min)
    put(120, vel_max)

    put(121, prd_min)
    put(122, prd_max)
    put(123, prd_mean)
    put(124, prd_med)
    put(125, ard_min)
    put(126, ard_max)
    put(127, ard_mean)
    put(128, ard_med)

    vmax = np.argmax(vel, axis=1)
    vmin = np.argmin(vel, axis=1)
    put(129, xs[rows, vmax])
    put(130, ys[rows, vmax])
    put(131, xs[rows, vmin])
    put(132, ys[rows, vmin])

    # Quadratic pressure profile over normalized arc position (falls back to
    # normalized sample index when the trajectory has zero length), fitted
    # one swipe at a time.
    arc = np.zeros((k, n))
    arc[:, 1:] = np.cumsum(seg, axis=1)
    s = np.where(has_traj[:, None], arc / traj_len[:, None],
                 np.arange(n) / (n - 1))
    # s never decreases, so it has one more distinct value than steps
    fits = (np.diff(s, axis=1) != 0).sum(axis=1) >= 2
    vander = np.stack([s * s, s, np.ones_like(s)], axis=2)
    coef = np.zeros((k, 3))
    for i in np.flatnonzero(fits):
        coef[i], *_ = np.linalg.lstsq(vander[i], pr[i], rcond=None)
    for j, fid in enumerate((133, 134, 135)):
        put(fid, coef[:, j], defined=fits)

    put(136, dt_min)
    put(137, dt_max)
    put(138, dt_mean)

    put(139, dxm_max)
    put(140, dym_max)
    put(141, dxm_q[0])
    put(142, dym_q[0])
    put(143, dxm_med)
    put(144, dym_med)
    put(145, dxm_q[1])
    put(146, dym_q[1])

    put(147, chord_dx / chord_len, defined=has_chord)
    put(148, chord_dy / chord_len, defined=has_chord)
    put(149, np.abs(chord_dx) >= np.abs(chord_dy))

    mask &= np.isfinite(vals)
    vals[~mask] = 0.0
    return vals.T, mask.T


@dataclass
class FeatureTable:
    """Feature vectors for every swipe of a dataset, in deterministic order
    (users sorted, sessions chronological, swipes in stream order)."""

    dataset_name: str
    feature_ids: tuple[int, ...]
    X: np.ndarray            # (n_swipes, n_features)
    defined: np.ndarray      # same shape, bool
    user_ids: list[str]
    session_ids: list[str]
    user_sessions: dict[str, list[tuple[str, np.ndarray]]]

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def rows_of_user(self, user_id: str) -> np.ndarray:
        return np.concatenate([idx for _, idx in self.user_sessions[user_id]])

    def select(self, ids) -> "FeatureTable":
        """A table restricted to the given feature ids (columns copied)."""
        ids = resolve_feature_ids(ids)
        col = {fid: i for i, fid in enumerate(self.feature_ids)}
        try:
            take = [col[fid] for fid in ids]
        except KeyError as err:
            raise EmptyMatrix(f"feature id {err} not in table") from None
        return FeatureTable(
            dataset_name=self.dataset_name, feature_ids=ids,
            X=self.X[:, take].copy(), defined=self.defined[:, take].copy(),
            user_ids=self.user_ids, session_ids=self.session_ids,
            user_sessions=self.user_sessions)


def build_feature_table(dataset: Dataset, ids=ALL_IDS) -> FeatureTable:
    """Extract vectors for every swipe, threading inter-stroke context
    through each session. Swipes with the same sample count are extracted
    as one block, and their rows scattered back in table order."""
    ids = resolve_feature_ids(ids)
    idx = np.asarray(ids, dtype=int) - 1
    swipes: list[Swipe] = []
    prev_ends: list[int | None] = []
    user_ids: list[str] = []
    session_ids: list[str] = []
    user_sessions: dict[str, list[tuple[str, np.ndarray]]] = {}
    for user_id in dataset.user_ids():
        sessions = []
        for session in dataset.users[user_id].sessions:
            first = len(swipes)
            prev_end: int | None = None
            for swipe in session.swipes:
                swipes.append(swipe)
                prev_ends.append(prev_end)
                user_ids.append(user_id)
                session_ids.append(session.session_id)
                prev_end = swipe.end_ms
            sessions.append((session.session_id,
                             np.arange(first, len(swipes))))
        user_sessions[user_id] = sessions
    if not swipes:
        raise EmptyMatrix(f"dataset {dataset.name!r} has no swipes")
    groups: dict[int, list[int]] = {}
    for row, swipe in enumerate(swipes):
        groups.setdefault(swipe.n, []).append(row)
    X = np.empty((len(swipes), len(ids)))
    defined = np.empty(X.shape, dtype=bool)
    for rows in groups.values():
        values, ok = _extract_block([swipes[r] for r in rows],
                                    [prev_ends[r] for r in rows])
        X[rows] = values[:, idx]
        defined[rows] = ok[:, idx]
    return FeatureTable(
        dataset_name=dataset.name, feature_ids=ids, X=X, defined=defined,
        user_ids=user_ids, session_ids=session_ids,
        user_sessions=user_sessions)


def export_table_csv(table: FeatureTable) -> str:
    """CSV dump; undefined cells are left empty."""
    header = ["dataset", "user_id", "session_id", "row"] + [
        f"f{fid}" for fid in table.feature_ids]
    lines = [",".join(header)]
    # one row at a time through tolist(): Python floats repr like the
    # float64 cells, without holding the whole table as Python objects
    rows = zip(table.user_ids, table.session_ids, table.X, table.defined)
    for i, (user_id, session_id, values, defined) in enumerate(rows):
        cells = [table.dataset_name, user_id, session_id, str(i)]
        cells += [repr(v) if ok else ""
                  for v, ok in zip(values.tolist(), defined.tolist())]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def export_table_json(table: FeatureTable) -> dict:
    keys = [str(fid) for fid in table.feature_ids]
    ids = [int(fid) for fid in table.feature_ids]
    out = []
    rows = zip(table.user_ids, table.session_ids, table.X, table.defined)
    for i, (user_id, session_id, values, defined) in enumerate(rows):
        out.append({
            "user_id": user_id,
            "session_id": session_id,
            "row": i,
            "values": dict(zip(keys, values.tolist())),
            "undefined": [fid for fid, ok in zip(ids, defined.tolist())
                          if not ok],
        })
    return {"dataset": table.dataset_name,
            "feature_ids": list(table.feature_ids),
            "rows": out}
