"""Per-swipe feature extraction and dataset-level feature tables.

Every swipe yields a 149-slot vector plus a defined-mask. Features whose
definition cannot be evaluated (no previous stroke for the inter-stroke
time, too few observations for skewness/kurtosis, zero-length denominators)
are imputed as 0 with mask false; every mask-true value is finite. Units:
coordinates px, durations ms, velocities px/s, accelerations px/s^2,
angles rad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyMatrix
from ..touchdata import Dataset, Swipe
from .catalog import ALL_IDS, FEATURE_COUNT, resolve_feature_ids
from .kinematics import KinematicSeries, compute_kinematics


def skew_kurtosis(a: np.ndarray) -> tuple[float, bool, float, bool]:
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


def _iqr(a: np.ndarray) -> float:
    q25, q75 = np.percentile(a, [25, 75])
    return float(q75 - q25)


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
    kin = compute_kinematics(swipe)
    n = swipe.n
    t = swipe.t_ms
    xs, ys = swipe.xs, swipe.ys
    pr, ar = swipe.pressures, swipe.areas
    vel, acc = kin.velocity, kin.acceleration
    dev, seg = kin.deviation, kin.seg_len
    pa, ph, av = kin.pairwise_angle, kin.phase_angle, kin.angular_velocity

    vals = np.zeros(FEATURE_COUNT)
    mask = np.ones(FEATURE_COUNT, dtype=bool)

    def put(fid: int, value, defined: bool = True) -> None:
        v = float(value)
        if not (defined and math.isfinite(v)):
            vals[fid - 1] = 0.0
            mask[fid - 1] = False
        else:
            vals[fid - 1] = v

    def put_shape(fid: int, series: np.ndarray) -> None:
        """Skewness at fid, excess kurtosis at fid + 1."""
        skew, skew_ok, kurt, kurt_ok = skew_kurtosis(series)
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
    put(79, _iqr(seg))
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
        put(base + 3, _iqr(series) if len(series) else 0.0, defined=len(series) > 0)
        put_shape(base + 4, series)

    put(99, chord_len / (duration_ms / 1000.0))
    put(100, vel_q[3] - vel_q[1])
    put_shape(101, vel)

    put(103, float(av.mean()) if len(av) else 0.0, defined=len(av) > 0)
    put(104, float(np.median(av)) if len(av) else 0.0, defined=len(av) > 0)
    put(105, float(av.std()) if len(av) else 0.0, defined=len(av) > 0)
    put(106, _iqr(av) if len(av) else 0.0, defined=len(av) > 0)
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

    return FeatureVector(values=vals, defined=mask)


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

    def labels(self) -> np.ndarray:
        return np.array(self.user_ids, dtype=object)

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
    through each session."""
    ids = resolve_feature_ids(ids)
    idx = np.asarray(ids, dtype=int) - 1
    rows, defs = [], []
    user_ids: list[str] = []
    session_ids: list[str] = []
    user_sessions: dict[str, list[tuple[str, np.ndarray]]] = {}
    row = 0
    for user_id in dataset.user_ids():
        sessions = []
        for session in dataset.users[user_id].sessions:
            first = row
            prev_end: int | None = None
            for swipe in session.swipes:
                fv = extract_features(swipe, prev_end_ms=prev_end)
                rows.append(fv.values[idx])
                defs.append(fv.defined[idx])
                user_ids.append(user_id)
                session_ids.append(session.session_id)
                prev_end = swipe.end_ms
                row += 1
            sessions.append((session.session_id, np.arange(first, row)))
        user_sessions[user_id] = sessions
    if not rows:
        raise EmptyMatrix(f"dataset {dataset.name!r} has no swipes")
    return FeatureTable(
        dataset_name=dataset.name, feature_ids=ids,
        X=np.vstack(rows), defined=np.vstack(defs),
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
