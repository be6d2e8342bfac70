"""Feature extraction for blocks of equal-length swipes, and dataset-level
feature tables.

Every swipe yields a 149-slot vector plus a defined-mask. Features whose
definition cannot be evaluated (no previous stroke for the inter-stroke
time, too few observations for skewness/kurtosis, zero-length denominators)
are imputed as 0 with mask false; every mask-true value is finite. Units:
coordinates px, durations ms, velocities px/s, accelerations px/s^2,
angles rad.

The 100 ids that are a plain statistic of one derived series (a mean, a
percentile, a skewness, ...) are declared in ``STATISTICS`` and computed by
one loop; the other 49 are written out in ``_extract_block``.

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
from ..ingest import _csv_cells
from ..touchdata import Dataset, Swipe, gather
from .catalog import ALL_IDS, FEATURE_COUNT, resolve_feature_ids


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


# The plain statistics of the derived series of ``_series``: series ->
# statistic -> feature id, or a tuple of ids for a slot the catalog lists
# twice. pNN is the NN-th percentile and iqr is p75 - p25; median is
# np.median, which can differ from p50 in the last bit. skew and kurt come
# as a pair.
STATISTICS: dict[str, dict[str, int | tuple[int, ...]]] = {
    "vel": {"first": 57, "last": 60, "mean": 14, "std": 42, "min": 119,
            "max": 120, "p20": 19, "p25": 46, "p50": 20, "p75": 50, "p80": 21,
            "iqr": 100, "skew": 101, "kurt": 102},
    "acc": {"mean": 39, "std": 43, "p20": 22, "p25": 47, "p50": 23, "p75": 51,
            "p80": 24, "iqr": 109, "skew": 110, "kurt": 111},
    "dev": {"mean": 82, "std": 83, "max": 28, "p20": 25, "p50": 26, "p80": 27,
            "iqr": 84, "skew": 85, "kurt": 86},
    "pr": {"first": 29, "last": 59, "mean": 35, "std": 40, "min": 115,
           "max": 116, "p25": 44, "p75": 48, "iqr": 112, "skew": 113,
           "kurt": 114},
    "ar": {"first": 30, "last": 58, "mean": 36, "std": 41, "min": 117,
           "max": 118, "p25": 45, "p75": 49},
    "seg": {"mean": 62, "std": 63, "median": 78, "iqr": 79, "skew": 80,
            "kurt": 81},
    "pa": {"mean": 87, "median": 88, "std": 89, "iqr": 90, "skew": 91,
           "kurt": 92},
    "abs_pa": {"mean": 33},
    "ph": {"first": 31, "last": (56, 61), "mean": (32, 93), "median": 94,
           "std": 95, "iqr": 96, "skew": 97, "kurt": 98},
    "av": {"mean": 103, "median": 104, "std": 105, "iqr": 106, "skew": 107,
           "kurt": 108},
    "prd": {"min": 121, "max": 122, "mean": 123, "median": 124},
    "ard": {"min": 125, "max": 126, "mean": 127, "median": 128},
    "dt": {"min": 136, "max": 137, "mean": 138},
    "dxm": {"max": 139, "p20": 141, "median": 143, "p80": 145},
    "dym": {"max": 140, "p20": 142, "median": 144, "p80": 146},
}


def _series(t: np.ndarray, xs: np.ndarray, ys: np.ndarray, pr: np.ndarray,
            ar: np.ndarray) -> dict[str, np.ndarray]:
    """The derived series of (k, n) sample blocks, one row per swipe, keyed
    as STATISTICS reads them.

    Of n samples: pr, ar (pressure, area), dev (absolute perpendicular
    distance from the start->stop chord; plain distance to the start point
    when the chord is degenerate), dxm, dym (distances to the mean x, y).
    Of n - 1 forward differences: dt (ms), seg (displacement lengths), vel
    (px/s), ph (phase angle atan2(dy, dx) in screen coordinates, y down,
    range (-pi, pi]), prd, ard (pressure and area steps). Of n - 2 turns:
    acc (velocity steps over the spacing of segment midpoints, px/s^2), pa
    (signed turn atan2(cross, dot) between consecutive displacements),
    abs_pa, av (turn angle over the midpoint spacing, rad/s).
    """
    dt = np.diff(t, axis=1)
    dx, dy = np.diff(xs, axis=1), np.diff(ys, axis=1)
    seg = np.hypot(dx, dy)
    vel = seg / (dt / 1000.0)
    # Midpoint spacing: velocity i lives at (t_i + t_{i+1}) / 2.
    mid_dt_s = (t[:, 2:] - t[:, :-2]) / 2000.0
    acc = np.diff(vel, axis=1) / mid_dt_s
    pa = np.arctan2(dx[:, :-1] * dy[:, 1:] - dy[:, :-1] * dx[:, 1:],
                    dx[:, :-1] * dx[:, 1:] + dy[:, :-1] * dy[:, 1:])
    ax, ay = xs[:, :1], ys[:, :1]
    cx, cy = xs[:, -1:] - ax, ys[:, -1:] - ay
    norm = np.hypot(cx, cy)
    dev = np.where(norm == 0.0, np.hypot(xs - ax, ys - ay),
                   np.abs(cx * (ys - ay) - cy * (xs - ax)) / norm)
    return {
        "vel": vel, "acc": acc, "dev": dev, "pr": pr, "ar": ar, "seg": seg,
        "pa": pa, "abs_pa": np.abs(pa), "ph": np.arctan2(dy, dx),
        "av": pa / mid_dt_s, "prd": np.diff(pr, axis=1),
        "ard": np.diff(ar, axis=1), "dt": dt,
        "dxm": np.abs(xs - xs.mean(axis=1, keepdims=True)),
        "dym": np.abs(ys - ys.mean(axis=1, keepdims=True))}


_REDUCERS = {"mean": np.mean, "std": np.std, "min": np.min, "max": np.max,
             "median": np.median}


def _quantiles(stat: str) -> tuple[int, ...]:
    if stat == "iqr":
        return 25, 75
    return (int(stat[1:]),) if stat[0] == "p" else ()


def _statistics(series: dict[str, np.ndarray], put) -> None:
    """put every statistic of STATISTICS for the (k, m) series blocks.

    A reducer, and skew_kurtosis, run once per series length on the
    equal-length series stacked into one block, each row reduced exactly
    as on its own; np.percentile runs once per series, over the union of
    its quantiles."""
    stacks: dict[tuple[str, int], list[str]] = {}
    for name, stats in STATISTICS.items():
        a = series[name]
        qs = sorted({q for stat in stats for q in _quantiles(stat)})
        at = dict(zip(qs, np.percentile(a, qs, axis=1))) if qs else {}
        for stat, fids in stats.items():
            if stat in ("first", "last"):
                put(fids, a[:, 0 if stat == "first" else -1])
            elif stat == "iqr":
                put(fids, at[75] - at[25])
            elif stat[0] == "p":
                put(fids, at[int(stat[1:])])
            elif stat != "kurt":
                stacks.setdefault((stat, a.shape[1]), []).append(name)
    for (stat, _), names in stacks.items():
        block = np.concatenate([series[name] for name in names])
        if stat == "skew":
            skew, skew_ok, kurt, kurt_ok = skew_kurtosis(block)
            rows = (("skew", skew, skew_ok), ("kurt", kurt, kurt_ok))
        else:
            rows = ((stat, _REDUCERS[stat](block, axis=1), True),)
        for key, value, defined in rows:
            for name, row in zip(names, value.reshape(len(names), -1)):
                put(STATISTICS[name][key], row, defined)


@dataclass
class FeatureVector:
    """All 149 feature values for one swipe, with a defined mask."""

    values: np.ndarray
    defined: np.ndarray

    def value(self, fid: int) -> float:
        return float(self.values[fid - 1])

    def is_defined(self, fid: int) -> bool:
        return bool(self.defined[fid - 1])


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
    series = _series(t, xs, ys, pr, ar)
    vel, dev, seg, ph = (series[name] for name in ("vel", "dev", "seg", "ph"))
    rows = np.arange(k)

    vals = np.empty((FEATURE_COUNT, k))
    mask = np.ones((FEATURE_COUNT, k), dtype=bool)

    def put(fids, value, defined=True) -> None:
        """Write one feature, or the same value to a tuple of ids."""
        for fid in (fids,) if isinstance(fids, int) else fids:
            vals[fid - 1] = value
            mask[fid - 1] = defined

    _statistics(series, put)

    # Lengths and directions of the start->stop chord, of the two legs
    # through the largest-deviation point (ldp, first on ties) and of the
    # mean phase vector, one math call per swipe and quantity.
    ldp = np.argmax(dev, axis=1)
    x_ldp, y_ldp = xs[rows, ldp], ys[rows, ldp]
    cos_mean = np.mean(np.cos(ph), axis=1)
    sin_mean = np.mean(np.sin(ph), axis=1)
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

    put(1, xs[:, 0])
    put(2, ys[:, 0])
    put(3, xs[:, -1])
    put(4, ys[:, -1])
    put(5, duration_ms)
    put((6, 76), chord_len)
    put(7, pr[:, i_mid])
    put(8, ar[:, i_mid])
    put(9, traj_len)
    # NaN, and so masked, without a previous stroke
    put(10, t[:, 0] - np.array([np.nan if p is None else p for p in prev_ends],
                               dtype=float))
    put(11, np.hypot(cos_mean, sin_mean))
    put(12, np.median(series["acc"][:, :min(5, n) - 2], axis=1))
    put(13, np.median(vel[:, -2:], axis=1))
    put(15, _SECTORS[np.digitize(direct_angle, _SECTOR_EDGES)])
    put(16, direct_angle)
    put(17, mean_phase)
    put((18, 77), chord_len / traj_len, defined=has_traj)

    # Distance of each interior point to the chord of its two neighbours.
    ex, ey = xs[:, 2:] - xs[:, :-2], ys[:, 2:] - ys[:, :-2]
    px, py = xs[:, 1:-1] - xs[:, :-2], ys[:, 1:-1] - ys[:, :-2]
    nrm = _pointwise(math.hypot, ex, ey)
    cd = np.abs(ex * py - ey * px) / nrm
    flat = nrm == 0.0
    cd[flat] = _pointwise(math.hypot, px[flat], py[flat])
    put(34, cd.mean(axis=1))

    # argmax/argmin would return a NaN's index, a junk-but-finite position
    put(37, np.argmax(ar, axis=1) / (n - 1), defined=~np.isnan(ar).any(axis=1))
    put(38, np.argmin(pr, axis=1) / (n - 1), defined=~np.isnan(pr).any(axis=1))

    e1 = np.argmax(np.hypot(xs - xs[:, :1], ys - ys[:, :1]), axis=1)
    e2 = np.argmax(np.hypot(xs - xs[:, -1:], ys - ys[:, -1:]), axis=1)
    put(52, xs[rows, e1])
    put(53, ys[rows, e1])
    put(54, xs[rows, e2])
    put(55, ys[rows, e2])

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
    put(99, chord_len / (duration_ms / 1000.0))

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

    def select(self, ids) -> "FeatureTable":
        """A table restricted to the given feature ids. ``np.take`` copies
        the columns once into new C-ordered arrays; ``X[:, take]`` would
        give Fortran order, and another summation order downstream."""
        ids = resolve_feature_ids(ids)
        col = {fid: i for i, fid in enumerate(self.feature_ids)}
        try:
            take = [col[fid] for fid in ids]
        except KeyError as err:
            raise EmptyMatrix(f"feature id {err} not in table") from None
        return FeatureTable(
            dataset_name=self.dataset_name, feature_ids=ids,
            X=np.take(self.X, take, axis=1),
            defined=np.take(self.defined, take, axis=1),
            user_ids=self.user_ids, session_ids=self.session_ids,
            user_sessions=self.user_sessions)


def build_feature_table(dataset: Dataset) -> FeatureTable:
    """Extract all 149 features of every swipe, threading inter-stroke
    context through each session; ``select`` narrows the table. Swipes
    with the same sample count are extracted as one block, and their rows
    scattered back in table order."""
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
    X = np.empty((len(swipes), FEATURE_COUNT))
    defined = np.empty(X.shape, dtype=bool)
    for rows in groups.values():
        X[rows], defined[rows] = _extract_block(
            [swipes[r] for r in rows], [prev_ends[r] for r in rows])
    return FeatureTable(
        dataset_name=dataset.name, feature_ids=ALL_IDS, X=X, defined=defined,
        user_ids=user_ids, session_ids=session_ids,
        user_sessions=user_sessions)


def export_table_csv(table: FeatureTable) -> str:
    """CSV dump; undefined cells are left empty and text cells are quoted
    as ``ingest._csv_cells`` does."""
    header = ["dataset", "user_id", "session_id", "row"] + [
        f"f{fid}" for fid in table.feature_ids]
    lines = [",".join(header)]
    blanks: dict[int, list[int]] = {}       # row -> its undefined cells
    for i, j in zip(*(a.tolist() for a in np.nonzero(~table.defined))):
        blanks.setdefault(i, []).append(4 + j)
    # one row at a time through tolist(): Python floats repr like the
    # float64 cells, without holding the whole table as Python objects
    dataset_name, = _csv_cells([table.dataset_name])
    rows = zip(_csv_cells(table.user_ids), _csv_cells(table.session_ids),
               table.X)
    for i, (user_id, session_id, values) in enumerate(rows):
        cells = [dataset_name, user_id, session_id, str(i),
                 *map(repr, values.tolist())]
        for j in blanks.get(i, ()):
            cells[j] = ""
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
