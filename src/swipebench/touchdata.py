"""Core data model: touch events, swipes, sessions, datasets, segmentation.

Touch events are stored by column (``TouchColumns``): one array per field,
so parsing, segmentation and feature extraction each work on whole columns
instead of one object per event. ``TouchSample`` is the row type, the
validated event a column set yields row by row.

A swipe is a single-finger down -> move* -> up trace, kept as a range of
rows of a column set. Segmentation is order independent: events are
sorted by a canonical key before strokes are cut, so a shuffled copy of
the same stream yields an identical dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import NoEligibleUsers

PHASES = ("down", "move", "up")
# phase codes, indices into PHASES: also the phase's rank in the sort key
DOWN, MOVE, UP = range(len(PHASES))
PHASE_CODES = {p: i for i, p in enumerate(PHASES)}

# A stroke shorter than this in samples or in time is a tap.
MIN_SAMPLES = 4
MIN_DURATION_MS = 30

# Enrollment: sessions a user needs on one device, and the channels every
# kept sample must report.
MIN_SESSIONS = 2
CHANNELS = ("pressure", "area")

# Timestamps lie below this in magnitude (ms): float64 holds every integer
# below it exactly, and a parsed number at or beyond it never rounds below.
MS_LIMIT = 2 ** 53


@dataclass(frozen=True, slots=True)
class TouchSample:
    """One touch event.

    t is in milliseconds, below 2**53. pressure/area may be NaN when the
    capture device did not report that channel; coordinates and time must
    be finite.
    """

    dataset: str
    user_id: str
    session_id: str
    device_model: str
    t: int
    phase: str
    x: float
    y: float
    pressure: float
    area: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", int(self.t))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "pressure", float(self.pressure))
        object.__setattr__(self, "area", float(self.area))
        if self.t < 0:
            raise ValueError(f"negative timestamp {self.t}")
        if self.t >= MS_LIMIT:
            raise ValueError(
                f"timestamp {self.t} is out of range: t >= 2**53 ms")
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite coordinates")
        for name in CHANNELS:
            v = getattr(self, name)
            if not math.isnan(v) and not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be >= 0 or NaN, got {v}")


def _channel_values(a: np.ndarray) -> list[float]:
    # a missing channel reads as math.nan, the object the parsers gave
    return [v if v == v else math.nan for v in a.tolist()]


@dataclass(frozen=True, eq=False)
class TouchColumns:
    """Touch events as one read-only array per field; row i is one event.

    The string fields are object arrays, t holds integer milliseconds and
    phase holds codes into PHASES. Every row satisfies the TouchSample
    invariants: whatever makes a column set (the parsers, the generator,
    ``of``) checks them or starts from rows that did.
    """

    dataset: np.ndarray
    user_id: np.ndarray
    session_id: np.ndarray
    device_model: np.ndarray
    t: np.ndarray
    phase: np.ndarray
    x: np.ndarray
    y: np.ndarray
    pressure: np.ndarray
    area: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @classmethod
    def of(cls, records) -> "TouchColumns":
        """records as columns: a TouchColumns as it is, a sequence of
        TouchSample converted once."""
        if isinstance(records, cls):
            return records

        def column(name: str, dtype) -> np.ndarray:
            return np.array([getattr(s, name) for s in records], dtype=dtype)

        return cls(
            **{f: column(f, object) for f in ("dataset", "user_id",
                                              "session_id", "device_model")},
            t=column("t", np.int64),
            phase=np.array([PHASE_CODES[s.phase] for s in records],
                           dtype=np.int8),
            **{f: column(f, float) for f in ("x", "y", "pressure", "area")})

    def __len__(self) -> int:
        return len(self.t)

    @cached_property
    def samples(self) -> tuple[TouchSample, ...]:
        """Every row as a TouchSample, built on first use."""
        return tuple(map(
            TouchSample, self.dataset.tolist(), self.user_id.tolist(),
            self.session_id.tolist(), self.device_model.tolist(),
            self.t.tolist(), [PHASES[c] for c in self.phase.tolist()],
            self.x.tolist(), self.y.tolist(), _channel_values(self.pressure),
            _channel_values(self.area)))

    def take(self, index: np.ndarray) -> "TouchColumns":
        """The rows at index, as a new column set."""
        return TouchColumns(**{f.name: getattr(self, f.name)[index]
                               for f in fields(self)})

    @cached_property
    def t_ms(self) -> np.ndarray:
        """t as float64, exactly: |t| < 2**53."""
        out = self.t.astype(float)
        out.flags.writeable = False
        return out


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenated aranges start..stop of each pair."""
    lengths = stops - starts
    return (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            + np.arange(lengths.sum()))


def gather(swipes, names) -> list[np.ndarray]:
    """Each named column (a TouchColumns field or ``t_ms``) over the
    swipes' rows, concatenated in swipe order: one fancy-index per
    column."""
    if not swipes:
        return [np.empty(0) for _ in names]
    sources = {id(s.columns): s.columns for s in swipes}
    offsets, total = {}, 0
    for key, cols in sources.items():
        offsets[key] = total
        total += len(cols)
    starts = np.array([s.start + offsets[id(s.columns)] for s in swipes])
    index = _ranges(starts, starts + np.array([s.n for s in swipes]))
    out = []
    for name in names:
        parts = [getattr(cols, name) for cols in sources.values()]
        column = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out.append(column[index])
    return out


@dataclass(eq=False)
class Swipe:
    """A validated stroke: rows start..stop of a column set, strictly
    increasing in t."""

    columns: TouchColumns
    start: int
    stop: int

    @property
    def samples(self) -> tuple[TouchSample, ...]:
        return self.columns.samples[self.start:self.stop]

    @property
    def n(self) -> int:
        return self.stop - self.start

    @property
    def user_id(self) -> str:
        return self.columns.user_id[self.start]

    @property
    def session_id(self) -> str:
        return self.columns.session_id[self.start]

    @property
    def device_model(self) -> str:
        return self.columns.device_model[self.start]

    @property
    def start_ms(self) -> int:
        return int(self.columns.t[self.start])

    @property
    def end_ms(self) -> int:
        return int(self.columns.t[self.stop - 1])

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms

    @property
    def t_ms(self) -> np.ndarray:
        return self.columns.t_ms[self.start:self.stop]

    @property
    def xs(self) -> np.ndarray:
        return self.columns.x[self.start:self.stop]

    @property
    def ys(self) -> np.ndarray:
        return self.columns.y[self.start:self.stop]

    @property
    def pressures(self) -> np.ndarray:
        return self.columns.pressure[self.start:self.stop]

    @property
    def areas(self) -> np.ndarray:
        return self.columns.area[self.start:self.stop]

    def validate(self) -> None:
        """Raise ValueError unless this swipe satisfies the type invariants."""
        if self.n < MIN_SAMPLES:
            raise ValueError(f"swipe has {self.n} samples, needs >= {MIN_SAMPLES}")
        rows = slice(self.start, self.stop)
        if (np.diff(self.columns.t[rows]) <= 0).any():
            raise ValueError("timestamps not strictly increasing")
        if self.duration_ms < MIN_DURATION_MS:
            raise ValueError(f"duration {self.duration_ms} ms < {MIN_DURATION_MS} ms")
        phases = self.columns.phase[rows]
        if phases[0] != DOWN or phases[-1] != UP:
            raise ValueError("swipe must start with down and end with up")
        if (phases[1:-1] != MOVE).any():
            raise ValueError("interior samples must be move events")
        keys = set(zip(self.columns.user_id[rows].tolist(),
                       self.columns.session_id[rows].tolist()))
        if len(keys) != 1:
            raise ValueError("samples span multiple users or sessions")


@dataclass
class SegmentationCounts:
    """Per-sample accounting for one segmentation run.

    Invariant: samples_in == samples_kept + the four discard buckets.
    """

    samples_in: int = 0
    samples_kept: int = 0
    discarded_orphan: int = 0
    discarded_unterminated: int = 0
    discarded_short: int = 0
    discarded_duplicate: int = 0
    swipes: int = 0
    taps_discarded: int = 0
    strokes_unterminated: int = 0

    def merge(self, other: "SegmentationCounts") -> None:
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def check_conservation(self) -> None:
        total = (self.samples_kept + self.discarded_orphan
                 + self.discarded_unterminated + self.discarded_short
                 + self.discarded_duplicate)
        if total != self.samples_in:
            raise AssertionError(
                f"sample conservation violated: {self.samples_in} in, {total} accounted")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _segment(cols: TouchColumns, group: np.ndarray,
             ) -> tuple[list[Swipe], np.ndarray, SegmentationCounts]:
    """Cut each group's event stream into validated swipes, all groups in
    one pass over the columns sorted by (group, t, phase rank, x, y,
    pressure, area).

    Returns the swipes (groups in code order, each group's in time order)
    over one new column set, each swipe's group, and the counts.
    """
    n = len(cols)
    counts = SegmentationCounts(samples_in=n)
    # Full-content key: ties at equal t resolve identically however the
    # input was ordered, which keeps duplicate collapse deterministic. A
    # NaN channel sorts after every number.
    order = np.lexsort((cols.area, cols.pressure, cols.y, cols.x, cols.phase,
                        cols.t, group))
    g, t, phase = group[order], cols.t[order], cols.phase[order]
    down, up = phase == DOWN, phase == UP

    # A segment starts at each down and at each group's first event. A
    # down opens a candidate run that ends at the segment's first up;
    # events before a group's first down or after that up are orphans,
    # and a run with no up before the next down is unterminated.
    head = down.copy()
    head[:1] = True
    head[1:] |= g[1:] != g[:-1]
    seg = np.cumsum(head) - 1
    first = np.flatnonzero(head)
    ups_before = np.cumsum(up) - up
    in_run = down[first][seg] & (ups_before == ups_before[first][seg])
    closed = np.zeros(len(first), dtype=bool)
    closed[seg[in_run & up]] = True
    run = in_run & closed[seg]
    counts.discarded_orphan = int(n - in_run.sum())
    counts.discarded_unterminated = int((in_run & ~run).sum())
    counts.strokes_unterminated = int((down[first] & ~closed).sum())

    # Keep the last event at each timestamp of a run.
    dup = np.zeros(n, dtype=bool)
    dup[:-1] = run[:-1] & run[1:] & (seg[:-1] == seg[1:]) & (t[:-1] == t[1:])
    counts.discarded_duplicate = int(dup.sum())
    kept = np.flatnonzero(run & ~dup)

    # Runs too short in samples or time are taps.
    run_seg = seg[kept]
    new_run = np.ones(len(kept), dtype=bool)
    new_run[1:] = run_seg[1:] != run_seg[:-1]
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, len(kept)))
    duration = t[kept[starts + lengths - 1]] - t[kept[starts]]
    tap = (lengths < MIN_SAMPLES) | (duration < MIN_DURATION_MS)
    counts.discarded_short = int(lengths[tap].sum())
    counts.taps_discarded = int(tap.sum())
    rows = order[kept[np.repeat(~tap, lengths)]]
    groups = g[kept[starts[~tap]]]
    lengths = lengths[~tap]
    counts.samples_kept = int(lengths.sum())
    counts.swipes = len(lengths)
    counts.check_conservation()

    # Duplicate collapse may have eaten the original down/up events, so the
    # boundary phases are structural, not inherited.
    stops = np.cumsum(lengths)
    starts = stops - lengths
    phase = np.full(len(rows), MOVE, dtype=np.int8)
    phase[stops - 1] = UP
    phase[starts] = DOWN
    columns = replace(cols.take(rows), phase=phase)
    swipes = [Swipe(columns, a, b)
              for a, b in zip(starts.tolist(), stops.tolist())]
    return swipes, groups, counts


@dataclass
class Session:
    session_id: str
    device_model: str
    swipes: list[Swipe]

    @property
    def start_ms(self) -> int:
        return self.swipes[0].start_ms if self.swipes else 0


@dataclass
class UserData:
    user_id: str
    sessions: list[Session]

    @property
    def n_swipes(self) -> int:
        return sum(len(s.swipes) for s in self.sessions)


@dataclass
class Dataset:
    name: str
    users: dict[str, UserData]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_swipes(self) -> int:
        return sum(u.n_swipes for u in self.users.values())

    def user_ids(self) -> list[str]:
        return sorted(self.users)


def assemble_dataset(name: str, records) -> tuple[Dataset, SegmentationCounts]:
    """Group events (TouchColumns or a sequence of TouchSample) by (user,
    session), cut each session's stream into validated swipes, and order
    sessions chronologically (first event time, ties by session id). A
    session's device is that of its first event in input order.

    Events may arrive in any order. A down opens a candidate; a down while a
    candidate is open discards the open one as unterminated. Candidates that
    end up with fewer than MIN_SAMPLES samples or shorter than
    MIN_DURATION_MS are discarded as taps. Every input sample lands either
    in a swipe or in exactly one discard bucket.
    """
    cols = TouchColumns.of(records)
    keys = list(zip(cols.user_id.tolist(), cols.session_id.tolist()))
    codes = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    group = np.fromiter(map(codes.__getitem__, keys), dtype=np.intp,
                        count=len(keys))
    _, first = np.unique(group, return_index=True)
    swipes, groups, totals = _segment(cols, group)

    by_group: dict[int, list[Swipe]] = {}
    for code, swipe in zip(groups.tolist(), swipes):
        by_group.setdefault(code, []).append(swipe)
    key_of = list(codes)
    per_user: dict[str, list[Session]] = {}
    for code, session_swipes in by_group.items():
        user_id, session_id = key_of[code]
        per_user.setdefault(user_id, []).append(
            Session(session_id=session_id,
                    device_model=cols.device_model[first[code]],
                    swipes=session_swipes))

    users: dict[str, UserData] = {}
    for user_id in sorted(per_user):
        sessions = sorted(per_user[user_id], key=lambda s: (s.start_ms, s.session_id))
        users[user_id] = UserData(user_id=user_id, sessions=sessions)
    return Dataset(name=name, users=users), totals


def _channels_complete(sessions: list[Session]) -> bool:
    swipes = [swipe for session in sessions for swipe in session.swipes]
    return not any(np.isnan(values).any() for values in gather(swipes, CHANNELS))


def filter_eligible(dataset: Dataset) -> tuple[Dataset, dict]:
    """Apply the enrollment rules.

    Per user, keep only the largest same-device group of sessions (ties break
    toward the lexicographically smallest device name); the user survives
    when that group has >= MIN_SESSIONS sessions and every kept sample
    reports every channel in CHANNELS. Raises NoEligibleUsers when nobody
    does.
    """
    kept: dict[str, UserData] = {}
    report = {"users_in": dataset.n_users, "users_kept": 0,
              "dropped_few_sessions": 0, "dropped_missing_channels": 0}
    for user_id in sorted(dataset.users):
        user = dataset.users[user_id]
        by_device: dict[str, list[Session]] = {}
        for session in user.sessions:
            by_device.setdefault(session.device_model, []).append(session)
        best_device = max(sorted(by_device), key=lambda d: len(by_device[d]))
        sessions = by_device[best_device]
        if len(sessions) < MIN_SESSIONS:
            report["dropped_few_sessions"] += 1
            continue
        if not _channels_complete(sessions):
            report["dropped_missing_channels"] += 1
            continue
        kept[user_id] = UserData(user_id=user_id, sessions=sessions)
    report["users_kept"] = len(kept)
    if not kept:
        raise NoEligibleUsers(
            f"no users in {dataset.name!r} have {MIN_SESSIONS} sessions on "
            f"one device with {' and '.join(CHANNELS)}")
    return Dataset(name=dataset.name, users=kept), report
