"""Per-event ingest, segmentation and canonical writer: bitwise
references for the package's columnar forms.

Ingest one event at a time: one dict and one TouchSample per line, one
Python sort per session, one formatted line per sample. The package's
columnar parsers, segmentation and writer must reproduce their records,
reports, swipes and bytes. Kept apart from oracles.py, which the
benchmark imports, so a benchmark run never compiles them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from swipebench.errors import (ConfigError, DataError, EmptyDataset,
                               MalformedRateExceeded, UnparseableHeader)
from swipebench.ingest import (REQUIRED_FIELDS, _TIME_SCALE, AdapterConfig,
                               IngestReport, rewrite_text)
from swipebench.touchdata import (MIN_DURATION_MS, MIN_SAMPLES, Dataset,
                                  SegmentationCounts, Session, TouchSample,
                                  UserData)


_PHASE_RANK = {"down": 0, "move": 1, "up": 2}
DEFAULT_MAX_MALFORMED_RATE = 0.01


def o_sample_sort_key(s: TouchSample) -> tuple:
    # Full-content key: ties at equal t resolve identically however the
    # input was ordered, which keeps duplicate collapse deterministic.
    return (s.t, _PHASE_RANK[s.phase], s.x, s.y, s.pressure, s.area)


@dataclass
class OSwipe:
    """A validated stroke. Samples are strictly increasing in t."""

    samples: tuple[TouchSample, ...]
    _arrays: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def user_id(self) -> str:
        return self.samples[0].user_id

    @property
    def session_id(self) -> str:
        return self.samples[0].session_id

    @property
    def device_model(self) -> str:
        return self.samples[0].device_model

    @property
    def start_ms(self) -> int:
        return self.samples[0].t

    @property
    def end_ms(self) -> int:
        return self.samples[-1].t

    @property
    def duration_ms(self) -> int:
        return self.samples[-1].t - self.samples[0].t

    def _array(self, name: str) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None:
            arr = np.array([getattr(s, name) for s in self.samples], dtype=float)
            self._arrays[name] = arr
        return arr

    @property
    def t_ms(self) -> np.ndarray:
        return self._array("t")

    @property
    def xs(self) -> np.ndarray:
        return self._array("x")

    @property
    def ys(self) -> np.ndarray:
        return self._array("y")

    @property
    def pressures(self) -> np.ndarray:
        return self._array("pressure")

    @property
    def areas(self) -> np.ndarray:
        return self._array("area")

    def validate(self, min_samples: int = MIN_SAMPLES,
                 min_duration_ms: int = MIN_DURATION_MS) -> None:
        """Raise ValueError unless this swipe satisfies the type invariants."""
        if self.n < min_samples:
            raise ValueError(f"swipe has {self.n} samples, needs >= {min_samples}")
        ts = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("timestamps not strictly increasing")
        if self.duration_ms < min_duration_ms:
            raise ValueError(f"duration {self.duration_ms} ms < {min_duration_ms} ms")
        phases = [s.phase for s in self.samples]
        if phases[0] != "down" or phases[-1] != "up":
            raise ValueError("swipe must start with down and end with up")
        if any(p != "move" for p in phases[1:-1]):
            raise ValueError("interior samples must be move events")
        keys = {(s.user_id, s.session_id) for s in self.samples}
        if len(keys) != 1:
            raise ValueError("samples span multiple users or sessions")


def o_collapse_duplicates(run: list[TouchSample]) -> tuple[list[TouchSample], int]:
    """Keep the last sample at each timestamp. Input must be sorted."""
    kept: list[TouchSample] = []
    dropped = 0
    for s in run:
        if kept and kept[-1].t == s.t:
            kept[-1] = s
            dropped += 1
        else:
            kept.append(s)
    return kept, dropped


def o_normalize_phases(run: list[TouchSample]) -> list[TouchSample]:
    # Duplicate collapse may have eaten the original down/up events, so the
    # boundary phases are structural, not inherited.
    out = []
    last = len(run) - 1
    for i, s in enumerate(run):
        want = "down" if i == 0 else ("up" if i == last else "move")
        out.append(s if s.phase == want else replace(s, phase=want))
    return out


def o_segment_strokes(events, min_samples: int = MIN_SAMPLES,
                    min_duration_ms: int = MIN_DURATION_MS,
                    ) -> tuple[list[OSwipe], SegmentationCounts]:
    """Cut one session's event stream into validated swipes.

    Events may arrive in any order. A down opens a candidate; a down while a
    candidate is open discards the open one as unterminated. Candidates that
    end up with fewer than min_samples samples or shorter than min_duration_ms
    are discarded as taps. Every input sample lands either in a swipe or in
    exactly one discard bucket.
    """
    counts = SegmentationCounts(samples_in=len(events))
    ordered = sorted(events, key=o_sample_sort_key)

    swipes: list[OSwipe] = []
    open_run: list[TouchSample] | None = None

    def close_unterminated(run: list[TouchSample]) -> None:
        counts.discarded_unterminated += len(run)
        counts.strokes_unterminated += 1

    def finish(run: list[TouchSample]) -> None:
        run, dropped = o_collapse_duplicates(run)
        counts.discarded_duplicate += dropped
        duration = run[-1].t - run[0].t
        if len(run) < min_samples or duration < min_duration_ms:
            counts.discarded_short += len(run)
            counts.taps_discarded += 1
            return
        swipe = OSwipe(samples=tuple(o_normalize_phases(run)))
        swipe.validate(min_samples=min_samples, min_duration_ms=min_duration_ms)
        counts.samples_kept += swipe.n
        counts.swipes += 1
        swipes.append(swipe)

    for s in ordered:
        if s.phase == "down":
            if open_run is not None:
                close_unterminated(open_run)
            open_run = [s]
        elif open_run is None:
            counts.discarded_orphan += 1
        else:
            open_run.append(s)
            if s.phase == "up":
                finish(open_run)
                open_run = None
    if open_run is not None:
        close_unterminated(open_run)

    counts.check_conservation()
    return swipes, counts


def o_assemble_dataset(name: str, records,
                     min_samples: int = MIN_SAMPLES,
                     min_duration_ms: int = MIN_DURATION_MS,
                     ) -> tuple[Dataset, SegmentationCounts]:
    """Group raw samples by (user, session), segment, and order sessions
    chronologically (first event time, ties by session id)."""
    groups: dict[tuple[str, str], list[TouchSample]] = {}
    devices: dict[tuple[str, str], str] = {}
    for rec in records:
        key = (rec.user_id, rec.session_id)
        groups.setdefault(key, []).append(rec)
        devices.setdefault(key, rec.device_model)

    totals = SegmentationCounts()
    per_user: dict[str, list[Session]] = {}
    for (user_id, session_id), events in groups.items():
        swipes, counts = o_segment_strokes(events, min_samples, min_duration_ms)
        totals.merge(counts)
        if swipes:
            per_user.setdefault(user_id, []).append(
                Session(session_id=session_id,
                        device_model=devices[(user_id, session_id)],
                        swipes=swipes))

    users: dict[str, UserData] = {}
    for user_id in sorted(per_user):
        sessions = sorted(per_user[user_id], key=lambda s: (s.start_ms, s.session_id))
        users[user_id] = UserData(user_id=user_id, sessions=sessions)
    return Dataset(name=name, users=users), totals


def o_optional_channel(raw) -> float:
    if raw is None:
        return math.nan
    if isinstance(raw, str):
        raw = raw.strip()
        if raw == "" or raw.lower() == "nan":
            return math.nan
    return float(raw)


def o_int_ms(raw) -> int:
    v = float(raw)
    if not math.isfinite(v) or v != int(v):
        raise ValueError(f"timestamp {raw!r} is not an integer millisecond count")
    return int(v)


def o_record_from_mapping(m: dict) -> TouchSample:
    return TouchSample(
        dataset=str(m["dataset"]),
        user_id=str(m["user_id"]),
        session_id=str(m["session_id"]),
        device_model=str(m["device_model"]),
        t=o_int_ms(m["t_ms"]),
        phase=str(m["phase"]).strip().lower(),
        x=float(m["x"]),
        y=float(m["y"]),
        pressure=o_optional_channel(m["pressure"]),
        area=o_optional_channel(m["area"]),
    )


def o_note(report: IngestReport, lineno: int, err: Exception) -> None:
    report.lines_malformed += 1
    if len(report.malformed_examples) < 5:
        report.malformed_examples.append(f"line {lineno}: {err}")


def o_parse_canonical(text: str, source: str = "<string>",
                    max_malformed_rate: float = DEFAULT_MAX_MALFORMED_RATE,
                    ) -> tuple[list[TouchSample], IngestReport]:
    """Parse canonical text into records, tolerating a bounded malformed rate."""
    report = IngestReport(source=source)
    stripped = text.lstrip()
    if not stripped:
        raise EmptyDataset(f"{source}: no records")
    records: list[TouchSample] = []

    if stripped[0] == "{":
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            report.lines_total += 1
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("record is not an object")
                missing = [f for f in REQUIRED_FIELDS if f not in obj]
                if missing:
                    raise ValueError(f"missing fields {missing}")
                records.append(o_record_from_mapping(obj))
            except (ValueError, TypeError, KeyError) as err:
                o_note(report, lineno, err)
    else:
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{source}: no records") from None
        cols = [h.strip() for h in header]
        missing = [f for f in REQUIRED_FIELDS if f not in cols]
        if missing:
            raise UnparseableHeader(f"{source}: header lacks columns {missing}")
        idx = {f: cols.index(f) for f in REQUIRED_FIELDS}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            report.lines_total += 1
            try:
                if len(row) < len(cols):
                    raise ValueError(f"expected {len(cols)} fields, got {len(row)}")
                records.append(o_record_from_mapping(
                    {f: row[i] for f, i in idx.items()}))
            except (ValueError, TypeError) as err:
                o_note(report, lineno, err)

    if report.lines_total == 0 or not records:
        raise EmptyDataset(f"{source}: no valid records")
    if report.malformed_rate > max_malformed_rate:
        raise MalformedRateExceeded(
            f"{source}: {report.lines_malformed}/{report.lines_total} lines malformed "
            f"({report.malformed_rate:.2%} > {max_malformed_rate:.2%})")
    return records, report


def o_format_channel(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


def o_write_canonical(dataset: Dataset, path: str | Path, fmt: str = "csv") -> None:
    """Write a dataset back out deterministically (users sorted, sessions and
    swipes in chronological order)."""
    path = Path(path)
    rows = []
    for user_id in dataset.user_ids():
        for session in dataset.users[user_id].sessions:
            for swipe in session.swipes:
                rows.extend(swipe.samples)
    if fmt == "csv":
        lines = [",".join(REQUIRED_FIELDS)]
        for s in rows:
            lines.append(",".join([
                dataset.name, s.user_id, s.session_id, s.device_model,
                str(s.t), s.phase, repr(s.x), repr(s.y),
                o_format_channel(s.pressure), o_format_channel(s.area)]))
        rewrite_text(path, "\n".join(lines) + "\n")
    elif fmt == "jsonl":
        lines = []
        for s in rows:
            obj = {"dataset": dataset.name, "user_id": s.user_id,
                   "session_id": s.session_id, "device_model": s.device_model,
                   "t_ms": s.t, "phase": s.phase, "x": s.x, "y": s.y,
                   "pressure": None if math.isnan(s.pressure) else s.pressure,
                   "area": None if math.isnan(s.area) else s.area}
            lines.append(json.dumps(obj))
        rewrite_text(path, "\n".join(lines) + "\n")
    else:
        raise ConfigError(f"unknown canonical format {fmt!r}")


def o_convert_raw(raw_path: str | Path, adapter: AdapterConfig,
                max_malformed_rate: float = DEFAULT_MAX_MALFORMED_RATE,
                ) -> tuple[list[TouchSample], IngestReport]:
    """Apply an adapter to a raw CSV export, yielding canonical records."""
    raw_path = Path(raw_path)
    report = IngestReport(source=str(raw_path))
    records: list[TouchSample] = []
    try:
        fh = raw_path.open(newline="")
    except OSError as err:
        raise DataError(f"cannot read {raw_path}: {err}") from None
    with fh:
        reader = csv.reader(fh, delimiter=adapter.delimiter)
        if adapter.has_header:
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise EmptyDataset(f"{raw_path}: empty file") from None
            index: dict[str, int] = {}
            for fld, col in adapter.columns.items():
                if col not in header:
                    raise UnparseableHeader(
                        f"{raw_path}: column {col!r} (for {fld}) not in header")
                index[fld] = header.index(col)
            start = 2
        else:
            try:
                index = {fld: int(col) for fld, col in adapter.columns.items()}
            except ValueError as err:
                raise ConfigError(f"headerless adapter needs integer columns: {err}")
            start = 1
        scale = _TIME_SCALE[adapter.t_unit]
        for lineno, row in enumerate(reader, start=start):
            if not row or all(not c.strip() for c in row):
                continue
            report.lines_total += 1
            try:
                def cell(fld: str) -> str:
                    return row[index[fld]].strip()

                raw_phase = cell("phase")
                phase = adapter.phase_map.get(raw_phase, raw_phase.lower())
                device = (adapter.device_constant
                          if "device_model" not in index else cell("device_model"))
                records.append(TouchSample(
                    dataset=adapter.dataset,
                    user_id=cell("user_id"),
                    session_id=cell("session_id"),
                    device_model=device if device is not None else "unknown",
                    t=int(round(float(cell("t")) * scale)),
                    phase=phase,
                    x=float(cell("x")),
                    y=float(cell("y")),
                    pressure=o_optional_channel(cell("pressure"))
                    if "pressure" in index else math.nan,
                    area=o_optional_channel(cell("area"))
                    if "area" in index else math.nan,
                ))
            except (ValueError, IndexError, KeyError) as err:
                o_note(report, lineno, err)
    if not records:
        raise EmptyDataset(f"{raw_path}: no valid records")
    if report.malformed_rate > max_malformed_rate:
        raise MalformedRateExceeded(
            f"{raw_path}: {report.lines_malformed}/{report.lines_total} rows malformed")
    return records, report
