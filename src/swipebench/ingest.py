"""Reading and writing the canonical touch-event format.

Canonical data is line-delimited: either CSV with a header or one JSON
object per line (sniffed from the first non-blank character). Required
fields: dataset, user_id, session_id, device_model, t_ms, phase, x, y,
pressure, area. pressure/area may be empty/null for datasets that lack the
channel. Raw vendor exports are converted through small key=value adapter
configs that map columns and phase codes onto this schema.

Every parser reads its lines into one list of cells per field and converts
and checks each field as a whole column, into a TouchColumns of the valid
lines. A line fails on the first fault in field order, and its report
example names that fault.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, EmptyDataset,
                     MalformedRateExceeded, UnparseableHeader)
from .touchdata import (MS_LIMIT, PHASE_CODES, PHASES, Dataset,
                        SegmentationCounts, TouchColumns, assemble_dataset,
                        gather)

REQUIRED_FIELDS = ("dataset", "user_id", "session_id", "device_model",
                   "t_ms", "phase", "x", "y", "pressure", "area")
_REQUIRED = frozenset(REQUIRED_FIELDS)

DEFAULT_MAX_MALFORMED_RATE = 0.01

_CONVERSION_ERRORS = (ValueError, TypeError, OverflowError)


def _read_text(path: Path) -> str:
    """The file's text, without a UTF-8 byte-order mark and with its line
    ends as they are, so a quoted CSV cell keeps a CR."""
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise DataError(f"cannot read {path}: not UTF-8 text "
                        f"({err.reason} at byte {err.start})") from None


def _csv_rows(reader, source):
    """The rows of a ``csv.reader``; a field over the csv module's size
    limit, or a file that is not UTF-8 and is decoded as it is read,
    raises DataError naming the source."""
    try:
        yield from reader
    except csv.Error as err:
        raise DataError(f"{source}:{reader.line_num}: {err}") from None
    except UnicodeDecodeError as err:
        raise DataError(f"cannot read {source}: not UTF-8 text "
                        f"({err.reason})") from None


@dataclass
class IngestReport:
    source: str
    lines_total: int = 0
    lines_malformed: int = 0
    malformed_examples: list[str] = field(default_factory=list)
    segmentation: SegmentationCounts = field(default_factory=SegmentationCounts)

    @property
    def malformed_rate(self) -> float:
        return self.lines_malformed / self.lines_total if self.lines_total else 0.0

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "lines_total": self.lines_total,
            "lines_malformed": self.lines_malformed,
            "malformed_rate": self.malformed_rate,
            "malformed_examples": self.malformed_examples,
            "segmentation": self.segmentation.as_dict(),
        }


def _optional_channel(raw) -> float:
    if raw is None:
        return math.nan
    if isinstance(raw, str):
        raw = raw.strip()
        if raw == "" or raw.lower() == "nan":
            return math.nan
    return float(raw)


class _Lines:
    """The non-blank lines of one parse and the first fault of each.

    ``linenos`` numbers the rows that reach the column stage; a fault is
    kept per line number, and a later fault of the same line is ignored,
    so checking field after field keeps each line's first fault."""

    def __init__(self) -> None:
        self.total = 0
        self.linenos: list[int] = []
        self.faults: dict[int, str] = {}

    def reject(self, lineno: int, err) -> None:
        self.faults.setdefault(lineno, str(err))

    def check(self, bad: np.ndarray, message) -> None:
        """Reject the row of every true entry of bad, with message(row),
        unless its line has a fault already."""
        for i in np.flatnonzero(bad).tolist():
            if self.linenos[i] not in self.faults:
                self.faults[self.linenos[i]] = message(i)

    def floats(self, name: str, values, convert=float) -> np.ndarray:
        """convert over a column of cells, as float64. A cell it rejects,
        or a JSON true/false, becomes NaN and rejects its line. convert
        must agree with float on every cell float takes."""
        try:
            out = np.fromiter(map(float, values), dtype=float,
                              count=len(values))
        except _CONVERSION_ERRORS:
            out = np.empty(len(values))
            for i, v in enumerate(values):
                try:
                    out[i] = convert(v)
                except _CONVERSION_ERRORS as err:
                    out[i] = math.nan
                    self.reject(self.linenos[i], err)
        if bool in set(map(type, values)):
            is_bool = np.fromiter((type(v) is bool for v in values),
                                  dtype=bool, count=len(values))
            out[is_bool] = math.nan
            self.check(is_bool, lambda i: f"{name} must be a number, got "
                                          f"{json.dumps(values[i])}")
        return out

    def check_range(self, t: np.ndarray, raw) -> None:
        """Reject timestamps of 2**53 ms or more in magnitude."""
        self.check(np.abs(t) >= MS_LIMIT, lambda i: (
            f"timestamp {raw[i]!r} is out of range: |t| >= 2**53 ms"))

    def report(self, source: str, records: TouchColumns) -> IngestReport:
        """The parse's report; EmptyDataset when no line was valid."""
        if self.total == 0 or not len(records):
            raise EmptyDataset(f"{source}: no valid records")
        first = sorted(self.faults)[:5]
        return IngestReport(
            source=source, lines_total=self.total,
            lines_malformed=len(self.faults),
            malformed_examples=[f"line {n}: {self.faults[n]}" for n in first])

    def columns(self, dataset, user_id, session_id, device_model,
                t: np.ndarray, phase: list[str], x: np.ndarray, y: np.ndarray,
                pressure: np.ndarray, area: np.ndarray) -> TouchColumns:
        """The rows without a fault, after the TouchSample checks, as
        columns. t holds whole milliseconds below 2**53."""
        code_of = {p: PHASE_CODES.get(p, -1) for p in set(phase)}
        codes = np.fromiter(map(code_of.__getitem__, phase), dtype=np.int8,
                            count=len(phase))
        self.check(t < 0, lambda i: f"negative timestamp {int(t[i])}")
        self.check(codes < 0, lambda i: f"unknown phase {phase[i]!r}")
        self.check(~(np.isfinite(x) & np.isfinite(y)),
                   lambda i: "non-finite coordinates")
        for name, v in (("pressure", pressure), ("area", area)):
            self.check(~np.isnan(v) & ~(np.isfinite(v) & (v >= 0.0)),
                       lambda i: f"{name} must be >= 0 or NaN, "
                                 f"got {float(v[i])}")
        faults = self.faults
        ok = np.fromiter((n not in faults for n in self.linenos), dtype=bool,
                         count=len(self.linenos))

        def strings(values) -> np.ndarray:
            return np.array(values, dtype=object)[ok]

        return TouchColumns(
            dataset=strings(dataset), user_id=strings(user_id),
            session_id=strings(session_id),
            device_model=strings(device_model),
            t=t[ok].astype(np.int64), phase=codes[ok],
            x=x[ok], y=y[ok], pressure=pressure[ok], area=area[ok])


def _canonical_columns(lines: _Lines, cells: dict) -> TouchColumns:
    """The canonical fields' cells, one sequence per field, as columns:
    text fields through str, t_ms as whole milliseconds, phase stripped
    and lower-cased, empty/null/nan channels as NaN."""
    raw_t = cells["t_ms"]
    t = lines.floats("t_ms", raw_t)
    lines.check(~np.isfinite(t) | (t != np.trunc(t)), lambda i: (
        f"timestamp {raw_t[i]!r} is not an integer millisecond count"))
    lines.check_range(t, raw_t)
    phase = [str(p).strip().lower() for p in cells["phase"]]
    x = lines.floats("x", cells["x"])
    y = lines.floats("y", cells["y"])
    pressure = lines.floats("pressure", cells["pressure"], _optional_channel)
    area = lines.floats("area", cells["area"], _optional_channel)
    text = {f: list(map(str, cells[f]))
            for f in ("dataset", "user_id", "session_id", "device_model")}
    return lines.columns(t=t, phase=phase, x=x, y=y, pressure=pressure,
                         area=area, **text)


_SCAN = json.JSONDecoder().scan_once


def _decode(line: str):
    """json.loads(line), by one scanner call when the line is a single
    value with no surrounding space."""
    try:
        obj, end = _SCAN(line, 0)
        if end == len(line):
            return obj
    except StopIteration:
        pass
    return json.loads(line)


def parse_canonical(text: str, source: str = "<string>",
                    max_malformed_rate: float = DEFAULT_MAX_MALFORMED_RATE,
                    ) -> tuple[TouchColumns, IngestReport]:
    """Parse canonical text into columns, tolerating a bounded malformed
    rate."""
    stripped = text.lstrip()
    if not stripped:
        raise EmptyDataset(f"{source}: no records")
    lines = _Lines()

    rows = []          # the required fields' cells of each valid line
    if stripped[0] == "{":
        pick = itemgetter(*REQUIRED_FIELDS)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            lines.total += 1
            try:
                obj = _decode(line)
                if not isinstance(obj, dict):
                    raise ValueError("record is not an object")
                if not obj.keys() >= _REQUIRED:
                    missing = [f for f in REQUIRED_FIELDS if f not in obj]
                    raise ValueError(f"missing fields {missing}")
            except ValueError as err:
                lines.reject(lineno, err)
                continue
            lines.linenos.append(lineno)
            rows.append(pick(obj))
    else:
        reader = _csv_rows(csv.reader(io.StringIO(text, newline="")),
                           source)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{source}: no records") from None
        cols = [h.strip() for h in header]
        missing = [f for f in REQUIRED_FIELDS if f not in cols]
        if missing:
            raise UnparseableHeader(f"{source}: header lacks columns {missing}")
        pick = itemgetter(*[cols.index(f) for f in REQUIRED_FIELDS])
        for lineno, row in enumerate(reader, start=2):
            if not row or not (row[0].strip() or any(c.strip() for c in row)):
                continue
            lines.total += 1
            if len(row) < len(cols):
                lines.reject(lineno,
                             f"expected {len(cols)} fields, got {len(row)}")
                continue
            lines.linenos.append(lineno)
            rows.append(pick(row))

    cells = dict(zip(REQUIRED_FIELDS, zip(*rows))) if rows \
        else {f: () for f in REQUIRED_FIELDS}
    records = _canonical_columns(lines, cells)
    report = lines.report(source, records)
    if report.malformed_rate > max_malformed_rate:
        raise MalformedRateExceeded(
            f"{source}: {report.lines_malformed}/{report.lines_total} lines "
            f"malformed ({report.malformed_rate:.2%} > "
            f"{max_malformed_rate:.2%})")
    return records, report


def load_canonical(path: str | Path, name: str | None = None,
                   max_malformed_rate: float = DEFAULT_MAX_MALFORMED_RATE,
                   ) -> tuple[Dataset, IngestReport]:
    """Parse a canonical file and assemble it into a segmented Dataset."""
    path = Path(path)
    records, report = parse_canonical(_read_text(path), source=str(path),
                                      max_malformed_rate=max_malformed_rate)
    if name is None:
        name = records.dataset[0]
    dataset, seg = assemble_dataset(name, records)
    report.segmentation = seg
    return dataset, report


def rewrite_text(path: str | Path, text: str) -> None:
    """Write text to path, overwriting an existing file in place and then
    cutting its old tail, so the bytes equal a fresh write. Truncating an
    allocated file to zero first can block for tens of milliseconds on a
    filesystem mounted with discard."""
    path = Path(path)
    try:
        with open(path, "r+b" if path.exists() else "wb") as f:
            f.write(text.encode())
            f.truncate()
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from None


_JSON_ROW = ('{"dataset": %s, "user_id": %s, "session_id": %s, '
             '"device_model": %s, "t_ms": %d, "phase": %s, "x": %r, "y": %r, '
             '"pressure": %s, "area": %s}')


def _json_strings(values: list) -> list[str]:
    # json.dumps's text for each string, encoded once per distinct value
    enc = {v: json.dumps(v) for v in set(values)}
    return [enc[v] for v in values]


def _csv_cells(values: list[str]) -> list[str]:
    """Each text cell as csv.QUOTE_MINIMAL writes it: quoted, with its
    quotes doubled, when it holds a comma, a quote, CR or LF; worked out
    once per distinct value."""
    def cell(v: str) -> str:
        if any(c in v for c in ',"\r\n'):
            return '"' + v.replace('"', '""') + '"'
        return v
    enc = {v: cell(v) for v in set(values)}
    return [enc[v] for v in values]


def _channel_cells(values: list[float], missing: str) -> list[str]:
    return [missing if v != v else repr(v) for v in values]


def write_canonical(dataset: Dataset, path: str | Path, fmt: str = "csv") -> None:
    """Write a dataset back out deterministically (users sorted, sessions and
    swipes in chronological order), column by column. A line's bytes are
    what ``json.dumps`` of its record, or the CSV cells with Python's float
    repr, an empty cell for NaN and text quoted as ``_csv_cells`` does,
    give."""
    path = Path(path)
    swipes = [swipe for user_id in dataset.user_ids()
              for session in dataset.users[user_id].sessions
              for swipe in session.swipes]
    cols = gather(swipes, ("user_id", "session_id", "device_model", "t",
                           "phase", "x", "y", "pressure", "area"))
    user, session, device, t, phase, x, y, pressure, area = [
        c.tolist() for c in cols]
    phase = [PHASES[c] for c in phase]
    if fmt == "csv":
        rows = zip(repeat(*_csv_cells([dataset.name])), _csv_cells(user),
                   _csv_cells(session), _csv_cells(device), map(str, t),
                   phase, map(repr, x), map(repr, y),
                   _channel_cells(pressure, ""), _channel_cells(area, ""))
        lines = [",".join(REQUIRED_FIELDS), *map(",".join, rows)]
    elif fmt == "jsonl":
        rows = zip(repeat(json.dumps(dataset.name)), _json_strings(user),
                   _json_strings(session), _json_strings(device), t,
                   _json_strings(phase), x, y,
                   _channel_cells(pressure, "null"),
                   _channel_cells(area, "null"))
        lines = [_JSON_ROW % row for row in rows]
    else:
        raise ConfigError(f"unknown canonical format {fmt!r}")
    rewrite_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Adapters for raw vendor exports.

_TIME_SCALE = {"ms": 1.0, "s": 1000.0, "us": 1e-3, "ns": 1e-6}


@dataclass
class AdapterConfig:
    """Column mapping from one raw CSV layout onto the canonical schema."""

    dataset: str
    columns: dict[str, str]          # canonical field -> raw column name/index
    phase_map: dict[str, str]        # raw phase code -> down/move/up
    delimiter: str = ","
    has_header: bool = True
    t_unit: str = "ms"
    device_constant: str | None = None

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1:
            raise ConfigError(
                f"delimiter must be one character, got {self.delimiter!r}")
        if not self.has_header:
            bad = [f"col.{fld} = {col}" for fld, col in self.columns.items()
                   if not str(col).isdecimal()]
            if bad:
                raise ConfigError("headerless adapter needs column indexes "
                                  f">= 0, got {', '.join(bad)}")

    @classmethod
    def load(cls, path: str | Path) -> "AdapterConfig":
        opts: dict[str, str] = {}
        for lineno, line in enumerate(_read_text(Path(path)).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            opts[key.strip()] = value.strip()
        if "dataset" not in opts:
            raise ConfigError(f"{path}: adapter must set dataset")
        columns = {k[4:]: v for k, v in opts.items() if k.startswith("col.")}
        phase_map = {k[6:]: v for k, v in opts.items() if k.startswith("phase.")}
        needed = {"user_id", "session_id", "t", "phase", "x", "y"}
        missing = needed - set(columns)
        if missing:
            raise ConfigError(f"{path}: adapter lacks col. entries for {sorted(missing)}")
        bad = [v for v in phase_map.values() if v not in PHASES]
        if bad:
            raise ConfigError(f"{path}: phase map targets must be down/move/up, got {bad}")
        t_unit = opts.get("t_unit", "ms")
        if t_unit not in _TIME_SCALE:
            raise ConfigError(f"{path}: unknown t_unit {t_unit!r}")
        has_header = opts.get("has_header", "true")
        if has_header.lower() not in ("true", "false"):
            raise ConfigError(
                f"{path}: has_header must be true or false, got {has_header!r}")
        # values are stripped, so a tab is written as \t
        delimiter = opts.get("delimiter", ",")
        try:
            return cls(
                dataset=opts["dataset"],
                columns=columns,
                phase_map=phase_map,
                delimiter="\t" if delimiter == "\\t" else delimiter,
                has_header=has_header.lower() == "true",
                t_unit=t_unit,
                device_constant=opts.get("device_constant"),
            )
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None


def convert_raw(raw_path: str | Path, adapter: AdapterConfig,
                max_malformed_rate: float = DEFAULT_MAX_MALFORMED_RATE,
                ) -> tuple[TouchColumns, IngestReport]:
    """Apply an adapter to a raw CSV export, yielding canonical columns."""
    raw_path = Path(raw_path)
    lines = _Lines()
    rows = []
    try:
        fh = raw_path.open(newline="", encoding="utf-8-sig")
    except OSError as err:
        raise DataError(f"cannot read {raw_path}: {err}") from None
    with fh:
        reader = _csv_rows(csv.reader(fh, delimiter=adapter.delimiter),
                           raw_path)
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
            index = {fld: int(col) for fld, col in adapter.columns.items()}
            start = 1
        for lineno, row in enumerate(reader, start=start):
            if not row or not (row[0].strip() or any(c.strip() for c in row)):
                continue
            lines.total += 1
            lines.linenos.append(lineno)
            rows.append(row)

    def cells(fld: str) -> list[str]:
        """fld's stripped cell of every row; a row without one is
        rejected and reads an empty cell."""
        i = index[fld]
        try:
            return [row[i].strip() for row in rows]
        except IndexError:
            out = []
            for k, row in enumerate(rows):
                try:
                    out.append(row[i].strip())
                except IndexError as err:
                    lines.reject(lines.linenos[k], err)
                    out.append("")
            return out

    def channel(fld: str) -> np.ndarray:
        if fld not in index:
            return np.full(len(rows), math.nan)
        return lines.floats(fld, cells(fld), _optional_channel)

    # cells in the order a row's fields are read, so a row fails on the
    # first of them that is missing or bad
    raw_phase = cells("phase")
    mapped = {p: adapter.phase_map.get(p, p.lower()) for p in set(raw_phase)}
    phase = [mapped[p] for p in raw_phase]
    if "device_model" in index:
        device = cells("device_model")
    else:
        device = [adapter.device_constant if adapter.device_constant is not None
                  else "unknown"] * len(rows)
    user_id, session_id = cells("user_id"), cells("session_id")
    raw_t = cells("t")
    t = np.rint(lines.floats("t", raw_t) * _TIME_SCALE[adapter.t_unit])
    lines.check(np.isnan(t), lambda i: "cannot convert float NaN to integer")
    lines.check(np.isinf(t),
                lambda i: "cannot convert float infinity to integer")
    lines.check_range(t, raw_t)
    x = lines.floats("x", cells("x"))
    y = lines.floats("y", cells("y"))
    pressure, area = channel("pressure"), channel("area")
    records = lines.columns([adapter.dataset] * len(rows), user_id,
                            session_id, device, t, phase, x, y, pressure, area)
    report = lines.report(str(raw_path), records)
    if report.malformed_rate > max_malformed_rate:
        raise MalformedRateExceeded(
            f"{raw_path}: {report.lines_malformed}/{report.lines_total} rows "
            "malformed")
    return records, report
