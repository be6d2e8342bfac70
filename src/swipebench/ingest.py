"""Reading and writing the canonical touch-event format.

Canonical data is line-delimited: either CSV with a header or one JSON
object per line (sniffed from the first non-blank character). Required
fields: dataset, user_id, session_id, device_model, t_ms, phase, x, y,
pressure, area. pressure/area may be empty/null for datasets that lack the
channel. Raw vendor exports are converted through small key=value adapter
configs that map columns and phase codes onto this schema.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (ConfigError, DataError, EmptyDataset,
                     MalformedRateExceeded, UnparseableHeader)
from .touchdata import (Dataset, SegmentationCounts, TouchSample,
                        assemble_dataset)

REQUIRED_FIELDS = ("dataset", "user_id", "session_id", "device_model",
                   "t_ms", "phase", "x", "y", "pressure", "area")

DEFAULT_MAX_MALFORMED_RATE = 0.01


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from None


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


def _int_ms(raw) -> int:
    v = float(raw)
    if not math.isfinite(v) or v != int(v):
        raise ValueError(f"timestamp {raw!r} is not an integer millisecond count")
    return int(v)


def _record_from_mapping(m: dict) -> TouchSample:
    return TouchSample(
        dataset=str(m["dataset"]),
        user_id=str(m["user_id"]),
        session_id=str(m["session_id"]),
        device_model=str(m["device_model"]),
        t=_int_ms(m["t_ms"]),
        phase=str(m["phase"]).strip().lower(),
        x=float(m["x"]),
        y=float(m["y"]),
        pressure=_optional_channel(m["pressure"]),
        area=_optional_channel(m["area"]),
    )


def _note(report: IngestReport, lineno: int, err: Exception) -> None:
    report.lines_malformed += 1
    if len(report.malformed_examples) < 5:
        report.malformed_examples.append(f"line {lineno}: {err}")


def parse_canonical(text: str, source: str = "<string>",
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
                records.append(_record_from_mapping(obj))
            except (ValueError, TypeError, KeyError) as err:
                _note(report, lineno, err)
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
                records.append(_record_from_mapping(
                    {f: row[i] for f, i in idx.items()}))
            except (ValueError, TypeError) as err:
                _note(report, lineno, err)

    if report.lines_total == 0 or not records:
        raise EmptyDataset(f"{source}: no valid records")
    if report.malformed_rate > max_malformed_rate:
        raise MalformedRateExceeded(
            f"{source}: {report.lines_malformed}/{report.lines_total} lines malformed "
            f"({report.malformed_rate:.2%} > {max_malformed_rate:.2%})")
    return records, report


def load_canonical(path: str | Path, name: str | None = None,
                   max_malformed_rate: float = DEFAULT_MAX_MALFORMED_RATE,
                   ) -> tuple[Dataset, IngestReport]:
    """Parse a canonical file and assemble it into a segmented Dataset."""
    path = Path(path)
    records, report = parse_canonical(_read_text(path), source=str(path),
                                      max_malformed_rate=max_malformed_rate)
    if name is None:
        name = records[0].dataset
    dataset, seg = assemble_dataset(name, records)
    report.segmentation = seg
    return dataset, report


def _format_channel(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


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


def write_canonical(dataset: Dataset, path: str | Path, fmt: str = "csv") -> None:
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
                _format_channel(s.pressure), _format_channel(s.area)]))
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
        bad = [v for v in phase_map.values() if v not in ("down", "move", "up")]
        if bad:
            raise ConfigError(f"{path}: phase map targets must be down/move/up, got {bad}")
        t_unit = opts.get("t_unit", "ms")
        if t_unit not in _TIME_SCALE:
            raise ConfigError(f"{path}: unknown t_unit {t_unit!r}")
        return cls(
            dataset=opts["dataset"],
            columns=columns,
            phase_map=phase_map,
            delimiter=opts.get("delimiter", ","),
            has_header=opts.get("has_header", "true").lower() != "false",
            t_unit=t_unit,
            device_constant=opts.get("device_constant"),
        )


def convert_raw(raw_path: str | Path, adapter: AdapterConfig,
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
                    pressure=_optional_channel(cell("pressure"))
                    if "pressure" in index else math.nan,
                    area=_optional_channel(cell("area"))
                    if "area" in index else math.nan,
                ))
            except (ValueError, IndexError, KeyError) as err:
                _note(report, lineno, err)
    if not records:
        raise EmptyDataset(f"{raw_path}: no valid records")
    if report.malformed_rate > max_malformed_rate:
        raise MalformedRateExceeded(
            f"{raw_path}: {report.lines_malformed}/{report.lines_total} rows malformed")
    return records, report
