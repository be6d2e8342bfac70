"""Columnar ingest and segmentation against the per-event references.

Seeded fuzzed streams in all three formats (canonical CSV, canonical
JSONL, a raw adapter export) go through the package and through the
per-event parsers, segmentation and writer in ingest_oracles.py. Reports,
segmentation counts, swipes, session order, feature tables and the
canonical bytes written back must be identical.

The references order a NaN channel against a number by input order
(Python's sort finds neither smaller); the package sorts NaN after every
number. Where the fuzz ties two events on (t, phase, x, y) and only one
has a NaN channel, the NaN one comes later in the file, where both
orders agree.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from bitwise_oracles import o_extract_features
from ingest_oracles import (o_assemble_dataset, o_convert_raw,
                            o_parse_canonical, o_write_canonical)
from swipebench.errors import SwipebenchError
from swipebench.features.extract import build_feature_table
from swipebench.ingest import (REQUIRED_FIELDS, AdapterConfig, convert_raw,
                               load_canonical, write_canonical)
from swipebench.touchdata import assemble_dataset

N_SEEDS = 25
RAW_ADAPTER = """
dataset = vendor
has_header = false
col.device_model = 0
col.user_id = 1
col.session_id = 2
col.t = 3
col.phase = 4
col.x = 6
col.y = 7
col.pressure = 8
col.area = 9
phase.0 = down
phase.1 = up
phase.2 = move
"""
RAW_CODES = {"down": "0", "up": "1", "move": "2"}


def fuzz_events(rng: np.random.Generator) -> list[dict]:
    """Records of 2-3 users with 2-3 sessions each: strokes of 1-9 events
    (taps included), unterminated strokes, orphans, duplicate
    timestamps, NaN and negative-zero channels, and a second device model
    inside some sessions. Each record keeps its place in file order;
    ``tie`` marks an event that must follow the one it ties with."""
    events = []
    for u in range(int(rng.integers(2, 4))):
        for s in range(int(rng.integers(2, 4))):
            devices = ["dev-a", "dev-b"] if rng.random() < 0.3 else ["dev-a"]
            t = int(rng.integers(0, 50)) + 10_000 * s
            for _ in range(int(rng.integers(2, 7))):
                n = int(rng.integers(1, 10))
                phases = ["down"] + ["move"] * max(0, n - 2) + ["up"][:n - 1]
                if rng.random() < 0.15:
                    phases = phases[:-1] or ["move"]       # unterminated
                if rng.random() < 0.15:
                    phases = ["move"] + phases             # orphan first
                for phase in phases:
                    ev = {"dataset": "fuzz", "user_id": f"u{u}",
                          "session_id": f"s{s}",
                          "device_model": str(rng.choice(devices)),
                          "t_ms": t, "phase": phase,
                          "x": float(np.round(rng.uniform(0, 500), 2)),
                          "y": float(np.round(rng.uniform(0, 900), 2)),
                          "pressure": float(np.round(rng.uniform(0, 1), 3)),
                          "area": float(np.round(rng.uniform(0, 1), 3)),
                          "tie": None}
                    r = rng.random()
                    if r < 0.05:
                        ev["x"] = -0.0
                    elif r < 0.10:
                        ev["pressure"] = -0.0
                    elif r < 0.15:
                        ev["pressure"] = None
                    elif r < 0.18:
                        ev["area"] = None
                    tie = len(events)
                    events.append(ev)
                    if rng.random() < 0.12:            # same t, other point
                        events.append(dict(ev, x=ev["x"] + 1.5))
                    if rng.random() < 0.08:            # tie up to a NaN channel
                        channel = str(rng.choice(["pressure", "area"]))
                        if ev[channel] is not None:
                            events.append(dict(ev, tie=tie,
                                               **{channel: None}))
                    t += int(rng.integers(0, 3)) * int(rng.integers(1, 25))
                t += int(rng.integers(20, 400))
    order = rng.permutation(len(events)) if rng.random() < 0.7 \
        else np.arange(len(events))
    place = {int(i): k for k, i in enumerate(order)}
    out = [events[i] for i in order]
    for i, ev in enumerate(events):
        if ev["tie"] is not None and place[i] < place[ev["tie"]]:
            a, b = place[i], place[ev["tie"]]
            out[a], out[b] = out[b], out[a]
            place[i], place[ev["tie"]] = b, a
    return out


def channel_cell(v, rng) -> str:
    if v is None:
        return str(rng.choice(["", "nan", "NaN", " "]))
    return repr(v)


def csv_line(ev: dict, rng) -> str:
    t = ev["t_ms"]
    cells = [ev["dataset"], ev["user_id"], ev["session_id"],
             ev["device_model"], f"{t}.0" if rng.random() < 0.1 else str(t),
             f" {ev['phase'].upper()}" if rng.random() < 0.1 else ev["phase"],
             repr(ev["x"]), repr(ev["y"]), channel_cell(ev["pressure"], rng),
             channel_cell(ev["area"], rng)]
    if rng.random() < 0.05:
        cells.append("extra")
    return ",".join(cells)


def json_line(ev: dict, rng) -> str:
    rec = {f: ev[f] for f in REQUIRED_FIELDS}
    r = rng.random()
    if r < 0.05:
        rec["t_ms"] = float(rec["t_ms"])
    elif r < 0.10:
        rec["t_ms"] = str(rec["t_ms"])
    elif r < 0.15:
        rec["x"] = repr(rec["x"])
    elif r < 0.20:
        rec["phase"] = rec["phase"].title() + " "
    elif r < 0.25:
        rec["extra"] = [1, 2]
    elif r < 0.28 and rec["pressure"] is None:
        rec["pressure"] = "nan"
    line = json.dumps(rec)
    return " " + line if rng.random() < 0.03 else line


def raw_line(ev: dict, rng) -> str:
    phase = RAW_CODES[ev["phase"]]
    if rng.random() < 0.05:
        phase = ev["phase"].upper()
    t = ev["t_ms"] / 1000 if rng.random() < 0.3 else ev["t_ms"]
    return ",".join([ev["device_model"], ev["user_id"], ev["session_id"],
                     f" {t!r}", phase, "9", repr(ev["x"]), repr(ev["y"]),
                     channel_cell(ev["pressure"], rng),
                     channel_cell(ev["area"], rng), "0"])


CSV_FAULTS = [
    "fuzz,u0,s0,dev-a,12",                                # too few fields
    "fuzz,u0,s0,dev-a,abc,move,1.0,2.0,0.5,0.5",          # unparsable t
    "fuzz,u0,s0,dev-a,7.25,move,1.0,2.0,0.5,0.5",         # fractional t
    "fuzz,u0,s0,dev-a,inf,move,1.0,2.0,0.5,0.5",          # infinite t
    "fuzz,u0,s0,dev-a,nan,move,1.0,2.0,0.5,0.5",          # NaN t
    "fuzz,u0,s0,dev-a,-5,move,1.0,2.0,0.5,0.5",           # negative t
    "fuzz,u0,s0,dev-a,12,hover,1.0,2.0,0.5,0.5",          # unknown phase
    "fuzz,u0,s0,dev-a,12,move,x1,2.0,0.5,0.5",            # unparsable x
    "fuzz,u0,s0,dev-a,12,move,inf,2.0,0.5,0.5",           # infinite x
    "fuzz,u0,s0,dev-a,12,move,1.0,-inf,0.5,0.5",          # infinite y
    "fuzz,u0,s0,dev-a,12,move,1.0,2.0,-0.1,0.5",          # negative channel
    "fuzz,u0,s0,dev-a,12,move,1.0,2.0,0.5,inf",           # infinite channel
    "fuzz,u0,s0,dev-a,12,move,1.0,2.0,p,0.5",             # unparsable channel
    "fuzz,u0,s0,dev-a,-3,hover,x,2.0,-1,inf",             # several at once
    "fuzz,u0,s0,dev-a,2.5,hover,1.0,2.0,-1,0.5",          # t before phase
]
JSON_FAULTS = [
    '{"dataset": "fuzz", "user_id": "u0"',                # invalid JSON
    '[1, 2]',                                             # not an object
    '5',
    '{"dataset": "fuzz", "t_ms": 5}',                     # missing fields
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": 5} extra',              # trailing data
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": null, "phase": "move", "x": 1.0, '
    '"y": 2.0, "pressure": 0.5, "area": 0.5}',            # null t
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": 7.5, "phase": "move", "x": 1.0, '
    '"y": 2.0, "pressure": 0.5, "area": 0.5}',            # fractional t
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": 5, "phase": 3, "x": 1.0, '
    '"y": 2.0, "pressure": 0.5, "area": 0.5}',            # numeric phase
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": 5, "phase": "move", "x": [1], '
    '"y": 2.0, "pressure": 0.5, "area": 0.5}',            # list x
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": 5, "phase": "move", "x": 1.0, '
    '"y": null, "pressure": 0.5, "area": 0.5}',           # null y
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": 5, "phase": "move", "x": 1.0, '
    '"y": 2.0, "pressure": -2, "area": {}}',              # bad channels
    '{"dataset": "fuzz", "user_id": "u0", "session_id": "s0", '
    '"device_model": "d", "t_ms": -1, "phase": "hop", "x": 1.0, '
    '"y": 2.0, "pressure": 0.5, "area": 0.5}',            # negative t first
]
RAW_FAULTS = [
    "dev-a,u0,s0",                                        # too few fields
    "dev-a,u0,s0,abc,2,9,1.0,2.0,0.5,0.5,0",              # unparsable t
    "dev-a,u0,s0,nan,2,9,1.0,2.0,0.5,0.5,0",              # NaN t
    "dev-a,u0,s0,-40,2,9,1.0,2.0,0.5,0.5,0",              # negative t
    "dev-a,u0,s0,12,7,9,1.0,2.0,0.5,0.5,0",               # unknown phase code
    "dev-a,u0,s0,12,2,9,x,2.0,0.5,0.5,0",                 # unparsable x
    "dev-a,u0,s0,12,2,9,1.0,nan,0.5,0.5,0",               # NaN y
    "dev-a,u0,s0,12,2,9,1.0,2.0,-3,0.5,0",                # negative channel
    "dev-a,u0,s0,12,2,9,1.0,2.0,0.5",                     # no area column
    "dev-a,u0,s0,bad,2,9,1.0,2.0,0.5",                    # t before area
]
RENDER = {"csv": (csv_line, CSV_FAULTS), "jsonl": (json_line, JSON_FAULTS),
          "raw": (raw_line, RAW_FAULTS)}


def fuzz_text(seed: int, fmt: str) -> str:
    rng = np.random.default_rng([seed, len(fmt)])
    render, faults = RENDER[fmt]
    lines = [render(ev, rng) for ev in fuzz_events(rng)]
    for _ in range(int(rng.integers(0, 8))):
        lines.insert(int(rng.integers(0, len(lines) + 1)),
                     str(rng.choice(faults)))
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(0, len(lines) + 1)), "  ")
    if fmt == "csv":
        lines.insert(0, ",".join(REQUIRED_FIELDS))
    return "\n".join(lines) + "\n"


def outcome(run):
    """(dataset, report) or the error a run ends with."""
    try:
        return run()
    except SwipebenchError as err:
        return type(err), str(err)


def o_load(path, adapter=None, rate=1.0):
    """load_canonical, or convert_raw and assemble_dataset, per event."""
    if adapter is None:
        records, report = o_parse_canonical(path.read_text(), str(path), rate)
        name = records[0].dataset
    else:
        records, report = o_convert_raw(path, adapter, rate)
        name = adapter.dataset
    dataset, report.segmentation = o_assemble_dataset(name, records)
    return dataset, report


def o_load_text(text):
    records, report = o_parse_canonical(text, "<fuzz>", 1.0)
    _, report.segmentation = o_assemble_dataset("fuzz", records)
    return records, report


def load(path, adapter=None, rate=1.0):
    if adapter is None:
        return load_canonical(path, max_malformed_rate=rate)
    records, report = convert_raw(path, adapter, rate)
    dataset, report.segmentation = assemble_dataset(adapter.dataset, records)
    return dataset, report


def row_key(sample) -> tuple:
    """A sample's fields, floats by repr: NaN equals NaN, -0.0 is not 0.0."""
    return tuple(repr(v) if isinstance(v, float) else v
                 for v in (sample.dataset, sample.user_id, sample.session_id,
                           sample.device_model, sample.t, sample.phase,
                           sample.x, sample.y, sample.pressure, sample.area))


def layout(dataset) -> list:
    """Users, sessions in order with their devices, and every swipe's
    rows."""
    return [(user_id, [(s.session_id, s.device_model,
                        [[row_key(r) for r in sw.samples] for sw in s.swipes])
                       for s in dataset.users[user_id].sessions])
            for user_id in dataset.user_ids()]


def reference_table(dataset):
    rows, defs = [], []
    for user_id in dataset.user_ids():
        for session in dataset.users[user_id].sessions:
            prev = None
            for swipe in session.swipes:
                vals, defined = o_extract_features(swipe, prev_end_ms=prev)
                rows.append(vals)
                defs.append(defined)
                prev = swipe.end_ms
    return np.vstack(rows), np.vstack(defs)


def assert_same(got, want, tmp_path) -> None:
    if isinstance(want[0], type):       # both runs end with this error
        assert got == want
        return
    (data, report), (o_data, o_report) = got, want
    assert json.dumps(report.as_dict()) == json.dumps(o_report.as_dict())
    assert layout(data) == layout(o_data)
    if data.n_swipes:
        table = build_feature_table(data)
        X, defined = reference_table(o_data)
        assert table.X.tobytes() == X.tobytes()
        assert table.defined.tobytes() == defined.tobytes()
    for fmt in ("csv", "jsonl"):
        write_canonical(data, tmp_path / f"got.{fmt}", fmt=fmt)
        o_write_canonical(o_data, tmp_path / f"want.{fmt}", fmt=fmt)
        assert (tmp_path / f"got.{fmt}").read_bytes() == \
            (tmp_path / f"want.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "raw"])
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_fuzzed_stream_matches_per_event_reference(tmp_path, fmt, seed):
    path = tmp_path / f"fuzz.{fmt}"
    path.write_text(fuzz_text(seed, fmt))
    adapter = None
    if fmt == "raw":
        conf = tmp_path / "vendor.conf"
        conf.write_text(RAW_ADAPTER + ("t_unit = s\n" if seed % 3 == 0 else ""))
        adapter = AdapterConfig.load(conf)
    assert_same(outcome(lambda: load(path, adapter)),
                outcome(lambda: o_load(path, adapter)), tmp_path)
    # at the default limit most streams fail on their malformed rate
    assert_same(outcome(lambda: load(path, adapter, 0.01)),
                outcome(lambda: o_load(path, adapter, 0.01)), tmp_path)


def test_fuzz_covers_every_case():
    """The fuzz meets each case it exists for, on the seeds the test runs."""
    seen = set()
    for seed in range(N_SEEDS):
        for fmt in ("csv", "jsonl"):
            _, report = o_load_text(fuzz_text(seed, fmt))
            seg = report.segmentation
            seen.update(k for k, v in seg.as_dict().items() if v)
            if report.lines_malformed:
                seen.add(f"malformed-{fmt}")
        events = fuzz_events(np.random.default_rng([seed, 3]))
        if any(ev["tie"] is not None for ev in events):
            seen.add("nan-tie")
        devices = {}
        for ev in events:
            devices.setdefault((ev["user_id"], ev["session_id"]),
                               set()).add(ev["device_model"])
        if any(len(d) > 1 for d in devices.values()):
            seen.add("mixed-devices")
    assert {"discarded_orphan", "discarded_unterminated", "discarded_short",
            "discarded_duplicate", "taps_discarded", "malformed-csv",
            "malformed-jsonl", "nan-tie", "mixed-devices"} <= seen


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "raw"])
def test_a_stream_of_faults_fails_alike(tmp_path, fmt):
    _, faults = RENDER[fmt]
    lines = ([",".join(REQUIRED_FIELDS)] if fmt == "csv" else []) + faults
    path = tmp_path / f"faults.{fmt}"
    path.write_text("\n".join(lines) + "\n")
    adapter = None
    if fmt == "raw":
        conf = tmp_path / "vendor.conf"
        conf.write_text(RAW_ADAPTER)
        adapter = AdapterConfig.load(conf)
    got = outcome(lambda: load(path, adapter))
    assert got[0].__name__ == "EmptyDataset"
    assert got == outcome(lambda: o_load(path, adapter))
