"""Canonical format parsing, writing, and raw-export adapters."""

import csv
import io
import json
import math

import numpy as np
import pytest

from ingest_oracles import o_convert_raw
from swipebench.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from swipebench.errors import (ConfigError, EmptyDataset,
                               MalformedRateExceeded, NoEligibleUsers,
                               UnparseableHeader)
from swipebench.features.extract import build_feature_table, export_table_csv
from swipebench.ingest import (AdapterConfig, convert_raw, load_canonical,
                               parse_canonical, write_canonical)
from swipebench.touchdata import (TouchColumns, assemble_dataset,
                                  filter_eligible)

HEADER = "dataset,user_id,session_id,device_model,t_ms,phase,x,y,pressure,area"


def csv_line(t, phase, *, x=1.0, y=2.0, pressure="0.5", area="0.3",
             user="u1", session="s1"):
    return f"unit,{user},{session},dev,{t},{phase},{x},{y},{pressure},{area}"


def stroke_lines(t0, n, **kw):
    phases = ["down"] + ["move"] * (n - 2) + ["up"]
    return [csv_line(t0 + 20 * i, ph, x=float(i), y=float(2 * i), **kw)
            for i, ph in enumerate(phases)]


def test_parse_csv_roundtrip_fields():
    text = "\n".join([HEADER] + stroke_lines(0, 5)) + "\n"
    records, report = parse_canonical(text)
    assert len(records) == 5
    assert report.lines_total == 5 and report.lines_malformed == 0
    first = records.samples[0]
    assert (first.user_id, first.session_id, first.phase) == ("u1", "s1", "down")
    assert first.pressure == 0.5


def test_parse_jsonl():
    lines = []
    for i, phase in enumerate(["down", "move", "move", "up"]):
        lines.append(
            '{"dataset": "unit", "user_id": "u1", "session_id": "s1", '
            '"device_model": "dev", "t_ms": %d, "phase": "%s", '
            '"x": %f, "y": 2.0, "pressure": null, "area": 0.3}'
            % (i * 20, phase, float(i)))
    records, report = parse_canonical("\n".join(lines))
    assert len(records) == 4
    assert math.isnan(records.samples[0].pressure)
    assert records.samples[0].area == 0.3


def test_empty_channel_becomes_nan():
    text = "\n".join([HEADER, csv_line(0, "down", pressure="", area="nan")])
    records, _ = parse_canonical(text)
    first = records.samples[0]
    assert math.isnan(first.pressure) and math.isnan(first.area)


def test_malformed_lines_tolerated_below_rate():
    lines = [HEADER] + stroke_lines(0, 120)
    lines.insert(5, "unit,u1,s1,dev,not-a-number,move,1,2,0.5,0.3")
    records, report = parse_canonical("\n".join(lines),
                                      max_malformed_rate=0.05)
    assert report.lines_malformed == 1
    assert len(records) == 120
    assert report.malformed_examples and "line 6" in report.malformed_examples[0]


def test_malformed_rate_exceeded_raises():
    lines = [HEADER] + stroke_lines(0, 5)
    lines.append("unit,u1,s1,dev,bad,move,1,2,0.5,0.3")
    with pytest.raises(MalformedRateExceeded):
        parse_canonical("\n".join(lines), max_malformed_rate=0.01)


def test_non_integer_millisecond_is_malformed():
    lines = [HEADER] + stroke_lines(0, 5)
    lines.append(csv_line("7.25", "move"))
    records, report = parse_canonical("\n".join(lines), max_malformed_rate=0.5)
    assert report.lines_malformed == 1
    assert len(records) == 5


def test_header_validation():
    with pytest.raises(UnparseableHeader):
        parse_canonical("a,b,c\n1,2,3\n")
    with pytest.raises(EmptyDataset):
        parse_canonical("   \n")


def test_write_and_load_roundtrip(tmp_path):
    text = "\n".join([HEADER] + stroke_lines(0, 5)
                     + stroke_lines(1000, 4, session="s2")
                     + stroke_lines(0, 6, user="u2")) + "\n"
    records, _ = parse_canonical(text)
    ds, _ = assemble_dataset("unit", records)

    for fmt, fname in (("csv", "out.csv"), ("jsonl", "out.jsonl")):
        path = tmp_path / fname
        write_canonical(ds, path, fmt=fmt)
        ds2, report = load_canonical(path)
        assert ds2.user_ids() == ds.user_ids()
        assert ds2.n_swipes == ds.n_swipes
        for uid in ds.user_ids():
            a = [sw.samples for s in ds.users[uid].sessions for sw in s.swipes]
            b = [sw.samples for s in ds2.users[uid].sessions for sw in s.swipes]
            assert a == b


def test_write_canonical_is_deterministic(tmp_path):
    text = "\n".join([HEADER] + stroke_lines(0, 5)) + "\n"
    records, _ = parse_canonical(text)
    ds, _ = assemble_dataset("unit", records)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_canonical(ds, p1)
    write_canonical(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_write_canonical_over_a_longer_file_equals_a_fresh_write(tmp_path,
                                                                 fmt):
    text = "\n".join([HEADER] + stroke_lines(0, 5)) + "\n"
    records, _ = parse_canonical(text)
    ds, _ = assemble_dataset("unit", records)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    write_canonical(ds, fresh, fmt=fmt)
    old.write_bytes(fresh.read_bytes() * 2 + b"stale tail\n")
    write_canonical(ds, old, fmt=fmt)
    assert old.read_bytes() == fresh.read_bytes()


def test_write_canonical_rejects_unknown_format(tmp_path):
    text = "\n".join([HEADER] + stroke_lines(0, 5)) + "\n"
    records, _ = parse_canonical(text)
    ds, _ = assemble_dataset("unit", records)
    with pytest.raises(ConfigError):
        write_canonical(ds, tmp_path / "x.bin", fmt="parquet")


def test_text_cells_survive_a_jsonl_csv_jsonl_round_trip(tmp_path):
    """Ids holding a comma, a quote, CR or LF are quoted in every CSV
    writer, and read back unchanged."""
    ids = {"user_id": "u,1", "session_id": 's"1"',
           "device_model": 'Nexus 5, rev "2"\r\n'}
    lines = [json_record(20 * i, phase=phase, x=float(i), **ids)
             for i, phase in enumerate(("down", "move", "move", "up"))]
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ds, _ = load_canonical(src)
    write_canonical(ds, tmp_path / "a.jsonl", fmt="jsonl")
    write_canonical(ds, tmp_path / "mid.csv")
    ds2, report = load_canonical(tmp_path / "mid.csv")
    assert report.lines_malformed == 0
    write_canonical(ds2, tmp_path / "b.jsonl", fmt="jsonl")
    assert (tmp_path / "b.jsonl").read_bytes() == \
        (tmp_path / "a.jsonl").read_bytes()

    table = csv.DictReader(io.StringIO(
        export_table_csv(build_feature_table(ds)), newline=""))
    row, = table
    assert (row["user_id"], row["session_id"]) == ("u,1", 's"1"')
    assert len(row) == 4 + 149


BOM = "\ufeff"


def corpus_text(kind: str) -> str:
    """One stroke of five events as canonical CSV, JSONL or a headerless
    raw export in the layout of ADAPTER."""
    if kind == "csv":
        return "\n".join([HEADER] + stroke_lines(0, 5)) + "\n"
    if kind == "jsonl":
        return "\n".join(stroke_records(0, 5)) + "\n"
    return "\n".join(raw_rows()) + "\n"


@pytest.mark.parametrize("kind", ["csv", "jsonl", "raw"])
def test_a_byte_order_mark_is_ignored(tmp_path, kind):
    conf = tmp_path / "vendor.conf"
    conf.write_text(ADAPTER)
    loaded = []
    for name, prefix in (("plain", ""), ("bom", BOM)):
        path = tmp_path / name
        path.write_text(prefix + corpus_text(kind), encoding="utf-8")
        if kind == "raw":
            records, _ = convert_raw(path, AdapterConfig.load(conf))
            ds, _ = assemble_dataset("vendor", records)
        else:
            ds, _ = load_canonical(path)
        write_canonical(ds, tmp_path / f"{name}.out")
        loaded.append((tmp_path / f"{name}.out").read_bytes())
    assert loaded[0] == loaded[1]
    assert BOM.encode() not in loaded[1]


ADAPTER = """
# maps a headerless vendor export
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


def raw_rows():
    rows = []
    for i, code in enumerate(["0", "2", "2", "2", "1"]):
        rows.append(f"phone9,42,7,{i * 20},{code},9,{10.0 + i},{20.0 + i},0.4,0.2")
    return rows


def test_adapter_loads_and_converts(tmp_path):
    conf = tmp_path / "vendor.conf"
    conf.write_text(ADAPTER)
    adapter = AdapterConfig.load(conf)
    assert adapter.dataset == "vendor"
    assert not adapter.has_header
    assert adapter.phase_map == {"0": "down", "1": "up", "2": "move"}

    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(raw_rows()) + "\n")
    records, report = convert_raw(raw, adapter)
    assert len(records) == 5
    assert report.lines_malformed == 0
    first = records.samples[0]
    assert first.dataset == "vendor"
    assert (first.user_id, first.session_id) == ("42", "7")
    assert first.device_model == "phone9"
    assert first.phase == "down"
    ds, counts = assemble_dataset(adapter.dataset, records)
    assert counts.swipes == 1


def test_adapter_validation(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("dataset = d\ncol.user_id = 0\n")
    with pytest.raises(ConfigError):
        AdapterConfig.load(conf)
    conf.write_text("dataset = d\ncol.user_id = 0\ncol.session_id = 1\n"
                    "col.t = 2\ncol.phase = 3\ncol.x = 4\ncol.y = 5\n"
                    "phase.0 = hover\n")
    with pytest.raises(ConfigError):
        AdapterConfig.load(conf)
    conf.write_text("col.user_id = 0\n")
    with pytest.raises(ConfigError):
        AdapterConfig.load(conf)


BAD_ADAPTERS = [    # each message is what follows the config's path
    pytest.param(ADAPTER + "delimiter = ;;\n",
                 ": delimiter must be one character, got ';;'",
                 id="two-character-delimiter"),
    pytest.param(ADAPTER + "delimiter =\n",
                 ": delimiter must be one character, got ''",
                 id="empty-delimiter"),
    pytest.param(ADAPTER.replace("col.user_id = 1\n", "col.user_id = -1\n"),
                 ": headerless adapter needs column indexes >= 0, "
                 "got col.user_id = -1", id="negative-column"),
    pytest.param(ADAPTER.replace("has_header = false", "has_header = no"),
                 ": has_header must be true or false, got 'no'",
                 id="has-header-no"),
    pytest.param(ADAPTER + "t_units = s\n", ": unknown key t_units",
                 id="misspelt-setting"),
    pytest.param(ADAPTER.replace("col.pressure", "col.presure"),
                 ": unknown key col.presure; col. entries name one of "
                 "user_id, session_id, device_model, t, phase, x, y, "
                 "pressure, area", id="misspelt-column"),
    pytest.param(ADAPTER + "t_unit s\n", ":17: expected key = value",
                 id="line-without-equals"),
]


@pytest.mark.parametrize("text, message", BAD_ADAPTERS)
def test_adapter_rejects_misread_settings(tmp_path, text, message):
    conf = tmp_path / "vendor.conf"
    conf.write_text(text)
    with pytest.raises(ConfigError) as err:
        AdapterConfig.load(conf)
    assert str(err.value) == f"{conf}{message}"


NEEDED_COLUMNS = {"user_id": "1", "session_id": "2", "t": "3", "phase": "4",
                  "x": "6", "y": "7"}


def test_adapter_checks_direct_construction():
    with pytest.raises(ConfigError, match="col.x = -2"):
        AdapterConfig("d", dict(NEEDED_COLUMNS, x="-2"), {}, has_header=False)
    with pytest.raises(ConfigError, match="delimiter"):
        AdapterConfig("d", NEEDED_COLUMNS, {}, delimiter="\t\t")
    columns = dict(NEEDED_COLUMNS, x="-2")
    assert AdapterConfig("d", columns, {}).columns == columns


@pytest.mark.parametrize("change, message", [
    ({"t_unit": "min"}, "t_unit must be one of ms, s, us, ns, got 'min'"),
    ({"columns": {k: v for k, v in NEEDED_COLUMNS.items() if k != "phase"}},
     "columns must be a map with entries for user_id, session_id, t, "
     "phase, x, y, got {"),
    ({"phase_map": {"0": "down", "7": "tap"}},
     "phase_map must be a map onto down/move/up, got "
     "{'0': 'down', '7': 'tap'}"),
    ({"columns": dict(NEEDED_COLUMNS, presure="8")},
     "unknown key col.presure; col. entries name one of "),
])
def test_adapter_rules_hold_on_direct_construction(change, message):
    kw = {"dataset": "d", "columns": NEEDED_COLUMNS, "phase_map": {}} | change
    with pytest.raises(ConfigError) as err:
        AdapterConfig(**kw)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("text, message", BAD_ADAPTERS)
def test_ingest_cli_bad_adapter_exits_2(tmp_path, capsys, text, message):
    conf = tmp_path / "vendor.conf"
    conf.write_text(text)
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(raw_rows()) + "\n")
    rc, _, err = ingest_cli(tmp_path, capsys, raw, "--adapter", str(conf))
    assert rc == EXIT_CONFIG
    assert err == f"config error: {conf}{message}\n"


HEADER_ADAPTER = """
dataset = vendor
col.user_id = user
col.session_id = doc
col.t = time
col.phase = action
col.x = x
col.y = y
"""


@pytest.mark.parametrize("raw_text, error, message", [
    ("phone,user,doc,time,action,orientation,x\n" + "\n".join(raw_rows()),
     UnparseableHeader, "column 'y' (for y) not in header"),
    ("", EmptyDataset, "empty file"),
], ids=["header-lacks-a-column", "empty-file"])
def test_ingest_cli_raw_header_faults_exit_3(tmp_path, capsys, raw_text,
                                             error, message):
    conf = tmp_path / "vendor.conf"
    conf.write_text(HEADER_ADAPTER)
    raw = tmp_path / "raw.csv"
    raw.write_text(raw_text)
    with pytest.raises(error):
        convert_raw(raw, AdapterConfig.load(conf))
    rc, _, err = ingest_cli(tmp_path, capsys, raw, "--adapter", str(conf))
    assert rc == EXIT_DATA
    assert err == f"data error: {raw}: {message}\n"


def bad_input_case(tmp_path, kind):
    """(argv, file) for an ingest or extract run over a canonical file, a
    raw export and its adapter conf, of which ``kind`` names the file."""
    conf = tmp_path / "vendor.conf"
    conf.write_text(ADAPTER)
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(raw_rows()) + "\n")
    canonical = tmp_path / "canon.csv"
    canonical.write_text("\n".join([HEADER] + stroke_lines(0, 5)) + "\n")
    out = str(tmp_path / "out.csv")
    ingest_raw = ["ingest", "--input", str(raw), "--adapter", str(conf),
                  "--out", out]
    return {
        "canonical": (["ingest", "--input", str(canonical), "--out", out],
                      canonical),
        "extract": (["extract", "--input", str(canonical), "--out", out],
                    canonical),
        "raw": (ingest_raw, raw),
        "adapter": (ingest_raw, conf),
    }[kind]


@pytest.mark.parametrize("kind", ["canonical", "extract", "raw", "adapter"])
def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys, kind):
    argv, bad = bad_input_case(tmp_path, kind)
    bad.write_bytes(bad.read_bytes().replace(b"1", b"\xff", 1))
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {bad}: not UTF-8 text "
                          "(invalid start byte")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind, lineno", [("canonical", 4), ("raw", 3)])
def test_a_field_over_the_csv_size_limit_is_a_data_error(tmp_path, capsys,
                                                         kind, lineno):
    argv, bad = bad_input_case(tmp_path, kind)
    limit = csv.field_size_limit()
    lines = bad.read_text().splitlines()
    lines[lineno - 1] = lines[lineno - 1].replace("1", "1" * (limit + 1), 1)
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {bad}:{lineno}: field larger than field limit "
        f"({limit})\n")


def test_tab_delimiter_is_written_as_backslash_t(tmp_path):
    comma, tab = tmp_path / "comma.conf", tmp_path / "tab.conf"
    comma.write_text(ADAPTER)
    tab.write_text(ADAPTER + "delimiter = \\t\n")
    assert AdapterConfig.load(tab).delimiter == "\t"
    raw_comma, raw_tab = tmp_path / "raw.csv", tmp_path / "raw.tsv"
    raw_comma.write_text("\n".join(raw_rows()) + "\n")
    raw_tab.write_text("\n".join(r.replace(",", "\t") for r in raw_rows())
                       + "\n")
    expected, _ = convert_raw(raw_comma, AdapterConfig.load(comma))
    got, report = convert_raw(raw_tab, AdapterConfig.load(tab))
    assert report.lines_malformed == 0 and len(got) == 5
    for name in vars(expected):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(expected, name), err_msg=name)


def test_adapter_time_scaling(tmp_path):
    conf = tmp_path / "sec.conf"
    conf.write_text(ADAPTER + "t_unit = s\n")
    adapter = AdapterConfig.load(conf)
    raw = tmp_path / "raw.csv"
    rows = []
    for i, code in enumerate(["0", "2", "2", "1"]):
        rows.append(f"p,1,1,{i * 0.5},{code},9,{float(i)},{float(i)},0.4,0.2")
    raw.write_text("\n".join(rows) + "\n")
    records, _ = convert_raw(raw, adapter)
    assert records.t.tolist() == [0, 500, 1000, 1500]


@pytest.mark.parametrize("constant", [None, "phone7"])
def test_raw_export_without_optional_columns(tmp_path, constant):
    """Without col.device_model every row takes device_constant, or
    "unknown" without one; without col.pressure and col.area both channels
    are NaN, so evaluation drops those users for a missing channel."""
    text = ADAPTER
    for line in ("col.device_model = 0\n", "col.pressure = 8\n",
                 "col.area = 9\n"):
        text = text.replace(line, "")
    if constant is not None:
        text += f"device_constant = {constant}\n"
    conf = tmp_path / "bare.conf"
    conf.write_text(text)
    adapter = AdapterConfig.load(conf)
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(row.replace(",42,7,", f",{user},{session},") + "\n"
                           for user in ("41", "42") for session in ("1", "2")
                           for row in raw_rows()))
    records, report = convert_raw(raw, adapter)
    expected, _ = o_convert_raw(raw, adapter)
    assert report.lines_malformed == 0 and len(records) == 20
    assert list(map(repr, records.samples)) == list(map(repr, expected))
    assert set(records.device_model) == {constant or "unknown"}
    assert np.isnan(records.pressure).all() and np.isnan(records.area).all()

    with pytest.raises(NoEligibleUsers):
        filter_eligible(assemble_dataset(adapter.dataset, records)[0])
    full = tmp_path / "full.conf"
    full.write_text(ADAPTER)
    complete, _ = convert_raw(raw, AdapterConfig.load(full))
    complete = [s for s in complete.samples if s.user_id == "41"]
    mixed = TouchColumns.of(complete + [s for s in records.samples
                                        if s.user_id == "42"])
    kept, counts = filter_eligible(assemble_dataset("vendor", mixed)[0])
    assert list(kept.users) == ["41"]
    assert counts == {"users_in": 2, "users_kept": 1,
                      "dropped_few_sessions": 0,
                      "dropped_missing_channels": 1}


def test_packaged_touchalytics_adapter_parses():
    from importlib import resources
    ref = resources.files("swipebench.data") / "adapters" / "touchalytics.conf"
    with resources.as_file(ref) as path:
        adapter = AdapterConfig.load(path)
    assert not adapter.has_header
    assert set(adapter.phase_map.values()) == {"down", "move", "up"}
    for fld in ("user_id", "session_id", "t", "phase", "x", "y",
                "pressure", "area", "device_model"):
        assert fld in adapter.columns, fld


# ---------------------------------------------------------------------------
# numbers out of range or of the wrong JSON type: one malformed line each,
# counted toward the rate, never a traceback

def json_record(t, **over):
    rec = {"dataset": "unit", "user_id": "u1", "session_id": "s1",
           "device_model": "dev", "t_ms": t, "phase": "move", "x": 1.0,
           "y": 2.0, "pressure": 0.5, "area": 0.3}
    rec.update(over)
    return json.dumps(rec)


def stroke_records(t0, n):
    phases = ["down"] + ["move"] * (n - 2) + ["up"]
    return [json_record(t0 + 20 * i, phase=ph, x=float(i))
            for i, ph in enumerate(phases)]


def ingest_cli(tmp_path, capsys, src, *extra):
    """The ingest verb's exit code, its summary and its stderr."""
    capsys.readouterr()
    rc = main(["ingest", "--input", str(src), "--out",
               str(tmp_path / "out.csv"), *extra])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return rc, json.loads(out) if rc == EXIT_OK else None, err


@pytest.mark.parametrize("cell, example", [
    ("9007199254740992", "timestamp '9007199254740992' is out of range: "
                         "|t| >= 2**53 ms"),
    ("9007199254740993", "timestamp '9007199254740993' is out of range: "
                         "|t| >= 2**53 ms"),
    ("-1e20", "timestamp '-1e20' is out of range: |t| >= 2**53 ms"),
    ("1e400", "timestamp '1e400' is not an integer millisecond count"),
])
def test_csv_timestamp_out_of_range_is_malformed(tmp_path, capsys, cell,
                                                 example):
    lines = [HEADER] + stroke_lines(0, 120)
    lines.insert(7, csv_line(cell, "move"))
    src = tmp_path / "in.csv"
    src.write_text("\n".join(lines) + "\n")
    records, report = parse_canonical(src.read_text())
    assert report.malformed_examples == [f"line 8: {example}"]
    assert len(records) == 120
    rc, summary, _ = ingest_cli(tmp_path, capsys, src)
    assert rc == EXIT_OK
    assert summary["lines_malformed"] == 1
    assert summary["malformed_examples"] == [f"line 8: {example}"]


@pytest.mark.parametrize("line, example", [
    (json_record(10 ** 400), "int too large to convert to float"),
    (json_record(2 ** 53 + 2), "timestamp 9007199254740994 is out of range: "
                               "|t| >= 2**53 ms"),
    (json_record(True), "t_ms must be a number, got true"),
    (json_record(5, x=False), "x must be a number, got false"),
    (json_record(5, y=10 ** 400), "int too large to convert to float"),
    (json_record(5, pressure=True), "pressure must be a number, got true"),
    (json_record(5, area=False), "area must be a number, got false"),
])
def test_jsonl_out_of_range_and_bool_numbers_are_malformed(tmp_path, capsys,
                                                           line, example):
    lines = stroke_records(0, 120)
    lines.insert(3, line)
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n")
    records, report = parse_canonical(src.read_text())
    assert report.malformed_examples == [f"line 4: {example}"]
    assert len(records) == 120
    rc, summary, _ = ingest_cli(tmp_path, capsys, src)
    assert rc == EXIT_OK
    assert summary["malformed_examples"] == [f"line 4: {example}"]


@pytest.mark.parametrize("cell, example", [
    ("inf", "cannot convert float infinity to integer"),
    ("-inf", "cannot convert float infinity to integer"),
    ("nan", "cannot convert float NaN to integer"),
    ("1e20", "timestamp '1e20' is out of range: |t| >= 2**53 ms"),
])
def test_raw_timestamp_out_of_range_is_malformed(tmp_path, capsys, cell,
                                                 example):
    conf = tmp_path / "vendor.conf"
    conf.write_text(ADAPTER)
    rows = [f"phone9,42,7,{k * 1000 + i * 20},{code},9,{10.0 + i},"
            f"{20.0 + i},0.4,0.2"
            for k in range(25) for i, code in enumerate("02221")]
    rows.insert(9, f"phone9,42,7,{cell},2,9,1.0,2.0,0.4,0.2")
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(rows) + "\n")
    records, report = convert_raw(raw, AdapterConfig.load(conf))
    assert report.malformed_examples == [f"line 10: {example}"]
    assert len(records) == 125
    rc, summary, _ = ingest_cli(tmp_path, capsys, raw, "--adapter", str(conf))
    assert rc == EXIT_OK
    assert summary["malformed_examples"] == [f"line 10: {example}"]
    assert summary["swipes"] == 25


def test_malformed_out_of_range_lines_count_toward_the_rate(tmp_path, capsys):
    lines = stroke_records(0, 20) + [json_record(10 ** 400)] * 3
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRateExceeded, match="3/23 lines malformed"):
        parse_canonical(src.read_text())
    rc, _, err = ingest_cli(tmp_path, capsys, src)
    assert rc == EXIT_DATA
    assert err.startswith("data error: ") and err.count("\n") == 1
