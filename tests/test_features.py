"""Feature extraction against the independent definitional oracle."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import build_swipe, dataset_from_sessions, random_swipe
from bitwise_oracles import o_compute_kinematics, o_extract_features
from oracles import oracle_features
from swipebench.errors import EmptyMatrix
from swipebench.features.catalog import ALL_IDS
from swipebench.features import extract
from swipebench.features.extract import (build_feature_table,
                                         export_table_csv, export_table_json,
                                         extract_features)
from swipebench.touchdata import Dataset, Session, UserData

GOLDEN = Path(__file__).parent / "data" / "golden_feature_vector.json"

N_FUZZED = 60
FUZZ_SEED = 7741


def assert_vectors_match(fv, vals, defined, tol=1e-9):
    for i in range(149):
        fid = i + 1
        assert bool(fv.defined[i]) == bool(defined[i]), f"id {fid} mask"
        a, b = float(fv.values[i]), float(vals[i])
        bound = tol * max(1.0, abs(a), abs(b))
        assert abs(a - b) <= bound, f"id {fid}: {a} != {b}"


def oracle_of(swipe, prev_end_ms=None):
    return oracle_features(
        [int(v) for v in swipe.t_ms], list(swipe.xs), list(swipe.ys),
        list(swipe.pressures), list(swipe.areas), prev_end_ms)


def golden_swipe():
    doc = json.loads(GOLDEN.read_text())
    sw = doc["swipe"]
    swipe = build_swipe(sw["t_ms"], sw["x"], sw["y"], sw["pressure"],
                        sw["area"])
    return doc, swipe


def test_golden_vector_matches_extraction():
    doc, swipe = golden_swipe()
    fv = extract_features(swipe, prev_end_ms=doc["swipe"]["prev_end_ms"])
    assert_vectors_match(fv, doc["values"], doc["defined"])
    assert all(doc["defined"])


def test_golden_vector_matches_oracle_recomputation():
    # guards the frozen file against accidental edits of either side
    doc, swipe = golden_swipe()
    vals, defined = oracle_of(swipe, doc["swipe"]["prev_end_ms"])
    assert vals == pytest.approx(doc["values"], abs=0, rel=0)
    assert defined == doc["defined"]


def test_fuzzed_swipes_match_oracle():
    rng = np.random.default_rng(FUZZ_SEED)
    for case in range(N_FUZZED):
        swipe = random_swipe(rng)
        prev = int(swipe.start_ms - rng.integers(50, 4000))
        fv = extract_features(swipe, prev_end_ms=prev)
        vals, defined = oracle_of(swipe, prev)
        assert_vectors_match(fv, vals, defined)


def test_minimum_length_swipe_matches_oracle():
    swipe = build_swipe([100, 112, 125, 140], [10.0, 30.0, 55.0, 85.0],
                        [20.0, 28.0, 31.0, 44.0],
                        [0.2, 0.4, 0.5, 0.3], [0.1, 0.2, 0.25, 0.15])
    fv = extract_features(swipe)
    vals, defined = oracle_of(swipe)
    assert_vectors_match(fv, vals, defined)
    # n=4: kurtosis needs 4 obs (segments have 3), turn angles have 2
    for fid in (81, 91, 92, 107, 108):
        assert not fv.is_defined(fid)
    assert fv.is_defined(80)


def test_inter_stroke_time_masked_without_context():
    swipe = build_swipe([0, 15, 30, 50], [0, 10, 20, 30], [0, 5, 15, 30])
    fv = extract_features(swipe)
    assert not fv.is_defined(10)
    fv2 = extract_features(swipe, prev_end_ms=-120)
    assert fv2.is_defined(10)
    assert fv2.value(10) == 120.0


def test_stationary_swipe_masks_ratio_features():
    swipe = stationary_swipe()
    fv = extract_features(swipe)
    for fid in (18, 75, 77, 147, 148):
        assert not fv.is_defined(fid), fid
    assert fv.value(6) == 0.0 and fv.value(9) == 0.0
    # trajectory has zero length, so the pressure fit runs on sample index
    vals, defined = oracle_of(swipe)
    assert_vectors_match(fv, vals, defined)
    assert fv.is_defined(133)


def test_straight_horizontal_swipe():
    xs = [10.0, 40.0, 80.0, 130.0, 190.0]
    swipe = build_swipe([0, 12, 26, 43, 61], xs, [300.0] * 5)
    fv = extract_features(swipe)
    assert fv.value(15) == 0.0          # rightward sector
    assert fv.value(28) == 0.0          # no chord deviation anywhere
    assert fv.value(149) == 1.0
    assert fv.value(85) == 0.0 and fv.is_defined(85)
    assert fv.value(6) == pytest.approx(fv.value(9))
    assert_vectors_match(fv, *oracle_of(swipe))


def test_sector_feature_covers_all_quadrants():
    def sector_of(dx, dy):
        swipe = build_swipe([0, 15, 30, 50],
                            [0.0, dx / 3, 2 * dx / 3, dx],
                            [0.0, dy / 3, 2 * dy / 3, dy])
        return extract_features(swipe).value(15)

    assert sector_of(100.0, 0.0) == 0.0      # right
    assert sector_of(0.0, 100.0) == 1.0      # down on screen
    assert sector_of(-100.0, 0.0) == 2.0     # left
    assert sector_of(0.0, -100.0) == 3.0     # up
    assert sector_of(100.0, 100.0) == 1.0    # boundary goes to down
    assert sector_of(100.0, -100.0) == 0.0   # boundary goes to right


def test_nan_pressure_masks_pressure_features():
    pr = [0.2, float("nan"), 0.5, 0.4]
    swipe = build_swipe([0, 15, 30, 50], [0, 10, 25, 45], [5, 15, 30, 50],
                        pr, [0.1, 0.2, 0.3, 0.2])
    fv = extract_features(swipe)
    for fid in (35, 38, 40, 44, 48, 112, 113, 115, 116,
                121, 122, 123, 124, 133, 134, 135):
        assert not fv.is_defined(fid), fid
    # area-side features stay defined
    for fid in (30, 36, 37, 41, 58, 117, 118):
        assert fv.is_defined(fid), fid
    # single-sample lookups hit finite samples here and stay defined
    assert fv.is_defined(29) and fv.value(29) == 0.2
    assert fv.is_defined(59) and fv.value(59) == 0.4
    # mid-sample pressure is index 1 here, the NaN itself
    assert not fv.is_defined(7)


def test_largest_deviation_point_block():
    # spike at index 2 is the unique farthest point from the chord
    swipe = build_swipe([0, 10, 25, 40, 55, 70],
                        [0.0, 20.0, 40.0, 60.0, 80.0, 100.0],
                        [0.0, 2.0, 60.0, 4.0, 2.0, 0.0],
                        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                        [0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    fv = extract_features(swipe)
    assert fv.value(64) == 40.0 and fv.value(65) == 60.0
    assert fv.value(66) == 0.4 and fv.value(67) == 0.3
    assert fv.value(69) == 25.0 and fv.value(72) == 45.0
    assert fv.value(70) == pytest.approx(math.hypot(40.0, 60.0))
    assert fv.value(73) == pytest.approx(math.hypot(60.0, 60.0))
    assert fv.value(75) == pytest.approx(math.hypot(40.0, 60.0) / 100.0)
    assert_vectors_match(fv, *oracle_of(swipe))


def test_feature_vector_accessors():
    _, swipe = golden_swipe()
    fv = extract_features(swipe)
    assert fv.value(5) == float(fv.values[4])


# Quantile, IQR and moment ids, read from the series they summarise.
# These are checked with ==: the 1e-9 oracle comparisons above would not
# notice a reordering of the arithmetic that moves the last bit.
QUANTILE_IDS = {
    19: ("vel", 20), 20: ("vel", 50), 21: ("vel", 80),
    22: ("acc", 20), 23: ("acc", 50), 24: ("acc", 80),
    25: ("dev", 20), 26: ("dev", 50), 27: ("dev", 80),
    44: ("pr", 25), 45: ("ar", 25), 46: ("vel", 25), 47: ("acc", 25),
    48: ("pr", 75), 49: ("ar", 75), 50: ("vel", 75), 51: ("acc", 75),
    141: ("dxm", 20), 142: ("dym", 20), 145: ("dxm", 80), 146: ("dym", 80),
}
IQR_IDS = {79: "seg", 84: "dev", 90: "pa", 96: "ph", 100: "vel", 106: "av",
           109: "acc", 112: "pr"}
# skewness at the id, excess kurtosis at the id + 1
SHAPE_IDS = {80: "seg", 85: "dev", 91: "pa", 97: "ph", 101: "vel",
             107: "av", 110: "acc", 113: "pr"}


def series_of(swipe):
    kin = o_compute_kinematics(swipe)
    xs, ys = swipe.xs, swipe.ys
    return {"vel": kin.velocity, "acc": kin.acceleration,
            "dev": kin.deviation, "seg": kin.seg_len,
            "pa": kin.pairwise_angle, "ph": kin.phase_angle,
            "av": kin.angular_velocity,
            "pr": swipe.pressures, "ar": swipe.areas,
            "dxm": np.abs(xs - xs.mean()), "dym": np.abs(ys - ys.mean())}


def two_pass_skewness(a):
    if len(a) < 3:
        return 0.0, False
    d = a - a.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return 0.0, True
    return float(np.mean(d ** 3) / m2 ** 1.5), True


def two_pass_kurtosis(a):
    if len(a) < 4:
        return 0.0, False
    d = a - a.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return 0.0, True
    return float(np.mean(d ** 4) / (m2 * m2) - 3.0), True


def assert_slot(fv, fid, value, defined=True):
    """The slot holds exactly value, or is masked to 0 when value is
    undefined or not finite."""
    if defined and math.isfinite(value):
        assert fv.is_defined(fid), fid
        assert fv.value(fid) == value, fid
    else:
        assert not fv.is_defined(fid), fid
        assert fv.value(fid) == 0.0, fid


def degenerate_swipes():
    t = [0, 20, 40, 60, 80, 100, 120, 140]
    constant_velocity = build_swipe(t, [10.0 * i for i in range(8)],
                                    [300.0] * 8)
    nan_area = build_swipe([0, 15, 30, 50, 64], [0, 10, 25, 45, 50],
                           [5, 15, 30, 50, 61], [0.2, 0.3, 0.5, 0.4, 0.3],
                           [0.1, float("nan"), 0.3, 0.2, 0.2])
    nan_pressure = build_swipe([0, 15, 30, 50, 64], [0, 10, 25, 45, 50],
                               [5, 15, 30, 50, 61],
                               [0.2, float("nan"), 0.5, 0.4, 0.3],
                               [0.1, 0.2, 0.3, 0.2, 0.2])
    minimum = build_swipe([100, 112, 125, 140], [10.0, 30.0, 55.0, 85.0],
                          [20.0, 28.0, 31.0, 44.0],
                          [0.2, 0.4, 0.5, 0.3], [0.1, 0.2, 0.25, 0.15])
    return [constant_velocity, nan_area, nan_pressure, minimum]


def test_quantile_and_moment_ids_are_bitwise_reference_values():
    rng = np.random.default_rng(FUZZ_SEED)
    swipes = [random_swipe(rng) for _ in range(N_FUZZED)]
    swipes += degenerate_swipes()
    for swipe in swipes:
        fv = extract_features(swipe)
        series = series_of(swipe)
        for fid, (name, q) in QUANTILE_IDS.items():
            assert_slot(fv, fid, float(np.percentile(series[name], q)))
        for fid, name in IQR_IDS.items():
            a = series[name]
            if len(a):
                assert_slot(fv, fid, float(np.percentile(a, 75)
                                           - np.percentile(a, 25)))
            else:
                assert_slot(fv, fid, 0.0, defined=False)
        for fid, name in SHAPE_IDS.items():
            assert_slot(fv, fid, *two_pass_skewness(series[name]))
            assert_slot(fv, fid + 1, *two_pass_kurtosis(series[name]))


def test_degenerate_quantile_and_moment_paths():
    constant_velocity, nan_area, nan_pressure, minimum = degenerate_swipes()
    fv = extract_features(constant_velocity)
    # zero variance: skewness and kurtosis are defined as 0
    for fid in (101, 102, 110, 111, 85, 86):
        assert fv.is_defined(fid) and fv.value(fid) == 0.0, fid
    assert fv.value(100) == 0.0 and fv.value(20) == 500.0
    fv = extract_features(nan_area)
    for fid in (45, 49):
        assert not fv.is_defined(fid), fid
    fv = extract_features(nan_pressure)
    for fid in (44, 48, 112, 113, 114):
        assert not fv.is_defined(fid), fid
    fv = extract_features(minimum)
    # 3 segments: skewness defined, kurtosis not; 2 turn angles: neither
    assert fv.is_defined(80) and not fv.is_defined(81)
    for fid in (91, 92, 107, 108):
        assert not fv.is_defined(fid), fid


def test_one_percentile_call_per_series(monkeypatch):
    calls = []
    real = np.percentile

    def counting(a, q, *args, **kw):
        calls.append(a)
        return real(a, q, *args, **kw)

    monkeypatch.setattr(extract.np, "percentile", counting)
    swipe = random_swipe(np.random.default_rng(5), n=24)
    fv = extract_features(swipe, prev_end_ms=swipe.start_ms - 100)
    assert all(fv.defined)
    # vel, acc, dev, pr, ar, seg, pa, ph, av and the two centre distances
    assert len(calls) == 11
    assert len({id(a) for a in calls}) == 11


def test_statistics_table_declares_catalog_ids_once():
    declared = []
    for name, stats in extract.STATISTICS.items():
        for stat, fids in stats.items():
            assert stat in ("first", "last", "mean", "std", "min", "max",
                            "median", "iqr", "skew", "kurt") or (
                stat[0] == "p" and 0 <= int(stat[1:]) <= 100), (name, stat)
            declared += [fids] if isinstance(fids, int) else list(fids)
        # one skew_kurtosis call gives both
        assert ("skew" in stats) == ("kurt" in stats), name
    assert set(declared) <= set(ALL_IDS)
    assert len(declared) == len(set(declared)) == 100
    # the catalog's two duplicate slots are the only ids sharing a value
    shared = {(name, stat): fids for name, stats in extract.STATISTICS.items()
              for stat, fids in stats.items() if not isinstance(fids, int)}
    assert shared == {("ph", "mean"): (32, 93), ("ph", "last"): (56, 61)}


def stationary_swipe():
    return build_swipe([0, 20, 40, 60, 80], [50.0] * 5, [70.0] * 5,
                       [0.3, 0.4, 0.5, 0.4, 0.3], [0.2] * 5)


def hypot_sensitive_swipe():
    """Its one interior chord has a length where math.hypot and np.hypot
    differ in the last bit, and id 34 shows the difference."""
    return build_swipe([0, 15, 32], [254.8, 460.3, 326.8],
                       [1369.2, 560.0, 1294.2])


def mixed_length_swipe(rng, n):
    """A random swipe of n samples, sometimes with integer coordinates,
    repeated points or a NaN in its pressure or area channel."""
    swipe = random_swipe(rng, n=n, integer_coords=bool(rng.integers(2)))
    xs, ys = swipe.xs.copy(), swipe.ys.copy()
    pr, ar = swipe.pressures.copy(), swipe.areas.copy()
    kind = int(rng.integers(5))
    if kind == 1:
        pr[rng.integers(n)] = np.nan
    elif kind == 2:
        ar[rng.integers(n)] = np.nan
    elif kind == 3:       # a point repeated: zero segments and chords
        i = int(rng.integers(1, n))
        xs[i], ys[i] = xs[i - 1], ys[i - 1]
    elif kind == 4:       # back where it started: a zero-length chord
        xs[-1], ys[-1] = xs[0], ys[0]
    return build_swipe(swipe.t_ms.astype(int).tolist(), xs.tolist(),
                       ys.tolist(), pr.tolist(), ar.tolist())


def mixed_length_dataset(seed):
    """Several users and sessions whose swipe lengths repeat, with the
    degenerate swipes in the same length groups as ordinary ones."""
    rng = np.random.default_rng(seed)
    swipes = degenerate_swipes() + [stationary_swipe(),
                                    hypot_sensitive_swipe()]
    swipes += [mixed_length_swipe(rng, int(n))
               for n in rng.choice([3, 4, 5, 8, 13, 40], size=60)]
    order = rng.permutation(len(swipes))
    per_user = {}
    for pos, i in enumerate(order):
        user = f"u{pos % 3}"
        session = f"s{pos % 2}"
        per_user.setdefault(user, {}).setdefault(session, []).append(
            swipes[i])
    return dataset_from_sessions(per_user, name=f"mixed{seed}")


def reference_table(dataset, ids):
    """Rows from the per-swipe reference, in table order."""
    idx = np.asarray(ids) - 1
    rows, defs = [], []
    for user_id in dataset.user_ids():
        for session in dataset.users[user_id].sessions:
            prev = None
            for swipe in session.swipes:
                vals, defined = o_extract_features(swipe, prev_end_ms=prev)
                rows.append(vals[idx])
                defs.append(defined[idx])
                prev = swipe.end_ms
    return np.vstack(rows), np.vstack(defs)


@pytest.mark.parametrize("ids", [tuple(range(1, 150)),
                                 (1, 10, 17, 34, 37, 80, 133, 149)])
def test_table_equals_per_swipe_reference_bitwise(ids):
    for seed in (11, 12, 13):
        dataset = mixed_length_dataset(seed)
        table = build_feature_table(dataset).select(list(ids))
        X, defined = reference_table(dataset, ids)
        assert table.feature_ids == ids
        assert np.array_equal(table.defined, defined)
        assert np.array_equal(table.X, X)
        lengths = [s.n for u in dataset.users.values() for se in u.sessions
                   for s in se.swipes]
        assert len(set(lengths)) < len(lengths) // 5


def test_one_swipe_extraction_equals_per_swipe_reference_bitwise():
    rng = np.random.default_rng(FUZZ_SEED)
    swipes = [mixed_length_swipe(rng, int(rng.integers(3, 61)))
              for _ in range(2 * N_FUZZED)]
    swipes += degenerate_swipes() + [stationary_swipe(),
                                     hypot_sensitive_swipe()]
    for swipe in swipes:
        for prev in (None, swipe.start_ms - 75):
            fv = extract_features(swipe, prev_end_ms=prev)
            vals, defined = o_extract_features(swipe, prev_end_ms=prev)
            assert np.array_equal(fv.defined, defined)
            assert np.array_equal(fv.values, vals)


def test_table_calls_percentile_per_length_not_per_swipe(monkeypatch):
    calls = []
    real = np.percentile

    def counting(a, q, *args, **kw):
        calls.append(np.shape(a))
        return real(a, q, *args, **kw)

    monkeypatch.setattr(extract.np, "percentile", counting)
    rng = np.random.default_rng(9)
    lengths = [5, 9, 14, 22]
    sessions = {f"s{n}": [random_swipe(rng, n=n) for _ in range(6)]
                for n in lengths}
    table = build_feature_table(dataset_from_sessions({"u": sessions}))
    assert table.n_rows == 6 * len(lengths)
    # the eleven series of test_one_percentile_call_per_series, once per
    # length group, each a block of that group's six swipes
    assert len(calls) == 11 * len(lengths)
    assert {shape[0] for shape in calls} == {6}


def test_exports_match_cell_by_cell_reference():
    table = build_feature_table(make_two_session_dataset())
    lines = [",".join(["dataset", "user_id", "session_id", "row"]
                      + [f"f{fid}" for fid in table.feature_ids])]
    for i in range(table.n_rows):
        cells = [table.dataset_name, table.user_ids[i], table.session_ids[i],
                 str(i)]
        cells += [repr(float(table.X[i, j])) if table.defined[i, j] else ""
                  for j in range(len(table.feature_ids))]
        lines.append(",".join(cells))
    assert export_table_csv(table) == "\n".join(lines) + "\n"

    doc = export_table_json(table)
    assert doc["feature_ids"] == list(table.feature_ids)
    for i, row in enumerate(doc["rows"]):
        assert row["row"] == i and row["user_id"] == table.user_ids[i]
        assert row["values"] == {str(fid): float(table.X[i, j])
                                 for j, fid in enumerate(table.feature_ids)}
        assert row["undefined"] == [
            fid for j, fid in enumerate(table.feature_ids)
            if not table.defined[i, j]]


def test_csv_export_bytes_with_blanks_signed_zero_and_exponents():
    X = np.array([[-0.0, 1e16, 1e-05, 2.5],
                  [np.nan, 0.0, -1e16, np.inf],
                  [0.1, -1e-05, 7.0, 3.0]])
    defined = np.array([[True, True, True, False],
                        [False, True, True, False],
                        [True, True, True, True]])
    table = extract.FeatureTable(
        dataset_name="d", feature_ids=(3, 1, 149, 7), X=X, defined=defined,
        user_ids=["u0", "u0", "u1"], session_ids=["s0", "s1", "s0"],
        user_sessions={})
    assert export_table_csv(table) == (
        "dataset,user_id,session_id,row,f3,f1,f149,f7\n"
        "d,u0,s0,0,-0.0,1e+16,1e-05,\n"
        "d,u0,s1,1,,0.0,-1e+16,\n"
        "d,u1,s0,2,0.1,-1e-05,7.0,3.0\n")


def make_two_session_dataset():
    rng = np.random.default_rng(42)
    s1 = [random_swipe(rng, user="ua", session="s1") for _ in range(3)]
    s2 = [random_swipe(rng, user="ua", session="s2") for _ in range(2)]
    sb = [random_swipe(rng, user="ub", session="s9") for _ in range(4)]
    users = {
        "ua": UserData(user_id="ua", sessions=[
            Session(session_id="s1", device_model="d", swipes=s1),
            Session(session_id="s2", device_model="d", swipes=s2)]),
        "ub": UserData(user_id="ub", sessions=[
            Session(session_id="s9", device_model="d", swipes=sb)]),
    }
    return Dataset(name="two", users=users)


def test_build_feature_table_layout():
    ds = make_two_session_dataset()
    table = build_feature_table(ds)
    assert table.X.shape == (9, 149)
    assert table.defined.shape == (9, 149)
    assert table.user_ids == ["ua"] * 5 + ["ub"] * 4
    assert table.session_ids == ["s1", "s1", "s1", "s2", "s2"] + ["s9"] * 4
    assert [sid for sid, _ in table.user_sessions["ua"]] == ["s1", "s2"]
    assert [idx.tolist() for _, idx in table.user_sessions["ub"]] == \
        [[5, 6, 7, 8]]


def test_build_feature_table_threads_inter_stroke_time():
    ds = make_two_session_dataset()
    table = build_feature_table(ds)
    col10 = 9  # feature id 10 lives at column index 9
    defined10 = table.defined[:, col10]
    # first swipe of each session has no predecessor
    assert not defined10[0] and not defined10[3] and not defined10[5]
    assert defined10[1] and defined10[2] and defined10[4]
    swipes = ds.users["ua"].sessions[0].swipes
    expected = swipes[1].start_ms - swipes[0].end_ms
    assert table.X[1, col10] == float(expected)


def test_table_select_subsets_columns():
    table = build_feature_table(make_two_session_dataset())
    sub = table.select([5, 9, 120])
    assert sub.feature_ids == (5, 9, 120)
    np.testing.assert_array_equal(sub.X[:, 0], table.X[:, 4])
    np.testing.assert_array_equal(sub.X[:, 2], table.X[:, 119])
    sub2 = sub.select([9])
    np.testing.assert_array_equal(sub2.X[:, 0], table.X[:, 8])
    with pytest.raises(EmptyMatrix):
        sub.select([6])
    # the selection owns C-ordered arrays: writing into them leaves the
    # table as it was
    assert sub.X.flags.c_contiguous and sub.defined.flags.c_contiguous
    X, defined = table.X.copy(), table.defined.copy()
    sub.X[:] = -1.0
    sub.defined[:] = ~sub.defined
    assert table.X.tobytes() == X.tobytes()
    assert table.defined.tobytes() == defined.tobytes()


def test_empty_dataset_raises():
    with pytest.raises(EmptyMatrix):
        build_feature_table(Dataset(name="empty", users={}))
