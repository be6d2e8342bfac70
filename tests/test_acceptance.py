"""Acceptance gate: one test per release criterion, each with a wall-clock
budget and a single verdict line (run with -v or -rA to see them).

Criterion 5 needs the access-gated public corpora and is skipped unless
SWIPEBENCH_DATA_DIR points at a directory of canonical exports; see the
README for file naming. Everything else is self-contained.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import build_swipe, random_swipe
from oracles import oracle_anova_f, oracle_eer, oracle_features, oracle_roc
from swipebench.aggregation import AggregationSpec
from swipebench.classifiers import ClassifierSpec, train
from swipebench.experiments import parse_config, run_matrix, write_report
from swipebench.features.catalog import X_COORD_IDS, Y_COORD_IDS
from swipebench.features.extract import build_feature_table, extract_features
from swipebench.metrics import compute_roc, eer_from_scores
from swipebench.protocol import (ProtocolConfig, evaluate_user_repetition,
                                 partition_attackers, run_experiment)
from swipebench.selection import anova_f_scores
from swipebench.synthetic import SyntheticSpec, generate_synthetic

from test_feature_properties import CHAINS
from test_gradients import numeric_gradient, relative_error
from test_metrics import fuzzed_scores


def verdict(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


def combined_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# criterion 1: module invariants on fuzzed inputs, < 5 min

def test_criterion_1_property_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(660)
    coord_idx = [fid - 1 for fid in X_COORD_IDS + Y_COORD_IDS]

    for _ in range(40):
        swipe = random_swipe(rng, integer_coords=True)
        fv = extract_features(swipe)

        # translation moves coordinate features and nothing else
        dx, dy = int(rng.integers(-300, 301)), int(rng.integers(-300, 301))
        moved = extract_features(build_swipe(
            [int(t) for t in swipe.t_ms],
            [float(x + dx) for x in swipe.xs],
            [float(y + dy) for y in swipe.ys],
            list(swipe.pressures), list(swipe.areas)))
        assert np.array_equal(fv.defined, moved.defined)
        for fid in X_COORD_IDS:
            if fv.defined[fid - 1]:
                assert combined_close(moved.values[fid - 1],
                                      fv.values[fid - 1] + dx, 1e-9)
        for fid in Y_COORD_IDS:
            if fv.defined[fid - 1]:
                assert combined_close(moved.values[fid - 1],
                                      fv.values[fid - 1] + dy, 1e-9)
        for i in range(149):
            if i not in coord_idx and fv.defined[i]:
                assert combined_close(moved.values[i], fv.values[i], 1e-9), i

        # a clock offset changes nothing at all
        shifted = extract_features(build_swipe(
            [int(t) + 7919 for t in swipe.t_ms], list(swipe.xs),
            list(swipe.ys), list(swipe.pressures), list(swipe.areas)))
        assert np.array_equal(fv.values, shifted.values)
        assert np.array_equal(fv.defined, shifted.defined)

        # ordered percentile families stay ordered
        for ids, what in CHAINS:
            vals = [fv.value(fid) for fid in ids]
            assert all(lo <= hi + 1e-9 for lo, hi in zip(vals, vals[1:])), what

        assert fv.value(6) >= fv.value(76) - 1e-9      # path >= endpoint gap
        assert 0.0 <= fv.value(11) <= 1.0 + 1e-12      # direction concentration

    # rank statistics are immune to monotone score rescaling
    for _ in range(30):
        g = rng.integers(-512, 512, size=int(rng.integers(2, 40))) / 64.0
        i = rng.integers(-512, 512, size=int(rng.integers(2, 40))) / 64.0
        base = eer_from_scores(g, i).eer
        assert eer_from_scores(g ** 3 / 8.0 + g, i ** 3 / 8.0 + i).eer == base
        assert eer_from_scores(2.5 * g - 3.0, 2.5 * i - 3.0).eer == base

    # the combining classifier is an exact average of its members
    X = np.vstack([rng.normal(4.0, 1.0, size=(25, 6)),
                   rng.normal(0.0, 1.0, size=(25, 6))])
    y = np.concatenate([np.ones(25), np.zeros(25)])
    model = train(ClassifierSpec(kind="ensemble", params={
        "members": ("gaussian_nb", "knn", "logistic_regression")}, seed=5),
        X, y)
    probe = rng.normal(1.0, 2.0, size=(20, 6))
    member = [m.score(probe) for m in model.models]
    np.testing.assert_array_equal(
        model.score(probe), ((member[0] + member[1]) + member[2]) / 3)

    # attacker groups are always disjoint and exhaustive
    for _ in range(50):
        ids = [f"u{i:02d}" for i in range(int(rng.integers(2, 21)))]
        a, b = partition_attackers(ids, rng)
        assert set(a) | set(b) == set(ids) and not set(a) & set(b)

    # training and test sets balance positives against negatives, with
    # the protocol's internal no-leakage assertions active throughout
    table = build_feature_table(generate_synthetic(SyntheticSpec(
        users=5, sessions_per_user=3, swipes_per_session=10,
        separability=2.0, seed=51)))
    res = evaluate_user_repetition(
        table, "u01", ClassifierSpec(kind="knn"),
        [AggregationSpec("none", 1), AggregationSpec("mean", 3)],
        ProtocolConfig(), repetition=0)
    for key, outcome in res.items():
        c = outcome.counts
        assert c["n_train_pos"] == c["n_train_neg"], key
        assert c["n_test_genuine"] == c["n_test_impostor"], key

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"property suite took {elapsed:.0f}s"
    verdict("criterion-1 property suite",
            f"all invariants held on fuzzed inputs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence

def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        g, i = fuzzed_scores(rng)
        roc = compute_roc(g, i)
        thr_o, far_o, frr_o = oracle_roc(g, i)
        np.testing.assert_allclose(roc.thresholds, thr_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(roc.far, far_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(roc.frr, frr_o, rtol=0, atol=1e-12)
        eer_o, thr_at = oracle_eer(g, i)
        res = eer_from_scores(g, i)
        assert abs(res.eer - eer_o) <= 1e-12
        assert abs(res.threshold - thr_at) <= 1e-12

    for _ in range(50):
        k = int(rng.integers(2, 6))
        sizes = rng.integers(3, 12, size=k)
        cols = int(rng.integers(1, 8))
        blocks, labels = [], []
        for g_i, size in enumerate(sizes):
            shift = rng.normal(0.0, 2.0, size=cols)
            blocks.append(rng.normal(shift, 1.0, size=(size, cols)))
            labels += [f"g{g_i}"] * int(size)
        Xg = np.vstack(blocks)
        f = anova_f_scores(Xg, labels)
        f_o = oracle_anova_f([Xg[:, j].tolist() for j in range(cols)], labels)
        np.testing.assert_allclose(f, f_o, rtol=1e-9, atol=1e-9)

    worst = 0.0
    for _ in range(50):
        swipe = random_swipe(rng)
        prev = int(swipe.t_ms[0]) - int(rng.integers(1, 5000))
        fv = extract_features(swipe, prev_end_ms=prev)
        vals, defined = oracle_features(
            [int(v) for v in swipe.t_ms], list(swipe.xs), list(swipe.ys),
            list(swipe.pressures), list(swipe.areas), prev)
        for i in range(149):
            assert bool(fv.defined[i]) == bool(defined[i]), f"id {i + 1}"
            a, b = float(fv.values[i]), float(vals[i])
            gap = abs(a - b) / max(1.0, abs(a), abs(b))
            worst = max(worst, gap)
            assert gap <= 1e-9, f"id {i + 1}: {a} != {b}"

    verdict("criterion-2 oracle equivalence",
            "ROC/EER to 1e-12 on 100 sets, variance-ratio scores to 1e-9 "
            f"on 50 fixtures, features to 1e-9 on 50 swipes "
            f"(worst relative gap {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 3: gradient checks, < 1 min

def test_criterion_3_gradient_checks():
    from swipebench.classifiers.neural import MlpNetwork
    from swipebench.stacking import LstmStacker

    t0 = time.monotonic()
    errs = {}
    rng = np.random.default_rng(31415)
    mlp = MlpNetwork(d_in=5, hidden=(8, 6), bn_momentum=0.99, bn_eps=1e-3,
                     rng=rng)
    X = rng.normal(size=(12, 5))
    y = (rng.random(12) < 0.5).astype(float)
    params0 = mlp.param_vector()
    _, analytic = mlp.loss_and_grad(X, y)

    def mlp_loss(p):
        mlp.set_param_vector(p)
        return mlp.loss_and_grad(X, y)[0]

    idx, numeric = numeric_gradient(mlp_loss, params0, sample=200, rng=rng)
    errs["mlp"] = relative_error(analytic[idx], numeric)

    rng = np.random.default_rng(27182)
    lstm = LstmStacker(hidden=20, rng=rng)
    S = rng.normal(size=(6, 5))
    ys = (rng.random(6) < 0.5).astype(float)
    params0 = lstm.param_vector()
    _, analytic = lstm.loss_and_grad(S, ys)

    def lstm_loss(p):
        lstm.set_param_vector(p)
        return lstm.loss_and_grad(S, ys)[0]

    idx, numeric = numeric_gradient(lstm_loss, params0, sample=300, rng=rng)
    errs["lstm"] = relative_error(analytic[idx], numeric)

    elapsed = time.monotonic() - t0
    assert errs["mlp"] < 1e-4, errs
    assert errs["lstm"] < 1e-4, errs
    assert elapsed < 60.0, f"gradient checks took {elapsed:.0f}s"
    verdict("criterion-3 gradient checks",
            f"relative errors mlp={errs['mlp']:.2e} lstm={errs['lstm']:.2e} "
            f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: synthetic end-to-end, < 10 min

METHODS_UNDER_TEST = ("mean", "median", "vote", "feed", "trust", "stacking")


def synthetic_table(separability: float, seed: int):
    return build_feature_table(generate_synthetic(SyntheticSpec(
        users=10, sessions_per_user=4, swipes_per_session=40,
        separability=separability, seed=seed)))


@pytest.mark.slow
def test_criterion_4_synthetic_end_to_end():
    t0 = time.monotonic()
    ensemble = ClassifierSpec(kind="ensemble")
    # three repetitions keep the full sweep inside the time budget while
    # still averaging over attacker partitions
    cfg = ProtocolConfig(repetitions=3, seed=0)

    separable = synthetic_table(separability=8.0, seed=424)
    specs = [AggregationSpec("none", 1)]
    specs += [AggregationSpec(m, w)
              for m in METHODS_UNDER_TEST for w in (1, 5)]
    cells = run_experiment(separable, ensemble, specs, cfg)

    single = cells["none-w1"].mean_eer
    assert single is not None and single <= 0.05, single

    for m in METHODS_UNDER_TEST:
        w1 = cells[f"{m}-w1"].mean_eer
        w5 = cells[f"{m}-w5"].mean_eer
        assert w1 is not None and w5 is not None, m
        assert w5 <= w1 + 1e-12, (m, w1, w5)

    chance = build_feature_table(generate_synthetic(SyntheticSpec(
        users=10, sessions_per_user=4, swipes_per_session=40,
        separability=0.0, seed=424)))
    flat = run_experiment(chance, ensemble, [AggregationSpec("none", 1)],
                          cfg)["none-w1"].mean_eer
    assert flat is not None and 0.40 <= flat <= 0.60, flat

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"end-to-end run took {elapsed:.0f}s"
    verdict("criterion-4 synthetic end-to-end",
            f"separable EER {single * 100:.2f}% <= 5%, chance EER "
            f"{flat * 100:.1f}% in [40, 60], window-5 <= window-1 for all "
            f"{len(METHODS_UNDER_TEST)} methods, in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: reference results on the public corpora (opt-in)

DATA_DIR = os.environ.get("SWIPEBENCH_DATA_DIR")

# expected mean EERs in percent, +/- 2.0 points
REFERENCE_SINGLE = {"svm_rbf": 12.57, "random_forest": 13.00,
                    "neural_net": 12.36, "ensemble": 11.67}
REFERENCE_W5 = {"mean": 6.35, "median": 6.47, "vote": 10.59,
                "feed": 7.07, "trust": 6.55, "stacking": 6.28}
REFERENCE_W16_STACKING = 4.80
TOLERANCE_POINTS = 2.0


def _reference_table():
    root = Path(DATA_DIR)
    for name in ("cep.csv", "cep.jsonl"):
        if (root / name).exists():
            from swipebench.experiments import (anova_default_ids,
                                                load_experiment_dataset)
            dataset, _ = load_experiment_dataset({"path": str(root / name)})
            return build_feature_table(dataset).select(anova_default_ids())
    pytest.skip(f"no cep.csv / cep.jsonl under {DATA_DIR}")


@pytest.mark.skipif(not DATA_DIR, reason="SWIPEBENCH_DATA_DIR not set")
def test_criterion_5_reference_reproduction():
    table = _reference_table()
    cfg = ProtocolConfig(repetitions=10, seed=0)

    absolute_misses = []
    orderings = []

    single = {}
    for kind, target in REFERENCE_SINGLE.items():
        cell = run_experiment(table, ClassifierSpec(kind=kind),
                              [AggregationSpec("none", 1)], cfg)["none-w1"]
        assert cell.mean_eer is not None, kind
        single[kind] = cell.mean_eer * 100.0
        if abs(single[kind] - target) > TOLERANCE_POINTS:
            absolute_misses.append(
                f"{kind} {single[kind]:.2f} vs {target:.2f}")
    orderings.append(("combined model at or below each single model",
                      single["ensemble"] <= min(single["svm_rbf"],
                                                single["random_forest"],
                                                single["neural_net"]) + 1e-9))

    specs = [AggregationSpec(m, 5) for m in REFERENCE_W5]
    specs.append(AggregationSpec("stacking", 16))
    cells = run_experiment(table, ClassifierSpec(kind="ensemble"), specs, cfg)
    w5 = {}
    for m, target in REFERENCE_W5.items():
        value = cells[f"{m}-w5"].mean_eer
        assert value is not None, m
        w5[m] = value * 100.0
        if abs(w5[m] - target) > TOLERANCE_POINTS:
            absolute_misses.append(f"{m}-w5 {w5[m]:.2f} vs {target:.2f}")
    orderings.append(("vote is the worst window-5 method",
                      max(w5, key=w5.get) == "vote"))

    w16 = cells["stacking-w16"].mean_eer
    assert w16 is not None
    w16 *= 100.0
    if abs(w16 - REFERENCE_W16_STACKING) > TOLERANCE_POINTS:
        absolute_misses.append(
            f"stacking-w16 {w16:.2f} vs {REFERENCE_W16_STACKING:.2f}")

    failed_orderings = [name for name, ok in orderings if not ok]
    assert not failed_orderings, failed_orderings
    if absolute_misses:
        pytest.xfail("partial reproduction; orderings hold but absolute "
                     f"tolerances missed: {absolute_misses}")
    verdict("criterion-5 reference reproduction",
            f"single {single}, window-5 {w5}, stacking-w16 {w16:.2f}, "
            f"all within +/-{TOLERANCE_POINTS} points")


# ---------------------------------------------------------------------------
# criterion 6: determinism of the full report

def test_criterion_6_determinism(tmp_path):
    doc = {
        "dataset": {"synthetic": {"users": 6, "sessions_per_user": 3,
                                  "swipes_per_session": 12,
                                  "separability": 4.0, "seed": 3}},
        "feature_set": ["frank2013", [1, 2, 3, 76, 99]],
        "classifier": ["knn", "logistic_regression"],
        "aggregation": [{"method": "none", "window": 1},
                        {"method": "mean", "window": 3}],
        "protocol": {"repetitions": 2, "seed": 0},
    }
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        write_report(run_matrix(parse_config(doc)), d)

    csv_names = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert csv_names == ["aggregation_row.csv", "matrix_mean-w3.csv",
                         "matrix_none-w1.csv"]
    for name in csv_names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    jsons = []
    for d in dirs:
        parsed = json.loads((d / "report.json").read_text())
        timing = parsed.pop("timing")
        assert set(timing) == {"wall_time_s"}
        jsons.append(json.dumps(parsed, sort_keys=True))
    assert jsons[0] == jsons[1]
    verdict("criterion-6 determinism",
            "CSV reports byte-identical; JSON identical outside the "
            "wall-clock timing block")
