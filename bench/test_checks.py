"""Tests of the benchmark's own checks and tracer, on tiny inputs.

Every check must pass on correct input and fail on a deliberately wrong
one, so that none passes vacuously. Run with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"),
                str(BENCH.parent / "tests")]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from swipebench import protocol  # noqa: E402
from swipebench.aggregation import AggregationSpec  # noqa: E402
from swipebench.classifiers import ClassifierSpec  # noqa: E402
from swipebench.features.extract import build_feature_table  # noqa: E402
from swipebench.metrics import eer_from_scores  # noqa: E402
from swipebench.selection import select_features  # noqa: E402
from swipebench.synthetic import SyntheticSpec, generate_synthetic  # noqa: E402


def tiny_dataset(seed: int, name: str = "tiny"):
    return generate_synthetic(SyntheticSpec(
        users=3, sessions_per_user=2, swipes_per_session=5,
        separability=3.0, seed=seed, name=name))


@pytest.fixture(scope="module")
def tiny():
    data = tiny_dataset(5)
    return data, build_feature_table(data)


def test_feature_check_catches_a_perturbed_value(tiny):
    data, table = tiny
    swipes = checks.table_swipes(data)
    checks.check_feature_rows(table, swipes, range(table.n_rows))
    table.X[3, 20] *= 1.0 + 1e-7
    try:
        with pytest.raises(checks.CheckFailed, match="row 3 feature 21"):
            checks.check_feature_rows(table, swipes, [3])
    finally:
        table.X[3, 20] /= 1.0 + 1e-7


def test_feature_check_catches_a_flipped_mask(tiny):
    data, table = tiny
    table.defined[2, 9] = not table.defined[2, 9]
    try:
        with pytest.raises(checks.CheckFailed, match="defined-mask"):
            checks.check_feature_rows(table, checks.table_swipes(data), [2])
    finally:
        table.defined[2, 9] = not table.defined[2, 9]


def test_selection_check_catches_a_wrong_score_and_a_wrong_set():
    tables = [build_feature_table(tiny_dataset(s, f"t{s}")) for s in (1, 2)]
    result = select_features(tables, top_n=40)
    checks.check_selection(tables, result)
    fid = tables[0].feature_ids[5]
    good = result.f_scores["t1"][fid]
    result.f_scores["t1"][fid] = good * (1.0 + 1e-8) + 1e-8
    with pytest.raises(checks.CheckFailed, match="F"):
        checks.check_selection(tables, result)
    result.f_scores["t1"][fid] = good
    result.selected = result.selected[1:]
    with pytest.raises(checks.CheckFailed, match="oracle vote"):
        checks.check_selection(tables, result)


def test_eer_check_catches_a_nudged_eer():
    genuine, impostor = [0.9, 0.7, 0.6, 0.4], [0.5, 0.3, 0.65, 0.1]
    eer = eer_from_scores(genuine, impostor).eer
    checks.check_sampled_eers([(genuine, impostor, eer)])
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check_sampled_eers([(genuine, impostor, eer + 1e-11)])


def test_reduction_check_catches_a_mean_that_returns_the_max():
    scores = [0.2, 0.9, 0.4]
    good = [(scores, AggregationSpec(m, 3),
             checks.reference_reduce(scores, AggregationSpec(m, 3)))
            for m in ("mean", "median", "vote", "trust")]
    checks.check_sampled_reductions(good)
    with pytest.raises(checks.CheckFailed, match="mean"):
        checks.check_sampled_reductions(
            [(scores, AggregationSpec("mean", 3), max(scores))])


def test_criterion_4_check_catches_a_worse_window():
    def cells(none_w1, stacking_w5):
        eers = {"none-w1": none_w1, "mean-w5": 0.0, "stacking-w5": stacking_w5}
        return {k: SimpleNamespace(mean_eer=v) for k, v in eers.items()}
    checks.check_criterion_4(cells(0.01, 0.01), ("mean", "stacking"))
    with pytest.raises(checks.CheckFailed, match="stacking"):
        checks.check_criterion_4(cells(0.01, 0.02), ("mean", "stacking"))
    with pytest.raises(checks.CheckFailed, match="none-w1"):
        checks.check_criterion_4(cells(0.06, 0.0), ("mean", "stacking"))


def test_grid_check_catches_a_skipped_user_and_an_eer_out_of_range():
    def report(eer, skipped=0):
        summary = {"n_users_skipped": skipped, "skip_reasons": {},
                   "per_user": {"u00": [eer]}}
        return {"failures": [], "cells": {"ALL": {"knn": {"none-w1": summary}}}}
    checks.check_grid_report(report(0.25))
    with pytest.raises(checks.CheckFailed, match="skipped"):
        checks.check_grid_report(report(0.25, skipped=1))
    with pytest.raises(checks.CheckFailed, match="EER"):
        checks.check_grid_report(report(1.5))


def test_variant_check_catches_a_different_eer(tiny):
    _, table = tiny
    spec, agg = ClassifierSpec("gaussian_nb"), AggregationSpec("mean", 2)
    config = protocol.ProtocolConfig(repetitions=1)
    cell = protocol.run_experiment(table, spec, [AggregationSpec("none", 1),
                                                 agg], config)
    in_cell = cell["mean-w2"].per_user["u01"][0]
    alone = protocol.run_user_evaluation(table, "u01", spec, agg, config).eer
    checks.check_same_eer("mean-w2", alone, in_cell)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_eer("mean-w2", alone, in_cell + 1e-15)


class TinyCorpus(workloads.Corpus):
    USERS, SESSIONS, SWIPES = 3, 2, 4
    ROWS_CHECKED = 2


def test_determinism_check_catches_a_run_with_another_seed(tmp_path):
    def outputs(seed):
        workload = TinyCorpus(seed, tmp_path)
        workload.setup()
        _, failed, digest = workload.round()
        workload.check()
        assert failed == 0
        return digest

    first = outputs(1)
    checks.check_same_digest("same seed", outputs(1), first)
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_same_digest("another seed", outputs(2), first)


def test_tracer_records_nested_layers_and_restores_the_package(tiny):
    _, table = tiny
    original = protocol.eer_from_scores
    tracer = Tracer(seed=0)
    tracer.phase = "round"
    tracer.install()
    try:
        cells = protocol.run_experiment(
            table, ClassifierSpec("ensemble", params={
                "members": ("gaussian_nb", "knn")}),
            [AggregationSpec("none", 1), AggregationSpec("vote", 2)],
            protocol.ProtocolConfig(repetitions=1))
    finally:
        tracer.uninstall()
    tracer.phase_runs["round"] = 1
    assert protocol.eer_from_scores is original
    values = tracer.metrics(overhead_s=0.0)
    evals = sum(len(s.per_user) for s in cells.values())
    assert values["protocol.evals"] == values["metrics.eer_calls"] == evals
    assert values["classifiers.ensemble.train_calls"] == 3
    assert values["classifiers.knn.train_calls"] == 3
    for name in ("classifiers.ensemble.train_s", "classifiers.knn.score_s",
                 "protocol.self_s", "aggregation.reduce_s", "metrics.eer_s"):
        assert values[name] > 0.0, name
    shares = tracer.layer_shares(sum(
        end - start for _, start, end, parent, _ in tracer.spans
        if parent < 0))
    assert abs(shares["untraced"]) < 1e-9


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
