"""Experiment config parsing and the grid runner."""

import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import re
from pathlib import Path

import pytest

import swipebench.experiments as experiments
from swipebench.classifiers import ClassifierSpec
from swipebench.errors import (ConfigError, DataError, TooFewSamples,
                               UnknownFeatureId)
from swipebench.features.extract import build_feature_table
from swipebench.ingest import load_canonical, write_canonical
from swipebench.experiments import (MatrixReport, aggregation_row_csv,
                                    anova_default_ids, load_config,
                                    load_experiment_dataset, matrix_csv,
                                    parse_config, resolve_feature_set,
                                    run_matrix, write_report)
from swipebench.synthetic import SyntheticSpec, generate_synthetic

SYNTH = {"users": 5, "sessions_per_user": 3, "swipes_per_session": 10,
         "separability": 4.0, "seed": 5}


def small_config(**overrides):
    doc = {
        "dataset": {"synthetic": dict(SYNTH)},
        "feature_set": ["frank2013", [1, 2, 3, 76, 77, 99]],
        "classifier": ["knn", "logistic_regression"],
        "aggregation": [{"method": "none", "window": 1},
                        {"method": "mean", "window": 3}],
        "protocol": {"repetitions": 1, "seed": 0},
    }
    doc.update(overrides)
    return parse_config(doc)


def without_timing(report: dict) -> str:
    trimmed = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(trimmed, sort_keys=True)


# ---------------------------------------------------------------------------
# feature set resolution

def test_anova_default_ids():
    ids = anova_default_ids()
    assert len(ids) == 125
    assert len(set(ids)) == 125
    assert all(1 <= i <= 149 for i in ids)
    assert list(ids) == sorted(ids)


def test_resolve_feature_set_forms():
    assert resolve_feature_set("ALL") == ("ALL", tuple(range(1, 150)))
    assert resolve_feature_set("all")[0] == "ALL"
    label, ids = resolve_feature_set("anova")
    assert label == "ANOVA" and ids == anova_default_ids()
    label, ids = resolve_feature_set("frank2013")
    assert label == "frank2013" and len(ids) == 30
    assert resolve_feature_set([9, 5, 2], position=3) == ("custom3", (2, 5, 9))
    assert resolve_feature_set({"name": "mine", "ids": [4, 1]}) == \
        ("mine", (1, 4))
    with pytest.raises(ConfigError):
        resolve_feature_set("nosuchstudy")
    with pytest.raises(ConfigError):
        resolve_feature_set({"name": "missing-ids"})


# ---------------------------------------------------------------------------
# config parsing

def test_parse_minimal_config_defaults():
    cfg = parse_config({"dataset": {"synthetic": dict(SYNTH)}})
    assert [label for label, _ in cfg.feature_sets] == ["ALL"]
    assert [c.kind for c in cfg.classifiers] == ["ensemble"]
    assert [(a.method, a.window) for a in cfg.aggregations] == [("none", 1)]
    assert cfg.protocol.repetitions == 10
    assert cfg.output_dir is None
    assert cfg.formats == ("csv", "json")


def test_parse_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        parse_config(["not", "an", "object"])
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config({"dataset": "plain-string"})
    with pytest.raises(ConfigError):
        parse_config({"dataset": {"neither": 1}})
    with pytest.raises(ConfigError):
        parse_config({"dataset": {"synthetic": dict(SYNTH)}, "extra": 1})
    with pytest.raises(ConfigError):
        parse_config({"dataset": {"synthetic": {**SYNTH, "users": 1}}})
    # a JSON true is not feature 1, although operator.index(True) is 1
    with pytest.raises(UnknownFeatureId, match="feature ids must be integers"):
        parse_config({"dataset": {"synthetic": dict(SYNTH)},
                      "feature_set": [{"ids": [True, 3]}]})


def test_parse_config_rejects_duplicates():
    base = {"dataset": {"synthetic": dict(SYNTH)}}
    with pytest.raises(ConfigError):
        parse_config({**base, "feature_set": ["all", "ALL"]})
    with pytest.raises(ConfigError):
        parse_config({**base,
                      "aggregation": [{"method": "mean", "window": 5},
                                      {"method": "mean", "window": 5}]})


def test_parse_config_entry_forms():
    cfg = parse_config({
        "dataset": {"synthetic": dict(SYNTH)},
        "classifier": ["svm", "rf",
                       {"kind": "knn", "params": {"k": 3}, "seed": 5}],
        "aggregation": ["none", "mean", {"method": "vote", "window": 7}],
        "output": {"dir": "somewhere", "format": "csv"},
    })
    assert [c.kind for c in cfg.classifiers] == \
        ["svm_rbf", "random_forest", "knn"]
    assert cfg.classifiers[2].params["k"] == 3
    assert cfg.classifiers[2].seed == 5
    assert [(a.method, a.window) for a in cfg.aggregations] == \
        [("none", 1), ("mean", 5), ("vote", 7)]
    assert cfg.output_dir == "somewhere"
    assert cfg.formats == ("csv",)
    with pytest.raises(ConfigError):
        parse_config({"dataset": {"synthetic": dict(SYNTH)},
                      "classifier": 42})
    with pytest.raises(ConfigError):
        parse_config({"dataset": {"synthetic": dict(SYNTH)},
                      "output": {"format": "xml"}})


@pytest.mark.parametrize("doc, path", [
    ({"dataset": {"synthetic": {**SYNTH, "separability": float("nan")}}},
     "dataset.synthetic.separability"),
    ({"dataset": {"synthetic": dict(SYNTH)},
      "aggregation": {"method": "vote", "window": 2,
                      "vote_threshold": float("inf")}},
     "aggregation[0].vote_threshold"),
    ({"dataset": {"synthetic": {**SYNTH, "separability": 10 ** 400}}},
     "dataset.synthetic.separability"),
    ({"dataset": {"synthetic": dict(SYNTH), "path": "x.csv"}}, "dataset"),
    ({"dataset": {"synthetic": dict(SYNTH), "name": "x"}}, "dataset.name"),
    ({"dataset": {"synthetic": dict(SYNTH)},
      "aggregation": [{"method": "mean", "window": 0}]}, "aggregation[0]"),
    # a bare name is read as {"kind": name} or {"method": name}
    ({"dataset": {"synthetic": dict(SYNTH)}, "classifier": ["knn", "bogus"]},
     "classifier[1]: unknown classifier kind 'bogus'"),
    ({"dataset": {"synthetic": dict(SYNTH)}, "aggregation": ["none", "bogus"]},
     "aggregation[1]: unknown aggregation method 'bogus'"),
], ids=["nan", "inf", "int-beyond-float", "synthetic-and-path",
        "synthetic-name", "range", "classifier-name", "aggregation-name"])
def test_parse_config_names_the_faulty_path(doc, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(doc)


def test_readme_schema_block_parses():
    """The README's documented schema is a config the parser accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Experiment config schema", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(re.sub(r"//[^\n]*", "", block)))
    assert [a.method for a in cfg.aggregations] == \
        ["mean", "vote", "trust", "stacking"]
    assert cfg.aggregations[3].stacker.hidden == 20
    assert [label for label, _ in cfg.feature_sets] == \
        ["frank2013", "ALL", "ANOVA", "custom3", "mine"]


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"dataset": {"synthetic": dict(SYNTH)}}))
    assert load_config(path).protocol.seed == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_load_config_skips_a_byte_order_mark(tmp_path):
    text = json.dumps({"dataset": {"synthetic": dict(SYNTH)},
                       "classifier": "knn",
                       "feature_set": {"name": "café", "ids": [1, 2]}})
    plain = tmp_path / "plain.json"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(marked).echo() == load_config(plain).echo()


def test_load_experiment_dataset_synthetic():
    data, report = load_experiment_dataset({"synthetic": dict(SYNTH)})
    assert data.n_users == 5
    assert report["users_kept"] == 5


# ---------------------------------------------------------------------------
# the grid runner

@pytest.fixture(scope="module")
def small_report() -> MatrixReport:
    return run_matrix(small_config())


def test_matrix_structure(small_report):
    rep = small_report.report
    assert small_report.n_failed_cells == 0
    assert rep["failures"] == []
    assert set(rep["matrices"]) == {"none-w1", "mean-w3"}
    view = rep["matrices"]["mean-w3"]
    assert view["feature_sets"] == ["frank2013", "custom1"]
    assert view["classifiers"] == ["knn", "logistic_regression"]
    for fs in view["feature_sets"]:
        for clf in view["classifiers"]:
            v = view["cells"][fs][clf]
            assert v is not None and 0.0 <= v <= 100.0
    assert rep["dataset"]["n_users"] == 5
    assert rep["dataset"]["n_swipes"] == 150
    assert rep["config"]["protocol"]["repetitions"] == 1


def test_matrix_means_are_hand_computable(small_report):
    view = small_report.report["matrices"]["none-w1"]
    for fs in view["feature_sets"]:
        vals = [view["cells"][fs][c] for c in view["classifiers"]]
        assert view["row_means"][fs] == pytest.approx(sum(vals) / len(vals))
    for clf in view["classifiers"]:
        vals = [view["cells"][fs][clf] for fs in view["feature_sets"]]
        assert view["col_means"][clf] == pytest.approx(sum(vals) / len(vals))


def test_matrix_cells_carry_summaries(small_report):
    cell = small_report.report["cells"]["frank2013"]["knn"]
    assert set(cell) == {"none-w1", "mean-w3"}
    summary = cell["mean-w3"]
    assert summary["n_users_evaluated"] == 5
    assert len(summary["per_user"]) == 5
    assert all(len(v) == 1 for v in summary["per_user"].values())
    assert summary["mean_eer"] == pytest.approx(
        sum(summary["user_means"].values()) / 5)


def test_aggregation_row_uses_first_cell(small_report):
    rep = small_report.report
    block = rep["aggregation_row"]
    assert block["feature_set"] == "frank2013"
    assert block["classifier"] == "knn"
    base = rep["cells"]["frank2013"]["knn"]
    for key, value in block["mean_eer_percent"].items():
        assert value == pytest.approx(base[key]["mean_eer"] * 100.0)


def test_matrix_is_deterministic(small_report):
    again = run_matrix(small_config())
    assert without_timing(again.report) == without_timing(small_report.report)
    assert "timing" in again.report
    assert set(again.report["timing"]) == {"wall_time_s"}


def test_constant_pressure_and_area_run_end_to_end(tmp_path):
    """A corpus whose pressure and area never change gives constant and
    undefined feature columns; solvers stopped after one iteration and the
    trust walk still give every user a finite EER in every cell."""
    path = tmp_path / "flat.csv"
    write_canonical(generate_synthetic(SyntheticSpec(**SYNTH)), path)
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    pressure, area = names.index("pressure"), names.index("area")
    rows = [line.split(",") for line in lines]
    for row in rows:
        row[pressure], row[area] = "0.5", "0.25"
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    # average pressure and average touch area hold one value each
    flat = build_feature_table(load_canonical(path)[0]).select([35, 36])
    assert (flat.X == flat.X[0]).all()
    one_iteration = {"params": {"max_iter": 1}}
    cfg = parse_config({
        "dataset": {"path": str(path)},
        "classifier": [{"kind": kind, **one_iteration} for kind in
                       ("svm_rbf", "oc_svm_rbf", "logistic_regression")]
        + ["gaussian_nb"],
        "aggregation": ["none", {"method": "trust", "window": 3}],
        "protocol": {"repetitions": 1, "seed": 0},
    })
    report = run_matrix(cfg).report
    assert report["failures"] == []
    assert report["dataset"]["n_users"] == SYNTH["users"]
    for label, cell in report["cells"]["ALL"].items():
        for key in ("none-w1", "trust-w3"):
            eers = [e for per_rep in cell[key]["per_user"].values()
                    for e in per_rep]
            assert len(eers) == SYNTH["users"], (label, key)
            assert all(e is not None and math.isfinite(e) for e in eers), \
                (label, key, eers)


def test_workers_match_serial(small_report):
    parallel = run_matrix(small_config(), workers=2)
    assert without_timing(parallel.report) == \
        without_timing(small_report.report)


@pytest.mark.parametrize("error", [DataError, TooFewSamples])
def test_cell_failures_are_recorded(monkeypatch, error):
    real = experiments.run_experiment

    def flaky(table, spec, aggregations, protocol, plans=None):
        if spec.kind == "knn":
            raise error("injected failure")
        return real(table, spec, aggregations, protocol, plans)

    monkeypatch.setattr(experiments, "run_experiment", flaky)
    result = run_matrix(small_config())
    assert result.n_failed_cells == 2
    assert {(f["feature_set"], f["classifier"])
            for f in result.report["failures"]} == \
        {("frank2013", "knn"), ("custom1", "knn")}
    cell = result.report["cells"]["frank2013"]["knn"]
    assert cell == {"error": f"{error.__name__}: injected failure"}
    view = result.report["matrices"]["none-w1"]
    assert view["cells"]["frank2013"]["knn"] is None
    assert view["col_means"]["knn"] is None
    assert view["col_means"]["logistic_regression"] is not None
    assert view["row_means"]["frank2013"] == \
        pytest.approx(view["cells"]["frank2013"]["logistic_regression"])
    # the showcase row sits on the failed first cell: all values empty
    assert all(v is None for v in
               result.report["aggregation_row"]["mean_eer_percent"].values())


@pytest.mark.parametrize("workers", [None, 2])
def test_a_plan_error_fails_every_cell_without_running_any(monkeypatch,
                                                           workers):
    """Sampling plans are built once per matrix; when that fails, every
    cell records the one error and no cell is run."""
    def no_plans(table, aggregations, protocol):
        raise DataError("injected plan failure")

    def must_not_run(*args, **kwargs):
        raise AssertionError("a cell ran without plans")

    monkeypatch.setattr(experiments, "sampling_plans", no_plans)
    monkeypatch.setattr(experiments, "run_experiment", must_not_run)
    result = run_matrix(small_config(), workers=workers)
    assert result.n_failed_cells == 4
    assert {f["error"] for f in result.report["failures"]} == \
        {"DataError: injected plan failure"}
    assert all(cell == {"error": "DataError: injected plan failure"}
               for row in result.report["cells"].values()
               for cell in row.values())



@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched function reaches workers by fork")
def test_dead_worker_fails_the_cells_the_pool_lost(monkeypatch,
                                                   small_report):
    """A worker that dies (killed, out of memory) breaks the pool; every
    cell the pool lost runs again alone, so only the cells whose own
    worker dies fail and the others equal the serial run."""
    real = experiments.run_experiment

    def dies_on_knn(table, spec, aggregations, protocol, plans=None):
        if spec.kind == "knn":
            os._exit(1)
        return real(table, spec, aggregations, protocol, plans)

    monkeypatch.setattr(experiments, "run_experiment", dies_on_knn)
    result = run_matrix(small_config(), workers=2)
    failures = result.report["failures"]
    assert result.n_failed_cells == len(failures) == 2
    errors = {(f["feature_set"], f["classifier"]): f["error"]
              for f in failures}
    assert set(errors) == {("frank2013", "knn"), ("custom1", "knn")}
    assert all(e.startswith("BrokenProcessPool: ") for e in errors.values())
    serial = small_report.report["cells"]
    for fs, row in result.report["cells"].items():
        assert row["knn"] == {"error": errors[(fs, "knn")]}
        assert row["logistic_regression"] == serial[fs]["logistic_regression"]


class RecordingPool:
    """A ProcessPoolExecutor stand-in that records its ``max_workers`` and
    runs each task in this process when it is submitted."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_the_pool_has_at_most_one_worker_per_cell(monkeypatch, small_report):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    result = run_matrix(small_config(), workers=500)
    assert RecordingPool.sizes == [4]     # one per cell of the 2 x 2 grid
    assert without_timing(result.report) == \
        without_timing(small_report.report)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_a_config_error(workers):
    with pytest.raises(ConfigError, match=f"got {workers}"):
        run_matrix(small_config(), workers=workers)


def test_repeated_classifier_kinds_get_distinct_labels():
    cfg = parse_config({
        "dataset": {"synthetic": dict(SYNTH)},
        "feature_set": [[1, 2, 3]],
        "classifier": ["knn", {"kind": "knn", "params": {"k": 3}}],
        "protocol": {"repetitions": 1},
    })
    rep = run_matrix(cfg).report
    assert rep["matrices"]["none-w1"]["classifiers"] == ["knn", "knn-2"]


# ---------------------------------------------------------------------------
# serialization

def view_fixture():
    return {"feature_sets": ["fs1", "fs2"],
            "classifiers": ["alpha", "beta"],
            "cells": {"fs1": {"alpha": 12.5, "beta": 10.0},
                      "fs2": {"alpha": None, "beta": 8.0}},
            "row_means": {"fs1": 11.25, "fs2": 8.0},
            "col_means": {"alpha": 12.5, "beta": 9.0}}


def test_matrix_csv_layout():
    text = matrix_csv(view_fixture())
    assert text == ("feature_set,alpha,beta,row_mean\n"
                    "fs1,12.5,10.0,11.25\n"
                    "fs2,,8.0,8.0\n"
                    "col_mean,12.5,9.0,\n")


def test_matrix_csv_quotes_a_label_with_a_comma(tmp_path):
    cfg = parse_config({
        "dataset": {"synthetic": dict(SYNTH)},
        "feature_set": [{"name": 'a,"b"', "ids": [1, 2, 3]}, "frank2013"],
        "classifier": "knn",
        "protocol": {"repetitions": 1},
    })
    write_report(run_matrix(cfg), tmp_path, ("csv",))
    with open(tmp_path / "matrix_none-w1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == [
        "feature_set", 'a,"b"', "frank2013", "col_mean"]
    assert {len(row) for row in rows} == {3}


def test_aggregation_row_csv_layout():
    report = {"aggregation_row": {"mean_eer_percent":
                                  {"none-w1": 14.25, "mean-w5": None}}}
    assert aggregation_row_csv(report) == ("aggregation,mean_eer_percent\n"
                                           "mean-w5,\n"
                                           "none-w1,14.25\n")


def test_write_report_files(small_report, tmp_path):
    both = write_report(small_report, tmp_path / "both")
    assert sorted(p.name for p in both) == [
        "aggregation_row.csv", "matrix_mean-w3.csv", "matrix_none-w1.csv",
        "report.json"]
    doc = json.loads((tmp_path / "both" / "report.json").read_text())
    assert set(doc["matrices"]) == {"none-w1", "mean-w3"}
    json_only = write_report(small_report, tmp_path / "j", formats=("json",))
    assert [p.name for p in json_only] == ["report.json"]
    csv_only = write_report(small_report, tmp_path / "c", formats=("csv",))
    assert len(csv_only) == 3


def test_write_report_over_longer_files_leaves_no_stale_tail(small_report,
                                                             tmp_path):
    """Rewriting a report directory whose files are longer than the new
    text leaves exactly the bytes of a fresh write."""
    fresh = write_report(small_report, tmp_path / "fresh")
    for path in write_report(small_report, tmp_path / "old"):
        path.write_bytes(path.read_bytes() * 3 + b"stale tail\n")
    rewritten = write_report(small_report, tmp_path / "old")
    assert [p.name for p in rewritten] == [p.name for p in fresh]
    for new, ref in zip(rewritten, fresh):
        assert new.read_bytes() == ref.read_bytes(), new.name
