"""End-to-end command-line runs through main(argv)."""

import contextlib
import copy
import io
import json
import math
import multiprocessing
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swipebench.cli as cli
import swipebench.experiments as experiments
from swipebench.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL,
                            main)
from swipebench.classifiers.base import DEFAULT_PARAMS
from swipebench.classifiers.simple import KnnModel
from swipebench.errors import DataError
from swipebench.ingest import load_canonical

SYNTH_ARGS = ["--users", "4", "--sessions", "2", "--swipes", "8",
              "--separability", "3.0", "--seed", "11"]


def synth_file(tmp_path, name="data.csv", fmt="csv"):
    path = tmp_path / name
    rc = main(["synth", *SYNTH_ARGS, "--out", str(path), "--format", fmt])
    assert rc == EXIT_OK
    return path


def experiment_doc(data_path, out_dir, **overrides):
    doc = {
        "dataset": {"path": str(data_path)},
        "feature_set": "frank2013",
        "classifier": "knn",
        "aggregation": [{"method": "none", "window": 1},
                        {"method": "mean", "window": 2}],
        "protocol": {"repetitions": 1, "seed": 0},
        "output": {"dir": str(out_dir)},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_synth_writes_loadable_canonical(tmp_path, capsys):
    path = synth_file(tmp_path)
    out = capsys.readouterr().out
    assert "4 users, 64 swipes" in out
    dataset, _report = load_canonical(path)
    assert dataset.n_users == 4
    assert dataset.n_swipes == 64


def test_ingest_roundtrip(tmp_path, capsys):
    src = synth_file(tmp_path)
    capsys.readouterr()
    dst = tmp_path / "canon.jsonl"
    rc = main(["ingest", "--input", str(src), "--out", str(dst),
               "--format", "jsonl", "--name", "renamed"])
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["users"] == 4
    assert summary["swipes"] == 64
    assert summary["lines_malformed"] == 0
    dataset, _report = load_canonical(dst)
    assert dataset.name == "renamed"


def test_ingest_missing_input_is_a_data_error(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "out.csv")])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_extract_id_list(tmp_path, capsys):
    src = synth_file(tmp_path)
    out = tmp_path / "features.csv"
    rc = main(["extract", "--input", str(src), "--features", "1,2,99",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert "64 swipes x 3 features" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header.endswith("f1,f2,f99")


def test_extract_single_id(tmp_path, capsys):
    src = synth_file(tmp_path)
    out = tmp_path / "features.csv"
    rc = main(["extract", "--input", str(src), "--features", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert "64 swipes x 1 features" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header.endswith(",f5")


def test_extract_study_and_json_format(tmp_path):
    src = synth_file(tmp_path)
    out = tmp_path / "features.json"
    rc = main(["extract", "--input", str(src), "--features", "frank2013",
               "--out", str(out), "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["feature_ids"] == list(range(1, 31))
    assert len(doc["rows"]) == 64


def test_extract_unknown_study_is_config_error(tmp_path, capsys):
    src = synth_file(tmp_path)
    rc = main(["extract", "--input", str(src), "--features", "nosuch",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err



def test_extract_non_integer_id_is_config_error(tmp_path, capsys):
    src = synth_file(tmp_path)
    rc = main(["extract", "--input", str(src), "--features", "1,x",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert "config error: feature ids must be integers" in \
        capsys.readouterr().err


def test_config_non_integer_feature_id_is_config_error(tmp_path, capsys):
    src = synth_file(tmp_path)
    cfg = write_doc(tmp_path, experiment_doc(src, tmp_path / "run",
                                             feature_set=[[1, "x"]]))
    assert main(["matrix", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config error: feature ids must be integers" in \
        capsys.readouterr().err

def test_select_across_datasets(tmp_path, capsys):
    a = synth_file(tmp_path, "a.csv")
    b = tmp_path / "b.csv"
    assert main(["synth", *SYNTH_ARGS[:-2], "--seed", "12", "--name", "other",
                 "--out", str(b)]) == EXIT_OK
    out = tmp_path / "selection.json"
    rc = main(["select", "--inputs", str(a), str(b),
               "--top-n", "30", "--min-votes", "2", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert 0 < len(doc["selected"]) <= 30
    assert "selected" in capsys.readouterr().out


def test_select_single_user_inputs_is_a_data_error(tmp_path, capsys):
    """Each file holds one user, so ANOVA has one group: exit 3, no trace."""
    lines = synth_file(tmp_path).read_text().splitlines()
    paths = []
    for user in ("u00", "u01"):
        path = tmp_path / f"{user}.csv"
        path.write_text("\n".join([lines[0]] + [
            line for line in lines[1:] if line.split(",")[1] == user]) + "\n")
        paths.append(str(path))
    capsys.readouterr()
    rc = main(["select", "--inputs", *paths, "--out",
               str(tmp_path / "sel.json")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["ingest", "extract", "select", "synth"])
def test_unwritable_out_is_a_data_error(tmp_path, capsys, verb):
    """An --out in a missing directory: exit 3, one line, no trace."""
    src = str(synth_file(tmp_path))
    out = tmp_path / "missing" / "out.csv"
    argv = {"ingest": ["ingest", "--input", src],
            "extract": ["extract", "--input", src],
            "select": ["select", "--inputs", src, src],
            "synth": ["synth", *SYNTH_ARGS]}[verb]
    capsys.readouterr()
    rc = main(argv + ["--out", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize("verb", ["evaluate", "matrix"])
def test_out_under_a_regular_file_fails_before_the_run(tmp_path, capsys,
                                                      monkeypatch, verb):
    """--out below a regular file: exit 3 with one line, no trace, and
    no evaluation started."""
    src = synth_file(tmp_path)
    blocker = tmp_path / "f.csv"
    blocker.write_text("")
    out = blocker / "sub"
    cfg = write_doc(tmp_path, experiment_doc(src, tmp_path / "run"))
    runs = []
    monkeypatch.setattr(cli, "run_matrix",
                        lambda *args, **kwargs: runs.append(args))
    capsys.readouterr()
    rc = main([verb, "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert runs == []


def test_evaluate_single_cell(tmp_path, capsys):
    src = synth_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = write_doc(tmp_path, experiment_doc(src, out_dir))
    rc = main(["evaluate", "--config", str(cfg)])
    assert rc == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["aggregation_row"]["classifier"] == "knn"
    assert (out_dir / "matrix_none-w1.csv").exists()
    assert (out_dir / "aggregation_row.csv").exists()
    printed = capsys.readouterr().out
    assert "report.json" in printed


def test_an_aggregation_object_without_a_window_follows_its_method(
        tmp_path, capsys):
    src = synth_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = write_doc(tmp_path, experiment_doc(
        src, out_dir, aggregation=[{"method": "none"}, {"method": "mean"}]))
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["aggregations"] == [
        {"method": "none", "window": 1}, {"method": "mean", "window": 5}]
    for bad in ({"method": "none", "window": 5},
                {"method": "none", "window": None}):
        cfg = write_doc(tmp_path, experiment_doc(src, tmp_path / "bad",
                                                 aggregation=bad))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: aggregation")


def test_unknown_aggregation_name_error_names_its_entry(tmp_path, capsys):
    src = synth_file(tmp_path)
    cfg = write_doc(tmp_path, experiment_doc(
        src, tmp_path / "run", aggregation=["mean", "bogus"]))
    assert main(["matrix", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: aggregation[1]: unknown aggregation "
                          "method 'bogus'") and err.count("\n") == 1, err


def test_evaluate_rejects_grids(tmp_path, capsys):
    src = synth_file(tmp_path)
    cfg = write_doc(tmp_path, experiment_doc(
        src, tmp_path / "run", classifier=["knn", "logistic_regression"]))
    rc = main(["evaluate", "--config", str(cfg)])
    assert rc == EXIT_CONFIG
    assert "use 'matrix' for grids" in capsys.readouterr().err


def test_evaluate_needs_an_output_dir(tmp_path, capsys):
    src = synth_file(tmp_path)
    doc = experiment_doc(src, "unused")
    del doc["output"]
    cfg = write_doc(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "output directory" in capsys.readouterr().err


def test_evaluate_seed_override(tmp_path):
    src = synth_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = write_doc(tmp_path, experiment_doc(src, out_dir))
    assert main(["evaluate", "--config", str(cfg), "--seed", "7"]) == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["protocol"]["seed"] == 7


def test_matrix_grid_and_determinism(tmp_path):
    src = synth_file(tmp_path)
    doc_for = lambda d: experiment_doc(
        src, d, feature_set=["frank2013", [1, 2, 3]],
        classifier=["knn", "logistic_regression"])
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(["matrix", "--config",
                 str(write_doc(tmp_path, doc_for(first), "m1.json"))]) == EXIT_OK
    assert main(["matrix", "--config",
                 str(write_doc(tmp_path, doc_for(second), "m2.json"))]) == EXIT_OK

    reports = []
    for d in (first, second):
        doc = json.loads((d / "report.json").read_text())
        doc.pop("timing")
        reports.append(json.dumps(doc, sort_keys=True))
    assert reports[0] == reports[1]
    assert (first / "matrix_mean-w2.csv").read_text() == \
        (second / "matrix_mean-w2.csv").read_text()
    grid = json.loads((first / "report.json").read_text())
    assert grid["matrices"]["none-w1"]["feature_sets"] == \
        ["frank2013", "custom1"]


def test_matrix_emits_plots(tmp_path):
    pytest.importorskip("matplotlib")
    src = synth_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = write_doc(tmp_path, experiment_doc(src, out_dir))
    assert main(["matrix", "--config", str(cfg), "--plots"]) == EXIT_OK
    assert (out_dir / "aggregation_row.png").stat().st_size > 0
    assert (out_dir / "matrix_none-w1.png").exists()


def test_matrix_partial_failures_exit_code(tmp_path, monkeypatch, capsys):
    src = synth_file(tmp_path)
    cfg = write_doc(tmp_path, experiment_doc(src, tmp_path / "run"))

    def boom(table, spec, aggregations, protocol, plans=None):
        raise DataError("injected")

    monkeypatch.setattr(experiments, "run_experiment", boom)
    rc = main(["matrix", "--config", str(cfg)])
    assert rc == EXIT_PARTIAL
    assert "1 cell(s) failed" in capsys.readouterr().err



@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched function reaches workers by fork")
def test_matrix_dead_worker_exit_code(tmp_path, monkeypatch, capsys):
    src = synth_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = write_doc(tmp_path, experiment_doc(src, out_dir))
    monkeypatch.setattr(experiments, "run_experiment",
                        lambda *args, **kwargs: os._exit(1))
    rc = main(["matrix", "--config", str(cfg), "--workers", "2"])
    assert rc == EXIT_PARTIAL
    assert "1 cell(s) failed" in capsys.readouterr().err
    report = json.loads((out_dir / "report.json").read_text())
    assert report["failures"][0]["error"].startswith("BrokenProcessPool: ")

def test_matrix_non_finite_scores_are_skips(tmp_path, monkeypatch, capsys):
    src = synth_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = write_doc(tmp_path, experiment_doc(src, out_dir))
    monkeypatch.setattr(KnnModel, "score",
                        lambda self, X, defined=None: np.full(len(X), np.nan))
    assert main(["matrix", "--config", str(cfg)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out_dir / "report.json").read_text())
    assert report["failures"] == []
    cell = report["cells"]["frank2013"]["knn"]
    for key in ("none-w1", "mean-w2"):
        assert cell[key]["skip_reasons"] == {"non-finite-scores": 4}
        assert cell[key]["mean_eer"] is None


def _stacker(**values):
    return {"aggregation": {"method": "stacking", "window": 2,
                            "stacker": values}}


def _params(kind, **values):
    return {"classifier": {"kind": kind, "params": values}}


@pytest.mark.parametrize("overrides, message", [
    (_params("oc_svm_rbf", nu=0),
     "classifier[0].params.nu must be a number in (0, 1], got 0"),
    (_params("oc_svm_rbf", nu=-0.5), "classifier[0].params.nu must be"),
    (_params("oc_svm_rbf", nu=1.5), "classifier[0].params.nu must be"),
    (_params("neural_net", batch_size=0),
     "classifier[0].params.batch_size must be an integer >= 1, got 0"),
    (_params("neural_net", epochs=-1),
     "classifier[0].params.epochs must be an integer >= 0, got -1"),
    (_stacker(batch_size=0),
     "aggregation[0].stacker.batch_size must be an integer >= 1, got 0"),
    (_stacker(epochs=-1),
     "aggregation[0].stacker.epochs must be an integer >= 0, got -1"),
    # a traceback from training before the value had a rule
    (_stacker(hidden=0),
     "aggregation[0].stacker.hidden must be an integer >= 1, got 0"),
    (_params("random_forest", n_trees=0),
     "classifier[0].params.n_trees must be an integer >= 1, got 0"),
    (_params("svm_rbf", platt_folds=0),
     "classifier[0].params.platt_folds must be an integer >= 2, got 0"),
    ({"dataset": {"synthetic": {"users": 4, "sessions_per_user": 2,
                                "swipes_per_session": 8, "seed": -1}}},
     "dataset.synthetic.seed must be an integer >= 0, got -1"),
    # NaN or constant scores from training before the value had a rule
    (_params("knn", k=0), "classifier[0].params.k must be an integer >= 1"),
    (_params("knn", k=-2), "classifier[0].params.k must be an integer >= 1"),
    (_params("svm_rbf", C=-1), "classifier[0].params.C must be a number > 0"),
    (_params("svm_rbf", tol=-1),
     "classifier[0].params.tol must be a number > 0"),
    (_params("svm_rbf", max_iter=-5),
     "classifier[0].params.max_iter must be an integer >= 1"),
    (_params("svm_rbf", platt_folds=1),
     "classifier[0].params.platt_folds must be an integer >= 2"),
    (_params("gaussian_nb", var_smoothing=-1),
     "classifier[0].params.var_smoothing must be a number > 0"),
    (_params("neural_net", dropout=1.0),
     "classifier[0].params.dropout must be a number in [0, 1), got 1.0"),
    (_params("neural_net", bn_eps=-1),
     "classifier[0].params.bn_eps must be a number > 0"),
    (_params("isolation_forest", subsample=0),
     "classifier[0].params.subsample must be an integer >= 2"),
    (_stacker(beta2=1.0),
     "aggregation[0].stacker.beta2 must be a number in [0, 1), got 1.0"),
    ({"protocol": {"repetitions": 0}},
     "protocol.repetitions must be an integer >= 1, got 0"),
], ids=["nu-0", "nu-negative", "nu-above-1", "nn-batch-0", "nn-epochs-negative",
        "stacker-batch-0", "stacker-epochs-negative",
        "stacker-hidden-0", "rf-trees-0", "svm-folds-0", "synthetic-seed",
        "knn-k-0", "knn-k-negative", "svm-C-negative", "svm-tol-negative",
        "svm-iter-negative", "svm-folds-1", "nb-smoothing-negative",
        "nn-dropout-1", "nn-bn-eps-negative", "if-subsample-0",
        "stacker-beta2-1", "repetitions-0"])
def test_out_of_range_training_params_are_config_errors(tmp_path, capsys,
                                                        overrides, message):
    """Exit 2 with one line naming the value's dotted path before any
    training, not a traceback from the solver or the mini-batch loop, nor
    a model that scores NaN."""
    src = synth_file(tmp_path)
    cfg = write_doc(tmp_path, experiment_doc(src, tmp_path / "run",
                                             **overrides))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: " + message)
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("classifier, words", [
    ({"kind": "svm_rbf", "params": {"C": "1"}}, "params.C"),
    ({"kind": "knn", "params": {"k": "3"}}, "params.k"),
    ({"kind": "knn", "params": {"k": 2.5}}, "params.k"),
    ({"kind": "knn", "params": {"k": True}}, "params.k"),
    ({"kind": "svm_rbf", "params": {"gamma": "auto"}}, "params.gamma"),
    ({"kind": "decision_tree", "params": {"max_depth": 0}}, "params.max_depth"),
    ({"kind": "neural_net", "params": {"hidden": [8, 0]}}, "params.hidden"),
    ({"kind": "ensemble", "params": {"members": ["svm", "forest"]}},
     "params.members"),
], ids=["C-str", "k-str", "k-float", "k-bool", "gamma-str", "depth-0",
        "hidden-0", "members-unknown"])
def test_mistyped_params_are_config_errors(tmp_path, capsys, classifier,
                                           words):
    src = synth_file(tmp_path)
    cfg = write_doc(tmp_path, experiment_doc(src, tmp_path / "run",
                                             classifier=classifier))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: classifier") and err.count("\n") == 1
    assert words in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_params_of_the_accepted_types_parse():
    doc = copy.deepcopy(VALID_DOC)
    doc["classifier"] = [
        {"kind": "svm_rbf", "params": {"C": 2, "gamma": 0.5, "max_iter": 10}},
        {"kind": "random_forest", "params": {"max_depth": None,
                                             "max_features": 3}},
        {"kind": "neural_net", "params": {"hidden": [4, 2], "lr": 1}},
        {"kind": "ensemble", "params": {"members": ["svm", "rf"]}}]
    kinds = [c.kind for c in experiments.parse_config(doc).classifiers]
    assert kinds == ["svm_rbf", "random_forest", "neural_net", "ensemble"]


def test_bad_config_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["matrix", "--config", str(bad)]) == EXIT_CONFIG
    missing = tmp_path / "missing.json"
    assert main(["matrix", "--config", str(missing)]) == EXIT_CONFIG
    capsys.readouterr()


def test_missing_dataset_path_exit_code(tmp_path, capsys):
    cfg = write_doc(tmp_path, experiment_doc(tmp_path / "no-data.csv",
                                             tmp_path / "run"))
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth"])  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["not-a-verb"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config schema: every nested key and type is checked before any work

VALID_DOC = {
    "dataset": {"synthetic": {"users": 4, "sessions_per_user": 2,
                              "swipes_per_session": 8, "separability": 3.0,
                              "seed": 11, "name": "probe"}},
    "feature_set": [{"name": "f", "ids": [1, 2, 3]}],
    "classifier": [{"kind": "knn", "params": {"k": 3}, "seed": 1}],
    "aggregation": [
        {"method": "vote", "window": 2, "vote_threshold": 0.5},
        {"method": "trust", "window": 2,
         "trust": {"initial": 0.5, "threshold": 0.5, "reward": 0.2,
                   "penalty": 0.2}},
        {"method": "stacking", "window": 2,
         "stacker": {"hidden": 2, "epochs": 1, "batch_size": 4, "lr": 0.01,
                     "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
                     "seed": 0}}],
    "protocol": {"train_session_fraction": 0.5, "repetitions": 1, "seed": 0,
                 "attacker_split_fraction": 0.5},
    "output": {"dir": "run", "format": "json"},
}
# these accept several forms (a name, a list or an object); classifier
# params values are mutated by bad_param_values
MULTI_FORM = {("feature_set",), ("classifier",), ("aggregation",)}
REQUIRED = [("dataset",), ("feature_set", 0, "ids"), ("classifier", 0, "kind")]

TYPE_VALUES = {
    "str": st.text(max_size=4),
    "int": st.integers(-3, 3),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _type_of(value) -> str:
    for name, t in (("bool", bool), ("int", int), ("float", float),
                    ("str", str), ("list", list)):
        if isinstance(value, t):
            return name
    return "object"


def _walk(node, path=()):
    """(path, value) for every value below node, objects and lists
    included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _walk(value, path + (key,))


def _path_text(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (
            f".{key}" if text else key)
    return text


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


OBJECT_PATHS = [()] + [p for p, v in _walk(VALID_DOC) if isinstance(v, dict)]
LEAF_PATHS = [p for p, _ in _walk(VALID_DOC)
              if isinstance(p[-1], str) and p not in MULTI_FORM
              and "params" not in p[:-1]]


COUNT_PARAMS = ("k", "n_trees", "max_iter", "platt_folds", "subsample",
                "epochs", "batch_size")
_FINITE = {"allow_nan": False, "allow_infinity": False}
_NEGATIVE = st.floats(max_value=-math.ulp(0.0), **_FINITE)
_NOT_POSITIVE = st.floats(max_value=0.0, **_FINITE)
# the out-of-range numbers of every number and count param, written out
# here rather than read from the package's rules
OUT_OF_RANGE = {
    **dict.fromkeys(("C", "tol", "lr", "adam_eps", "bn_eps", "var_smoothing"),
                    _NOT_POSITIVE),
    "nu": st.one_of(_NOT_POSITIVE, st.floats(min_value=1.0, exclude_min=True,
                                             **_FINITE)),
    **dict.fromkeys(("dropout", "beta1", "beta2"),
                    st.one_of(_NEGATIVE, st.floats(min_value=1.0, **_FINITE))),
    "bn_momentum": st.one_of(_NEGATIVE, st.floats(min_value=1.0,
                                                  exclude_min=True, **_FINITE)),
    **dict.fromkeys(("k", "n_trees", "max_iter", "batch_size"),
                    st.integers(max_value=0)),
    "platt_folds": st.integers(max_value=1),
    "subsample": st.integers(max_value=1),
    "epochs": st.integers(max_value=-1),
}


def _one_of_types(*names):
    return st.one_of(*[TYPE_VALUES[n] for n in names])


def bad_param_values(name: str):
    """Values that param ``name`` must reject, of any kind."""
    fraction = st.floats(**_FINITE).filter(lambda v: not v.is_integer())
    if name in COUNT_PARAMS:
        return st.one_of(_one_of_types("str", "bool", "list", "object"),
                         fraction, st.none(), OUT_OF_RANGE[name])
    if name == "gamma":
        return st.one_of(_one_of_types("bool", "list", "object"), st.none(),
                         st.text(max_size=5).filter(lambda v: v != "scale"),
                         st.floats(max_value=0.0, allow_nan=False))
    if name in ("max_depth", "max_features"):
        return st.one_of(_one_of_types("bool", "list", "object"),
                         st.text(max_size=5).filter(lambda v: v != "sqrt"
                                                    or name != "max_features"),
                         st.integers(max_value=0), st.floats(allow_nan=False))
    if name == "hidden":
        bad_unit = st.one_of(st.integers(max_value=0), st.booleans(),
                             st.text(max_size=2), st.floats(allow_nan=False))
        return st.one_of(_one_of_types("str", "bool", "int", "float", "object"),
                         st.none(), st.lists(bad_unit, min_size=1, max_size=3))
    if name == "members":
        bad_kind = st.one_of(st.sampled_from(["forest", "svm2", ""]),
                             st.integers(), st.booleans(), st.none())
        return st.one_of(_one_of_types("str", "bool", "int", "object"),
                         st.none(), st.just([]),
                         st.lists(bad_kind, min_size=1, max_size=3))
    return st.one_of(_one_of_types("str", "bool", "list", "object"),
                     st.none(), OUT_OF_RANGE[name])


@st.composite
def bad_configs(draw):
    """(mutated doc, words the one error line must hold)."""
    doc = copy.deepcopy(VALID_DOC)
    mode = draw(st.sampled_from(["add", "drop", "swap", "param"]))
    if mode == "param":
        kind = draw(st.sampled_from(sorted(DEFAULT_PARAMS)))
        name = draw(st.sampled_from(sorted(DEFAULT_PARAMS[kind])))
        doc["classifier"][0] = {"kind": kind, "seed": 1,
                                "params": {name: draw(bad_param_values(name))}}
        return doc, ["classifier[0]", f"params.{name}"]
    if mode == "add":
        path = draw(st.sampled_from(OBJECT_PATHS))
        key = "zz_" + draw(st.text("abcxyz_", max_size=4))
        _at(doc, path)[key] = draw(TYPE_VALUES["int"])
        if path[-1:] == ("params",):    # a kind's params name the entry
            return doc, [_path_text(path[:-1]), key]
        return doc, [_path_text(path + (key,))]
    if mode == "drop":
        path = draw(st.sampled_from(REQUIRED))
        del _at(doc, path[:-1])[path[-1]]
        return doc, [_path_text(path)]
    path = draw(st.sampled_from(LEAF_PATHS))
    own = _type_of(_at(doc, path))
    # an int is a float, so it is no swap away from one
    other = draw(st.sampled_from([t for t in TYPE_VALUES if t != own
                                  and (own, t) != ("float", "int")]))
    _at(doc, path[:-1])[path[-1]] = draw(TYPE_VALUES[other])
    return doc, [_path_text(path)]


def test_valid_schema_doc_parses():
    cfg = experiments.parse_config(VALID_DOC)
    assert [a.method for a in cfg.aggregations] == \
        ["vote", "trust", "stacking"]


@settings(max_examples=200, deadline=None)
@given(case=bad_configs())
def test_every_bad_nested_key_or_type_is_one_config_error(case):
    doc, words = case
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "run")
        if isinstance(doc.get("output"), dict) and \
                doc["output"].get("dir") == "run":
            doc["output"]["dir"] = out_dir
        cfg = os.path.join(tmp, "exp.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            rc = main(["evaluate", "--config", cfg])
        assert not os.path.exists(out_dir)
    text = err.getvalue()
    assert rc == EXIT_CONFIG, text
    assert text.startswith("config error: ") and text.count("\n") == 1, text
    assert "Traceback" not in text and out.getvalue() == ""
    for word in words:
        assert word in text, (word, text)


def test_int_where_float_expected_is_kept(tmp_path, capsys):
    out_dir = tmp_path / "run"
    doc = {"dataset": {"synthetic": {"users": 4, "sessions_per_user": 2,
                                     "swipes_per_session": 8,
                                     "separability": 8, "seed": 11}},
           "feature_set": "frank2013", "classifier": "knn",
           "protocol": {"repetitions": 1}, "output": {"dir": str(out_dir)}}
    cfg = write_doc(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    text = (out_dir / "report.json").read_text()
    assert '"separability": 8,' in text
    echo = json.loads(text)["config"]["dataset"]["synthetic"]
    assert echo["separability"] == 8 and isinstance(echo["separability"], int)
