"""End-to-end command-line runs through main(argv)."""

import json
import multiprocessing
import os

import numpy as np
import pytest

import swipebench.experiments as experiments
from swipebench.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL,
                            main)
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

    def boom(table, spec, aggregations, protocol):
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
                        lambda *args: os._exit(1))
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
