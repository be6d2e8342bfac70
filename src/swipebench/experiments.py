"""Declarative experiment runner.

An experiment file is one JSON document. The dataset is either a path
to a canonical export or an inline synthetic spec; feature_set,
classifier and aggregation each accept a single entry or a list, and
the runner evaluates the full cross product: rows are feature sets,
columns are classifiers, and every cell is evaluated under every
aggregation variant while sharing one trained base model per user and
repetition.

Reports are deterministic for a fixed config and seed: JSON is emitted
with sorted keys and the only non-reproducible values (wall times)
live under the top-level "timing" key; CSV matrices contain no timing
at all.

Example config::

    {
      "dataset": {"synthetic": {"users": 10, "sessions_per_user": 4,
                                "swipes_per_session": 40,
                                "separability": 8.0, "seed": 7}},
      "feature_set": ["frank2013", "ALL", "ANOVA"],
      "classifier": ["svm", "rf", {"kind": "nn", "params": {"epochs": 20}}],
      "aggregation": [{"method": "none", "window": 1},
                      {"method": "mean", "window": 5}],
      "protocol": {"repetitions": 10, "seed": 0},
      "output": {"dir": "out", "format": "both"}
    }
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .aggregation import AggregationSpec
from .classifiers import ClassifierSpec
from .errors import ConfigError, DataError, SwipebenchError
from .features.catalog import ALL_IDS, STUDY_SETS, resolve_feature_ids
from .features.extract import FeatureTable, build_feature_table
from .ingest import _csv_cells, load_canonical, rewrite_text
from .protocol import (CellSummary, ProtocolConfig, aggregation_key,
                       aggregation_keys, run_experiment, sampling_plans)
from .spec import read_object
from .synthetic import SyntheticSpec, generate_synthetic
from .touchdata import Dataset, filter_eligible

FORMATS = ("csv", "json")


def anova_default_ids() -> tuple[int, ...]:
    """The shipped cross-dataset selection: the ``selected`` ids of the
    report that ``swipebench select`` wrote to ``data/anova125.json``."""
    text = resources.files("swipebench.data").joinpath(
        "anova125.json").read_text()
    try:
        return resolve_feature_ids(json.loads(text)["selected"])
    except (ValueError, TypeError, KeyError, ConfigError) as err:
        raise ConfigError("anova125.json is not a selection report with a "
                          f"'selected' id list: {err}") from None


def resolve_feature_set(ref, position: int = 0) -> tuple[str, tuple[int, ...]]:
    """One feature_set entry -> (label, feature ids).

    Accepts a study key, "ALL", "ANOVA", an explicit id list, or
    {"name": ..., "ids": [...]}. This is the one resolver of feature-set
    names; ``resolve_feature_ids`` reads ids only.
    """
    if isinstance(ref, str):
        key = ref.strip().lower()
        if key == "all":
            return "ALL", ALL_IDS
        if key == "anova":
            return "ANOVA", anova_default_ids()
        if key in STUDY_SETS:
            return key, STUDY_SETS[key]
        raise ConfigError(f"unknown feature set {ref!r}")
    if isinstance(ref, dict):
        read_object(ref, {"name": str, "ids": list}, ("ids",),
                    f"feature_set[{position}]")
        return (ref.get("name", f"custom{position}"),
                resolve_feature_ids(ref["ids"]))
    return f"custom{position}", resolve_feature_ids(ref)


def _entries(doc: dict, key: str, default) -> list:
    """doc[key] as a non-empty list; one entry may stand alone."""
    value = doc.get(key, default)
    if value == []:
        raise ConfigError(f"{key} must list at least one entry")
    return value if isinstance(value, list) else [value]


def _spec_entries(doc: dict, key: str, default, spec_type,
                  name_key: str) -> list:
    """doc[key]'s entries as specs, each read with its path, e.g.
    ``classifier[1]``; a bare name stands for ``{name_key: name}``."""
    specs = []
    for i, entry in enumerate(_entries(doc, key, default)):
        if isinstance(entry, str):
            entry = {name_key: entry}
        elif not isinstance(entry, dict):
            raise ConfigError(f"{key}[{i}] must be a {name_key} name or "
                              f"object: {entry!r}")
        specs.append(spec_type.from_dict(entry, f"{key}[{i}]"))
    return specs


@dataclass
class ExperimentConfig:
    dataset: dict
    feature_sets: list[tuple[str, tuple[int, ...]]]
    classifiers: list[ClassifierSpec]
    aggregations: list[AggregationSpec]
    protocol: ProtocolConfig
    output_dir: str | None = None
    formats: tuple[str, ...] = FORMATS

    def echo(self) -> dict:
        return {
            "dataset": self.dataset,
            "feature_sets": [{"name": label, "ids": list(ids)}
                             for label, ids in self.feature_sets],
            "classifiers": [c.as_dict() for c in self.classifiers],
            "aggregations": [a.as_dict() for a in self.aggregations],
            "protocol": self.protocol.as_dict(),
        }


def parse_config(doc: dict) -> ExperimentConfig:
    doc = read_object(doc, {
        "dataset": dict, "feature_set": object, "classifier": object,
        "aggregation": object, "protocol": ProtocolConfig, "output": dict,
    }, ("dataset",))
    dataset = doc["dataset"]
    if ("synthetic" in dataset) == ("path" in dataset):
        raise ConfigError(
            "dataset must hold exactly one of 'synthetic' or 'path'")
    read_object(dataset, {"synthetic": SyntheticSpec} if "synthetic" in
                dataset else {"path": str, "name": str}, path="dataset")

    feature_sets = [resolve_feature_set(ref, i)
                    for i, ref in enumerate(_entries(doc, "feature_set", "all"))]
    labels = [label for label, _ in feature_sets]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate feature set labels: {labels}")

    classifiers = _spec_entries(doc, "classifier", "ensemble",
                                ClassifierSpec, "kind")
    aggregations = _spec_entries(doc, "aggregation", "none",
                                 AggregationSpec, "method")
    aggregation_keys(aggregations)

    protocol = doc.get("protocol", ProtocolConfig())
    output = read_object(doc.get("output", {}), {"dir": str, "format": str},
                         path="output")
    return ExperimentConfig(
        dataset=dataset, feature_sets=feature_sets, classifiers=classifiers,
        aggregations=aggregations, protocol=protocol,
        output_dir=output.get("dir"),
        formats=output_formats(output.get("format", "both")))


def output_formats(fmt: str) -> tuple[str, ...]:
    """The report formats an ``output.format`` value (or ``--format``)
    names: ``"csv"``, ``"json"`` or ``"both"``."""
    if fmt == "both":
        return FORMATS
    if fmt in FORMATS:
        return (fmt,)
    raise ConfigError(f"unknown output.format {fmt!r}")


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from None
    return parse_config(doc)


def load_experiment_dataset(source: dict) -> tuple[Dataset, dict]:
    """Materialize the config's dataset and keep only eligible users."""
    if "synthetic" in source:
        data = generate_synthetic(SyntheticSpec.from_dict(source["synthetic"]))
    else:
        data, _report = load_canonical(source["path"],
                                       name=source.get("name"))
    eligible, report = filter_eligible(data)
    return eligible, report


def _classifier_labels(classifiers: list[ClassifierSpec]) -> list[str]:
    labels = []
    seen: dict[str, int] = {}
    for spec in classifiers:
        n = seen.get(spec.kind, 0)
        seen[spec.kind] = n + 1
        labels.append(spec.kind if n == 0 else f"{spec.kind}-{n + 1}")
    return labels


def _run_cell(table: FeatureTable, spec: ClassifierSpec,
              aggregations: list[AggregationSpec], protocol: ProtocolConfig,
              plans: list[dict],
              ) -> dict[str, CellSummary] | SwipebenchError:
    """One cell's summaries, or the toolkit error that failed it."""
    try:
        return run_experiment(table, spec, aggregations, protocol,
                              plans=plans)
    except SwipebenchError as err:
        return err


def _pool_result(future) -> dict[str, CellSummary] | Exception:
    """A pooled cell's outcome; a cell lost with a dead worker fails
    (BrokenProcessPool)."""
    try:
        return future.result()
    except concurrent.futures.BrokenExecutor as err:
        return err


def _run_pooled(tasks: list[tuple], workers: int) -> list:
    """Every task's ``_run_cell`` outcome from a pool of at most one worker
    per task. A worker that dies breaks the pool and loses every cell it
    had not finished, so each lost cell runs again alone in a fresh
    one-worker pool; only a cell whose own worker dies fails."""
    pool = concurrent.futures.ProcessPoolExecutor
    with pool(max_workers=min(workers, len(tasks))) as ex:
        futures = [ex.submit(_run_cell, *task) for task in tasks]
        outcomes = [_pool_result(fut) for fut in futures]
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, concurrent.futures.BrokenExecutor):
            with pool(max_workers=1) as ex:
                outcomes[i] = _pool_result(ex.submit(_run_cell, *tasks[i]))
    return outcomes


def check_workers(workers: int | None) -> None:
    """None or 1 runs the cells serially; more runs them in a pool."""
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")


@dataclass
class MatrixReport:
    report: dict
    n_failed_cells: int

    def json_text(self) -> str:
        return json.dumps(self.report, indent=2, sort_keys=True) + "\n"


def _matrix_views(cfg: ExperimentConfig, clf_labels: list[str],
                  cells: dict) -> dict:
    """Per-aggregation matrices of mean EER in percent, with row and
    column means over the non-failed cells."""
    out = {}
    fs_labels = [label for label, _ in cfg.feature_sets]
    for agg in cfg.aggregations:
        key = aggregation_key(agg)
        grid: dict[str, dict[str, float | None]] = {}
        for fs in fs_labels:
            grid[fs] = {}
            for clf in clf_labels:
                cell = cells[fs][clf]
                value = None
                if "error" not in cell and cell[key]["mean_eer"] is not None:
                    value = cell[key]["mean_eer"] * 100.0
                grid[fs][clf] = value
        row_means = {}
        for fs in fs_labels:
            vals = [v for v in grid[fs].values() if v is not None]
            row_means[fs] = sum(vals) / len(vals) if vals else None
        col_means = {}
        for clf in clf_labels:
            vals = [grid[fs][clf] for fs in fs_labels
                    if grid[fs][clf] is not None]
            col_means[clf] = sum(vals) / len(vals) if vals else None
        out[key] = {"feature_sets": fs_labels, "classifiers": clf_labels,
                    "cells": grid, "row_means": row_means,
                    "col_means": col_means}
    return out


def run_matrix(cfg: ExperimentConfig, workers: int | None = None,
               ) -> MatrixReport:
    """Evaluate the full feature-set x classifier grid.

    Per-cell failures are recorded and the matrix is still emitted;
    the failure count is surfaced for the caller's exit code.
    """
    check_workers(workers)
    t0 = time.monotonic()
    dataset, eligibility = load_experiment_dataset(cfg.dataset)
    full_table = build_feature_table(dataset)
    # every cell's table shares full_table's sessions, so one plan per
    # (user, repetition) serves them all
    try:
        plans = sampling_plans(full_table, cfg.aggregations, cfg.protocol)
    except SwipebenchError as err:
        plans = err     # no cell can run; each records this one error

    clf_labels = _classifier_labels(cfg.classifiers)
    names, tasks = [], []
    for fs_label, ids in cfg.feature_sets:
        sliced = full_table.select(ids)
        for clf_label, spec in zip(clf_labels, cfg.classifiers):
            names.append((fs_label, clf_label))
            tasks.append((sliced, spec, cfg.aggregations, cfg.protocol,
                          plans))

    if isinstance(plans, SwipebenchError):
        outcomes = [plans] * len(tasks)
    elif workers and workers > 1:
        outcomes = _run_pooled(tasks, workers)
    else:
        outcomes = [_run_cell(*task) for task in tasks]

    cells: dict[str, dict[str, dict]] = {fs: {} for fs, _ in cfg.feature_sets}
    failures = []
    for (fs_label, clf_label), res in zip(names, outcomes):
        if isinstance(res, Exception):
            msg = f"{type(res).__name__}: {res}"
            cells[fs_label][clf_label] = {"error": msg}
            failures.append({"feature_set": fs_label,
                             "classifier": clf_label, "error": msg})
        else:
            cells[fs_label][clf_label] = {
                key: summary.as_dict() for key, summary in res.items()}

    base_fs, base_clf = names[0]
    matrices = _matrix_views(cfg, clf_labels, cells)
    aggregation_row = {key: view["cells"][base_fs][base_clf]
                       for key, view in matrices.items()}

    report = {
        "config": cfg.echo(),
        "dataset": {"name": dataset.name, "n_users": dataset.n_users,
                    "n_swipes": dataset.n_swipes,
                    "eligibility": eligibility},
        "matrices": matrices,
        "aggregation_row": {"feature_set": base_fs, "classifier": base_clf,
                            "mean_eer_percent": aggregation_row},
        "cells": cells,
        "failures": failures,
        "timing": {"wall_time_s": time.monotonic() - t0},
    }
    return MatrixReport(report=report, n_failed_cells=len(failures))


def _csv_number(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def matrix_csv(view: dict) -> str:
    """One aggregation variant's matrix as CSV (mean EER in percent), its
    feature-set labels quoted as ``ingest._csv_cells`` does."""
    cols = view["classifiers"]
    lines = [",".join(["feature_set"] + cols + ["row_mean"])]
    for fs, label in zip(view["feature_sets"],
                         _csv_cells(view["feature_sets"])):
        row = [label] + [_csv_number(view["cells"][fs][c]) for c in cols]
        row.append(_csv_number(view["row_means"][fs]))
        lines.append(",".join(row))
    tail = ["col_mean"] + [_csv_number(view["col_means"][c]) for c in cols]
    tail.append("")
    lines.append(",".join(tail))
    return "\n".join(lines) + "\n"


def aggregation_row_csv(report: dict) -> str:
    block = report["aggregation_row"]
    lines = ["aggregation,mean_eer_percent"]
    for key in sorted(block["mean_eer_percent"]):
        lines.append(
            f"{key},{_csv_number(block['mean_eer_percent'][key])}")
    return "\n".join(lines) + "\n"


def make_output_dir(out_dir) -> Path:
    """The report directory, created with its parents if missing;
    DataError when it cannot be."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise DataError(f"cannot write {out}: {err}") from None
    return out


def write_report(result: MatrixReport, out_dir, formats=FORMATS) -> list[Path]:
    out = make_output_dir(out_dir)
    files = {}
    if "json" in formats:
        files["report.json"] = result.json_text()
    if "csv" in formats:
        for key, view in sorted(result.report["matrices"].items()):
            files[f"matrix_{key}.csv"] = matrix_csv(view)
        files["aggregation_row.csv"] = aggregation_row_csv(result.report)
    for name, text in files.items():
        rewrite_text(out / name, text)
    return [out / name for name in files]
