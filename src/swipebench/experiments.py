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
from .features.catalog import STUDY_SETS, resolve_feature_ids
from .features.extract import FeatureTable, build_feature_table
from .ingest import load_canonical, rewrite_text
from .protocol import (CellSummary, ProtocolConfig, aggregation_key,
                       run_experiment, sampling_plans)
from .spec import read_object
from .synthetic import SyntheticSpec, generate_synthetic
from .touchdata import Dataset, EligibilityCriteria, filter_eligible

FORMATS = ("csv", "json")


def anova_default_ids() -> tuple[int, ...]:
    """The shipped cross-dataset selection result (a data file produced
    by the selection pipeline)."""
    text = resources.files("swipebench.data").joinpath(
        "anova125.json").read_text()
    doc = json.loads(text)
    return tuple(int(i) for i in doc["feature_ids"])


def resolve_feature_set(ref, position: int = 0) -> tuple[str, tuple[int, ...]]:
    """One feature_set entry -> (label, feature ids).

    Accepts a study key, "ALL", "ANOVA", an explicit id list, or
    {"name": ..., "ids": [...]}.
    """
    if isinstance(ref, str):
        key = ref.strip().lower()
        if key == "all":
            return "ALL", resolve_feature_ids("all")
        if key == "anova":
            return "ANOVA", anova_default_ids()
        if key in STUDY_SETS:
            return key, resolve_feature_ids(key)
        raise ConfigError(f"unknown feature set {ref!r}")
    if isinstance(ref, dict):
        read_object(ref, {"name": str, "ids": list}, ("ids",),
                    f"feature_set[{position}]")
        return (ref.get("name", f"custom{position}"),
                resolve_feature_ids(ref["ids"]))
    return f"custom{position}", resolve_feature_ids(ref)


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _classifier_entry(entry, path: str) -> ClassifierSpec:
    if isinstance(entry, str):
        return ClassifierSpec(kind=entry)
    if isinstance(entry, dict):
        return ClassifierSpec.from_dict(entry, path)
    raise ConfigError(f"{path} must be a kind name or object: {entry!r}")


def _aggregation_entry(entry, path: str) -> AggregationSpec:
    if isinstance(entry, str):
        return AggregationSpec.from_dict({"method": entry}, path)
    if isinstance(entry, dict):
        return AggregationSpec.from_dict(entry, path)
    raise ConfigError(f"{path} must be a method name or object: {entry!r}")


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
                    for i, ref in enumerate(_as_list(doc.get("feature_set", "all")))]
    labels = [label for label, _ in feature_sets]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate feature set labels: {labels}")

    classifiers = [_classifier_entry(e, f"classifier[{i}]") for i, e in
                   enumerate(_as_list(doc.get("classifier", "ensemble")))]
    aggregations = [_aggregation_entry(e, f"aggregation[{i}]") for i, e in
                    enumerate(_as_list(doc.get("aggregation", "none")))]
    keys = [aggregation_key(a) for a in aggregations]
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate aggregation variants: {keys}")

    protocol = doc.get("protocol", ProtocolConfig())
    output = read_object(doc.get("output", {}), {"dir": str, "format": str},
                         path="output")
    fmt = output.get("format", "both")
    if fmt == "both":
        formats: tuple[str, ...] = FORMATS
    elif fmt in FORMATS:
        formats = (fmt,)
    else:
        raise ConfigError(f"unknown output.format {fmt!r}")

    return ExperimentConfig(
        dataset=dataset, feature_sets=feature_sets, classifiers=classifiers,
        aggregations=aggregations, protocol=protocol,
        output_dir=output.get("dir"), formats=formats)


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from None
    return parse_config(doc)


def load_experiment_dataset(source: dict) -> tuple[Dataset, dict]:
    """Materialize the config's dataset and keep only eligible users."""
    if "synthetic" in source:
        data = generate_synthetic(SyntheticSpec.from_dict(source["synthetic"]))
    else:
        data, _report = load_canonical(source["path"],
                                       name=source.get("name"))
    eligible, report = filter_eligible(data, EligibilityCriteria())
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
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(_run_cell, *task) for task in tasks]
            outcomes = [_pool_result(fut) for fut in futures]
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
    """One aggregation variant's matrix as CSV (mean EER in percent)."""
    cols = view["classifiers"]
    lines = [",".join(["feature_set"] + cols + ["row_mean"])]
    for fs in view["feature_sets"]:
        row = [fs] + [_csv_number(view["cells"][fs][c]) for c in cols]
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


def emit_plots(result: MatrixReport, out_dir) -> list[Path]:
    """Optional static renderings (requires matplotlib)."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise ConfigError(
            "plot emission needs matplotlib (install the 'plots' extra)")
    out = make_output_dir(out_dir)
    written = []

    block = result.report["aggregation_row"]["mean_eer_percent"]
    keys = sorted(block)
    vals = [block[k] if block[k] is not None else float("nan") for k in keys]
    fig, ax = plt.subplots(figsize=(8, 4))
    ax.bar(keys, vals)
    ax.set_ylabel("mean EER (%)")
    ax.set_title("Aggregation comparison")
    fig.tight_layout()
    path = out / "aggregation_row.png"
    fig.savefig(path)
    plt.close(fig)
    written.append(path)

    for key, view in sorted(result.report["matrices"].items()):
        fs = view["feature_sets"]
        cols = view["classifiers"]
        grid = [[view["cells"][f][c] if view["cells"][f][c] is not None
                 else float("nan") for c in cols] for f in fs]
        fig, ax = plt.subplots(
            figsize=(1.2 * len(cols) + 3, 0.5 * len(fs) + 2))
        im = ax.imshow(grid, aspect="auto")
        ax.set_xticks(range(len(cols)), cols, rotation=45, ha="right")
        ax.set_yticks(range(len(fs)), fs)
        fig.colorbar(im, ax=ax, label="mean EER (%)")
        ax.set_title(f"{key}")
        fig.tight_layout()
        path = out / f"matrix_{key}.png"
        fig.savefig(path)
        plt.close(fig)
        written.append(path)
    return written
