"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` and then runs
``round``, the same operations every time, as often as the run allows.
``round`` returns the operations it attempted, how many failed and a
digest of its outputs; ``check`` verifies the last round's outputs
against oracles and invariants outside the timed part. Inputs are
sized so that a round takes a few seconds and no operation fails.
"""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path

import numpy as np

from swipebench import experiments, ingest, protocol, selection, synthetic, touchdata
from swipebench.aggregation import AggregationSpec
from swipebench.classifiers import ClassifierSpec
from swipebench.features import extract

import checks


def _seeds(seed: int, n: int) -> list[int]:
    """n independent generator seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)
    return [int(s) for s in state]


def _eers(summaries: dict) -> dict:
    """aggregation key -> user -> per-repetition EERs of one cell."""
    return {key: s.per_user for key, s in summaries.items()}


def _count_eers(per_key: dict) -> tuple[int, int]:
    """(attempted, failed) over one cell's (user, repetition, variant)s;
    a skipped user counts as failed."""
    eers = [e for per_user in per_key.values()
            for values in per_user.values() for e in values]
    return len(eers), sum(1 for e in eers if e is None)


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(seed)    # picks what the checks sample

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> tuple[int, int, str]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class Corpus(Workload):
    """Three corpora, one per ingest format, from file to selected,
    exported feature table. No classifier runs."""

    name = "corpus"
    USERS, SESSIONS, SWIPES = 6, 3, 16
    SEPARABILITY = 2.0
    FORMATS = ("csv", "jsonl", "raw")
    ROWS_CHECKED = 8         # oracle-checked rows per corpus

    def setup(self) -> None:
        self.paths = {}
        self.generated = {}
        for fmt, seed in zip(self.FORMATS, _seeds(self.seed, 3)):
            data = synthetic.generate_synthetic(synthetic.SyntheticSpec(
                users=self.USERS, sessions_per_user=self.SESSIONS,
                swipes_per_session=self.SWIPES,
                separability=self.SEPARABILITY, seed=seed,
                name=f"corpus-{fmt}"))
            path = self.work_dir / f"corpus.{fmt}"
            if fmt == "raw":
                write_touchalytics(data, path)
            else:
                ingest.write_canonical(data, path, fmt=fmt)
            self.paths[fmt] = path
            self.generated[fmt] = data.n_swipes

    def round(self) -> tuple[int, int, str]:
        self.ingested = {}
        tables = []
        for fmt in self.FORMATS:
            if fmt == "raw":
                adapter = ingest.AdapterConfig.load(adapter_path())
                records, _ = ingest.convert_raw(self.paths[fmt], adapter)
                data, seg = ingest.assemble_dataset(adapter.dataset, records)
            else:
                data, report = ingest.load_canonical(self.paths[fmt])
                seg = report.segmentation
            eligible, _ = touchdata.filter_eligible(data)
            table = extract.build_feature_table(eligible)
            self.ingested[fmt] = (seg, eligible, table)
            tables.append(table)
        self.selection = selection.select_features(tables)
        exported = []
        for fmt, table in zip(self.FORMATS, tables):
            text = extract.export_table_csv(
                table.select(self.selection.selected))
            (self.work_dir / f"selected-{fmt}.csv").write_text(text)
            exported.append(checks.digest(text))
        rows = sum(t.n_rows for t in tables)
        lost = sum(self.generated.values()) - rows
        return rows + lost, lost, checks.digest(
            [exported, list(self.selection.selected)])

    def check(self) -> None:
        tables = []
        for fmt in self.FORMATS:
            seg, eligible, table = self.ingested[fmt]
            checks.check_conservation(seg.samples_in, seg.samples_kept,
                                      table.n_rows, self.generated[fmt], fmt)
            rows = self.rng.sample(range(table.n_rows), self.ROWS_CHECKED)
            checks.check_feature_rows(table, checks.table_swipes(eligible),
                                      sorted(rows))
            tables.append(table)
        checks.check_selection(tables, self.selection)


def adapter_path() -> Path:
    return Path(str(resources.files("swipebench.data").joinpath(
        "adapters/touchalytics.conf")))


def write_touchalytics(data, path: Path) -> None:
    """A raw export in the layout touchalytics.conf reads: no header;
    phone, user, document, time, action (0 down, 1 up, 2 move),
    orientation, x, y, pressure, area, finger orientation."""
    action = {"down": "0", "up": "1", "move": "2"}
    lines = []
    for user_id in data.user_ids():
        for session in data.users[user_id].sessions:
            for swipe in session.swipes:
                for s in swipe.samples:
                    lines.append(",".join([
                        s.device_model, s.user_id, s.session_id, str(s.t),
                        action[s.phase], "1", repr(s.x), repr(s.y),
                        repr(s.pressure), repr(s.area), "0.0"]))
    path.write_text("\n".join(lines) + "\n")


class EnsembleCell(Workload):
    """Criterion 4's shape at a smaller size: the ensemble under every
    closed-form reducer and the stacker at window 5, plus two kinds that
    train without networks."""

    name = "ensemble-cell"
    USERS, SESSIONS, SWIPES = 5, 3, 20
    SEPARABILITY = 8.0
    WINDOWED = ("mean", "median", "vote", "trust", "stacking")
    # vote at window 5 is not checked against none-w1: with its fixed 0.5
    # threshold it ties genuine and impostor windows and does worse than
    # none-w1 on most seeds of this corpus (see CHANGES.md)
    CHECKED = ("mean", "median", "trust", "stacking")
    PROTOCOL = protocol.ProtocolConfig(repetitions=1, seed=0)

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        ensemble = [AggregationSpec("none", 1)] + [
            AggregationSpec(m, 5) for m in self.WINDOWED]
        single = [AggregationSpec("none", 1)]
        self.cells = [(ClassifierSpec("ensemble"), ensemble),
                      (ClassifierSpec("logistic_regression"), single),
                      (ClassifierSpec("isolation_forest"), single)]

    def setup(self) -> None:
        data = synthetic.generate_synthetic(synthetic.SyntheticSpec(
            users=self.USERS, sessions_per_user=self.SESSIONS,
            swipes_per_session=self.SWIPES, separability=self.SEPARABILITY,
            seed=_seeds(self.seed, 1)[0], name="ensemble-cell"))
        self.table = extract.build_feature_table(data)

    def round(self) -> tuple[int, int, str]:
        self.results = [protocol.run_experiment(self.table, spec, aggs,
                                                self.PROTOCOL)
                        for spec, aggs in self.cells]
        attempted = failed = 0
        for summaries in self.results:
            a, f = _count_eers(_eers(summaries))
            attempted, failed = attempted + a, failed + f
        return attempted, failed, checks.digest(
            [_eers(s) for s in self.results])

    def check(self) -> None:
        checks.check_criterion_4(self.results[0], self.CHECKED)
        spec, aggs = self.cells[0]
        agg = self.rng.choice(aggs)
        user = self.rng.choice(sorted(self.table.user_sessions))
        rep = self.rng.randrange(self.PROTOCOL.repetitions)
        key = protocol.aggregation_key(agg)
        alone = protocol.run_user_evaluation(self.table, user, spec, agg,
                                             self.PROTOCOL, rep).eer
        checks.check_same_eer(f"ensemble/{key}/{user}/rep{rep}", alone,
                              self.results[0][key].per_user[user][rep])


class ProtocolGrid(Workload):
    """The matrix verb's library path on a low-separability corpus:
    cheap kinds and many aggregation variants per cell."""

    name = "protocol-grid"
    USERS, SESSIONS, SWIPES = 5, 3, 18
    SEPARABILITY = 0.5
    FEATURE_SETS = ["ALL", "frank2013", "serwadda2013"]
    KINDS = ["gaussian_nb", "oc_svm_rbf", "knn", "decision_tree"]
    WINDOWS = (3, 5, 7)
    REPETITIONS = 2

    def setup(self) -> None:
        data = synthetic.generate_synthetic(synthetic.SyntheticSpec(
            users=self.USERS, sessions_per_user=self.SESSIONS,
            swipes_per_session=self.SWIPES, separability=self.SEPARABILITY,
            seed=_seeds(self.seed, 1)[0], name="protocol-grid"))
        self.corpus = self.work_dir / "grid.csv"
        ingest.write_canonical(data, self.corpus)
        aggs = [{"method": "none", "window": 1}]
        aggs += [{"method": m, "window": w} for w in self.WINDOWS
                 for m in ("mean", "median", "vote", "trust")]
        aggs += [{"method": "feed", "window": 2}]
        self.config = experiments.parse_config({
            "dataset": {"path": str(self.corpus)},
            "feature_set": self.FEATURE_SETS, "classifier": self.KINDS,
            "aggregation": aggs,
            "protocol": {"repetitions": self.REPETITIONS, "seed": 0}})

    def round(self) -> tuple[int, int, str]:
        result = experiments.run_matrix(self.config)
        experiments.write_report(result, self.work_dir / "report")
        self.report = result.report
        attempted = failed = 0
        for row in self.report["cells"].values():
            for cell in row.values():
                if "error" in cell:
                    # a failed cell loses every EER it would have produced
                    n = (self.USERS * self.REPETITIONS
                         * len(self.config.aggregations))
                    attempted, failed = attempted + n, failed + n
                    continue
                per_key = {k: s["per_user"] for k, s in cell.items()}
                a, f = _count_eers(per_key)
                attempted, failed = attempted + a, failed + f
        outside_timing = {k: v for k, v in self.report.items()
                          if k != "timing"}
        # the corpus path differs between checkouts of one commit
        outside_timing["config"] = dict(outside_timing["config"],
                                        dataset=self.corpus.name)
        return attempted, failed, checks.digest(outside_timing)

    def check(self) -> None:
        checks.check_grid_report(self.report)
        fs_label, ids = self.rng.choice(self.config.feature_sets)
        kind_index = self.rng.randrange(len(self.config.classifiers))
        spec = self.config.classifiers[kind_index]
        agg = self.rng.choice(self.config.aggregations)
        rep = self.rng.randrange(self.REPETITIONS)
        data, _ = experiments.load_experiment_dataset(self.config.dataset)
        table = extract.build_feature_table(data).select(ids)
        user = self.rng.choice(sorted(table.user_sessions))
        key = protocol.aggregation_key(agg)
        alone = protocol.run_user_evaluation(table, user, spec, agg,
                                             self.config.protocol, rep).eer
        clf_label = self.KINDS[kind_index]
        in_cell = self.report["cells"][fs_label][clf_label][key]
        checks.check_same_eer(f"{fs_label}/{clf_label}/{key}/{user}/rep{rep}",
                              alone, in_cell["per_user"][user][rep])


WORKLOADS = {w.name: w for w in (Corpus, EnsembleCell, ProtocolGrid)}
