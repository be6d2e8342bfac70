"""The matrix report: a frozen golden file.

``tests/data/golden_matrix.json`` holds the ``run_matrix`` report, all
of it outside ``timing``, for a 2 x 2 grid of feature sets and kinds on
one seeded synthetic corpus, under every aggregation method over two
repetitions. Every cell shares one sampling plan per (user,
repetition), so a change to how plans are built or shared shows up
here. The report is compared exactly. Regenerate the file only for a
deliberate change of the protocol:

    PYTHONPATH=src python tests/test_matrix_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from swipebench.experiments import (load_experiment_dataset, parse_config,
                                    run_matrix)
from swipebench.features.extract import build_feature_table
from swipebench.protocol import run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden_matrix.json"
SMALL_STACKER = {"hidden": 4, "epochs": 5, "batch_size": 8}
CONFIG = {
    "dataset": {"synthetic": {"users": 4, "sessions_per_user": 3,
                              "swipes_per_session": 10,
                              "separability": 0.5, "seed": 17}},
    "feature_set": ["frank2013", [1, 2, 3, 76, 77, 99]],
    "classifier": ["knn", "gaussian_nb"],
    "aggregation": ["none",
                    {"method": "mean", "window": 3},
                    {"method": "median", "window": 3},
                    {"method": "vote", "window": 3},
                    {"method": "trust", "window": 3},
                    {"method": "feed", "window": 2},
                    {"method": "stacking", "window": 3,
                     "stacker": SMALL_STACKER}],
    "protocol": {"repetitions": 2, "seed": 3},
}


def report_doc() -> dict:
    """The report outside timing, as its JSON text reads back."""
    report = run_matrix(parse_config(CONFIG)).report
    return json.loads(json.dumps(
        {k: v for k, v in report.items() if k != "timing"}, sort_keys=True))


@pytest.fixture(scope="module")
def fresh():
    return report_doc()


def test_report_matches_golden(fresh):
    assert fresh == json.loads(GOLDEN.read_text())


def test_golden_covers_every_method(fresh):
    cells = [cell for row in fresh["cells"].values() for cell in row.values()]
    assert len(cells) == 4 and fresh["failures"] == []
    methods = {key.split("-")[0] for key in cells[0]}
    assert methods == {"none", "mean", "median", "vote", "trust", "feed",
                       "stacking"}
    assert all(s["n_users_evaluated"] == 4
               for cell in cells for s in cell.values())


def test_matrix_cells_equal_independent_experiments(fresh):
    """Each cell equals run_experiment on its own table, building its
    own plans."""
    cfg = parse_config(CONFIG)
    dataset, _ = load_experiment_dataset(cfg.dataset)
    full_table = build_feature_table(dataset)
    for fs_label, ids in cfg.feature_sets:
        table = full_table.select(ids)
        for spec in cfg.classifiers:
            alone = run_experiment(table, spec, cfg.aggregations,
                                   cfg.protocol)
            doc = json.loads(json.dumps(
                {k: s.as_dict() for k, s in alone.items()}))
            assert doc == fresh["cells"][fs_label][spec.kind], \
                (fs_label, spec.kind)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(report_doc(), indent=1, sort_keys=True)
                      + "\n")
