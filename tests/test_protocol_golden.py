"""Protocol outcomes: a frozen golden file.

``tests/data/golden_protocol.json`` holds the ``evaluate_user_repetition``
outcomes (EER, skip reason and counts) of two base models under every
aggregation method, for two users over two repetitions of one seeded
synthetic table, plus a table on which the learned aggregators have no
genuine training window. Any change to sampling, windowing, seeding or
scoring shows up here. Outcomes are compared exactly. Regenerate the file
only for a deliberate change of the protocol:

    PYTHONPATH=src python tests/test_protocol_golden.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import dataset_from_sessions, random_swipe
from swipebench.aggregation import AggregationSpec
from swipebench.classifiers import ClassifierSpec
from swipebench.features.catalog import STUDY_SETS
from swipebench.features.extract import build_feature_table
from swipebench.protocol import ProtocolConfig, evaluate_user_repetition
from swipebench.stacking import StackerSpec
from swipebench.synthetic import SyntheticSpec, generate_synthetic

GOLDEN = Path(__file__).parent / "data" / "golden_protocol.json"
CLASSIFIERS = ("knn", "oc_svm_rbf")
SMALL_STACKER = StackerSpec(hidden=4, epochs=5, batch_size=8)
VARIANTS = [AggregationSpec("none", 1), AggregationSpec("mean", 3),
            AggregationSpec("median", 3), AggregationSpec("vote", 3),
            AggregationSpec("trust", 3),
            AggregationSpec("stacking", 3, stacker=SMALL_STACKER),
            AggregationSpec("feed", 2)]
USERS = ("u00", "u02")
REPETITIONS = (0, 1)
CONFIG = ProtocolConfig(seed=3)


def synthetic_table():
    spec = SyntheticSpec(users=4, sessions_per_user=3, swipes_per_session=10,
                         separability=0.5, seed=61)
    return build_feature_table(generate_synthetic(spec)).select(
        STUDY_SETS["frank2013"])


def short_train_table():
    """Target "a" trains on a 2-swipe session: no window of 3 fits it."""
    rng = np.random.default_rng(5)
    per_user = {u: {f"s{j}": [random_swipe(rng, user=u, session=f"s{j}")
                              for _ in range(k)]
                    for j, k in enumerate(lengths)}
                for u, lengths in (("a", [2, 6]), ("b", [6, 6]),
                                   ("c", [6, 6]))}
    return build_feature_table(dataset_from_sessions(per_user))


def outcomes(table, user, kind, variants, repetition) -> dict:
    res = evaluate_user_repetition(table, user, ClassifierSpec(kind),
                                   variants, CONFIG, repetition)
    return {key: {"eer": o.eer, "skip_reason": o.skip_reason,
                  "counts": o.counts}
            for key, o in res.items()}


def golden_doc() -> dict:
    table = synthetic_table()
    doc = {kind: {f"{user}/r{rep}": outcomes(table, user, kind, VARIANTS, rep)
                  for user in USERS for rep in REPETITIONS}
           for kind in CLASSIFIERS}
    doc["skip"] = outcomes(
        short_train_table(), "a", "knn",
        [AggregationSpec("mean", 3),
         AggregationSpec("stacking", 3, stacker=SMALL_STACKER),
         AggregationSpec("feed", 3)], 0)
    return doc


@pytest.fixture(scope="module")
def fresh():
    return golden_doc()


@pytest.mark.parametrize("part", [*CLASSIFIERS, "skip"])
def test_outcomes_match_golden(fresh, part):
    saved = json.loads(GOLDEN.read_text())
    assert fresh[part] == saved[part]


def test_golden_covers_every_method_and_a_skip(fresh):
    methods = {key.split("-")[0] for cell in fresh["knn"].values()
               for key in cell}
    assert methods == {spec.method for spec in VARIANTS}
    assert all(o["eer"] is not None
               for kind in CLASSIFIERS for cell in fresh[kind].values()
               for o in cell.values())
    assert fresh["skip"]["mean-w3"]["eer"] is not None
    for key in ("stacking-w3", "feed-w3"):
        assert fresh["skip"][key] == {
            "eer": None, "skip_reason": "no-genuine-train-windows",
            "counts": {}}


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1, sort_keys=True)
                      + "\n")
