"""Model blobs of the kinds that no other golden file pins.

``tests/data/golden_blobs.json`` holds the ``to_blob`` documents of small
seeded svm_rbf, oc_svm_rbf, gaussian_nb, knn, logistic_regression,
neural_net and ensemble models, each trained on one seeded matrix with
and without a defined-mask. A renamed payload key, a changed number type
or a change of training shows up here, and the stored blobs must keep
loading; the tree kinds are pinned in ``golden_trees.json``. Regenerate
the file only for a deliberate change of format:

    PYTHONPATH=src python tests/test_blobs.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from swipebench.classifiers import ClassifierSpec, from_blob, to_blob, train

GOLDEN = Path(__file__).parent / "data" / "golden_blobs.json"
SPECS = {
    "svm_rbf": {},
    "oc_svm_rbf": {},
    "gaussian_nb": {},
    "knn": {"k": 5},
    "logistic_regression": {},
    "neural_net": {"hidden": (4, 3), "epochs": 2, "batch_size": 8},
    "ensemble": {"members": ("svm_rbf", "gaussian_nb",
                             "logistic_regression")},
}
CASES = [(kind, masked) for kind in SPECS for masked in (False, True)]


def golden_data():
    rng = np.random.default_rng(4242)
    X = rng.normal(size=(24, 4))
    y = (X[:, 0] + 0.5 * rng.normal(size=24) > 0).astype(int)
    defined = rng.random(X.shape) > 0.15
    return X, y, defined


def train_case(kind, masked):
    X, y, defined = golden_data()
    return train(ClassifierSpec(kind, SPECS[kind], seed=5), X, y,
                 defined if masked else None)


def case_name(kind, masked):
    return kind + ("_masked" if masked else "")


def golden_doc() -> dict:
    return {case_name(kind, masked): json.loads(to_blob(train_case(kind, masked)))
            for kind, masked in CASES}


@pytest.mark.parametrize("kind, masked", CASES)
def test_blob_bytes_equal_golden(kind, masked):
    expected = json.loads(GOLDEN.read_text())[case_name(kind, masked)]
    expected_bytes = json.dumps(expected, sort_keys=True).encode()
    assert to_blob(train_case(kind, masked)) == expected_bytes
    assert to_blob(from_blob(expected_bytes)) == expected_bytes


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1) + "\n")
