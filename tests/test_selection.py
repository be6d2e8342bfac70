"""ANOVA F scores and cross-dataset vote selection."""

import json
import re
from importlib import resources

import numpy as np
import pytest

from oracles import oracle_anova_f
from swipebench.errors import ConfigError, EmptyMatrix, SingleClass
from swipebench.features.extract import FeatureTable
from swipebench.selection import (anova_f_scores,
                                  default_selection_document, rank_dataset,
                                  select_features)

N_FIXTURES = 50


def test_f_scores_match_oracle_on_fuzzed_fixtures():
    rng = np.random.default_rng(3307)
    for _ in range(N_FIXTURES):
        k = int(rng.integers(2, 6))
        sizes = rng.integers(3, 12, size=k)
        cols = int(rng.integers(1, 8))
        blocks, labels = [], []
        for g, size in enumerate(sizes):
            shift = rng.normal(0.0, 2.0, size=cols)
            blocks.append(rng.normal(shift, 1.0, size=(size, cols)))
            labels += [f"g{g}"] * int(size)
        X = np.vstack(blocks)
        f = anova_f_scores(X, labels)
        f_o = oracle_anova_f([X[:, j].tolist() for j in range(cols)], labels)
        np.testing.assert_allclose(f, f_o, rtol=1e-9, atol=1e-9)


def test_f_score_hand_computed_two_groups():
    # group A: 1, 2, 3; group B: 5, 6, 7 -> SSB = 24, SSW = 4
    # F = (24 / 1) / (4 / 4) = 24
    X = np.array([[1.0], [2.0], [3.0], [5.0], [6.0], [7.0]])
    y = ["a", "a", "a", "b", "b", "b"]
    assert anova_f_scores(X, y)[0] == pytest.approx(24.0, abs=1e-12)


def test_f_score_sentinels():
    # column 0: constant within groups, different between -> inf
    # column 1: identical everywhere -> 0
    X = np.array([[1.0, 3.0], [1.0, 3.0], [2.0, 3.0], [2.0, 3.0]])
    y = ["a", "a", "b", "b"]
    f = anova_f_scores(X, y)
    assert np.isinf(f[0]) and f[0] > 0
    assert f[1] == 0.0


def test_f_scores_input_validation():
    with pytest.raises(SingleClass):
        anova_f_scores(np.ones((4, 2)), ["a"] * 4)
    with pytest.raises(EmptyMatrix):
        anova_f_scores(np.empty((0, 3)), [])
    with pytest.raises(EmptyMatrix):
        anova_f_scores(np.ones((4, 2)), ["a", "b"])


def toy_table(name, X, users, feature_ids, defined=None):
    X = np.asarray(X, dtype=float)
    if defined is None:
        defined = np.ones(X.shape, dtype=bool)
    sessions = {u: [("s1", np.where(np.array(users) == u)[0])]
                for u in sorted(set(users))}
    return FeatureTable(dataset_name=name, feature_ids=tuple(feature_ids),
                        X=X, defined=np.asarray(defined, dtype=bool),
                        user_ids=list(users), session_ids=["s1"] * len(users),
                        user_sessions=sessions)


def test_rank_dataset_orders_by_f_descending():
    rng = np.random.default_rng(11)
    users = ["a"] * 6 + ["b"] * 6
    strong = np.concatenate([rng.normal(0, 0.1, 6), rng.normal(5, 0.1, 6)])
    weak = np.concatenate([rng.normal(0, 1.0, 6), rng.normal(0.3, 1.0, 6)])
    noise = rng.normal(0, 1.0, 12)
    table = toy_table("d", np.column_stack([weak, strong, noise]),
                      users, (3, 7, 9))
    ranked, excluded, scores = rank_dataset(table)
    assert ranked[0] == 7
    assert excluded == []
    assert scores[7] > scores[3]
    assert sorted(ranked) == [3, 7, 9]


def test_rank_dataset_tie_breaks_toward_lower_id():
    users = ["a", "a", "b", "b"]
    col = np.array([0.0, 1.0, 4.0, 5.0])
    table = toy_table("d", np.column_stack([col, col.copy()]), users, (12, 4))
    ranked, _, scores = rank_dataset(table)
    assert scores[4] == scores[12]
    assert ranked == [4, 12]


def test_rank_dataset_excludes_mostly_undefined_features():
    users = ["a", "a", "b", "b"]
    X = np.array([[0.0, 1.0], [1.0, 2.0], [4.0, 1.5], [5.0, 2.5]])
    defined = np.array([[True, True], [True, False],
                        [True, False], [True, False]])
    table = toy_table("d", X, users, (1, 2), defined)
    ranked, excluded, _ = rank_dataset(table)
    assert ranked == [1]
    assert excluded == [2]


def test_defined_on_exactly_half_the_rows_is_kept():
    users = ["a", "a", "b", "b"]
    X = np.array([[0.0], [1.0], [4.0], [5.0]])
    defined = np.array([[True], [True], [False], [False]])
    table = toy_table("d", X, users, (1,), defined)
    ranked, excluded, _ = rank_dataset(table)
    assert ranked == [1] and excluded == []


def engineered_tables():
    """Three single-column-per-feature datasets with hand-chosen rankings.

    Feature separations per dataset (higher = better rank):
      dataset p: 1 strong, 2 medium, 3 none
      dataset q: 1 strong, 3 medium, 2 none
      dataset r: 2 strong, 3 medium, 1 none
    With top_n = 2: p -> {1, 2}, q -> {1, 3}, r -> {2, 3};
    votes: 1 -> 2, 2 -> 2, 3 -> 2.
    With top_n = 1: p -> {1}, q -> {1}, r -> {2}; only 1 has >= 2 votes.
    """
    rng = np.random.default_rng(99)
    users = ["a"] * 8 + ["b"] * 8

    def col(sep):
        return np.concatenate([rng.normal(0, 1.0, 8), rng.normal(sep, 1.0, 8)])

    tables = []
    for name, seps in (("p", {1: 40, 2: 10, 3: 0}),
                       ("q", {1: 40, 3: 10, 2: 0}),
                       ("r", {2: 40, 3: 10, 1: 0})):
        X = np.column_stack([col(seps[fid]) for fid in (1, 2, 3)])
        tables.append(toy_table(name, X, users, (1, 2, 3)))
    return tables


def test_vote_selection_enumerated():
    tables = engineered_tables()
    res = select_features(tables, top_n=2, min_votes=2)
    assert res.selected == (1, 2, 3)
    assert res.per_dataset_top["p"] == (1, 2)
    assert res.per_dataset_top["q"] == (1, 3)
    assert res.per_dataset_top["r"] == (2, 3)

    res1 = select_features(tables, top_n=1, min_votes=2)
    assert res1.selected == (1,)

    # every feature reaches all three tops once top_n covers the catalog
    res3 = select_features(tables, top_n=3, min_votes=3)
    assert res3.selected == (1, 2, 3)


def test_vote_threshold_unreachable_raises():
    tables = engineered_tables()
    with pytest.raises(EmptyMatrix):
        select_features(tables, top_n=1, min_votes=3)


def test_select_features_validation():
    tables = engineered_tables()
    with pytest.raises(ConfigError):
        select_features(tables, top_n=0)
    with pytest.raises(ConfigError):
        select_features(tables, min_votes=0)
    with pytest.raises(ConfigError):
        select_features(tables[:1], min_votes=2)


def test_select_features_rejects_repeated_dataset_names():
    """Results are keyed by dataset name: one corpus passed twice would
    keep one entry yet cast two votes, so the call fails before ranking."""
    tables = engineered_tables()
    for repeated in ([tables[0], tables[0]],
                     [tables[0], tables[1], tables[0], tables[1]]):
        names = sorted({t.dataset_name for t in repeated})
        with pytest.raises(ConfigError, match=re.escape(f"repeated: {names}")):
            select_features(repeated, top_n=1, min_votes=2)


def test_selection_result_roundtrips_to_dict():
    res = select_features(engineered_tables(), top_n=2, min_votes=2)
    d = res.as_dict()
    assert d["selected"] == [1, 2, 3]
    assert d["top_n"] == 2 and d["min_votes"] == 2
    assert set(d["per_dataset_top"]) == {"p", "q", "r"}


def test_shipped_anova_set_is_what_selection_writes():
    """The packaged ANOVA set is byte for byte what ``python -m
    swipebench.selection`` writes, so a change to extraction or selection
    that would move it shows here."""
    shipped = resources.files("swipebench.data").joinpath(
        "anova125.json").read_text()
    doc = default_selection_document()
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == shipped
