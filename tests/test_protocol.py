"""Per-user evaluation protocol: splits, sampling, and the full loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dataset_from_sessions, random_swipe
from swipebench.aggregation import AggregationSpec
from swipebench.classifiers import ClassifierSpec
from swipebench.classifiers.simple import KnnModel
from swipebench.errors import (ConfigError, EmptyGroup, TooFewAttackers,
                               TooFewSessions)
from swipebench.features.extract import build_feature_table
from swipebench.protocol import (ProtocolConfig, UserRepOutcome,
                                 aggregation_key, evaluate_user_repetition,
                                 partition_attackers, run_experiment,
                                 run_user_evaluation, sample_negatives,
                                 sampling_plan, split_user_sessions,
                                 summarize_cell)

KNN = ClassifierSpec(kind="knn")


# ---------------------------------------------------------------------------
# session split

def test_split_examples():
    assert split_user_sessions(list("abcde"), 0.8) == (list("abcd"), ["e"])
    assert split_user_sessions(list("ab"), 0.8) == (["a"], ["b"])
    assert split_user_sessions(list("abcdefghij"), 0.8) == \
        (list("abcdefgh"), ["i", "j"])
    assert split_user_sessions(list("abc"), 0.5) == (["a"], ["b", "c"])


def test_split_always_leaves_a_test_session():
    assert split_user_sessions(list("abcd"), 0.99) == (list("abc"), ["d"])
    assert split_user_sessions(list("ab"), 0.01) == (["a"], ["b"])


def test_split_needs_two_sessions():
    with pytest.raises(TooFewSessions):
        split_user_sessions(["only"], 0.8)


@settings(max_examples=60)
@given(st.integers(2, 30), st.floats(0.01, 0.99))
def test_split_partitions_in_order(n, fraction):
    sessions = list(range(n))
    train, test = split_user_sessions(sessions, fraction)
    assert train + test == sessions
    assert 1 <= len(train) <= n - 1


# ---------------------------------------------------------------------------
# attacker partition

def test_partition_sizes():
    rng = np.random.default_rng(0)
    ids = [f"u{i}" for i in range(10)]
    train, test = partition_attackers(ids, rng)
    assert len(train) == 5 and len(test) == 5

    train7, test7 = partition_attackers(ids[:7], rng)
    assert len(train7) == 4 and len(test7) == 3

    t2, s2 = partition_attackers(ids[:2], rng)
    assert len(t2) == 1 and len(s2) == 1


def test_partition_clamps_extreme_fractions():
    rng = np.random.default_rng(1)
    ids = list("abcde")
    train, test = partition_attackers(ids, rng, fraction=0.99)
    assert len(train) == 4 and len(test) == 1
    train, test = partition_attackers(ids, rng, fraction=0.01)
    assert len(train) == 1 and len(test) == 4


def test_partition_outputs_sorted_and_seed_dependent():
    ids = [f"u{i}" for i in range(8)]
    a = partition_attackers(ids, np.random.default_rng(5))
    b = partition_attackers(ids, np.random.default_rng(5))
    assert a == b
    assert a[0] == sorted(a[0]) and a[1] == sorted(a[1])
    seen = {tuple(partition_attackers(ids, np.random.default_rng(s))[0])
            for s in range(12)}
    assert len(seen) > 1


def test_partition_needs_two_users():
    with pytest.raises(TooFewAttackers):
        partition_attackers(["solo"], np.random.default_rng(0))


@settings(max_examples=80)
@given(st.integers(2, 25), st.floats(0.05, 0.95), st.integers(0, 2 ** 31))
def test_partition_is_disjoint_and_exhaustive(n, fraction, seed):
    ids = [f"u{i:02d}" for i in range(n)]
    train, test = partition_attackers(ids, np.random.default_rng(seed),
                                      fraction)
    assert set(train) | set(test) == set(ids)
    assert not set(train) & set(test)
    assert train and test


# ---------------------------------------------------------------------------
# negative sampling

def test_sampler_visits_each_pool_once_before_cycling():
    pools = [(u, [f"{u}-{i}" for i in range(4)]) for u in "abcde"]
    out = sample_negatives(pools, 5, np.random.default_rng(3))
    assert sorted(item[0] for item in out) == list("abcde")


def test_sampler_cycles_evenly():
    pools = [("a", ["a0", "a1"]), ("b", ["b0", "b1"])]
    out = sample_negatives(pools, 5, np.random.default_rng(7))
    by_user = {u: sum(1 for v in out if v.startswith(u)) for u in "ab"}
    assert sorted(by_user.values()) == [2, 3]


def test_sampler_draws_within_pool_uniformly():
    pools = [("a", list(range(0, 4))), ("b", list(range(10, 14)))]
    out = sample_negatives(pools, 10_000, np.random.default_rng(11))
    counts = {v: out.count(v) for v in set(out)}
    # exactly 5000 visits per pool; item draws are uniform within each
    assert sum(c for v, c in counts.items() if v < 10) == 5000
    for c in counts.values():
        assert abs(c - 1250) < 125, counts


def test_sampler_samples_with_replacement():
    pools = [("a", ["only"])]
    out = sample_negatives(pools, 7, np.random.default_rng(0))
    assert out == ["only"] * 7


def test_sampler_rejects_empty_input():
    with pytest.raises(EmptyGroup):
        sample_negatives([], 3, np.random.default_rng(0))
    with pytest.raises(EmptyGroup):
        sample_negatives([("a", [])], 3, np.random.default_rng(0))


def test_sampler_is_deterministic():
    pools = [("a", list(range(6))), ("b", list(range(10, 16)))]
    a = sample_negatives(pools, 40, np.random.default_rng(13))
    b = sample_negatives(pools, 40, np.random.default_rng(13))
    assert a == b


def scalar_sample_negatives(pools, count, rng) -> list:
    """The round-robin sampler with one scalar draw per visit."""
    order = rng.permutation(len(pools))
    out = []
    visit = 0
    while len(out) < count:
        _, items = pools[order[visit % len(pools)]]
        out.append(items[int(rng.integers(0, len(items)))])
        visit += 1
    return out


@settings(max_examples=300)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=9),
       st.integers(0, 80), st.integers(0, 2 ** 64 - 1))
def test_sampler_equals_one_scalar_draw_per_visit(sizes, count, seed):
    pools = [(f"u{j}", list(range(100 * j, 100 * j + n)))
             for j, n in enumerate(sizes)]
    batched, scalar = (np.random.default_rng(seed) for _ in range(2))
    assert sample_negatives(pools, count, batched) == \
        scalar_sample_negatives(pools, count, scalar)
    assert batched.random() == scalar.random()


# ---------------------------------------------------------------------------
# single user, single repetition

def specs(*pairs):
    return [AggregationSpec(method, window) for method, window in pairs]


def test_aggregation_key_format():
    assert aggregation_key(AggregationSpec("mean", 5)) == "mean-w5"
    assert aggregation_key(AggregationSpec("none", 1)) == "none-w1"


def test_evaluate_user_repetition_counts(small_table):
    res = evaluate_user_repetition(
        small_table, "u00", KNN, specs(("none", 1), ("mean", 3)),
        ProtocolConfig(), repetition=0)
    assert set(res) == {"none-w1", "mean-w3"}
    for key, outcome in res.items():
        assert not outcome.skipped
        assert 0.0 <= outcome.eer <= 1.0
    c = res["none-w1"].counts
    # 3 sessions x 12 swipes: 2 train sessions, balanced negatives
    assert c["n_train_pos"] == 24 and c["n_train_neg"] == 24
    assert c["n_attackers_train"] + c["n_attackers_test"] == 4
    assert c["n_test_genuine"] == 12
    assert c["n_test_impostor"] == c["n_test_genuine"]
    c3 = res["mean-w3"].counts
    assert c3["n_test_genuine"] == 4  # 12 rows, window 3, stride 3
    assert c3["n_test_impostor"] == 4


def test_evaluation_is_deterministic(small_table):
    run = lambda: evaluate_user_repetition(
        small_table, "u01", KNN, specs(("mean", 3)), ProtocolConfig(seed=4),
        repetition=2)
    assert run()["mean-w3"].eer == run()["mean-w3"].eer


def test_variant_results_do_not_depend_on_listing_order(small_table):
    cfg = ProtocolConfig()
    many = evaluate_user_repetition(
        small_table, "u02", KNN,
        specs(("mean", 3), ("vote", 3), ("stacking", 3), ("median", 3)),
        cfg, repetition=1)
    flipped = evaluate_user_repetition(
        small_table, "u02", KNN,
        specs(("stacking", 3), ("median", 3), ("vote", 3), ("mean", 3)),
        cfg, repetition=1)
    for key in many:
        assert many[key].eer == flipped[key].eer, key
    single = run_user_evaluation(small_table, "u02", KNN,
                                 AggregationSpec("mean", 3), cfg, repetition=1)
    assert single.eer == many["mean-w3"].eer


def test_repetitions_change_the_draws():
    rng = np.random.default_rng(17)
    # featureless data scored by a continuous model: EER hovers near
    # chance and tracks the random attacker partition, so distinct
    # repetitions should rarely coincide
    table = table_of({u: sessions_of(rng, u, [8, 8]) for u in "abcd"})
    cfg = ProtocolConfig()
    logreg = ClassifierSpec(kind="logistic_regression")
    eers = {rep: run_user_evaluation(table, "a", logreg,
                                     AggregationSpec("none", 1), cfg, rep).eer
            for rep in range(4)}
    assert len(set(eers.values())) > 1


def test_duplicate_variants_rejected(small_table):
    with pytest.raises(ConfigError):
        evaluate_user_repetition(small_table, "u00", KNN,
                                 specs(("mean", 3), ("mean", 3)),
                                 ProtocolConfig(), 0)


def array_entries(obj) -> int:
    """Array entries held anywhere in a sampling plan."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if dataclasses.is_dataclass(obj):
        obj = vars(obj).values()
    elif isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return 0
    return sum(array_entries(v) for v in obj)


def test_a_plan_grows_with_the_target_not_the_attackers():
    """Matrices share their plans across cells and workers, so a plan
    holds the target's rows and balanced windows only: giving every
    attacker three times the sessions leaves its size unchanged."""
    rng = np.random.default_rng(5)
    target = sessions_of(rng, "a", [8, 8, 8])
    aggs = specs(("none", 1), ("mean", 3), ("feed", 2), ("stacking", 3))
    sizes = []
    for n_sessions in (2, 6):
        per_user = {"a": target}
        per_user.update({u: sessions_of(rng, u, [8] * n_sessions)
                         for u in "bcde"})
        table = table_of(per_user)
        plan = sampling_plan(table, "a", aggs, ProtocolConfig(), 0)
        np.testing.assert_array_equal(
            np.concatenate([plan.train_rows, plan.test_rows]),
            table.rows_of_user("a"))
        sizes.append(array_entries(plan))
    assert sizes[0] == sizes[1]


def table_of(per_user):
    return build_feature_table(dataset_from_sessions(per_user))


def sessions_of(rng, user, lengths):
    return {f"s{j}": [random_swipe(rng, user=user, session=f"s{j}")
                      for _ in range(k)]
            for j, k in enumerate(lengths)}


def test_skip_too_few_sessions():
    rng = np.random.default_rng(1)
    table = table_of({
        "solo": sessions_of(rng, "solo", [5]),
        "a": sessions_of(rng, "a", [5, 5]),
        "b": sessions_of(rng, "b", [5, 5]),
        "c": sessions_of(rng, "c", [5, 5]),
    })
    res = evaluate_user_repetition(table, "solo", KNN, specs(("none", 1)),
                                   ProtocolConfig(), 0)
    assert res["none-w1"].skipped
    assert res["none-w1"].skip_reason == "too-few-sessions"


def test_skip_too_few_attackers():
    rng = np.random.default_rng(2)
    table = table_of({
        "a": sessions_of(rng, "a", [5, 5]),
        "b": sessions_of(rng, "b", [5, 5]),
    })
    res = evaluate_user_repetition(table, "a", KNN, specs(("none", 1)),
                                   ProtocolConfig(), 0)
    assert res["none-w1"].skip_reason == "too-few-attackers"


def test_skip_no_genuine_test_windows(small_table):
    outcome = run_user_evaluation(small_table, "u00", KNN,
                                  AggregationSpec("mean", 13),
                                  ProtocolConfig(), 0)
    assert outcome.skip_reason == "no-genuine-test-windows"


def test_skip_no_impostor_windows():
    rng = np.random.default_rng(3)
    table = table_of({
        "a": sessions_of(rng, "a", [6, 6]),
        "b": sessions_of(rng, "b", [2, 2]),
        "c": sessions_of(rng, "c", [2, 2]),
    })
    outcome = run_user_evaluation(table, "a", KNN, AggregationSpec("mean", 3),
                                  ProtocolConfig(), 0)
    assert outcome.skip_reason == "no-impostor-windows"


def test_skip_no_impostor_train_windows():
    rng = np.random.default_rng(4)
    # one long attacker and two short ones; depending on the partition the
    # long attacker either lands in the test group (training pools empty)
    # or in the training group (test pools empty), so no repetition can
    # complete and each hits one of the two impostor skip reasons
    table = table_of({
        "a": sessions_of(rng, "a", [6, 6]),
        "b": sessions_of(rng, "b", [6, 6]),
        "c": sessions_of(rng, "c", [2, 2]),
        "d": sessions_of(rng, "d", [2, 2]),
    })
    reasons = {run_user_evaluation(table, "a", KNN,
                                   AggregationSpec("stacking", 3),
                                   ProtocolConfig(), rep).skip_reason
               for rep in range(12)}
    assert "no-impostor-train-windows" in reasons
    assert reasons <= {"no-impostor-train-windows", "no-impostor-windows"}


def test_skip_no_genuine_train_windows():
    rng = np.random.default_rng(5)
    # target trains on a 2-swipe session, tests on a 6-swipe session;
    # attackers are long enough for both test and train pools
    table = table_of({
        "a": sessions_of(rng, "a", [2, 6]),
        "b": sessions_of(rng, "b", [6, 6]),
        "c": sessions_of(rng, "c", [6, 6]),
    })
    outcome = run_user_evaluation(table, "a", KNN,
                                  AggregationSpec("stacking", 3),
                                  ProtocolConfig(), 0)
    assert outcome.skip_reason == "no-genuine-train-windows"
    # the same evaluation under a closed-form method works fine
    ok = run_user_evaluation(table, "a", KNN, AggregationSpec("mean", 3),
                             ProtocolConfig(), 0)
    assert not ok.skipped


def test_learned_aggregators_run(small_table):
    cfg = ProtocolConfig()
    for method in ("stacking", "feed"):
        outcome = run_user_evaluation(small_table, "u03", KNN,
                                      AggregationSpec(method, 3), cfg, 0)
        assert not outcome.skipped, method
        assert outcome.counts["n_agg_train_genuine"] == \
            outcome.counts["n_agg_train_impostor"]


# ---------------------------------------------------------------------------
# summaries

def test_summarize_cell_two_level_mean():
    spec = AggregationSpec("mean", 3)
    per_user = {
        "a": [0.1, 0.2],          # mean 0.15
        "b": [0.3, None],         # mean 0.3 over the valid entry
        "c": [None, None],        # skipped entirely
    }
    cell = summarize_cell(spec, per_user, {"too-few-sessions": 2})
    assert cell.user_means == pytest.approx({"a": 0.15, "b": 0.3})
    assert cell.mean_eer == pytest.approx((0.15 + 0.3) / 2)
    assert cell.std_eer == pytest.approx(abs(0.3 - 0.15) / 2)
    assert cell.n_users_evaluated == 2
    assert cell.n_users_skipped == 1
    d = cell.as_dict()
    assert d["aggregation"] == {"method": "mean", "window": 3}
    assert d["skip_reasons"] == {"too-few-sessions": 2}


def test_summarize_cell_all_skipped():
    cell = summarize_cell(AggregationSpec("mean", 3), {"a": [None]},
                          {"no-genuine-test-windows": 1})
    assert cell.mean_eer is None and cell.std_eer is None
    assert cell.n_users_evaluated == 0


def test_run_experiment_structure(small_table):
    cfg = ProtocolConfig(repetitions=2, seed=1)
    out = run_experiment(small_table, KNN, specs(("none", 1), ("mean", 3)),
                         cfg)
    assert set(out) == {"none-w1", "mean-w3"}
    for key, cell in out.items():
        assert set(cell.per_user) == {"u00", "u01", "u02", "u03", "u04"}
        for eers in cell.per_user.values():
            assert len(eers) == 2
        expected = np.mean([cell.user_means[u]
                            for u in sorted(cell.user_means)])
        assert cell.mean_eer == pytest.approx(float(expected))
        assert cell.n_users_evaluated == 5
    # separable data: windowed averaging should do no worse than single
    assert out["mean-w3"].mean_eer <= out["none-w1"].mean_eer + 0.05


def test_run_experiment_is_deterministic(small_table):
    cfg = ProtocolConfig(repetitions=2, seed=3)
    a = run_experiment(small_table, KNN, specs(("mean", 3)), cfg)
    b = run_experiment(small_table, KNN, specs(("mean", 3)), cfg)
    assert a["mean-w3"].as_dict() == b["mean-w3"].as_dict()


def test_run_experiment_aggregates_skip_reasons():
    rng = np.random.default_rng(6)
    table = table_of({
        "a": sessions_of(rng, "a", [5, 5]),
        "b": sessions_of(rng, "b", [5, 5]),
        "solo": sessions_of(rng, "solo", [5]),
    })
    out = run_experiment(table, KNN, specs(("none", 1)),
                         ProtocolConfig(repetitions=2))
    cell = out["none-w1"]
    # a and b have only each other plus solo; solo lacks a second session
    assert cell.skip_reasons.get("too-few-sessions") == 2
    assert cell.per_user["solo"] == [None, None]


def test_non_finite_scores_skip_the_variant(small_table, monkeypatch):
    # a diverged model: every score it gives is NaN
    monkeypatch.setattr(KnnModel, "score",
                        lambda self, X, defined=None: np.full(len(X), np.nan))
    out = run_experiment(small_table, KNN,
                         specs(("none", 1), ("mean", 3), ("feed", 2)),
                         ProtocolConfig(repetitions=2))
    for key, cell in out.items():
        assert cell.skip_reasons == {"non-finite-scores": 10}, key
        assert cell.mean_eer is None and cell.n_users_evaluated == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(train_session_fraction=0.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(train_session_fraction=1.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(repetitions=0)
    with pytest.raises(ConfigError):
        ProtocolConfig(seed=-1)
    with pytest.raises(ConfigError):
        ProtocolConfig(attacker_split_fraction=1.2)
    assert ProtocolConfig.from_dict(ProtocolConfig(seed=9).as_dict()).seed == 9


def test_outcome_skipped_property():
    assert UserRepOutcome(eer=None, skip_reason="x").skipped
    assert not UserRepOutcome(eer=0.1).skipped
