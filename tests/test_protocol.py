"""Per-user evaluation protocol: splits, sampling, and the full loop."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dataset_from_sessions, random_swipe
from swipebench import protocol
from swipebench.aggregation import AggregationSpec
from swipebench.classifiers import ClassifierSpec
from swipebench.classifiers.base import TrainedModel
from swipebench.classifiers.simple import KnnModel
from swipebench.errors import (ConfigError, EmptyGroup, TooFewAttackers,
                               TooFewSessions)
from swipebench.features.extract import build_feature_table
from swipebench.protocol import (ProtocolConfig, UserRepOutcome,
                                 aggregation_key, evaluate_user_repetition,
                                 partition_attackers, run_experiment,
                                 run_user_evaluation, sample_negatives,
                                 sampling_plan, sampling_plans,
                                 split_user_sessions, summarize_cell)
from swipebench.stacking import StackerSpec
from swipebench.synthetic import SyntheticSpec, generate_synthetic

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
    out = sample_negatives(pools, 5, np.random.default_rng(3)).tolist()
    assert sorted(item[0] for item in out) == list("abcde")


def test_sampler_cycles_evenly():
    pools = [("a", ["a0", "a1"]), ("b", ["b0", "b1"])]
    out = sample_negatives(pools, 5, np.random.default_rng(7)).tolist()
    by_user = {u: sum(1 for v in out if v.startswith(u)) for u in "ab"}
    assert sorted(by_user.values()) == [2, 3]


def test_sampler_draws_within_pool_uniformly():
    pools = [("a", list(range(0, 4))), ("b", list(range(10, 14)))]
    out = sample_negatives(pools, 10_000, np.random.default_rng(11)).tolist()
    counts = {v: out.count(v) for v in set(out)}
    # exactly 5000 visits per pool; item draws are uniform within each
    assert sum(c for v, c in counts.items() if v < 10) == 5000
    for c in counts.values():
        assert abs(c - 1250) < 125, counts


def test_sampler_samples_with_replacement():
    pools = [("a", ["only"])]
    out = sample_negatives(pools, 7, np.random.default_rng(0))
    assert out.tolist() == ["only"] * 7


def test_sampler_rejects_empty_input():
    with pytest.raises(EmptyGroup):
        sample_negatives([], 3, np.random.default_rng(0))
    with pytest.raises(EmptyGroup):
        sample_negatives([("a", [])], 3, np.random.default_rng(0))
    with pytest.raises(EmptyGroup):
        sample_negatives([("a", np.zeros((0, 3), dtype=np.int64))], 3,
                         np.random.default_rng(0))


def test_sampler_is_deterministic():
    pools = [("a", list(range(6))), ("b", list(range(10, 16)))]
    a = sample_negatives(pools, 40, np.random.default_rng(13))
    b = sample_negatives(pools, 40, np.random.default_rng(13))
    assert a.tolist() == b.tolist()


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
       st.integers(0, 80), st.integers(1, 5), st.integers(0, 2 ** 64 - 1))
def test_sampler_equals_one_scalar_draw_per_visit(sizes, count, w, seed):
    items = [np.arange(100 * j, 100 * j + n) for j, n in enumerate(sizes)]
    lists = [(f"u{j}", v.tolist()) for j, v in enumerate(items)]
    batched, scalar = (np.random.default_rng(seed) for _ in range(2))
    assert sample_negatives(lists, count, batched).tolist() == \
        scalar_sample_negatives(lists, count, scalar)
    assert batched.random() == scalar.random()

    # the same draws over (n_v, w) window arrays, as a plan makes them
    windows = [(f"u{j}", 10 * v[:, None] + np.arange(w))
               for j, v in enumerate(items)]
    batched, scalar = (np.random.default_rng(seed) for _ in range(2))
    out = sample_negatives(windows, count, batched)
    assert out.dtype == np.int64 and out.shape == (count, w)
    assert out.tolist() == [row.tolist() for row in
                            scalar_sample_negatives(windows, count, scalar)]
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
    twice = specs(("mean", 3), ("none", 1), ("mean", 3))
    message = "duplicate aggregation variants: ['mean-w3', 'none-w1', 'mean-w3']"
    with pytest.raises(ConfigError) as exc:
        evaluate_user_repetition(small_table, "u00", KNN, twice,
                                 ProtocolConfig(), 0)
    assert str(exc.value) == message
    with pytest.raises(ConfigError, match="duplicate aggregation variants"):
        sampling_plan(small_table, "u00", twice, ProtocolConfig(), 0)
    # a matrix hands in plans it built already; the check still runs
    with pytest.raises(ConfigError, match="duplicate aggregation variants"):
        run_experiment(small_table, KNN, twice, ProtocolConfig(), plans=[])


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
            np.concatenate([idx for _, idx in table.user_sessions["a"]]))
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


@pytest.mark.parametrize("kind", ["oc_svm_rbf", "isolation_forest"])
def test_one_class_skips_a_user_with_one_genuine_train_row(kind):
    rng = np.random.default_rng(6)
    # "a" trains on a single swipe; every other user is evaluated as usual
    table = table_of({
        "a": sessions_of(rng, "a", [1, 6]),
        **{u: sessions_of(rng, u, [6, 6]) for u in "bcde"},
    })
    cells = run_experiment(table, ClassifierSpec(kind=kind),
                           specs(("none", 1), ("mean", 3), ("feed", 2)),
                           ProtocolConfig(repetitions=2))
    for cell in cells.values():
        assert cell.per_user["a"] == [None, None]
        assert cell.skip_reasons == {"too-few-train-rows": 2}
        assert cell.n_users_evaluated == 4


@pytest.mark.parametrize("kind", ["oc_svm_rbf", "isolation_forest"])
def test_one_class_feed_skips_a_user_with_one_genuine_train_window(kind):
    rng = np.random.default_rng(7)
    # a 5-swipe training session holds one stride-1 window of 5
    table = table_of({
        "a": sessions_of(rng, "a", [5, 6]),
        **{u: sessions_of(rng, u, [6, 6]) for u in "bcde"},
    })
    res = evaluate_user_repetition(
        table, "a", ClassifierSpec(kind=kind),
        specs(("none", 1), ("feed", 5)), ProtocolConfig(), 0)
    assert res["feed-w5"].skip_reason == "too-few-train-windows"
    assert not res["none-w1"].skipped
    # knn, a two-class kind, trains the feed model on the same windows
    knn = evaluate_user_repetition(table, "a", KNN, specs(("feed", 5)),
                                   ProtocolConfig(), 0)
    assert not knn["feed-w5"].skipped


def test_learned_aggregators_run(small_table):
    cfg = ProtocolConfig()
    for method in ("stacking", "feed"):
        outcome = run_user_evaluation(small_table, "u03", KNN,
                                      AggregationSpec(method, 3), cfg, 0)
        assert not outcome.skipped, method
        assert outcome.counts["n_agg_train_genuine"] == \
            outcome.counts["n_agg_train_impostor"]


def test_one_evaluation_scores_the_base_model_once(small_table, monkeypatch):
    """Every variant but feed reads its window scores from one vector,
    filled by a single base-model call over the rows its windows read."""
    aggs = specs(("none", 1), ("mean", 3), ("stacking", 3), ("feed", 2))
    cfg = ProtocolConfig()
    plan = sampling_plan(small_table, "u02", aggs, cfg, 1)
    trained, scored = [], []
    train, score = protocol.train, TrainedModel.score

    def spy_train(*args, **kwargs):
        trained.append(train(*args, **kwargs))
        return trained[-1]

    def spy_score(model, X, defined=None):
        scored.append((model, len(X)))
        return score(model, X, defined)

    monkeypatch.setattr(protocol, "train", spy_train)
    monkeypatch.setattr(TrainedModel, "score", spy_score)
    res = evaluate_user_repetition(small_table, "u02", KNN, aggs, cfg, 1,
                                   plan=plan)
    assert not any(outcome.skipped for outcome in res.values())
    base_calls = [n for model, n in scored if model is trained[0]]
    assert len(base_calls) == 1
    read = {int(r) for key in ("none-w1", "mean-w3", "stacking-w3")
            for windows in (plan.variants[key].genuine,
                            plan.variants[key].impostor,
                            plan.variants[key].fit)
            if windows is not None for r in windows.ravel()}
    assert base_calls == [len(read)]


def plan_digest(plans) -> str:
    """sha256 over every field of a list of per-user sampling plans:
    arrays by dtype, shape and bytes; dicts in insertion order; ints,
    strings and None by repr."""
    h = hashlib.sha256()

    def put(obj):
        if isinstance(obj, np.ndarray):
            h.update(f"<{obj.dtype.str}{obj.shape}>".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj):
            h.update(f"<{type(obj).__name__}>".encode())
            for f in dataclasses.fields(obj):
                h.update(f"{f.name}=".encode())
                put(getattr(obj, f.name))
        elif isinstance(obj, dict):
            h.update(f"<dict {len(obj)}>".encode())
            for key, value in obj.items():
                h.update(f"{key!r}:".encode())
                put(value)
        elif isinstance(obj, list):
            h.update(f"<list {len(obj)}>".encode())
            for value in obj:
                put(value)
        else:
            h.update(f"{obj!r};".encode())

    put(plans)
    return h.hexdigest()


# protocol-grid's variants plus a learned one at the widest window
PINNED_SPECS = (specs(("none", 1))
                + specs(*[(m, w) for w in (3, 5, 7)
                          for m in ("mean", "median", "vote", "trust")])
                + specs(("feed", 2), ("stacking", 7)))


def pinned_table(name):
    if name == "short-sessions":
        # sessions shorter than window 7, and "b" has one session only
        rng = np.random.default_rng(21)
        return table_of({u: sessions_of(rng, u, lengths) for u, lengths in (
            ("a", [9, 3, 8]), ("b", [7]), ("c", [2, 12, 6]),
            ("d", [5, 7, 4, 10]), ("e", [14, 6]), ("f", [6, 6, 1]))})
    users, sessions, swipes = {"grid": (5, 3, 18), "wide": (12, 4, 20)}[name]
    return build_feature_table(generate_synthetic(SyntheticSpec(
        users=users, sessions_per_user=sessions,
        swipes_per_session=swipes, seed=7)))


@pytest.mark.parametrize("name, repetitions, expected", [
    ("grid", 2,
     "5f1baca55f4fcb41a87d62b85334a9ca5175a0568f5bcffc39235ef0356a82eb"),
    ("short-sessions", 2,
     "f78b69a6bee76c71146e0f9e80d663d407553aa0506c543ae5eb4e6b165027c9"),
    ("wide", 3,
     "b0084d3409ecea290b17a4ab9372b136a2efa4bb3a70643a5204fcd188627dde"),
])
def test_sampling_plans_bytes_are_pinned(name, repetitions, expected):
    """Every row, window, label, count and entropy of the sampling plans,
    with dtypes and shapes, is frozen: a rewrite of windowing or sampling
    must draw the same plans byte for byte."""
    plans = sampling_plans(pinned_table(name), PINNED_SPECS,
                           ProtocolConfig(repetitions=repetitions, seed=0))
    assert plan_digest(plans) == expected


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
    # a diverged model: every score it gives is NaN. vote and trust turn
    # a window of NaN into a finite number, so they must be skipped too
    monkeypatch.setattr(KnnModel, "score",
                        lambda self, X, defined=None: np.full(len(X), np.nan))
    stacking = AggregationSpec("stacking", 2, stacker=StackerSpec(
        hidden=2, epochs=1, batch_size=8))
    out = run_experiment(small_table, KNN,
                         specs(("none", 1), ("mean", 3), ("median", 3),
                               ("vote", 3), ("trust", 3), ("feed", 2))
                         + [stacking],
                         ProtocolConfig(repetitions=2))
    assert len(out) == 7
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
