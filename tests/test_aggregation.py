"""Score windows, reducers, and the trust model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipebench.aggregation import (METHODS, AggregationSpec, TrustParams,
                                    concat_window, reduce_scores, trust_trace,
                                    window_slices)
from swipebench.errors import ConfigError


def test_methods_tuple_is_stable():
    # seeding keys off this order; reordering would silently change results
    assert METHODS == ("none", "mean", "median", "vote", "feed", "trust",
                       "stacking")


def test_window_slices_basic():
    labels = ["s1"] * 7
    wins = window_slices(labels, window=3, stride=3)
    assert [w.tolist() for w in wins] == [[0, 1, 2], [3, 4, 5]]
    wins1 = window_slices(labels, window=3, stride=1)
    assert [w.tolist() for w in wins1] == [
        [0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]]


def test_window_slices_respect_session_boundaries():
    labels = ["a"] * 4 + ["b"] * 5
    wins = window_slices(labels, window=3, stride=1)
    for w in wins:
        assert len({labels[i] for i in w}) == 1
    # 2 windows fit in the first run, 3 in the second
    assert len(wins) == 5
    assert wins[0].tolist() == [0, 1, 2]
    assert wins[2].tolist() == [4, 5, 6]


def test_window_slices_drop_partial_windows():
    assert window_slices(["a"] * 2, window=3, stride=1) == []
    assert len(window_slices(["a"] * 3, window=3, stride=3)) == 1


def test_window_one_is_identity_windows():
    wins = window_slices(["a", "a", "b"], window=1, stride=1)
    assert [w.tolist() for w in wins] == [[0], [1], [2]]


def test_window_slices_nonconsecutive_runs_of_same_label():
    # a song returns: a a b a -> the two a-runs never join
    wins = window_slices(["a", "a", "b", "a"], window=2, stride=2)
    assert [w.tolist() for w in wins] == [[0, 1]]


def loop_window_slices(labels, window, stride) -> list[list[int]]:
    """Windows position by position, restarting at each label change."""
    out, run_start = [], 0
    for pos in range(len(labels) + 1):
        if pos < len(labels) and labels[pos] == labels[run_start]:
            continue
        for off in range(0, pos - run_start - window + 1, stride):
            out.append(list(range(run_start + off, run_start + off + window)))
        run_start = pos
    return out


@settings(max_examples=200)
@given(st.lists(st.sampled_from("abc"), max_size=40),
       st.integers(1, 6), st.integers(1, 6))
def test_window_slices_equal_a_per_position_loop(labels, window, stride):
    wins = window_slices(labels, window, stride)
    assert [w.tolist() for w in wins] == \
        loop_window_slices(labels, window, stride)
    assert all(w.dtype == np.int64 for w in wins)


def test_reduce_mean_median_and_none():
    scores = np.array([0.2, 0.8, 0.5])
    assert reduce_scores(scores, AggregationSpec("mean", 3)) == \
        pytest.approx(0.5)
    assert reduce_scores(scores, AggregationSpec("median", 3)) == 0.5
    assert reduce_scores(np.array([0.7]), AggregationSpec("none", 1)) == \
        pytest.approx(0.7)


def test_reduce_vote_counts_threshold_hits():
    spec = AggregationSpec("vote", 4, vote_threshold=0.5)
    assert reduce_scores(np.array([0.6, 0.4, 0.5, 0.9]), spec) == 0.75
    assert reduce_scores(np.array([0.1, 0.2, 0.3, 0.4]), spec) == 0.0
    strict = AggregationSpec("vote", 4, vote_threshold=0.9)
    assert reduce_scores(np.array([0.6, 0.4, 0.5, 0.95]), strict) == 0.25


def test_trust_trace_hand_computed():
    params = TrustParams(initial=0.5, threshold=0.5, reward=0.2, penalty=0.2)
    # deltas: +0.3 -> +0.06; -0.4 -> -0.08
    trace = trust_trace(np.array([0.8, 0.1]), params)
    assert trace[0] == pytest.approx(0.56)
    assert trace[1] == pytest.approx(0.48)


def test_trust_trace_clamps_to_unit_interval():
    params = TrustParams(initial=0.9, threshold=0.1, reward=5.0, penalty=5.0)
    trace = trust_trace(np.array([1.0, 1.0]), params)
    assert trace[-1] == 1.0
    params_down = TrustParams(initial=0.1, threshold=0.9, reward=5.0,
                              penalty=5.0)
    trace = trust_trace(np.array([0.0, 0.0]), params_down)
    assert trace[-1] == 0.0


def test_reduce_trust_returns_final_trust():
    params = TrustParams()
    spec = AggregationSpec("trust", 2, trust=params)
    scores = np.array([0.8, 0.1])
    assert reduce_scores(scores, spec) == trust_trace(scores, params)[-1]


@settings(max_examples=200)
@given(st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.5, -0.0, float("nan"), float("inf"), -float("inf")])),
    min_size=1, max_size=9), st.floats(0.0, 1.0))
def test_reducers_equal_numpy_bit_for_bit(scores, threshold):
    s = np.array(scores)
    params = TrustParams(threshold=threshold)
    with np.errstate(invalid="ignore"):
        want = {"mean": np.mean(s), "median": np.median(s),
                "vote": np.mean(s >= threshold),
                "trust": trust_trace(s, params)[-1]}
        for method, value in want.items():
            spec = AggregationSpec(method, len(scores),
                                   vote_threshold=threshold, trust=params)
            got = reduce_scores(s, spec)
            assert type(got) is float
            assert repr(got) == repr(float(value)), method


@settings(max_examples=100)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_trust_trace_stays_bounded(scores, initial, threshold, reward,
                                   penalty):
    params = TrustParams(initial=initial, threshold=threshold,
                         reward=reward, penalty=penalty)
    trace = trust_trace(np.array(scores), params)
    assert len(trace) == len(scores)
    assert np.all((trace >= 0.0) & (trace <= 1.0))


def test_concat_window_layout():
    X = np.arange(12.0).reshape(4, 3)
    flat = concat_window(X, np.array([2, 0]))
    np.testing.assert_array_equal(flat, [6.0, 7.0, 8.0, 0.0, 1.0, 2.0])


def test_concat_window_stacks_a_window_matrix():
    X = np.arange(12.0).reshape(4, 3)
    windows = np.array([[2, 0], [1, 3], [3, 3]])
    np.testing.assert_array_equal(
        concat_window(X, windows),
        np.stack([concat_window(X, w) for w in windows]))


def test_spec_validation():
    with pytest.raises(ConfigError):
        AggregationSpec("sum", 3)
    with pytest.raises(ConfigError):
        AggregationSpec("mean", 0)
    with pytest.raises(ConfigError):
        AggregationSpec("none", 3)
    with pytest.raises(ConfigError):
        TrustParams(initial=1.5)
    with pytest.raises(ConfigError):
        TrustParams(reward=-0.1)


def test_spec_dict_roundtrip_carries_method_fields():
    vote = AggregationSpec("vote", 5, vote_threshold=0.7)
    d = vote.as_dict()
    assert d == {"method": "vote", "window": 5, "vote_threshold": 0.7}
    assert AggregationSpec.from_dict(d) == vote

    trust = AggregationSpec("trust", 3, trust=TrustParams(reward=0.4))
    d = trust.as_dict()
    assert d["trust"]["reward"] == 0.4
    assert AggregationSpec.from_dict(d) == trust

    mean = AggregationSpec("mean", 5)
    assert set(mean.as_dict()) == {"method", "window"}
