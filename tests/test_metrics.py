"""ROC and equal-error-rate computation against the counting oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_eer, oracle_roc
from swipebench.errors import NonFiniteScores
from swipebench.metrics import (EerResult, RocCurve, compute_eer, compute_roc,
                                eer_from_scores)

N_FUZZED = 100


def fuzzed_scores(rng):
    kind = rng.integers(0, 4)
    n_g = int(rng.integers(2, 60))
    n_i = int(rng.integers(2, 60))
    if kind == 0:       # overlapping gaussians
        g = rng.normal(0.6, 0.25, n_g)
        i = rng.normal(0.4, 0.25, n_i)
    elif kind == 1:     # heavy ties on a coarse grid
        g = rng.integers(0, 8, n_g) / 8.0
        i = rng.integers(0, 8, n_i) / 8.0
    elif kind == 2:     # wide magnitudes
        g = rng.normal(0.0, 1000.0, n_g)
        i = rng.normal(-200.0, 800.0, n_i)
    else:               # near-separable
        g = rng.uniform(0.55, 1.0, n_g)
        i = rng.uniform(0.0, 0.6, n_i)
    return g, i


def test_roc_matches_oracle_on_fuzzed_sets():
    rng = np.random.default_rng(5081)
    for _ in range(N_FUZZED):
        g, i = fuzzed_scores(rng)
        roc = compute_roc(g, i)
        thr_o, far_o, frr_o = oracle_roc(g, i)
        np.testing.assert_allclose(roc.thresholds, thr_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(roc.far, far_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(roc.frr, frr_o, rtol=0, atol=1e-12)


def test_eer_matches_oracle_on_fuzzed_sets():
    rng = np.random.default_rng(617)
    for _ in range(N_FUZZED):
        g, i = fuzzed_scores(rng)
        res = eer_from_scores(g, i)
        eer_o, thr_o = oracle_eer(g, i)
        assert abs(res.eer - eer_o) <= 1e-12
        assert abs(res.threshold - thr_o) <= 1e-12


def test_roc_endpoints():
    g = [0.9, 0.8, 0.7]
    i = [0.2, 0.3, 0.4]
    roc = compute_roc(g, i)
    assert roc.far[0] == 1.0 and roc.frr[0] == 0.0
    assert roc.far[-1] == 0.0 and roc.frr[-1] == 1.0
    assert all(a >= b for a, b in zip(roc.far, roc.far[1:]))
    assert all(a <= b for a, b in zip(roc.frr, roc.frr[1:]))


def test_perfectly_separated_scores_give_zero_eer():
    res = eer_from_scores([0.8, 0.9, 0.95], [0.1, 0.2, 0.3])
    assert res.eer == 0.0


def test_inverted_scores_give_eer_one():
    res = eer_from_scores([0.1, 0.2], [0.8, 0.9])
    assert res.eer == 1.0


def test_identical_score_sets_give_half():
    res = eer_from_scores([0.5, 0.7, 0.3], [0.5, 0.7, 0.3])
    assert res.eer == pytest.approx(0.5, abs=1e-12)


def test_constant_scores_give_half():
    res = eer_from_scores([0.5] * 4, [0.5] * 6)
    assert res.eer == pytest.approx(0.5, abs=1e-12)


def test_interpolated_crossing():
    # FAR and FRR cross strictly between two thresholds
    g = [0.4, 0.6, 0.8, 0.9]
    i = [0.1, 0.3, 0.5, 0.7]
    res = eer_from_scores(g, i)
    eer_o, thr_o = oracle_eer(g, i)
    assert res.eer == pytest.approx(eer_o, abs=1e-12)
    assert 0.0 < res.eer < 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_rejects_non_finite_scores(bad):
    with pytest.raises(NonFiniteScores):
        compute_roc([0.2, bad], [0.5])
    with pytest.raises(NonFiniteScores):
        eer_from_scores([0.2], [bad, 0.5])


def test_roc_rejects_empty_sides():
    with pytest.raises(Exception):
        compute_roc([], [0.5])
    with pytest.raises(Exception):
        compute_roc([0.5], [])


dyadic = st.integers(-512, 512).map(lambda k: k / 64.0)


@settings(max_examples=120)
@given(st.lists(dyadic, min_size=2, max_size=25),
       st.lists(dyadic, min_size=2, max_size=25))
def test_eer_invariant_under_monotone_transforms(g, i):
    base = eer_from_scores(g, i).eer

    def cubic(s):
        return s * s * s / 8.0 + s

    def affine(s):
        return 2.5 * s - 3.0

    for transform in (cubic, affine):
        tg = [transform(v) for v in g]
        ti = [transform(v) for v in i]
        assert eer_from_scores(tg, ti).eer == base


@settings(max_examples=80)
@given(st.lists(dyadic, min_size=2, max_size=25),
       st.lists(dyadic, min_size=2, max_size=25))
def test_eer_always_in_unit_interval(g, i):
    res = eer_from_scores(g, i)
    assert 0.0 <= res.eer <= 1.0


def test_compute_eer_consumes_roc():
    g, i = [0.2, 0.9, 0.6], [0.1, 0.5, 0.55]
    assert compute_eer(compute_roc(g, i)).eer == eer_from_scores(g, i).eer


# ---------------------------------------------------------------------------
# the vectorised curve and search against their plain forms

def unique_roc(genuine, impostor) -> RocCurve:
    """The curve with np.unique thresholds and per-side extremes."""
    gen = np.asarray(genuine, dtype=float)
    imp = np.asarray(impostor, dtype=float)
    lo = min(gen.min(), imp.min()) - 1.0
    hi = max(gen.max(), imp.max()) + 1.0
    thresholds = np.concatenate(
        ([lo], np.unique(np.concatenate([gen, imp])), [hi]))
    far = (imp.size - np.searchsorted(np.sort(imp), thresholds)) / imp.size
    frr = np.searchsorted(np.sort(gen), thresholds) / gen.size
    return RocCurve(thresholds=thresholds, far=far, frr=frr)


def loop_eer(roc: RocCurve) -> EerResult:
    """The first exact zero or sign change of FAR - FRR, index by index."""
    d = roc.far - roc.frr
    for i in range(len(d)):
        if d[i] == 0.0:
            return EerResult(eer=float(roc.far[i]),
                             threshold=float(roc.thresholds[i]))
        if i + 1 < len(d) and d[i] > 0.0 and d[i + 1] < 0.0:
            lam = d[i] / (d[i] - d[i + 1])
            eer = roc.far[i] + lam * (roc.far[i + 1] - roc.far[i])
            thr = (roc.thresholds[i]
                   + lam * (roc.thresholds[i + 1] - roc.thresholds[i]))
            return EerResult(eer=float(eer), threshold=float(thr))
    raise AssertionError("no crossing")


EXACT_ZERO = ([1.0, 2.0], [0.0, 3.0])             # FAR = FRR at t = 2
CROSSING = ([1.0, 2.0, 3.0], [0.0, 1.5])          # crosses in (1.5, 2)
scores = st.one_of(
    st.lists(st.integers(0, 6).map(lambda k: k / 6.0), min_size=1,
             max_size=30),
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=1,
             max_size=30),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))


def test_examples_hit_both_branches():
    assert (compute_roc(*EXACT_ZERO).far
            == compute_roc(*EXACT_ZERO).frr).any()
    roc = compute_roc(*CROSSING)
    assert not (roc.far == roc.frr).any()


@settings(max_examples=300)
@example(*EXACT_ZERO)
@example(*CROSSING)
@given(scores, scores)
def test_curve_and_eer_equal_plain_forms_bit_for_bit(g, i):
    roc, ref = compute_roc(g, i), unique_roc(g, i)
    for got, want in ((roc.thresholds, ref.thresholds), (roc.far, ref.far),
                      (roc.frr, ref.frr)):
        assert got.tobytes() == want.tobytes()
    got, want = compute_eer(roc), loop_eer(ref)
    assert repr((got.eer, got.threshold)) == repr((want.eer, want.threshold))
