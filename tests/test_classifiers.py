"""The classifier suite: separation, determinism, serialization."""

import numpy as np
import pytest

from bitwise_oracles import (o_smo_solve_binary, o_smo_solve_one_class,
                             o_standardizer_stats)
from swipebench.classifiers import (KINDS, ClassifierSpec, from_blob,
                                    to_blob, train)
from swipebench.classifiers import base
from swipebench.classifiers.base import ONE_CLASS_KINDS, Standardizer
from swipebench.classifiers.svm import (OneClassSvmModel, fit_platt_sigmoid,
                                        gamma_value, rbf_kernel, smo_solve,
                                        smo_solve_binary)
from swipebench.errors import (ConfigError, DimensionMismatch,
                               SingleClassForBinarySpec, TooFewSamples)
from swipebench.metrics import eer_from_scores

BINARY_KINDS = tuple(k for k in KINDS if k not in ONE_CLASS_KINDS
                     and k != "ensemble")

FAST_PARAMS = {
    "neural_net": {"hidden": (16, 8), "epochs": 30},
    "random_forest": {"n_trees": 30},
    "svm_rbf": {"max_iter": 20_000},
}


def spec_for(kind, seed=0, extra=None):
    params = dict(FAST_PARAMS.get(kind, {}))
    params.update(extra or {})
    return ClassifierSpec(kind=kind, params=params, seed=seed)


def blob_data(rng, n_per=50, n_features=6, sep=4.0):
    pos = rng.normal(0.0, 1.0, size=(n_per, n_features)) + sep
    neg = rng.normal(0.0, 1.0, size=(n_per, n_features))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_per), np.zeros(n_per)])
    return X, y


@pytest.mark.parametrize("kind", BINARY_KINDS)
def test_binary_kinds_separate_blobs(kind):
    rng = np.random.default_rng(101)
    X, y = blob_data(rng)
    model = train(spec_for(kind), X, y)
    s = model.score(X)
    assert s.shape == (len(X),)
    assert np.all((s >= 0.0) & (s <= 1.0))
    acc = np.mean((s >= 0.5) == (y == 1))
    assert acc >= 0.95, (kind, acc)


@pytest.mark.parametrize("kind", sorted(ONE_CLASS_KINDS))
def test_one_class_kinds_separate_blobs(kind):
    rng = np.random.default_rng(202)
    X, y = blob_data(rng, sep=6.0)
    model = train(spec_for(kind), X, y)
    s = model.score(X)
    assert np.all((s >= 0.0) & (s <= 1.0))
    res = eer_from_scores(s[y == 1], s[y == 0])
    assert res.eer <= 0.15, (kind, res.eer)


@pytest.mark.parametrize("kind", sorted(ONE_CLASS_KINDS))
def test_one_class_ignores_impostor_rows(kind):
    rng = np.random.default_rng(303)
    X, y = blob_data(rng)
    genuine_only = X[y == 1]
    a = train(spec_for(kind, seed=9), X, y)
    b = train(spec_for(kind, seed=9), genuine_only, None)
    np.testing.assert_array_equal(a.score(X), b.score(X))


@pytest.mark.parametrize("kind", KINDS)
def test_training_is_deterministic(kind):
    rng = np.random.default_rng(404)
    X, y = blob_data(rng, n_per=30)
    probe = rng.normal(2.0, 2.0, size=(20, X.shape[1]))
    s1 = train(spec_for(kind, seed=7), X, y).score(probe)
    s2 = train(spec_for(kind, seed=7), X, y).score(probe)
    np.testing.assert_array_equal(s1, s2)


@pytest.mark.parametrize("kind", KINDS)
def test_blob_roundtrip_preserves_scores(kind):
    rng = np.random.default_rng(505)
    X, y = blob_data(rng, n_per=30)
    probe = rng.normal(2.0, 2.0, size=(20, X.shape[1]))
    model = train(spec_for(kind, seed=3), X, y)
    blob = to_blob(model)
    revived = from_blob(blob)
    np.testing.assert_array_equal(model.score(probe), revived.score(probe))
    assert to_blob(revived) == blob


def test_blob_is_deterministic_bytes():
    rng = np.random.default_rng(606)
    X, y = blob_data(rng, n_per=20)
    m1 = train(spec_for("logistic_regression"), X, y)
    m2 = train(spec_for("logistic_regression"), X, y)
    assert to_blob(m1) == to_blob(m2)


def test_knn_oversized_k_degrades_to_global_fraction():
    rng = np.random.default_rng(707)
    X, y = blob_data(rng, n_per=5)
    model = train(spec_for("knn", extra={"k": 500}), X, y)
    s = model.score(rng.normal(size=(8, X.shape[1])))
    np.testing.assert_allclose(s, np.full(8, y.mean()), atol=1e-12)


def test_knn_uses_k_nearest():
    # 3 genuine at x=0, 3 impostors at x=10; a probe at x=1 with k=3 sees
    # only genuine rows
    X = np.array([[0.0], [0.1], [-0.1], [10.0], [10.1], [9.9]])
    y = np.array([1, 1, 1, 0, 0, 0])
    model = train(spec_for("knn", extra={"k": 3}), X, y)
    s = model.score(np.array([[1.0], [9.0]]))
    assert s[0] == 1.0 and s[1] == 0.0


def test_ensemble_score_is_exact_mean_of_members():
    rng = np.random.default_rng(808)
    X, y = blob_data(rng, n_per=25)
    spec = ClassifierSpec(kind="ensemble", params={
        "members": ("gaussian_nb", "knn", "logistic_regression")}, seed=5)
    model = train(spec, X, y)
    probe = rng.normal(1.0, 2.0, size=(15, X.shape[1]))
    member_scores = [m.score(probe) for m in model.models]
    expected = ((member_scores[0] + member_scores[1]) + member_scores[2]) / 3
    np.testing.assert_array_equal(model.score(probe), expected)


def test_ensemble_default_members():
    spec = ClassifierSpec(kind="ensemble")
    assert tuple(spec.params["members"]) == (
        "svm_rbf", "random_forest", "neural_net")


def test_ensemble_passes_defined_mask_to_members():
    rng = np.random.default_rng(909)
    X, y = blob_data(rng, n_per=25)
    defined = rng.random(X.shape) > 0.1
    spec = ClassifierSpec(kind="ensemble",
                          params={"members": ("gaussian_nb", "knn")})
    model = train(spec, X, y, defined=defined)
    probe = X[:10]
    probe_defined = defined[:10]
    via_members = np.mean([m.score(probe, probe_defined)
                           for m in model.models], axis=0)
    np.testing.assert_allclose(model.score(probe, probe_defined),
                               via_members, atol=1e-15)


def test_smo_solution_satisfies_kkt():
    rng = np.random.default_rng(111)
    X, y01 = blob_data(rng, n_per=15, n_features=3, sep=2.0)
    from swipebench.classifiers.svm import gamma_value, rbf_kernel
    gamma = gamma_value("scale", X)
    K = rbf_kernel(X, X, gamma)
    y = np.where(y01 == 1, 1.0, -1.0)
    C = 1.0
    alpha, b = smo_solve_binary(K, y, C, tol=1e-4)
    assert np.all(alpha >= -1e-12) and np.all(alpha <= C + 1e-12)
    assert abs(float(y @ alpha)) <= 1e-9
    # working-set optimality gap below tolerance
    grad = (K * np.outer(y, y)) @ alpha - 1.0
    neg_yg = -y * grad
    up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
    assert neg_yg[up].max() - neg_yg[low].min() < 1e-3


def test_platt_falls_back_to_in_sample_decision_values():
    """With fewer genuine rows than platt_folds there is nothing to fold:
    the sigmoid is fitted on the full machine's own decision values."""
    rng = np.random.default_rng(113)
    X, y = blob_data(rng, n_per=20, n_features=3, sep=2.0)
    X, y = X[18:], y[18:]                   # 2 genuine rows, 20 impostors
    spec = spec_for("svm_rbf", seed=4)
    assert spec.params["platt_folds"] > int(y.sum())
    model = train(spec, X, y)
    scores = model.score(X)
    assert np.isfinite(scores).all()
    assert ((scores >= 0.0) & (scores <= 1.0)).all()

    _, Z, y01 = base.training_inputs(spec, X, y, None)
    K = rbf_kernel(Z, Z, gamma_value(spec.params["gamma"], Z))
    ypm = np.where(y01 == 1, 1.0, -1.0)
    alpha, b = smo_solve_binary(K, ypm, spec.params["C"],
                                tol=spec.params["tol"],
                                max_iter=spec.params["max_iter"])
    dec = K @ (alpha * ypm) + b
    assert (model.platt_a, model.platt_b) == fit_platt_sigmoid(dec, y01)


def test_one_class_smo_solution_satisfies_kkt():
    rng = np.random.default_rng(112)
    X, _ = blob_data(rng, n_per=15, n_features=3, sep=2.0)
    K = rbf_kernel(X, X, gamma_value("scale", X))
    n, nu = len(X), 0.3
    box = 1.0 / (nu * n)
    alpha, _ = smo_solve(K, np.ones(n), np.zeros(n), box, np.full(n, 1.0 / n),
                         tol=1e-4, max_iter=100_000, margin=1e-15)
    assert np.all(alpha >= -1e-12) and np.all(alpha <= box + 1e-12)
    assert abs(float(alpha.sum()) - 1.0) <= 1e-9
    # working-set optimality gap below tolerance
    grad = K @ alpha
    up = alpha < box - 1e-12
    down = alpha > 1e-12
    assert grad[down].max() - grad[up].min() < 1e-3


def fuzz_rows(seed):
    """A small matrix with about 30% duplicated rows, rounded to one
    decimal a third of the time, and the generator for further draws."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 61))
    X = rng.normal(size=(n, int(rng.integers(1, 7))))
    dup = rng.random(n) < 0.3
    X[dup] = X[rng.integers(0, n, size=n)[dup]]
    if rng.random() < 0.3:
        X = np.round(X, 1)
    return X, rng


def same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Seeds whose solutions change when the binary machine keeps its bounds
# 1e-15 inside the box, or when the one-class machine uses exact bounds.
BINARY_MARGIN_SEEDS = (132, 167, 367, 387, 406, 431, 523)
ONE_CLASS_MARGIN_SEEDS = (44, 126, 239, 306, 406, 425, 443, 454, 488, 575,
                          583)


@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
def test_binary_smo_equals_reference_bitwise(C):
    for seed in (*range(40), *BINARY_MARGIN_SEEDS):
        X, rng = fuzz_rows(seed)
        gamma = gamma_value("scale", X) * float(rng.choice([0.1, 1.0, 10.0]))
        K = rbf_kernel(X, X, gamma)
        y = np.where(rng.random(len(X)) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        alpha, b = smo_solve_binary(K, y, C)
        ref_alpha, ref_b = o_smo_solve_binary(K, y, C)
        assert same_bits(alpha, ref_alpha) and same_bits(b, ref_b), seed


@pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.77])
def test_one_class_smo_equals_reference_bitwise(nu):
    """The machine's support coefficients, offset and score range equal
    those of the reference solver on the machine's own kernel."""
    for seed in (*range(40), *ONE_CLASS_MARGIN_SEEDS):
        X, rng = fuzz_rows(seed)
        gamma = ("scale", 0.05, 0.5, 5.0)[int(rng.integers(4))]
        spec = ClassifierSpec("oc_svm_rbf", {"nu": nu, "gamma": gamma})
        model = OneClassSvmModel.train(spec, X)
        Z = model.standardizer.transform(X)
        K = rbf_kernel(Z, Z, model.gamma)
        alpha = o_smo_solve_one_class(K, nu)
        keep = alpha > 1e-12
        assert same_bits(model.sv_alpha, alpha[keep]), seed
        assert same_bits(model.sv, Z[keep]), seed
        g = K @ alpha
        box = 1.0 / (nu * len(X))
        free = keep & (alpha < box - 1e-12)
        rho = float(np.mean(g[free] if free.any() else g[keep]))
        assert same_bits(model.rho, rho), seed
        assert same_bits([model.lo, model.hi],
                         [(g - rho).min(), (g - rho).max()]), seed


def test_every_kind_defines_train_and_the_base_defines_score():
    """The benchmark's tracer (bench/spans.py) times training by wrapping
    the train classmethod in each kind's own class dict, and scoring by
    wrapping TrainedModel.score and EnsembleModel.score."""
    for kind in KINDS:
        assert "train" in base.model_class(kind).__dict__, kind
    assert "score" in base.TrainedModel.__dict__
    assert "score" in base.model_class("ensemble").__dict__


def test_spec_aliases_and_validation():
    assert ClassifierSpec(kind="rf").kind == "random_forest"
    assert ClassifierSpec(kind="SVM").kind == "svm_rbf"
    assert ClassifierSpec(kind="ens").kind == "ensemble"
    with pytest.raises(ConfigError):
        ClassifierSpec(kind="perceptron")
    with pytest.raises(ConfigError):
        ClassifierSpec(kind="knn", params={"neighbours": 3})


def test_spec_roundtrips_through_dict():
    spec = spec_for("neural_net", seed=42)
    again = ClassifierSpec.from_dict(spec.as_dict())
    assert again == spec
    assert isinstance(again.params["hidden"], tuple)


def test_training_input_validation():
    X = np.ones((4, 2))
    with pytest.raises(SingleClassForBinarySpec):
        train(spec_for("knn"), X, None)
    with pytest.raises(SingleClassForBinarySpec):
        train(spec_for("knn"), X, np.ones(4))
    with pytest.raises(DimensionMismatch):
        train(spec_for("knn"), X, np.array([1, 0]))
    with pytest.raises(TooFewSamples):
        train(spec_for("knn"), np.ones((1, 2)), np.array([1]))
    with pytest.raises(ValueError):
        train(spec_for("knn"), X, np.array([1, 0, 2, 0]))


MASK_PARAMS = {"isolation_forest": {"n_trees": 10},
               "ensemble": {"members": ("svm_rbf", "gaussian_nb",
                                        "logistic_regression")}}


def mask_case(kind):
    rng = np.random.default_rng(515)
    X = rng.normal(size=(30, 5))
    y = (X[:, 0] + 0.5 * rng.normal(size=30) > 0).astype(int)
    return spec_for(kind, seed=4, extra=MASK_PARAMS.get(kind)), X, y


@pytest.mark.parametrize("kind", KINDS)
def test_a_missing_mask_trains_as_an_all_true_mask(kind):
    spec, X, y = mask_case(kind)
    assert (to_blob(train(spec, X, y))
            == to_blob(train(spec, X, y, np.ones(X.shape, dtype=bool))))


@pytest.mark.parametrize("kind", KINDS)
def test_a_wrong_shaped_mask_is_a_dimension_mismatch(kind):
    """At train and at score: never a NumPy error, never a broadcast."""
    spec, X, y = mask_case(kind)
    model = train(spec, X, y)
    n, d = X.shape
    for shape in [(n, 1), (n, d - 1), (n - 1, d)]:
        mask = np.ones(shape, dtype=bool)
        with pytest.raises(DimensionMismatch):
            train(spec, X, y, mask)
        with pytest.raises(DimensionMismatch):
            model.score(X, mask)
    with pytest.raises(DimensionMismatch):
        model.score(X, np.ones(d, dtype=bool))
    one_row = model.score(X[0], np.ones(d, dtype=bool))
    assert one_row.tobytes() == model.score(X[:1]).tobytes()


def test_masked_features_are_neutral_after_standardization():
    X = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 999.0]])
    defined = np.array([[True, True], [True, True], [True, False]])
    std = Standardizer.fit(X, defined)
    # column 1 statistics ignore the masked 999
    assert std.mean[1] == pytest.approx(20.0)
    Z = std.transform(X, defined)
    assert Z[2, 1] == 0.0  # masked entry sits at the training mean


def fuzz_masks(seed: int, count: int):
    """Random (X, defined): all-defined masks, random masks, columns that
    are never defined, blocks of rows undefined in a block of columns,
    repeated column patterns, and no mask at all (None)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 160))
        d = int(rng.choice([1, 5, 30, 149]))
        X = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e4])
        if rng.random() < 0.3:
            X = np.round(X, 1)
        kind = i % 4
        if kind == 0:
            defined = None
        elif kind == 1:
            defined = np.ones((n, d), dtype=bool)
        else:
            defined = rng.random((n, d)) > rng.random()
            defined[:, rng.random(d) < 0.15] = False
            block_rows = rng.random(n) < 0.25
            block_cols = rng.random(d) < 0.4
            defined[np.ix_(block_rows, block_cols)] = False
            if kind == 3:
                defined = defined[:, rng.integers(0, min(d, 3), size=d)]
        yield X, defined


def test_standardizer_fit_matches_per_column_reference():
    for X, defined in fuzz_masks(41, 400):
        std = Standardizer.fit(X, defined)
        if defined is None:
            defined = np.ones(X.shape, dtype=bool)
        mean, sd = o_standardizer_stats(X, defined)
        assert np.array_equal(std.mean, mean)
        assert np.array_equal(std.std, sd)


def test_standardizer_never_defined_columns_are_zero():
    X = np.arange(12.0).reshape(4, 3)
    defined = np.array([[True, False, True]] * 3 + [[False, False, True]])
    std = Standardizer.fit(X, defined)
    assert std.mean[1] == 0.0 and std.std[1] == 0.0
    assert std.mean[0] == 3.0 and std.mean[2] == 6.5


def test_standardizer_fit_reduces_once_per_mask_pattern(monkeypatch):
    """One mean per distinct column mask, not one per column."""
    calls = []
    real = np.mean

    def counting(a, *args, **kw):
        calls.append(np.shape(a))
        return real(a, *args, **kw)

    monkeypatch.setattr(base.np, "mean", counting)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 12))
    patterns = rng.random((20, 3)) > 0.3
    defined = patterns[:, np.arange(12) % 3]
    Standardizer.fit(X, defined)
    assert sorted(calls) == sorted((4, int(patterns[:, p].sum()))
                                   for p in range(3))
