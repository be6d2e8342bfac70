"""Per-user evaluation protocol.

For every target user we train a binary model: positives come from the
user's earliest sessions, negatives are sampled from a dedicated group
of training attackers. Impostor test scores come from a second,
disjoint group of attackers, so no impostor identity seen in training
is ever scored at test time. Negative counts are balanced against
positive counts in both splits, and the whole procedure is repeated
with fresh attacker partitions; reported numbers are means over users
of per-user means over repetitions. Every score window is a pair
(stream key, positions) over one stream of session-ordered swipes: an
attacker's, or the target's training or test split, so genuine and
impostor windows are scored by the same code.

Seeding: repetition r derives all of its randomness from
``config.seed + r``. Within a repetition, each user gets six
independent seed-sequence children keyed by the user's rank in the
sorted user list: attacker partition, training-negative sampling,
test sampling, classifier seed, stacker seed, and training-window
sampling for the learned aggregators. Evaluating one user is therefore
independent of every other user, of the repetition loop order, and of
which aggregation variants are requested alongside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .aggregation import (METHODS, AggregationSpec, concat_window,
                          reduce_scores, window_slices)
from .classifiers import ClassifierSpec, train
from .errors import (ConfigError, EmptyGroup, NonFiniteScores,
                     TooFewAttackers, TooFewSessions)
from .features.extract import FeatureTable
from .metrics import eer_from_scores
from .spec import Spec, count, number
from .stacking import stack_score, train_stacker


@dataclass(frozen=True)
class ProtocolConfig(Spec):
    train_session_fraction: float = 0.8
    repetitions: int = 10
    seed: int = 0
    attacker_split_fraction: float = 0.5

    RULES = {"train_session_fraction": number(0, 1, "()"),
             "repetitions": count(1), "seed": count(0),
             "attacker_split_fraction": number(0, 1, "()")}


def split_user_sessions(sessions, fraction: float):
    """Earliest sessions for training, remainder for testing.

    n_train = max(1, floor(fraction * n)), reduced so that at least one
    test session remains.
    """
    n = len(sessions)
    if n < 2:
        raise TooFewSessions(f"need >= 2 sessions, got {n}")
    n_train = max(1, math.floor(fraction * n))
    n_train = min(n_train, n - 1)
    return list(sessions[:n_train]), list(sessions[n_train:])


def partition_attackers(user_ids, rng: np.random.Generator,
                        fraction: float = 0.5):
    """Random disjoint exhaustive split; ties round toward the training
    group (7 users at 0.5 -> 4 + 3)."""
    ids = list(user_ids)
    n = len(ids)
    if n < 2:
        raise TooFewAttackers(f"need >= 2 other users, got {n}")
    n_train = min(n - 1, max(1, math.ceil(fraction * n)))
    order = rng.permutation(n)
    shuffled = [ids[i] for i in order]
    train = sorted(shuffled[:n_train])
    test = sorted(shuffled[n_train:])
    assert not set(train) & set(test)
    assert len(train) + len(test) == n
    return train, test


def sample_negatives(pools, count: int, rng: np.random.Generator) -> list:
    """Round-robin over users in a once-randomized order, drawing one
    uniformly random item per visit (with replacement across cycles).

    pools is a sequence of (user_id, items); every retained pool must be
    non-empty.
    """
    pools = list(pools)
    if not pools:
        raise EmptyGroup("no users to sample negatives from")
    for uid, items in pools:
        if len(items) == 0:
            raise EmptyGroup(f"user {uid!r} has no items to sample")
    order = rng.permutation(len(pools))
    out = []
    visit = 0
    while len(out) < count:
        _, items = pools[order[visit % len(pools)]]
        out.append(items[int(rng.integers(0, len(items)))])
        visit += 1
    return out


def aggregation_key(spec: AggregationSpec) -> str:
    return f"{spec.method}-w{spec.window}"


@dataclass
class UserRepOutcome:
    """EER of one (user, repetition, aggregation) evaluation, or the
    reason it was skipped."""

    eer: float | None
    skip_reason: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def skipped(self) -> bool:
        return self.eer is None


def _entropy(seedseq: np.random.SeedSequence) -> int:
    return int(seedseq.generate_state(1, dtype=np.uint64)[0])


def _stream(table: FeatureTable, sessions) -> tuple[np.ndarray, list[str]]:
    """Concatenate session row blocks into (global rows, session labels)."""
    rows = np.concatenate([idx for _, idx in sessions])
    labels = [sid for sid, idx in sessions for _ in range(len(idx))]
    return rows, labels


def evaluate_user_repetition(table: FeatureTable, user_id: str,
                             classifier_spec: ClassifierSpec,
                             aggregation_specs: list[AggregationSpec],
                             config: ProtocolConfig, repetition: int,
                             ) -> dict[str, UserRepOutcome]:
    """Evaluate one user in one repetition under several aggregation
    variants sharing a single trained base model.

    Returns a dict keyed by aggregation_key. Precondition failures
    (too few sessions or attackers, no full window) and non-finite
    scores come back as skipped outcomes; real errors propagate.
    """
    keys = [aggregation_key(s) for s in aggregation_specs]
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate aggregation variants: {keys}")

    def skipped(reason: str) -> UserRepOutcome:
        return UserRepOutcome(eer=None, skip_reason=reason)

    users = sorted(table.user_sessions)
    user_index = users.index(user_id)
    root = np.random.SeedSequence(entropy=config.seed + repetition,
                                  spawn_key=(user_index,))
    children = root.spawn(6)

    sessions = table.user_sessions[user_id]
    if len(sessions) < 2:
        return {k: skipped("too-few-sessions") for k in keys}
    train_sessions, test_sessions = split_user_sessions(
        sessions, config.train_session_fraction)

    others = [u for u in users if u != user_id and table.user_sessions[u]]
    if len(others) < 2:
        return {k: skipped("too-few-attackers") for k in keys}
    train_group, test_group = partition_attackers(
        others, np.random.default_rng(children[0]),
        config.attacker_split_fraction)

    # attacker streams are keyed by user id, the target's splits by
    # (user_id, split), which no user id can equal
    train_key, test_key = (user_id, "train"), (user_id, "test")
    sessions_of = {**table.user_sessions, train_key: train_sessions,
                   test_key: test_sessions}

    @functools.cache
    def stream_of(key) -> tuple[np.ndarray, list[str]]:
        return _stream(table, sessions_of[key])

    train_rows, _ = stream_of(train_key)
    test_rows, _ = stream_of(test_key)
    assert not set(train_rows.tolist()) & set(test_rows.tolist())

    # balanced negatives for the base model, from the training attackers
    train_pools = [(v, table.rows_of_user(v)) for v in train_group]
    neg_rows = np.array(sample_negatives(
        train_pools, len(train_rows), np.random.default_rng(children[1])),
        dtype=int)
    assert len(neg_rows) == len(train_rows)
    assert all(table.user_ids[r] != user_id for r in neg_rows)

    fit_rows = np.concatenate([train_rows, neg_rows])
    y = np.concatenate([np.ones(len(train_rows)), np.zeros(len(neg_rows))])
    eff_seed = (_entropy(children[3]) + classifier_spec.seed) % 2 ** 32
    eff_spec = replace(classifier_spec, seed=eff_seed)
    model = train(eff_spec, table.X[fit_rows], y,
                  defined=table.defined[fit_rows])

    # every variant shares one stream, score and window list per key
    @functools.cache
    def scores_of(key) -> np.ndarray:
        rows, _ = stream_of(key)
        return model.score(table.X[rows], table.defined[rows])

    @functools.cache
    def windows_of(key, w: int, stride: int) -> list:
        """Windows never span a session change or mix two streams."""
        _, labels = stream_of(key)
        return [(key, pos) for pos in window_slices(labels, w, stride)]

    def pools(group, w: int, stride: int) -> list:
        """(user_id, its windows) per attacker with a full window."""
        return [(v, wins) for v in group if (wins := windows_of(v, w, stride))]

    def sequences(windows) -> list[np.ndarray]:
        return [scores_of(k)[pos] for k, pos in windows]

    def concat(M: np.ndarray, windows) -> np.ndarray:
        return np.stack([concat_window(M, stream_of(k)[0][pos])
                         for k, pos in windows])

    entropy_test = _entropy(children[2])
    entropy_stacker = _entropy(children[4])
    entropy_train_w = _entropy(children[5])

    base_counts = {
        "n_train_pos": len(train_rows), "n_train_neg": len(neg_rows),
        "n_attackers_train": len(train_group),
        "n_attackers_test": len(test_group),
    }

    def evaluate(spec: AggregationSpec) -> UserRepOutcome:
        w = spec.window
        m_idx = METHODS.index(spec.method)
        gen_windows = windows_of(test_key, w, w)
        if not gen_windows:
            return skipped("no-genuine-test-windows")
        imp_pools = pools(test_group, w, w)
        if not imp_pools:
            return skipped("no-impostor-windows")
        test_rng = np.random.default_rng(np.random.SeedSequence(
            entropy=entropy_test, spawn_key=(m_idx, w)))
        imp_windows = sample_negatives(imp_pools, len(gen_windows), test_rng)
        assert len(imp_windows) == len(gen_windows)
        counts = dict(base_counts, n_test_genuine=len(gen_windows),
                      n_test_impostor=len(imp_windows))

        if spec.method not in ("stacking", "feed"):
            def score(windows) -> np.ndarray:
                return np.array([reduce_scores(s, spec)
                                 for s in sequences(windows)])
        else:
            # learned aggregators need their own balanced training windows
            gen_train = windows_of(train_key, w, 1)
            if not gen_train:
                return skipped("no-genuine-train-windows")
            fit_pools = pools(train_group, w, 1)
            if not fit_pools:
                return skipped("no-impostor-train-windows")
            train_w_rng = np.random.default_rng(np.random.SeedSequence(
                entropy=entropy_train_w, spawn_key=(m_idx, w)))
            imp_train = sample_negatives(fit_pools, len(gen_train),
                                         train_w_rng)
            fit_windows = gen_train + imp_train
            y_agg = np.concatenate([np.ones(len(gen_train)),
                                    np.zeros(len(imp_train))])
            counts["n_agg_train_genuine"] = len(gen_train)
            counts["n_agg_train_impostor"] = len(imp_train)

            if spec.method == "stacking":
                stacker_seed = (_entropy(np.random.SeedSequence(
                    entropy=entropy_stacker, spawn_key=(w,)))
                    + spec.stacker.seed) % 2 ** 32
                net = train_stacker(np.array(sequences(fit_windows)), y_agg,
                                    replace(spec.stacker, seed=stacker_seed))

                def score(windows) -> np.ndarray:
                    return stack_score(net, np.array(sequences(windows)))
            else:
                feed_model = train(eff_spec, concat(table.X, fit_windows),
                                   y_agg,
                                   defined=concat(table.defined, fit_windows))

                def score(windows) -> np.ndarray:
                    return feed_model.score(concat(table.X, windows),
                                            concat(table.defined, windows))

        try:
            result = eer_from_scores(score(gen_windows), score(imp_windows))
        except NonFiniteScores:
            return skipped("non-finite-scores")
        return UserRepOutcome(eer=result.eer, counts=counts)

    return {key: evaluate(spec) for spec, key in zip(aggregation_specs, keys)}


def run_user_evaluation(table: FeatureTable, user_id: str,
                        classifier_spec: ClassifierSpec,
                        aggregation_spec: AggregationSpec,
                        config: ProtocolConfig, repetition: int = 0,
                        ) -> UserRepOutcome:
    """Single-variant convenience wrapper around evaluate_user_repetition."""
    res = evaluate_user_repetition(table, user_id, classifier_spec,
                                   [aggregation_spec], config, repetition)
    return res[aggregation_key(aggregation_spec)]


@dataclass
class CellSummary:
    """One evaluated configuration: per-user per-repetition EERs and
    their two-level mean (first over repetitions, then over users)."""

    aggregation: dict
    per_user: dict[str, list[float | None]]
    user_means: dict[str, float]
    mean_eer: float | None
    std_eer: float | None
    n_users_evaluated: int
    n_users_skipped: int
    skip_reasons: dict[str, int]

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def summarize_cell(spec: AggregationSpec,
                   per_user: dict[str, list[float | None]],
                   skip_reasons: dict[str, int]) -> CellSummary:
    user_means = {}
    for uid, eers in per_user.items():
        valid = [e for e in eers if e is not None]
        if valid:
            user_means[uid] = float(np.mean(valid))
    means = np.array([user_means[u] for u in sorted(user_means)])
    return CellSummary(
        aggregation=spec.as_dict(),
        per_user=per_user,
        user_means=user_means,
        mean_eer=float(means.mean()) if means.size else None,
        std_eer=float(means.std()) if means.size else None,
        n_users_evaluated=len(user_means),
        n_users_skipped=len(per_user) - len(user_means),
        skip_reasons=skip_reasons,
    )


def run_experiment(table: FeatureTable, classifier_spec: ClassifierSpec,
                   aggregation_specs: list[AggregationSpec],
                   config: ProtocolConfig,
                   ) -> dict[str, CellSummary]:
    """Evaluate every user over every repetition for each aggregation
    variant (variants share base models within each user-repetition)."""
    users = sorted(table.user_sessions)
    keys = [aggregation_key(s) for s in aggregation_specs]
    per_key: dict[str, dict[str, list[float | None]]] = {
        k: {u: [] for u in users} for k in keys}
    reasons: dict[str, dict[str, int]] = {k: {} for k in keys}
    for rep in range(config.repetitions):
        for uid in users:
            res = evaluate_user_repetition(
                table, uid, classifier_spec, aggregation_specs, config, rep)
            for key in keys:
                outcome = res[key]
                per_key[key][uid].append(outcome.eer)
                if outcome.skipped:
                    reason = outcome.skip_reason or "unknown"
                    reasons[key][reason] = reasons[key].get(reason, 0) + 1
    return {key: summarize_cell(spec, per_key[key], reasons[key])
            for spec, key in zip(aggregation_specs, keys)}
