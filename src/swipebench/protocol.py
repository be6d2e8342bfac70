"""Per-user evaluation protocol.

For every target user we train a binary model: positives come from the
user's earliest sessions, negatives are sampled from a dedicated group
of training attackers. Impostor test scores come from a second,
disjoint group of attackers, so no impostor identity seen in training
is ever scored at test time. Negative counts are balanced against
positive counts in both splits, and the whole procedure is repeated
with fresh attacker partitions; reported numbers are means over users
of per-user means over repetitions. Every score window is a row of
table rows from one stream of session-ordered swipes: an attacker's, or
the target's training or test split, so genuine and impostor windows
are scored by the same code. One evaluation calls the base model's
scorer once, over the union of the rows that the windows of its
non-``feed`` variants read, and those variants read their window scores
from that one vector.

Every draw of a (user, repetition) is made before training, into a
``SamplingPlan``: the attacker split, the balanced negatives and every
variant's windows. The plan depends only on the table's sessions, the
seed and the aggregation specs, so one plan serves every feature set
and classifier of a matrix.

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


def sample_negatives(pools, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Round-robin over users in a once-randomized order, drawing one
    uniformly random item per visit (with replacement across cycles).

    pools is a sequence of (user_id, items); every retained pool must be
    non-empty. Returns one array of the drawn items, taken from the pools
    laid end to end. All item draws are one bounded-integer call over the
    visit order, which yields the values, and leaves the generator in the
    state, of one scalar draw per visit.
    """
    pools = list(pools)
    if not pools:
        raise EmptyGroup("no users to sample negatives from")
    for uid, items in pools:
        if len(items) == 0:
            raise EmptyGroup(f"user {uid!r} has no items to sample")
    sizes = np.array([len(items) for _, items in pools])
    order = rng.permutation(len(pools))
    visits = order[np.arange(count) % len(pools)]
    picks = rng.integers(0, sizes[visits])
    pooled = np.concatenate([items for _, items in pools])
    return pooled[(np.cumsum(sizes) - sizes)[visits] + picks]


def aggregation_key(spec: AggregationSpec) -> str:
    return f"{spec.method}-w{spec.window}"


def aggregation_keys(specs) -> list[str]:
    """Every variant's key, in order; two variants may not share one."""
    keys = [aggregation_key(s) for s in specs]
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate aggregation variants: {keys}")
    return keys


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


@dataclass(frozen=True)
class VariantPlan:
    """One aggregation variant's test windows and, for the learned
    aggregators, their training windows and labels. Windows are (n, w)
    arrays: row i holds the table rows of window i."""

    genuine: np.ndarray
    impostor: np.ndarray
    counts: dict
    fit: np.ndarray | None = None
    fit_labels: np.ndarray | None = None


@dataclass(frozen=True)
class SamplingPlan:
    """Every draw of one (user, repetition) that precedes training.

    It depends on the table's sessions, the seed and the aggregation
    specs only, so every feature set and classifier shares it.
    ``variants`` maps each aggregation key to its plan or skip reason.
    """

    train_rows: np.ndarray
    test_rows: np.ndarray
    neg_rows: np.ndarray
    variants: dict
    classifier_entropy: int
    stacker_entropy: int


def _entropy(seedseq: np.random.SeedSequence) -> int:
    return int(seedseq.generate_state(1, dtype=np.uint64)[0])


def _stream(sessions) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate session row blocks into (global rows, session lengths)."""
    return (np.concatenate([idx for _, idx in sessions]),
            np.array([len(idx) for _, idx in sessions]))


def sampling_plan(table: FeatureTable, user_id: str,
                  aggregation_specs: list[AggregationSpec],
                  config: ProtocolConfig, repetition: int,
                  ) -> SamplingPlan | str:
    """The attacker split, balanced negatives and every variant's
    windows of one (user, repetition), or the reason the user is
    skipped (too few sessions or attackers)."""
    keys = aggregation_keys(aggregation_specs)

    users = sorted(table.user_sessions)
    root = np.random.SeedSequence(entropy=config.seed + repetition,
                                  spawn_key=(users.index(user_id),))
    children = root.spawn(6)

    sessions = table.user_sessions[user_id]
    if len(sessions) < 2:
        return "too-few-sessions"
    train_sessions, test_sessions = split_user_sessions(
        sessions, config.train_session_fraction)

    others = [u for u in users if u != user_id and table.user_sessions[u]]
    if len(others) < 2:
        return "too-few-attackers"
    train_group, test_group = partition_attackers(
        others, np.random.default_rng(children[0]),
        config.attacker_split_fraction)

    # attacker streams are keyed by user id, the target's splits by
    # (user_id, split), which no user id can equal
    train_key, test_key = (user_id, "train"), (user_id, "test")
    streams = {v: _stream(table.user_sessions[v]) for v in others}
    streams[train_key] = _stream(train_sessions)
    streams[test_key] = _stream(test_sessions)

    train_rows, test_rows = streams[train_key][0], streams[test_key][0]
    assert not set(train_rows.tolist()) & set(test_rows.tolist())

    # balanced negatives for the base model, from the training attackers
    neg_rows = sample_negatives(
        [(v, streams[v][0]) for v in train_group], len(train_rows),
        np.random.default_rng(children[1]))
    assert len(neg_rows) == len(train_rows)
    assert all(table.user_ids[r] != user_id for r in neg_rows)

    @functools.cache
    def windows_of(key, w: int, stride: int) -> np.ndarray:
        """(n, w) table rows; windows never span a session change."""
        rows, lengths = streams[key]
        return rows[window_slices(lengths, w, stride)]

    def draw(group, w: int, stride: int, count: int, entropy: int,
             spawn_key: tuple) -> np.ndarray | None:
        """count windows sampled round-robin over the attackers of group
        with a full window; None when none has one."""
        pools = [(v, wins) for v in group
                 if len(wins := windows_of(v, w, stride))]
        if not pools:
            return None
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=entropy, spawn_key=spawn_key))
        return sample_negatives(pools, count, rng)

    base_counts = {
        "n_train_pos": len(train_rows), "n_train_neg": len(neg_rows),
        "n_attackers_train": len(train_group),
        "n_attackers_test": len(test_group),
    }
    entropy_test = _entropy(children[2])
    entropy_train_w = _entropy(children[5])

    def plan(spec: AggregationSpec) -> VariantPlan | str:
        w = spec.window
        spawn_key = (METHODS.index(spec.method), w)
        gen = windows_of(test_key, w, w)
        if not len(gen):
            return "no-genuine-test-windows"
        imp = draw(test_group, w, w, len(gen), entropy_test, spawn_key)
        if imp is None:
            return "no-impostor-windows"
        assert len(imp) == len(gen)
        counts = dict(base_counts, n_test_genuine=len(gen),
                      n_test_impostor=len(imp))
        if spec.method not in ("stacking", "feed"):
            return VariantPlan(gen, imp, counts)

        # learned aggregators need their own balanced training windows
        gen_train = windows_of(train_key, w, 1)
        if not len(gen_train):
            return "no-genuine-train-windows"
        imp_train = draw(train_group, w, 1, len(gen_train), entropy_train_w,
                         spawn_key)
        if imp_train is None:
            return "no-impostor-train-windows"
        counts["n_agg_train_genuine"] = len(gen_train)
        counts["n_agg_train_impostor"] = len(imp_train)
        labels = np.concatenate([np.ones(len(gen_train)),
                                 np.zeros(len(imp_train))])
        return VariantPlan(gen, imp, counts,
                           np.concatenate([gen_train, imp_train]), labels)

    return SamplingPlan(
        train_rows=train_rows, test_rows=test_rows, neg_rows=neg_rows,
        variants={key: plan(spec)
                  for spec, key in zip(aggregation_specs, keys)},
        classifier_entropy=_entropy(children[3]),
        stacker_entropy=_entropy(children[4]))


def sampling_plans(table: FeatureTable,
                   aggregation_specs: list[AggregationSpec],
                   config: ProtocolConfig) -> list[dict]:
    """Per repetition, every user's sampling plan (or skip reason)."""
    users = sorted(table.user_sessions)
    return [{uid: sampling_plan(table, uid, aggregation_specs, config, rep)
             for uid in users} for rep in range(config.repetitions)]


def evaluate_user_repetition(table: FeatureTable, user_id: str,
                             classifier_spec: ClassifierSpec,
                             aggregation_specs: list[AggregationSpec],
                             config: ProtocolConfig, repetition: int,
                             plan: SamplingPlan | str | None = None,
                             ) -> dict[str, UserRepOutcome]:
    """Evaluate one user in one repetition under several aggregation
    variants sharing a single trained base model.

    ``plan`` is this (user, repetition)'s sampling plan; it is built
    when absent. Returns a dict keyed by aggregation_key. Precondition
    failures (too few sessions or attackers, no full window, fewer than
    two genuine training rows or windows for a one-class kind) and
    non-finite scores come back as skipped outcomes; real errors
    propagate.
    """
    keys = aggregation_keys(aggregation_specs)
    if plan is None:
        plan = sampling_plan(table, user_id, aggregation_specs, config,
                             repetition)

    def skipped(reason: str) -> UserRepOutcome:
        return UserRepOutcome(eer=None, skip_reason=reason)

    if isinstance(plan, str):
        return {k: skipped(plan) for k in keys}
    # a one-class kind trains on the genuine rows alone and needs two
    one_class = classifier_spec.is_one_class
    if one_class and len(plan.train_rows) < 2:
        return {k: skipped("too-few-train-rows") for k in keys}

    fit_rows = np.concatenate([plan.train_rows, plan.neg_rows])
    y = np.concatenate([np.ones(len(plan.train_rows)),
                        np.zeros(len(plan.neg_rows))])
    eff_seed = (plan.classifier_entropy + classifier_spec.seed) % 2 ** 32
    eff_spec = replace(classifier_spec, seed=eff_seed)
    model = train(eff_spec, table.X[fit_rows], y,
                  defined=table.defined[fit_rows])

    # every variant but feed reads one score per row, from one vector
    # filled by one call over the rows that their windows read
    read = np.zeros(table.n_rows, dtype=bool)
    for spec, key in zip(aggregation_specs, keys):
        vp = plan.variants[key]
        if spec.method != "feed" and not isinstance(vp, str):
            for windows in (vp.genuine, vp.impostor, vp.fit):
                if windows is not None:
                    read[windows] = True
    row_scores = np.empty(table.n_rows)
    if read.any():
        rows = np.flatnonzero(read)
        row_scores[rows] = model.score(table.X[rows], table.defined[rows])

    def concat(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (concat_window(table.X, windows),
                concat_window(table.defined, windows))

    def evaluate(spec: AggregationSpec, vp: VariantPlan | str
                 ) -> UserRepOutcome:
        if isinstance(vp, str):
            return skipped(vp)
        if spec.method == "stacking":
            stacker_seed = (_entropy(np.random.SeedSequence(
                entropy=plan.stacker_entropy, spawn_key=(spec.window,)))
                + spec.stacker.seed) % 2 ** 32
            net = train_stacker(row_scores[vp.fit], vp.fit_labels,
                                replace(spec.stacker, seed=stacker_seed))

            def score(windows: np.ndarray) -> np.ndarray:
                return stack_score(net, row_scores[windows])
        elif spec.method == "feed":
            if one_class and vp.counts["n_agg_train_genuine"] < 2:
                return skipped("too-few-train-windows")
            X_fit, defined_fit = concat(vp.fit)
            feed_model = train(eff_spec, X_fit, vp.fit_labels,
                               defined=defined_fit)

            def score(windows: np.ndarray) -> np.ndarray:
                return feed_model.score(*concat(windows))
        else:
            # vote and trust map a NaN to a finite number, so a window
            # that reads a non-finite score skips the variant for any method
            def score(windows: np.ndarray) -> np.ndarray:
                scores = row_scores[windows]
                if not np.isfinite(scores).all():
                    raise NonFiniteScores("a window reads a non-finite score")
                return np.array([reduce_scores(s, spec) for s in scores])

        try:
            result = eer_from_scores(score(vp.genuine), score(vp.impostor))
        except NonFiniteScores:
            return skipped("non-finite-scores")
        return UserRepOutcome(eer=result.eer, counts=dict(vp.counts))

    return {key: evaluate(spec, plan.variants[key])
            for spec, key in zip(aggregation_specs, keys)}


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
                   config: ProtocolConfig, plans: list[dict] | None = None,
                   ) -> dict[str, CellSummary]:
    """Evaluate every user over every repetition for each aggregation
    variant (variants share base models within each user-repetition).

    ``plans`` is ``sampling_plans(table, aggregation_specs, config)``,
    or of any table with the same sessions; it is built when absent."""
    keys = aggregation_keys(aggregation_specs)
    if plans is None:
        plans = sampling_plans(table, aggregation_specs, config)
    users = sorted(table.user_sessions)
    per_key: dict[str, dict[str, list[float | None]]] = {
        k: {u: [] for u in users} for k in keys}
    reasons: dict[str, dict[str, int]] = {k: {} for k in keys}
    for rep in range(config.repetitions):
        for uid in users:
            res = evaluate_user_repetition(
                table, uid, classifier_spec, aggregation_specs, config, rep,
                plan=plans[rep][uid])
            for key, outcome in res.items():
                per_key[key][uid].append(outcome.eer)
                if outcome.skipped:
                    reason = outcome.skip_reason
                    reasons[key][reason] = reasons[key].get(reason, 0) + 1
    return {key: summarize_cell(spec, per_key[key], reasons[key])
            for spec, key in zip(aggregation_specs, keys)}
