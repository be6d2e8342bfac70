"""Correctness checks the benchmark runs outside its timed part.

Each check raises CheckFailed with a reason. The oracles come from
``tests/oracles.py``: plain Python that shares no code with swipebench.
"""

from __future__ import annotations

import hashlib
import json
import math

from oracles import o_mean, o_median, oracle_anova_f, oracle_eer, oracle_features

FEATURE_TOL = 1e-9       # criterion 2's tolerance for features and F scores
EER_TOL = 1e-12          # criterion 2's tolerance for ROC/EER
REDUCE_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_conservation(samples_in: int, samples_kept: int,
                       rows: int, swipes_generated: int, source: str) -> None:
    """Ingest lost no sample and every generated swipe became a row."""
    if samples_in != samples_kept:
        raise CheckFailed(f"{source}: {samples_in} samples in, "
                          f"{samples_kept} kept")
    if rows != swipes_generated:
        raise CheckFailed(f"{source}: {rows} table rows for "
                          f"{swipes_generated} generated swipes")


def table_swipes(dataset) -> list:
    """(swipe, previous end in its session) in feature-table row order:
    users sorted, sessions chronological, swipes in stream order."""
    out = []
    for user_id in dataset.user_ids():
        for session in dataset.users[user_id].sessions:
            prev_end = None
            for swipe in session.swipes:
                out.append((swipe, prev_end))
                prev_end = swipe.end_ms
    return out


def check_feature_rows(table, swipes: list, rows) -> None:
    """Table rows equal the definitional oracle within 1e-9, with equal
    defined-masks. ``table`` holds all 149 features."""
    for row in rows:
        swipe, prev_end = swipes[row]
        values, defined = oracle_features(
            [int(v) for v in swipe.t_ms], list(swipe.xs), list(swipe.ys),
            list(swipe.pressures), list(swipe.areas), prev_end)
        for j, fid in enumerate(table.feature_ids):
            if bool(table.defined[row, j]) != bool(defined[fid - 1]):
                raise CheckFailed(f"{table.dataset_name} row {row} feature "
                                  f"{fid}: defined-mask differs")
            got, want = float(table.X[row, j]), float(values[fid - 1])
            if not _close(got, want, FEATURE_TOL):
                raise CheckFailed(f"{table.dataset_name} row {row} feature "
                                  f"{fid}: {got!r} != oracle {want!r}")


def check_selection(tables: list, result) -> None:
    """F scores match the oracle within 1e-9, and the selected set is the
    vote recomputed from the oracle ranking."""
    votes: dict[int, int] = {}
    for table in tables:
        columns = [[float(v) for v in table.X[:, j]]
                   for j in range(table.X.shape[1])]
        oracle = oracle_anova_f(columns, list(table.user_ids))
        got = result.f_scores[table.dataset_name]
        for fid, want in zip(table.feature_ids, oracle):
            if not _close(got[fid], want, FEATURE_TOL):
                raise CheckFailed(f"{table.dataset_name} feature {fid}: F "
                                  f"{got[fid]!r} != oracle {want!r}")
        n = table.X.shape[0]
        eligible = [fid for j, fid in enumerate(table.feature_ids)
                    if sum(bool(d) for d in table.defined[:, j]) * 2 >= n]
        score = dict(zip(table.feature_ids, oracle))
        ranked = sorted(eligible, key=lambda fid: (-score[fid], fid))
        for fid in ranked[:result.top_n]:
            votes[fid] = votes.get(fid, 0) + 1
    want = tuple(sorted(f for f, v in votes.items() if v >= result.min_votes))
    if tuple(result.selected) != want:
        raise CheckFailed(f"selected {len(result.selected)} features, the "
                          f"oracle vote selects {len(want)}; they differ in "
                          f"{sorted(set(result.selected) ^ set(want))}")


def check_criterion_4(cells: dict, methods) -> None:
    """The ensemble reaches EER <= 5% per swipe, and a window of 5 does no
    worse than a single swipe under each of the given methods."""
    single = cells["none-w1"].mean_eer
    if single is None or single > 0.05:
        raise CheckFailed(f"ensemble none-w1 mean EER {single} > 0.05")
    for m in methods:
        w5 = cells[f"{m}-w5"].mean_eer
        if w5 is None or w5 > single + 1e-12:
            raise CheckFailed(f"{m}-w5 EER {w5} > none-w1 EER {single}")


def check_same_eer(label: str, alone: float | None, in_cell: float | None
                   ) -> None:
    """A variant evaluated alone gives the bit-identical EER it had among
    the other variants of its cell."""
    if alone is None or in_cell is None or alone != in_cell:
        raise CheckFailed(f"{label}: alone {alone!r}, in its cell {in_cell!r}")


def check_grid_report(report: dict) -> None:
    """No failed cell, no skipped user, every EER in [0, 1]."""
    if report["failures"]:
        raise CheckFailed(f"failed cells: {report['failures']}")
    for fs, row in report["cells"].items():
        for clf, cell in row.items():
            for key, summary in cell.items():
                if summary["n_users_skipped"]:
                    raise CheckFailed(f"{fs}/{clf}/{key}: skipped users "
                                      f"{summary['skip_reasons']}")
                for user, eers in summary["per_user"].items():
                    for eer in eers:
                        if eer is None or not 0.0 <= eer <= 1.0:
                            raise CheckFailed(
                                f"{fs}/{clf}/{key}/{user}: EER {eer!r}")


def check_sampled_eers(samples: list) -> None:
    """Recorded eer_from_scores calls agree with the oracle within 1e-12."""
    for genuine, impostor, eer in samples:
        want, _ = oracle_eer(genuine, impostor)
        if not _close(eer, want, EER_TOL):
            raise CheckFailed(f"EER {eer!r} != oracle {want!r} on "
                              f"{len(genuine)}+{len(impostor)} scores")


def reference_reduce(scores: list[float], spec) -> float:
    """The closed-form reducers written out in plain Python."""
    if spec.method in ("none", "mean"):
        return o_mean(scores)
    if spec.method == "median":
        return o_median(scores)
    if spec.method == "vote":
        return sum(1 for s in scores if s >= spec.vote_threshold) / len(scores)
    if spec.method == "trust":
        trust = spec.trust.initial
        for s in scores:
            delta = s - spec.trust.threshold
            weight = spec.trust.reward if delta >= 0 else spec.trust.penalty
            trust = min(1.0, max(0.0, trust + weight * delta))
        return trust
    raise CheckFailed(f"no reference for reducer {spec.method!r}")


def check_sampled_reductions(samples: list) -> None:
    """Recorded reduce_scores calls agree with the plain reducers."""
    for scores, spec, got in samples:
        want = reference_reduce(scores, spec)
        if not _close(got, want, REDUCE_TOL):
            raise CheckFailed(f"{spec.method} of {scores} gave {got!r}, "
                              f"reference {want!r}")


def digest(payload) -> str:
    """Stable hash of JSON-serialisable outputs."""
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_same_digest(label: str, got: str, want: str | None) -> None:
    """Outputs of one commit and seed are identical across rounds and
    runs. ``want`` is None when nothing was recorded before."""
    if want is not None and got != want:
        raise CheckFailed(f"{label}: outputs differ ({got[:12]} != "
                          f"{want[:12]})")
