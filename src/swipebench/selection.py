"""Cross-dataset feature selection via one-way ANOVA F scores.

Per dataset, features are ranked by the F statistic of their values grouped
by user identity; the selection keeps features that reach the per-dataset
top-n in at least min_votes datasets. Results are keyed by dataset name, so
the datasets must have distinct names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyMatrix, SingleClass
from .features.extract import FeatureTable

DEFAULT_TOP_N = 125
DEFAULT_MIN_VOTES = 2


def anova_f_scores(X: np.ndarray, y) -> np.ndarray:
    """One-way ANOVA F per column.

    F = (SSB / (k - 1)) / (SSW / (N - k)). Columns with zero within-group
    variability but nonzero between-group variability get +inf; columns with
    zero between-group variability get 0.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise EmptyMatrix(f"need a nonempty 2-d matrix, got shape {X.shape}")
    y = np.asarray(y)
    if len(y) != X.shape[0]:
        raise EmptyMatrix(f"{X.shape[0]} rows but {len(y)} labels")
    groups = np.unique(y)
    k = len(groups)
    if k < 2:
        raise SingleClass("ANOVA needs at least 2 groups")
    n = X.shape[0]

    grand = X.mean(axis=0)
    ssb = np.zeros(X.shape[1])
    ssw = np.zeros(X.shape[1])
    for g in groups:
        block = X[y == g]
        mean_g = block.mean(axis=0)
        ssb += len(block) * (mean_g - grand) ** 2
        ssw += ((block - mean_g) ** 2).sum(axis=0)

    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ssw == 0.0, np.where(ssb > 0.0, np.inf, 0.0),
                        (ssb / (k - 1)) / (ssw / (n - k)))


@dataclass
class SelectionResult:
    selected: tuple[int, ...]
    top_n: int
    min_votes: int
    datasets: tuple[str, ...]
    per_dataset_top: dict[str, tuple[int, ...]]
    f_scores: dict[str, dict[int, float]]
    excluded_undefined: dict[str, tuple[int, ...]]

    def as_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "top_n": self.top_n,
            "min_votes": self.min_votes,
            "datasets": list(self.datasets),
            "per_dataset_top": {k: list(v) for k, v in self.per_dataset_top.items()},
            "excluded_undefined": {k: list(v)
                                   for k, v in self.excluded_undefined.items()},
            "f_scores": {k: {str(fid): (None if np.isinf(s) else float(s))
                             for fid, s in v.items()}
                         for k, v in self.f_scores.items()},
        }


def rank_dataset(table: FeatureTable) -> tuple[list[int], list[int], dict[int, float]]:
    """Rank one dataset's features by F (descending, ties toward the lower
    id). Features undefined for more than half the rows are excluded.
    Returns (ranked ids, excluded ids, id -> F)."""
    f = anova_f_scores(table.X, np.array(table.user_ids, dtype=object))
    defined_frac = table.defined.mean(axis=0)
    eligible = defined_frac >= 0.5
    scores = {fid: float(f[j]) for j, fid in enumerate(table.feature_ids)}
    ranked = sorted(
        (fid for j, fid in enumerate(table.feature_ids) if eligible[j]),
        key=lambda fid: (-scores[fid], fid))
    excluded = [fid for j, fid in enumerate(table.feature_ids) if not eligible[j]]
    return ranked, excluded, scores


def select_features(tables: list[FeatureTable], top_n: int = DEFAULT_TOP_N,
                    min_votes: int = DEFAULT_MIN_VOTES) -> SelectionResult:
    """Vote the per-dataset top-n rankings into one cross-dataset set."""
    if top_n < 1:
        raise ConfigError("top_n must be >= 1")
    if min_votes < 1:
        raise ConfigError("min_votes must be >= 1")
    if len(tables) < min_votes:
        raise ConfigError(
            f"{len(tables)} dataset(s) cannot produce {min_votes} votes")
    names = [table.dataset_name for table in tables]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"datasets need distinct names, repeated: {repeated}")
    votes: dict[int, int] = {}
    per_top: dict[str, tuple[int, ...]] = {}
    f_all: dict[str, dict[int, float]] = {}
    excluded: dict[str, tuple[int, ...]] = {}
    for table in tables:
        ranked, excl, scores = rank_dataset(table)
        top = tuple(ranked[:top_n])
        per_top[table.dataset_name] = top
        f_all[table.dataset_name] = scores
        excluded[table.dataset_name] = tuple(excl)
        for fid in top:
            votes[fid] = votes.get(fid, 0) + 1
    selected = tuple(sorted(fid for fid, v in votes.items() if v >= min_votes))
    if not selected:
        raise EmptyMatrix("no feature reached the vote threshold")
    return SelectionResult(
        selected=selected, top_n=top_n, min_votes=min_votes,
        datasets=tuple(t.dataset_name for t in tables),
        per_dataset_top=per_top, f_scores=f_all, excluded_undefined=excluded)


def default_selection_document(top_n: int = DEFAULT_TOP_N,
                               min_votes: int = DEFAULT_MIN_VOTES) -> dict:
    """Build the shipped default feature-set document.

    The vote runs over three generated datasets with distinct seeds and
    population shapes, standing in for the three gated corpora. The
    document records full provenance so the file can be regenerated with
    ``python -m swipebench.selection``.
    """
    from .features.extract import build_feature_table
    from .synthetic import SyntheticSpec, generate_synthetic

    sources = [
        SyntheticSpec(users=12, sessions_per_user=4, swipes_per_session=30,
                      separability=2.0, seed=101, name="sel-a"),
        SyntheticSpec(users=8, sessions_per_user=3, swipes_per_session=45,
                      separability=1.5, seed=202, name="sel-b"),
        SyntheticSpec(users=16, sessions_per_user=5, swipes_per_session=20,
                      separability=2.5, seed=303, name="sel-c"),
    ]
    tables = [build_feature_table(generate_synthetic(s)) for s in sources]
    result = select_features(tables, top_n=top_n, min_votes=min_votes)
    return {
        "feature_ids": list(result.selected),
        "provenance": {
            "method": "per-dataset ANOVA top-n vote",
            "top_n": top_n,
            "min_votes": min_votes,
            "sources": [s.as_dict() for s in sources],
            "regenerate": "python -m swipebench.selection",
        },
    }


def _main() -> None:
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(
        description="regenerate the shipped default feature set")
    parser.add_argument("--out", default=None,
                        help="output path (default: the packaged data file)")
    parser.add_argument("--top-n", type=int, default=DEFAULT_TOP_N)
    parser.add_argument("--min-votes", type=int, default=DEFAULT_MIN_VOTES)
    args = parser.parse_args()
    out = Path(args.out) if args.out else (
        Path(__file__).parent / "data" / "anova125.json")
    doc = default_selection_document(args.top_n, args.min_votes)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{len(doc['feature_ids'])} features -> {out}")


if __name__ == "__main__":
    _main()
