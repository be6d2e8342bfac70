"""Benchmarking toolkit for swipe-based continuous authentication.

Pipeline: ingest touch events into validated swipes, extract the
149-feature catalog, optionally select features by cross-dataset
ANOVA voting, train per-user verification models, aggregate scores
over swipe windows, and report mean equal-error rates under a
leakage-free protocol with disjoint attacker groups.
"""

from .aggregation import AggregationSpec, TrustParams
from .classifiers import ClassifierSpec, from_blob, to_blob, train
from .errors import ConfigError, DataError, SwipebenchError
from .features.catalog import FEATURES, STUDY_SETS, resolve_feature_ids
from .features.extract import FeatureTable, build_feature_table, extract_features
from .ingest import load_canonical, write_canonical
from .metrics import compute_eer, compute_roc, eer_from_scores
from .protocol import (ProtocolConfig, partition_attackers, run_experiment,
                       run_user_evaluation, sample_negatives,
                       split_user_sessions)
from .selection import anova_f_scores, select_features
from .stacking import StackerSpec, stack_score, train_stacker
from .synthetic import SyntheticSpec, generate_synthetic
from .touchdata import (Dataset, Swipe, TouchColumns, TouchSample,
                        filter_eligible)

__version__ = "0.1.0"

__all__ = [
    "AggregationSpec", "TrustParams", "ClassifierSpec", "from_blob",
    "to_blob", "train", "ConfigError", "DataError",
    "SwipebenchError", "FEATURES", "STUDY_SETS", "resolve_feature_ids",
    "FeatureTable", "build_feature_table", "extract_features",
    "load_canonical", "write_canonical", "compute_eer", "compute_roc",
    "eer_from_scores", "ProtocolConfig", "partition_attackers",
    "run_experiment", "run_user_evaluation", "sample_negatives",
    "split_user_sessions", "anova_f_scores", "select_features",
    "StackerSpec", "stack_score", "train_stacker", "SyntheticSpec",
    "generate_synthetic", "Dataset", "Swipe", "TouchColumns",
    "TouchSample", "filter_eligible",
    "__version__",
]
