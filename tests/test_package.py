"""The package root's public names, pinned.

An export added or removed shows up in this list's diff. Submodules are left
out: which of them is an attribute of the package depends on what has been
imported (`resmoteboost.cli` only after something imports it).
"""

import types

import resmoteboost

PUBLIC_NAMES = [
    "BoostConfig",
    "BoostedEnsemble",
    "ClassPartition",
    "Dataset",
    "DecisionStump",
    "ExperimentConfig",
    "GaussianNBLearner",
    "GaussianNBModel",
    "KNNLearner",
    "METHODS",
    "NEGATIVE",
    "POSITIVE",
    "RandomSource",
    "RouletteWheel",
    "SplitSpec",
    "adasyn",
    "binary_metrics",
    "borderline_smote",
    "build_roulette",
    "confusion",
    "double_pruning",
    "fisher_ratio",
    "fit_boosted",
    "fit_gnb",
    "heuristic_tmax",
    "load_csv",
    "majority_class_pruning",
    "make_gaussian_blobs",
    "make_learner_factory",
    "minority_class_pruning",
    "mix_seed",
    "noise_filter",
    "overlap_feature_count",
    "partition_by_class",
    "posterior_batch",
    "random_under",
    "regularization_accept",
    "replication_stats",
    "roc_auc",
    "run_experiment",
    "run_replication",
    "save_csv",
    "smote",
    "smote_interpolate",
    "split_indices",
    "tomek_links",
]


def test_public_names_are_the_pinned_list():
    names = sorted(name for name, value in vars(resmoteboost).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
