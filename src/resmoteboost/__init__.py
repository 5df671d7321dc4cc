"""Double-pruning resampling and boosting for imbalanced binary classification."""

from .data import (
    ClassPartition,
    Dataset,
    NEGATIVE,
    POSITIVE,
    RandomSource,
    SplitSpec,
    load_csv,
    make_gaussian_blobs,
    mix_seed,
    partition_by_class,
    save_csv,
    split_indices,
)
from .entropy import (
    GaussianNBModel,
    fit_gnb,
    posterior_batch,
)
from .pruning import (
    RouletteWheel,
    build_roulette,
    double_pruning,
    majority_class_pruning,
    minority_class_pruning,
    noise_filter,
    regularization_accept,
    smote_interpolate,
)
from .samplers import adasyn, borderline_smote, random_under, smote, tomek_links
from .boosting import (
    BoostConfig,
    BoostedEnsemble,
    DecisionStump,
    GaussianNBLearner,
    KNNLearner,
    fit_boosted,
    heuristic_tmax,
    make_learner_factory,
)
from .metrics import (
    binary_metrics,
    confusion,
    fisher_ratio,
    overlap_feature_count,
    replication_stats,
    roc_auc,
)
from .experiment import (
    ExperimentConfig,
    METHODS,
    run_experiment,
    run_replication,
)

__version__ = "0.1.0"
