"""OOD-robust binary ranking.

The pipeline fits a PCA latent space, trains a diverse ensemble of small
tree pseudo-labelers on the latent codes, then trains a multi-head network
to match those labelers on both the training points and radially expanded
copies of them. Deployment averages the labeler votes with the head
probabilities, which keeps rankings stable under distribution shift.
"""

from .data import Dataset, DatasetError, SubsampleSpec, load_csv, make_synthetic_radial, save_csv, subsample
from .latent import LatentMap, decode, encode, expand_with, fit_pca
from .metrics import (
    EvalReport,
    ScoredSet,
    VarianceReport,
    auprc,
    auprc_truncated,
    auroc,
    bootstrap_variance,
    enrichment_factor,
    evaluate,
    pr_curve,
)
from .model import (
    Adam,
    ExplorNet,
    NetConfig,
    TrainedBundle,
    TrainingDivergence,
    load_bundle,
    loss_and_grads,
    loss_terms,
    predict,
    save_bundle,
    score,
    train,
    train_erm,
    train_pl_ens,
)
from .pseudolabel import PseudoLabelConfig, PseudoLabelEnsemble, Tree, fit_ensemble, fit_tree
from .seeding import derive_seed
from .splits import ClusterModel, FoldResult, cluster_split, kmeans, leave_one_out_folds, weighted_summary

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ClusterModel",
    "Dataset",
    "DatasetError",
    "EvalReport",
    "ExplorNet",
    "FoldResult",
    "LatentMap",
    "NetConfig",
    "PseudoLabelConfig",
    "PseudoLabelEnsemble",
    "ScoredSet",
    "SubsampleSpec",
    "TrainedBundle",
    "TrainingDivergence",
    "Tree",
    "VarianceReport",
    "auprc",
    "auprc_truncated",
    "auroc",
    "bootstrap_variance",
    "cluster_split",
    "decode",
    "derive_seed",
    "encode",
    "enrichment_factor",
    "evaluate",
    "expand_with",
    "fit_ensemble",
    "fit_pca",
    "fit_tree",
    "kmeans",
    "leave_one_out_folds",
    "load_bundle",
    "load_csv",
    "loss_and_grads",
    "loss_terms",
    "make_synthetic_radial",
    "pr_curve",
    "predict",
    "save_bundle",
    "save_csv",
    "score",
    "subsample",
    "train",
    "train_erm",
    "train_pl_ens",
    "weighted_summary",
]
