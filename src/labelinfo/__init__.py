"""Quantify how informative supervision signals are for recovering latent
representations: label generation, triplet mining, ordinal embedding,
recovery metrics, and annotation cost-benefit analysis."""

__version__ = "0.1.0"

from .latentgen import LatentDataset, generate_dataset, similarity_matrix
from .labels import (LabelKind, LabelSet, hard_labels, soft_labels,
                     smooth_labels, typicality_labels, sparsify_labels,
                     topclass_labels, pca_encode)
from .triplets import (ConstraintSet, mine_from_labels, mine_from_coordinates,
                       count_hard, count_soft, information_ratio, apply_noise)
from .gnmds import GramMatrix, SolverConfig, solve, project_psd, extract_embedding
from .metrics import spearman, recovery_score
from .costbenefit import (SignalOption, TradeoffConfig, UtilityKind, cost,
                          utility, loss, optimize_sparsity)
from .sweep import SignalSpec, SweepSpec, run_sweep, derive_seed

__all__ = [
    "LatentDataset", "generate_dataset", "similarity_matrix",
    "LabelKind", "LabelSet", "hard_labels", "soft_labels", "smooth_labels",
    "typicality_labels", "sparsify_labels", "topclass_labels", "pca_encode",
    "ConstraintSet", "mine_from_labels", "mine_from_coordinates",
    "count_hard", "count_soft", "information_ratio", "apply_noise",
    "GramMatrix", "SolverConfig", "solve", "project_psd", "extract_embedding",
    "spearman", "recovery_score",
    "SignalOption", "TradeoffConfig", "UtilityKind", "cost", "utility", "loss",
    "optimize_sparsity",
    "SignalSpec", "SweepSpec", "run_sweep", "derive_seed",
]
