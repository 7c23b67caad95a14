"""Evaluation: classifiers, metrics, protocols, similarity analysis, t-SNE."""

from .classifiers import (
    LinearSVMClassifier,
    LogisticRegressionClassifier,
    SGDClassifier,
    make_classifier,
)
from .engine import (
    EvalStats,
    fast_evaluate_graph,
    fast_evaluate_node,
    lockstep_available,
    resolve_eval_workers,
)
from .folds import FoldPlan, plan_folds
from .metrics import accuracy, macro_f1, mean_std, roc_auc
from .protocol import (
    evaluate_graph_embeddings,
    evaluate_node_embeddings,
    fast_eval_enabled,
    kfold_indices,
    last_eval_stats,
    standardize,
)
from .similarity import (
    cosine_similarity,
    intra_inter_class_similarity,
    similarity_diversity,
    sorted_similarity_matrix,
)
from .tsne import tsne

__all__ = [
    "LogisticRegressionClassifier", "LinearSVMClassifier", "SGDClassifier",
    "make_classifier",
    "accuracy", "macro_f1", "roc_auc", "mean_std",
    "standardize", "kfold_indices", "evaluate_graph_embeddings",
    "evaluate_node_embeddings", "fast_eval_enabled", "last_eval_stats",
    "EvalStats", "fast_evaluate_graph", "fast_evaluate_node",
    "lockstep_available", "resolve_eval_workers",
    "FoldPlan", "plan_folds",
    "cosine_similarity", "sorted_similarity_matrix", "similarity_diversity",
    "intra_inter_class_similarity",
    "tsne",
]
