"""Social recommendation with dual-view lightweight graph convolution and a
denoised cross-view alignment objective, plus a full experiment harness."""

from .data import (DEFAULT_STRATA, Dataset, DegreeStrata, InteractionTable,
                   SocialTable, build_dataset, inject_noise, load_dataset,
                   load_edges, save_dataset, stratify_by_degree)
from .eval import (EvalReport, RelevanceWeightExport, evaluate,
                   evaluate_stratified, export_relevance_weights)
from .graph import (NormalizedGraph, build_interaction_laplacian,
                    build_social_laplacian, propagate)
from .model import (ModelState, ParamBlock, encode, init_model, load_checkpoint,
                    save_checkpoint, user_vectors)
from .objective import (AdamState, Batch, GradientSet, NonFiniteLossError,
                        TrainConfig, adam_step, bpr_loss, compute_gradients,
                        infonce_loss, joint_loss, sample_batch, ssl_hinge_loss)
from .oracle import dense_forward, finite_difference
from .synthetic import planted_clusters, random_dataset
from .train import TrainResult, train_model

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_STRATA", "Dataset", "DegreeStrata", "InteractionTable",
    "SocialTable", "build_dataset", "inject_noise", "load_dataset",
    "load_edges", "save_dataset", "stratify_by_degree",
    "EvalReport", "RelevanceWeightExport", "evaluate", "evaluate_stratified",
    "export_relevance_weights",
    "NormalizedGraph", "build_interaction_laplacian", "build_social_laplacian",
    "propagate",
    "ModelState", "ParamBlock", "encode", "init_model", "load_checkpoint",
    "save_checkpoint", "user_vectors",
    "AdamState", "Batch", "GradientSet", "NonFiniteLossError", "TrainConfig",
    "adam_step", "bpr_loss", "compute_gradients", "infonce_loss", "joint_loss",
    "sample_batch", "ssl_hinge_loss",
    "dense_forward", "finite_difference",
    "planted_clusters", "random_dataset",
    "TrainResult", "train_model",
]
