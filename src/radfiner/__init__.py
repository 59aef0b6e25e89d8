"""Panoptic refinement of radar point clouds.

A numpy/scipy implementation of a radius-attention point classifier with
instance refinement: ball-query neighborhoods, vector attention with
relative positional encoding, a hand-rolled reverse-mode tape for
training, Lovász-softmax and consistency losses, a synthetic scene
generator with a fault-injecting backbone surrogate, and panoptic-quality
evaluation.
"""

__version__ = "0.1.0"

from .attention import PositionalEncoder, RadiusAttention
from .errors import (ConfigError, DataError, DataFormatError, NumericsError,
                     ValidationError)
from .gradcheck import GradCheckReport, full_network_check, gradient_check
from .layers import BatchNorm, Linear
from .losses import (consistency_hard, consistency_soft, cross_entropy,
                     lovasz_softmax, softmax_probs, total_loss)
from .metrics import (PanopticStats, accumulate, format_report, mean_iou,
                      panoptic_quality, scan_stats, write_metrics_csv)
from .neighborhood import Neighborhood, ball_query, ball_query_bruteforce
from .network import NetworkConfig, RadFinerNet, toy_config
from .optim import AdamW
from .pipeline import bench_pipeline, evaluate_split, predict_panoptic
from .refinement import (assemble_panoptic, refine_instances,
                         refinement_is_idempotent)
from .scans import (NUM_CLASSES, MovingPrediction, PanopticPrediction,
                    RadarScan, SemanticClass, load_predictions, load_scans,
                    save_predictions, save_scans, select_moving)
from .synthdata import (ClassProfile, SceneConfig, SurrogateConfig,
                        generate_corpus, generate_scene, surrogate_backbone,
                        surrogate_corpus)
from .training import (AugmentConfig, AugmentedSample, TrainConfig,
                       augment_scan, scan_rng, train)

__all__ = [
    "AdamW", "AugmentConfig", "AugmentedSample", "BatchNorm", "ClassProfile",
    "ConfigError", "DataError", "DataFormatError", "GradCheckReport", "Linear",
    "MovingPrediction", "NUM_CLASSES", "Neighborhood",
    "NetworkConfig", "NumericsError", "PanopticPrediction", "PanopticStats",
    "PositionalEncoder", "RadFinerNet", "RadarScan", "RadiusAttention",
    "SceneConfig", "SemanticClass",
    "SurrogateConfig", "TrainConfig", "ValidationError", "accumulate",
    "assemble_panoptic", "augment_scan", "ball_query", "ball_query_bruteforce",
    "bench_pipeline", "consistency_hard", "consistency_soft", "cross_entropy",
    "evaluate_split", "format_report", "full_network_check", "generate_corpus",
    "generate_scene", "gradient_check", "load_predictions", "load_scans",
    "lovasz_softmax", "mean_iou", "panoptic_quality", "predict_panoptic",
    "refine_instances", "refinement_is_idempotent", "save_predictions",
    "save_scans", "scan_rng", "scan_stats", "select_moving", "softmax_probs",
    "surrogate_backbone", "surrogate_corpus", "total_loss", "toy_config",
    "train", "write_metrics_csv",
]
