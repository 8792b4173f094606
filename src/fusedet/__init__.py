"""Few-shot multispectral detection core: differentiable fusion of paired
color/thermal feature maps, prototype-based class aggregation, an episodic
K-shot harness with a toy detection head, and nAP50 evaluation.
"""

from .autodiff import Node, ParamStore, as_node, backward, grad_check, no_grad
from .data import DatasetIndex, Episode, SplitSpec, SupportSet, build_supports, load_index, sample_episode, save_index
from .deformable import CDAConfig, FusionConfig, cda_forward, fuse, fusion_forward, offset_net, reference_grid
from .errors import (
    DivergenceError,
    FusedetError,
    NumericGuardError,
    ParseError,
    PreconditionError,
    ShapeError,
)
from .evaluation import Box, Detection, GroundTruth, average_precision, match, nap50
from .model import ModelConfig, init_params, query_features
from .neighborhood import NAConfig, na_forward
from .prototypes import (
    PrototypeSet,
    average_prototypes,
    cam_forward,
    cosine_ce_loss,
    extract_prototypes,
    roi_align,
    task_encodings,
)
from .synth import SynthConfig, generate_synthetic
from .training import TrainConfig, infer, precompute_prototypes, run_training, toy_head, train_loss

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CDAConfig",
    "DatasetIndex",
    "Detection",
    "DivergenceError",
    "Episode",
    "FusedetError",
    "FusionConfig",
    "GroundTruth",
    "ModelConfig",
    "NAConfig",
    "Node",
    "NumericGuardError",
    "ParamStore",
    "ParseError",
    "PreconditionError",
    "PrototypeSet",
    "ShapeError",
    "SplitSpec",
    "SupportSet",
    "SynthConfig",
    "TrainConfig",
    "as_node",
    "average_precision",
    "average_prototypes",
    "backward",
    "build_supports",
    "cam_forward",
    "cda_forward",
    "cosine_ce_loss",
    "extract_prototypes",
    "fuse",
    "fusion_forward",
    "generate_synthetic",
    "grad_check",
    "infer",
    "init_params",
    "load_index",
    "match",
    "na_forward",
    "nap50",
    "no_grad",
    "offset_net",
    "precompute_prototypes",
    "query_features",
    "reference_grid",
    "roi_align",
    "run_training",
    "sample_episode",
    "save_index",
    "task_encodings",
    "toy_head",
    "train_loss",
]
