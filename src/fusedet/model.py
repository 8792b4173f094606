"""Model-level configuration, parameter-group initialization, and the
feature pipeline shared by training and inference.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .autodiff import Node, ParamStore
from .deformable import FUSE_MODES, CDAConfig, FusionConfig, fuse, init_fusion_params
from .errors import PreconditionError
from .neighborhood import NAConfig
from .prototypes import GATE_MODES, init_cam_params

# Most RoIAlign samples per box side, roi_out * roi_sampling; a box's
# sample grid is its square, and a large one asks for arrays past memory.
ROI_SIDE_SAMPLES = 64


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 8
    classes_total: int = 3
    t_max: int = 4
    na_k: int = 3
    r: int = 2
    s: float = 0.5
    k_off: int = 5
    alpha: float = 20.0
    roi_out: int = 7
    roi_sampling: int = 2
    fusion_mode: str = "cda"
    gate_mode: str = "filter"
    score_thr: float = 0.3

    def __post_init__(self) -> None:
        if self.channels % 2:
            raise PreconditionError(f"channel count {self.channels} must be even")
        if self.classes_total < 1:
            raise PreconditionError("need at least one class")
        if self.t_max < 1:
            raise PreconditionError("episode slot capacity must be positive")
        if self.fusion_mode not in FUSE_MODES:
            raise PreconditionError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.gate_mode not in GATE_MODES:
            raise PreconditionError(f"unknown gate mode {self.gate_mode!r}")
        if self.alpha <= 0:
            raise PreconditionError("cosine logit scale must be positive")
        for key in ("roi_out", "roi_sampling"):
            if getattr(self, key) < 1:
                raise PreconditionError(f"model.{key} {getattr(self, key)} must be positive")
        if self.roi_out * self.roi_sampling > ROI_SIDE_SAMPLES:
            raise PreconditionError(f"model.roi_out * model.roi_sampling must be at most {ROI_SIDE_SAMPLES}")
        if not 0 <= self.score_thr <= 1:
            raise PreconditionError(f"score threshold {self.score_thr} outside [0, 1]")

    def fusion_config(self, channels: int | None = None) -> FusionConfig:
        """The fusion stages' config for maps of `channels` (default: the model's) channels."""
        d = self.channels if channels is None else channels
        return FusionConfig(
            na=NAConfig(k=self.na_k, channels=d),
            cda=CDAConfig(r=self.r, s=self.s, k_off=self.k_off, channels=d),
        )

    def with_updates(self, **kw) -> "ModelConfig":
        return replace(self, **kw)


def init_params(cfg: ModelConfig, seed: int = 0) -> ParamStore:
    """Every parameter group the pipeline uses, under stable key prefixes."""
    store = ParamStore(seed=seed)
    d = cfg.channels
    init_fusion_params(store, cfg.fusion_config())
    init_cam_params(store, "cam", d)
    store.xavier_uniform("head.box_w", (4, d), d, 4)
    store.zeros("head.box_b", (4,))
    store.xavier_uniform("head.obj_w", (1, d), d, 1)
    store.zeros("head.obj_b", (1,))
    store.xavier_uniform("meta.class_weights", (cfg.classes_total, d), d, cfg.classes_total)
    return store


def query_features(rgb, ir, cfg: ModelConfig, params: dict[str, Node]) -> Node:
    """The fused query map under the configured fusion mode; concat and add
    are the map-level baselines run through the identical downstream harness."""
    return fuse(rgb, ir, cfg.fusion_mode, cfg.fusion_config(), params)
