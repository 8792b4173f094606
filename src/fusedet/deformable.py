"""Cross-spectrum deformable attention and the map-level fusion stage.

One modality's refined map supplies queries; the other supplies keys and
values sampled at offset-perturbed reference points.  An offset network
(run on the key/value map) bends a uniform grid, bounded samples are
projected to keys/values, and a ConvFFN residual produces the updated map.
The two updated maps are then concatenated (thermal first) and mixed by a
pointwise convolution into the single query map the detector consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ops
from .autodiff import Node, ParamStore, as_node
from .errors import PreconditionError, ShapeError
from .neighborhood import NAConfig, init_na_params, na_forward


@dataclass(frozen=True)
class CDAConfig:
    r: int = 2
    s: float = 0.5
    k_off: int = 5
    channels: int = 8

    def __post_init__(self) -> None:
        if self.r < 1:
            raise PreconditionError(f"grid stride {self.r} must be >= 1")
        if self.s <= 0:
            raise PreconditionError(f"offset scale {self.s} must be positive")
        if self.k_off <= self.r or self.k_off % 2 == 0:
            raise PreconditionError(
                f"offset kernel side {self.k_off} must be odd and exceed stride {self.r}"
            )


@dataclass(frozen=True)
class FusionConfig:
    na: NAConfig
    cda: CDAConfig

    def __post_init__(self) -> None:
        if self.na.channels != self.cda.channels:
            raise PreconditionError("window attention and deformable stages disagree on channels")


def normalize_coords(px: np.ndarray, py: np.ndarray, h: int, w: int) -> np.ndarray:
    """(..., N) pixel coords -> normalized [-1, 1] (align-corners),
    stacked (..., 2, N)."""
    xn = 2.0 * px / (w - 1) - 1.0 if w > 1 else np.zeros_like(px, dtype=np.float64)
    yn = 2.0 * py / (h - 1) - 1.0 if h > 1 else np.zeros_like(py, dtype=np.float64)
    return np.stack([np.asarray(xn, dtype=np.float64), np.asarray(yn, dtype=np.float64)], axis=-2)


@lru_cache(maxsize=None)
def reference_grid(h: int, w: int, r: int) -> np.ndarray:
    """Uniform lattice of (H/r)*(W/r) points at the cell centers of the
    downsampled partition, as normalized coords (2, N), row-major.

    Cached per geometry, so read-only.
    """
    if r < 1 or h % r or w % r:
        raise PreconditionError(f"map sides ({h}, {w}) not divisible by stride {r}")
    hg, wg = h // r, w // r
    ys = (np.arange(hg) + 0.5) * r - 0.5
    xs = (np.arange(wg) + 0.5) * r - 0.5
    py, px = np.meshgrid(ys, xs, indexing="ij")
    grid = normalize_coords(px.reshape(-1), py.reshape(-1), h, w)
    grid.setflags(write=False)
    return grid


def init_cda_params(store: ParamStore, prefix: str, cfg: CDAConfig) -> None:
    d, k = cfg.channels, cfg.k_off
    store.xavier_uniform(f"{prefix}.wu", (d, d), d, d)
    store.xavier_uniform(f"{prefix}.dw", (d, k, k), k * k, k * k)
    store.ones(f"{prefix}.ln_g", (d,))
    store.zeros(f"{prefix}.ln_b", (d,))
    # Zero start: training begins from the undeformed reference lattice.
    store.zeros(f"{prefix}.off_w", (2, d))
    store.zeros(f"{prefix}.off_b", (2,))
    for name in ("wq", "wk", "wv"):
        store.xavier_uniform(f"{prefix}.{name}", (d, d), d, d)
    store.xavier_uniform(f"{prefix}.ffn_w1", (2 * d, d), d, 2 * d)
    store.zeros(f"{prefix}.ffn_b1", (2 * d,))
    store.xavier_uniform(f"{prefix}.ffn_w2", (d, 2 * d), 2 * d, d)
    store.zeros(f"{prefix}.ffn_b2", (d,))


def init_fuse_params(store: ParamStore, prefix: str, channels: int) -> None:
    store.xavier_uniform(f"{prefix}.w", (channels, 2 * channels), 2 * channels, channels)
    store.zeros(f"{prefix}.b", (channels,))


def init_fusion_params(store: ParamStore, cfg: FusionConfig, mode: str = "cda") -> None:
    """Every parameter `fuse` reads under `mode`, drawn in a fixed order:
    all of them for cda (fusion_forward), the `fuse` mix for concat, none
    for add."""
    d = cfg.na.channels
    if mode == "cda":
        init_na_params(store, "na_rgb", d)
        init_na_params(store, "na_ir", d)
        init_cda_params(store, "cda_rgb", cfg.cda)
        init_cda_params(store, "cda_ir", cfg.cda)
    if mode in ("cda", "concat"):
        init_fuse_params(store, "fuse", d)


def offset_net(f_src, cfg: CDAConfig, params: dict[str, Node], prefix: str) -> Node:
    """Predict one bounded 2-D offset per reference point: (..., 2, H/r * W/r).

    conv1x1 -> depthwise k_off x k_off stride r -> LayerNorm -> GELU ->
    conv1x1 to two channels -> s * tanh.  Every entry lies in (-s, s).
    """
    f_src = as_node(f_src)
    *lead, _, h, w = f_src.value.shape
    u = ops.conv1x1(f_src, params[f"{prefix}.wu"])
    mid = ops.depthwise_conv(u, params[f"{prefix}.dw"], stride=cfg.r)
    mid = ops.layer_norm(mid, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])
    mid = ops.gelu(mid)
    raw = ops.conv1x1(mid, params[f"{prefix}.off_w"], params[f"{prefix}.off_b"])
    n = (h // cfg.r) * (w // cfg.r)
    return ops.tanh(raw.reshape((*lead, 2, n))) * cfg.s


def cda_forward(f_res, f_query_src, f_kv_src, cfg: CDAConfig, params: dict[str, Node], prefix: str) -> Node:
    """Update one modality from the other; output shape equals f_res, a
    (D, H, W) map or a (..., D, H, W) batch of them."""
    f_res, f_query_src, f_kv_src = as_node(f_res), as_node(f_query_src), as_node(f_kv_src)
    if not (f_res.value.shape == f_query_src.value.shape == f_kv_src.value.shape):
        raise ShapeError(
            f"map shapes differ: {f_res.value.shape}, "
            f"{f_query_src.value.shape}, {f_kv_src.value.shape}"
        )
    nd = f_res.value.ndim
    d, h, w = f_res.value.shape[-3:]
    if d != cfg.channels:
        raise ShapeError(f"map has {d} channels, config says {cfg.channels}")

    grid = reference_grid(h, w, cfg.r)
    coords = offset_net(f_kv_src, cfg, params, prefix) + grid
    sampled = ops.bilinear_sample(f_kv_src, coords)  # (..., D, N)
    keys = ops.matmul(params[f"{prefix}.wk"], sampled)
    vals = ops.matmul(params[f"{prefix}.wv"], sampled)

    qf = ops.map_to_tokens(ops.conv1x1(f_query_src, params[f"{prefix}.wq"]))
    logits = ops.matmul(qf, keys) * (1.0 / np.sqrt(d))
    attn = ops.softmax(logits, axis=-1)  # (..., HW, N)
    vals_t = vals.transpose((*range(nd - 3), nd - 2, nd - 3))  # (..., N, D)
    mixed = ops.tokens_to_map(ops.matmul(attn, vals_t), h, w)

    inner = f_query_src + mixed
    hidden = ops.relu(ops.conv1x1(inner, params[f"{prefix}.ffn_w1"], params[f"{prefix}.ffn_b1"]))
    return f_res + ops.conv1x1(hidden, params[f"{prefix}.ffn_w2"], params[f"{prefix}.ffn_b2"])


FUSE_MODES = ("cda", "concat", "add")


def fuse(rgb, ir, mode: str, cfg: FusionConfig, params: dict[str, Node]) -> Node:
    """The query map of one color/thermal pair, (D, H, W), or of a batch of
    pairs, (B, D, H, W), under a fusion mode: the one place a mode is
    dispatched.  Each batch element equals the pair fused alone, bit for bit.

    cda: the full two-stage pipeline (fusion_forward).  concat: the
    thermal-first pointwise mix alone.  add: plain sum.  `cfg` is read by
    cda only.
    """
    if np.shape(rgb) != np.shape(ir):
        raise ShapeError(f"cannot fuse shapes {np.shape(rgb)} and {np.shape(ir)}")
    if mode == "cda":
        return fusion_forward(rgb, ir, cfg, params)
    if mode == "concat":
        return _concat_mix(rgb, ir, params)
    if mode == "add":
        return as_node(ir) + rgb
    raise PreconditionError(f"unknown fusion mode {mode!r}; expected one of {FUSE_MODES}")


def _concat_mix(f_rgb, f_ir, params: dict[str, Node]) -> Node:
    """Channel-stack thermal first, then mix by the pointwise `fuse` conv."""
    return ops.conv1x1(ops.concat([f_ir, f_rgb], axis=-3), params["fuse.w"], params["fuse.b"])


def fusion_forward(f_rgb, f_ir, cfg: FusionConfig, params: dict[str, Node]) -> Node:
    """Full fusion: per-modality window attention, bidirectional deformable
    cross-attention, then thermal-first concat + pointwise mixing."""
    fp_rgb = na_forward(f_rgb, cfg.na, params, "na_rgb")
    fp_ir = na_forward(f_ir, cfg.na, params, "na_ir")
    fpp_rgb = cda_forward(f_rgb, fp_rgb, fp_ir, cfg.cda, params, "cda_rgb")
    fpp_ir = cda_forward(f_ir, fp_ir, fp_rgb, cfg.cda, params, "cda_ir")
    return _concat_mix(fpp_rgb, fpp_ir, params)
