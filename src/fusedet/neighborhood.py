"""Local-window self-attention over a feature map.

Each location attends to the k x k window centered on it; near borders the
window shifts inward (it never shrinks), so every query sees exactly k*k
keys.  Single head, no positional bias.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ops
from .autodiff import Node, ParamStore, as_node
from .errors import PreconditionError, ShapeError


@dataclass(frozen=True)
class NAConfig:
    k: int = 3
    channels: int = 8

    def __post_init__(self) -> None:
        if self.k < 1 or self.k % 2 == 0:
            raise PreconditionError(f"window side {self.k} must be odd and positive")
        if self.channels < 1:
            raise PreconditionError("channels must be positive")


def neighborhood(i: int, j: int, h: int, w: int, k: int) -> list[tuple[int, int]]:
    """The k x k window centered at (i, j), shifted to fit inside the map.

    Returns k*k (row, col) pairs in row-major order.
    """
    if k % 2 == 0 or k < 1:
        raise PreconditionError(f"window side {k} must be odd and positive")
    if k > min(h, w):
        raise PreconditionError(f"window side {k} exceeds map sides ({h}, {w})")
    if not (0 <= i < h and 0 <= j < w):
        raise PreconditionError(f"position ({i}, {j}) outside map ({h}, {w})")
    top = min(max(i - k // 2, 0), h - k)
    left = min(max(j - k // 2, 0), w - k)
    return [(top + a, left + b) for a in range(k) for b in range(k)]


@lru_cache(maxsize=None)
def neighbor_table(h: int, w: int, k: int) -> np.ndarray:
    """Flat key indices for every query location: int array (H*W, k*k).

    Cached per map geometry, so read-only.
    """
    table = np.empty((h * w, k * k), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            table[i * w + j] = [a * w + b for a, b in neighborhood(i, j, h, w, k)]
    table.setflags(write=False)
    return table


def init_na_params(store: ParamStore, prefix: str, channels: int) -> None:
    for name in ("wq", "wk", "wv"):
        store.xavier_uniform(f"{prefix}.{name}", (channels, channels), channels, channels)


def na_forward(x, cfg: NAConfig, params: dict[str, Node], prefix: str) -> Node:
    """Refine a (..., D, H, W) map by local-window attention; same output shape."""
    x = as_node(x)
    *_, d, h, w = x.value.shape
    if d != cfg.channels:
        raise ShapeError(f"map has {d} channels, config says {cfg.channels}")
    if cfg.k > min(h, w):
        raise PreconditionError(f"window side {cfg.k} exceeds map sides ({h}, {w})")

    q = ops.conv1x1(x, params[f"{prefix}.wq"])
    key = ops.conv1x1(x, params[f"{prefix}.wk"])
    v = ops.conv1x1(x, params[f"{prefix}.wv"])

    out = ops.window_attention(
        ops.map_to_tokens(q),
        ops.map_to_tokens(key),
        ops.map_to_tokens(v),
        neighbor_table(h, w, cfg.k),
        1.0 / np.sqrt(d),
    )
    return ops.tokens_to_map(out, h, w)
