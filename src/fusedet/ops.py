"""Differentiable primitives used by every stage of the pipeline.

Conventions, fixed once and relied on everywhere:

* A feature map is a (D, H, W) float64 array: channel, then row, then col.
* Sampling coordinates are a (2, N) array, row 0 = x (width direction),
  row 1 = y (height direction), normalized to [-1, 1] with the
  align-corners mapping  x_pix = (x_norm + 1) / 2 * (W - 1).  Coordinates
  outside [-1, 1] read zero padding beyond the border.
* Every op accepts Node or plain array inputs and returns a Node; plain
  inputs become constant leaves.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

from .autodiff import Node, as_node
from .errors import PreconditionError, ShapeError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    return Node(
        av @ bv,
        (a, b),
        (lambda g: g @ bv.T, lambda g: av.T @ g),
    )


def conv1x1(x, w, b=None) -> Node:
    """Pointwise convolution: out[d,i,j] = sum_c w[d,c] x[c,i,j] (+ b[d])."""
    x, w = as_node(x), as_node(w)
    xv, wv = x.value, w.value
    if xv.ndim != 3 or wv.ndim != 2 or wv.shape[1] != xv.shape[0]:
        raise ShapeError(f"conv1x1: weight {wv.shape} does not match map {xv.shape}")
    out = np.tensordot(wv, xv, axes=([1], [0]))
    parents = [x, w]
    vjps = [
        lambda g: np.tensordot(wv.T, g, axes=([1], [0])),
        lambda g: np.tensordot(g, xv, axes=([1, 2], [1, 2])),
    ]
    if b is not None:
        b = as_node(b)
        if b.value.shape != (wv.shape[0],):
            raise ShapeError(f"conv1x1: bias {b.value.shape} does not match out channels {wv.shape[0]}")
        out = out + b.value[:, None, None]
        parents.append(b)
        vjps.append(lambda g: g.sum(axis=(1, 2)))
    return Node(out, tuple(parents), tuple(vjps))


def depthwise_conv(x, w, stride: int) -> Node:
    """Per-channel k x k convolution with zero padding floor(k/2).

    Requires k odd and H, W divisible by the stride, so the output is
    exactly (D, H/stride, W/stride) and lands on the reference lattice.
    """
    x, w = as_node(x), as_node(w)
    xv, wv = x.value, w.value
    if xv.ndim != 3 or wv.ndim != 3 or wv.shape[0] != xv.shape[0] or wv.shape[1] != wv.shape[2]:
        raise ShapeError(f"depthwise_conv: kernels {wv.shape} do not match map {xv.shape}")
    d, h, wdt = xv.shape
    k = wv.shape[1]
    if k % 2 == 0:
        raise PreconditionError(f"depthwise_conv: kernel side {k} must be odd")
    if stride < 1 or h % stride or wdt % stride:
        raise PreconditionError(
            f"depthwise_conv: spatial dims ({h}, {wdt}) not divisible by stride {stride}"
        )
    pad = k // 2
    oh, ow = h // stride, wdt // stride
    xp = np.zeros((d, h + 2 * pad, wdt + 2 * pad))
    xp[:, pad : pad + h, pad : pad + wdt] = xv

    out = np.zeros((d, oh, ow))
    for a in range(k):
        for b in range(k):
            sl = xp[:, a : a + stride * oh : stride, b : b + stride * ow : stride]
            out += wv[:, a, b][:, None, None] * sl

    def vjp_x(g: np.ndarray) -> np.ndarray:
        gp = np.zeros_like(xp)
        for a in range(k):
            for b in range(k):
                gp[:, a : a + stride * oh : stride, b : b + stride * ow : stride] += (
                    wv[:, a, b][:, None, None] * g
                )
        return gp[:, pad : pad + h, pad : pad + wdt]

    def vjp_w(g: np.ndarray) -> np.ndarray:
        gw = np.zeros_like(wv)
        for a in range(k):
            for b in range(k):
                sl = xp[:, a : a + stride * oh : stride, b : b + stride * ow : stride]
                gw[:, a, b] = (g * sl).sum(axis=(1, 2))
        return gw

    return Node(out, (x, w), (vjp_x, vjp_w))


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Node:
    """Normalize the channel vector at each spatial location to zero mean,
    unit variance (population, eps-stabilized), then scale/shift per channel."""
    x, gamma, beta = as_node(x), as_node(gamma), as_node(beta)
    xv = x.value
    mu = xv.mean(axis=0)
    var = xv.var(axis=0)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * istd
    gv = gamma.value[:, None, None]
    out = gv * xhat + beta.value[:, None, None]

    def vjp_x(g: np.ndarray) -> np.ndarray:
        gh = g * gv
        return istd * (gh - gh.mean(axis=0) - xhat * (gh * xhat).mean(axis=0))

    return Node(
        out,
        (x, gamma, beta),
        (
            vjp_x,
            lambda g: (g * xhat).sum(axis=(1, 2)),
            lambda g: g.sum(axis=(1, 2)),
        ),
    )


def relu(x) -> Node:
    x = as_node(x)
    mask = x.value > 0
    return Node(np.where(mask, x.value, 0.0), (x,), (lambda g: g * mask,))


def sigmoid(x) -> Node:
    x = as_node(x)
    s = 1.0 / (1.0 + np.exp(-x.value))
    return Node(s, (x,), (lambda g: g * s * (1.0 - s),))


def tanh(x) -> Node:
    x = as_node(x)
    t = np.tanh(x.value)
    return Node(t, (x,), (lambda g: g * (1.0 - t * t),))


def gelu(x) -> Node:
    """Exact Gaussian-CDF form: x * Phi(x), not the tanh approximation."""
    x = as_node(x)
    xv = x.value
    cdf = 0.5 * (1.0 + erf(xv * _INV_SQRT2))
    pdf = np.exp(-0.5 * xv * xv) * _INV_SQRT_2PI
    return Node(xv * cdf, (x,), (lambda g: g * (cdf + xv * pdf),))


def softmax(x, axis: int) -> Node:
    """Max-subtracted softmax along one axis; rows sum to 1."""
    x = as_node(x)
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return Node(
        s,
        (x,),
        (lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)),),
    )


def log_softmax(x, axis: int) -> Node:
    x = as_node(x)
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    s = np.exp(out)
    return Node(
        out,
        (x,),
        (lambda g: g - s * g.sum(axis=axis, keepdims=True),),
    )


def sqrt(x) -> Node:
    x = as_node(x)
    r = np.sqrt(x.value)
    return Node(r, (x,), (lambda g: g * 0.5 / r,))


def absolute(x) -> Node:
    x = as_node(x)
    return Node(np.abs(x.value), (x,), (lambda g: g * np.sign(x.value),))


def take(x, idx) -> Node:
    """Gather rows (axis 0) by an integer index array; scatter-add backward."""
    x = as_node(x)
    idx = np.asarray(idx)
    xv = x.value

    def vjp(g: np.ndarray) -> np.ndarray:
        dx = np.zeros_like(xv)
        np.add.at(dx, idx.reshape(-1), g.reshape(idx.size, *xv.shape[1:]))
        return dx

    return Node(np.take(xv, idx, axis=0), (x,), (vjp,))


def concat(parts, axis: int) -> Node:
    parts = [as_node(p) for p in parts]
    values = [p.value for p in parts]
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i: int):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g: np.ndarray) -> np.ndarray:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        return vjp

    return Node(
        np.concatenate(values, axis=axis),
        tuple(parts),
        tuple(make_vjp(i) for i in range(len(parts))),
    )


def pixel_coords(coords_norm: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Align-corners mapping from normalized [-1,1] coords to pixel coords."""
    px = (coords_norm[0] + 1.0) * 0.5 * (w - 1)
    py = (coords_norm[1] + 1.0) * 0.5 * (h - 1)
    return px, py


def bilinear_sample(x, coords) -> Node:
    """Sample a (D, H, W) map at (2, N) normalized coords -> (D, N).

    Align-corners convention; each of the four surrounding pixels that
    falls outside the map contributes zero (zero padding), so a coordinate
    exactly on the integer grid is an exact gather.  Differentiable in
    both the map and the coordinates.
    """
    x, coords = as_node(x), as_node(coords)
    xv, cv = x.value, coords.value
    if xv.ndim != 3 or cv.ndim != 2 or cv.shape[0] != 2:
        raise ShapeError(f"bilinear_sample: map {xv.shape}, coords {cv.shape}")
    d, h, w = xv.shape
    px, py = pixel_coords(cv, h, w)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    wx = px - x0
    wy = py - y0

    corners = []  # (value (D,N), weight (N,), flat index (N,), valid (N,))
    for dy, dx, weight in (
        (0, 0, (1.0 - wy) * (1.0 - wx)),
        (0, 1, (1.0 - wy) * wx),
        (1, 0, wy * (1.0 - wx)),
        (1, 1, wy * wx),
    ):
        xi, yi = x0 + dx, y0 + dy
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xc = np.clip(xi, 0, w - 1)
        yc = np.clip(yi, 0, h - 1)
        val = xv[:, yc, xc] * valid
        corners.append((val, weight, yc * w + xc, valid))

    out = np.zeros((d, cv.shape[1]))
    for val, weight, _, _ in corners:
        out += weight * val

    def vjp_x(g: np.ndarray) -> np.ndarray:
        buf = np.zeros((h * w, d))
        for _, weight, flat, valid in corners:
            contrib = (g * weight).T[valid]
            np.add.at(buf, flat[valid], contrib)
        return buf.T.reshape(d, h, w)

    def vjp_coords(g: np.ndarray) -> np.ndarray:
        v00, v01, v10, v11 = (c[0] for c in corners)
        dval_dwx = (1.0 - wy) * (v01 - v00) + wy * (v11 - v10)
        dval_dwy = (1.0 - wx) * (v10 - v00) + wx * (v11 - v01)
        gx = (g * dval_dwx).sum(axis=0) * 0.5 * (w - 1)
        gy = (g * dval_dwy).sum(axis=0) * 0.5 * (h - 1)
        return np.stack([gx, gy])

    return Node(out, (x, coords), (vjp_x, vjp_coords))
