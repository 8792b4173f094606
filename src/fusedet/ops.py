"""Differentiable primitives used by every stage of the pipeline.

Conventions, fixed once and relied on everywhere:

* A feature map is a (D, H, W) float64 array: channel, then row, then col.
  Its tokens are (H*W, D): one row per location, row-major
  (`map_to_tokens`, `tokens_to_map`).
* Sampling coordinates are a (2, N) array, row 0 = x (width direction),
  row 1 = y (height direction), normalized to [-1, 1] with the
  align-corners mapping  x_pix = (x_norm + 1) / 2 * (W - 1).  Coordinates
  outside [-1, 1] read zero padding beyond the border.
* Every op accepts Node or plain array inputs and returns a Node; plain
  inputs become constant leaves.

Batches.  `matmul`, `conv1x1`, `depthwise_conv`, `layer_norm`,
`bilinear_sample`, `take`, `window_attention`, `cross_attention`,
`map_to_tokens`, `tokens_to_map` and the elementwise ops (`relu`,
`tanh`, `gelu`, ...) also take leading batch axes: maps (B, D, H, W),
tokens (B, H*W, D), coordinates (B, 2, N), one sample per batch
element.  `softmax` and `log_softmax` work on any axis; batched callers
name it from the end (axis=-1).  Weights stay unbatched and shared.  A 3-D map is the same op
with no batch axis, not a batch of one.

Each batch element's value and input gradient are computed by the same
numpy and BLAS calls, on the same memory layout, as a lone 3-D call, so
they are equal to it bit for bit.  A shared weight's gradient is the sum
of its per-element contributions taken one at a time from the last
element to the first (`_sum_batch`): the order in which `backward`
accumulates a leaf used by separate graphs, one per element, built in
batch order.  A reduction over the batch axis in one numpy call would
round differently.
"""
from __future__ import annotations

import weakref

import numpy as np
from scipy.special import erf

from .autodiff import Node, _unbroadcast, as_node
from .errors import NumericGuardError, PreconditionError, ShapeError

# scipy.sparse, imported when `_window_scatter` first builds a matrix: a
# process that never runs a window-attention backward does not load it.
sparse = None

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _sum_batch(per_element: np.ndarray, ndim: int) -> np.ndarray:
    """Reduce a stack of per-element gradients, shaped (*batch, *shape)
    with len(shape) == ndim, to one `shape` gradient: the last element
    first, then each earlier one added in turn."""
    if per_element.ndim == ndim:
        return per_element
    parts = per_element.reshape((-1, *per_element.shape[per_element.ndim - ndim :]))
    total = parts[-1]
    for part in parts[-2::-1]:
        total = total + part
    return total


def matmul(a, b) -> Node:
    """a @ b over (..., m, k) x (..., k, n); an operand with leading batch
    axes must carry all of them, the other may be a shared 2-D matrix."""
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    if (
        av.ndim < 2
        or bv.ndim < 2
        or av.shape[-1] != bv.shape[-2]
        or (av.ndim > 2 and bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2])
    ):
        raise ShapeError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    return Node(
        av @ bv,
        (a, b),
        lambda g: (
            _sum_batch(g @ np.swapaxes(bv, -1, -2), av.ndim),
            _sum_batch(np.swapaxes(av, -1, -2) @ g, bv.ndim),
        ),
    )


def conv1x1(x, w, b=None) -> Node:
    """Pointwise convolution: out[..., d,i,j] = sum_c w[d,c] x[..., c,i,j] (+ b[d])."""
    x, w = as_node(x), as_node(w)
    xv, wv = x.value, w.value
    if xv.ndim < 3 or wv.ndim != 2 or wv.shape[1] != xv.shape[-3]:
        raise ShapeError(f"conv1x1: weight {wv.shape} does not match map {xv.shape}")
    *lead, c, h, wdt = xv.shape
    d = wv.shape[0]
    xf = xv.reshape((*lead, c, h * wdt))
    out = (wv @ xf).reshape((*lead, d, h, wdt))
    parents = (x, w)
    if b is not None:
        b = as_node(b)
        if b.value.shape != (d,):
            raise ShapeError(f"conv1x1: bias {b.value.shape} does not match out channels {d}")
        out = out + b.value[:, None, None]
        parents = (x, w, b)

    def vjp(g: np.ndarray) -> tuple:
        gf = g.reshape((*lead, d, h * wdt))
        grads = ((wv.T @ gf).reshape(xv.shape), _sum_batch(gf @ np.swapaxes(xf, -1, -2), 2))
        return grads if b is None else (*grads, _sum_batch(g.sum(axis=(-2, -1)), 1))

    return Node(out, parents, vjp)


def depthwise_conv(x, w, stride: int) -> Node:
    """Per-channel k x k convolution with zero padding floor(k/2).

    Requires k odd and H, W divisible by the stride, so the output is
    exactly (..., D, H/stride, W/stride) and lands on the reference lattice.
    """
    x, w = as_node(x), as_node(w)
    xv, wv = x.value, w.value
    if xv.ndim < 3 or wv.ndim != 3 or wv.shape[0] != xv.shape[-3] or wv.shape[1] != wv.shape[2]:
        raise ShapeError(f"depthwise_conv: kernels {wv.shape} do not match map {xv.shape}")
    *lead, d, h, wdt = xv.shape
    k = wv.shape[1]
    if k % 2 == 0:
        raise PreconditionError(f"depthwise_conv: kernel side {k} must be odd")
    if stride < 1 or h % stride or wdt % stride:
        raise PreconditionError(
            f"depthwise_conv: spatial dims ({h}, {wdt}) not divisible by stride {stride}"
        )
    pad = k // 2
    oh, ow = h // stride, wdt // stride
    xp = np.zeros((*lead, d, h + 2 * pad, wdt + 2 * pad))
    xp[..., pad : pad + h, pad : pad + wdt] = xv

    # (row, col, strided window of the padded map) for each kernel tap
    taps = [
        (a, b, (..., slice(a, a + stride * oh, stride), slice(b, b + stride * ow, stride)))
        for a in range(k)
        for b in range(k)
    ]
    out = np.zeros((*lead, d, oh, ow))
    for a, b, win in taps:
        out += wv[:, a, b][:, None, None] * xp[win]

    def vjp(g: np.ndarray) -> tuple:
        gp = np.zeros_like(xp)
        gw = np.zeros((*lead, *wv.shape))
        for a, b, win in taps:
            gp[win] += wv[:, a, b][:, None, None] * g
            gw[..., a, b] = (g * xp[win]).sum(axis=(-2, -1))
        return gp[..., pad : pad + h, pad : pad + wdt], _sum_batch(gw, 3)

    return Node(out, (x, w), vjp)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Node:
    """Normalize the channel vector at each spatial location to zero mean,
    unit variance (population, eps-stabilized), then scale/shift per channel."""
    x, gamma, beta = as_node(x), as_node(gamma), as_node(beta)
    xv = x.value
    mu = xv.mean(axis=-3, keepdims=True)
    var = xv.var(axis=-3, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * istd
    gv = gamma.value[:, None, None]
    out = gv * xhat + beta.value[:, None, None]

    def vjp(g: np.ndarray) -> tuple:
        gh = g * gv
        return (
            istd * (gh - gh.mean(axis=-3, keepdims=True) - xhat * (gh * xhat).mean(axis=-3, keepdims=True)),
            _sum_batch((g * xhat).sum(axis=(-2, -1)), 1),
            _sum_batch(g.sum(axis=(-2, -1)), 1),
        )

    return Node(out, (x, gamma, beta), vjp)


def relu(x) -> Node:
    x = as_node(x)
    mask = x.value > 0
    return Node(np.where(mask, x.value, 0.0), (x,), lambda g: (g * mask,))


def sigmoid(x) -> Node:
    x = as_node(x)
    s = 1.0 / (1.0 + np.exp(-x.value))
    return Node(s, (x,), lambda g: (g * s * (1.0 - s),))


def tanh(x) -> Node:
    x = as_node(x)
    t = np.tanh(x.value)
    return Node(t, (x,), lambda g: (g * (1.0 - t * t),))


def gelu(x) -> Node:
    """Exact Gaussian-CDF form: x * Phi(x), not the tanh approximation."""
    x = as_node(x)
    xv = x.value
    cdf = 0.5 * (1.0 + erf(xv * _INV_SQRT2))
    pdf = np.exp(-0.5 * xv * xv) * _INV_SQRT_2PI
    return Node(xv * cdf, (x,), lambda g: (g * (cdf + xv * pdf),))


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax along one axis, computed in one buffer: the
    exponent and the division overwrite the shifted copy, which keeps x's
    layout, or `out` (x itself allowed) when given."""
    s = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_vjp(s: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _log_softmax_vjp(logp: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return g - np.exp(logp) * g.sum(axis=axis, keepdims=True)


def softmax(x, axis: int) -> Node:
    """Max-subtracted softmax along one axis; rows sum to 1."""
    x = as_node(x)
    s = _softmax(x.value, axis)
    return Node(s, (x,), lambda g: (_softmax_vjp(s, g, axis),))


def log_softmax(x, axis: int) -> Node:
    x = as_node(x)
    logp = _log_softmax(x.value, axis)
    return Node(logp, (x,), lambda g: (_log_softmax_vjp(logp, g, axis),))


def sqrt(x) -> Node:
    x = as_node(x)
    r = np.sqrt(x.value)
    return Node(r, (x,), lambda g: (g * 0.5 / r,))


def absolute(x) -> Node:
    x = as_node(x)
    return Node(np.abs(x.value), (x,), lambda g: (g * np.sign(x.value),))


def take(x, idx) -> Node:
    """Gather along the token axis (-2) of (..., N, D) by an integer index
    array -> (..., *idx.shape, D); scatter-add backward."""
    x = as_node(x)
    idx = np.asarray(idx)
    xv = x.value
    *lead, _, d = xv.shape

    def vjp(g: np.ndarray) -> tuple:
        dx = np.zeros_like(xv)
        batch = tuple(i[..., None] for i in np.indices(lead, sparse=True))
        np.add.at(dx, (*batch, idx.reshape(-1)), g.reshape((*lead, idx.size, d)))
        return (dx,)

    return Node(np.take(xv, idx, axis=-2), (x,), vjp)


# id(table) -> (weak reference to the table, its scatter matrix).  Keyed by
# the table object, not its geometry: a table that differs from another of
# its shape (a patched `neighbor_table`) must scatter through its own
# transpose.
_scatters: dict[int, tuple[weakref.ref, sparse.csr_array]] = {}


def _window_scatter(table: np.ndarray) -> sparse.csr_array:
    """The one-hot (HW, HW*k*k) transpose of a neighbour table as a CSR
    matrix with sorted column indices, built once per table object.

    `S @ g` adds, for each key, the rows of g (one per table entry) that
    gather it, in ascending entry order: the order, and so the bits, of
    `np.add.at` into zeros.  The entry lives as long as the table does.
    """
    global sparse
    key = id(table)
    hit = _scatters.get(key)
    if hit is not None and hit[0]() is table:
        return hit[1]
    if sparse is None:
        from scipy import sparse
    flat = table.reshape(-1)
    per_key = np.bincount(flat, minlength=table.shape[0])
    matrix = sparse.csr_array(
        (np.ones(flat.size), np.argsort(flat, kind="stable"), np.concatenate(([0], np.cumsum(per_key)))),
        shape=(table.shape[0], flat.size),
    )
    _scatters[key] = (weakref.ref(table, lambda _: _scatters.pop(key, None)), matrix)
    return matrix


def window_attention(q, k, v, table: np.ndarray, scale: float) -> Node:
    """Local-window attention over (..., HW, D) tokens: token n attends to
    the keys and values at rows table[n] (an int (HW, k*k) table) with
    logits q.k * scale -> (..., HW, D).

    One Node for the gather, the logits, the softmax and the value mix.
    Its VJP returns the q, k and v gradients from one pass, making the
    numpy calls that `take`, `Node.reshape`, `*`, `sum` and `softmax`
    composed into the same graph would, on the same shapes and layouts,
    so value and gradients are equal to that graph's bit for bit; the key
    and value gradients scatter through `_window_scatter(table)` instead
    of `np.add.at`.  The parent order (q, k, v) keeps that graph's order
    of accumulation: a map projected to all three receives the v, then
    the k, then the q gradient.
    """
    q, k, v = as_node(q), as_node(k), as_node(v)
    qv, kv, vv = q.value, k.value, v.value
    if qv.ndim < 2 or {kv.shape, vv.shape} != {qv.shape} or table.ndim != 2 or len(table) != qv.shape[-2]:
        raise ShapeError(f"window_attention: q {qv.shape}, k {kv.shape}, v {vv.shape}, table {table.shape}")
    *lead, n, d = qv.shape
    kk = table.shape[1]
    products = (*lead, n, kk, d)
    qr = qv.reshape((*lead, n, 1, d))
    kn = np.take(kv, table, axis=-2)
    vn = np.take(vv, table, axis=-2)
    attn = _softmax((qr * kn).sum(axis=-1) * scale, axis=-1)
    ar = attn.reshape((*lead, n, kk, 1))

    def scatter(g: np.ndarray, like: np.ndarray) -> np.ndarray:
        """(..., HW, k*k, D) gradients of gathered rows -> (..., HW, D),
        laid out like `like`, as `take`'s buffer is."""
        rows = np.moveaxis(g.reshape((*lead, n * kk, d)), -2, 0).reshape(n * kk, -1)
        dx = np.empty_like(like)
        dx[...] = np.moveaxis((_window_scatter(table) @ rows).reshape((n, *lead, d)), 0, -2)
        return dx

    def vjp(g: np.ndarray) -> tuple:
        g_mix = np.broadcast_to(np.expand_dims(g, -2), products).copy()
        g_attn = _unbroadcast(g_mix * vn, ar.shape).reshape(attn.shape)
        g_logits = _softmax_vjp(attn, g_attn, -1) * scale
        g_dot = np.broadcast_to(np.expand_dims(g_logits, -1), products).copy()
        return (
            _unbroadcast(g_dot * kn, qr.shape).reshape(qv.shape),
            scatter(g_dot * qr, kv),
            scatter(g_mix * ar, vv),
        )

    return Node((ar * vn).sum(axis=-2), (q, k, v), vjp)


def cross_attention(q, keys, vals, scale: float) -> Node:
    """Dense attention of (..., HW, D) queries over N key/value columns:
    softmax_rows(q @ keys * scale) @ vals^T, with keys and vals
    (..., D, N) -> (..., HW, D).  An operand with leading batch axes must
    carry all of them; the others may be shared and unbatched.

    One Node for the logits, the softmax and the value mix; the scaling,
    max-subtract, exponent and division overwrite the logits' buffer in
    turn.  Its VJP returns the q, keys and vals gradients from one pass,
    making the numpy calls that `matmul`, `*`, `softmax`,
    `Node.transpose` and `matmul` composed into the same graph would, on
    the same shapes and layouts, so value and gradients are equal to that
    graph's bit for bit.  The parent order (q, keys, vals) keeps that
    graph's order of accumulation: a map projected to both keys and vals
    receives the vals, then the keys gradient.
    """
    q, keys, vals = as_node(q), as_node(keys), as_node(vals)
    qv, kv, vv = q.value, keys.value, vals.value
    lead = max((a.shape[:-2] for a in (qv, kv, vv)), key=len)
    if (
        min(qv.ndim, kv.ndim, vv.ndim) < 2
        or qv.shape[-1] != kv.shape[-2]
        or kv.shape[-1] != vv.shape[-1]
        or any(a.ndim > 2 and a.shape[:-2] != lead for a in (qv, kv, vv))
    ):
        raise ShapeError(f"cross_attention: q {qv.shape}, keys {kv.shape}, vals {vv.shape}")
    vals_t = np.swapaxes(vv, -1, -2)
    attn = qv @ kv
    attn *= scale
    _softmax(attn, -1, out=attn)

    def vjp(g: np.ndarray) -> tuple:
        g_logits = _softmax_vjp(attn, _sum_batch(g @ vv, attn.ndim), -1) * scale
        return (
            _sum_batch(g_logits @ np.swapaxes(kv, -1, -2), qv.ndim),
            _sum_batch(np.swapaxes(qv, -1, -2) @ g_logits, kv.ndim),
            np.swapaxes(_sum_batch(np.swapaxes(attn, -1, -2) @ g, vals_t.ndim), -1, -2),
        )

    return Node(attn @ vals_t, (q, keys, vals), vjp)


def _slot_attention(queries: np.ndarray, keys: np.ndarray, scale: float) -> np.ndarray:
    """softmax_rows(queries keys^T * scale): `aggregate`'s (HW, C)
    attention from its (HW, D) projected tokens and (C, D) keys."""
    return _softmax((queries @ keys.transpose((1, 0))) * scale, axis=1)


def aggregate(x, keys, gate, w, enc: np.ndarray, w1, b1, w2, b2, scale: float, filter_gate: bool = True) -> Node:
    """Prototype aggregation over a (D, H, W) query map -> (D, H, W).

    Each location attends over the C prototype slots with
    A = softmax_rows((X w) keys^T * scale), X the map's (HW, D) tokens and
    keys the (C, D) projected prototypes.  The gate mix A gate filters X
    (filter_gate; otherwise it replaces X), the constant (C, D) slot
    encodings enter as A enc, and a two-layer ReLU FFN (w1, b1, w2, b2)
    maps each token back to D channels.

    One Node for the scores, softmax, gate, encodings and FFN, with
    parents (x, keys, gate, w, w1, b1, w2, b2); `enc` gets no gradient.
    Its VJP returns all eight gradients from one pass, making the numpy
    calls that `map_to_tokens`, `matmul`, `Node.transpose`, `*`,
    `softmax`, `+`, `relu` and `tokens_to_map` composed into the same
    graph would, on the same shapes and layouts, so value and gradients
    are equal to that graph's bit for bit.  keys comes before gate among
    the parents, as the scores come before the gate in that graph: a
    prototype row feeding both gets the gate's gradient first.
    """
    x, keys, gate, w, w1, b1, w2, b2 = (as_node(a) for a in (x, keys, gate, w, w1, b1, w2, b2))
    xv, kv, gv, wv, w1v, w2v = x.value, keys.value, gate.value, w.value, w1.value, w2.value
    if xv.ndim != 3 or kv.shape != gv.shape or kv.shape != enc.shape or kv.shape[1:] != xv.shape[:1]:
        raise ShapeError(f"aggregate: map {xv.shape}, keys {kv.shape}, gate {gv.shape}, encodings {enc.shape}")
    d, h, wd = xv.shape
    n = h * wd
    tokens = xv.transpose((1, 2, 0)).reshape((n, d))
    qp = tokens @ wv
    attn = _slot_attention(qp, kv, scale)
    mix = attn @ gv
    z = (tokens * mix if filter_gate else mix) + attn @ enc
    pre = z @ w1v + b1.value
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    out = (hidden @ w2v + b2.value).reshape((h, wd, d)).transpose((2, 0, 1))

    def vjp(g: np.ndarray) -> tuple:
        g_out = g.transpose((1, 2, 0)).reshape((n, d))
        g_pre = (g_out @ np.swapaxes(w2v, -1, -2)) * mask
        g_z = g_pre @ np.swapaxes(w1v, -1, -2)
        g_mix = g_z * tokens if filter_gate else g_z
        g_attn = g_z @ np.swapaxes(enc, -1, -2) + g_mix @ np.swapaxes(gv, -1, -2)
        g_scores = _softmax_vjp(attn, g_attn, 1) * scale
        g_qp = g_scores @ kv
        g_tokens = g_qp @ np.swapaxes(wv, -1, -2)
        if filter_gate:
            g_tokens = g_z * mix + g_tokens
        return (
            g_tokens.reshape((h, wd, d)).transpose((2, 0, 1)),
            (np.swapaxes(qp, -1, -2) @ g_scores).transpose((1, 0)),
            np.swapaxes(attn, -1, -2) @ g_mix,
            np.swapaxes(tokens, -1, -2) @ g_qp,
            np.swapaxes(z, -1, -2) @ g_pre,
            _unbroadcast(g_pre, b1.value.shape),
            np.swapaxes(hidden, -1, -2) @ g_out,
            _unbroadcast(g_out, b2.value.shape),
        )

    return Node(out, (x, keys, gate, w, w1, b1, w2, b2), vjp)


def cosine_cross_entropy(unit_rows, weights, labels: np.ndarray, alpha: float) -> Node:
    """Mean cross-entropy of (C, D) unit rows against their labels, with
    logits alpha * unit_rows . (weights' rows scaled to unit norm): a
    scalar.  A zero-norm weight row raises NumericGuardError.

    One Node for the weight normalisation, logits, log-softmax and label
    pick, with parents (unit_rows, weights).  Its VJP returns both
    gradients from one pass, making the numpy calls that `*`, `Node.sum`,
    `sqrt`, `/`, `Node.transpose`, `matmul` and `log_softmax` composed into
    the same graph would, on the same shapes and layouts, and sums a
    weight row's three parts in that graph's order, so value and gradients
    are equal to that graph's bit for bit.
    """
    unit_rows, weights = as_node(unit_rows), as_node(weights)
    uv, wv = unit_rows.value, weights.value
    if uv.ndim != 2 or wv.ndim != 2 or uv.shape[1] != wv.shape[1] or labels.shape != uv.shape[:1]:
        raise ShapeError(f"cosine_cross_entropy: rows {uv.shape}, weights {wv.shape}, labels {labels.shape}")
    c = uv.shape[0]
    sq = (wv * wv).sum(axis=(1,), keepdims=True)
    if np.any(sq <= 0):
        raise NumericGuardError("zero-norm class-weight row in cosine loss")
    norm = np.sqrt(sq)
    wnt = (wv / norm).transpose((1, 0))
    logits = (uv @ wnt) * alpha
    logp = _log_softmax(logits, 1)
    picked = np.zeros(logits.shape)
    picked[np.arange(c), labels] = 1.0
    mean = -1.0 / c

    def vjp(g: np.ndarray) -> tuple:
        g_logp = np.broadcast_to(np.expand_dims(g * mean, (0, 1)), logits.shape).copy() * picked
        g_logits = _log_softmax_vjp(logp, g_logp, 1) * alpha
        g_wn = (np.swapaxes(uv, -1, -2) @ g_logits).transpose((1, 0))
        g_norm = _unbroadcast(-g_wn * wv / (norm * norm), norm.shape)
        g_sq = np.broadcast_to(g_norm * 0.5 / norm, wv.shape).copy() * wv
        return g_logits @ np.swapaxes(wnt, -1, -2), (g_wn / norm + g_sq) + g_sq

    return Node((logp * picked).sum(axis=(0, 1)) * mean, (unit_rows, weights), vjp)


def concat(parts, axis: int) -> Node:
    parts = tuple(as_node(p) for p in parts)
    values = [p.value for p in parts]
    cuts = np.cumsum([v.shape[axis] for v in values[:-1]])
    return Node(np.concatenate(values, axis=axis), parts, lambda g: tuple(np.split(g, cuts, axis=axis)))


def map_to_tokens(m) -> Node:
    """(..., D, H, W) map -> (..., H*W, D) tokens, one row per location, row-major."""
    m = as_node(m)
    *lead, d, h, w = m.value.shape
    n = len(lead)
    return m.transpose((*range(n), n + 1, n + 2, n)).reshape((*lead, h * w, d))


def tokens_to_map(t, h: int, w: int) -> Node:
    """Inverse of map_to_tokens: (..., H*W, D) tokens -> (..., D, H, W) map."""
    t = as_node(t)
    *lead, _, d = t.value.shape
    n = len(lead)
    return t.reshape((*lead, h, w, d)).transpose((*range(n), n + 2, n, n + 1))


def unstack(x) -> list[Node]:
    """Split a batch along its leading axis: one Node per element.

    Each element's gradient lands in a zero batch laid out in memory like
    that gradient, so the batch gradient of every element has the layout a
    lone map's gradient would have had (numpy's reductions follow it)."""
    x = as_node(x)
    n = x.value.shape[0]

    def make_vjp(i: int):
        def vjp(g: np.ndarray) -> tuple:
            order = np.argsort(g.strides, kind="stable")[::-1]
            full = np.zeros((n, *(g.shape[a] for a in order)))
            full = full.transpose((0, *(1 + np.argsort(order))))
            full[i] = g
            return (full,)

        return vjp

    return [Node(x.value[i], (x,), make_vjp(i)) for i in range(n)]


def pixel_coords(coords_norm: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Align-corners mapping from normalized [-1,1] coords to pixel coords."""
    px = (coords_norm[0] + 1.0) * 0.5 * (w - 1)
    py = (coords_norm[1] + 1.0) * 0.5 * (h - 1)
    return px, py


def bilinear_sample(x, coords) -> Node:
    """Sample a (..., D, H, W) map at (..., 2, N) normalized coords -> (..., D, N).

    Align-corners convention; each of the four surrounding pixels that
    falls outside the map contributes zero (zero padding), so a coordinate
    exactly on the integer grid is an exact gather.  Differentiable in
    both the map and the coordinates.
    """
    x, coords = as_node(x), as_node(coords)
    xv, cv = x.value, coords.value
    if xv.ndim < 3 or cv.ndim != xv.ndim - 1 or cv.shape[-2] != 2 or cv.shape[:-2] != xv.shape[:-3]:
        raise ShapeError(f"bilinear_sample: map {xv.shape}, coords {cv.shape}")
    *lead, d, h, w = xv.shape
    xflat = xv.reshape((*lead, d, h * w))
    gather = (*(i[..., None, None] for i in np.indices(lead, sparse=True)), np.arange(d)[:, None])
    px, py = pixel_coords(np.swapaxes(cv, 0, -2), h, w)  # (..., N) each
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    wx = px - x0
    wy = py - y0

    corners = []  # (value (..., D, N), weight (..., 1, N), flat index (..., N), valid (..., N))
    for dy, dx, weight in (
        (0, 0, (1.0 - wy) * (1.0 - wx)),
        (0, 1, (1.0 - wy) * wx),
        (1, 0, wy * (1.0 - wx)),
        (1, 1, wy * wx),
    ):
        xi, yi = x0 + dx, y0 + dy
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        # minimum/maximum: np.clip costs several times more on index arrays
        flat = np.minimum(np.maximum(yi, 0), h - 1) * w + np.minimum(np.maximum(xi, 0), w - 1)
        val = xflat[(*gather, flat[..., None, :])] * valid[..., None, :]
        corners.append((val, weight[..., None, :], flat, valid))

    out = np.zeros((*lead, d, cv.shape[-1]))
    for val, weight, _, _ in corners:
        out += weight * val

    def vjp(g: np.ndarray) -> tuple:
        buf = np.zeros((*lead, h * w, d))
        for _, weight, flat, valid in corners:
            contrib = np.swapaxes(g * weight, -1, -2)[valid]
            np.add.at(buf, (*np.nonzero(valid)[:-1], flat[valid]), contrib)
        v00, v01, v10, v11 = (c[0] for c in corners)
        wx_, wy_ = wx[..., None, :], wy[..., None, :]
        dval_dwx = (1.0 - wy_) * (v01 - v00) + wy_ * (v11 - v10)
        dval_dwy = (1.0 - wx_) * (v10 - v00) + wx_ * (v11 - v01)
        gx = (g * dval_dwx).sum(axis=-2) * 0.5 * (w - 1)
        gy = (g * dval_dwy).sum(axis=-2) * 0.5 * (h - 1)
        return np.swapaxes(buf, -1, -2).reshape(xv.shape), np.stack([gx, gy], axis=-2)

    return Node(out, (x, coords), vjp)
