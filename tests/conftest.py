from pathlib import Path

import numpy as np
import pytest

from fusedet import fmp, ops
from fusedet.autodiff import Node, as_node, backward
from fusedet.errors import NumericGuardError
from fusedet.evaluation import Box


def write_non_finite(path, arrays, seed=0) -> None:
    """A container holding NaN or infinity, which `fmp.write_arrays`
    refuses to write: the arrays go in with those entries zeroed, then
    every value is patched in at the offset the PST1 layout gives, so a
    test can hand the file to a reader."""
    arrays = {k: np.asarray(arrays[k], dtype="<f8") for k in sorted(arrays)}
    fmp.write_arrays(path, {k: np.where(np.isfinite(a), a, 0.0) for k, a in arrays.items()}, seed)
    blob = bytearray(Path(path).read_bytes())
    off = 16  # magic, seed, count
    for key, a in arrays.items():
        off += 2 + len(key.encode("utf-8")) + 1 + 4 * a.ndim
        blob[off : off + a.nbytes] = a.tobytes()
        off += a.nbytes
    Path(path).write_bytes(bytes(blob))


def iou(a: Box, b: Box) -> float:
    """Scalar IoU of two boxes, the oracle for `evaluation.iou_row`: each
    entry of a row equals this value of the same two boxes bit for bit."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def assert_batch_matches_elements(op, batched, shared=None, seed=0):
    """Run `op` on a batch and on each of its elements alone, and assert
    that values and gradients agree bit for bit.

    op(*inputs, params) returns a Node; `batched` are arrays whose first
    axis is the batch, `shared` maps names to arrays every element reads
    (weights).  The per-element graphs share the `shared` leaves and their
    losses are added in batch order, so a shared gradient is what
    backward sums over separate per-element graphs.  Returns the batched
    output Node.
    """
    shared = shared or {}
    rng = np.random.default_rng(seed)

    inputs = [Node(x) for x in batched]
    params = {k: Node(v) for k, v in shared.items()}
    out = op(*inputs, params)
    probe = rng.standard_normal(out.value.shape)
    backward((out * probe).sum())

    lone_params = {k: Node(v) for k, v in shared.items()}
    lone_inputs, values, loss = [], [], None
    for i in range(len(batched[0])):
        xs = [Node(x[i]) for x in batched]
        o = op(*xs, lone_params)
        term = (o * probe[i]).sum()
        loss = term if loss is None else loss + term
        lone_inputs.append(xs)
        values.append(o.value)
    backward(loss)

    assert np.array_equal(out.value, np.stack(values))
    for j, node in enumerate(inputs):
        assert np.array_equal(node.grad, np.stack([xs[j].grad for xs in lone_inputs])), f"input {j}"
    for key, node in params.items():
        assert (node.grad is None) == (lone_params[key].grad is None), key
        if node.grad is not None:
            assert np.array_equal(node.grad, lone_params[key].grad), key
    return out


def off_normalization(monkeypatch):
    """Softmax rows sum to 1 + 4e-12: below what the attention oracles'
    1e-10 resolves, above the normalization check's 1e-12."""
    softmax = ops.softmax

    def skewed(x, axis):
        out = softmax(x, axis)
        out.value = out.value * (1.0 + 4e-12)
        return out

    monkeypatch.setattr(ops, "softmax", skewed)


@pytest.fixture
def batch_check():
    return assert_batch_matches_elements


# The composed bodies of `ops.aggregate`, `ops.cosine_cross_entropy` and
# `ops.cross_attention`, the graphs of matmul, transpose, softmax,
# product, sum, relu and log_softmax nodes that `prototypes.cam_forward`,
# `cosine_ce_loss` and `deformable.cda_forward` built before the three
# ops, kept as the oracles the ops are held to bit for bit.  Patched into
# `ops`, they give those functions' old graphs.
def composed_aggregate(x, keys, gate, w, enc, w1, b1, w2, b2, scale, filter_gate=True):
    x = as_node(x)
    _, h, wd = x.value.shape
    qf = ops.map_to_tokens(x)
    scores = ops.matmul(ops.matmul(qf, w), as_node(keys).transpose())
    attn = ops.softmax(scores * scale, axis=1)
    mix = ops.matmul(attn, gate)
    q_f = qf * mix if filter_gate else mix
    q_e = ops.matmul(attn, as_node(enc))
    hidden = ops.relu(ops.matmul(q_f + q_e, w1) + b1)
    return ops.tokens_to_map(ops.matmul(hidden, w2) + b2, h, wd)


def composed_cosine_cross_entropy(unit_rows, weights, labels, alpha):
    weights = as_node(weights)
    sq = (weights * weights).sum(axis=1, keepdims=True)
    if np.any(sq.value <= 0):
        raise NumericGuardError("zero-norm class-weight row in cosine loss")
    logits = ops.matmul(unit_rows, (weights / ops.sqrt(sq)).transpose()) * alpha
    c = len(labels)
    picked = np.zeros((c, weights.value.shape[0]))
    picked[np.arange(c), labels] = 1.0
    return (ops.log_softmax(logits, axis=1) * picked).sum() * (-1.0 / c)


def composed_cross_attention(q, keys, vals, scale):
    vals = as_node(vals)
    n = vals.value.ndim
    logits = ops.matmul(q, keys) * scale
    attn = ops.softmax(logits, axis=-1)  # (..., HW, N)
    vals_t = vals.transpose((*range(n - 2), n - 1, n - 2))  # (..., N, D)
    return ops.matmul(attn, vals_t)


COMPOSED_OPS = {
    "aggregate": composed_aggregate,
    "cosine_cross_entropy": composed_cosine_cross_entropy,
    "cross_attention": composed_cross_attention,
}


def run_recording_op_inputs(monkeypatch, composed: bool, run):
    """run() with the ops of `COMPOSED_OPS`, or with their composed
    oracles: run()'s result and the Node arguments of every call of those
    ops, in call order."""
    inputs = []

    def recording(op):
        def call(*args, **kwargs):
            inputs.extend(a for a in args if isinstance(a, Node))
            return op(*args, **kwargs)

        return call

    with monkeypatch.context() as m:
        for name, oracle in COMPOSED_OPS.items():
            m.setattr(ops, name, recording(oracle if composed else getattr(ops, name)))
        return run(), inputs


def same_bits(got, want) -> bool:
    """Equal values in the same memory order, which sets the bits of
    whatever consumes them next."""
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.argsort(got.strides).tolist() == np.argsort(want.strides).tolist()
