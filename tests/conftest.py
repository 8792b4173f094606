from pathlib import Path

import numpy as np
import pytest

from fusedet import fmp
from fusedet.autodiff import Node, backward
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


@pytest.fixture
def batch_check():
    return assert_batch_matches_elements
