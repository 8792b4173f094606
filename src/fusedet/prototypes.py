"""Support prototypes, fixed slot encodings, and the correlational
aggregation that turns class-specific prototypes into class-agnostic
query features, plus the cosine-similarity cross-entropy loss that
supervises the prototypes.

Box coordinates are continuous feature-map units: a box (x1, y1, x2, y2)
covers the rectangle [x1, x2] x [y1, y2] where pixel (i, j) occupies the
unit square centered at (j + 0.5, i + 0.5).
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import fmp, ops
from .autodiff import Node, ParamStore, as_node
from .deformable import normalize_coords
from .errors import NumericGuardError, PreconditionError, ShapeError
from .evaluation import Box, GroundTruth


@dataclass
class PrototypeSet:
    s: Node  # (C, D) prototype rows, graph-connected during training
    t: np.ndarray  # (C, D) fixed slot encodings
    class_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        self.s = as_node(self.s)
        self.t = np.asarray(self.t, dtype=np.float64)
        self.class_ids = tuple(int(c) for c in self.class_ids)
        if len(set(self.class_ids)) != len(self.class_ids):
            raise PreconditionError(f"duplicate class ids {self.class_ids}")
        if self.s.value.shape != self.t.shape or self.s.value.shape[0] != len(self.class_ids):
            raise ShapeError(
                f"prototype rows {self.s.value.shape}, encodings {self.t.shape}, "
                f"{len(self.class_ids)} class ids"
            )

    @property
    def values(self) -> np.ndarray:
        return self.s.value


def task_encodings(c: int, d: int) -> np.ndarray:
    """Deterministic sinusoidal encoding of each prototype slot: (C, D)."""
    if d % 2:
        raise PreconditionError(f"encoding width {d} must be even")
    m = np.arange(d // 2)
    freq = 1.0 / np.power(10000.0, 2.0 * m / d)
    phase = np.arange(c)[:, None] * freq[None, :]
    t = np.empty((c, d))
    t[:, 0::2] = np.sin(phase)
    t[:, 1::2] = np.cos(phase)
    return t


def roi_align(x, boxes: Sequence[Box], out: int = 7, sampling: int = 2) -> Node:
    """Pool box b, which must lie inside its map, on element b of a
    (B, D, H, W) batch to a (D, out, out) grid: (B, D, out, out) in all,
    from one bilinear_sample over every box's samples.

    Each bin averages sampling x sampling bilinear reads at regular
    sub-bin centers; continuous box coords shift by -0.5 onto the pixel
    lattice, and samples clamp to the border (a box flush with the map
    edge reads border values, not padding).
    """
    x = as_node(x)
    if x.value.ndim != 4:
        raise ShapeError(f"feature maps must be (B, D, H, W), got {x.value.shape}")
    n, d, h, w = x.value.shape
    boxes = tuple(boxes)
    if len(boxes) != n:
        raise ShapeError(f"{len(boxes)} boxes for feature maps shaped {x.value.shape}")
    for b in boxes:
        b.require_within(h, w)
    if out < 1 or sampling < 1:
        raise PreconditionError(f"output side {out} and sampling rate {sampling} must be positive")

    # one row per box, broadcast against steps[i, t]: bin i plus sub-bin
    # center t, in bin widths; the samples of a box run in (bin row, bin
    # col, sub row, sub col) order
    x1, y1, x2, y2 = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes]).T[:, :, None, None]
    steps = np.arange(out)[:, None] + (np.arange(sampling) + 0.5) / sampling
    py = np.clip(y1 + steps * ((y2 - y1) / out) - 0.5, 0.0, h - 1.0)
    px = np.clip(x1 + steps * ((x2 - x1) / out) - 0.5, 0.0, w - 1.0)
    grid = (n, out, out, sampling, sampling)
    py = np.broadcast_to(py[:, :, None, :, None], grid).reshape(n, -1)
    px = np.broadcast_to(px[:, None, :, None, :], grid).reshape(n, -1)
    sampled = ops.bilinear_sample(x, normalize_coords(px, py, h, w))  # coords (B, 2, N)
    return sampled.reshape((n, d, out, out, sampling * sampling)).mean(axis=-1)


def roi_vector(x, boxes: Sequence[Box], out: int = 7, sampling: int = 2) -> Node:
    """roi_align followed by global averaging: (B, D), one D-vector per box."""
    return roi_align(x, boxes, out, sampling).mean(axis=(-2, -1))


def group_by_image(instances, classes) -> dict[str, list[GroundTruth]]:
    """Support records grouped by image, images in order of first use when
    `classes` are walked in order, as `Episode.support` and
    `SupportSet.instances` map each class to its records."""
    grouped: dict[str, list[GroundTruth]] = {}
    for c in classes:
        for record in instances[c]:
            grouped.setdefault(record.image_id, []).append(record)
    return grouped


def pool_supports(maps: Mapping[str, Node], records, out: int, sampling: int) -> dict[GroundTruth, Node]:
    """The roi_vector of each distinct record on its image's (D, H, W) map
    in `maps`, by image id: one roi_vector call per map shape, on a batch
    of one map per record, in the given record order.  Records given in
    group_by_image order make each map's gradient add its records' parts
    as pooling them one call each, in extract_prototypes' order, did."""
    by_shape: dict[tuple[int, ...], list[GroundTruth]] = {}
    for r in dict.fromkeys(records):
        by_shape.setdefault(maps[r.image_id].shape, []).append(r)
    vectors = {}
    for shape, group in by_shape.items():
        batch = ops.concat([maps[r.image_id].reshape((1, *shape)) for r in group], axis=0)
        vectors.update(zip(group, ops.unstack(roi_vector(batch, [r.box for r in group], out, sampling))))
    return vectors


def extract_prototypes(vectors: Mapping[GroundTruth, Node], instances, classes) -> PrototypeSet:
    """One prototype per class, rows in `classes` order: the mean of the
    `vectors` (from pool_supports) of its records, `instances` mapping each
    class to its records.  Every listed class needs a record.  A class
    mean adds its records image by image, images in group_by_image order."""
    classes = tuple(int(c) for c in classes)
    for c in classes:
        if not instances.get(c):
            raise PreconditionError(f"class {c} has no support boxes")
    rank = {image_id: i for i, image_id in enumerate(group_by_image(instances, classes))}
    rows = []
    for c in classes:
        records = sorted(instances[c], key=lambda r: rank[r.image_id])
        total = vectors[records[0]]
        for r in records[1:]:
            total = total + vectors[r]
        rows.append(total * (1.0 / len(records)))
    d = rows[0].value.shape[0]
    s = ops.concat([v.reshape((1, d)) for v in rows], axis=0)
    return PrototypeSet(s=s, t=task_encodings(len(classes), d), class_ids=classes)


def init_cam_params(store: ParamStore, prefix: str, channels: int) -> None:
    d = channels
    store.xavier_uniform(f"{prefix}.w", (d, d), d, d)
    store.xavier_uniform(f"{prefix}.ffn_w1", (d, 2 * d), d, 2 * d)
    store.zeros(f"{prefix}.ffn_b1", (2 * d,))
    store.xavier_uniform(f"{prefix}.ffn_w2", (2 * d, d), 2 * d, d)
    store.zeros(f"{prefix}.ffn_b2", (d,))


GATE_MODES = ("filter", "matrix")


def cam_forward(
    f_q,
    protos: PrototypeSet,
    params: dict[str, Node],
    prefix: str = "cam",
    gate_mode: str = "filter",
    return_attention: bool = False,
):
    """Aggregate prototypes into the query map; output shape equals input.

    A = softmax_rows((F W)(S W)^T / sqrt(D)) matches each location to the
    prototype slots.  The gated prototype mix A sigma(S) filters the query
    features ("filter" multiplies the query map by the mix; "matrix"
    replaces it), the slot encodings are injected as A T, and a two-layer
    dense FFN produces the output map.  With return_attention the (HW, C)
    attention matrix is returned alongside the map, as a constant node.
    """
    if gate_mode not in GATE_MODES:
        raise PreconditionError(f"unknown gate mode {gate_mode!r}; expected one of {GATE_MODES}")
    f_q = as_node(f_q)
    d, h, w = f_q.value.shape
    if protos.s.value.shape[1] != d:
        raise ShapeError(f"prototypes have width {protos.s.value.shape[1]}, map has {d} channels")

    # the two reads of the prototype rows stay nodes of their own, so
    # their gradients reach s one at a time, in the composed graph's order
    proj = params[f"{prefix}.w"]
    keys = ops.matmul(protos.s, proj)
    scale = 1.0 / np.sqrt(d)
    out = ops.aggregate(
        f_q, keys, ops.sigmoid(protos.s), proj, protos.t,
        *(params[f"{prefix}.ffn_{name}"] for name in ("w1", "b1", "w2", "b2")),
        scale, filter_gate=gate_mode == "filter",
    )
    if not return_attention:
        return out
    tokens = f_q.value.transpose((1, 2, 0)).reshape((h * w, d))
    return out, as_node(ops._slot_attention(tokens @ proj.value, keys.value, scale))


def cosine_ce_loss(s, class_weights, labels, alpha: float = 20.0) -> Node:
    """Mean cross-entropy over rows of s against their class labels, with
    logits alpha * cosine(row, weight).  Zero-norm rows are rejected."""
    s, class_weights = as_node(s), as_node(class_weights)
    c, d = s.value.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (c,):
        raise ShapeError(f"{c} prototype rows but labels shaped {labels.shape}")
    if labels.min() < 0 or labels.max() >= class_weights.value.shape[0]:
        raise PreconditionError(f"labels {labels} outside weight rows {class_weights.value.shape[0]}")

    sq = (s * s).sum(axis=1, keepdims=True)
    if np.any(sq.value <= 0):
        raise NumericGuardError("zero-norm prototype row in cosine loss")
    return ops.cosine_cross_entropy(s / ops.sqrt(sq), class_weights, labels, alpha)


def average_prototypes(per_seed: list[PrototypeSet]) -> PrototypeSet:
    """Elementwise mean of prototype rows across seeds; encodings unchanged."""
    if not per_seed:
        raise PreconditionError("no prototype sets to average")
    first = per_seed[0]
    for ps in per_seed[1:]:
        if ps.class_ids != first.class_ids:
            raise PreconditionError(f"class ids differ: {ps.class_ids} vs {first.class_ids}")
        if ps.values.shape != first.values.shape:
            raise ShapeError(f"prototype shapes differ: {ps.values.shape} vs {first.values.shape}")
    mean = np.mean([ps.values for ps in per_seed], axis=0)
    return PrototypeSet(s=as_node(mean), t=first.t.copy(), class_ids=first.class_ids)


def save_prototypes(path, protos: PrototypeSet) -> None:
    """One container file: `prototypes` (C, D) and `class_ids` (C,)."""
    fmp.write_arrays(path, {"prototypes": protos.values, "class_ids": protos.class_ids})


def load_prototypes(path) -> PrototypeSet:
    """Read what save_prototypes wrote, rejecting a missing key, a wrong
    rank or length, and non-integral or repeated ids; the container
    reader rejects non-finite values."""
    _, arrays = fmp.read_arrays(path)
    missing = [k for k in ("prototypes", "class_ids") if k not in arrays]
    if missing:
        raise PreconditionError(f"{path}: missing {', '.join(missing)}")
    values, ids = arrays["prototypes"], arrays["class_ids"]
    if values.ndim != 2:
        raise ShapeError(f"{path}: prototypes must be (C, D), got {values.shape}")
    if ids.shape != values.shape[:1]:
        raise ShapeError(f"{path}: {values.shape[0]} prototype rows but class ids shaped {ids.shape}")
    if not np.array_equal(ids, np.round(ids)):
        raise PreconditionError(f"{path}: class ids {ids.tolist()} are not all integers")
    c, d = values.shape
    return PrototypeSet(s=as_node(values), t=task_encodings(c, d), class_ids=tuple(int(i) for i in ids))
