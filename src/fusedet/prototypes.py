"""Support prototypes, fixed slot encodings, and the correlational
aggregation that turns class-specific prototypes into class-agnostic
query features, plus the cosine-similarity cross-entropy loss that
supervises the prototypes.

Box coordinates are continuous feature-map units: a box (x1, y1, x2, y2)
covers the rectangle [x1, x2] x [y1, y2] where pixel (i, j) occupies the
unit square centered at (j + 0.5, i + 0.5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import Node, ParamStore, as_node
from .deformable import normalize_coords
from .errors import NumericGuardError, PreconditionError, ShapeError
from .evaluation import Box


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


def roi_align(x, box: Box, out: int = 7, sampling: int = 2) -> Node:
    """Pool a box, which must lie inside the map, to an (D, out, out) grid.

    Each bin averages sampling x sampling bilinear reads at regular
    sub-bin centers; continuous box coords shift by -0.5 onto the pixel
    lattice, and samples clamp to the border (a box flush with the map
    edge reads border values, not padding).
    """
    x = as_node(x)
    if x.value.ndim != 3:
        raise ShapeError(f"feature map must be 3-d, got {x.value.shape}")
    d, h, w = x.value.shape
    if box.x1 < 0 or box.y1 < 0 or box.x2 > w or box.y2 > h:
        raise PreconditionError(f"box {box} exceeds map extent ({h}, {w})")
    if out < 1 or sampling < 1:
        raise PreconditionError(f"output side {out} and sampling rate {sampling} must be positive")

    bw = (box.x2 - box.x1) / out
    bh = (box.y2 - box.y1) / out
    sub = (np.arange(sampling) + 0.5) / sampling
    xs, ys = [], []
    for pi in range(out):
        for pj in range(out):
            for t in sub:
                for u in sub:
                    ys.append(box.y1 + (pi + t) * bh)
                    xs.append(box.x1 + (pj + u) * bw)
    px = np.clip(np.asarray(xs) - 0.5, 0.0, w - 1.0)
    py = np.clip(np.asarray(ys) - 0.5, 0.0, h - 1.0)
    sampled = ops.bilinear_sample(x, normalize_coords(px, py, h, w))
    return sampled.reshape((d, out, out, sampling * sampling)).mean(axis=3)


def roi_vector(x, box: Box, out: int = 7, sampling: int = 2) -> Node:
    """roi_align followed by global averaging: one D-vector per box."""
    return roi_align(x, box, out, sampling).mean(axis=(1, 2))


def extract_prototypes(
    supports, classes, out: int = 7, sampling: int = 2
) -> PrototypeSet:
    """Build one prototype per class from (feature_map, [GroundTruth]) pairs.

    Row order follows `classes`; every listed class needs at least one box.
    """
    classes = tuple(int(c) for c in classes)
    per_class: dict[int, list[Node]] = {c: [] for c in classes}
    for feat, records in supports:
        feat = as_node(feat)
        for record in records:
            if record.class_id in per_class:
                per_class[record.class_id].append(roi_vector(feat, record.box, out, sampling))
    rows = []
    for c in classes:
        vecs = per_class[c]
        if not vecs:
            raise PreconditionError(f"class {c} has no support boxes")
        total = vecs[0]
        for v in vecs[1:]:
            total = total + v
        rows.append(total * (1.0 / len(vecs)))
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
    attention matrix is returned alongside the map.
    """
    if gate_mode not in GATE_MODES:
        raise PreconditionError(f"unknown gate mode {gate_mode!r}; expected one of {GATE_MODES}")
    f_q = as_node(f_q)
    d, h, w = f_q.value.shape
    if protos.s.value.shape[1] != d:
        raise ShapeError(f"prototypes have width {protos.s.value.shape[1]}, map has {d} channels")

    qf = f_q.transpose((1, 2, 0)).reshape((h * w, d))
    proj = params[f"{prefix}.w"]
    scores = ops.matmul(ops.matmul(qf, proj), ops.matmul(protos.s, proj).transpose())
    attn = ops.softmax(scores * (1.0 / np.sqrt(d)), axis=1)  # (HW, C)

    gate = ops.matmul(attn, ops.sigmoid(protos.s))  # (HW, D)
    q_f = qf * gate if gate_mode == "filter" else gate
    q_e = ops.matmul(attn, as_node(protos.t))

    hidden = ops.relu(ops.matmul(q_f + q_e, params[f"{prefix}.ffn_w1"]) + params[f"{prefix}.ffn_b1"])
    out = ops.matmul(hidden, params[f"{prefix}.ffn_w2"]) + params[f"{prefix}.ffn_b2"]
    out = out.reshape((h, w, d)).transpose((2, 0, 1))
    return (out, attn) if return_attention else out


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

    def unit_rows(m: Node, what: str) -> Node:
        sq = (m * m).sum(axis=1, keepdims=True)
        if np.any(sq.value <= 0):
            raise NumericGuardError(f"zero-norm {what} row in cosine loss")
        return m / ops.sqrt(sq)

    sn = unit_rows(s, "prototype")
    wn = unit_rows(class_weights, "class-weight")
    logits = ops.matmul(sn, wn.transpose()) * alpha
    picked = np.zeros((c, class_weights.value.shape[0]))
    picked[np.arange(c), labels] = 1.0
    return (ops.log_softmax(logits, axis=1) * picked).sum() * (-1.0 / c)


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
    """One parameter-store file: `prototypes` (C, D) and `class_ids` (C,)."""
    store = ParamStore()
    store.add("prototypes", protos.values)
    store.add("class_ids", protos.class_ids)
    store.save(path)


def load_prototypes(path) -> PrototypeSet:
    """Read what save_prototypes wrote, rejecting a missing key, a wrong
    rank or length, non-finite values, and non-integral or repeated ids."""
    store = ParamStore.load(path)
    missing = [k for k in ("prototypes", "class_ids") if k not in store]
    if missing:
        raise PreconditionError(f"{path}: missing {', '.join(missing)}")
    values, ids = store.array("prototypes"), store.array("class_ids")
    if values.ndim != 2:
        raise ShapeError(f"{path}: prototypes must be (C, D), got {values.shape}")
    if ids.shape != values.shape[:1]:
        raise ShapeError(f"{path}: {values.shape[0]} prototype rows but class ids shaped {ids.shape}")
    if not (np.isfinite(values).all() and np.isfinite(ids).all()):
        raise NumericGuardError(f"{path}: non-finite prototype values or class ids")
    if not np.array_equal(ids, np.round(ids)):
        raise PreconditionError(f"{path}: class ids {ids.tolist()} are not all integers")
    c, d = values.shape
    return PrototypeSet(s=as_node(values), t=task_encodings(c, d), class_ids=tuple(int(i) for i in ids))
