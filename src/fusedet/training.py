"""Episode losses, the toy detection head, the two-stage training loop,
prototype precomputation, and inference over query pairs.

The head is deliberately small plumbing: per-location slot logits come
from cosine alignment between the aggregated query map and the slot
encodings, a learned objectness channel supplies the background logit,
and boxes come from a pointwise regression of corner offsets against the
cell center.  Training fits the softmax over those logits and inference
scores with it, through the one `head`.  It stands in for a full decoder
and hides behind this one module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import Node, ParamStore, as_node, backward, no_grad
from .data import DatasetIndex, Episode, SplitSpec, SupportSet, sample_episode
from .errors import DivergenceError, NumericGuardError, PreconditionError
from .evaluation import Box, Detection, GroundTruth, iou_row
from .model import ModelConfig, init_params, query_features
from .prototypes import (
    PrototypeSet,
    average_prototypes,
    cam_forward,
    cosine_ce_loss,
    extract_prototypes,
    group_by_image,
    pool_supports,
)


@dataclass(frozen=True)
class TrainConfig:
    steps_base: int = 150
    steps_finetune: int = 300
    lr: float = 0.05
    lambda_meta: float = 1.0
    lambda_cls: float = 1.0
    lambda_box: float = 1.0
    shots_per_step: int = 2
    seed: int = 0
    k: int = 5
    n_support_seeds: int = 10
    support_index: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise PreconditionError(f"seed {self.seed} must be nonnegative")
        if self.steps_base < 0 or self.steps_finetune < 0:
            raise PreconditionError("step counts must be nonnegative")
        if self.lr < 0:
            raise PreconditionError(f"learning rate {self.lr} must be nonnegative")
        if self.shots_per_step < 1:
            raise PreconditionError("need at least one support shot per slot")
        if self.k < 1 or self.n_support_seeds < 1:
            raise PreconditionError("shot count and support seed count must be positive")
        if not 0 <= self.support_index < self.n_support_seeds:
            raise PreconditionError(
                f"support index {self.support_index} outside the {self.n_support_seeds} seeded draws"
            )


def _unit_rows_fixed(t: np.ndarray) -> np.ndarray:
    return t / np.linalg.norm(t, axis=1, keepdims=True)


def head(f_cam: Node, protos: PrototypeSet, params: dict[str, Node], alpha: float) -> tuple[Node, Node]:
    """Per-location logits (HW, S+1) and corner offsets (HW, 4).

    Slot logits are alpha * cos(feature, slot encoding), with the feature
    norm stabilized by a tiny floor so locations near the zero vector stay
    differentiable; the last (background) column is minus the objectness.
    """
    _, h, w = f_cam.value.shape
    flat = ops.map_to_tokens(f_cam)
    sq = (flat * flat).sum(axis=1, keepdims=True) + 1e-12
    fhat = flat / ops.sqrt(sq)
    slot_logits = ops.matmul(fhat, as_node(_unit_rows_fixed(protos.t).T)) * alpha
    obj = ops.conv1x1(f_cam, params["head.obj_w"], params["head.obj_b"]).reshape((h * w, 1))
    logits = ops.concat([slot_logits, -obj], axis=1)
    reg = ops.map_to_tokens(ops.conv1x1(f_cam, params["head.box_w"], params["head.box_b"]))
    return logits, reg


def center_cell(box: Box, h: int, w: int) -> tuple[int, int]:
    """The cell containing the center of a box inside the (h, w) map; pixel
    (i, j) covers [j, j+1) x [i, i+1) in continuous units."""
    box.require_within(h, w)
    # the clamp catches a midpoint that rounds up onto the far edge
    return min(int((box.y1 + box.y2) / 2.0), h - 1), min(int((box.x1 + box.x2) / 2.0), w - 1)


def fuse_images(index: DatasetIndex, image_ids, cfg: ModelConfig, params: dict[str, Node]) -> list[Node]:
    """The query map of each image's pair, in order, from one batched
    fusion; images whose maps differ in shape are fused one by one."""
    pairs = [index.load_pair(image_id) for image_id in image_ids]
    if len({(rgb.shape, ir.shape) for rgb, ir in pairs}) != 1:
        return [query_features(rgb, ir, cfg, params) for rgb, ir in pairs]
    rgb, ir = (np.stack(maps) for maps in zip(*pairs))
    return ops.unstack(query_features(rgb, ir, cfg, params))


def train_loss(
    episode: Episode,
    index: DatasetIndex,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    params: dict[str, Node],
) -> Node:
    """Scalar episode loss: prototype alignment + per-location slot
    cross-entropy + corner-offset L1 at ground-truth centers.

    The support images and then the query are fused in one batch, the
    query last, so every fusion parameter's gradient sums its per-image
    parts in the order separate per-image graphs would give.
    """
    grouped = group_by_image(episode.support, episode.slots)
    *support_maps, f_q = fuse_images(index, [*grouped, episode.query_id], cfg, params)
    records = [r for rs in grouped.values() for r in rs]
    vectors = pool_supports(dict(zip(grouped, support_maps)), records, cfg.roi_out, cfg.roi_sampling)
    protos = extract_prototypes(vectors, episode.support, episode.slots)
    meta = cosine_ce_loss(protos.s, params["meta.class_weights"], list(episode.slots), cfg.alpha)

    f_cam = cam_forward(f_q, protos, params, gate_mode=cfg.gate_mode)
    d, h, w = f_cam.value.shape
    hw, n_slots = h * w, len(episode.slots)

    logits, reg = head(f_cam, protos, params, cfg.alpha)
    logp = ops.log_softmax(logits, axis=1)

    slot_of = {c: s for s, c in enumerate(episode.slots)}
    targets = np.full(hw, n_slots, dtype=np.int64)
    positives: list[tuple[int, Box]] = []
    for gt in episode.query_gts:
        i, j = center_cell(gt.box, h, w)
        targets[i * w + j] = slot_of[gt.class_id]
        positives.append((i * w + j, gt.box))

    onehot = np.zeros((hw, n_slots + 1))
    onehot[np.arange(hw), targets] = 1.0
    pos_mask = onehot.copy()
    pos_mask[targets == n_slots] = 0.0
    bg_mask = onehot - pos_mask
    n_pos = int((targets != n_slots).sum())
    n_bg = hw - n_pos
    bg_term = (logp * bg_mask).sum() * (-1.0 / max(n_bg, 1))
    if n_pos:
        # Balance the one-positive-per-object assignment against the sea
        # of background cells, half weight each.
        cls = ((logp * pos_mask).sum() * (-1.0 / n_pos) + bg_term) * 0.5
    else:
        cls = bg_term

    if positives:
        cells = np.array([p for p, _ in positives], dtype=np.int64)
        offsets = np.array(
            [
                (b.x1 - (p % w + 0.5), b.y1 - (p // w + 0.5), b.x2 - (p % w + 0.5), b.y2 - (p // w + 0.5))
                for p, b in positives
            ]
        )
        box_term = ops.absolute(ops.take(reg, cells) - offsets).mean()
    else:
        box_term = as_node(0.0)

    return meta * tcfg.lambda_meta + cls * tcfg.lambda_cls + box_term * tcfg.lambda_box


# Candidates resolved per block in `nms`: one IoU matrix over a block and
# one from its kept boxes to the rest replace a call per kept box.  On
# dense 32x32 images blocks of 16, 32 and 64 ran alike, 128 a third slower.
NMS_BLOCK = 32


def nms(boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray, thr: float = 0.5) -> np.ndarray:
    """Greedy same-label suppression at the IoU threshold, over one image's
    (n, 4) boxes, (n,) scores and (n,) integer labels.

    Candidates are ranked by descending score, ties in input order.  Each
    label's candidates are walked in rank order; a kept box drops every
    later box of its label whose IoU with it is at least `thr` (or NaN).
    Returns the kept row indices in rank order.

    The walk takes the NMS_BLOCK best surviving candidates at a time: on
    the block's IoU matrix a candidate is kept when every block member
    kept before it clears it; then the later candidates that one of the
    block's kept boxes does not clear are dropped at once.  The IoUs are
    those of a box-by-box walk, kept box first, so the kept set is too.
    """
    rank = np.argsort(-scores, kind="stable")
    ranked_labels = labels[rank]
    keep = np.zeros(len(scores), dtype=bool)
    for label in np.unique(labels):
        rest = rank[ranked_labels == label]
        while rest.size:
            block, rest = rest[:NMS_BLOCK], rest[NMS_BLOCK:]
            clear = (iou_row(boxes[block], boxes[block]) < thr).tolist()
            rows = []
            for i in range(len(block)):
                if all(clear[k][i] for k in rows):
                    rows.append(i)
            kept = block[rows]
            keep[kept] = True
            if rest.size:
                rest = rest[(iou_row(boxes[kept], boxes[rest]) < thr).all(axis=0)]
    return rank[keep[rank]]


def toy_head(
    f_cam: Node | np.ndarray,
    protos: PrototypeSet,
    params: dict[str, Node],
    cfg: ModelConfig,
    image_id: str,
) -> list[Detection]:
    """Decode the head's per-location posteriors and boxes into thresholded
    candidates, in row-major (cell, slot) order, suppress overlaps, and
    return the kept detections in rank order."""
    logits, reg = head(as_node(f_cam), protos, params, cfg.alpha)
    scores = ops.softmax(logits, axis=1).value[:, :-1]
    reg = reg.value
    if not (np.isfinite(scores).all() and np.isfinite(reg).all()):
        raise NumericGuardError(f"non-finite head output for image {image_id}")
    h, w = f_cam.shape[1:]

    i, j = np.divmod(np.arange(h * w), w)
    cx, cy = j + 0.5, i + 0.5
    x1 = np.clip(cx + reg[:, 0], 0.0, w)
    y1 = np.clip(cy + reg[:, 1], 0.0, h)
    x2 = np.clip(cx + reg[:, 2], 0.0, w)
    y2 = np.clip(cy + reg[:, 3], 0.0, h)
    cells, slots = np.nonzero(((x1 < x2) & (y1 < y2))[:, None] & (scores >= cfg.score_thr))
    boxes = np.stack([x1, y1, x2, y2], axis=1)[cells]
    scores, labels = scores[cells, slots], np.asarray(protos.class_ids)[slots]
    kept = nms(boxes, scores, labels, 0.5)
    return [
        Detection(Box(*box), score, label, image_id)
        for box, score, label in zip(boxes[kept].tolist(), scores[kept].tolist(), labels[kept].tolist())
    ]


def precompute_prototypes(
    index: DatasetIndex,
    support_sets: list[SupportSet],
    cfg: ModelConfig,
    params: dict[str, Node],
) -> PrototypeSet:
    """One PrototypeSet per support draw, averaged elementwise: the single
    inference-time prototype table.

    Value-only.  The distinct support images of all draws are fused in one
    batch, in image id order, and pool_supports pools each distinct support
    record once; every draw then takes its class means over those vectors.
    A batch element and a vector equal their lone computation bit for bit,
    so the table equals one built draw by draw.
    """
    records = [r for sset in support_sets for rs in sset.instances.values() for r in rs]
    image_ids = sorted({r.image_id for r in records})
    with no_grad():
        maps = dict(zip(image_ids, fuse_images(index, image_ids, cfg, params)))
        vectors = pool_supports(maps, records, cfg.roi_out, cfg.roi_sampling)
        per_seed = [extract_prototypes(vectors, sset.instances, sorted(sset.instances)) for sset in support_sets]
    return average_prototypes(per_seed)


def infer(
    rgb: np.ndarray,
    ir: np.ndarray,
    protos: PrototypeSet,
    cfg: ModelConfig,
    params: dict[str, Node],
    image_id: str = "query",
) -> list[Detection]:
    """Detections for one query pair using precomputed prototypes only,
    computed value-only."""
    if protos.values.shape[1] != cfg.channels:
        raise PreconditionError(
            f"prototype width {protos.values.shape[1]} does not match model channels {cfg.channels}"
        )
    with no_grad():
        f_q = query_features(rgb, ir, cfg, params)
        f_cam = cam_forward(f_q, protos, params, gate_mode=cfg.gate_mode)
        return toy_head(f_cam, protos, params, cfg, image_id)


def run_training(
    index: DatasetIndex,
    split: SplitSpec,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    support_set: SupportSet | None,
) -> tuple[ParamStore, list[str]]:
    """Two sequential stages of plain fixed-rate gradient descent over
    episode losses; returns the trained store and the per-step log."""
    if tcfg.steps_finetune and support_set is None:
        raise PreconditionError("fine-tuning stage needs a SupportSet")
    store = init_params(cfg, seed=tcfg.seed)
    log: list[str] = []
    step = 0
    stages = (
        ("base", tcfg.steps_base, np.random.default_rng((tcfg.seed, 101)), None),
        ("finetune", tcfg.steps_finetune, np.random.default_rng((tcfg.seed, 102)), support_set),
    )
    for stage, steps, rng, sset in stages:
        for _ in range(steps):
            params = store.nodes()
            episode = sample_episode(
                index, split, stage, rng, sset, t_max=cfg.t_max, shots_per_slot=tcfg.shots_per_step
            )
            loss = train_loss(episode, index, cfg, tcfg, params)
            value = float(loss.value)
            if not np.isfinite(value):
                raise DivergenceError(step, f"loss {value!r}")
            backward(loss)
            store.sgd_step(params, tcfg.lr)
            log.append(f"step={step} stage={stage} loss={value!r}")
            step += 1
    return store, log


def gts_of(index: DatasetIndex, image_ids) -> list[GroundTruth]:
    """The index's annotation records of some images, in the given order."""
    return [g for image_id in image_ids for g in index.entries[image_id].boxes]


def detect_over(
    index: DatasetIndex,
    image_ids,
    protos: PrototypeSet,
    cfg: ModelConfig,
    params: dict[str, Node],
) -> list[Detection]:
    """Run inference over a set of index images, in image id order."""
    dets: list[Detection] = []
    for image_id in sorted(image_ids):
        dets.extend(infer(*index.load_pair(image_id), protos, cfg, params, image_id))
    return dets


def ablate_thermal(rgb: np.ndarray, ir: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero the thermal map's informative half, keeping shapes intact."""
    out = ir.copy()
    out[ir.shape[0] // 2 :] = 0.0
    return rgb, out
