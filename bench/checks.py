"""Correctness checks the benchmark applies to the program's outputs.

Every check recomputes what it needs with its own code (IoU, matching,
all-point AP) instead of calling the program, and raises CheckFailed with
a message naming the offending output.  Detections and ground truths are
read by attribute only, so a check can be fed corrupted records that the
program's own constructors would refuse.
"""
from __future__ import annotations

import math

import numpy as np

GRAD_TOL = 1e-6
AP_TOL = 1e-12
NMS_IOU = 0.5


class CheckFailed(Exception):
    """An output of the program violates a property the method must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def pairwise_iou(boxes: np.ndarray) -> np.ndarray:
    """IoU between every pair of rows of an (N, 4) x1, y1, x2, y2 array."""
    x1, y1, x2, y2 = boxes.T
    ix = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    iy = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    area = (x2 - x1) * (y2 - y1)
    return inter / (area[:, None] + area[None, :] - inter)


def check_losses(losses) -> None:
    """Every logged training loss is a finite number."""
    for step, value in enumerate(losses):
        _require(math.isfinite(value), f"training loss at step {step} is {value!r}")


def check_loss_halves(finetune_losses) -> None:
    """The last fine-tune loss is at most half the first (criterion 07)."""
    _require(len(finetune_losses) > 0, "no fine-tune losses logged")
    first, last = finetune_losses[0], finetune_losses[-1]
    _require(last <= 0.5 * first, f"last fine-tune loss {last:.4f} exceeds half of the first {first:.4f}")


def check_detections(dets, height: int, width: int, score_thr: float, class_ids) -> None:
    """Scores finite in [score_thr, 1]; boxes non-degenerate and inside the
    map; classes among the prototypes' classes."""
    allowed = set(class_ids)
    for d in dets:
        b = d.box
        _require(
            math.isfinite(d.score) and score_thr <= d.score <= 1.0,
            f"{d.image_id}: score {d.score!r} outside [{score_thr}, 1]",
        )
        coords = (b.x1, b.y1, b.x2, b.y2)
        _require(all(math.isfinite(c) for c in coords), f"{d.image_id}: non-finite box {coords}")
        _require(b.x1 < b.x2 and b.y1 < b.y2, f"{d.image_id}: degenerate box {coords}")
        _require(
            0.0 <= b.x1 and b.x2 <= width and 0.0 <= b.y1 and b.y2 <= height,
            f"{d.image_id}: box {coords} outside the {height}x{width} map",
        )
        _require(d.class_id in allowed, f"{d.image_id}: class {d.class_id} not among {sorted(allowed)}")


def check_no_overlap(dets, thr: float = NMS_IOU) -> None:
    """No two detections of one image and class overlap at IoU >= thr."""
    groups: dict[tuple[str, int], list] = {}
    for d in dets:
        groups.setdefault((d.image_id, d.class_id), []).append(d)
    for (image_id, class_id), group in groups.items():
        if len(group) < 2:
            continue
        boxes = np.array([(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in group], dtype=np.float64)
        ious = pairwise_iou(boxes)
        np.fill_diagonal(ious, 0.0)
        worst = float(ious.max())
        _require(
            worst < thr,
            f"{image_id}: two class-{class_id} detections overlap at IoU {worst:.4f} >= {thr}",
        )


def all_point_ap(dets, gts, class_id: int, thr: float = 0.5) -> float:
    """All-point interpolated AP of one class.

    Detections claim ground truths in descending score order (ties keep
    input order); each takes the unclaimed ground truth of its image with
    the highest IoU at or above thr, the earliest on equal IoU.
    """
    cgts = [g for g in gts if g.class_id == class_id]
    cdets = [d for d in dets if d.class_id == class_id]
    if not cgts or not cdets:
        return 0.0
    order = sorted(cdets, key=lambda d: -d.score)
    by_image: dict[str, list[int]] = {}
    for j, g in enumerate(cgts):
        by_image.setdefault(g.image_id, []).append(j)
    gt_boxes = np.array([(g.box.x1, g.box.y1, g.box.x2, g.box.y2) for g in cgts], dtype=np.float64)
    claimed = np.zeros(len(cgts), dtype=bool)
    hits = np.zeros(len(order), dtype=bool)
    for i, d in enumerate(order):
        cand = [j for j in by_image.get(d.image_id, ()) if not claimed[j]]
        if not cand:
            continue
        box = np.array([[d.box.x1, d.box.y1, d.box.x2, d.box.y2]], dtype=np.float64)
        ious = pairwise_iou(np.concatenate([box, gt_boxes[cand]]))[0, 1:]
        best = int(np.argmax(ious))
        if ious[best] >= thr:
            claimed[cand[best]] = True
            hits[i] = True
    tp = np.cumsum(hits)
    precision = tp / np.arange(1, len(order) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    # Recall rises by 1/len(cgts) at each hit; the area adds the envelope there.
    return float(envelope[hits].sum() / len(cgts))


def check_nap50(dets, gts, novel_ids, reported: float, floor: float) -> float:
    """The program's nAP50 equals the benchmark's own AP mean to AP_TOL and
    clears the floor; returns the benchmark's value."""
    own = float(np.mean([all_point_ap(dets, gts, c, 0.5) for c in novel_ids]))
    _require(abs(own - reported) <= AP_TOL, f"program nAP50 {reported!r} differs from recomputed {own!r}")
    _require(own >= floor, f"nAP50 {own:.4f} below its floor {floor}")
    return own


def check_ablation(fused: float, ablated: float) -> None:
    """Knocking out the thermal half costs detections (criterion 07)."""
    _require(ablated < fused, f"thermal-ablated nAP50 {ablated:.4f} not below fused {fused:.4f}")


def _key(d) -> tuple:
    return (d.image_id, d.class_id, d.score, d.box.x1, d.box.y1, d.box.x2, d.box.y2)


def check_threshold_subset(dense, thresholded, thr: float) -> None:
    """The detections of a score_thr=0 run scoring >= thr, in order, equal a
    score_thr=thr run on the same image: greedy NMS never lets a lower
    score suppress a higher one."""
    want = [_key(d) for d in dense if d.score >= thr]
    got = [_key(d) for d in thresholded]
    _require(
        want == got,
        f"{len(want)} detections of the dense run score >= {thr}, "
        f"but the thresholded run returned {len(got)} different ones",
    )


def check_same(first, again, what: str) -> None:
    """A repeated computation on the same inputs returns the same output."""
    _require(first == again, f"{what} changed between repeats of the same inputs")


def check_gradients(family: str, worst: float, smallest: float, screen: float) -> None:
    """A gradient family clears its min_abs_grad screen and GRAD_TOL."""
    _require(smallest >= screen, f"{family}: min |grad| {smallest:.3e} below its screen {screen:.1e}")
    _require(worst <= GRAD_TOL, f"{family}: worst relative error {worst:.3e} exceeds {GRAD_TOL}")
