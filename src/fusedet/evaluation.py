"""Box geometry, greedy detection matching, average precision, and the
novel-class mean AP summary, plus the line-based detection/ground-truth
interchange files.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import FusedetError, ParseError, PreconditionError, read_text


# Slots: dense inference keeps about 480 detections per 32x32 image, and
# `detect_over` holds every image's detections at once; without instance
# dicts each takes about a quarter less memory.
@dataclass(frozen=True, slots=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not (-inf < self.x1 < self.x2 < inf and -inf < self.y1 < self.y2 < inf):
            raise PreconditionError(
                f"degenerate or non-finite box ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True, slots=True)
class Detection:
    box: Box
    score: float
    class_id: int
    image_id: str

    def __post_init__(self) -> None:
        if not np.isfinite(self.score):
            raise PreconditionError(f"non-finite score {self.score}")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """One annotated box: the record of index entries, support draws,
    episodes and ground-truth files."""

    box: Box
    class_id: int
    image_id: str


def iou(a: Box, b: Box) -> float:
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def iou_row(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """IoU of one (x1, y1, x2, y2) box with each row of an (n, 4) array.

    The operations follow `iou` step for step, so each entry equals
    `iou` of the same two boxes bit for bit.
    """
    ix = np.minimum(box[2], boxes[:, 2]) - np.maximum(box[0], boxes[:, 0])
    iy = np.minimum(box[3], boxes[:, 3]) - np.maximum(box[1], boxes[:, 1])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    area = (box[2] - box[0]) * (box[3] - box[1])
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return inter / (area + areas - inter)


def box_array(boxes: list[Box]) -> np.ndarray:
    """Boxes as an (n, 4) array of x1, y1, x2, y2 rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes]).reshape(-1, 4)


def match(dets: list[Detection], gts: list[GroundTruth], thr: float) -> list[bool]:
    """TP/FP flag per detection, in input order.

    Detections are processed by descending score (ties keep input order);
    each claims the unmatched ground truth of its image and class with the
    highest IoU at or above the threshold, the first such on a tie.
    """
    if not 0 < thr < 1:
        raise PreconditionError(f"threshold {thr} outside (0, 1)")
    gt_groups: dict[tuple[str, int], list[int]] = {}
    for j, gt in enumerate(gts):
        gt_groups.setdefault((gt.image_id, gt.class_id), []).append(j)
    det_groups: dict[tuple[str, int], list[int]] = {}
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        det_groups.setdefault((dets[i].image_id, dets[i].class_id), []).append(i)
    det_boxes = box_array([d.box for d in dets])
    flags = [False] * len(dets)
    for key, det_ids in det_groups.items():
        gt_boxes = box_array([gts[j].box for j in gt_groups.get(key, [])])
        free = np.ones(len(gt_boxes), dtype=bool)
        for i in det_ids:
            if not free.any():
                break
            row = np.where(free, iou_row(det_boxes[i], gt_boxes), -1.0)
            best = int(np.argmax(row))
            if row[best] >= thr:
                free[best] = False
                flags[i] = True
    return flags


def average_precision(
    dets: list[Detection], gts: list[GroundTruth], class_id: int, thr: float = 0.5
) -> float:
    """Area under the monotone precision envelope over all recall points."""
    cdets = [d for d in dets if d.class_id == class_id]
    cgts = [g for g in gts if g.class_id == class_id]
    if not cgts:
        if not cdets:
            warnings.warn(f"class {class_id} has no ground truth and no detections", stacklevel=2)
        return 0.0
    if not cdets:
        return 0.0
    flags = match(cdets, cgts, thr)
    order = sorted(range(len(cdets)), key=lambda i: -cdets[i].score)
    tp = np.cumsum([1.0 if flags[i] else 0.0 for i in order])
    fp = np.cumsum([0.0 if flags[i] else 1.0 for i in order])
    recall = tp / len(cgts)
    precision = tp / (tp + fp)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def nap50(dets: list[Detection], gts: list[GroundTruth], novel_class_ids) -> float:
    """Unweighted mean AP at IoU 0.5 over the novel classes."""
    ids = list(novel_class_ids)
    if not ids:
        raise PreconditionError("novel class set is empty")
    return float(np.mean([average_precision(dets, gts, c, 0.5) for c in ids]))


def write_detections(path, dets: list[Detection]) -> None:
    with open(path, "w") as fh:
        fh.write("# image_id class_id score x1 y1 x2 y2\n")
        for d in dets:
            fh.write(
                f"{d.image_id} {d.class_id} {d.score!r} "
                f"{d.box.x1!r} {d.box.y1!r} {d.box.x2!r} {d.box.y2!r}\n"
            )


def write_ground_truths(path, gts: list[GroundTruth]) -> None:
    with open(path, "w") as fh:
        fh.write("# image_id class_id x1 y1 x2 y2\n")
        for g in gts:
            fh.write(f"{g.image_id} {g.class_id} {g.box.x1!r} {g.box.y1!r} {g.box.x2!r} {g.box.y2!r}\n")


def _record_lines(path) -> list[tuple[int, list[str]]]:
    out = []
    for n, raw in enumerate(read_text(path).splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            out.append((n, text.split()))
    return out


def _read_records(path, n_fields: int, build) -> list:
    """`build(tokens)` for each record line; a wrong field count or a
    rejected value is a ParseError with the line number."""
    out = []
    for n, tok in _record_lines(path):
        if len(tok) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {len(tok)}", line=n)
        try:
            out.append(build(tok))
        except (ValueError, FusedetError) as exc:
            raise ParseError(str(exc), line=n) from exc
    return out


def read_detections(path) -> list[Detection]:
    return _read_records(
        path, 7, lambda tok: Detection(Box(*map(float, tok[3:])), float(tok[2]), int(tok[1]), tok[0])
    )


def read_ground_truths(path) -> list[GroundTruth]:
    return _read_records(path, 6, lambda tok: GroundTruth(Box(*map(float, tok[2:])), int(tok[1]), tok[0]))
