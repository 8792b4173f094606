"""Box geometry, greedy detection matching, average precision, and the
novel-class mean AP summary, plus the line-based detection/ground-truth
interchange files.
"""
from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .errors import ParseError, PreconditionError, read_records


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

    def require_within(self, h: int, w: int) -> None:
        """Reject a box that leaves an (h, w) map's extent [0, w] x [0, h]."""
        if self.x1 < 0 or self.y1 < 0 or self.x2 > w or self.y2 > h:
            raise PreconditionError(f"box {self} exceeds map extent ({h}, {w})")


@dataclass(frozen=True, slots=True)
class Detection:
    box: Box
    score: float
    class_id: int
    image_id: str

    def __post_init__(self) -> None:
        if not isfinite(self.score):
            raise PreconditionError(f"non-finite score {self.score}")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """One annotated box: the record of index entries, support draws,
    episodes and ground-truth files."""

    box: Box
    class_id: int
    image_id: str


def iou_row(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """IoU of one (x1, y1, x2, y2) box with each row of an (n, 4) array;
    given a (k, 4) stack of boxes, the (k, n) matrix of such rows.

    Boxes that are disjoint or only share an edge have IoU 0.
    """
    x1, y1, x2, y2 = (box[..., c, None] for c in range(4))
    ix = np.minimum(x2, boxes[:, 2]) - np.maximum(x1, boxes[:, 0])
    iy = np.minimum(y2, boxes[:, 3]) - np.maximum(y1, boxes[:, 1])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    area = (x2 - x1) * (y2 - y1)
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return inter / (area + areas - inter)


def box_array(boxes: list[Box]) -> np.ndarray:
    """Boxes as an (n, 4) array of x1, y1, x2, y2 rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes]).reshape(-1, 4)


def match(dets: list[Detection], gts: list[GroundTruth], thr: float) -> list[bool]:
    """TP/FP flag per detection, in input order.

    Detections are processed by descending score (ties keep input order);
    each claims the unmatched ground truth of its image and class with the
    highest IoU at or above the threshold, the first such on a tie.  Each
    (image, class) group's IoU matrix is one `iou_row` call.
    """
    if not 0 < thr < 1:
        raise PreconditionError(f"threshold {thr} outside (0, 1)")
    gt_groups: dict[tuple[str, int], list[int]] = {}
    for j, gt in enumerate(gts):
        gt_groups.setdefault((gt.image_id, gt.class_id), []).append(j)
    det_groups: dict[tuple[str, int], list[int]] = {}
    for i in np.argsort([-d.score for d in dets], kind="stable").tolist():
        det_groups.setdefault((dets[i].image_id, dets[i].class_id), []).append(i)
    det_boxes = box_array([d.box for d in dets])
    flags = [False] * len(dets)
    for key, det_ids in det_groups.items():
        gt_boxes = box_array([gts[j].box for j in gt_groups.get(key, [])])
        # below the threshold an IoU can never be claimed, so it reads as taken
        ious = iou_row(det_boxes[det_ids], gt_boxes)
        ious[ious < thr] = -1.0
        free = np.ones(len(gt_boxes), dtype=bool)
        for r in np.flatnonzero(ious.max(axis=1, initial=-1.0) >= thr):
            row = np.where(free, ious[r], -1.0)
            best = int(np.argmax(row))
            if row[best] >= thr:
                free[best] = False
                flags[det_ids[r]] = True
                if not free.any():
                    break
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
    hits = np.array(match(cdets, cgts, thr))[np.argsort([-d.score for d in cdets], kind="stable")]
    tp = np.cumsum(hits, dtype=np.float64)
    fp = np.cumsum(~hits, dtype=np.float64)
    recall = tp / len(cgts)
    precision = tp / (tp + fp)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def nap50(dets: list[Detection], gts: list[GroundTruth], novel_class_ids) -> float:
    """Unweighted mean AP at IoU 0.5 over the novel classes."""
    ids = list(novel_class_ids)
    if not ids:
        raise PreconditionError("novel class set is empty")
    repeated = sorted(c for c, n in Counter(ids).items() if n > 1)
    if repeated:
        raise PreconditionError(f"novel class ids given more than once: {repeated}")
    return float(np.mean([average_precision(dets, gts, c, 0.5) for c in ids]))


def box_fields(box: Box) -> str:
    """A box's four coordinates as a record writes them, each its shortest
    round-tripping repr."""
    return f"{box.x1!r} {box.y1!r} {box.x2!r} {box.y2!r}"


def write_detections(path, dets: list[Detection]) -> None:
    with open(path, "w") as fh:
        fh.write("# image_id class_id score x1 y1 x2 y2\n")
        for d in dets:
            fh.write(f"{d.image_id} {d.class_id} {d.score!r} {box_fields(d.box)}\n")


def write_ground_truths(path, gts: list[GroundTruth]) -> None:
    with open(path, "w") as fh:
        fh.write("# image_id class_id x1 y1 x2 y2\n")
        for g in gts:
            fh.write(f"{g.image_id} {g.class_id} {box_fields(g.box)}\n")


def _fields(line: str, n: int) -> list[str]:
    tok = line.split()
    if len(tok) != n:
        raise ParseError(f"expected {n} fields, got {len(tok)}")
    return tok


def _detection(line: str) -> Detection:
    tok = _fields(line, 7)
    return Detection(Box(*map(float, tok[3:])), float(tok[2]), int(tok[1]), tok[0])


def _ground_truth(line: str) -> GroundTruth:
    tok = _fields(line, 6)
    return GroundTruth(Box(*map(float, tok[2:])), int(tok[1]), tok[0])


def read_detections(path) -> list[Detection]:
    return read_records(path, _detection)


def read_ground_truths(path) -> list[GroundTruth]:
    return read_records(path, _ground_truth)
