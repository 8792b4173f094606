import sys
from pathlib import Path

import numpy as np
import pytest

from fusedet.errors import ParseError, PreconditionError
from fusedet.evaluation import (
    Box,
    Detection,
    GroundTruth,
    average_precision,
    box_array,
    iou_row,
    match,
    nap50,
    read_detections,
    read_ground_truths,
    write_detections,
    write_ground_truths,
)

from conftest import iou


def det(score, box, image_id="img0", class_id=0):
    return Detection(image_id=image_id, class_id=class_id, score=score, box=Box(*box))


def gt(box, image_id="img0", class_id=0):
    return GroundTruth(image_id=image_id, class_id=class_id, box=Box(*box))


def greedy_match_oracle(dets, gts, thr):
    """Re-derivation of the matching rule, coded independently as a loop
    over a stable score sort with explicit best-candidate search."""
    idx = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    used = set()
    flags = [False] * len(dets)
    for i in idx:
        best, best_iou = None, thr
        for j, g in enumerate(gts):
            if j in used or g.image_id != dets[i].image_id or g.class_id != dets[i].class_id:
                continue
            v = iou(dets[i].box, g.box)
            if v >= best_iou and (best is None or v > best_iou):
                best, best_iou = j, v
        if best is not None:
            used.add(best)
            flags[i] = True
    return flags


def loop_match(dets, gts, thr):
    """The per-pair matching loop that `match` replaced, kept verbatim as
    the oracle for its differential test."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    taken = [False] * len(gts)
    flags = [False] * len(dets)
    for i in order:
        det = dets[i]
        best, best_iou = -1, 0.0
        for j, gt in enumerate(gts):
            if taken[j] or gt.image_id != det.image_id or gt.class_id != det.class_id:
                continue
            v = iou(det.box, gt.box)
            if v >= thr and v > best_iou:
                best, best_iou = j, v
        if best >= 0:
            taken[best] = True
            flags[i] = True
    return flags


def row_match(dets, gts, thr):
    """The matcher `match` replaced, kept verbatim as the oracle for its
    differential test: one `iou_row` call per detection."""
    gt_groups = {}
    for j, g in enumerate(gts):
        gt_groups.setdefault((g.image_id, g.class_id), []).append(j)
    det_groups = {}
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


def loop_average_precision(dets, gts, class_id, thr=0.5):
    """All-point AP with `row_match` and the backward envelope loop
    `average_precision` replaced, as the oracle for its differential test."""
    cdets = [d for d in dets if d.class_id == class_id]
    cgts = [g for g in gts if g.class_id == class_id]
    if not cgts or not cdets:
        return 0.0
    flags = row_match(cdets, cgts, thr)
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


def grid_box(rng):
    """A box on a half-unit grid: exact IoU 0.5, touching edges and
    duplicate boxes all turn up often."""
    x1, y1 = rng.integers(0, 8, size=2) * 0.5
    w, h = rng.integers(1, 6, size=2) * 0.5
    return (float(x1), float(y1), float(x1 + w), float(y1 + h))


def continuous_box(rng):
    x1, y1 = rng.uniform(0, 6, size=2)
    w, h = rng.uniform(0.1, 3, size=2)
    return (float(x1), float(y1), float(x1 + w), float(y1 + h))


class TestBox:
    def test_rejects_degenerate(self):
        with pytest.raises(PreconditionError):
            Box(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(PreconditionError):
            Box(0.0, 2.0, 1.0, 2.0)

    @pytest.mark.parametrize(
        "coords", [(0.0, 0.0, np.inf, 1.0), (-np.inf, 0.0, 1.0, 1.0), (0.0, -np.inf, 1.0, np.inf)]
    )
    def test_rejects_non_finite(self, coords):
        with pytest.raises(PreconditionError, match="non-finite box"):
            Box(*coords)

    def test_area(self):
        assert Box(1.0, 1.0, 3.0, 4.0).area == 6.0


def iou_of(box, *others):
    return iou_row(np.array(box, float), np.array(others, float).reshape(-1, 4)).tolist()


class TestIou:
    def test_identical(self):
        assert iou_of((0, 0, 2, 2), (0, 0, 2, 2)) == [1.0]

    def test_disjoint(self):
        assert iou_of((0, 0, 1, 1), (2, 2, 3, 3)) == [0.0]

    def test_touching_edges_do_not_overlap(self):
        assert iou_of((0, 0, 1, 1), (1, 0, 2, 1)) == [0.0]

    def test_one_seventh(self):
        assert abs(iou_of((0, 0, 2, 2), (1, 1, 3, 3))[0] - 1.0 / 7.0) <= 1e-15

    def test_row_equals_scalar_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for make in (grid_box, continuous_box):
            for _ in range(50):
                a = make(rng)
                others = [make(rng) for _ in range(int(rng.integers(0, 12)))]
                row = iou_row(np.array(a), np.array(others).reshape(-1, 4))
                assert [v.hex() for v in row.tolist()] == [iou(Box(*a), Box(*b)).hex() for b in others]

    def test_symmetry(self):
        a, b = (0, 0, 4, 3), (2, 1, 5, 6)
        assert iou_of(a, b) == iou_of(b, a)


class TestMatch:
    def test_single_true_positive(self):
        flags = match([det(0.9, (0, 0, 2, 2))], [gt((0, 0, 2, 2.5))], 0.5)
        assert flags == [True]

    def test_second_detection_on_same_gt_is_fp(self):
        dets = [det(0.9, (0, 0, 2, 2)), det(0.8, (0, 0, 2, 2.2))]
        flags = match(dets, [gt((0, 0, 2, 2))], 0.5)
        assert flags == [True, False]

    def test_score_order_decides_not_input_order(self):
        dets = [det(0.8, (0, 0, 2, 2.2)), det(0.9, (0, 0, 2, 2))]
        flags = match(dets, [gt((0, 0, 2, 2))], 0.5)
        assert flags == [False, True]

    def test_image_boundaries_respected(self):
        dets = [det(0.9, (0, 0, 2, 2), image_id="a")]
        flags = match(dets, [gt((0, 0, 2, 2), image_id="b")], 0.5)
        assert flags == [False]

    def test_low_iou_is_fp(self):
        flags = match([det(0.9, (0, 0, 1, 1))], [gt((3, 3, 4, 4))], 0.5)
        assert flags == [False]

    def test_three_dets_two_gts_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            gts = []
            for _ in range(2):
                x1, y1 = rng.uniform(0, 4, size=2)
                gts.append(gt((x1, y1, x1 + rng.uniform(1, 3), y1 + rng.uniform(1, 3))))
            dets = []
            for _ in range(3):
                base = gts[int(rng.integers(2))].box
                jx, jy = rng.uniform(-1, 1, size=2)
                dets.append(
                    det(
                        float(rng.uniform(0.1, 1.0)),
                        (base.x1 + jx, base.y1 + jy, base.x2 + jx, base.y2 + jy),
                    )
                )
            assert match(dets, gts, 0.5) == greedy_match_oracle(dets, gts, 0.5)

    def test_never_two_detections_per_gt(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            gts = [gt((1, 1, 3, 3)), gt((5, 5, 8, 8))]
            dets = [
                det(float(rng.uniform()), tuple(np.array((1, 1, 3, 3)) + rng.uniform(-0.4, 0.4, 4)))
                for _ in range(4)
            ]
            flags = match(dets, gts, 0.5)
            assert sum(flags) <= len(gts)

    def test_bad_threshold_rejected(self):
        with pytest.raises(PreconditionError):
            match([], [], 1.0)

    def test_empty_inputs(self):
        assert match([], [gt((0, 0, 1, 1))], 0.5) == []
        assert match([det(0.5, (0, 0, 1, 1))], [], 0.5) == [False]

    @pytest.mark.parametrize("thr", [0.3, 0.5, 0.7])
    def test_matches_loop_oracle_on_grid_boxes(self, thr):
        rng = np.random.default_rng(int(thr * 10))
        for _ in range(150):
            gts = [
                gt(grid_box(rng), image_id=str(rng.choice(["a", "b"])), class_id=int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(0, 8)))
            ]
            dets = [
                det(
                    float(rng.choice([0.2, 0.5, 0.9])), grid_box(rng),
                    image_id=str(rng.choice(["a", "b"])), class_id=int(rng.integers(0, 2)),
                )
                for _ in range(int(rng.integers(0, 14)))
            ]
            assert match(dets, gts, thr) == loop_match(dets, gts, thr)


    def test_iou_tie_goes_to_the_first_ground_truth(self):
        # the top detection overlaps both halves at IoU 0.5; claiming the
        # top half leaves the bottom half to the second detection
        gts = [gt((0, 0, 2, 1)), gt((0, 1, 2, 2))]
        dets = [det(0.9, (0, 0, 2, 2)), det(0.8, (0, 1, 2, 2))]
        assert match(dets, gts, 0.5) == [True, True]
        assert match(dets, gts[::-1], 0.5) == [True, False]

    def test_many_tied_scores_match_row_oracle_bit_for_bit(self):
        # three score levels over crowded images: ties decide most claims
        rng = np.random.default_rng(11)
        gts = [
            gt(grid_box(rng), image_id=f"i{k % 4}", class_id=int(rng.integers(0, 2))) for k in range(60)
        ]
        dets = [
            det(float(rng.choice([0.25, 0.5, 0.75])), grid_box(rng), image_id=f"i{k % 4}",
                class_id=int(rng.integers(0, 2)))
            for k in range(600)
        ]
        for thr in (0.3, 0.5, 0.7):
            flags = match(dets, gts, thr)
            assert flags == row_match(dets, gts, thr) and 0 < sum(flags) < len(gts)
            for c in (0, 1):
                assert average_precision(dets, gts, c, thr) == loop_average_precision(dets, gts, c, thr)


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module", params=[900, 901, 902])
def dense_round(request, tmp_path_factory):
    """Detections and ground truths of one benchmark dense round: the
    trained fixture over 48 held-out 32x32 pairs at score_thr 0."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    from fusedet.training import gts_of

    work = tmp_path_factory.mktemp(f"dense{request.param}")
    inputs = workloads.make_inputs(work, request.param, workloads.DENSE)
    store = workloads.load_fixture(workloads.MODEL)
    dets, _ = workloads.detect_round(inputs, store.nodes(), workloads.prototypes_of(inputs, store))
    return dets, gts_of(inputs.heldout, inputs.heldout.image_ids())


def test_dense_round_matches_row_oracle_bit_for_bit(dense_round):
    dets, gts = dense_round
    assert len(dets) > 10_000
    assert match(dets, gts, 0.5) == row_match(dets, gts, 0.5)
    for c in (0, 1, 2):
        assert average_precision(dets, gts, c, 0.5) == loop_average_precision(dets, gts, c, 0.5)


class TestAveragePrecision:
    def test_hand_walked_five_sixths(self):
        gts = [gt((0, 0, 2, 2), image_id="a"), gt((0, 0, 2, 2), image_id="b")]
        dets = [
            det(0.9, (0, 0, 2, 2), image_id="a"),  # TP
            det(0.8, (5, 5, 6, 6), image_id="a"),  # FP
            det(0.7, (0, 0, 2, 2), image_id="b"),  # TP
        ]
        ap = average_precision(dets, gts, class_id=0)
        assert abs(ap - 5.0 / 6.0) <= 1e-12

    def test_perfect_detections(self):
        gts = [gt((0, 0, 2, 2), image_id=f"i{k}") for k in range(4)]
        dets = [det(0.5 + 0.1 * k, (0, 0, 2, 2), image_id=f"i{k}") for k in range(4)]
        assert average_precision(dets, gts, class_id=0) == 1.0

    def test_no_detections(self):
        assert average_precision([], [gt((0, 0, 2, 2))], class_id=0) == 0.0

    def test_no_gts_no_dets_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert average_precision([], [], class_id=0) == 0.0

    def test_monotone_score_rescale_invariance(self):
        rng = np.random.default_rng(2)
        gts, dets = [], []
        for k in range(100):
            img = f"i{k}"
            x1, y1 = rng.uniform(0, 4, size=2)
            g = gt((x1, y1, x1 + 2.0, y1 + 2.0), image_id=img)
            gts.append(g)
            jx = rng.uniform(-1.5, 1.5)
            dets.append(
                det(
                    float(rng.uniform(0.01, 0.99)),
                    (g.box.x1 + jx, g.box.y1, g.box.x2 + jx, g.box.y2),
                    image_id=img,
                )
            )
        base = average_precision(dets, gts, class_id=0)
        for f in (lambda s: 0.5 * s + 0.2, lambda s: s**3, lambda s: np.tanh(4 * s)):
            rescaled = [
                Detection(image_id=d.image_id, class_id=d.class_id, score=float(f(d.score)), box=d.box)
                for d in dets
            ]
            assert average_precision(rescaled, gts, class_id=0) == base

    def test_appending_new_tp_never_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            gts = [gt((0, 0, 2, 2), image_id=f"i{k}") for k in range(n)]
            dets = []
            for k in range(n - 1):
                hit = rng.uniform() < 0.6
                box = (0, 0, 2, 2) if hit else (6, 6, 8, 8)
                dets.append(det(float(rng.uniform(0.2, 1.0)), box, image_id=f"i{k}"))
            before = average_precision(dets, gts, class_id=0)
            extra = det(float(rng.uniform(0.0, 0.15)), (0, 0, 2, 2), image_id=f"i{n - 1}")
            after = average_precision(dets + [extra], gts, class_id=0)
            assert after >= before - 1e-12

    def test_other_classes_are_ignored(self):
        gts = [gt((0, 0, 2, 2)), gt((0, 0, 2, 2), class_id=1, image_id="z")]
        dets = [det(0.9, (0, 0, 2, 2)), det(0.9, (5, 5, 7, 7), class_id=1, image_id="z")]
        assert average_precision(dets, gts, class_id=0) == 1.0


class TestNap50:
    def test_mean_of_per_class_aps(self):
        gts = [gt((0, 0, 2, 2), class_id=1), gt((0, 0, 2, 2), class_id=2, image_id="b")]
        dets = [det(0.9, (0, 0, 2, 2), class_id=1)]  # class 2 undetected
        v = nap50(dets, gts, [1, 2])
        assert v == 0.5
        assert v == np.mean([average_precision(dets, gts, 1), average_precision(dets, gts, 2)])

    def test_perfect_single_class(self):
        gts = [gt((0, 0, 2, 2), class_id=3)]
        dets = [det(0.9, (0, 0, 2, 2), class_id=3)]
        assert nap50(dets, gts, [3]) == 1.0

    def test_empty_novel_set_rejected(self):
        with pytest.raises(PreconditionError):
            nap50([], [], [])

    def test_repeated_novel_id_rejected(self):
        """A repeated id would weight its class twice in the mean."""
        gts = [gt((0, 0, 2, 2), class_id=1), gt((0, 0, 2, 2), class_id=2, image_id="b")]
        dets = [det(0.9, (0, 0, 2, 2), class_id=1)]
        with pytest.raises(PreconditionError, match=r"more than once: \[1, 2\]"):
            nap50(dets, gts, [2, 1, 1, 2, 3])


class TestInterchangeFiles:
    def test_detection_round_trip(self, tmp_path):
        dets = [
            det(0.875, (0.5, 1.25, 3.5, 4.0), image_id="pair0003", class_id=2),
            det(1.0 / 3.0, (1.0, 1.0, 2.0, 2.0), image_id="pair0001", class_id=0),
        ]
        path = tmp_path / "dets.txt"
        write_detections(path, dets)
        back = read_detections(path)
        assert back == dets

    def test_ground_truth_round_trip(self, tmp_path):
        gts = [
            gt((0.5, 1.25, 3.5, 4.0), image_id="a", class_id=1),
            gt((2.0, 2.0, 4.0, 5.0), image_id="b", class_id=0),
        ]
        path = tmp_path / "gts.txt"
        write_ground_truths(path, gts)
        assert read_ground_truths(path) == gts

    def test_full_float_precision_survives(self, tmp_path):
        d = det(0.1 + 0.2, (np.pi, 1.0, np.e * 2, 7.0), image_id="x", class_id=0)
        path = tmp_path / "d.txt"
        write_detections(path, [d])
        back = read_detections(path)[0]
        assert back.score == d.score
        assert back.box == d.box

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\n\nimg0 1 0.5 0.0 0.0 2.0 2.0\n# trailing\n")
        assert read_detections(path) == [det(0.5, (0, 0, 2, 2), image_id="img0", class_id=1)]

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\nimg0 1 0.5 0.0 0.0 2.0\n")
        with pytest.raises(ParseError) as exc:
            read_detections(path)
        assert exc.value.line == 2

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("img0 1 0.0 0.0 2.0 2.0\nimg1 x 0.0 0.0 2.0 2.0\n")
        with pytest.raises(ParseError) as exc:
            read_ground_truths(path)
        assert exc.value.line == 2

    def test_degenerate_box_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("img0 1 2.0 0.0 2.0 2.0\n")
        with pytest.raises(ParseError) as exc:
            read_ground_truths(path)
        assert exc.value.line == 1
