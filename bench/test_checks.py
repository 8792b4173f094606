"""Tests of the benchmark's own checkers: each passes a correct output and
fails a deliberately corrupted one.

    python3 -m pytest -q bench
"""
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from fixture import StaleFixture, load_fixture  # noqa: E402
from tracing import Tracer  # noqa: E402

from fusedet import evaluation, training  # noqa: E402
from fusedet.autodiff import ParamStore  # noqa: E402
from fusedet.evaluation import Box, Detection, GroundTruth  # noqa: E402
from fusedet.model import ModelConfig, init_params  # noqa: E402


def det(x1, y1, x2, y2, score=0.9, class_id=1, image_id="a"):
    return SimpleNamespace(box=SimpleNamespace(x1=x1, y1=y1, x2=x2, y2=y2), score=score,
                           class_id=class_id, image_id=image_id)


def test_overlap_passes_separated_and_other_class_pairs():
    checks.check_no_overlap([
        det(0, 0, 2, 2), det(1, 0, 3, 2),  # IoU 1/3
        det(0, 0, 2, 2, class_id=0), det(0, 0, 2, 2, image_id="b"),
    ])


def test_overlap_fails_on_same_class_pair():
    with pytest.raises(CheckFailed, match="overlap"):
        checks.check_no_overlap([det(0, 0, 2, 2), det(0.1, 0, 2.1, 2), det(5, 5, 6, 6)])


def test_detections_pass_inside_the_map():
    checks.check_detections([det(0, 0, 8, 8, score=0.1), det(3, 3, 4, 5, score=1.0)], 8, 8, 0.1, (0, 1, 2))


@pytest.mark.parametrize("bad", [
    det(-0.5, 0, 2, 2),  # left of the map
    det(6, 6, 8.5, 8),  # right of the map
    det(2, 2, 2, 3),  # degenerate
    det(0, 0, 2, 2, score=float("nan")),
    det(0, 0, 2, 2, score=1.5),
    det(0, 0, 2, 2, score=0.05),  # below score_thr
    det(0, 0, 2, 2, class_id=7),
])
def test_detections_fail_on_corrupted_record(bad):
    with pytest.raises(CheckFailed):
        checks.check_detections([det(1, 1, 3, 3), bad], 8, 8, 0.1, (0, 1, 2))


def _random_case(seed):
    rng = np.random.default_rng(seed)
    gts, dets = [], []
    scores = rng.permutation(np.linspace(0.01, 0.99, 60))
    for i in range(60):
        x, y = rng.uniform(0, 30, size=2)
        c, img = int(rng.integers(0, 3)), f"im{int(rng.integers(0, 5))}"
        gts.append(GroundTruth(Box(x, y, x + 4, y + 4), c, img))
        dx, dy = rng.uniform(-3, 3, size=2)
        dets.append(Detection(Box(x + dx, y + dy, x + dx + 4, y + dy + 4), float(scores[i]), c, img))
    return dets, gts


@pytest.mark.parametrize("seed", range(5))
def test_own_ap_matches_program(seed):
    dets, gts = _random_case(seed)
    for c in range(3):
        want = evaluation.average_precision(dets, gts, c)
        assert abs(checks.all_point_ap(dets, gts, c) - want) <= checks.AP_TOL
    checks.check_nap50(dets, gts, [1, 2], evaluation.nap50(dets, gts, [1, 2]), floor=0.0)


def test_own_ap_hand_case():
    gts = [GroundTruth(Box(0, 0, 2, 2), 0, "a"), GroundTruth(Box(5, 5, 7, 7), 0, "a")]
    dets = [Detection(Box(0, 0, 2, 2), 0.9, 0, "a"), Detection(Box(10, 10, 12, 12), 0.8, 0, "a"),
            Detection(Box(5, 5, 7, 7), 0.7, 0, "a")]
    assert abs(checks.all_point_ap(dets, gts, 0) - 5.0 / 6.0) < 1e-15


def test_nap50_fails_on_perturbed_ap_input():
    dets, gts = _random_case(0)
    reported = evaluation.nap50(dets, gts, [1])
    # the benchmark sees the class-1 boxes moved off their ground truths
    moved = [
        Detection(Box(d.box.x1 + 25, d.box.y1, d.box.x2 + 25, d.box.y2), d.score, 1, d.image_id)
        if d.class_id == 1 else d
        for d in dets
    ]
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_nap50(moved, gts, [1], reported, floor=0.0)


def test_nap50_fails_below_floor():
    dets, gts = _random_case(1)
    with pytest.raises(CheckFailed, match="floor"):
        checks.check_nap50(dets, gts, [1], evaluation.nap50(dets, gts, [1]), floor=1.01)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -math.inf])
def test_losses_fail_on_non_finite(bad):
    checks.check_losses([3.0, 2.0, 1.0])
    with pytest.raises(CheckFailed, match="step 2"):
        checks.check_losses([3.0, 2.0, bad, 1.0])


def test_loss_halving():
    checks.check_loss_halves([4.0, 3.0, 2.0])
    with pytest.raises(CheckFailed):
        checks.check_loss_halves([4.0, 3.0, 2.1])


def test_ablation():
    checks.check_ablation(1.0, 0.2)
    with pytest.raises(CheckFailed):
        checks.check_ablation(0.9, 0.9)


def _dense_and_thresholded():
    rng = np.random.default_rng(3)
    dets = []
    for p in range(40):
        x, y = rng.uniform(0, 12, size=2)
        for c in (0, 1, 2):
            dets.append(Detection(Box(x, y, x + 3, y + 3), float(rng.uniform(0, 0.3)), c, "q"))
    dense = training.nms(dets, 0.5)
    thresholded = training.nms([d for d in dets if d.score >= 0.1], 0.5)
    return dense, thresholded


def test_threshold_subset_holds_for_greedy_nms():
    dense, thresholded = _dense_and_thresholded()
    checks.check_threshold_subset(dense, thresholded, 0.1)


def test_threshold_subset_fails_on_dropped_detection():
    dense, thresholded = _dense_and_thresholded()
    with pytest.raises(CheckFailed):
        checks.check_threshold_subset(dense, thresholded[:-1], 0.1)


def test_gradient_verdicts():
    checks.check_gradients("fam", 1e-7, 1e-2, 1e-3)
    with pytest.raises(CheckFailed, match="relative error"):
        checks.check_gradients("fam", 2e-6, 1e-2, 1e-3)
    with pytest.raises(CheckFailed, match="screen"):
        checks.check_gradients("fam", 1e-7, 1e-4, 1e-3)


CFG = ModelConfig(channels=8, classes_total=3, t_max=3, k_off=3, roi_out=2, roi_sampling=1)


def test_fixture_matches_model_schema():
    load_fixture(CFG)


def test_stale_fixture_fails_with_remake_hint(tmp_path):
    store = init_params(CFG.with_updates(channels=4))
    store.save(tmp_path / "p.pst")
    with pytest.raises(StaleFixture, match="bench/fixture.py"):
        load_fixture(CFG, tmp_path / "p.pst")


def test_truncated_fixture_fails_with_remake_hint(tmp_path):
    path = tmp_path / "p.pst"
    init_params(CFG).save(path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(StaleFixture, match="cannot read"):
        load_fixture(CFG, path)


def test_tracer_restores_program_and_reports_silent_spans():
    original = training.nms
    tracer = Tracer()
    tracer.install()
    try:
        assert training.nms is not original
        training.nms([], 0.5)
    finally:
        tracer.uninstall()
    assert training.nms is original
    silent = tracer.silent()
    assert "training.nms" not in silent
    assert "training.toy_head" in silent and "autodiff.Node" in silent


def test_fixture_missing_key_fails_with_remake_hint(tmp_path):
    full = init_params(CFG)
    store = ParamStore(seed=0)
    for key in full.keys():
        if key != "head.obj_w":
            store.add(key, full.array(key))
    store.save(tmp_path / "p.pst")
    with pytest.raises(StaleFixture, match="missing head.obj_w"):
        load_fixture(CFG, tmp_path / "p.pst")
