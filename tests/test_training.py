import dataclasses
from collections import Counter

import numpy as np
import pytest

from fusedet import fmp, ops, prototypes, training
from fusedet.autodiff import as_node, backward
from fusedet.data import Episode, SplitSpec, SupportSet, build_supports, sample_episode
from fusedet.errors import DivergenceError, NumericGuardError, PreconditionError
from fusedet.evaluation import Box, Detection, GroundTruth
from fusedet.model import ModelConfig, init_params, query_features
from fusedet.prototypes import (
    PrototypeSet,
    average_prototypes,
    cam_forward,
    extract_prototypes,
    pool_supports,
    task_encodings,
)
from fusedet.synth import SynthConfig, generate_synthetic
from fusedet.training import (
    NMS_BLOCK,
    TrainConfig,
    ablate_thermal,
    center_cell,
    detect_over,
    infer,
    nms,
    precompute_prototypes,
    run_training,
    toy_head,
    train_loss,
)

from conftest import iou, run_recording_op_inputs, same_bits

TINY_MODEL = dict(
    channels=4, classes_total=2, t_max=2, na_k=3,
    r=2, s=0.5, k_off=3, roi_out=2, roi_sampling=1,
)


def tiny_dataset(root, classes=2, images=8, seed=0):
    cfg = SynthConfig(
        classes=classes, images=images, channels=4, height=4, width=4,
        max_objects=1, noise=0.1, min_size=2.0, max_size=3.0,
    )
    return generate_synthetic(root, cfg, seed=seed)


def tiny_setup(root):
    index = tiny_dataset(root)
    split = SplitSpec(base_classes=(0,), novel_classes=(1,))
    cfg = ModelConfig(**TINY_MODEL)
    supports = build_supports(index, split, k=2, n_seeds=2)
    return index, split, cfg, supports


def det(x1, y1, x2, y2, score, class_id=0, image_id="a"):
    return Detection(box=Box(x1, y1, x2, y2), score=score, class_id=class_id, image_id=image_id)


# The greedy per-pair NMS and per-cell decode loop that the array versions
# replaced, kept verbatim as oracles for the differential tests below.
def oracle_nms(dets: list[Detection], thr: float = 0.5) -> list[Detection]:
    """Greedy same-class suppression within each image at the IoU threshold."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    kept: list[Detection] = []
    for i in order:
        d = dets[i]
        if all(
            k.class_id != d.class_id or k.image_id != d.image_id or iou(k.box, d.box) < thr
            for k in kept
        ):
            kept.append(d)
    return kept


def oracle_toy_head(f_cam, protos, params, cfg, image_id):
    """Decode per-location scores and boxes into thresholded detections."""
    d, h, w = f_cam.shape
    logits, reg = training.head(as_node(f_cam), protos, params, cfg.alpha)
    scores = ops.softmax(logits, axis=1).value[:, :-1]
    reg = reg.value

    dets: list[Detection] = []
    for p in range(h * w):
        i, j = divmod(p, w)
        cx, cy = j + 0.5, i + 0.5
        x1 = float(np.clip(cx + reg[p, 0], 0.0, w))
        y1 = float(np.clip(cy + reg[p, 1], 0.0, h))
        x2 = float(np.clip(cx + reg[p, 2], 0.0, w))
        y2 = float(np.clip(cy + reg[p, 3], 0.0, h))
        if x1 >= x2 or y1 >= y2:
            continue
        for s in range(scores.shape[1]):
            if scores[p, s] >= cfg.score_thr:
                dets.append(
                    Detection(
                        box=Box(x1, y1, x2, y2),
                        score=float(scores[p, s]),
                        class_id=protos.class_ids[s],
                        image_id=image_id,
                    )
                )
    return oracle_nms(dets, 0.5)


def bits(dets):
    """Every field of every detection, floats as exact hex strings."""
    return [
        (d.image_id, d.class_id, d.score.hex(), d.box.x1.hex(), d.box.y1.hex(), d.box.x2.hex(), d.box.y2.hex())
        for d in dets
    ]


def assert_same_detections(got, want):
    assert got == want
    assert bits(got) == bits(want)


def grid_detections(rng, n):
    """Boxes on a half-unit grid, so exact IoU 0.5, touching edges and
    duplicates are common, with scores drawn from a few values so ties
    are too, over two images and three classes."""
    dets = []
    for _ in range(n):
        x1, y1 = rng.integers(0, 8, size=2) * 0.5
        w, h = rng.integers(1, 6, size=2) * 0.5
        dets.append(
            Detection(
                box=Box(float(x1), float(y1), float(x1 + w), float(y1 + h)),
                score=float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])),
                class_id=int(rng.integers(0, 3)),
                image_id=str(rng.choice(["a", "b"])),
            )
        )
    return dets


def continuous_detections(rng, n):
    dets = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 10, size=2)
        w, h = rng.uniform(0.1, 4, size=2)
        dets.append(
            Detection(
                box=Box(float(x1), float(y1), float(x1 + w), float(y1 + h)),
                score=float(rng.uniform()),
                class_id=int(rng.integers(0, 2)),
                image_id=str(rng.choice(["a", "b", "c"])),
            )
        )
    return dets


class TestTrainConfig:
    def test_negative_steps_rejected(self):
        with pytest.raises(PreconditionError):
            TrainConfig(steps_base=-1)

    def test_negative_lr_rejected(self):
        with pytest.raises(PreconditionError):
            TrainConfig(lr=-0.1)

    def test_support_index_within_draws(self):
        with pytest.raises(PreconditionError):
            TrainConfig(n_support_seeds=3, support_index=3)


class TestCenterCell:
    def test_cell_holds_center(self):
        assert center_cell(Box(1.0, 4.0, 3.0, 6.5), 12, 12) == (5, 2)

    def test_box_flush_with_far_edge_takes_last_cell(self):
        assert center_cell(Box(10.0, 10.0, 12.0, 12.0), 12, 12) == (11, 11)

    def test_midpoint_rounding_onto_far_edge_takes_last_cell(self):
        # (x1 + 12) / 2 rounds to 12.0 for the largest double below 12
        assert center_cell(Box(np.nextafter(12.0, 0.0), 0.0, 12.0, 2.0), 12, 12) == (1, 11)

    @pytest.mark.parametrize(
        "box", [Box(-3, -3, -1, -1), Box(20, 20, 22, 22), Box(11, 0, 13, 2), Box(0, -0.5, 2, 2)],
        ids=["above-left", "below-right", "right-edge", "top-edge"],
    )
    def test_box_outside_map_rejected(self, box):
        # the flat index of a cell outside the map would wrap or clamp
        # onto another cell
        with pytest.raises(PreconditionError, match="exceeds map extent"):
            center_cell(box, 12, 12)


class TestTrainLoss:
    def test_finite_and_positive_at_init(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        episode = sample_episode(
            index, split, "finetune", np.random.default_rng(3), supports[0],
            t_max=2, shots_per_slot=1,
        )
        loss = train_loss(episode, index, cfg, TrainConfig(), init_params(cfg, seed=0).nodes())
        value = float(loss.value)
        assert np.isfinite(value) and value > 0.0

    def test_no_positives_zeroes_box_term(self, tmp_path):
        # identical losses under wildly different box weights prove the
        # regression term is exactly zero when the query has no objects
        index, split, cfg, supports = tiny_setup(tmp_path)
        episode = sample_episode(
            index, split, "finetune", np.random.default_rng(3), supports[0],
            t_max=2, shots_per_slot=1,
        )
        empty = dataclasses.replace(episode, query_gts=[])
        params = init_params(cfg, seed=0).nodes()
        a = train_loss(empty, index, cfg, TrainConfig(lambda_box=0.0), params)
        params = init_params(cfg, seed=0).nodes()
        b = train_loss(empty, index, cfg, TrainConfig(lambda_box=7.0), params)
        assert float(a.value) == float(b.value)

    def test_box_weight_scales_linearly(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        episode = sample_episode(
            index, split, "finetune", np.random.default_rng(3), supports[0],
            t_max=2, shots_per_slot=1,
        )
        assert episode.query_gts

        def loss_at(lam):
            params = init_params(cfg, seed=0).nodes()
            return float(train_loss(episode, index, cfg, TrainConfig(lambda_box=lam), params).value)

        base, one, two = loss_at(0.0), loss_at(1.0), loss_at(2.0)
        assert one > base
        assert two - base == pytest.approx(2.0 * (one - base), rel=1e-12)


def arrays_of(dets):
    """One image's detections as nms's (boxes, scores, labels) arrays."""
    return (
        np.array([(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in dets]).reshape(-1, 4),
        np.array([d.score for d in dets]),
        np.array([d.class_id for d in dets], dtype=np.int64),
    )


def nms_dets(dets, thr=0.5):
    """`nms` over one image's detections, its kept indices mapped back."""
    return [dets[k] for k in nms(*arrays_of(dets), thr)]


def assert_matches_oracle_per_image(dets, thr):
    for image_id in sorted({d.image_id for d in dets}):
        mine = [d for d in dets if d.image_id == image_id]
        assert_same_detections(nms_dets(mine, thr), oracle_nms(mine, thr))


class TestNms:
    def test_duplicate_boxes_collapse_to_best(self):
        kept = nms_dets([det(0, 0, 2, 2, 0.8), det(0, 0, 2, 2, 0.9)])
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_input_order_irrelevant(self):
        a = nms_dets([det(0, 0, 2, 2, 0.8), det(0, 0, 2, 2, 0.9)])
        b = nms_dets([det(0, 0, 2, 2, 0.9), det(0, 0, 2, 2, 0.8)])
        assert a == b

    def test_other_class_untouched(self):
        kept = nms_dets([det(0, 0, 2, 2, 0.9), det(0, 0, 2, 2, 0.8, class_id=1)])
        assert len(kept) == 2

    def test_low_overlap_survives(self):
        kept = nms_dets([det(0, 0, 2, 2, 0.9), det(1.5, 1.5, 3.5, 3.5, 0.8)])
        assert len(kept) == 2

    def test_empty_input(self):
        kept = nms(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.int64), 0.5)
        assert kept.shape == (0,) and oracle_nms([], 0.5) == []

    def test_iou_exactly_at_threshold_is_suppressed(self):
        a, b = det(0, 0, 2, 2, 0.9), det(0, 0, 2, 1, 0.8)
        assert iou(a.box, b.box) == 0.5
        assert nms_dets([a, b], 0.5) == [a]

    def test_touching_boxes_both_kept(self):
        a, b = det(0, 0, 1, 1, 0.9), det(1, 0, 2, 1, 0.9)
        assert iou(a.box, b.box) == 0.0
        assert nms_dets([a, b], 0.01) == oracle_nms([a, b], 0.01) == [a, b]

    def test_kept_in_global_score_order(self):
        dets = [det(0, 0, 1, 1, 0.2, class_id=2), det(0, 0, 1, 1, 0.7, class_id=1), det(3, 3, 4, 4, 0.5)]
        assert nms_dets(dets) == [dets[1], dets[2], dets[0]]

    def test_indices_in_rank_order(self):
        # descending score across labels, ties in input order
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            x1, y1 = rng.uniform(0, 10, size=(2, n))
            boxes = np.stack([x1, y1, x1 + 1.0, y1 + 1.0], axis=1)
            scores = rng.choice([0.2, 0.5, 0.9], size=n)
            kept = nms(boxes, scores, rng.integers(0, 3, size=n), 0.5)
            assert np.all(np.diff(scores[kept]) <= 0)
            ties = np.diff(scores[kept]) == 0
            assert np.all(np.diff(kept)[ties] > 0)

    @pytest.mark.parametrize("thr", [0.0, 0.3, 0.5, 0.7])
    def test_matches_greedy_oracle_on_grid_boxes(self, thr):
        rng = np.random.default_rng(int(thr * 10))
        for _ in range(60):
            assert_matches_oracle_per_image(grid_detections(rng, int(rng.integers(0, 40))), thr)

    def test_matches_greedy_oracle_on_continuous_boxes(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            assert_matches_oracle_per_image(continuous_detections(rng, int(rng.integers(0, 120))), 0.5)

    @pytest.mark.parametrize("n", [NMS_BLOCK - 1, NMS_BLOCK, NMS_BLOCK + 1, 2 * NMS_BLOCK + 1])
    def test_matches_greedy_oracle_across_block_edges(self, n):
        # one label, so the candidates end just before, at and just after
        # a block's edge; boxes crowd a small area, so blocks keep some
        # boxes and suppress others
        rng = np.random.default_rng(n)
        for _ in range(20):
            dets = [Detection(d.box, d.score, 0, "a") for d in grid_detections(rng, n)]
            for thr in (0.3, 0.5):
                assert_same_detections(nms_dets(dets, thr), oracle_nms(dets, thr))
        # spread-out boxes: nothing overlaps, every block keeps all its boxes
        dets = [det(2.0 * k, 0.0, 2.0 * k + 1, 1.0, float(rng.choice([0.2, 0.6]))) for k in range(n)]
        assert_same_detections(nms_dets(dets), oracle_nms(dets))
        assert len(nms_dets(dets)) == n

    def test_matches_greedy_oracle_on_a_dense_candidate_set(self):
        # the shape of toy_head's candidates on a 32x32 map at score_thr 0:
        # one box per cell, repeated for each of three labels, 3072 rows;
        # scores come from a few values, so ties span block edges
        rng = np.random.default_rng(32)
        h = w = 32
        i, j = np.divmod(np.arange(h * w), w)
        reg = rng.choice([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0], size=(h * w, 4))
        x1 = np.clip(j + 0.5 - np.abs(reg[:, 0]), 0.0, w)
        y1 = np.clip(i + 0.5 - np.abs(reg[:, 1]), 0.0, h)
        x2 = np.clip(j + 0.5 + np.abs(reg[:, 2]), 0.0, w)
        y2 = np.clip(i + 0.5 + np.abs(reg[:, 3]), 0.0, h)
        dets = [
            Detection(Box(*box), float(score), label, "a")
            for label in (4, 0, 7)
            for box, score in zip(
                np.stack([x1, y1, x2, y2], axis=1).tolist(), rng.choice([0.1, 0.3, 0.5, 0.9], size=h * w)
            )
        ]
        assert len(dets) == 3072
        kept = nms_dets(dets)
        assert_same_detections(kept, oracle_nms(dets))
        assert 3 * NMS_BLOCK < len(kept) < len(dets)


class TestToyHead:
    @staticmethod
    def head_params(store, obj_b, box_b):
        store.set_array("head.obj_w", np.zeros((1, 4)))
        store.set_array("head.box_w", np.zeros((4, 4)))
        store.set_array("head.obj_b", np.array([obj_b]))
        store.set_array("head.box_b", np.asarray(box_b, dtype=np.float64))
        return store.nodes()

    @staticmethod
    def protos_for(c=2, d=4):
        t = task_encodings(c, d)
        return PrototypeSet(s=t.copy(), t=t, class_ids=tuple(range(c))), t

    def test_suppressed_objectness_yields_nothing(self):
        cfg = ModelConfig(**TINY_MODEL)
        protos, t = self.protos_for()
        params = self.head_params(init_params(cfg, seed=0), -50.0, (-1, -1, 1, 1))
        f_cam = np.tile(t[0][:, None, None], (1, 4, 4))
        assert toy_head(f_cam, protos, params, cfg, "q") == []

    def test_aligned_feature_detects_its_slot(self):
        cfg = ModelConfig(**TINY_MODEL)
        protos, t = self.protos_for()
        params = self.head_params(init_params(cfg, seed=0), 50.0, (-1, -1, 1, 1))
        f_cam = np.tile(t[1][:, None, None], (1, 4, 4))
        dets = toy_head(f_cam, protos, params, cfg, "q")
        assert dets and all(d.class_id == protos.class_ids[1] for d in dets)

    def test_degenerate_regression_skipped(self):
        cfg = ModelConfig(**TINY_MODEL)
        protos, t = self.protos_for()
        params = self.head_params(init_params(cfg, seed=0), 50.0, (1, 1, -1, -1))
        f_cam = np.tile(t[0][:, None, None], (1, 4, 4))
        assert toy_head(f_cam, protos, params, cfg, "q") == []

    def test_boxes_clamped_to_map(self):
        cfg = ModelConfig(**TINY_MODEL)
        protos, t = self.protos_for()
        params = self.head_params(init_params(cfg, seed=0), 50.0, (-100, -100, 100, 100))
        f_cam = np.tile(t[0][:, None, None], (1, 4, 4))
        dets = toy_head(f_cam, protos, params, cfg, "q")
        assert dets and all(d.box == Box(0.0, 0.0, 4.0, 4.0) for d in dets)

    @pytest.mark.parametrize("score_thr", [0.0, 0.3])
    def test_matches_loop_oracle_on_random_maps(self, score_thr):
        cfg = ModelConfig(**TINY_MODEL, score_thr=score_thr)
        rng = np.random.default_rng(int(score_thr * 10) + 1)
        for trial in range(12):
            h, w = (int(v) for v in rng.integers(1, 9, size=2))
            c = int(rng.integers(1, 4))
            t = rng.standard_normal((c, 4))
            class_ids = tuple(int(k) for k in rng.choice(10, size=c, replace=False))
            protos = PrototypeSet(s=t.copy(), t=t, class_ids=class_ids)
            store = init_params(cfg, seed=trial)
            # large regressions clip at the border; a reversed bias makes
            # some boxes degenerate
            store.set_array("head.box_w", rng.standard_normal((4, 4)) * rng.choice([0.3, 3.0]))
            store.set_array("head.box_b", rng.choice([-1.0, 1.0], size=4) * rng.uniform(0, 2, size=4))
            store.set_array("head.obj_w", rng.standard_normal((1, 4)))
            store.set_array("head.obj_b", rng.normal(0, 2, size=1))
            f_cam = rng.standard_normal((4, h, w))
            f_cam[:, :, : w // 2] = f_cam[:, :1, :1]  # repeated cells: score ties
            params = store.nodes()
            assert_same_detections(
                toy_head(f_cam, protos, params, cfg, f"q{trial}"),
                oracle_toy_head(f_cam, protos, params, cfg, f"q{trial}"),
            )

    @pytest.mark.parametrize("score_thr", [0.0, 0.3])
    def test_matches_loop_oracle_at_exact_half_overlap(self, score_thr):
        # equal features everywhere: every score ties; 3 x 1 boxes on unit
        # steps give IoU exactly 0.5 across columns and touch across rows
        cfg = ModelConfig(**TINY_MODEL, score_thr=score_thr)
        protos, t = self.protos_for()
        params = self.head_params(init_params(cfg, seed=0), 2.0, (-1.5, -0.5, 1.5, 0.5))
        f_cam = np.tile(t[0][:, None, None], (1, 4, 5))
        got = toy_head(f_cam, protos, params, cfg, "q")
        assert got
        assert_same_detections(got, oracle_toy_head(f_cam, protos, params, cfg, "q"))

    def test_matches_loop_oracle_on_a_dense_map(self):
        # a 32x32 map at score_thr 0: every cell x slot is a candidate, so
        # nms walks many blocks per label
        cfg = ModelConfig(**TINY_MODEL, score_thr=0.0)
        rng = np.random.default_rng(33)
        t = rng.standard_normal((3, 4))
        protos = PrototypeSet(s=t.copy(), t=t, class_ids=(2, 0, 1))
        store = init_params(cfg, seed=0)
        store.set_array("head.box_w", rng.standard_normal((4, 4)) * 0.5)
        store.set_array("head.box_b", np.array([-1.5, -1.5, 1.5, 1.5]))
        store.set_array("head.obj_w", rng.standard_normal((1, 4)))
        params = store.nodes()
        f_cam = rng.standard_normal((4, 32, 32))
        f_cam[:, ::2, ::3] = f_cam[:, :1, :1]  # repeated cells: score ties
        got = toy_head(f_cam, protos, params, cfg, "q")
        assert len(got) > 3 * NMS_BLOCK
        assert_same_detections(got, oracle_toy_head(f_cam, protos, params, cfg, "q"))

    @pytest.mark.parametrize("bad", ["nan-cell", "nan-map", "inf-box"])
    def test_non_finite_output_raises(self, bad):
        cfg = ModelConfig(**TINY_MODEL, score_thr=0.0)
        rng = np.random.default_rng(6)
        protos = PrototypeSet(s=rng.standard_normal((2, 4)), t=rng.standard_normal((2, 4)), class_ids=(0, 1))
        box_b = (-1.0, -1.0, np.inf, 1.0) if bad == "inf-box" else (-1.0, -1.0, 1.0, 1.0)
        params = self.head_params(init_params(cfg, seed=0), 0.0, box_b)
        f_cam = rng.standard_normal((4, 4, 4))
        if bad == "nan-cell":
            f_cam[:, 1, 2] = np.nan
        elif bad == "nan-map":
            f_cam[:] = np.nan
        with pytest.raises(NumericGuardError, match="non-finite"):
            toy_head(f_cam, protos, params, cfg, "q")

    def test_scores_are_the_training_posterior(self, monkeypatch):
        # with suppression off and every box a whole cell, each (cell, slot)
        # yields one candidate, scored by the softmax that train_loss fits
        cfg = ModelConfig(**TINY_MODEL, score_thr=0.0)
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 4))
        protos = PrototypeSet(s=t.copy(), t=t, class_ids=(7, 2, 5))
        store = init_params(cfg, seed=0)
        store.set_array("head.obj_w", rng.standard_normal((1, 4)))
        store.set_array("head.obj_b", rng.normal(0, 2, size=1))
        store.set_array("head.box_w", np.zeros((4, 4)))
        store.set_array("head.box_b", np.array([-0.5, -0.5, 0.5, 0.5]))
        params = store.nodes()
        f_cam = rng.standard_normal((4, 3, 5))
        monkeypatch.setattr(training, "nms", lambda boxes, scores, labels, thr=0.5: np.arange(len(scores)))
        dets = toy_head(f_cam, protos, params, cfg, "q")

        logits, _ = training.head(as_node(f_cam), protos, params, cfg.alpha)
        posterior = np.exp(ops.log_softmax(logits, axis=1).value)
        assert len(dets) == 3 * 5 * 3
        for d in dets:
            cell = int(d.box.y1) * 5 + int(d.box.x1)
            slot = protos.class_ids.index(d.class_id)
            assert abs(d.score - posterior[cell, slot]) <= 1e-12


class TestRunTraining:
    def test_zero_steps_leaves_init_untouched(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        tcfg = TrainConfig(steps_base=0, steps_finetune=0, seed=5)
        store, log = run_training(index, split, cfg, tcfg, supports[0])
        ref = init_params(cfg, seed=5)
        assert log == []
        assert sorted(store.keys()) == sorted(ref.keys())
        for key in store.keys():
            assert np.array_equal(store.array(key), ref.array(key))

    def test_zero_lr_repeats_identical_loss(self, tmp_path):
        # one image, one class: every base episode is the same, so a
        # frozen model must log the same loss at every step (the novel
        # class id never occurs in the data and the stage never uses it)
        index = tiny_dataset(tmp_path, classes=1, images=1)
        split = SplitSpec(base_classes=(0,), novel_classes=(1,))
        cfg = ModelConfig(**{**TINY_MODEL, "t_max": 1})
        tcfg = TrainConfig(steps_base=3, steps_finetune=0, lr=0.0, shots_per_step=1)
        _, log = run_training(index, split, cfg, tcfg, None)
        losses = {line.split("loss=")[1] for line in log}
        assert len(log) == 3 and len(losses) == 1

    def test_runaway_rate_raises_with_step(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        tcfg = TrainConfig(steps_base=20, steps_finetune=0, lr=1e6, shots_per_step=1)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            run_training(index, split, cfg, tcfg, supports[0])
        assert 0 < info.value.step < 20

    def test_finetune_requires_supports(self, tmp_path):
        index, split, cfg, _ = tiny_setup(tmp_path)
        tcfg = TrainConfig(steps_base=0, steps_finetune=1)
        with pytest.raises(PreconditionError):
            run_training(index, split, cfg, tcfg, None)

    def test_same_seed_bit_identical(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        tcfg = TrainConfig(steps_base=2, steps_finetune=2, lr=0.05, shots_per_step=1)
        store_a, log_a = run_training(index, split, cfg, tcfg, supports[0])
        store_b, log_b = run_training(index, split, cfg, tcfg, supports[0])
        assert log_a == log_b
        for key in store_a.keys():
            assert np.array_equal(store_a.array(key), store_b.array(key))

    def test_loss_logged_every_step(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        tcfg = TrainConfig(steps_base=2, steps_finetune=3, lr=0.05, shots_per_step=1)
        _, log = run_training(index, split, cfg, tcfg, supports[0])
        assert len(log) == 5
        assert [line.split()[1] for line in log] == (
            ["stage=base"] * 2 + ["stage=finetune"] * 3
        )
        assert [int(line.split()[0].split("=")[1]) for line in log] == list(range(5))


class TestInference:
    def test_prototype_width_checked(self, tmp_path):
        index, _, cfg, _ = tiny_setup(tmp_path)
        t = task_encodings(2, 6)
        protos = PrototypeSet(s=t.copy(), t=t, class_ids=(0, 1))
        rgb, ir = index.load_pair(sorted(index.entries)[0])
        with pytest.raises(PreconditionError):
            infer(rgb, ir, protos, cfg, init_params(cfg, seed=0).nodes())

    def test_detect_over_orders_by_image_id(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        cfg = cfg.with_updates(score_thr=0.0)
        store = init_params(cfg, seed=0)
        store.set_array("head.box_b", np.array([-1.0, -1.0, 1.0, 1.0]))
        params = store.nodes()
        protos = precompute_prototypes(index, supports, cfg, params)
        ids = list(index.entries)[:4]
        dets = detect_over(index, reversed(ids), protos, cfg, params)
        seen = [d.image_id for d in dets]
        assert seen and seen == sorted(seen)

    def test_ablate_thermal_zeroes_informative_half(self):
        rng = np.random.default_rng(0)
        rgb = rng.standard_normal((4, 3, 3))
        ir = rng.standard_normal((4, 3, 3))
        rgb2, ir2 = ablate_thermal(rgb, ir)
        assert np.array_equal(rgb2, rgb)
        assert np.array_equal(ir2[:2], ir[:2])
        assert np.all(ir2[2:] == 0.0)

    def test_precompute_fuses_and_pools_distinct_supports_once(self, tmp_path, monkeypatch):
        index, _, cfg, _ = tiny_setup(tmp_path)
        split = SplitSpec(base_classes=(0,), novel_classes=(1,))
        supports = build_supports(index, split, k=2, n_seeds=4)
        records = [g for s in supports for rs in s.instances.values() for g in rs]
        per_draw = [{g.image_id for rs in s.instances.values() for g in rs} for s in supports]
        distinct = set().union(*per_draw)
        assert len(distinct) < sum(len(ids) for ids in per_draw)  # the draws share images
        fused, pooled = [], []
        features, pool = training.query_features, prototypes.roi_vector

        def counting(rgb, ir, *rest):
            fused.append(rgb.shape)
            return features(rgb, ir, *rest)

        def counting_pool(feat, boxes, *rest):
            pooled.append((feat.shape, list(boxes)))
            return pool(feat, boxes, *rest)

        monkeypatch.setattr(training, "query_features", counting)
        monkeypatch.setattr(prototypes, "roi_vector", counting_pool)
        precompute_prototypes(index, supports, cfg, init_params(cfg, seed=0).nodes())
        assert fused == [(len(distinct), 4, 4, 4)]
        assert len(set(records)) < len(records)
        # one pooling call for the one map shape, each distinct record once
        assert [shape for shape, _ in pooled] == [(len(set(records)), 4, 4, 4)]
        assert Counter(pooled[0][1]) == Counter(g.box for g in set(records))

    def test_precompute_without_draws_rejected(self, tmp_path):
        index, _, cfg, _ = tiny_setup(tmp_path)
        with pytest.raises(PreconditionError, match="no prototype sets"):
            precompute_prototypes(index, [], cfg, init_params(cfg, seed=0).nodes())

    def test_equal_boxes_pool_to_equal_rows(self, tmp_path):
        index, _, cfg, supports = tiny_setup(tmp_path)
        # one box per class, both on the same image
        record = supports[0].instances[0][0]
        instances = {0: [record], 1: [dataclasses.replace(record, class_id=1)]}
        params = init_params(cfg, seed=0).nodes()
        maps = dict(zip([record.image_id], training.fuse_images(index, [record.image_id], cfg, params)))
        vectors = pool_supports(maps, [record, *instances[1]], cfg.roi_out, cfg.roi_sampling)
        protos = extract_prototypes(vectors, instances, (0, 1))
        assert protos.class_ids == (0, 1)
        assert np.array_equal(protos.values[0], protos.values[1])

    def test_infer_and_precompute_build_no_graph(self, tmp_path, monkeypatch):
        index, _, cfg, supports = tiny_setup(tmp_path)
        params = init_params(cfg, seed=0).nodes()
        built = []
        for name in ("extract_prototypes", "cam_forward"):
            def recording(*args, _fn=getattr(training, name), **kwargs):
                out = _fn(*args, **kwargs)
                built.append(out.s if isinstance(out, PrototypeSet) else out)
                return out

            monkeypatch.setattr(training, name, recording)
        protos = precompute_prototypes(index, supports, cfg, params)
        infer(*index.load_pair(sorted(index.entries)[0]), protos, cfg, params)
        assert len(built) == len(supports) + 1
        assert all(node._parents == () for node in built)
        assert (params["cam.w"] * 2.0)._parents  # graph mode again afterwards

    def test_infer_equals_graph_mode_oracle(self, tmp_path, batch_setup):
        """Value-only inference gives the detections, bit for bit, of the
        same forward with its graph built."""
        index, _, cfg, supports = tiny_setup(tmp_path)
        big_index, big_supports, big_store = batch_setup
        runs = [
            (index, supports, cfg.with_updates(score_thr=0.0), init_params(cfg, seed=0)),
            (big_index, big_supports, BATCH_MODEL.with_updates(score_thr=0.0), big_store),
        ]
        for run_index, run_supports, run_cfg, run_store in runs:
            params = run_store.nodes()
            params["head.box_b"] = as_node(np.array([-1.0, -1.0, 1.0, 1.0]))  # widening prior
            protos = precompute_prototypes(run_index, run_supports, run_cfg, params)
            found = 0
            for image_id in sorted(run_index.entries):
                rgb, ir = run_index.load_pair(image_id)
                got = infer(rgb, ir, protos, run_cfg, params, image_id)
                want = graph_mode_infer(rgb, ir, protos, run_cfg, params, image_id)
                assert_same_detections(got, want)
                found += len(got)
            assert found

    def test_duplicate_support_sets_average_to_themselves(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        params = init_params(cfg, seed=0).nodes()
        once = precompute_prototypes(index, [supports[0]], cfg, params)
        twice = precompute_prototypes(index, [supports[0], supports[0]], cfg, params)
        assert np.array_equal(once.values, twice.values)
        assert once.class_ids == twice.class_ids


def graph_mode_infer(rgb, ir, protos, cfg, params, image_id):
    """infer's forward with its graph built, as before value-only mode."""
    f_q = query_features(rgb, ir, cfg, params)
    f_cam = cam_forward(f_q, protos, params, gate_mode=cfg.gate_mode)
    return toy_head(f_cam, protos, params, cfg, image_id)


# The per-box pooling that one batched pool_supports call replaced, kept as
# its oracle: in graph mode, each record pooled on its own image's map by a
# roi_vector call of its own, and each class mean added image by image.
def per_box_prototypes(maps, instances, classes, out, sampling):
    per_class = {c: [] for c in classes}
    for image_id, records in training.group_by_image(instances, classes).items():
        m = maps[image_id]
        for record in records:
            vec = prototypes.roi_vector(m.reshape((1, *m.shape)), [record.box], out, sampling)
            per_class[record.class_id].append(vec.reshape(m.shape[:1]))
    rows = []
    for c in classes:
        total = per_class[c][0]
        for v in per_class[c][1:]:
            total = total + v
        rows.append(total * (1.0 / len(per_class[c])))
    d = rows[0].shape[0]
    s = ops.concat([v.reshape((1, d)) for v in rows], axis=0)
    return PrototypeSet(s=s, t=task_encodings(len(classes), d), class_ids=classes)


def per_box_train_loss(monkeypatch, *args):
    """train_loss with its prototypes built by per_box_prototypes: the
    pooling step hands its maps on, and the class means pool box by box."""
    with monkeypatch.context() as m:
        m.setattr(training, "pool_supports", lambda maps, records, out, sampling: (maps, out, sampling))
        m.setattr(
            training, "extract_prototypes",
            lambda pooled, instances, classes: per_box_prototypes(pooled[0], instances, classes, *pooled[1:]),
        )
        return train_loss(*args)


def per_draw_precompute(index, support_sets, cfg, params):
    """precompute_prototypes as it was before fuse-once and pool-once,
    kept as its oracle: in graph mode, each draw fuses its own images in
    one batch and pools each of its boxes."""
    per_seed = []
    for sset in support_sets:
        classes = sorted(sset.instances)
        grouped = training.group_by_image(sset.instances, classes)
        maps = dict(zip(grouped, training.fuse_images(index, grouped, cfg, params)))
        per_seed.append(per_box_prototypes(maps, sset.instances, classes, cfg.roi_out, cfg.roi_sampling))
    return average_prototypes(per_seed)


# The per-image fusion that one batched fusion per support draw and per
# training step replaced, kept as oracles: each image fused in a graph of
# its own, supports first, then the query.
def oracle_support_prototypes(index, instances, classes, cfg, params):
    grouped = {}
    for c in classes:
        for record in instances[c]:
            grouped.setdefault(record.image_id, []).append(record)
    maps = {image_id: query_features(*index.load_pair(image_id), cfg, params) for image_id in grouped}
    return per_box_prototypes(maps, instances, classes, cfg.roi_out, cfg.roi_sampling)


def per_image_fusion(index, image_ids, cfg, params):
    return [query_features(*index.load_pair(image_id), cfg, params) for image_id in image_ids]


def oracle_train_loss(monkeypatch, *args):
    """train_loss with each image fused in its own graph."""
    with monkeypatch.context() as m:
        m.setattr(training, "fuse_images", per_image_fusion)
        return train_loss(*args)


BATCH_MODEL = ModelConfig(
    channels=8, classes_total=3, t_max=3, na_k=3, r=2, s=0.5, k_off=3, roi_out=2, roi_sampling=1,
)
BATCH_SPLIT = SplitSpec(base_classes=(0, 2), novel_classes=(1,))


@pytest.fixture(scope="module")
def batch_setup(tmp_path_factory):
    """16x16 maps with up to two objects each, and a store whose offset
    branch is live, so every fusion parameter has a gradient."""
    scfg = SynthConfig(classes=3, images=12, channels=8, height=16, width=16, max_objects=2)
    index = generate_synthetic(tmp_path_factory.mktemp("batch"), scfg, seed=0)
    supports = build_supports(index, BATCH_SPLIT, k=2, n_seeds=2)
    store = init_params(BATCH_MODEL, seed=0)
    rng = np.random.default_rng(1)
    for prefix in ("cda_rgb", "cda_ir"):
        store.set_array(f"{prefix}.off_w", 2.0 * rng.standard_normal((2, 8)))
        store.set_array(f"{prefix}.off_b", 0.3 * rng.standard_normal(2))
    return index, supports, store


def batch_episode(index, supports, kind):
    """The first episode of a seeded stream that is of the asked kind, or,
    for "crowded", an episode whose first support image holds four of its
    six records, of all three classes, read at shared pixels, so the order
    in which that map's gradient adds their parts shows in its bits.
    Class 0 lists its record on the second image first, so its mean adds
    its records out of listed order."""
    if kind == "crowded":
        x, y = sorted(index.entries)[:2]
        query = sorted(index.entries)[2]
        box, near = Box(1.0, 2.0, 7.5, 9.0), Box(1.5, 2.5, 8.0, 9.5)  # their samples share pixels
        support = {
            2: [GroundTruth(box, 2, x), GroundTruth(Box(2.0, 2.0, 10.0, 10.0), 2, y)],
            0: [GroundTruth(Box(6.0, 3.0, 14.0, 12.5), 0, y), GroundTruth(near, 0, x), GroundTruth(box, 0, x)],
            1: [GroundTruth(box, 1, x)],
        }
        return Episode(slots=(2, 0, 1), support=support, query_id=query, query_gts=list(index.entries[query].boxes))
    stage = "base" if kind == "base" else "finetune"
    rng = np.random.default_rng(7)
    for _ in range(200):
        episode = sample_episode(
            index, BATCH_SPLIT, stage, rng, supports[0], t_max=3, shots_per_slot=2
        )
        supported = {g.image_id for records in episode.support.values() for g in records}
        if (kind == "query-is-support") == (episode.query_id in supported):
            return episode
    raise AssertionError(f"no {kind} episode drawn")


def assert_same_step(oracle, episode, setup, monkeypatch):
    """train_loss and `oracle`, train_loss computed another way, give the
    same loss and every parameter gradient bit for bit; returns the
    parameter nodes of train_loss's step."""
    index, _, store = setup
    want_nodes, got_nodes = store.nodes(), store.nodes()
    want = oracle(monkeypatch, episode, index, BATCH_MODEL, TrainConfig(), want_nodes)
    got = train_loss(episode, index, BATCH_MODEL, TrainConfig(), got_nodes)
    assert got.value == want.value
    backward(want)
    backward(got)
    for key in store.keys():
        w, g = want_nodes[key].grad, got_nodes[key].grad
        assert (w is None) == (g is None), key
        assert w is None or np.array_equal(w, g), key
    return got_nodes


class TestBatchedFusion:
    @pytest.mark.parametrize("kind", ["base", "finetune", "query-is-support"])
    def test_train_loss_equals_per_image_oracle(self, kind, batch_setup, monkeypatch):
        episode = batch_episode(*batch_setup[:2], kind)
        got_nodes = assert_same_step(oracle_train_loss, episode, batch_setup, monkeypatch)
        assert np.any(got_nodes["cda_rgb.wu"].grad)  # the offset branch is live

    @pytest.mark.parametrize("kind", ["base", "finetune", "query-is-support", "crowded"])
    def test_train_loss_equals_per_box_oracle(self, kind, batch_setup, monkeypatch):
        """One batched pooling call gives the loss and every parameter
        gradient of pooling each support box on its own, bit for bit; on
        the crowded episode four overlapping parts of one map's gradient
        are added."""
        assert_same_step(per_box_train_loss, batch_episode(*batch_setup[:2], kind), batch_setup, monkeypatch)

    def test_train_loss_pools_once_per_map_shape(self, tmp_path, monkeypatch):
        """Support records on 4x4 maps and on the 4x8 map: one pooling
        call per map shape, each record once."""
        index, _, cfg, _ = tiny_setup(tmp_path)
        add_wide_pair(index, tmp_path)
        first = sorted(index.entries)[0]
        records = [*index.entries[first].boxes, GroundTruth(Box(0.5, 0.5, 3.5, 3.0), 1, "wide")]
        records += [dataclasses.replace(g, image_id="wide") for g in index.entries[first].boxes]
        support = {c: [g for g in records if g.class_id == c] for c in sorted({g.class_id for g in records})}
        episode = Episode(tuple(support), support, first, list(index.entries[first].boxes))
        pooled, pool = [], prototypes.roi_vector

        def counting_pool(feat, boxes, *rest):
            pooled.append((feat.shape, list(boxes)))
            return pool(feat, boxes, *rest)

        monkeypatch.setattr(prototypes, "roi_vector", counting_pool)
        train_loss(episode, index, cfg, TrainConfig(), init_params(cfg, seed=0).nodes())
        n_wide = sum(g.image_id == "wide" for g in records)
        assert sorted(shape for shape, _ in pooled) == sorted([(n_wide, 4, 4, 8), (len(records) - n_wide, 4, 4, 4)])
        assert Counter(b for _, boxes in pooled for b in boxes) == Counter(g.box for g in records)

    def test_train_loss_fuses_once_per_step(self, batch_setup, monkeypatch):
        index, supports, store = batch_setup
        episode = batch_episode(index, supports, "query-is-support")
        fused = []

        def counting(rgb, ir, *rest):
            fused.append(rgb.shape)
            return query_features(rgb, ir, *rest)

        monkeypatch.setattr(training, "query_features", counting)
        train_loss(episode, index, BATCH_MODEL, TrainConfig(), store.nodes())
        images = {g.image_id for records in episode.support.values() for g in records}
        assert fused == [(len(images) + 1, 8, 16, 16)]

    def test_support_prototypes_equal_per_image_oracle(self, batch_setup):
        index, supports, store = batch_setup
        sset = supports[1]
        classes = sorted(sset.instances)
        probe = np.random.default_rng(2).standard_normal((len(classes), 8))
        want_nodes, got_nodes = store.nodes(), store.nodes()
        want = oracle_support_prototypes(index, sset.instances, classes, BATCH_MODEL, want_nodes)
        grouped = training.group_by_image(sset.instances, classes)
        maps = dict(zip(grouped, training.fuse_images(index, grouped, BATCH_MODEL, got_nodes)))
        records = [g for rs in grouped.values() for g in rs]
        vectors = pool_supports(maps, records, BATCH_MODEL.roi_out, BATCH_MODEL.roi_sampling)
        got = extract_prototypes(vectors, sset.instances, classes)
        assert np.array_equal(got.values, want.values) and got.class_ids == want.class_ids
        backward((want.s * probe).sum())
        backward((got.s * probe).sum())
        for key in store.keys():
            w, g = want_nodes[key].grad, got_nodes[key].grad
            assert (w is None) == (g is None), key
            assert w is None or np.array_equal(w, g), key

    @pytest.mark.parametrize("n_seeds", [2, 5])
    def test_precompute_equals_per_draw_oracle(self, batch_setup, n_seeds):
        """Fuse-once and pool-once give the per-draw table bit for bit, on
        draws that share images and on images with two support boxes."""
        index, _, store = batch_setup
        supports = build_supports(index, BATCH_SPLIT, k=2, n_seeds=n_seeds)
        records = [g for s in supports for rs in s.instances.values() for g in rs]
        assert len({g.image_id for g in records}) < len(records)
        assert max(Counter(g.image_id for g in set(records)).values()) >= 2  # an image with two boxes
        want = per_draw_precompute(index, supports, BATCH_MODEL, store.nodes())
        got = precompute_prototypes(index, supports, BATCH_MODEL, store.nodes())
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.t, want.t) and got.class_ids == want.class_ids

    def test_maps_of_different_shapes_fuse_one_by_one(self, tmp_path):
        index = tiny_dataset(tmp_path)
        add_wide_pair(index, tmp_path)
        cfg = ModelConfig(**TINY_MODEL)
        params = init_params(cfg, seed=0).nodes()
        ids = [sorted(index.entries)[0], "wide"]
        maps = training.fuse_images(index, ids, cfg, params)
        assert [m.value.shape for m in maps] == [(4, 4, 4), (4, 4, 8)]
        for image_id, m in zip(ids, maps):
            assert np.array_equal(m.value, query_features(*index.load_pair(image_id), cfg, params).value)

    def test_precompute_pools_once_per_map_shape(self, tmp_path, monkeypatch):
        """Support images of two map sizes: one pooling call per size, and
        the per-draw table bit for bit."""
        index, _, cfg, supports = tiny_setup(tmp_path)
        add_wide_pair(index, tmp_path)
        # the second draw moves one record of each class onto the wide map
        wide = SupportSet(k=2, instances={
            c: [rs[0], dataclasses.replace(rs[1], image_id="wide")] for c, rs in supports[1].instances.items()
        })
        draws = [supports[0], wide]
        params = init_params(cfg, seed=0).nodes()
        want = per_draw_precompute(index, draws, cfg, params)
        pooled, pool = [], prototypes.roi_vector

        def counting_pool(feat, boxes, *rest):
            pooled.append(feat.shape)
            return pool(feat, boxes, *rest)

        monkeypatch.setattr(prototypes, "roi_vector", counting_pool)
        got = precompute_prototypes(index, draws, cfg, params)
        records = {g for s in draws for rs in s.instances.values() for g in rs}
        n_wide = sum(g.image_id == "wide" for g in records)
        assert n_wide == 2
        assert sorted(pooled) == sorted([(n_wide, 4, 4, 8), (len(records) - n_wide, 4, 4, 4)])
        assert np.array_equal(got.values, want.values) and got.class_ids == want.class_ids


class TestAggregationOpsInTraining:
    @pytest.mark.parametrize("gate_mode", ["filter", "matrix"])
    @pytest.mark.parametrize("kind", ["finetune", "crowded"])
    def test_train_step_equals_composed_graph(self, kind, gate_mode, batch_setup, monkeypatch):
        """A seeded train_loss step with ops.aggregate and
        ops.cosine_cross_entropy gives the loss, every parameter gradient
        and the gradient reaching each op input of the composed graphs,
        bit for bit and in the same memory order."""
        index, supports, store = batch_setup
        episode = batch_episode(index, supports, kind)
        cfg = BATCH_MODEL.with_updates(gate_mode=gate_mode)
        results = []
        for composed in (False, True):
            params = store.nodes()
            loss, inputs = run_recording_op_inputs(
                monkeypatch, composed, lambda: train_loss(episode, index, cfg, TrainConfig(), params)
            )
            backward(loss)
            results.append([loss.value, *(params[k].grad for k in store.keys()), *(n.grad for n in inputs)])
        assert len(results[0]) == len(results[1]) == 1 + len(store.keys()) + 10
        assert all(a is None and b is None or same_bits(a, b) for a, b in zip(*results))


def add_wide_pair(index, root):
    """Add image "wide": the first pair's maps tiled twice along the width,
    with that pair's boxes."""
    entry = index.entries[sorted(index.entries)[0]]
    paths = []
    for name, m in zip(("rgb", "ir"), index.load_pair(entry.image_id)):
        paths.append(root / f"wide_{name}.fmp")
        fmp.write_map(paths[-1], np.tile(m, (1, 1, 2)))
    index.add(dataclasses.replace(entry, image_id="wide", rgb_path=paths[0], ir_path=paths[1]))
