import dataclasses

import numpy as np
import pytest

from fusedet import ops, training
from fusedet.audit import train_grad_case
from fusedet.autodiff import as_node, grad_check
from fusedet.data import SplitSpec, build_supports, sample_episode
from fusedet.errors import DivergenceError, NumericGuardError, PreconditionError
from fusedet.evaluation import Box, Detection, iou
from fusedet.model import ModelConfig, init_params
from fusedet.prototypes import PrototypeSet, task_encodings
from fusedet.synth import SynthConfig, generate_synthetic
from fusedet.training import (
    TrainConfig,
    ablate_thermal,
    detect_over,
    infer,
    nms,
    precompute_prototypes,
    run_training,
    toy_head,
    support_prototypes,
    train_loss,
)

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

    def test_gradient_matches_finite_differences(self, tmp_path):
        store, build = train_grad_case(tmp_path, seed=0)
        assert grad_check(build, store) <= 1e-6


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

    def test_ablate_callback_changes_detections(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        cfg = cfg.with_updates(score_thr=0.0)  # untrained scores still detect
        store = init_params(cfg, seed=0)
        store.set_array("head.box_b", np.array([-1.0, -1.0, 1.0, 1.0]))  # widening prior
        params = store.nodes()
        protos = precompute_prototypes(index, supports, cfg, params)
        ids = sorted(index.entries)[:2]
        plain = detect_over(index, ids, protos, cfg, params)
        noisy = detect_over(
            index, ids, protos, cfg, params,
            ablate=lambda rgb, ir: (rgb + 1.0, ir - 1.0),
        )
        assert plain and plain != noisy

    def test_ablate_thermal_zeroes_informative_half(self):
        rng = np.random.default_rng(0)
        rgb = rng.standard_normal((4, 3, 3))
        ir = rng.standard_normal((4, 3, 3))
        rgb2, ir2 = ablate_thermal(rgb, ir)
        assert np.array_equal(rgb2, rgb)
        assert np.array_equal(ir2[:2], ir[:2])
        assert np.all(ir2[2:] == 0.0)

    def test_support_prototypes_fuse_each_image_once(self, tmp_path, monkeypatch):
        index, _, cfg, supports = tiny_setup(tmp_path)
        # one box per class, both on the same image: that image is fused
        # once, and the two equal boxes pool to equal prototype rows
        record = supports[0].instances[0][0]
        instances = {0: [record], 1: [dataclasses.replace(record, class_id=1)]}
        fused = []
        features = training.query_features

        def counting(rgb, ir, *rest):
            fused.append(rgb)
            return features(rgb, ir, *rest)

        monkeypatch.setattr(training, "query_features", counting)
        protos = support_prototypes(index, instances, (0, 1), cfg, init_params(cfg, seed=0).nodes())
        assert len(fused) == 1
        assert protos.class_ids == (0, 1)
        assert np.array_equal(protos.values[0], protos.values[1])

    def test_duplicate_support_sets_average_to_themselves(self, tmp_path):
        index, split, cfg, supports = tiny_setup(tmp_path)
        params = init_params(cfg, seed=0).nodes()
        once = precompute_prototypes(index, [supports[0]], cfg, params)
        twice = precompute_prototypes(index, [supports[0], supports[0]], cfg, params)
        assert np.allclose(once.values, twice.values, atol=1e-15)
        assert once.class_ids == twice.class_ids
