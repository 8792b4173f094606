import math

import numpy as np
import pytest

from fusedet.autodiff import ParamStore, grad_check
from fusedet.errors import NumericGuardError, PreconditionError, ShapeError
from fusedet.evaluation import Box, GroundTruth
from fusedet.ops import bilinear_sample, sigmoid
from fusedet.prototypes import (
    PrototypeSet,
    average_prototypes,
    cam_forward,
    cosine_ce_loss,
    extract_prototypes,
    init_cam_params,
    load_prototypes,
    roi_align,
    roi_vector,
    save_prototypes,
    task_encodings,
)


def roi_align_oracle(x: np.ndarray, box: Box, out: int, sampling: int) -> np.ndarray:
    """Enumerate every sub-bin sample point and average per bin."""
    d, h, w = x.shape
    res = np.zeros((d, out, out))
    bin_h = (box.y2 - box.y1) / out
    bin_w = (box.x2 - box.x1) / out
    for bi in range(out):
        for bj in range(out):
            acc = np.zeros(d)
            for si in range(sampling):
                for sj in range(sampling):
                    cy = box.y1 + (bi + (si + 0.5) / sampling) * bin_h - 0.5
                    cx = box.x1 + (bj + (sj + 0.5) / sampling) * bin_w - 0.5
                    cy = min(max(cy, 0.0), h - 1.0)
                    cx = min(max(cx, 0.0), w - 1.0)
                    xn = 0.0 if w == 1 else 2.0 * cx / (w - 1) - 1.0
                    yn = 0.0 if h == 1 else 2.0 * cy / (h - 1) - 1.0
                    acc += bilinear_sample(x, np.array([[xn], [yn]])).value[:, 0]
            res[:, bi, bj] = acc / (sampling * sampling)
    return res


def record(x1, y1, x2, y2, class_id):
    return GroundTruth(Box(x1, y1, x2, y2), class_id, "a")


class TestRoiAlign:
    def test_out_of_bounds_rejected(self):
        with pytest.raises(PreconditionError, match="exceeds map extent"):
            roi_align(np.zeros((1, 8, 8)), Box(0.0, 0.0, 9.0, 3.0))

    def test_box_flush_with_map_edge_passes(self):
        out = roi_align(np.full((1, 8, 8), 2.0), Box(0.0, 0.0, 8.0, 8.0), out=2, sampling=1)
        assert np.array_equal(out.value, np.full((1, 2, 2), 2.0))

    def test_constant_map_gives_constant_output(self):
        x = np.full((3, 6, 6), 2.5)
        out = roi_align(x, Box(0.7, 1.3, 5.2, 4.9), out=3, sampling=2)
        assert np.allclose(out.value, 2.5, atol=1e-12)

    def test_single_pixel_box_reads_that_pixel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 5))
        out = roi_align(x, Box(1.0, 1.0, 2.0, 2.0), out=1, sampling=1)
        assert np.allclose(out.value[:, 0, 0], x[:, 1, 1], atol=1e-12)

    def test_matches_sample_and_average_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 8))
        box = Box(1.0, 1.0, 5.0, 7.0)
        got = roi_align(x, box, out=2, sampling=2).value
        want = roi_align_oracle(x, box, out=2, sampling=2)
        assert np.abs(got - want).max() <= 1e-12

    def test_larger_grid_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 9, 7))
        box = Box(0.5, 2.0, 6.5, 8.5)
        got = roi_align(x, box, out=3, sampling=3).value
        want = roi_align_oracle(x, box, out=3, sampling=3)
        assert np.abs(got - want).max() <= 1e-12

    def test_roi_vector_is_global_average(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 8, 8))
        box = Box(1.0, 1.0, 6.0, 6.0)
        grid = roi_align(x, box, out=4, sampling=2).value
        vec = roi_vector(x, box, out=4, sampling=2).value
        assert np.allclose(vec, grid.mean(axis=(1, 2)), atol=1e-12)


class TestExtractPrototypes:
    def test_constant_map_prototype(self):
        x = np.full((4, 6, 6), 3.0)
        supports = [(x, [record(1.0, 1.0, 4.0, 4.0, class_id=7)])]
        protos = extract_prototypes(supports, [7])
        assert protos.class_ids == (7,)
        assert np.allclose(protos.values, 3.0, atol=1e-12)

    def test_two_boxes_average(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 8, 8))
        b1 = record(0.0, 0.0, 4.0, 4.0, class_id=0)
        b2 = record(3.0, 3.0, 8.0, 8.0, class_id=0)
        protos = extract_prototypes([(x, [b1, b2])], [0])
        v1, v2 = roi_vector(x, b1.box).value, roi_vector(x, b2.box).value
        assert np.allclose(protos.values[0], (v1 + v2) / 2.0, atol=1e-12)

    def test_matches_brute_force_over_classes(self):
        rng = np.random.default_rng(5)
        maps = [rng.standard_normal((4, 8, 8)) for _ in range(3)]
        supports = []
        per_class: dict[int, list[np.ndarray]] = {0: [], 1: [], 2: []}
        for m in maps:
            boxes = []
            for c in range(3):
                x1, y1 = rng.uniform(0, 3, size=2)
                bw, bh = rng.uniform(2, 4, size=2)
                box = Box(float(x1), float(y1), float(min(x1 + bw, 8.0)), float(min(y1 + bh, 8.0)))
                boxes.append(GroundTruth(box, c, "a"))
                per_class[c].append(roi_vector(m, box).value)
            supports.append((m, boxes))
        protos = extract_prototypes(supports, [0, 1, 2])
        for c in range(3):
            want = np.mean(per_class[c], axis=0)
            assert np.allclose(protos.values[c], want, atol=1e-12)

    def test_box_order_within_class_is_irrelevant(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 8, 8))
        b1 = record(0.0, 0.0, 3.0, 3.0, class_id=0)
        b2 = record(4.0, 4.0, 8.0, 8.0, class_id=0)
        p_ab = extract_prototypes([(x, [b1, b2])], [0])
        p_ba = extract_prototypes([(x, [b2, b1])], [0])
        assert np.allclose(p_ab.values, p_ba.values, atol=1e-12)

    def test_missing_class_is_named(self):
        x = np.zeros((2, 4, 4))
        supports = [(x, [record(0.0, 0.0, 2.0, 2.0, class_id=0)])]
        with pytest.raises(PreconditionError, match="class 3"):
            extract_prototypes(supports, [0, 3])


class TestTaskEncodings:
    def test_row_zero_alternates(self):
        t = task_encodings(3, 6)
        assert np.array_equal(t[0], np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))

    def test_deterministic(self):
        assert np.array_equal(task_encodings(5, 8), task_encodings(5, 8))

    def test_matches_formula(self):
        t = task_encodings(4, 8)
        for c in range(4):
            for m in range(4):
                angle = c / 10000.0 ** (2 * m / 8.0)
                assert abs(t[c, 2 * m] - math.sin(angle)) <= 1e-15
                assert abs(t[c, 2 * m + 1] - math.cos(angle)) <= 1e-15

    def test_odd_width_rejected(self):
        with pytest.raises(PreconditionError):
            task_encodings(2, 5)


def make_protos(c: int, d: int, seed: int) -> PrototypeSet:
    rng = np.random.default_rng(seed)
    return PrototypeSet(s=rng.standard_normal((c, d)), t=task_encodings(c, d), class_ids=tuple(range(c)))


class TestCamForward:
    def test_single_class_closed_form(self):
        rng = np.random.default_rng(7)
        d = 4
        protos = make_protos(1, d, seed=8)
        store = ParamStore(seed=9)
        init_cam_params(store, "cam", d)
        f_q = rng.standard_normal((d, 3, 3))
        got = cam_forward(f_q, protos, store.nodes()).value

        s0 = protos.values[0]
        flat = f_q.reshape(d, 9).T
        q_f = flat * sigmoid(s0).value
        q_e = np.tile(protos.t[0], (9, 1))
        inner = q_f + q_e
        w1, b1 = store.array("cam.ffn_w1"), store.array("cam.ffn_b1")
        w2, b2 = store.array("cam.ffn_w2"), store.array("cam.ffn_b2")
        hidden = np.maximum(inner @ w1 + b1, 0.0)
        want = (hidden @ w2 + b2).T.reshape(d, 3, 3)
        assert np.abs(got - want).max() <= 1e-10

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        d = 4
        protos = make_protos(3, d, seed=11)
        store = ParamStore(seed=12)
        init_cam_params(store, "cam", d)
        f_q = rng.standard_normal((d, 3, 3))
        attn = cam_forward(f_q, protos, store.nodes(), return_attention=True)[1].value
        assert attn.shape == (9, 3)
        assert np.all(attn >= 0.0)
        assert np.abs(attn.sum(axis=1) - 1.0).max() <= 1e-12

    def test_swapping_prototype_rows_swaps_attention_columns(self):
        rng = np.random.default_rng(13)
        d = 4
        protos = make_protos(2, d, seed=14)
        swapped = PrototypeSet(s=protos.values[::-1].copy(), t=protos.t, class_ids=(1, 0))
        store = ParamStore(seed=15)
        init_cam_params(store, "cam", d)
        f_q = rng.standard_normal((d, 3, 3))
        a1 = cam_forward(f_q, protos, store.nodes(), return_attention=True)[1].value
        a2 = cam_forward(f_q, swapped, store.nodes(), return_attention=True)[1].value
        assert np.array_equal(a1[:, [1, 0]], a2)

    def test_matrix_gate_mode(self):
        rng = np.random.default_rng(16)
        d = 4
        protos = make_protos(2, d, seed=17)
        store = ParamStore(seed=18)
        init_cam_params(store, "cam", d)
        f_q = rng.standard_normal((d, 3, 3))
        got, attn = cam_forward(f_q, protos, store.nodes(), gate_mode="matrix", return_attention=True)
        a = attn.value
        q_f = a @ sigmoid(protos.s).value
        q_e = a @ protos.t
        inner = q_f + q_e
        w1, b1 = store.array("cam.ffn_w1"), store.array("cam.ffn_b1")
        w2, b2 = store.array("cam.ffn_w2"), store.array("cam.ffn_b2")
        hidden = np.maximum(inner @ w1 + b1, 0.0)
        want = (hidden @ w2 + b2).T.reshape(d, 3, 3)
        assert np.abs(got.value - want).max() <= 1e-10

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(19)
        d, c = 4, 2
        protos = make_protos(c, d, seed=20)
        store = ParamStore(seed=21)
        init_cam_params(store, "cam", d)
        f_q = rng.standard_normal((d, 3, 3))
        got = cam_forward(f_q, protos, store.nodes()).value

        w = store.array("cam.w")
        flat = f_q.reshape(d, 9).T
        logits = (flat @ w) @ (protos.values @ w).T / np.sqrt(d)
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        a = e / e.sum(axis=1, keepdims=True)
        gate = a @ (1.0 / (1.0 + np.exp(-protos.values)))
        inner = flat * gate + a @ protos.t
        hidden = np.maximum(inner @ store.array("cam.ffn_w1") + store.array("cam.ffn_b1"), 0.0)
        want = (hidden @ store.array("cam.ffn_w2") + store.array("cam.ffn_b2")).T.reshape(d, 3, 3)
        assert np.abs(got - want).max() <= 1e-10

    def test_channel_mismatch_rejected(self):
        protos = make_protos(2, 4, seed=22)
        store = ParamStore(seed=23)
        init_cam_params(store, "cam", 4)
        with pytest.raises(ShapeError):
            cam_forward(np.zeros((3, 2, 2)), protos, store.nodes())

    def test_unknown_gate_mode_rejected(self):
        protos = make_protos(2, 4, seed=24)
        store = ParamStore(seed=25)
        init_cam_params(store, "cam", 4)
        with pytest.raises(PreconditionError):
            cam_forward(np.zeros((4, 2, 2)), protos, store.nodes(), gate_mode="blend")


class TestCosineCELoss:
    def test_orthogonal_pair_closed_form(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = cosine_ce_loss(s, s.copy(), [0, 1], alpha=1.0)
        want = math.log(1.0 + math.exp(-1.0))
        assert abs(float(loss.value) - want) <= 1e-12
        assert abs(float(loss.value) - 0.31326168751822286) <= 1e-12

    def test_exact_scale_invariance(self):
        rng = np.random.default_rng(26)
        s = rng.standard_normal((3, 5))
        w = rng.standard_normal((4, 5))
        labels = [2, 0, 3]
        a = cosine_ce_loss(s, w, labels).value
        b = cosine_ce_loss(2.0 * s, w, labels).value
        assert float(a) == float(b)

    def test_perfect_alignment_high_alpha_drives_loss_to_zero(self):
        s = np.eye(3)
        loss = cosine_ce_loss(s, s.copy(), [0, 1, 2], alpha=200.0)
        assert float(loss.value) < 1e-12

    def test_zero_norm_row_guarded(self):
        s = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericGuardError):
            cosine_ce_loss(s, np.eye(2), [0, 1])
        with pytest.raises(NumericGuardError):
            cosine_ce_loss(np.eye(2), s, [0, 1])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            cosine_ce_loss(np.eye(2), np.eye(2), [0, 5])


class TestAveragePrototypes:
    def test_single_set_is_identity(self):
        p = make_protos(2, 4, seed=27)
        avg = average_prototypes([p])
        assert np.allclose(avg.values, p.values, atol=1e-15)
        assert avg.class_ids == p.class_ids

    def test_opposite_sets_cancel(self):
        p = make_protos(2, 4, seed=28)
        q = PrototypeSet(s=-p.values, t=p.t, class_ids=p.class_ids)
        avg = average_prototypes([p, q])
        assert np.abs(avg.values).max() <= 1e-15

    def test_ten_sets_match_brute_force(self):
        sets = [make_protos(3, 6, seed=s) for s in range(10)]
        avg = average_prototypes(sets)
        want = np.mean([p.values for p in sets], axis=0)
        assert np.abs(avg.values - want).max() <= 1e-12

    def test_mismatched_classes_rejected(self):
        p = make_protos(2, 4, seed=29)
        q = PrototypeSet(s=p.values, t=p.t, class_ids=(5, 6))
        with pytest.raises(PreconditionError):
            average_prototypes([p, q])

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            average_prototypes([])


class TestPrototypeFiles:
    def test_round_trip(self, tmp_path):
        p = make_protos(3, 4, seed=30)
        path = tmp_path / "protos.pst"
        save_prototypes(path, p)
        back = load_prototypes(path)
        assert np.array_equal(back.values, p.values)
        assert back.class_ids == p.class_ids
        assert np.array_equal(back.t, p.t)

    def test_one_store_file(self, tmp_path):
        p = PrototypeSet(s=make_protos(2, 4, seed=31).values, t=task_encodings(2, 4), class_ids=(7, 3))
        path = tmp_path / "protos.pst"
        save_prototypes(path, p)
        assert [q.name for q in tmp_path.iterdir()] == ["protos.pst"]
        store = ParamStore.load(path)
        assert sorted(store.keys()) == ["class_ids", "prototypes"]
        assert np.array_equal(store.array("prototypes"), p.values)
        assert np.array_equal(store.array("class_ids"), [7.0, 3.0])


class TestGradients:
    def test_cam_with_cosine_loss(self):
        rng = np.random.default_rng(31)
        c, d = 2, 4
        store = ParamStore(seed=31)
        init_cam_params(store, "cam", d)
        store.xavier_uniform("meta.class_weights", (c, d), d, c)
        store.xavier_uniform("protos", (c, d), d, c)
        f_q = rng.standard_normal((d, 3, 3))
        probe = rng.standard_normal((d, 3, 3))
        t = task_encodings(c, d)

        def build(p):
            protos = PrototypeSet(s=p["protos"], t=t, class_ids=tuple(range(c)))
            agg = cam_forward(f_q, protos, p)
            return (agg * probe).sum() + cosine_ce_loss(protos.s, p["meta.class_weights"], list(range(c)))

        assert grad_check(build, store) <= 1e-6
