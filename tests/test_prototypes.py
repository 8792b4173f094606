import functools
import math
import re

import numpy as np
import pytest

from conftest import composed_aggregate, composed_cosine_cross_entropy, run_recording_op_inputs, same_bits
from fusedet import audit, ops
from fusedet.autodiff import Node, ParamStore, as_node, backward, grad_check
from fusedet.deformable import normalize_coords
from fusedet.errors import NumericGuardError, PreconditionError, ShapeError
from fusedet.evaluation import Box, GroundTruth
from fusedet.ops import bilinear_sample, sigmoid
from fusedet.prototypes import (
    GATE_MODES,
    PrototypeSet,
    average_prototypes,
    cam_forward,
    cosine_ce_loss,
    extract_prototypes,
    init_cam_params,
    load_prototypes,
    pool_supports,
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


def roi_align_loop_grid(x, box: Box, out: int, sampling: int):
    """roi_align with its sample grid built by the 4-deep Python loop that
    the broadcast grid replaced, kept as its bit-exact oracle."""
    d, h, w = x.value.shape
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
    sampled = bilinear_sample(x, normalize_coords(px, py, h, w))
    return sampled.reshape((d, out, out, sampling * sampling)).mean(axis=3)


def record(x1, y1, x2, y2, class_id, image_id="a"):
    return GroundTruth(Box(x1, y1, x2, y2), class_id, image_id)


class TestRoiAlign:
    def test_out_of_bounds_rejected(self):
        with pytest.raises(PreconditionError, match="exceeds map extent"):
            roi_align(np.zeros((1, 1, 8, 8)), [Box(0.0, 0.0, 9.0, 3.0)])

    def test_box_flush_with_map_edge_passes(self):
        out = roi_align(np.full((1, 1, 8, 8), 2.0), [Box(0.0, 0.0, 8.0, 8.0)], out=2, sampling=1)
        assert np.array_equal(out.value, np.full((1, 1, 2, 2), 2.0))

    def test_constant_map_gives_constant_output(self):
        x = np.full((3, 6, 6), 2.5)
        out = roi_align(x[None], [Box(0.7, 1.3, 5.2, 4.9)], out=3, sampling=2)
        assert np.allclose(out.value, 2.5, atol=1e-12)

    def test_single_pixel_box_reads_that_pixel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 5))
        out = roi_align(x[None], [Box(1.0, 1.0, 2.0, 2.0)], out=1, sampling=1)
        assert np.allclose(out.value[0, :, 0, 0], x[:, 1, 1], atol=1e-12)

    def test_matches_sample_and_average_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 8))
        box = Box(1.0, 1.0, 5.0, 7.0)
        got = roi_align(x[None], [box], out=2, sampling=2).value[0]
        want = roi_align_oracle(x, box, out=2, sampling=2)
        assert np.abs(got - want).max() <= 1e-12

    def test_larger_grid_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 9, 7))
        box = Box(0.5, 2.0, 6.5, 8.5)
        got = roi_align(x[None], [box], out=3, sampling=3).value[0]
        want = roi_align_oracle(x, box, out=3, sampling=3)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("out, sampling", [(2, 1), (7, 2)])
    @pytest.mark.parametrize("box", [Box(0.7, 1.3, 5.2, 4.9), Box(0.0, 2.5, 7.0, 6.0)], ids=["inner", "flush"])
    def test_broadcast_grid_equals_loop_grid(self, out, sampling, box):
        """Value and map gradient bit for bit, also for a box flush with
        the left and right edges of the (3, 6, 7) map."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 6, 7))
        probe = rng.standard_normal((3, out, out))
        got_x, want_x = as_node(x[None]), as_node(x)
        got = roi_align(got_x, [box], out=out, sampling=sampling)
        want = roi_align_loop_grid(want_x, box, out, sampling)
        assert np.array_equal(got.value[0], want.value)
        backward((got * probe).sum())
        backward((want * probe).sum())
        assert np.array_equal(got_x.grad[0], want_x.grad)

    def test_roi_vector_is_global_average(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 8, 8))
        box = Box(1.0, 1.0, 6.0, 6.0)
        grid = roi_align(x[None], [box], out=4, sampling=2).value
        vec = roi_vector(x[None], [box], out=4, sampling=2).value
        assert np.allclose(vec, grid.mean(axis=(2, 3)), atol=1e-12)


# (name, maps, boxes): box b of each case pools on map b.  The (2, 6, 9)
# map is not square; "flush" boxes touch the map's edges.
_M = np.random.default_rng(8).standard_normal((3, 2, 6, 9))
BATCH_CASES = [
    ("inner", [_M[0], _M[1]], [Box(0.7, 1.3, 5.2, 4.9), Box(2.25, 0.5, 8.0, 3.75)]),
    ("flush", [_M[0], _M[1], _M[2]], [Box(0.0, 0.0, 9.0, 6.0), Box(0.0, 2.5, 9.0, 6.0), Box(3.0, 0.0, 9.0, 1.5)]),
    ("one-channel", [_M[0, :1], _M[1, :1]], [Box(1.0, 1.0, 4.0, 5.0), Box(0.0, 0.0, 9.0, 6.0)]),
    ("repeated-map", [_M[2], _M[2]], [Box(0.5, 0.5, 3.5, 4.0), Box(4.0, 1.0, 9.0, 6.0)]),
]


class TestBatchedRoiAlign:
    """A (B, D, H, W) batch with B boxes against one call per box."""

    @pytest.mark.parametrize("out, sampling", [(2, 1), (7, 2), (3, 3)])
    @pytest.mark.parametrize("maps, boxes", [c[1:] for c in BATCH_CASES], ids=[c[0] for c in BATCH_CASES])
    def test_equals_per_box_calls(self, maps, boxes, out, sampling):
        """Values of roi_align and roi_vector, and the map gradient of
        roi_align, bit for bit."""
        batch = as_node(np.stack(maps))
        probe = np.random.default_rng(9).standard_normal((len(boxes), maps[0].shape[0], out, out))
        got = roi_align(batch, boxes, out=out, sampling=sampling)
        lone = [as_node(m[None]) for m in maps]
        want = [roi_align(m, [box], out=out, sampling=sampling) for m, box in zip(lone, boxes)]
        assert np.array_equal(got.value, np.concatenate([w.value for w in want]))
        vectors = roi_vector(batch.value, boxes, out=out, sampling=sampling).value
        for vec, m, box in zip(vectors, maps, boxes):
            assert np.array_equal(vec, roi_vector(m[None], [box], out=out, sampling=sampling).value[0])
        backward((got * probe).sum())
        for w, m, p, g in zip(want, lone, probe, batch.grad):
            backward((w * p).sum())
            assert np.array_equal(g, m.grad[0])

    def test_box_count_must_match_batch(self):
        with pytest.raises(ShapeError, match="3 boxes"):
            roi_align(np.zeros((2, 1, 6, 6)), [Box(0.0, 0.0, 2.0, 2.0)] * 3)
        with pytest.raises(ShapeError, match="1 boxes"):
            roi_vector(np.zeros((2, 1, 6, 6)), [Box(0.0, 0.0, 2.0, 2.0)])
        with pytest.raises(ShapeError, match="2 boxes"):
            roi_align(np.zeros((1, 1, 6, 6)), [Box(0.0, 0.0, 2.0, 2.0)] * 2)

    def test_box_outside_its_map_is_named(self):
        bad = Box(1.0, 1.0, 7.5, 3.0)
        with pytest.raises(PreconditionError, match=re.escape(f"box {bad} exceeds map extent (6, 7)")):
            roi_align(np.zeros((2, 1, 6, 7)), [Box(0.0, 0.0, 7.0, 6.0), bad])

    @pytest.mark.parametrize("shape", [(6, 6), (1, 2, 1, 6, 6), (1, 6, 6)])
    def test_map_rank_checked(self, shape):
        """Only a (B, D, H, W) batch is taken, not a lone (D, H, W) map."""
        boxes = [Box(0.0, 0.0, 2.0, 2.0)] * (shape[0] if len(shape) == 5 else 1)
        with pytest.raises(ShapeError, match="feature map"):
            roi_align(np.zeros(shape), boxes)


def pooled_prototypes(maps, instances, classes):
    """extract_prototypes over every record pooled by pool_supports, on
    maps by image id, at roi_align's default grid."""
    records = [r for rs in instances.values() for r in rs]
    return extract_prototypes(pool_supports(maps, records, 7, 2), instances, classes)


def lone_vector(x, box, out=7, sampling=2):
    return roi_vector(x[None], [box], out=out, sampling=sampling).value[0]


class TestPoolSupports:
    def test_equals_per_record_calls(self):
        """Records on maps of two shapes, two on one map, one listed
        twice: each distinct record's vector, bit for bit."""
        rng = np.random.default_rng(10)
        maps = {"a": rng.standard_normal((2, 6, 6)), "b": rng.standard_normal((2, 6, 9)),
                "c": rng.standard_normal((2, 6, 6))}
        records = [record(0.5, 1.0, 4.0, 5.5, 0, "a"), record(2.0, 0.0, 9.0, 6.0, 1, "b"),
                   record(1.0, 1.0, 6.0, 6.0, 1, "a"), record(0.0, 2.0, 3.5, 4.0, 0, "c")]
        pooled = pool_supports({k: as_node(m) for k, m in maps.items()}, records + records[:1], 3, 2)
        assert pooled.keys() == set(records)
        for r in records:
            assert np.array_equal(pooled[r].value, lone_vector(maps[r.image_id], r.box, 3, 2))


class TestExtractPrototypes:
    def test_constant_map_prototype(self):
        x = np.full((4, 6, 6), 3.0)
        protos = pooled_prototypes({"a": as_node(x)}, {7: [record(1.0, 1.0, 4.0, 4.0, class_id=7)]}, [7])
        assert protos.class_ids == (7,)
        assert np.allclose(protos.values, 3.0, atol=1e-12)

    def test_two_boxes_average(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 8, 8))
        b1 = record(0.0, 0.0, 4.0, 4.0, class_id=0)
        b2 = record(3.0, 3.0, 8.0, 8.0, class_id=0)
        protos = pooled_prototypes({"a": as_node(x)}, {0: [b1, b2]}, [0])
        v1, v2 = lone_vector(x, b1.box), lone_vector(x, b2.box)
        assert np.allclose(protos.values[0], (v1 + v2) / 2.0, atol=1e-12)

    def test_matches_brute_force_over_classes(self):
        rng = np.random.default_rng(5)
        maps = {image_id: rng.standard_normal((4, 8, 8)) for image_id in "abc"}
        instances: dict[int, list[GroundTruth]] = {0: [], 1: [], 2: []}
        per_class: dict[int, list[np.ndarray]] = {0: [], 1: [], 2: []}
        for image_id, m in maps.items():
            for c in range(3):
                x1, y1 = rng.uniform(0, 3, size=2)
                bw, bh = rng.uniform(2, 4, size=2)
                box = Box(float(x1), float(y1), float(min(x1 + bw, 8.0)), float(min(y1 + bh, 8.0)))
                instances[c].append(GroundTruth(box, c, image_id))
                per_class[c].append(lone_vector(m, box))
        protos = pooled_prototypes({k: as_node(m) for k, m in maps.items()}, instances, [0, 1, 2])
        for c in range(3):
            want = np.mean(per_class[c], axis=0)
            assert np.allclose(protos.values[c], want, atol=1e-12)

    def test_box_order_within_class_is_irrelevant(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 8, 8))
        b1 = record(0.0, 0.0, 3.0, 3.0, class_id=0)
        b2 = record(4.0, 4.0, 8.0, 8.0, class_id=0)
        p_ab = pooled_prototypes({"a": as_node(x)}, {0: [b1, b2]}, [0])
        p_ba = pooled_prototypes({"a": as_node(x)}, {0: [b2, b1]}, [0])
        assert np.allclose(p_ab.values, p_ba.values, atol=1e-12)

    def test_class_mean_adds_image_by_image(self):
        """Class 0 lists records on images b, b, a; image a is used first
        (by class 1), so its record is added first, then b's in order."""
        rng = np.random.default_rng(11)
        v = {r: as_node(rng.standard_normal(4)) for r in "ab12"}
        a, b1, b2 = record(0, 0, 1, 1, 0, "a"), record(0, 0, 1, 1, 0, "b"), record(0, 0, 2, 2, 0, "b")
        first = record(0, 0, 2, 2, 1, "a")
        vectors = {a: v["a"], b1: v["1"], b2: v["2"], first: v["b"]}
        protos = extract_prototypes(vectors, {1: [first], 0: [b1, b2, a]}, [1, 0])
        want = (v["a"].value + v["1"].value + v["2"].value) * (1.0 / 3)
        listed = (v["1"].value + v["2"].value + v["a"].value) * (1.0 / 3)
        assert np.array_equal(protos.values[1], want) and not np.array_equal(want, listed)
        assert np.array_equal(protos.values[0], v["b"].value)

    def test_missing_class_is_named(self):
        x = np.zeros((2, 4, 4))
        with pytest.raises(PreconditionError, match="class 3"):
            pooled_prototypes({"a": as_node(x)}, {0: [record(0.0, 0.0, 2.0, 2.0, class_id=0)]}, [0, 3])


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


def aggregate_arrays(seed: int, c: int = 3, d: int = 4, h: int = 3, w: int = 5) -> dict:
    """Random inputs of ops.aggregate: the map, keys, gate, projection,
    encodings and FFN, and the FFN's hidden width 2D."""
    rng = np.random.default_rng(seed)
    shapes = {"x": (d, h, w), "keys": (c, d), "gate": (c, d), "w": (d, d), "enc": (c, d),
              "w1": (d, 2 * d), "b1": (2 * d,), "w2": (2 * d, d), "b2": (d,)}
    return {name: rng.standard_normal(shape) for name, shape in shapes.items()}


class TestAggregationOps:
    """ops.aggregate and ops.cosine_cross_entropy give the value and every
    input gradient of their composed graphs bit for bit, in the same
    memory order."""

    @pytest.mark.parametrize("filter_gate", [True, False], ids=["filter", "matrix"])
    @pytest.mark.parametrize("strided", [False, True], ids=["c-probe", "strided-probe"])
    def test_aggregate_equals_composed_graph(self, filter_gate, strided):
        arrays = aggregate_arrays(seed=40)
        enc = arrays.pop("enc")
        rng = np.random.default_rng(41)
        probe = rng.standard_normal((5, 4, 3)).transpose((1, 2, 0)) if strided else rng.standard_normal((4, 3, 5))
        results = []
        for op in (ops.aggregate, composed_aggregate):
            leaves = {name: Node(a) for name, a in arrays.items()}
            out = op(*(leaves[n] for n in ("x", "keys", "gate", "w")), enc,
                     *(leaves[n] for n in ("w1", "b1", "w2", "b2")), 0.5, filter_gate=filter_gate)
            backward((out * probe).sum())
            results.append([out.value, *(leaf.grad for leaf in leaves.values())])
        assert all(same_bits(a, b) for a, b in zip(*results))

    def test_aggregate_encodings_get_no_gradient(self):
        arrays = aggregate_arrays(seed=42)
        out = ops.aggregate(*(arrays[n] for n in ("x", "keys", "gate", "w", "enc", "w1", "b1", "w2", "b2")), 0.5)
        assert len(out._parents) == 8
        assert all(p.value is not arrays["enc"] for p in out._parents)

    def test_aggregate_rejects_mismatched_shapes(self):
        arrays = aggregate_arrays(seed=43)
        arrays["keys"] = arrays["keys"][:, :3]
        with pytest.raises(ShapeError):
            ops.aggregate(*(arrays[n] for n in ("x", "keys", "gate", "w", "enc", "w1", "b1", "w2", "b2")), 0.5)

    @pytest.mark.parametrize("alpha", [20.0, 1.0])
    def test_cosine_cross_entropy_equals_composed_graph(self, alpha):
        rng = np.random.default_rng(44)
        rows = rng.standard_normal((3, 5))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        weights = rng.standard_normal((4, 5))
        labels = np.array([2, 0, 3])
        results = []
        for op in (ops.cosine_cross_entropy, composed_cosine_cross_entropy):
            leaves = [Node(rows), Node(weights)]
            loss = op(*leaves, labels, alpha)
            backward(loss * 3.0)
            results.append([loss.value, *(leaf.grad for leaf in leaves)])
        assert all(same_bits(a, b) for a, b in zip(*results))

    def test_cosine_cross_entropy_guards_zero_weight_rows(self):
        with pytest.raises(NumericGuardError, match="class-weight"):
            ops.cosine_cross_entropy(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0, 1]), 1.0)

    @pytest.mark.parametrize("seed", dict((n, s) for n, _, s in audit.AUDIT_CASES)["aggregation-and-cosine-loss"])
    @pytest.mark.parametrize("gate_mode", GATE_MODES)
    def test_audit_fixtures_equal_composed_graph(self, seed, gate_mode, monkeypatch):
        """On the audit's aggregation fixtures, the loss, every parameter
        gradient and the gradient reaching each op input equal the composed
        graph's."""
        store, build = audit.aggregation_case(seed)
        monkeypatch.setattr(audit, "cam_forward", functools.partial(cam_forward, gate_mode=gate_mode))
        results = []
        for composed in (False, True):
            params = store.nodes()
            loss, inputs = run_recording_op_inputs(monkeypatch, composed, lambda: build(params))
            backward(loss)
            results.append([loss.value, *(params[k].grad for k in store.keys()), *(n.grad for n in inputs)])
        assert len(results[0]) == len(results[1]) == 1 + len(store.keys()) + 10
        assert all(same_bits(a, b) for a, b in zip(*results))

    def test_attention_equals_composed_softmax(self):
        rng = np.random.default_rng(45)
        d = 4
        protos = make_protos(3, d, seed=46)
        store = ParamStore(seed=47)
        init_cam_params(store, "cam", d)
        f_q = rng.standard_normal((d, 3, 5))
        attn = cam_forward(f_q, protos, store.nodes(), return_attention=True)[1]
        w = store.array("cam.w")
        scores = ops.matmul(ops.matmul(ops.map_to_tokens(f_q), w), ops.matmul(protos.s, w).transpose())
        assert same_bits(attn.value, ops.softmax(scores * (1.0 / np.sqrt(d)), axis=1).value)


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
