import numpy as np
import pytest
from scipy.special import erf

from fusedet import ops
from fusedet.autodiff import ParamStore, as_node, backward, grad_check
from fusedet.deformable import normalize_coords
from fusedet.errors import PreconditionError, ShapeError


def project_and_check(build, store, tol=1e-6):
    err = grad_check(build, store)
    assert err <= tol, f"grad error {err:.3e}"


class TestMatmul:
    def test_value(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        assert np.allclose(ops.matmul(a, b).value, a @ b)

    def test_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\)"):
            ops.matmul(np.ones((3, 4)), np.ones((5, 6)))

    def test_grad(self):
        rng = np.random.default_rng(1)
        store = ParamStore(seed=1)
        store.add("a", rng.standard_normal((3, 4)))
        store.add("b", rng.standard_normal((4, 2)))
        probe = rng.standard_normal((3, 2))
        project_and_check(lambda p: (ops.matmul(p["a"], p["b"]) * probe).sum(), store)


class TestConv1x1:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        got = ops.conv1x1(x, w, b).value
        want = np.zeros((2, 4, 5))
        for i in range(4):
            for j in range(5):
                want[:, i, j] = w @ x[:, i, j] + b
        assert np.allclose(got, want, atol=1e-12)

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            ops.conv1x1(np.ones((3, 2, 2)), np.ones((2, 3)), np.ones(3))

    def test_grad(self):
        rng = np.random.default_rng(3)
        store = ParamStore(seed=1)
        store.add("x", rng.standard_normal((3, 3, 3)))
        store.add("w", rng.standard_normal((4, 3)))
        store.add("b", rng.standard_normal(4))
        probe = rng.standard_normal((4, 3, 3))
        project_and_check(lambda p: (ops.conv1x1(p["x"], p["w"], p["b"]) * probe).sum(), store)


class TestDepthwiseConv:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((2, 3, 3))
        got = ops.depthwise_conv(x, w, stride=2).value
        pad = np.zeros((2, 6, 6))
        pad[:, 1:5, 1:5] = x
        want = np.zeros((2, 2, 2))
        for d in range(2):
            for oi in range(2):
                for oj in range(2):
                    patch = pad[d, 2 * oi : 2 * oi + 3, 2 * oj : 2 * oj + 3]
                    want[d, oi, oj] = (patch * w[d]).sum()
        assert np.allclose(got, want, atol=1e-12)

    def test_interior_and_corner_tap_counts(self):
        # ones map, ones kernel: each output counts the in-bounds taps.
        got = ops.depthwise_conv(np.ones((1, 4, 4)), np.ones((1, 3, 3)), stride=2).value
        assert got.shape == (1, 2, 2)
        assert np.array_equal(got[0], np.array([[4.0, 6.0], [6.0, 9.0]]))

    def test_requires_divisible_dims(self):
        with pytest.raises(PreconditionError):
            ops.depthwise_conv(np.ones((1, 5, 4)), np.ones((1, 3, 3)), stride=2)

    def test_requires_odd_kernel(self):
        with pytest.raises(PreconditionError):
            ops.depthwise_conv(np.ones((1, 4, 4)), np.ones((1, 2, 2)), stride=1)

    def test_grad(self):
        rng = np.random.default_rng(5)
        store = ParamStore(seed=1)
        store.add("x", rng.standard_normal((2, 4, 4)))
        store.add("w", rng.standard_normal((2, 3, 3)))
        probe = rng.standard_normal((2, 2, 2))
        project_and_check(lambda p: (ops.depthwise_conv(p["x"], p["w"], 2) * probe).sum(), store)


class TestLayerNorm:
    def test_normalizes_channel_vectors(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3, 2))
        out = ops.layer_norm(x, np.ones(5), np.zeros(5)).value
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_gamma_beta_applied(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 2, 2))
        g, b = np.array([2.0, 3.0, 4.0]), np.array([1.0, -1.0, 0.5])
        plain = ops.layer_norm(x, np.ones(3), np.zeros(3)).value
        scaled = ops.layer_norm(x, g, b).value
        assert np.allclose(scaled, g[:, None, None] * plain + b[:, None, None])

    def test_grad(self):
        rng = np.random.default_rng(8)
        store = ParamStore(seed=1)
        store.add("x", rng.standard_normal((4, 3, 2)))
        store.add("g", 1.0 + 0.1 * rng.standard_normal(4))
        store.add("b", rng.standard_normal(4))
        probe = rng.standard_normal((4, 3, 2))
        project_and_check(
            lambda p: (ops.layer_norm(p["x"], p["g"], p["b"]) * probe).sum(), store
        )


class TestActivations:
    def test_relu(self):
        x = np.array([-2.0, 0.5, 3.0])
        assert np.array_equal(ops.relu(x).value, [0.0, 0.5, 3.0])

    def test_sigmoid_tanh_values(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(ops.sigmoid(x).value, 1.0 / (1.0 + np.exp(-x)))
        assert np.allclose(ops.tanh(x).value, np.tanh(x))

    def test_gelu_exact_form(self):
        x = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
        want = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        assert np.allclose(ops.gelu(x).value, want, atol=1e-15)

    @pytest.mark.parametrize(
        "fn", [ops.relu, ops.sigmoid, ops.tanh, ops.gelu], ids=["relu", "sigmoid", "tanh", "gelu"]
    )
    def test_grads(self, fn):
        rng = np.random.default_rng(9)
        store = ParamStore(seed=1)
        store.add("x", rng.standard_normal(7) + 0.05)  # keep away from the relu kink
        probe = rng.standard_normal(7)
        project_and_check(lambda p: (fn(p["x"]) * probe).sum(), store)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        s = ops.softmax(rng.standard_normal((4, 6)), axis=1).value
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s > 0)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(ops.softmax(x, 1).value, ops.softmax(x + 100.0, 1).value)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 5))
        assert np.allclose(ops.log_softmax(x, 1).value, np.log(ops.softmax(x, 1).value))

    def test_grads(self):
        rng = np.random.default_rng(12)
        store = ParamStore(seed=1)
        store.add("x", rng.standard_normal((3, 4)))
        probe = rng.standard_normal((3, 4))
        project_and_check(lambda p: (ops.softmax(p["x"], 1) * probe).sum(), store)
        project_and_check(lambda p: (ops.log_softmax(p["x"], 1) * probe).sum(), store)

    @pytest.mark.parametrize(
        "shape, axis, transposed",
        [((1024, 256), 1, False), ((256, 1024), 1, True), ((3, 5, 16, 9), -1, False)],
    )
    def test_in_place_equals_three_line_formula(self, shape, axis, transposed):
        # the one-buffer softmax against the formula it replaced: same bits,
        # same memory layout, and the input left as it was
        x = np.random.default_rng(13).standard_normal(shape) * 4.0
        if transposed:
            x = x.T  # a column-ordered input keeps its order
        before = x.copy()
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=axis, keepdims=True)
        got = ops.softmax(x, axis).value
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert got.strides == want.strides
        assert np.array_equal(x, before)


class TestSqrtAbs:
    def test_values(self):
        assert np.allclose(ops.sqrt(np.array([4.0, 9.0])).value, [2.0, 3.0])
        assert np.allclose(ops.absolute(np.array([-3.0, 2.0])).value, [3.0, 2.0])

    def test_grads(self):
        store = ParamStore(seed=1)
        store.add("x", np.array([0.5, 2.0, 7.0]))
        probe = np.array([1.0, -2.0, 0.5])
        project_and_check(lambda p: (ops.sqrt(p["x"]) * probe).sum(), store)
        store2 = ParamStore(seed=1)
        store2.add("x", np.array([-1.5, 2.0, -0.3]))
        project_and_check(lambda p: (ops.absolute(p["x"]) * probe).sum(), store2)


class TestTakeConcat:
    def test_take_gathers_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        idx = np.array([[0, 2], [2, 3]])
        got = ops.take(x, idx).value
        assert got.shape == (2, 2, 3)
        assert np.array_equal(got[1, 1], x[3])

    def test_take_scatter_grad_accumulates_duplicates(self):
        x = as_node(np.zeros((3, 2)))
        out = ops.take(x, np.array([1, 1, 2]))
        backward((out * np.ones((3, 2))).sum())
        assert np.array_equal(x.grad, np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]))

    def test_concat_values_and_grads(self):
        a = as_node(np.ones((2, 2)))
        b = as_node(2.0 * np.ones((3, 2)))
        out = ops.concat([a, b], axis=0)
        assert out.value.shape == (5, 2)
        probe = np.arange(10.0).reshape(5, 2)
        backward((out * probe).sum())
        assert np.array_equal(a.grad, probe[:2])
        assert np.array_equal(b.grad, probe[2:])

    def test_concat_axis1(self):
        a = np.ones((2, 1))
        b = np.zeros((2, 2))
        assert ops.concat([a, b], axis=1).value.shape == (2, 3)


class TestBilinearSample:
    def test_exact_gather_at_grid_points(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 5))
        px = np.array([0.0, 2.0, 4.0, 1.0])
        py = np.array([0.0, 1.0, 3.0, 2.0])
        got = ops.bilinear_sample(x, normalize_coords(px, py, 4, 5)).value
        want = np.stack([x[:, int(b), int(a)] for a, b in zip(px, py)], axis=1)
        assert np.array_equal(got, want)

    def test_midpoint_average(self):
        x = np.zeros((1, 2, 2))
        x[0] = [[1.0, 3.0], [5.0, 7.0]]
        got = ops.bilinear_sample(x, np.zeros((2, 1))).value  # map center
        assert np.allclose(got, [[4.0]])

    def test_outside_reads_zero_padding(self):
        x = np.ones((1, 3, 3))
        coords = np.array([[-1.6], [0.0]])  # half a pixel beyond the left edge
        got = ops.bilinear_sample(x, coords).value
        assert np.allclose(got, [[0.4]])

    def test_far_outside_is_zero(self):
        x = np.ones((1, 3, 3))
        coords = np.array([[-3.0, 3.0], [0.0, 0.0]])
        assert np.allclose(ops.bilinear_sample(x, coords).value, 0.0)

    def test_map_grad_scatter(self):
        x = as_node(np.zeros((1, 2, 2)))
        out = ops.bilinear_sample(x, np.zeros((2, 1)))  # center: 1/4 per corner
        backward(out.sum())
        assert np.allclose(x.grad, 0.25 * np.ones((1, 2, 2)))

    def test_grad_wrt_map_and_coords(self):
        rng = np.random.default_rng(14)
        store = ParamStore(seed=1)
        store.add("x", rng.standard_normal((2, 5, 5)))
        # interior coords, safely away from cell boundaries
        store.add("c", np.array([[-0.31, 0.22, 0.47], [0.13, -0.42, 0.08]]))
        probe = rng.standard_normal((2, 3))
        project_and_check(lambda p: (ops.bilinear_sample(p["x"], p["c"]) * probe).sum(), store)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            ops.bilinear_sample(np.ones((2, 3)), np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            ops.bilinear_sample(np.ones((1, 3, 3)), np.zeros((3, 1)))


def _rand(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def _as_map(samples):
    """(..., D, N) samples as an (..., D, N, 1) map."""
    return samples.reshape((*samples.value.shape, 1))


B = 3
TABLE = np.array([[(i + a) % 16 for a in range(5)] for i in range(16)])

# (op over batch inputs and shared params, batched inputs, shared params)
BATCH_CASES = {
    "matmul-shared-left": (lambda b, p: ops.matmul(p["a"], b), [_rand(0, B, 4, 5)], {"a": _rand(1, 6, 4)}),
    "matmul-shared-right": (lambda a, p: ops.matmul(a, p["b"]), [_rand(2, B, 6, 4)], {"b": _rand(3, 4, 5)}),
    "matmul-both-batched": (lambda a, b, p: ops.matmul(a, b), [_rand(4, B, 6, 4), _rand(5, B, 4, 5)], {}),
    "conv1x1": (
        lambda x, p: ops.conv1x1(x, p["w"], p["b"]),
        [_rand(6, B, 4, 5, 6)],
        {"w": _rand(7, 6, 4), "b": _rand(8, 6)},
    ),
    "conv1x1-no-bias": (lambda x, p: ops.conv1x1(x, p["w"]), [_rand(9, B, 4, 8, 8)], {"w": _rand(10, 2, 4)}),
    # the conv receives its gradient channel-fastest, as under the fusion's
    # token layout
    "conv1x1-under-tokens": (
        lambda x, p: ops.map_to_tokens(ops.conv1x1(x, p["w"], p["b"])),
        [_rand(11, B, 8, 16, 16)],
        {"w": _rand(12, 8, 8), "b": _rand(13, 8)},
    ),
    "depthwise_conv": (
        lambda x, p: ops.depthwise_conv(x, p["w"], stride=2),
        [_rand(14, B, 4, 8, 8)],
        {"w": _rand(15, 4, 3, 3)},
    ),
    "layer_norm": (
        lambda x, p: ops.layer_norm(x, p["g"], p["b"]),
        [_rand(16, B, 4, 4, 6)],
        {"g": _rand(17, 4), "b": _rand(18, 4)},
    ),
    "relu": (lambda x, p: ops.relu(x), [_rand(19, B, 4, 5)], {}),
    "sigmoid": (lambda x, p: ops.sigmoid(x), [_rand(20, B, 4, 5)], {}),
    "tanh": (lambda x, p: ops.tanh(x), [_rand(21, B, 4, 5)], {}),
    "gelu": (lambda x, p: ops.gelu(x), [_rand(22, B, 4, 5)], {}),
    "softmax": (lambda x, p: ops.softmax(x, axis=-1), [_rand(23, B, 16, 9)], {}),
    "log_softmax": (lambda x, p: ops.log_softmax(x, axis=-1), [_rand(24, B, 16, 9)], {}),
    "take": (lambda x, p: ops.take(x, TABLE), [_rand(25, B, 16, 4)], {}),
    # tokens gathered from a map: a column-ordered token view, as in na_forward
    "take-of-map-tokens": (lambda x, p: ops.take(ops.map_to_tokens(x), TABLE), [_rand(26, B, 4, 4, 4)], {}),
    "map_to_tokens": (lambda x, p: ops.map_to_tokens(x), [_rand(27, B, 4, 5, 6)], {}),
    "tokens_to_map": (lambda t, p: ops.tokens_to_map(t, 5, 6), [_rand(28, B, 30, 4)], {}),
    "bilinear_sample": (
        lambda x, c, p: ops.bilinear_sample(x, c),
        [_rand(29, B, 4, 5, 6), np.random.default_rng(30).uniform(-1.2, 1.2, (B, 2, 7))],
        {},
    ),
    "bilinear_sample-of-tokens": (
        lambda x, c, p: ops.map_to_tokens(_as_map(ops.bilinear_sample(x, c))),
        [_rand(31, B, 4, 8, 8), np.random.default_rng(32).uniform(-1.0, 1.0, (B, 2, 7))],
        {},
    ),
}


class TestBatchedOps:
    """Every batch-aware op on (B, ...) inputs equals its per-element call
    bit for bit: the value, each input's gradient, and each shared
    weight's gradient summed over the elements."""

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_batch_equals_each_element(self, name, batch_check):
        op, batched, shared = BATCH_CASES[name]
        batch_check(op, batched, shared)

    def test_shared_weight_gradient_sums_last_element_first(self):
        # the order backward gives separate per-element graphs built in
        # batch order; numpy's one-call sum over the batch rounds otherwise
        parts = np.array([1.0, 1e-16, 1e-16])
        w = as_node(np.ones((1, 1)))
        backward((ops.matmul(w, parts.reshape(3, 1, 1))).sum())
        assert w.grad[0, 0] == (1e-16 + 1e-16) + 1.0
        assert w.grad[0, 0] != 1.0

    def test_unstack_gives_each_element_with_its_gradient(self):
        x = as_node(_rand(33, B, 4, 3, 3))
        parts = ops.unstack(x)
        assert [p.value.shape for p in parts] == [(4, 3, 3)] * B
        assert all(np.array_equal(p.value, x.value[i]) for i, p in enumerate(parts))
        probe = _rand(34, 9, 4)
        backward((ops.map_to_tokens(parts[1]) * probe).sum())
        lone = as_node(x.value[1])
        backward((ops.map_to_tokens(lone) * probe).sum())
        assert np.array_equal(x.grad[1], lone.grad)
        assert x.grad[1].strides == lone.grad.strides  # laid out as a lone map's
        assert not x.grad[0].any() and not x.grad[2].any()

    def test_batched_matmul_rejects_mismatched_batches(self):
        with pytest.raises(ShapeError):
            ops.matmul(np.ones((2, 3, 4)), np.ones((3, 4, 5)))

    def test_bilinear_sample_rejects_unbatched_coords_for_a_batch(self):
        with pytest.raises(ShapeError):
            ops.bilinear_sample(np.ones((2, 1, 3, 3)), np.zeros((2, 4)))
