import itertools

import numpy as np
import pytest

from fusedet import autodiff
from fusedet.autodiff import Node, ParamStore, as_node, backward, grad_check, no_grad
from fusedet.errors import ParseError, PreconditionError, ShapeError


class TestNodeArithmetic:
    def test_add_values_and_grads(self):
        a = Node(np.array([1.0, 2.0]))
        b = Node(np.array([10.0, 20.0]))
        out = (a + b).sum()
        backward(out)
        assert np.array_equal(out.value, np.array(33.0))
        assert np.array_equal(a.grad, np.ones(2))
        assert np.array_equal(b.grad, np.ones(2))

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Node(np.ones((3, 4)))
        b = Node(np.arange(4.0))
        backward((a + b).sum())
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.array_equal(b.grad, np.full(4, 3.0))

    def test_scalar_mixing(self):
        a = Node(np.array([2.0, 3.0]))
        out = ((2.0 * a - 1.0) / 2.0).sum()
        backward(out)
        assert np.allclose(a.grad, np.ones(2))

    def test_rsub_rdiv(self):
        a = Node(np.array([2.0, 4.0]))
        backward((1.0 - a).sum())
        assert np.array_equal(a.grad, -np.ones(2))
        b = Node(np.array([2.0, 4.0]))
        backward((8.0 / b).sum())
        assert np.allclose(b.grad, -8.0 / np.array([4.0, 16.0]))

    def test_mul_grad(self):
        a = Node(np.array([2.0, 3.0]))
        b = Node(np.array([5.0, 7.0]))
        backward((a * b).sum())
        assert np.array_equal(a.grad, b.value)
        assert np.array_equal(b.grad, a.value)

    def test_neg(self):
        a = Node(np.array([1.0, -2.0]))
        backward((-a).sum())
        assert np.array_equal(a.grad, -np.ones(2))

    def test_values_are_float64(self):
        a = as_node(np.arange(3, dtype=np.int32))
        assert a.value.dtype == np.float64


class TestNodeShaping:
    def test_sum_axis_keepdims(self):
        a = Node(np.arange(6.0).reshape(2, 3))
        out = a.sum(axis=1, keepdims=True)
        assert out.value.shape == (2, 1)
        backward(out.sum())
        assert np.array_equal(a.grad, np.ones((2, 3)))

    def test_sum_axis_tuple(self):
        a = Node(np.arange(24.0).reshape(2, 3, 4))
        out = a.sum(axis=(0, 2))
        assert out.value.shape == (3,)
        backward(out.sum())
        assert np.array_equal(a.grad, np.ones((2, 3, 4)))

    def test_mean_matches_numpy(self):
        x = np.arange(12.0).reshape(3, 4)
        a = Node(x)
        out = a.mean(axis=0)
        assert np.allclose(out.value, x.mean(axis=0))
        backward(out.sum())
        assert np.allclose(a.grad, np.full((3, 4), 1.0 / 3.0))

    def test_reshape_round_trip_grad(self):
        a = Node(np.arange(6.0).reshape(2, 3))
        backward(a.reshape((3, 2)).sum())
        assert a.grad.shape == (2, 3)

    def test_transpose_grad(self):
        a = Node(np.arange(6.0).reshape(2, 3))
        probe = np.arange(6.0).reshape(3, 2)
        backward((a.transpose((1, 0)) * probe).sum())
        assert np.array_equal(a.grad, probe.T)

    @pytest.mark.parametrize("axes", [*itertools.permutations(range(4)), None], ids=str)
    def test_transpose_vjp_round_trips(self, axes):
        """The VJP of a transpose undoes it: the transposed value maps back
        to the array, as a view of the same buffer."""
        x = np.arange(120.0).reshape(2, 3, 4, 5)
        t = Node(x).transpose(axes)
        (back,) = t._vjp(t.value)
        assert back.shape == x.shape and np.array_equal(back, x) and np.shares_memory(back, x)


class TestBackward:
    def test_requires_scalar(self):
        a = Node(np.ones(3))
        with pytest.raises(ShapeError):
            backward(a)

    def test_diamond_graph_accumulates_once(self):
        a = Node(np.array(3.0))
        b = a * 2.0
        out = b * a  # a used twice: d(2a^2)/da = 4a
        backward(out)
        assert np.allclose(a.grad, 12.0)

    def test_deep_chain_does_not_recurse(self):
        a = Node(np.array(1.0))
        x = a
        for _ in range(5000):
            x = x + 1.0
        backward(x)
        assert np.allclose(a.grad, 1.0)

    def test_vjp_with_a_gradient_too_few_raises(self):
        a, b = Node(np.array(2.0)), Node(np.array(3.0))
        out = Node(a.value * b.value, (a, b), lambda g: (g * b.value,))
        with pytest.raises(ValueError, match="shorter"):
            backward(out)

    def test_shared_subgraph(self):
        a = Node(np.array(2.0))
        s = a * a
        out = s + s
        backward(out)
        assert np.allclose(a.grad, 8.0)


class TestParamStore:
    def test_duplicate_key_rejected(self):
        store = ParamStore()
        store.zeros("w", (2,))
        with pytest.raises(PreconditionError):
            store.zeros("w", (2,))

    def test_xavier_bounds(self):
        store = ParamStore(seed=3)
        arr = store.xavier_uniform("w", (50, 50), 50, 50)
        limit = np.sqrt(6.0 / 100)
        assert np.all(np.abs(arr) <= limit)

    def test_deterministic_init(self):
        a = ParamStore(seed=5)
        b = ParamStore(seed=5)
        wa = a.xavier_uniform("w", (4, 4), 4, 4)
        wb = b.xavier_uniform("w", (4, 4), 4, 4)
        assert np.array_equal(wa, wb)

    def test_sgd_step_updates_in_place(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        nodes = store.nodes()
        backward((nodes["w"] * np.array([3.0, 4.0])).sum())
        store.sgd_step(nodes, lr=0.5)
        assert np.allclose(store.array("w"), [1.0 - 1.5, 2.0 - 2.0])

    def test_sgd_skips_untouched(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        store.add("v", np.array([5.0]))
        nodes = store.nodes()
        backward((nodes["w"] * 2.0).sum())
        store.sgd_step(nodes, lr=1.0)
        assert np.allclose(store.array("v"), [5.0])

    def test_set_array_keeps_identity(self):
        store = ParamStore()
        arr = store.zeros("w", (3,))
        store.set_array("w", np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(arr, [1.0, 2.0, 3.0])

    def test_save_load_round_trip(self, tmp_path):
        store = ParamStore(seed=11)
        store.xavier_uniform("a.w", (3, 4), 4, 3)
        store.zeros("b", (2, 2, 2))
        store.add("scalarish", np.array(7.5))
        path = tmp_path / "params.pst"
        store.save(path)
        back = ParamStore.load(path)
        assert back.seed == 11
        assert sorted(back.keys()) == sorted(store.keys())
        for k in store.keys():
            assert np.array_equal(back.array(k), store.array(k))

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.pst"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ParseError, match="magic"):
            ParamStore.load(path)

    def test_load_rejects_every_truncation(self, tmp_path):
        store = ParamStore()
        store.zeros("w", (2, 3))
        store.zeros("bias", ())
        path = tmp_path / "p.pst"
        store.save(path)
        raw = path.read_bytes()
        for n in range(4, len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(ParseError, match="truncated"):
                ParamStore.load(path)

    def test_load_rejects_non_utf8_key(self, tmp_path):
        store = ParamStore()
        store.zeros("w", (1,))
        path = tmp_path / "p.pst"
        store.save(path)
        raw = bytearray(path.read_bytes())
        raw[18] = 0xFF  # the key's only byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="UTF-8"):
            ParamStore.load(path)

    def test_load_rejects_trailing_bytes(self, tmp_path):
        store = ParamStore()
        store.zeros("w", (2,))
        path = tmp_path / "p.pst"
        store.save(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match="trailing"):
            ParamStore.load(path)


class TestNoGrad:
    def test_node_built_inside_has_no_parents(self):
        a = Node(np.array([1.0, 2.0]))
        with no_grad():
            b = (a * 3.0).sum()
        assert b.value == 9.0
        assert b._parents == () and b._vjp is None

    def test_backward_inside_raises(self):
        a = Node(np.array(2.0))
        loss = a * a
        with no_grad():
            with pytest.raises(PreconditionError, match="no_grad"):
                backward(loss)
        assert a.grad is None
        backward(loss)
        assert a.grad == 4.0

    def test_mode_restored_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside")
        assert autodiff._recording
        a = Node(np.array(1.0))
        assert (a + a)._parents == (a, a)

    def test_mode_restored_after_nested_use(self):
        with no_grad():
            with no_grad():
                pass
            assert not autodiff._recording
            assert (Node(np.array(1.0)) * 2.0)._parents == ()
        assert autodiff._recording

    def test_values_equal_graph_mode(self):
        rng = np.random.default_rng(0)
        a = Node(rng.standard_normal((3, 4)))
        b = Node(rng.standard_normal((4, 2)))

        def forward():
            return ((a.transpose().reshape((2, 6)) / 3.0).sum(axis=1) - (a * 2.0).mean() + b.sum(axis=0)) * b.mean()

        graph = forward()
        with no_grad():
            value = forward()
        assert np.array_equal(value.value, graph.value)


class TestGradCheck:
    def test_quadratic(self):
        store = ParamStore(seed=1)
        store.add("w", np.array([1.5, -2.0, 0.5]))
        err = grad_check(lambda p: (p["w"] * p["w"]).sum(), store)
        assert err <= 1e-8

    def test_catches_wrong_gradient(self):
        store = ParamStore(seed=1)
        store.add("w", np.array([1.5]))

        def bad(p):
            w = p["w"]
            return Node(w.value.sum() ** 2, (w,), lambda g: (g * np.ones(1),))

        err = grad_check(bad, store)
        assert err > 1e-2

    def test_perturbed_forwards_build_no_graph(self):
        store = ParamStore(seed=1)
        store.add("w", np.array([1.5, -2.0]))
        parents = []

        def build(p):
            out = (p["w"] * p["w"]).sum()
            parents.append(out._parents)
            return out

        assert grad_check(build, store) <= 1e-8
        assert parents[0] and parents[1:] and not any(parents[1:])

    def test_keys_subset(self):
        store = ParamStore(seed=1)
        store.add("w", np.array([2.0]))
        store.add("v", np.array([3.0]))
        err = grad_check(lambda p: (p["w"] * 3.0 + p["v"] * 0.0).sum(), store, keys=["w"])
        assert err <= 1e-9
