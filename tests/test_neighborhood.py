import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import fusedet
from conftest import same_bits
from fusedet import audit, neighborhood as na_module, ops
from fusedet.autodiff import Node, ParamStore, as_node, backward, grad_check, no_grad
from fusedet.errors import PreconditionError, ShapeError
from fusedet.neighborhood import NAConfig, init_na_params, na_forward, neighbor_table, neighborhood


def make_store(d: int, seed: int = 0) -> ParamStore:
    store = ParamStore(seed=seed)
    init_na_params(store, "na", d)
    return store


class TestNeighborhood:
    def test_interior_window_is_centered(self):
        got = neighborhood(2, 2, 5, 5, 3)
        want = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
        assert got == want

    def test_corner_window_is_shifted_full_size(self):
        got = neighborhood(0, 0, 5, 5, 3)
        want = [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]
        assert got == want

    def test_far_corner(self):
        got = neighborhood(4, 4, 5, 5, 3)
        want = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
        assert got == want

    def test_k1_singleton(self):
        assert neighborhood(3, 1, 5, 5, 1) == [(3, 1)]

    def test_constant_size_everywhere(self):
        for i in range(4):
            for j in range(6):
                assert len(neighborhood(i, j, 4, 6, 3)) == 9

    def test_oversized_window_rejected(self):
        with pytest.raises(PreconditionError):
            neighborhood(0, 0, 2, 5, 3)

    def test_even_window_rejected(self):
        with pytest.raises(PreconditionError):
            neighborhood(0, 0, 5, 5, 2)

    def test_out_of_bounds_position_rejected(self):
        with pytest.raises(PreconditionError):
            neighborhood(5, 0, 5, 5, 3)

    def test_table_matches_pointwise(self):
        t = neighbor_table(3, 4, 3)
        assert t.shape == (12, 9)
        for i in range(3):
            for j in range(4):
                want = [a * 4 + b for a, b in neighborhood(i, j, 3, 4, 3)]
                assert list(t[i * 4 + j]) == want

    def test_cached_table_refuses_writes(self):
        """The table is shared by every caller and keys the cached scatter,
        so a write into it would desynchronise gather and scatter."""
        table = neighbor_table(4, 4, 3)
        before = table.copy()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 15
        assert np.array_equal(neighbor_table(4, 4, 3), before)


class TestNAForward:
    def test_k1_equals_value_projection(self):
        rng = np.random.default_rng(0)
        d, h, w = 3, 4, 4
        store = make_store(d)
        x = rng.standard_normal((d, h, w))
        got = na_forward(x, NAConfig(k=1, channels=d), store.nodes(), "na").value
        want = np.tensordot(store.array("na.wv"), x, axes=([1], [0]))
        assert np.allclose(got, want, atol=1e-12)

    def test_constant_map_gives_constant_output(self):
        d = 3
        store = make_store(d, seed=2)
        x = np.ones((d, 5, 5)) * np.array([1.0, -2.0, 0.5])[:, None, None]
        out = na_forward(x, NAConfig(k=3, channels=d), store.nodes(), "na").value
        for c in range(d):
            assert np.allclose(out[c], out[c, 0, 0], atol=1e-12)

    def test_attention_rows_normalized(self):
        # reimplement the attention weights only, checking the invariant
        rng = np.random.default_rng(4)
        d, h, w, k = 3, 4, 4, 3
        store = make_store(d, seed=5)
        x = rng.standard_normal((d, h, w))
        q = np.tensordot(store.array("na.wq"), x, axes=([1], [0])).reshape(d, h * w).T
        key = np.tensordot(store.array("na.wk"), x, axes=([1], [0])).reshape(d, h * w).T
        t = neighbor_table(h, w, k)
        logits = np.einsum("nd,nkd->nk", q, key[t]) / np.sqrt(d)
        attn = ops.softmax(logits, axis=1).value
        assert np.all(attn >= 0)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)

    def test_translation_equivariance_interior(self):
        d, h, w, k = 2, 7, 7, 3
        store = make_store(d, seed=6)
        rng = np.random.default_rng(7)
        pattern = rng.standard_normal((d, 3, 3))
        a = np.zeros((d, h, w))
        b = np.zeros((d, h, w))
        a[:, 2:5, 2:5] = pattern
        b[:, 2:5, 3:6] = pattern  # shifted one pixel right
        cfg = NAConfig(k=k, channels=d)
        params = store.nodes()
        out_a = na_forward(a, cfg, params, "na").value
        out_b = na_forward(b, cfg, params, "na").value
        # compare well inside the map so no window touches a border
        assert np.allclose(out_a[:, 2:5, 2:4], out_b[:, 2:5, 3:5], atol=1e-12)

    def test_channel_mismatch_rejected(self):
        store = make_store(3)
        with pytest.raises(ShapeError):
            na_forward(np.ones((4, 5, 5)), NAConfig(k=3, channels=3), store.nodes(), "na")

    def test_window_larger_than_map_rejected(self):
        store = make_store(2)
        with pytest.raises(PreconditionError):
            na_forward(np.ones((2, 2, 2)), NAConfig(k=3, channels=2), store.nodes(), "na")

    def test_grad_through_projections(self):
        rng = np.random.default_rng(8)
        d, h, w = 3, 4, 4
        store = make_store(d, seed=9)
        x = rng.standard_normal((d, h, w))
        probe = rng.standard_normal((d, h, w))
        cfg = NAConfig(k=3, channels=d)
        err = grad_check(lambda p: (na_forward(x, cfg, p, "na") * probe).sum(), store)
        assert err <= 1e-6


class TestNAConfig:
    def test_rejects_even_k(self):
        with pytest.raises(PreconditionError):
            NAConfig(k=2, channels=4)

    def test_rejects_nonpositive_channels(self):
        with pytest.raises(PreconditionError):
            NAConfig(k=3, channels=0)


def composed_na_forward(x, cfg: NAConfig, params, prefix: str) -> Node:
    """`na_forward` with its attention composed of take, reshape, products,
    sums and softmax: the oracle `ops.window_attention` is held to bit for
    bit."""
    x = as_node(x)
    *_, d, h, w = x.value.shape
    q = ops.conv1x1(x, params[f"{prefix}.wq"])
    key = ops.conv1x1(x, params[f"{prefix}.wk"])
    v = ops.conv1x1(x, params[f"{prefix}.wv"])
    qf, kf, vf = ops.map_to_tokens(q), ops.map_to_tokens(key), ops.map_to_tokens(v)
    return ops.tokens_to_map(composed_attention(qf, kf, vf, neighbor_table(h, w, cfg.k), 1.0 / np.sqrt(d)), h, w)


def composed_attention(qf, kf, vf, table, scale) -> Node:
    *lead, n, d = qf.value.shape
    kk = table.shape[1]
    kn = ops.take(kf, table)  # (..., HW, k*k, D)
    vn = ops.take(vf, table)
    logits = (qf.reshape((*lead, n, 1, d)) * kn).sum(axis=-1) * scale
    attn = ops.softmax(logits, axis=-1)
    return (attn.reshape((*lead, n, kk, 1)) * vn).sum(axis=-2)


def tokens_and_grads(attention, maps: np.ndarray, k: int, probe: np.ndarray):
    """Value of `attention` with k x k windows over the tokens of three
    maps (strided views, as `map_to_tokens` makes them), and the gradients
    reaching the tokens and the maps under a probe."""
    h, w = maps.shape[-2:]
    leaves = [Node(m) for m in maps]
    tokens = [ops.map_to_tokens(m) for m in leaves]
    out = attention(*tokens, neighbor_table(h, w, k), 1.0 / np.sqrt(maps.shape[-3]))
    backward((out * probe).sum())
    return [out.value] + [t.grad for t in tokens] + [m.grad for m in leaves]


class TestWindowAttention:
    @pytest.mark.parametrize(
        "shape, k",
        [((3, 4, 4), 3), ((5, 8, 8, 8), 3), ((4, 32, 32), 3), ((4, 4, 4), 1), ((2, 3, 2, 5, 5), 5)],
        ids=str,
    )
    def test_value_and_grads_equal_composed_graph(self, shape, k):
        rng = np.random.default_rng(len(shape) + shape[-1])
        maps = rng.standard_normal((3, *shape))
        probe = rng.standard_normal((*shape[:-3], shape[-2] * shape[-1], shape[-3]))
        got = tokens_and_grads(ops.window_attention, maps, k, probe)
        want = tokens_and_grads(composed_attention, maps, k, probe)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("batch", [(), (5,)], ids=["lone", "batch"])
    @pytest.mark.parametrize("side", [8, 32])
    def test_na_forward_gradients_equal_composed_graph(self, batch, side):
        rng = np.random.default_rng(side)
        d = 8
        store = make_store(d, seed=side)
        x = rng.standard_normal((*batch, d, side, side))
        probe = rng.standard_normal(x.shape)
        cfg = NAConfig(k=3, channels=d)
        results = []
        for forward in (na_forward, composed_na_forward):
            params, xn = store.nodes(), Node(x)
            out = forward(xn, cfg, params, "na")
            backward((out * probe).sum())
            results.append([out.value, xn.grad, *(params[f"na.{n}"].grad for n in ("wq", "wk", "wv"))])
        assert all(same_bits(a, b) for a, b in zip(*results))

    @pytest.mark.parametrize("seed", dict((n, s) for n, _, s in audit.AUDIT_CASES)["window-attention"])
    def test_audit_window_fixtures_equal_composed_graph(self, seed, monkeypatch):
        store, build = audit.window_case(seed)
        results = []
        for forward in (na_forward, composed_na_forward):
            monkeypatch.setattr(audit, "na_forward", forward)
            params = store.nodes()
            loss = build(params)
            backward(loss)
            results.append([loss.value, *(params[key].grad for key in store.keys())])
        assert all(np.array_equal(a, b) for a, b in zip(*results))

    def test_rejects_mismatched_shapes(self):
        t = neighbor_table(4, 4, 3)
        with pytest.raises(ShapeError):
            ops.window_attention(np.ones((16, 3)), np.ones((16, 2)), np.ones((16, 3)), t, 1.0)
        with pytest.raises(ShapeError):
            ops.window_attention(np.ones((9, 3)), np.ones((9, 3)), np.ones((9, 3)), t, 1.0)


class TestWindowScatter:
    @pytest.mark.parametrize("side", [8, 32])
    def test_equals_add_at_batched(self, side):
        table = neighbor_table(side, side, 3)
        n, kk = table.shape
        g = np.random.default_rng(side).standard_normal((5, n * kk, 8))
        want = np.zeros((5, n, 8))
        np.add.at(want, (np.arange(5)[:, None], table.reshape(-1)), g)
        rows = np.moveaxis(g, 1, 0).reshape(n * kk, -1)
        got = np.moveaxis((ops._window_scatter(table) @ rows).reshape(n, 5, 8), 0, 1)
        assert np.array_equal(got, want)

    def test_built_once_per_table(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return sparse.csr_array(*args, **kwargs)

        monkeypatch.setattr(ops, "sparse", SimpleNamespace(csr_array=counting))
        table = neighbor_table(5, 6, 3).copy()  # a table object no other test has seen
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((30, 2)) for _ in range(3))
        with no_grad():
            ops.window_attention(q, k, v, table, 0.5)
        assert built == []  # value-only: no VJP runs, no scatter is built
        for _ in range(2):
            leaves = [Node(a) for a in (q, k, v)]
            backward(ops.window_attention(*leaves, table, 0.5).sum())
        assert len(built) == 1
        assert ops._window_scatter(table) is ops._window_scatter(table)
        assert len(built) == 1
        ops._window_scatter(table.copy())  # another object with the same entries
        assert len(built) == 2

    def test_follows_the_table_it_scatters(self):
        table = neighbor_table(4, 4, 3).copy()
        first = ops._window_scatter(table)
        key = id(table)
        del table
        gc.collect()
        assert key not in ops._scatters  # the entry goes with its table
        wrong = neighbor_table(4, 4, 3).copy()
        wrong[0] = wrong[-1]
        got = ops._window_scatter(wrong).toarray()
        want = np.zeros((16, wrong.size))
        want[wrong.reshape(-1), np.arange(wrong.size)] = 1.0
        assert np.array_equal(got, want) and not np.array_equal(got, first.toarray())


def test_scipy_sparse_loads_with_the_first_scatter():
    """Importing the ops and a value-only inference leave scipy.sparse
    unloaded; one window-attention backward loads it."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import fusedet.ops
        from fusedet.autodiff import Node, backward
        from fusedet.model import ModelConfig, init_params
        from fusedet.neighborhood import neighbor_table
        from fusedet.prototypes import PrototypeSet, task_encodings
        from fusedet.training import infer

        loaded = ["scipy.sparse" in sys.modules]
        cfg = ModelConfig(channels=4, classes_total=2, t_max=2, roi_out=2, roi_sampling=1, score_thr=0.0)
        rng = np.random.default_rng(0)
        protos = PrototypeSet(s=rng.standard_normal((2, 4)), t=task_encodings(2, 4), class_ids=(0, 1))
        infer(rng.standard_normal((4, 8, 8)), rng.standard_normal((4, 8, 8)), protos, cfg, init_params(cfg).nodes())
        loaded.append("scipy.sparse" in sys.modules)
        q, k, v = (Node(rng.standard_normal((16, 2))) for _ in range(3))
        backward(fusedet.ops.window_attention(q, k, v, neighbor_table(4, 4, 3), 0.5).sum())
        loaded.append("scipy.sparse" in sys.modules)
        print(loaded)
    """)
    src = str(Path(fusedet.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False, True]"


def test_na_forward_scatters_through_the_table_it_gathers_with(monkeypatch):
    """A patched neighbour table reaches both the gather and the scatter."""
    table = na_module.neighbor_table

    def wrong(h, w, k):
        t = table(h, w, k).copy()
        t[0] = t[-1]
        return t

    monkeypatch.setattr(na_module, "neighbor_table", wrong)
    rng = np.random.default_rng(11)
    d = 3
    store = make_store(d, seed=12)
    x = rng.standard_normal((d, 4, 4))
    probe = rng.standard_normal((d, 4, 4))
    cfg = NAConfig(k=3, channels=d)
    assert grad_check(lambda p: (na_forward(x, cfg, p, "na") * probe).sum(), store) <= 1e-6
