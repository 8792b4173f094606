import numpy as np
import pytest

from fusedet import ops
from fusedet.autodiff import ParamStore, grad_check
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
