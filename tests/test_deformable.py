import numpy as np
import pytest
from scipy.special import erf

from fusedet.audit import na_oracle
from fusedet.autodiff import ParamStore, grad_check
from fusedet.deformable import (
    CDAConfig,
    FusionConfig,
    cda_forward,
    fuse,
    fusion_forward,
    init_cda_params,
    init_fuse_params,
    init_fusion_params,
    normalize_coords,
    offset_net,
    reference_grid,
)
from fusedet.errors import PreconditionError, ShapeError
from fusedet.neighborhood import NAConfig, init_na_params
from fusedet.ops import pixel_coords


def bilinear_oracle(x: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Loop re-implementation of align-corners sampling with zero padding."""
    d, h, w = x.shape
    out = np.zeros((d, coords.shape[1]))
    for n in range(coords.shape[1]):
        px = (coords[0, n] + 1.0) / 2.0 * (w - 1)
        py = (coords[1, n] + 1.0) / 2.0 * (h - 1)
        x0, y0 = int(np.floor(px)), int(np.floor(py))
        wx, wy = px - x0, py - y0
        for dy, dx, wt in (
            (0, 0, (1 - wy) * (1 - wx)),
            (0, 1, (1 - wy) * wx),
            (1, 0, wy * (1 - wx)),
            (1, 1, wy * wx),
        ):
            xi, yi = x0 + dx, y0 + dy
            if 0 <= xi < w and 0 <= yi < h:
                out[:, n] += wt * x[:, yi, xi]
    return out


def offset_oracle(f_kv: np.ndarray, store: ParamStore, prefix: str, cfg: CDAConfig) -> np.ndarray:
    """Straight-line recomputation of the offset network."""
    d, h, w = f_kv.shape
    r, koff = cfg.r, cfg.k_off
    u = np.einsum("dc,chw->dhw", store.array(f"{prefix}.wu"), f_kv)
    pad = koff // 2
    up = np.zeros((d, h + 2 * pad, w + 2 * pad))
    up[:, pad : pad + h, pad : pad + w] = u
    oh, ow = h // r, w // r
    dwk = store.array(f"{prefix}.dw")
    mid = np.zeros((d, oh, ow))
    for oi in range(oh):
        for oj in range(ow):
            patch = up[:, oi * r : oi * r + koff, oj * r : oj * r + koff]
            mid[:, oi, oj] = (patch * dwk).sum(axis=(1, 2))
    mu, var = mid.mean(axis=0), mid.var(axis=0)
    xhat = (mid - mu) / np.sqrt(var + 1e-5)
    ln = store.array(f"{prefix}.ln_g")[:, None, None] * xhat + store.array(f"{prefix}.ln_b")[:, None, None]
    act = ln * 0.5 * (1.0 + erf(ln / np.sqrt(2.0)))
    raw = (
        np.einsum("oc,chw->ohw", store.array(f"{prefix}.off_w"), act)
        + store.array(f"{prefix}.off_b")[:, None, None]
    )
    return cfg.s * np.tanh(raw.reshape(2, oh * ow))


def cda_oracle(
    f_res: np.ndarray,
    f_q_src: np.ndarray,
    f_kv_src: np.ndarray,
    store: ParamStore,
    prefix: str,
    cfg: CDAConfig,
) -> np.ndarray:
    """Straight-line recomputation of the deformable cross-attention update."""
    d, h, w = f_res.shape
    dp = offset_oracle(f_kv_src, store, prefix, cfg)
    oh, ow = h // cfg.r, w // cfg.r
    ys = (np.arange(oh) + 0.5) * cfg.r - 0.5
    xs = (np.arange(ow) + 0.5) * cfg.r - 0.5
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    grid = normalize_coords(gx.reshape(-1), gy.reshape(-1), h, w)
    xt = bilinear_oracle(f_kv_src, grid + dp)
    keys = store.array(f"{prefix}.wk") @ xt
    vals = store.array(f"{prefix}.wv") @ xt
    q = np.einsum("dc,chw->dhw", store.array(f"{prefix}.wq"), f_q_src).reshape(d, h * w).T
    logits = q @ keys / np.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    attn = e / e.sum(axis=1, keepdims=True)
    mixed = (attn @ vals.T).T.reshape(d, h, w)
    inner = f_q_src + mixed
    hidden = np.maximum(
        np.einsum("oc,chw->ohw", store.array(f"{prefix}.ffn_w1"), inner)
        + store.array(f"{prefix}.ffn_b1")[:, None, None],
        0.0,
    )
    return f_res + (
        np.einsum("oc,chw->ohw", store.array(f"{prefix}.ffn_w2"), hidden)
        + store.array(f"{prefix}.ffn_b2")[:, None, None]
    )


class TestReferenceGrid:
    def test_4x4_stride2_pixel_centers(self):
        g = reference_grid(4, 4, 2)
        px, py = pixel_coords(g, 4, 4)
        assert np.allclose(px, [0.5, 2.5, 0.5, 2.5])
        assert np.allclose(py, [0.5, 0.5, 2.5, 2.5])

    def test_coords_inside_unit_box(self):
        g = reference_grid(8, 6, 2)
        assert np.all(g >= -1.0) and np.all(g <= 1.0)

    def test_bit_identical_regeneration(self):
        assert np.array_equal(reference_grid(6, 6, 3), reference_grid(6, 6, 3))

    def test_cached_grid_refuses_writes(self):
        grid = reference_grid(4, 4, 2)
        before = grid.copy()
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0.5
        assert np.array_equal(reference_grid(4, 4, 2), before)

    def test_divisibility_enforced(self):
        with pytest.raises(PreconditionError):
            reference_grid(5, 4, 2)


class TestCDAConfig:
    def test_rejects_bad_stride(self):
        with pytest.raises(PreconditionError):
            CDAConfig(r=0)

    def test_rejects_bad_scale(self):
        with pytest.raises(PreconditionError):
            CDAConfig(s=0.0)

    def test_rejects_even_or_small_kernel(self):
        with pytest.raises(PreconditionError):
            CDAConfig(r=2, k_off=4)
        with pytest.raises(PreconditionError):
            CDAConfig(r=3, k_off=3)

    def test_fusion_config_channel_mismatch(self):
        with pytest.raises(PreconditionError):
            FusionConfig(na=NAConfig(k=3, channels=4), cda=CDAConfig(channels=8))


class TestOffsetNet:
    def test_zero_weights_give_zero_offsets(self):
        cfg = CDAConfig(r=2, s=0.5, k_off=5, channels=4)
        store = ParamStore(seed=0)
        init_cda_params(store, "cda", cfg)  # final conv zero by design
        dp = offset_net(np.random.default_rng(0).standard_normal((4, 4, 4)), cfg, store.nodes(), "cda")
        assert np.array_equal(dp.value, np.zeros((2, 4)))

    def test_matches_straight_line_oracle_on_ones(self):
        cfg = CDAConfig(r=2, s=0.5, k_off=3, channels=2)
        store = ParamStore(seed=7)
        init_cda_params(store, "cda", cfg)
        rng = np.random.default_rng(7)
        store.set_array("cda.off_w", rng.standard_normal((2, 2)))
        store.set_array("cda.off_b", rng.standard_normal(2))
        x = np.ones((2, 4, 4))
        got = offset_net(x, cfg, store.nodes(), "cda").value
        want = offset_oracle(x, store, "cda", cfg)
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_oracle_on_random_input(self):
        cfg = CDAConfig(r=2, s=0.3, k_off=5, channels=3)
        store = ParamStore(seed=8)
        init_cda_params(store, "cda", cfg)
        rng = np.random.default_rng(8)
        store.set_array("cda.off_w", rng.standard_normal((2, 3)))
        x = rng.standard_normal((3, 6, 4))
        got = offset_net(x, cfg, store.nodes(), "cda").value
        want = offset_oracle(x, store, "cda", cfg)
        assert np.allclose(got, want, atol=1e-12)


class TestCDAForward:
    def test_zero_ffn_is_identity_on_residual(self):
        rng = np.random.default_rng(3)
        d = 4
        cfg = CDAConfig(r=2, s=0.5, k_off=5, channels=d)
        store = ParamStore(seed=3)
        init_cda_params(store, "cda", cfg)
        store.set_array("cda.ffn_w2", np.zeros((d, 2 * d)))
        store.set_array("cda.ffn_b2", np.zeros(d))
        f_res = rng.standard_normal((d, 4, 4))
        out = cda_forward(f_res, rng.standard_normal((d, 4, 4)), rng.standard_normal((d, 4, 4)), cfg, store.nodes(), "cda")
        assert np.array_equal(out.value, f_res)

    def test_matches_oracle_with_nonzero_offsets(self):
        rng = np.random.default_rng(4)
        d = 3
        cfg = CDAConfig(r=2, s=0.4, k_off=3, channels=d)
        store = ParamStore(seed=4)
        init_cda_params(store, "cda", cfg)
        store.set_array("cda.off_w", 0.5 * rng.standard_normal((2, d)))
        store.set_array("cda.off_b", 0.2 * rng.standard_normal(2))
        f_res = rng.standard_normal((d, 4, 6))
        f_q = rng.standard_normal((d, 4, 6))
        f_kv = rng.standard_normal((d, 4, 6))
        got = cda_forward(f_res, f_q, f_kv, cfg, store.nodes(), "cda").value
        want = cda_oracle(f_res, f_q, f_kv, store, "cda", cfg)
        assert np.abs(got - want).max() <= 1e-10

    def test_shape_mismatch_rejected(self):
        cfg = CDAConfig(channels=2)
        store = ParamStore(seed=0)
        init_cda_params(store, "cda", cfg)
        with pytest.raises(ShapeError):
            cda_forward(np.ones((2, 4, 4)), np.ones((2, 4, 4)), np.ones((2, 4, 2)), cfg, store.nodes(), "cda")


CFG_2 = FusionConfig(na=NAConfig(k=3, channels=2), cda=CDAConfig(r=2, s=0.5, k_off=3, channels=2))


class TestFuse:
    def test_add(self):
        out = fuse(np.ones((2, 3, 3)), np.ones((2, 3, 3)), "add", CFG_2, {})
        assert np.array_equal(out.value, 2.0 * np.ones((2, 3, 3)))

    def test_concat_selector_weights_return_thermal(self):
        # thermal is stacked first, so [I, 0] selects it
        d = 3
        store = ParamStore(seed=0)
        init_fuse_params(store, "fuse", d)
        store.set_array("fuse.w", np.concatenate([np.eye(d), np.zeros((d, d))], axis=1))
        rng = np.random.default_rng(5)
        rgb, ir = rng.standard_normal((d, 4, 4)), rng.standard_normal((d, 4, 4))
        out = fuse(rgb, ir, "concat", CFG_2, store.nodes())
        assert np.allclose(out.value, ir, atol=1e-12)

    def test_concat_matches_loop_oracle(self):
        d = 2
        store = ParamStore(seed=6)
        init_fuse_params(store, "fuse", d)
        rng = np.random.default_rng(6)
        rgb, ir = rng.standard_normal((d, 3, 3)), rng.standard_normal((d, 3, 3))
        got = fuse(rgb, ir, "concat", CFG_2, store.nodes()).value
        w, b = store.array("fuse.w"), store.array("fuse.b")
        want = np.zeros((d, 3, 3))
        for i in range(3):
            for j in range(3):
                stacked = np.concatenate([ir[:, i, j], rgb[:, i, j]])
                want[:, i, j] = w @ stacked + b
        assert np.allclose(got, want, atol=1e-12)

    def test_cda_is_fusion_forward(self):
        store = ParamStore(seed=2)
        init_fusion_params(store, CFG_2)
        rng = np.random.default_rng(2)
        rgb, ir = rng.standard_normal((2, 4, 4)), rng.standard_normal((2, 4, 4))
        got = fuse(rgb, ir, "cda", CFG_2, store.nodes()).value
        assert np.array_equal(got, fusion_forward(rgb, ir, CFG_2, store.nodes()).value)

    def test_cmi_stub_errors(self):
        # the reserved placeholder mode is gone: it is an unknown mode now
        with pytest.raises(PreconditionError, match="unknown fusion mode"):
            fuse(np.ones((1, 2, 2)), np.ones((1, 2, 2)), "cmi-stub", CFG_2, {})

    def test_unknown_mode_rejected(self):
        with pytest.raises(PreconditionError):
            fuse(np.ones((1, 2, 2)), np.ones((1, 2, 2)), "mean", CFG_2, {})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fuse(np.ones((1, 2, 2)), np.ones((1, 2, 3)), "add", CFG_2, {})


class TestBatchedFuse:
    """A (B, D, H, W) batch of pairs fused in one call equals each pair
    fused alone, bit for bit: the maps and every parameter gradient."""

    @staticmethod
    def live_store(cfg: FusionConfig, mode: str) -> dict[str, np.ndarray]:
        store = ParamStore(seed=8)
        init_fusion_params(store, cfg, mode)
        rng = np.random.default_rng(8)
        for prefix in ("cda_rgb", "cda_ir"):  # a live offset branch
            if f"{prefix}.off_w" in store:
                store.set_array(f"{prefix}.off_w", 2.0 * rng.standard_normal((2, cfg.cda.channels)))
                store.set_array(f"{prefix}.off_b", 0.3 * rng.standard_normal(2))
        return {k: store.array(k) for k in store.keys()}

    @pytest.mark.parametrize("mode", ["cda", "concat", "add"])
    @pytest.mark.parametrize("d,side", [(4, 4), (8, 8), (8, 16)])
    def test_batch_equals_each_pair(self, mode, d, side, batch_check):
        cfg = FusionConfig(na=NAConfig(k=3, channels=d), cda=CDAConfig(r=2, s=0.5, k_off=3, channels=d))
        rng = np.random.default_rng(side)
        rgb, ir = 2.0 * rng.standard_normal((2, 3, d, side, side))
        out = batch_check(lambda a, b, p: fuse(a, b, mode, cfg, p), [rgb, ir], self.live_store(cfg, mode))
        assert out.value.shape == (3, d, side, side)

    def test_init_fusion_params_per_mode(self):
        full, mix, none = (ParamStore(seed=1) for _ in range(3))
        init_fusion_params(full, CFG_2)
        init_fusion_params(mix, CFG_2, "concat")
        init_fusion_params(none, CFG_2, "add")
        assert mix.keys() == ["fuse.w", "fuse.b"] and none.keys() == []
        assert full.keys()[-2:] == ["fuse.w", "fuse.b"] and len(full.keys()) == 34


class TestFusionForward:
    def test_init_fusion_params_draw_order(self):
        # the seeded draws, and so every saved store, depend on this order
        d = 3
        cfg = FusionConfig(na=NAConfig(k=3, channels=d), cda=CDAConfig(r=2, s=0.5, k_off=3, channels=d))
        store = ParamStore(seed=4)
        init_fusion_params(store, cfg)
        want = ParamStore(seed=4)
        init_na_params(want, "na_rgb", d)
        init_na_params(want, "na_ir", d)
        init_cda_params(want, "cda_rgb", cfg.cda)
        init_cda_params(want, "cda_ir", cfg.cda)
        init_fuse_params(want, "fuse", d)
        assert store.keys() == want.keys()
        assert all(np.array_equal(store.array(k), want.array(k)) for k in want.keys())

    def test_shape_preserved(self):
        d = 4
        cfg = FusionConfig(na=NAConfig(k=3, channels=d), cda=CDAConfig(r=2, s=0.5, k_off=5, channels=d))
        store = ParamStore(seed=0)
        init_fusion_params(store, cfg)
        rng = np.random.default_rng(7)
        out = fusion_forward(rng.standard_normal((d, 8, 8)), rng.standard_normal((d, 8, 8)), cfg, store.nodes())
        assert out.value.shape == (d, 8, 8)

    def test_zeroed_branches_reduce_to_selector(self):
        d = 3
        cfg = FusionConfig(na=NAConfig(k=3, channels=d), cda=CDAConfig(r=2, s=0.5, k_off=3, channels=d))
        store = ParamStore(seed=1)
        init_fusion_params(store, cfg)
        for key in store.keys():
            if key != "fuse.w":
                store.set_array(key, np.zeros_like(store.array(key)))
        store.set_array("fuse.w", np.concatenate([np.eye(d), np.zeros((d, d))], axis=1))
        rng = np.random.default_rng(8)
        f_rgb = rng.standard_normal((d, 4, 4))
        f_ir = rng.standard_normal((d, 4, 4))
        out = fusion_forward(f_rgb, f_ir, cfg, store.nodes())
        # zeroed attention branches leave the residuals; the selector picks
        # the thermal-first half of the concatenation
        assert np.allclose(out.value, f_ir, atol=1e-12)

    def test_matches_composed_oracle(self):
        d = 3
        cfg = FusionConfig(na=NAConfig(k=3, channels=d), cda=CDAConfig(r=2, s=0.4, k_off=3, channels=d))
        store = ParamStore(seed=2)
        init_fusion_params(store, cfg)
        rng = np.random.default_rng(9)
        for prefix in ("cda_rgb", "cda_ir"):
            store.set_array(f"{prefix}.off_w", 0.4 * rng.standard_normal((2, d)))
            store.set_array(f"{prefix}.off_b", 0.2 * rng.standard_normal(2))
        f_rgb = rng.standard_normal((d, 4, 4))
        f_ir = rng.standard_normal((d, 4, 4))
        got = fusion_forward(f_rgb, f_ir, cfg, store.nodes()).value

        fp_rgb = na_oracle(f_rgb, store.array("na_rgb.wq"), store.array("na_rgb.wk"), store.array("na_rgb.wv"), cfg.na.k)
        fp_ir = na_oracle(f_ir, store.array("na_ir.wq"), store.array("na_ir.wk"), store.array("na_ir.wv"), cfg.na.k)
        fpp_rgb = cda_oracle(f_rgb, fp_rgb, fp_ir, store, "cda_rgb", cfg.cda)
        fpp_ir = cda_oracle(f_ir, fp_ir, fp_rgb, store, "cda_ir", cfg.cda)
        stacked = np.concatenate([fpp_ir, fpp_rgb], axis=0)
        want = np.einsum("oc,chw->ohw", store.array("fuse.w"), stacked) + store.array("fuse.b")[:, None, None]
        assert np.abs(got - want).max() <= 1e-10

    def test_modality_swap_symmetry(self):
        d = 3
        cda_cfg = CDAConfig(r=2, s=0.5, k_off=3, channels=d)
        cfg = FusionConfig(na=NAConfig(k=3, channels=d), cda=cda_cfg)
        store = ParamStore(seed=3)
        init_fusion_params(store, cfg)
        swapped = ParamStore(seed=99)
        for key in store.keys():
            swap = {"na_rgb": "na_ir", "na_ir": "na_rgb", "cda_rgb": "cda_ir", "cda_ir": "cda_rgb"}
            group, _, rest = key.partition(".")
            swapped.add(f"{swap.get(group, group)}.{rest}", store.array(key).copy())
        rng = np.random.default_rng(10)
        f_rgb = rng.standard_normal((d, 4, 4))
        f_ir = rng.standard_normal((d, 4, 4))

        from fusedet.neighborhood import na_forward

        pa, pb = store.nodes(), swapped.nodes()
        fp_rgb_a = na_forward(f_rgb, cfg.na, pa, "na_rgb")
        fp_ir_a = na_forward(f_ir, cfg.na, pa, "na_ir")
        out_rgb_a = cda_forward(f_rgb, fp_rgb_a, fp_ir_a, cda_cfg, pa, "cda_rgb")
        fp_ir_b = na_forward(f_ir, cfg.na, pb, "na_rgb")
        fp_rgb_b = na_forward(f_rgb, cfg.na, pb, "na_ir")
        out_rgb_b = cda_forward(f_rgb, fp_rgb_b, fp_ir_b, cda_cfg, pb, "cda_ir")
        assert np.array_equal(out_rgb_a.value, out_rgb_b.value)

    def test_grad_through_everything(self):
        # central differences resolve a gradient entry only when its true
        # magnitude clears the finite-difference noise floor, so the checked
        # configuration boosts offset-path sensitivity (large off_w, high map
        # contrast) and uses a seed whose entries all stay resolvable
        d = 3
        cfg = FusionConfig(na=NAConfig(k=3, channels=d), cda=CDAConfig(r=2, s=0.5, k_off=3, channels=d))
        store = ParamStore(seed=2)
        init_fusion_params(store, cfg)
        rng = np.random.default_rng(1002)
        for prefix in ("cda_rgb", "cda_ir"):
            store.set_array(f"{prefix}.off_w", 2.0 * rng.standard_normal((2, d)))
            store.set_array(f"{prefix}.off_b", 0.3 * rng.standard_normal(2))
        f_rgb = 2.0 * rng.standard_normal((d, 4, 4))
        f_ir = 2.0 * rng.standard_normal((d, 4, 4))
        # guard: deformed sampling points stay clear of bilinear cell edges
        from fusedet.neighborhood import na_forward

        p = store.nodes()
        fp_rgb = na_forward(f_rgb, cfg.na, p, "na_rgb").value
        fp_ir = na_forward(f_ir, cfg.na, p, "na_ir").value
        for prefix, kv in (("cda_rgb", fp_ir), ("cda_ir", fp_rgb)):
            coords = reference_grid(4, 4, cfg.cda.r) + offset_net(kv, cfg.cda, p, prefix).value
            px, py = pixel_coords(coords, 4, 4)
            for arr in (px, py):
                frac = np.abs(arr - np.round(arr))
                assert np.all(frac > 1e-2), "sampling point too close to a bilinear kink"
        probe = rng.standard_normal((d, 4, 4))
        err = grad_check(lambda p: (fusion_forward(f_rgb, f_ir, cfg, p) * probe).sum(), store)
        assert err <= 1e-6
