import tempfile
from dataclasses import fields

import numpy as np
import pytest

from conftest import write_non_finite
from fusedet import audit, fmp
from fusedet.autodiff import ParamStore
from fusedet.cli import main
from fusedet.data import load_index
from fusedet.deformable import CDAConfig, FusionConfig, fusion_forward, init_fusion_params
from fusedet.evaluation import (
    Box,
    Detection,
    GroundTruth,
    nap50,
    read_detections,
    read_ground_truths,
    write_detections,
    write_ground_truths,
)
from fusedet.errors import NumericGuardError, ParseError, PreconditionError, ShapeError
from fusedet.model import ModelConfig, init_params, query_features
from fusedet.prototypes import load_prototypes
from fusedet.neighborhood import NAConfig
from fusedet.selftest import CHECKS
from fusedet.synth import SynthConfig, generate_synthetic
from fusedet.training import TrainConfig

TINY_CFG = """
model.channels = 4
model.classes_total = 2
model.t_max = 2
model.k_off = 3
model.roi_out = 2
model.roi_sampling = 1
model.score_thr = 0.0
train.steps_base = 2
train.steps_finetune = 2
train.shots_per_step = 1
train.k = 2
train.n_support_seeds = 2
synth.classes = 2
synth.images = 8
synth.channels = 4
synth.height = 4
synth.width = 4
synth.max_objects = 1
synth.min_size = 2.0
synth.max_size = 3.0
split.base = 0
split.novel = 1
"""

# TINY_CFG's 4x4 maps decode no valid box after its 2 + 2 steps; the same
# run on 8x8 maps writes detections, so a file round trip carries records.
BOXES_CFG = TINY_CFG.replace("synth.height = 4", "synth.height = 8").replace("synth.width = 4", "synth.width = 8")


def old_fmp_bytes(array) -> bytes:
    """A map in the earlier FMP1 format: magic, three u32 D, H, W, then
    the float64 values."""
    d, h, w = array.shape
    return b"FMP1" + b"".join(n.to_bytes(4, "little") for n in (d, h, w)) + array.astype("<f8").tobytes()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, text=TINY_CFG):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def small_maps(tmp_path, d=4, h=4, w=4, seed=0):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((d, h, w)), rng.standard_normal((d, h, w))
    pa, pb = tmp_path / "a.fmp", tmp_path / "b.fmp"
    fmp.write_map(pa, a)
    fmp.write_map(pb, b)
    return a, b, str(pa), str(pb)


class TestFuse:
    def test_add_mode_is_elementwise_sum(self, tmp_path, capsys):
        a, b, pa, pb = small_maps(tmp_path)
        out = tmp_path / "sum.fmp"
        code, stdout, _ = run(capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "add", "--out", str(out))
        assert code == 0
        assert np.array_equal(fmp.read_map(out), a + b)
        assert "checksum=" in stdout

    def test_cda_mode_matches_library_pipeline(self, tmp_path, capsys):
        a, b, pa, pb = small_maps(tmp_path)
        out = tmp_path / "fused.fmp"
        code, _, _ = run(
            capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "cda",
            "--seed", "3", "--out", str(out), "--config", write_cfg(tmp_path),
        )
        assert code == 0
        fusion = FusionConfig(
            na=NAConfig(k=3, channels=4), cda=CDAConfig(r=2, s=0.5, k_off=3, channels=4)
        )
        store = ParamStore(seed=3)
        init_fusion_params(store, fusion)
        expected = fusion_forward(a, b, fusion, store.nodes())
        assert np.array_equal(fmp.read_map(out), expected.value)

    def test_cda_mode_on_odd_channel_count(self, tmp_path, capsys):
        # a model needs an even channel count; fuse takes the maps' own
        a, b, pa, pb = small_maps(tmp_path, d=3)
        out = tmp_path / "fused.fmp"
        code, _, _ = run(capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "cda", "--seed", "1", "--out", str(out))
        assert code == 0
        fusion = FusionConfig(
            na=NAConfig(k=3, channels=3), cda=CDAConfig(r=2, s=0.5, k_off=5, channels=3)
        )
        store = ParamStore(seed=1)
        init_fusion_params(store, fusion)
        expected = fusion_forward(a, b, fusion, store.nodes())
        assert np.array_equal(fmp.read_map(out), expected.value)

    def test_concat_mode_equals_model_query_features(self, tmp_path, capsys):
        # both stack thermal first, so a run's store gives the model's map
        a, b, pa, pb = small_maps(tmp_path)
        cfg = ModelConfig(channels=4, fusion_mode="concat")
        store = init_params(cfg, seed=3)
        store.save(tmp_path / "P.pst")
        out = tmp_path / "fused.fmp"
        code, _, _ = run(
            capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "concat",
            "--params", str(tmp_path / "P.pst"), "--out", str(out),
        )
        assert code == 0
        assert np.array_equal(fmp.read_map(out), query_features(a, b, cfg, store.nodes()).value)

    def test_same_inputs_same_checksum(self, tmp_path, capsys):
        _, _, pa, pb = small_maps(tmp_path)
        lines = []
        for name in ("x.fmp", "y.fmp"):
            out = tmp_path / name
            code, stdout, _ = run(capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "add", "--out", str(out))
            assert code == 0
            lines.append(stdout.strip().splitlines()[-1])
        assert lines[0] == lines[1]

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        _, _, pa, _ = small_maps(tmp_path)
        other = tmp_path / "wide.fmp"
        fmp.write_map(other, np.zeros((4, 4, 6)))
        code, _, err = run(capsys, "fuse", "--rgb", pa, "--ir", str(other), "--out", str(tmp_path / "o.fmp"))
        assert code == 2 and "shape" in err.lower()

    def test_old_fmp1_map_exits_2(self, tmp_path, capsys):
        a, _, _, pb = small_maps(tmp_path)
        old = tmp_path / "old.fmp"
        old.write_bytes(old_fmp_bytes(a))
        code, _, err = run(capsys, "fuse", "--rgb", str(old), "--ir", pb, "--out", str(tmp_path / "o.fmp"))
        assert code == 2 and "magic" in err

    def test_params_missing_a_key_exits_2(self, tmp_path, capsys):
        _, _, pa, pb = small_maps(tmp_path)
        partial = ParamStore(seed=0)
        partial.zeros("fuse.w", (4, 8))
        partial.save(tmp_path / "partial.pst")
        code, _, err = run(
            capsys, "fuse", "--rgb", pa, "--ir", pb, "--params", str(tmp_path / "partial.pst"),
            "--out", str(tmp_path / "o.fmp"),
        )
        assert code == 2 and "missing na_rgb." in err

    def test_concat_params_need_only_the_mix(self, tmp_path, capsys):
        a, b, pa, pb = small_maps(tmp_path)
        mix = ParamStore(seed=5)
        mix.xavier_uniform("fuse.w", (4, 8), 8, 4)
        mix.xavier_uniform("fuse.b", (4,), 8, 4)
        mix.save(tmp_path / "mix.pst")
        out = tmp_path / "o.fmp"
        code, _, err = run(
            capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "concat",
            "--params", str(tmp_path / "mix.pst"), "--out", str(out),
        )
        assert code == 0, err
        w, bias = mix.array("fuse.w"), mix.array("fuse.b")
        want = np.einsum("dc,chw->dhw", w, np.concatenate([b, a])) + bias[:, None, None]
        assert np.allclose(fmp.read_map(out), want, atol=1e-12)

    def test_add_params_may_be_empty(self, tmp_path, capsys):
        a, b, pa, pb = small_maps(tmp_path)
        ParamStore(seed=0).save(tmp_path / "empty.pst")
        out = tmp_path / "o.fmp"
        code, _, err = run(
            capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "add",
            "--params", str(tmp_path / "empty.pst"), "--out", str(out),
        )
        assert code == 0, err
        assert np.array_equal(fmp.read_map(out), a + b)

    def test_cda_params_missing_one_key_exits_2(self, tmp_path, capsys):
        _, _, pa, pb = small_maps(tmp_path)
        full = ParamStore(seed=0)
        init_fusion_params(full, FusionConfig(NAConfig(k=3, channels=4), CDAConfig(k_off=5, channels=4)))
        partial = ParamStore(seed=0)
        for key in full.keys():
            if key != "cda_ir.off_b":
                partial.add(key, full.array(key))
        partial.save(tmp_path / "partial.pst")
        code, _, err = run(
            capsys, "fuse", "--rgb", pa, "--ir", pb, "--mode", "cda",
            "--params", str(tmp_path / "partial.pst"), "--out", str(tmp_path / "o.fmp"),
        )
        assert code == 2 and "missing cda_ir.off_b" in err
        assert "; " not in err  # the only problem listed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_params_non_finite_exits_3(self, tmp_path, capsys, bad):
        _, _, pa, pb = small_maps(tmp_path)
        fusion = FusionConfig(
            na=NAConfig(k=3, channels=4), cda=CDAConfig(r=2, s=0.5, k_off=5, channels=4)
        )
        store = ParamStore(seed=0)
        init_fusion_params(store, fusion)
        store.array("cda_rgb.wq")[0, 1] = bad
        write_non_finite(tmp_path / "bad.pst", {k: store.array(k) for k in store.keys()}, store.seed)
        code, _, err = run(
            capsys, "fuse", "--rgb", pa, "--ir", pb, "--params", str(tmp_path / "bad.pst"),
            "--out", str(tmp_path / "o.fmp"),
        )
        assert code == 3 and "non-finite" in err and "cda_rgb.wq" in err
        assert not (tmp_path / "o.fmp").exists()

    def test_missing_input_exits_1(self, tmp_path, capsys):
        _, _, pa, _ = small_maps(tmp_path)
        code, _, err = run(capsys, "fuse", "--rgb", pa, "--ir", str(tmp_path / "absent.fmp"), "--out", str(tmp_path / "o.fmp"))
        assert code == 1 and "i/o error" in err


class TestPipeline:
    def run_pipeline(self, tmp_path, capsys, tag, cfg_text=TINY_CFG):
        cfg = write_cfg(tmp_path, cfg_text)
        data = tmp_path / f"data{tag}"
        rundir = tmp_path / f"run{tag}"
        dets = tmp_path / f"dets{tag}.txt"
        code, gen_out, _ = run(capsys, "gen", "--out", str(data), "--seed", "0", "--config", cfg)
        assert code == 0
        code, train_out, _ = run(
            capsys, "train", "--data", str(data / "index.txt"), "--out", str(rundir),
            "--seed", "0", "--config", cfg,
        )
        assert code == 0
        code, infer_out, _ = run(
            capsys, "infer", "--data", str(data / "index.txt"),
            "--params", str(rundir / "params.pst"), "--protos", str(rundir / "protos.pst"),
            "--out", str(dets), "--config", cfg,
        )
        assert code == 0
        code, eval_out, _ = run(
            capsys, "eval", "--dets", str(dets), "--gts", str(data / "gts.txt"),
            "--novel", "1", "--config", cfg,
        )
        assert code == 0
        return data, rundir, dets, (gen_out, train_out, infer_out, eval_out)

    def test_end_to_end_through_files(self, tmp_path, capsys):
        data, rundir, dets, outs = self.run_pipeline(tmp_path, capsys, "0", BOXES_CFG)
        assert sorted(p.name for p in rundir.iterdir()) == ["log.txt", "params.pst", "protos.pst"]
        assert len((rundir / "log.txt").read_text().splitlines()) == 4
        records = read_detections(dets)
        assert records and f"wrote {len(records)} detections for 8 images" in outs[2]
        # eval scores the records the file holds
        assert f"nAP50 {nap50(records, read_ground_truths(data / 'gts.txt'), [1]):.4f}" in outs[3]
        # every command echoes its resolved configuration
        for out in outs:
            assert "# resolved configuration" in out
            assert "train.lr = 0.05" in out

    def test_train_without_split_exits_2(self, tmp_path, capsys):
        bare = tmp_path / "bare.cfg"
        bare.write_text("synth.classes = 2\nsynth.channels = 4\n")
        code, _, err = run(capsys, "train", "--data", "x", "--out", str(tmp_path / "r"), "--config", str(bare))
        assert code == 2 and "split" in err

    def test_diverging_train_exits_3(self, tmp_path, capsys):
        hot = tmp_path / "hot.cfg"
        hot.write_text(
            TINY_CFG.replace("train.steps_base = 2", "train.steps_base = 30")
            + "train.lr = 1e9\n"
        )
        data = tmp_path / "d"
        code, _, _ = run(capsys, "gen", "--out", str(data), "--seed", "0", "--config", str(hot))
        assert code == 0
        with np.errstate(all="ignore"):
            code, _, err = run(
                capsys, "train", "--data", str(data / "index.txt"),
                "--out", str(tmp_path / "r"), "--seed", "0", "--config", str(hot),
            )
        assert code == 3 and "numerical error" in err

    def test_infer_unknown_id_exits_2(self, tmp_path, capsys):
        data, rundir, _, _ = self.run_pipeline(tmp_path, capsys, "C")
        code, _, err = run(
            capsys, "infer", "--data", str(data / "index.txt"),
            "--params", str(rundir / "params.pst"), "--protos", str(rundir / "protos.pst"),
            "--out", str(tmp_path / "o.txt"), "--ids", "ghost",
        )
        assert code == 2 and "ghost" in err

    def test_infer_repeated_id_exits_2(self, tmp_path, capsys, trained):
        data, rundir, cfg = trained
        code, _, err = run(
            capsys, "infer", "--data", str(data / "index.txt"),
            "--params", str(rundir / "params.pst"), "--protos", str(rundir / "protos.pst"),
            "--out", str(tmp_path / "o.txt"), "--ids", "pair0001,pair0000,pair0001", "--config", cfg,
        )
        assert code == 2 and "['pair0001']" in err
        assert not (tmp_path / "o.txt").exists()

    def infer(self, capsys, tmp_path, data, rundir, params):
        return run(
            capsys, "infer", "--data", str(data / "index.txt"),
            "--params", str(params), "--protos", str(rundir / "protos.pst"),
            "--out", str(tmp_path / "o.txt"), "--config", write_cfg(tmp_path),
        )

    def test_truncated_params_exit_2(self, tmp_path, capsys):
        data, rundir, _, _ = self.run_pipeline(tmp_path, capsys, "T")
        raw = (rundir / "params.pst").read_bytes()
        cut = tmp_path / "cut.pst"
        for n in (10, 40, len(raw) - 5):  # in the header, a key, the last payload
            cut.write_bytes(raw[:n])
            code, _, err = self.infer(capsys, tmp_path, data, rundir, cut)
            assert code == 2 and "truncated" in err

    def test_params_missing_a_key_exit_2(self, tmp_path, capsys):
        data, rundir, _, _ = self.run_pipeline(tmp_path, capsys, "K")
        full = ParamStore.load(rundir / "params.pst")
        partial = ParamStore(seed=full.seed)
        for key in full.keys():
            if key != "head.obj_w":
                partial.add(key, full.array(key))
        partial.save(tmp_path / "partial.pst")
        code, _, err = self.infer(capsys, tmp_path, data, rundir, tmp_path / "partial.pst")
        assert code == 2 and "missing head.obj_w" in err

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_params_exit_3(self, tmp_path, capsys, trained, bad):
        data, rundir, _ = trained
        store = ParamStore.load(rundir / "params.pst")
        store.array("head.obj_w")[...] = bad
        write_non_finite(tmp_path / "bad.pst", {k: store.array(k) for k in store.keys()}, store.seed)
        code, _, err = self.infer(capsys, tmp_path, data, rundir, tmp_path / "bad.pst")
        assert code == 3 and "non-finite" in err and "head.obj_w" in err
        assert not (tmp_path / "o.txt").exists()

    def test_non_finite_input_map_exit_3(self, tmp_path, capsys):
        data, rundir, _, _ = self.run_pipeline(tmp_path, capsys, "N")
        target = sorted(data.glob("*.fmp"))[0]
        x = fmp.read_map(target)
        x[0, 1, 1] = np.nan
        write_non_finite(target, {"map": x})
        code, _, err = self.infer(capsys, tmp_path, data, rundir, rundir / "params.pst")
        assert code == 3 and "non-finite" in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(data dir, run dir, config path) of one small trained run."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    data, rundir = root / "data", root / "run"
    assert main(["gen", "--out", str(data), "--seed", "0", "--config", str(cfg)]) == 0
    assert main(
        ["train", "--data", str(data / "index.txt"), "--out", str(rundir), "--seed", "0", "--config", str(cfg)]
    ) == 0
    return data, rundir, str(cfg)


class TestCorruptPrototypes:
    """Every malformed prototype file exits with its documented code."""

    def infer(self, capsys, trained, protos):
        data, rundir, cfg = trained
        return run(
            capsys, "infer", "--data", str(data / "index.txt"), "--params", str(rundir / "params.pst"),
            "--protos", str(protos), "--out", str(protos.parent / "o.txt"), "--config", cfg,
        )

    def test_every_truncation_exits_2(self, tmp_path, capsys, trained):
        raw = (trained[1] / "protos.pst").read_bytes()
        cut = tmp_path / "cut.pst"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            code, _, err = self.infer(capsys, trained, cut)
            assert code == 2, (n, err)

    @pytest.mark.parametrize(
        "arrays, code, message",
        [
            ({"prototypes": "P"}, 2, "missing class_ids"),
            ({"prototypes": "P", "class_ids": [0.0, 0.5]}, 2, "not all integers"),
            ({"prototypes": "P", "class_ids": [1.0, 1.0]}, 2, "duplicate class ids"),
            ({"prototypes": "P3", "class_ids": [0.0, 1.0]}, 2, "must be (C, D)"),
            ({"prototypes": "P", "class_ids": [0.0, 1.0, 2.0]}, 2, "2 prototype rows"),
            ({"prototypes": "P", "class_ids": [0.0, np.nan]}, 3, "non-finite"),
            ({"prototypes": "P_nan", "class_ids": [0.0, 1.0]}, 3, "non-finite"),
            ({"prototypes": "P_inf", "class_ids": [0.0, 1.0]}, 3, "non-finite"),
        ],
        ids=[
            "no-class-ids", "fractional-id", "duplicate-ids", "rank-3", "extra-id", "nan-id", "nan-value", "inf-value",
        ],
    )
    def test_bad_store_exits(self, tmp_path, capsys, trained, arrays, code, message):
        protos = ParamStore.load(trained[1] / "protos.pst").array("prototypes")
        bad_nan, bad_inf = protos.copy(), protos.copy()
        bad_nan[1, 2], bad_inf[0, 0] = np.nan, -np.inf
        named = {"P": protos, "P3": protos[None], "P_nan": bad_nan, "P_inf": bad_inf}
        write_non_finite(tmp_path / "bad.pst", {k: named[v] if isinstance(v, str) else v for k, v in arrays.items()})
        got, _, err = self.infer(capsys, trained, tmp_path / "bad.pst")
        assert got == code and message in err

    def test_old_fmp_format_exits_2(self, tmp_path, capsys, trained):
        # the earlier format: an FMP map (1, C, D) plus a .classes sidecar
        protos = ParamStore.load(trained[1] / "protos.pst").array("prototypes")
        old = tmp_path / "protos.fmp"
        old.write_bytes(old_fmp_bytes(protos[None]))
        (tmp_path / "protos.fmp.classes").write_text("0\n1\n")
        code, _, err = self.infer(capsys, trained, old)
        assert code == 2 and "magic" in err


class TestEval:
    def test_hand_case_through_files(self, tmp_path, capsys):
        gts = [
            GroundTruth(box=Box(0, 0, 2, 2), class_id=0, image_id="a"),
            GroundTruth(box=Box(0, 0, 2, 2), class_id=0, image_id="b"),
        ]
        dets = [
            Detection(box=Box(0, 0, 2, 2), score=0.9, class_id=0, image_id="a"),
            Detection(box=Box(5, 5, 6, 6), score=0.8, class_id=0, image_id="a"),
            Detection(box=Box(0, 0, 2, 2), score=0.7, class_id=0, image_id="b"),
        ]
        dp, gp = tmp_path / "dets.txt", tmp_path / "gts.txt"
        write_detections(dp, dets)
        write_ground_truths(gp, gts)
        code, out, _ = run(capsys, "eval", "--dets", str(dp), "--gts", str(gp), "--novel", "0")
        assert code == 0
        assert "AP class=0 0.8333" in out
        assert "nAP50 0.8333" in out

    def test_empty_detections_file_scores_zero(self, tmp_path, capsys):
        gp = tmp_path / "gts.txt"
        write_ground_truths(gp, [GroundTruth(box=Box(0, 0, 2, 2), class_id=0, image_id="a")])
        dp = tmp_path / "dets.txt"
        dp.write_text("")
        code, out, _ = run(capsys, "eval", "--dets", str(dp), "--gts", str(gp), "--novel", "0")
        assert code == 0 and "nAP50 0.0000" in out

    def test_malformed_detections_exit_2(self, tmp_path, capsys):
        dp = tmp_path / "dets.txt"
        dp.write_text("a 0 nope 0 0 2 2\n")
        gp = tmp_path / "gts.txt"
        write_ground_truths(gp, [GroundTruth(box=Box(0, 0, 2, 2), class_id=0, image_id="a")])
        code, _, err = run(capsys, "eval", "--dets", str(dp), "--gts", str(gp), "--novel", "0")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "dets, gts",
        [
            ("a 0 0.9 0 0 inf 2\n", "a 0 0 0 2 2\n"),
            ("a 0 0.9 -inf 0 2 2\n", "a 0 0 0 2 2\n"),
            ("a 0 0.9 0 0 2 2\n", "a 0 0 0 2 inf\n"),
        ],
        ids=["det-inf", "det-minus-inf", "gt-inf"],
    )
    def test_non_finite_box_exits_2(self, tmp_path, capsys, dets, gts):
        dp, gp = tmp_path / "dets.txt", tmp_path / "gts.txt"
        dp.write_text(dets)
        gp.write_text(gts)
        code, _, err = run(capsys, "eval", "--dets", str(dp), "--gts", str(gp), "--novel", "0")
        assert code == 2 and "non-finite box" in err

    def test_bad_novel_list_exits_2(self, tmp_path, capsys):
        gp = tmp_path / "gts.txt"
        write_ground_truths(gp, [GroundTruth(box=Box(0, 0, 2, 2), class_id=0, image_id="a")])
        dp = tmp_path / "dets.txt"
        dp.write_text("")
        code, _, err = run(capsys, "eval", "--dets", str(dp), "--gts", str(gp), "--novel", "x")
        assert code == 2 and "--novel" in err


class TestNonFiniteIndexBox:
    """A NaN or infinity in an index box is rejected when the index is
    read, not later as a support (extent check) or as a query target
    (`center_cell` on an infinite centre)."""

    @pytest.mark.parametrize(
        "field, value", [(5, "inf"), (2, "-inf"), (5, "nan")], ids=["y2-inf", "x1-minus-inf", "y2-nan"]
    )
    def test_train_exits_2_with_line(self, tmp_path, capsys, field, value):
        n, code, err = train_with_third_box_0(tmp_path, capsys, {field: value}, seed=2)
        assert code == 2 and f"line {n + 1}: degenerate or non-finite box" in err


class TestQueryTargetOutsideMap:
    """An index box outside its 12x12 map exits 2 naming the box.  With
    `train --seed 7` the box is first drawn as a query target, whose cell
    would otherwise wrap (above-left) or clamp (below-right) onto another."""

    @pytest.mark.parametrize(
        "coords, shown",
        [("-3 -3 -1 -1", "Box(x1=-3.0, y1=-3.0, x2=-1.0, y2=-1.0)"),
         ("20 20 22 22", "Box(x1=20.0, y1=20.0, x2=22.0, y2=22.0)")],
        ids=["above-left", "below-right"],
    )
    def test_train_exits_2_naming_box(self, tmp_path, capsys, coords, shown):
        edits = dict(enumerate(coords.split(), start=2))
        _, code, err = train_with_third_box_0(tmp_path, capsys, edits, seed=7)
        assert code == 2 and f"box {shown} exceeds map extent (12, 12)" in err


def train_with_third_box_0(tmp_path, capsys, edits, seed):
    """`gen --seed 0`, then `train --seed <seed>` with the third `box 0`
    line's fields replaced per `edits` (field -> text): that line's index
    and train's exit code and stderr."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("split.base = 0,2\nsplit.novel = 1\ntrain.steps_base = 3\ntrain.steps_finetune = 3\n")
    data = tmp_path / "d"
    assert run(capsys, "gen", "--out", str(data), "--seed", "0", "--config", str(cfg))[0] == 0
    lines = (data / "index.txt").read_text().splitlines()
    n = [i for i, line in enumerate(lines) if line.strip().startswith("box 0 ")][2]
    tok = lines[n].split()
    for field, value in edits.items():
        tok[field] = value
    lines[n] = "    " + " ".join(tok)
    (data / "index.txt").write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "train", "--data", str(data / "index.txt"), "--out", str(tmp_path / "r"),
        "--seed", str(seed), "--config", str(cfg),
    )
    return n, code, err


INDEX = "img000 img000_rgb.fmp img000_ir.fmp\n    box 0 0.5 0.5 2.5 3.0\n"
GTS = "img000 0 0.5 0.5 2.5 3.0\n"
DETS = "img000 0 0.9 0.5 0.5 2.5 3.0\n"
COORDS = "0.5 0.5 2.5 3.0"
FILES = pytest.mark.parametrize(
    "which, text", [("index", INDEX), ("gts", GTS), ("dets", DETS)], ids=["index", "gts", "dets"]
)


def with_coord(line: str, field: int, value: str) -> str:
    """`line` with the field-th box coordinate replaced by `value`."""
    coords = COORDS.split()
    coords[field] = value
    return line.replace(COORDS, " ".join(coords))


class TestCorruptTextInputs:
    """Index, ground-truth and detection files each exit with their
    documented code when corrupted: 2 for a malformed record, 1 for an
    index header naming a missing map."""

    def argv(self, tmp_path, which, text):
        for name in ("img000_rgb.fmp", "img000_ir.fmp"):
            fmp.write_map(tmp_path / name, np.zeros((2, 4, 4)))
        files = {"index": tmp_path / "index.txt", "gts": tmp_path / "gts.txt", "dets": tmp_path / "dets.txt"}
        files["index"].write_text(INDEX)
        files["gts"].write_text(GTS)
        files["dets"].write_text(DETS)
        files[which].write_bytes(text if isinstance(text, bytes) else text.encode())
        if which == "index":
            # the index is parsed before the store is loaded
            return [
                "infer", "--data", str(files["index"]), "--params", str(tmp_path / "absent.pst"),
                "--protos", str(tmp_path / "absent.pst"), "--out", str(tmp_path / "o.txt"),
            ]
        return ["eval", "--dets", str(files["dets"]), "--gts", str(files["gts"]), "--novel", "0"]

    @pytest.mark.parametrize(
        "which, text, line",
        [
            ("index", "img000 img000_rgb.fmp img000_ir.fmp\n    box 0 0.5 0.5 2.5\n", 2),
            ("index", "img000 img000_rgb.fmp img000_ir.fmp\n    box 0.5 0.5 2.5 3.0\n", 2),
            ("index", "img000 img000_rgb.fmp\n", 1),
            ("gts", "img000 0 0.5 0.5 2.5\n", 1),
            ("gts", GTS + "img000 0.5 0.5 2.5 3.0\n", 2),
            ("dets", "img000 0 0.9 0.5 0.5\n", 1),
            ("dets", DETS + "img000 0 0.5 0.5 2.5 3.0\n", 2),
        ],
        ids=[
            "index-cut", "index-no-class", "index-header-no-ir", "gts-cut", "gts-no-class", "dets-cut", "dets-no-score",
        ],
    )
    def test_cut_or_dropped_field_exits_2(self, tmp_path, capsys, which, text, line):
        code, _, err = run(capsys, *self.argv(tmp_path, which, text))
        assert code == 2 and f"line {line}:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", range(4), ids=["x1", "y1", "x2", "y2"])
    @FILES
    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys, which, text, field, value):
        line = text.count("\n")
        code, _, err = run(capsys, *self.argv(tmp_path, which, with_coord(text, field, value)))
        assert code == 2 and f"line {line}: degenerate or non-finite box" in err

    @FILES
    def test_non_utf8_byte_in_a_later_record_exits_2(self, tmp_path, capsys, which, text):
        code, _, err = run(capsys, *self.argv(tmp_path, which, text.encode() + b"# caf\xe9\n"))
        assert code == 2 and "UTF-8" in err

    def test_header_naming_a_missing_map_exits_1(self, tmp_path, capsys):
        argv = self.argv(tmp_path, "index", INDEX.replace("img000_ir.fmp", "ghost_ir.fmp"))
        code, _, err = run(capsys, *argv)
        assert code == 1 and "missing modality file" in err and "ghost_ir.fmp" in err


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    cfg = SynthConfig(classes=2, images=4, channels=4, height=4, width=4, max_objects=2, min_size=2.0, max_size=3.0)
    generate_synthetic(root, cfg, seed=0)
    return root


@pytest.mark.parametrize("name, reader", [("index.txt", load_index), ("gts.txt", read_ground_truths)])
def test_every_truncation_and_byte_flip_parses_or_raises_parse_error(small_dataset, tmp_path, name, reader):
    """Each prefix of a generated file, and each single-byte flip of it
    (xor 0x20), either reads back or raises ParseError (exit 2); an index
    whose flipped header names a map that is not there raises
    FileNotFoundError (exit 1).  Nothing else escapes."""
    raw = (small_dataset / name).read_bytes()
    for path in small_dataset.glob("*.fmp"):
        (tmp_path / path.name).symlink_to(path)
    target = tmp_path / name
    variants = [raw[:n] for n in range(len(raw))]
    variants += [raw[:i] + bytes([raw[i] ^ 0x20]) + raw[i + 1 :] for i in range(len(raw))]
    for data in variants:
        target.write_bytes(data)
        try:
            reader(target)
        except (ParseError, FileNotFoundError):
            pass


@pytest.mark.parametrize(
    "name, reader", [("map.fmp", fmp.read_map), ("params.pst", ParamStore.load), ("protos.pst", load_prototypes)]
)
def test_every_truncation_and_byte_flip_of_a_binary_file(small_dataset, trained, tmp_path, name, reader):
    """Each prefix of a generated map, params.pst and protos.pst, and each
    single-byte flip of it (xor 0x20), either reads back or raises
    ParseError (exit 2) or NumericGuardError (exit 3).  A prototype file
    whose container reads cleanly may still fail load_prototypes' content
    checks, which exit 2 as well."""
    source = sorted(small_dataset.glob("*.fmp"))[0] if name == "map.fmp" else trained[1] / name
    raw = source.read_bytes()
    target = tmp_path / name
    variants = [raw[:n] for n in range(len(raw))]
    variants += [raw[:i] + bytes([raw[i] ^ 0x20]) + raw[i + 1 :] for i in range(len(raw))]
    for data in variants:
        target.write_bytes(data)
        try:
            reader(target)
        except (ParseError, NumericGuardError):
            pass
        except (PreconditionError, ShapeError):
            assert name == "protos.pst"
            fmp.read_arrays(target)  # the container itself was sound


class TestSelftest:
    def test_pristine_build_all_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.startswith("PASS")]) == len(CHECKS)
        assert lines[-1] == f"{len(CHECKS)}/{len(CHECKS)} checks passed"

    def test_injected_softmax_fault_caught(self, capsys):
        code, out, _ = run(capsys, "selftest", "--inject-fault", "softmax")
        assert code == 2
        failing = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert failing and any("softmax" in l for l in failing)


class TestGradcheck:
    def test_all_stages_pass(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        for name in ("window-attention", "fusion", "aggregation-and-cosine-loss", "training-loss"):
            assert f"PASS {name}" in out
        assert list(tmp_path.iterdir()) == []  # the training case's dataset is removed

    def test_every_audited_case_is_a_verified_row(self, tmp_path, monkeypatch):
        # each stub builder returns its (family, seed) as the store, so an
        # inline case or an unlisted seed shows among what gradcheck builds
        stubbed = tuple((n, lambda s, root, n=n: ((n, s), None), seeds) for n, _, seeds in audit.AUDIT_CASES)
        monkeypatch.setattr(audit, "AUDIT_CASES", stubbed)
        rows = {(name, s) for name, _, seeds in stubbed for s in seeds}
        built = [(name, store) for seed in range(600) for name, store, _ in audit.gradcheck_cases(seed, tmp_path)]
        assert len(built) == 600 * len(stubbed)
        assert all(store in rows and store[0] == name for name, store in built)
        assert {store for _, store in built} == rows


def reading(tmp_path, which, bad):
    """The argv of a command that reads `bad` as its config, index,
    detections or ground truths, with a valid file for the other input of
    `eval`."""
    dets, gts = tmp_path / "dets.txt", tmp_path / "gts.txt"
    dets.write_text("")
    gts.write_text("img000 0 0.5 0.5 2.5 3.0\n")
    return {
        "config": ["gen", "--out", str(tmp_path / "d"), "--config", str(bad)],
        "index": ["infer", "--data", str(bad), "--params", "p", "--protos", "q", "--out", "o"],
        "detections": ["eval", "--dets", str(bad), "--gts", str(gts), "--novel", "0"],
        "ground truths": ["eval", "--dets", str(dets), "--gts", str(bad), "--novel", "0"],
    }[which]


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.wat = 1\n")
        code, _, err = run(capsys, "gen", "--out", str(tmp_path / "d"), "--config", str(bad))
        assert code == 2 and "model.wat" in err

    @pytest.mark.parametrize("which", ["config", "index", "detections", "ground truths"])
    def test_non_utf8_text_file_exits_2(self, tmp_path, capsys, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a 0 0.9 0 0 2 2 \xff\xfe\n")
        code, _, err = run(capsys, *reading(tmp_path, which, bad))
        assert code == 2 and str(bad) in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "argv",
        ["gen --out o --seed -1", "train --data x --out o --seed -1", "fuse --rgb a --ir b --out o --seed -1",
         "gradcheck --seed -1", "gen --out o --config neg.cfg"],
        ids=["gen", "train", "fuse", "gradcheck", "config"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "neg.cfg").write_text("train.seed = -1\n")
        code, _, err = run(capsys, *argv.split())
        assert code == 2 and "seed -1" in err
        assert [p.name for p in tmp_path.iterdir()] == ["neg.cfg"]

    @pytest.mark.parametrize(
        "which, text",
        [
            ("config", "model.channels = 4\njust words\n"),
            ("index", "img000 img000_rgb.fmp img000_ir.fmp\n    box 0 0.5 0.5 2.5\n"),
            ("detections", "img000 0 0.9 0.5 0.5 2.5 3.0\nimg000 0 0.9 0.5 0.5 0.5 3.0\n"),
            ("ground truths", "img000 0 0.5 0.5 2.5 3.0\nimg000 0 0.5 0.5 2.5 0.5\n"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, capsys, which, text):
        for name in ("img000_rgb.fmp", "img000_ir.fmp"):
            fmp.write_map(tmp_path / name, np.zeros((2, 4, 4)))
        bad = tmp_path / "bad.txt"
        bad.write_text("# a comment line\n\n" + text)
        code, _, err = run(capsys, *reading(tmp_path, which, bad))
        assert code == 2 and f"{bad} line 4: " in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize(
        "key",
        [
            f"{prefix}.{f.name}"
            for prefix, cls in (("model", ModelConfig), ("train", TrainConfig), ("synth", SynthConfig))
            for f in fields(cls)
            if type(getattr(cls(), f.name)) is float
        ],
    )
    def test_non_finite_config_float_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        code, _, err = run(capsys, "gen", "--out", "d", "--config", "run.cfg")
        assert code == 2 and f"{key}: cannot read {value!r} as a finite float" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    # the blobs of one class overlap, and their sum overflows to inf
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_gen_with_overflowing_maps_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "synth.amplitude = 1.7e308\nsynth.max_objects = 6\nsynth.classes = 1\nsynth.images = 20\n")
        code, _, err = run(capsys, "gen", "--out", str(tmp_path / "d"), "--seed", "0", "--config", cfg)
        assert code == 3 and "non-finite values in map" in err
        written = sorted((tmp_path / "d").glob("*.fmp"))
        assert written  # the maps before the first overflow are kept, and read back
        for path in written:
            fmp.read_map(path)

    def test_missing_index_exits_1(self, tmp_path, capsys):
        code, _, _ = run(capsys, "infer", "--data", str(tmp_path / "none.txt"),
                         "--params", "p", "--protos", "q", "--out", "o")
        assert code == 1

    def test_argparse_rejects_missing_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fuse", "--rgb", "a"])
        assert info.value.code == 2

    def test_argparse_rejects_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["transmogrify"])


class TestConfigSeed:
    """`gen` and `fuse` seed from the resolved `train.seed`, as `train`
    does: a config's `train.seed` acts as the same `--seed`."""

    def test_gen(self, tmp_path, capsys):
        seeded, plain = tmp_path / "seeded.cfg", tmp_path / "plain.cfg"
        seeded.write_text("train.seed = 5\nsynth.images = 4\n")
        plain.write_text("synth.images = 4\n")
        for out, argv in (("a", ["--config", seeded]), ("b", ["--seed", "5", "--config", plain]),
                          ("c", ["--seed", "0", "--config", plain])):
            assert run(capsys, "gen", "--out", str(tmp_path / out), *map(str, argv))[0] == 0
        a, b, c = ({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()} for out in "abc")
        assert a == b != c

    def test_fuse(self, tmp_path, capsys):
        _, _, pa, pb = small_maps(tmp_path)
        cfg = write_cfg(tmp_path, "train.seed = 5\n")
        for out, argv in (("a", ["--config", cfg]), ("b", ["--seed", "5"]), ("c", ["--seed", "0"])):
            out_path = str(tmp_path / f"fused_{out}.fmp")
            assert run(capsys, "fuse", "--rgb", pa, "--ir", pb, "--out", out_path, *argv)[0] == 0
        a, b, c = ((tmp_path / f"fused_{out}.fmp").read_bytes() for out in "abc")
        assert a == b != c
