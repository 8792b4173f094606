import tempfile

import numpy as np
import pytest

from fusedet import fmp
from fusedet.autodiff import ParamStore
from fusedet.cli import main
from fusedet.data import load_index
from fusedet.deformable import CDAConfig, FusionConfig, fusion_forward, init_fusion_params
from fusedet.evaluation import (
    Box,
    Detection,
    GroundTruth,
    read_ground_truths,
    write_detections,
    write_ground_truths,
)
from fusedet.errors import ParseError
from fusedet.neighborhood import NAConfig
from fusedet.selftest import CHECKS
from fusedet.synth import SynthConfig, generate_synthetic

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(TINY_CFG)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_params_non_finite_exits_3(self, tmp_path, capsys, bad):
        _, _, pa, pb = small_maps(tmp_path)
        fusion = FusionConfig(
            na=NAConfig(k=3, channels=4), cda=CDAConfig(r=2, s=0.5, k_off=5, channels=4)
        )
        store = ParamStore(seed=0)
        init_fusion_params(store, fusion)
        store.array("cda_rgb.wq")[0, 1] = bad
        store.save(tmp_path / "bad.pst")
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
    def run_pipeline(self, tmp_path, capsys, tag):
        cfg = write_cfg(tmp_path)
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
        data, rundir, dets, outs = self.run_pipeline(tmp_path, capsys, "0")
        assert sorted(p.name for p in rundir.iterdir()) == ["log.txt", "params.pst", "protos.pst"]
        assert len((rundir / "log.txt").read_text().splitlines()) == 4
        assert "nAP50" in outs[3]
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
        store.save(tmp_path / "bad.pst")
        code, _, err = self.infer(capsys, tmp_path, data, rundir, tmp_path / "bad.pst")
        assert code == 3 and "non-finite" in err and "head.obj_w" in err
        assert not (tmp_path / "o.txt").exists()

    def test_non_finite_input_map_exit_3(self, tmp_path, capsys):
        data, rundir, _, _ = self.run_pipeline(tmp_path, capsys, "N")
        target = sorted(data.glob("*.fmp"))[0]
        x = fmp.read_map(target)
        x[0, 1, 1] = np.nan
        fmp.write_map(target, x)
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
        store = ParamStore(seed=0)
        for key, value in arrays.items():
            store.add(key, named[value] if isinstance(value, str) else value)
        store.save(tmp_path / "bad.pst")
        got, _, err = self.infer(capsys, trained, tmp_path / "bad.pst")
        assert got == code and message in err

    def test_old_fmp_format_exits_2(self, tmp_path, capsys, trained):
        # the earlier format: an FMP map (1, C, D) plus a .classes sidecar
        protos = ParamStore.load(trained[1] / "protos.pst").array("prototypes")
        old = tmp_path / "protos.fmp"
        fmp.write_map(old, protos[None])
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

    CFG = "split.base = 0,2\nsplit.novel = 1\ntrain.steps_base = 3\ntrain.steps_finetune = 3\n"

    @pytest.mark.parametrize(
        "field, value", [(5, "inf"), (2, "-inf"), (5, "nan")], ids=["y2-inf", "x1-minus-inf", "y2-nan"]
    )
    def test_train_exits_2_with_line(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CFG)
        data = tmp_path / "d"
        assert run(capsys, "gen", "--out", str(data), "--seed", "0", "--config", str(cfg))[0] == 0
        lines = (data / "index.txt").read_text().splitlines()
        n = [i for i, line in enumerate(lines) if line.strip().startswith("box 0 ")][2]
        tok = lines[n].split()
        tok[field] = value
        lines[n] = "    " + " ".join(tok)
        (data / "index.txt").write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "train", "--data", str(data / "index.txt"), "--out", str(tmp_path / "r"),
            "--seed", "2", "--config", str(cfg),
        )
        assert code == 2 and f"line {n + 1}: degenerate or non-finite box" in err


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
        dets, gts = tmp_path / "dets.txt", tmp_path / "gts.txt"
        dets.write_text("")
        gts.write_text("a 0 0 0 2 2\n")
        argv = {
            "config": ["gen", "--out", str(tmp_path / "d"), "--config", str(bad)],
            "index": ["infer", "--data", str(bad), "--params", "p", "--protos", "q", "--out", "o"],
            "detections": ["eval", "--dets", str(bad), "--gts", str(gts), "--novel", "0"],
            "ground truths": ["eval", "--dets", str(dets), "--gts", str(bad), "--novel", "0"],
        }[which]
        code, _, err = run(capsys, *argv)
        assert code == 2 and str(bad) in err and "UTF-8" in err

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
