import numpy as np
import pytest

from fusedet.data import load_index
from fusedet.errors import PreconditionError
from fusedet.evaluation import GroundTruth
from fusedet.synth import (
    SynthConfig,
    _random_box,
    generate_synthetic,
    ir_channel,
    render_pair,
    rgb_channel,
    synthesize,
)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestSynthConfig:
    def test_capacity_enforced(self):
        with pytest.raises(PreconditionError):
            SynthConfig(classes=5, channels=8)  # at most channels // 2

    def test_object_fit_enforced(self):
        with pytest.raises(PreconditionError):
            SynthConfig(classes=2, channels=8, height=4, width=4, max_size=5.0)

    def test_channel_scheme(self):
        d = 8
        assert rgb_channel(0) == 0 and rgb_channel(1) == 0
        assert rgb_channel(2) == 1 and rgb_channel(3) == 1
        assert ir_channel(0, d) == 4 and ir_channel(3, d) == 7
        for c in range(4):
            assert rgb_channel(c) < d // 2 <= ir_channel(c, d)


class TestRenderPair:
    def test_shapes_match_config(self):
        cfg = SynthConfig(classes=3, channels=8, height=10, width=12)
        rng = np.random.default_rng(0)
        rgb, ir = render_pair(cfg, [GroundTruth(_random_box(cfg, rng), 1, "a")], rng)
        assert rgb.shape == (8, 10, 12)
        assert ir.shape == (8, 10, 12)

    def test_signal_confined_to_modality_halves(self):
        cfg = SynthConfig(classes=3, channels=8, height=12, width=12, noise=0.0)
        rng = np.random.default_rng(1)
        records = [GroundTruth(_random_box(cfg, rng), c, "a") for c in range(3)]
        rgb, ir = render_pair(cfg, records, rng)
        d = cfg.channels
        # rgb signal lives in the low half, ir signal in the high half
        assert np.abs(rgb[d // 2 :]).max() == 0.0
        assert np.abs(ir[: d // 2]).max() == 0.0

    def test_noiseless_argmax_inside_gt_box(self):
        cfg = SynthConfig(classes=3, channels=8, height=12, width=12, max_objects=1, noise=0.0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            record = GroundTruth(_random_box(cfg, rng), seed % cfg.classes, "a")
            rgb, ir = render_pair(cfg, [record], rng)
            rgb_ch, ir_ch = rgb_channel(record.class_id), ir_channel(record.class_id, cfg.channels)
            box = record.box
            for m, ch in ((rgb, rgb_ch), (ir, ir_ch)):
                i, j = np.unravel_index(np.argmax(np.abs(m[ch])), m[ch].shape)
                assert box.y1 <= i + 0.5 <= box.y2
                assert box.x1 <= j + 0.5 <= box.x2

    def test_random_boxes_inside_map(self):
        cfg = SynthConfig(classes=3, channels=8, height=12, width=12)
        rng = np.random.default_rng(2)
        for _ in range(50):
            box = _random_box(cfg, rng)
            assert 0 <= box.x1 and 0 <= box.y1 and box.x2 <= cfg.width and box.y2 <= cfg.height


class TestGenerateSynthetic:
    def test_byte_identical_determinism(self, tmp_path):
        cfg = SynthConfig(classes=3, images=6, channels=8, height=10, width=10)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(a, cfg, seed=7)
        generate_synthetic(b, cfg, seed=7)
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert ta.keys() == tb.keys()
        for name in ta:
            assert ta[name] == tb[name], f"{name} differs between identical runs"

    def test_different_seed_changes_content(self, tmp_path):
        cfg = SynthConfig(classes=2, images=4, channels=8, height=10, width=10)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(a, cfg, seed=1)
        generate_synthetic(b, cfg, seed=2)
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert any(ta[n] != tb[n] for n in ta if n.endswith(".fmp"))

    def test_index_loads_and_matches_files(self, tmp_path):
        cfg = SynthConfig(classes=3, images=8, channels=8, height=12, width=12)
        index = generate_synthetic(tmp_path, cfg, seed=3)
        reloaded = load_index(tmp_path / "index.txt")
        assert reloaded.image_ids() == index.image_ids()
        rgb, ir = reloaded.load_pair(reloaded.image_ids()[0])
        assert rgb.shape == (8, 12, 12)
        assert ir.shape == (8, 12, 12)

    def test_synthesize_equals_what_is_written(self, tmp_path):
        """The in-memory dataset is the one `generate_synthetic` writes: the
        same entries, and pairs loaded before any file exists that equal the
        files' maps in value, dtype and memory order."""
        cfg = SynthConfig(classes=3, images=6, channels=8, height=10, width=6, max_objects=2)
        root = tmp_path.resolve() / "d"
        mem = synthesize(cfg, 11, "img", root)
        pairs = {image_id: mem.load_pair(image_id) for image_id in mem.image_ids()}
        generate_synthetic(root, cfg, seed=11, prefix="img")
        disk = load_index(root / "index.txt")
        assert mem.entries == disk.entries
        for image_id in disk.image_ids():
            for a, b in zip(pairs[image_id], disk.load_pair(image_id), strict=True):
                assert np.array_equal(a, b) and a.dtype == b.dtype
                assert a.flags.c_contiguous and b.flags.c_contiguous

    def test_every_class_appears(self, tmp_path):
        cfg = SynthConfig(classes=3, images=30, channels=8, height=12, width=12)
        index = generate_synthetic(tmp_path, cfg, seed=4)
        assert sorted({g.class_id for e in index.entries.values() for g in e.boxes}) == [0, 1, 2]

    def test_nearest_centroid_separates_classes(self, tmp_path):
        """Class signatures must be distinguishable from clean crops."""
        cfg = SynthConfig(
            classes=3, images=40, channels=8, height=12, width=12, max_objects=1, noise=0.0
        )
        index = generate_synthetic(tmp_path, cfg, seed=5)

        def crop_vector(image_id, box):
            rgb, ir = index.load_pair(image_id)
            stack = np.concatenate([rgb, ir], axis=0)
            y1, y2 = int(np.floor(box.y1)), int(np.ceil(box.y2))
            x1, x2 = int(np.floor(box.x1)), int(np.ceil(box.x2))
            return stack[:, y1:y2, x1:x2].mean(axis=(1, 2))

        samples = []
        for image_id in index.image_ids():
            for g in index.entries[image_id].boxes:
                samples.append((g.class_id, crop_vector(image_id, g.box)))
        train, held_out = samples[::2], samples[1::2]
        centroids = {}
        for c in range(cfg.classes):
            vecs = [v for cid, v in train if cid == c]
            assert vecs, f"class {c} missing from training half"
            centroids[c] = np.mean(vecs, axis=0)
        correct = 0
        for cid, v in held_out:
            pred = min(centroids, key=lambda c: np.linalg.norm(v - centroids[c]))
            correct += pred == cid
        assert correct == len(held_out)
