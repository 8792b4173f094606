from pathlib import Path

import numpy as np
import pytest

from fusedet import fmp
from fusedet.data import (
    DatasetIndex,
    IndexEntry,
    SplitSpec,
    SupportSet,
    build_supports,
    load_index,
    sample_episode,
    save_index,
)
from fusedet.errors import ParseError, PreconditionError
from fusedet.evaluation import Box, GroundTruth


def write_pair(root: Path, image_id: str) -> tuple[Path, Path]:
    rgb = root / f"{image_id}_rgb.fmp"
    ir = root / f"{image_id}_ir.fmp"
    fmp.write_map(rgb, np.zeros((2, 4, 4)))
    fmp.write_map(ir, np.zeros((2, 4, 4)))
    return rgb, ir


def toy_index(class_lists: list[list[int]], root: Path | None = None) -> DatasetIndex:
    """One image per inner list, one unit box per listed class id."""
    index = DatasetIndex()
    for i, classes in enumerate(class_lists):
        image_id = f"img{i:03d}"
        if root is not None:
            rgb, ir = write_pair(root, image_id)
        else:
            rgb, ir = Path(f"{image_id}_rgb.fmp"), Path(f"{image_id}_ir.fmp")
        boxes = [
            GroundTruth(Box(float(j), float(j), float(j + 2), float(j + 2)), c, image_id)
            for j, c in enumerate(classes)
        ]
        index.add(IndexEntry(image_id=image_id, rgb_path=rgb, ir_path=ir, boxes=boxes, condition=""))
    return index


class TestDatasetIndex:
    def test_duplicate_image_id_rejected(self):
        index = toy_index([[0]])
        with pytest.raises(PreconditionError):
            index.add(index.entries["img000"])

    def test_instances_in_index_order(self):
        index = toy_index([[0, 1], [1], [0]])
        ids = [g.image_id for g in index.instances(0)]
        assert ids == ["img000", "img002"]
        assert len(index.instances(1)) == 2


class TestIndexFiles:
    def test_round_trip(self, tmp_path):
        index = toy_index([[0, 1], [2]], root=tmp_path)
        index.entries["img000"].condition = "night"
        path = tmp_path / "index.txt"
        save_index(path, index)
        back = load_index(path)
        assert back.image_ids() == index.image_ids()
        for image_id in index.image_ids():
            a, b = index.entries[image_id], back.entries[image_id]
            assert a.boxes == b.boxes
            assert a.condition == b.condition
            assert b.rgb_path.is_file() and b.ir_path.is_file()

    def test_empty_file_gives_empty_index(self, tmp_path):
        path = tmp_path / "index.txt"
        path.write_text("# nothing here\n")
        assert load_index(path).image_ids() == []

    def test_degenerate_box_reports_line(self, tmp_path):
        write_pair(tmp_path, "img000")
        path = tmp_path / "index.txt"
        path.write_text("img000 img000_rgb.fmp img000_ir.fmp\n    box 0 3.0 0.0 3.0 2.0\n")
        with pytest.raises(ParseError) as exc:
            load_index(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", range(4))
    def test_non_finite_box_reports_line(self, tmp_path, field, value):
        write_pair(tmp_path, "img000")
        coords = ["0.0", "0.0", "2.0", "2.0"]
        coords[field] = value
        path = tmp_path / "index.txt"
        path.write_text(f"img000 img000_rgb.fmp img000_ir.fmp\n    box 0 1 1 2 2\n    box 0 {' '.join(coords)}\n")
        with pytest.raises(ParseError, match="non-finite box") as exc:
            load_index(path)
        assert exc.value.line == 3

    def test_box_before_header_rejected(self, tmp_path):
        path = tmp_path / "index.txt"
        path.write_text("    box 0 0.0 0.0 2.0 2.0\n")
        with pytest.raises(ParseError) as exc:
            load_index(path)
        assert exc.value.line == 1

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "index.txt"
        path.write_text("img000 only_one_path.fmp\n")
        with pytest.raises(ParseError):
            load_index(path)

    def test_missing_modality_file(self, tmp_path):
        rgb = tmp_path / "img000_rgb.fmp"
        fmp.write_map(rgb, np.zeros((1, 2, 2)))
        path = tmp_path / "index.txt"
        path.write_text("img000 img000_rgb.fmp img000_ir.fmp\n")
        with pytest.raises(FileNotFoundError):
            load_index(path)


class TestSplitSpec:
    def test_sorts_and_deduplicates(self):
        s = SplitSpec(base_classes=(2, 0, 2), novel_classes=(3,))
        assert s.base_classes == (0, 2)
        assert s.all_classes() == (0, 2, 3)

    def test_overlap_rejected(self):
        with pytest.raises(PreconditionError):
            SplitSpec(base_classes=(0, 1), novel_classes=(1, 2))

    def test_empty_side_rejected(self):
        with pytest.raises(PreconditionError):
            SplitSpec(base_classes=(), novel_classes=(1,))
        with pytest.raises(PreconditionError):
            SplitSpec(base_classes=(0,), novel_classes=())


class TestBuildSupports:
    def split(self):
        return SplitSpec(base_classes=(0,), novel_classes=(1,))

    def big_index(self, n=40):
        # alternate classes so both have n/2 instances
        return toy_index([[i % 2] for i in range(n)])

    def test_exact_k_per_class(self):
        for k in (1, 3, 5):
            sets = build_supports(self.big_index(), self.split(), k=k, n_seeds=4)
            assert len(sets) == 4
            for s in sets:
                for c in (0, 1):
                    assert len(s.instances[c]) == k

    def test_without_replacement(self):
        sets = build_supports(self.big_index(), self.split(), k=10, n_seeds=3)
        for s in sets:
            for c in (0, 1):
                assert len(set(s.instances[c])) == 10

    def test_deterministic_across_calls(self):
        a = build_supports(self.big_index(), self.split(), k=5, n_seeds=10, master_seed=3)
        b = build_supports(self.big_index(), self.split(), k=5, n_seeds=10, master_seed=3)
        for sa, sb in zip(a, b):
            assert sa.instances == sb.instances

    def test_seeds_draw_differently(self):
        sets = build_supports(self.big_index(), self.split(), k=5, n_seeds=10)
        draws = {tuple(s.instances[1]) for s in sets}
        assert len(draws) > 1

    def test_master_seed_changes_draws(self):
        a = build_supports(self.big_index(), self.split(), k=5, n_seeds=2, master_seed=0)
        b = build_supports(self.big_index(), self.split(), k=5, n_seeds=2, master_seed=1)
        assert any(sa.instances != sb.instances for sa, sb in zip(a, b))

    def test_k_equal_to_class_size_takes_everything(self):
        index = self.big_index(n=10)  # 5 per class
        sets = build_supports(index, self.split(), k=5, n_seeds=3)
        full = set(index.instances(1))
        for s in sets:
            assert set(s.instances[1]) == full

    def test_insufficient_instances_names_class_and_counts(self):
        index = self.big_index(n=6)  # 3 per class
        with pytest.raises(PreconditionError, match="class 0 has 3 instances, need 5"):
            build_supports(index, self.split(), k=5)

    def test_support_set_validates_count(self):
        with pytest.raises(PreconditionError):
            SupportSet(k=2, instances={0: [GroundTruth(Box(0, 0, 1, 1), 0, "a")]})


class TestSampleEpisode:
    def split(self):
        return SplitSpec(base_classes=(0, 1, 2), novel_classes=(3, 4))

    def rich_index(self):
        rng = np.random.default_rng(99)
        lists = []
        for _ in range(60):
            classes = list(rng.choice(5, size=int(rng.integers(1, 4)), replace=False))
            lists.append([int(c) for c in classes])
        return toy_index(lists)

    def test_base_slots_come_from_base_only(self):
        index, split = self.rich_index(), self.split()
        rng = np.random.default_rng(0)
        for _ in range(50):
            ep = sample_episode(index, split, "base", rng)
            assert set(ep.slots) <= set(split.base_classes)
            assert len(ep.slots) <= 4

    def test_slot_count_capped_by_t_max(self):
        index, split = self.rich_index(), self.split()
        rng = np.random.default_rng(1)
        for _ in range(20):
            ep = sample_episode(index, split, "base", rng, t_max=2)
            assert len(ep.slots) <= 2

    def test_query_gts_restricted_to_slots(self):
        index, split = self.rich_index(), self.split()
        rng = np.random.default_rng(2)
        for _ in range(50):
            ep = sample_episode(index, split, "base", rng)
            assert all(b.class_id in set(ep.slots) for b in ep.query_gts)
            full = index.entries[ep.query_id].boxes
            assert ep.query_gts == [b for b in full if b.class_id in set(ep.slots)]

    def test_finetune_requires_support_set(self):
        index, split = self.rich_index(), self.split()
        with pytest.raises(PreconditionError):
            sample_episode(index, split, "finetune", np.random.default_rng(3))

    def test_finetune_novel_supports_within_support_set(self):
        index, split = self.rich_index(), self.split()
        supports = build_supports(index, split, k=3, n_seeds=2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            ep = sample_episode(index, split, "finetune", rng, support_set=supports[0])
            for c in ep.slots:
                if c in split.novel_classes:
                    for record in ep.support[c]:
                        assert supports[0].contains(record)

    def test_finetune_queries_leak_no_unsupported_novel_instances(self):
        index, split = self.rich_index(), self.split()
        supports = build_supports(index, split, k=3, n_seeds=2)
        rng = np.random.default_rng(5)
        for _ in range(100):
            ep = sample_episode(index, split, "finetune", rng, support_set=supports[0])
            slot_set = set(ep.slots)
            for record in index.entries[ep.query_id].boxes:
                if record.class_id in slot_set and record.class_id in split.novel_classes:
                    assert supports[0].contains(record)

    def test_unknown_stage_rejected(self):
        index, split = self.rich_index(), self.split()
        with pytest.raises(PreconditionError):
            sample_episode(index, split, "warmup", np.random.default_rng(6))

    def test_slot_without_supports_errors(self):
        # images only show class 1, so base slot class 0 has no instances
        index = toy_index([[1], [1]])
        split = SplitSpec(base_classes=(0,), novel_classes=(1,))
        with pytest.raises(PreconditionError, match="class 0 has no support"):
            sample_episode(index, split, "base", np.random.default_rng(7))

    def test_no_eligible_query_errors(self):
        # the only image carries a second novel instance outside the 1-shot
        # support draw, so the leakage filter rejects every query candidate
        index = toy_index([[0, 1, 1]])
        split = SplitSpec(base_classes=(0,), novel_classes=(1,))
        supports = build_supports(index, split, k=1, n_seeds=1)
        with pytest.raises(PreconditionError, match="no eligible query"):
            sample_episode(index, split, "finetune", np.random.default_rng(7), support_set=supports[0], t_max=2)

    def test_single_base_class_always_fills_the_slot(self):
        index = toy_index([[0], [0], [0, 1]])
        split = SplitSpec(base_classes=(0,), novel_classes=(1,))
        rng = np.random.default_rng(8)
        for _ in range(10):
            ep = sample_episode(index, split, "base", rng)
            assert ep.slots == (0,)

    def test_slot_marginals_near_uniform(self):
        # 6 base classes, t_max=4: each class should appear in ~2/3 of episodes
        rng_idx = np.random.default_rng(100)
        lists = []
        for _ in range(80):
            classes = list(rng_idx.choice(6, size=int(rng_idx.integers(1, 4)), replace=False))
            lists.append([int(c) for c in classes])
        index = toy_index(lists)
        split = SplitSpec(base_classes=(0, 1, 2, 3, 4, 5), novel_classes=(6,))
        rng = np.random.default_rng(9)
        counts = dict.fromkeys(range(6), 0)
        n = 1000
        for _ in range(n):
            ep = sample_episode(index, split, "base", rng)
            for c in ep.slots:
                counts[c] += 1
        expected = 4.0 / 6.0
        for c, got in counts.items():
            assert abs(got / n - expected) <= 0.05, f"class {c} frequency {got / n}"
