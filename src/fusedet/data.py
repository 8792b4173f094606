"""Dataset index files, base/novel splits, K-shot support sampling, and
episode assembly for the two training stages.

Annotation format (plain text, `#` starts a comment anywhere):

    image_id rgb_path ir_path [condition]
        box class_id x1 y1 x2 y2

Header lines start at column zero; each is followed by its indented box
records.  Paths are relative to the annotation file's directory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fmp
from .errors import ParseError, PreconditionError, read_records
from .evaluation import Box, GroundTruth, box_fields


@dataclass
class IndexEntry:
    image_id: str
    rgb_path: Path
    ir_path: Path
    boxes: list[GroundTruth]
    condition: str = ""


@dataclass
class DatasetIndex:
    entries: dict[str, IndexEntry] = field(default_factory=dict)
    _cache: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)

    def add(self, entry: IndexEntry) -> None:
        if entry.image_id in self.entries:
            raise PreconditionError(f"duplicate image id {entry.image_id!r}")
        self.entries[entry.image_id] = entry

    def image_ids(self) -> list[str]:
        return list(self.entries)

    def load_pair(self, image_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The (rgb, ir) feature maps for one image, cached after first read."""
        if image_id not in self._cache:
            entry = self.entries[image_id]
            self._cache[image_id] = (fmp.read_map(entry.rgb_path), fmp.read_map(entry.ir_path))
        return self._cache[image_id]

    def instances(self, class_id: int) -> list[GroundTruth]:
        """Every annotated box of one class, in index order."""
        return [g for entry in self.entries.values() for g in entry.boxes if g.class_id == class_id]


def save_index(path, index: DatasetIndex) -> None:
    root = Path(path).resolve().parent
    parents: dict[Path, Path] = {}
    with open(path, "w") as fh:
        fh.write("# image_id rgb_path ir_path [condition]\n")
        for entry in index.entries.values():
            rgb = _relative(entry.rgb_path, root, parents)
            ir = _relative(entry.ir_path, root, parents)
            tail = f" {entry.condition}" if entry.condition else ""
            fh.write(f"{entry.image_id} {rgb} {ir}{tail}\n")
            for g in entry.boxes:
                fh.write(f"    box {g.class_id} {box_fields(g.box)}\n")


def _relative(p: Path, root: Path, parents: dict[Path, Path]) -> str:
    """p relative to root once resolved, else p as given.  A path whose
    last component is a plain name and not a symlink resolves to its
    parent's resolved path plus that name, so `parents` caches the parents
    resolved so far and each further path costs one lstat, not one per
    component."""
    p = Path(p)
    if p.name in ("", "..") or p.is_symlink():
        full = p.resolve()
    else:
        parent = parents.get(p.parent)
        if parent is None:
            parent = parents[p.parent] = p.parent.resolve()
        full = parent / p.name
    try:
        return full.relative_to(root).as_posix()
    except ValueError:
        return p.as_posix()


def load_index(path) -> DatasetIndex:
    root = Path(path).resolve().parent
    index = DatasetIndex()
    current: IndexEntry | None = None

    def record(line: str) -> None:
        nonlocal current
        tok = line.split()
        if line[0].isspace():
            if current is None:
                raise ParseError("box record before any image header")
            if tok[0] != "box" or len(tok) != 6:
                raise ParseError(f"expected 'box class_id x1 y1 x2 y2', got {line.strip()!r}")
            current.boxes.append(GroundTruth(Box(*map(float, tok[2:])), int(tok[1]), current.image_id))
            return
        if len(tok) not in (3, 4):
            raise ParseError(f"expected 'image_id rgb_path ir_path [condition]', got {line!r}")
        current = IndexEntry(tok[0], root / tok[1], root / tok[2], [], tok[3] if len(tok) == 4 else "")
        for p in (current.rgb_path, current.ir_path):
            if not p.is_file():
                raise FileNotFoundError(f"{path}: image {current.image_id!r} names a missing modality file {p}")
        index.add(current)

    read_records(path, record)
    return index


@dataclass(frozen=True)
class SplitSpec:
    base_classes: tuple[int, ...]
    novel_classes: tuple[int, ...]

    def __post_init__(self) -> None:
        base, novel = set(self.base_classes), set(self.novel_classes)
        if not base or not novel:
            raise PreconditionError("base and novel class sets must both be nonempty")
        if base & novel:
            raise PreconditionError(f"base and novel classes overlap: {sorted(base & novel)}")
        object.__setattr__(self, "base_classes", tuple(sorted(base)))
        object.__setattr__(self, "novel_classes", tuple(sorted(novel)))

    def all_classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.base_classes + self.novel_classes))


@dataclass
class SupportSet:
    k: int
    instances: dict[int, list[GroundTruth]]

    def __post_init__(self) -> None:
        for c, items in self.instances.items():
            if len(items) != self.k:
                raise PreconditionError(f"class {c} has {len(items)} support instances, need {self.k}")

    def contains(self, record: GroundTruth) -> bool:
        return record in self.instances.get(record.class_id, [])


def build_supports(
    index: DatasetIndex, split: SplitSpec, k: int, n_seeds: int = 10, master_seed: int = 0
) -> list[SupportSet]:
    """n_seeds independent K-shot draws per class (novel and base alike),
    each without replacement, from deterministic per-seed streams."""
    if k < 1:
        raise PreconditionError(f"shot count {k} must be positive")
    pools = {}
    for c in split.all_classes():
        pool = index.instances(c)
        if len(pool) < k:
            raise PreconditionError(f"class {c} has {len(pool)} instances, need {k}")
        pools[c] = pool
    sets = []
    for i in range(n_seeds):
        rng = np.random.default_rng((master_seed, i))
        chosen = {}
        for c in split.all_classes():
            pool = pools[c]
            picks = rng.choice(len(pool), size=k, replace=False)
            chosen[c] = [pool[int(j)] for j in picks]
        sets.append(SupportSet(k=k, instances=chosen))
    return sets


@dataclass
class Episode:
    slots: tuple[int, ...]  # dataset class id per slot
    support: dict[int, list[GroundTruth]]  # class id -> sampled instances
    query_id: str
    query_gts: list[GroundTruth]  # restricted to slot classes

    def __post_init__(self) -> None:
        if len(set(self.slots)) != len(self.slots):
            raise PreconditionError(f"duplicate slot classes {self.slots}")
        for c in self.slots:
            if not self.support.get(c):
                raise PreconditionError(f"slot class {c} has no support instances")


def _novel_safe(entry: IndexEntry, slots, split: SplitSpec, support_set: SupportSet | None) -> bool:
    """A query image may not show novel-class objects beyond the active
    support draw; otherwise fine-tuning would see unlabeled-by-K evidence."""
    if support_set is None:
        return True
    for g in entry.boxes:
        if g.class_id in slots and g.class_id in split.novel_classes and not support_set.contains(g):
            return False
    return True


def sample_episode(
    index: DatasetIndex,
    split: SplitSpec,
    stage: str,
    rng: np.random.Generator,
    support_set: SupportSet | None = None,
    t_max: int = 4,
    shots_per_slot: int = 2,
) -> Episode:
    """Draw slot classes, their support instances, and one query image.

    stage "base" draws slots from base classes with supports from the whole
    index; stage "finetune" draws from base plus novel, restricting novel
    supports (and novel query evidence) to the active SupportSet.
    """
    if stage == "base":
        eligible = list(split.base_classes)
    elif stage == "finetune":
        if support_set is None:
            raise PreconditionError("finetune episodes need an active SupportSet")
        eligible = list(split.all_classes())
    else:
        raise PreconditionError(f"unknown stage {stage!r}; expected 'base' or 'finetune'")

    t = min(t_max, len(eligible))
    slots = tuple(int(eligible[j]) for j in rng.choice(len(eligible), size=t, replace=False))

    support: dict[int, list[GroundTruth]] = {}
    for c in slots:
        if stage == "finetune" and c in split.novel_classes:
            pool = support_set.instances[c]
        else:
            pool = index.instances(c)
        if not pool:
            raise PreconditionError(f"class {c} has no support instances")
        n = min(shots_per_slot, len(pool))
        picks = rng.choice(len(pool), size=n, replace=False)
        support[c] = [pool[int(j)] for j in picks]

    slot_set = set(slots)
    candidates = [
        e.image_id
        for e in index.entries.values()
        if any(b.class_id in slot_set for b in e.boxes)
        and (stage == "base" or _novel_safe(e, slot_set, split, support_set))
    ]
    if not candidates:
        raise PreconditionError(f"no eligible query image for slot classes {slots}")
    query_id = candidates[int(rng.integers(len(candidates)))]
    query_gts = [b for b in index.entries[query_id].boxes if b.class_id in slot_set]
    return Episode(slots=slots, support=support, query_id=query_id, query_gts=query_gts)
