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
from .errors import ParseError, PreconditionError, read_text
from .prototypes import SupportBox


@dataclass
class IndexEntry:
    image_id: str
    rgb_path: Path
    ir_path: Path
    boxes: list[SupportBox]
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

    def instances(self, class_id: int) -> list[tuple[str, SupportBox]]:
        """Every (image_id, box) of one class, in index order."""
        out = []
        for entry in self.entries.values():
            for box in entry.boxes:
                if box.class_id == class_id:
                    out.append((entry.image_id, box))
        return out

    def class_ids(self) -> list[int]:
        seen = sorted({b.class_id for e in self.entries.values() for b in e.boxes})
        return seen


def save_index(path, index: DatasetIndex) -> None:
    root = Path(path).resolve().parent
    with open(path, "w") as fh:
        fh.write("# image_id rgb_path ir_path [condition]\n")
        for entry in index.entries.values():
            rgb = _relative(entry.rgb_path, root)
            ir = _relative(entry.ir_path, root)
            tail = f" {entry.condition}" if entry.condition else ""
            fh.write(f"{entry.image_id} {rgb} {ir}{tail}\n")
            for b in entry.boxes:
                fh.write(f"    box {b.class_id} {b.x1!r} {b.y1!r} {b.x2!r} {b.y2!r}\n")


def _relative(p: Path, root: Path) -> str:
    try:
        return Path(p).resolve().relative_to(root).as_posix()
    except ValueError:
        return Path(p).as_posix()


def load_index(path) -> DatasetIndex:
    root = Path(path).resolve().parent
    index = DatasetIndex()
    current: IndexEntry | None = None
    for n, raw in enumerate(read_text(path).splitlines(), start=1):
        text = raw.split("#", 1)[0].rstrip()
        if not text.strip():
            continue
        indented = text[0].isspace()
        tok = text.split()
        if indented:
            if current is None:
                raise ParseError("box record before any image header", line=n)
            if tok[0] != "box" or len(tok) != 6:
                raise ParseError(f"expected 'box class_id x1 y1 x2 y2', got {text.strip()!r}", line=n)
            try:
                class_id = int(tok[1])
                x1, y1, x2, y2 = (float(t) for t in tok[2:])
            except ValueError as exc:
                raise ParseError(str(exc), line=n) from exc
            if not (x1 < x2 and y1 < y2):
                raise ParseError(f"degenerate box ({x1}, {y1}, {x2}, {y2})", line=n)
            current.boxes.append(SupportBox(x1, y1, x2, y2, class_id))
        else:
            if len(tok) not in (3, 4):
                raise ParseError(f"expected 'image_id rgb_path ir_path [condition]', got {text!r}", line=n)
            current = IndexEntry(
                image_id=tok[0],
                rgb_path=root / tok[1],
                ir_path=root / tok[2],
                boxes=[],
                condition=tok[3] if len(tok) == 4 else "",
            )
            for p in (current.rgb_path, current.ir_path):
                if not p.is_file():
                    raise FileNotFoundError(f"{path} line {n}: missing modality file {p}")
            try:
                index.add(current)
            except PreconditionError as exc:
                raise ParseError(str(exc), line=n) from exc
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
    seed_index: int
    k: int
    instances: dict[int, list[tuple[str, SupportBox]]]

    def __post_init__(self) -> None:
        for c, items in self.instances.items():
            if len(items) != self.k:
                raise PreconditionError(f"class {c} has {len(items)} support instances, need {self.k}")

    def contains(self, class_id: int, image_id: str, box: SupportBox) -> bool:
        return (image_id, box) in self.instances.get(class_id, [])


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
        sets.append(SupportSet(seed_index=i, k=k, instances=chosen))
    return sets


@dataclass
class Episode:
    slots: tuple[int, ...]  # dataset class id per slot
    support: dict[int, list[tuple[str, SupportBox]]]  # class id -> sampled instances
    query_id: str
    query_gts: list[SupportBox]  # restricted to slot classes

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
    for box in entry.boxes:
        c = box.class_id
        if c in slots and c in split.novel_classes and not support_set.contains(c, entry.image_id, box):
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

    support: dict[int, list[tuple[str, SupportBox]]] = {}
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
