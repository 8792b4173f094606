"""Synthetic paired-modality dataset: each class paints a Gaussian blob
into one color channel and one thermal channel, with the informative
channels split so that some classes collide in color and are separable
only through the thermal half.  Boxes are recorded as ground truth in
feature-map units.  Fully deterministic per seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fmp
from .data import DatasetIndex, IndexEntry, save_index
from .errors import PreconditionError
from .evaluation import Box, GroundTruth, write_ground_truths


@dataclass(frozen=True)
class SynthConfig:
    classes: int = 3
    images: int = 60
    channels: int = 8
    height: int = 12
    width: int = 12
    max_objects: int = 2
    noise: float = 0.1
    min_size: float = 3.0
    max_size: float = 5.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.channels % 2:
            raise PreconditionError(f"channel count {self.channels} must be even")
        if self.classes < 1 or self.classes > self.channels // 2:
            raise PreconditionError(
                f"{self.classes} classes exceed capacity {self.channels // 2} "
                f"of a {self.channels}-channel signature scheme"
            )
        if self.images < 1 or self.max_objects < 1:
            raise PreconditionError("need at least one image and one object per image")
        if not 0 < self.min_size <= self.max_size:
            raise PreconditionError(f"invalid box size range [{self.min_size}, {self.max_size}]")
        if self.max_size > min(self.height, self.width):
            raise PreconditionError(
                f"objects of size {self.max_size} cannot fit a "
                f"{self.height}x{self.width} map"
            )
        if self.noise < 0:
            raise PreconditionError(f"noise amplitude {self.noise} must be nonnegative")


def rgb_channel(class_id: int) -> int:
    """Color-half channel for a class; consecutive class pairs collide."""
    return class_id // 2


def ir_channel(class_id: int, channels: int) -> int:
    """Thermal-half channel for a class; unique per class."""
    return channels // 2 + class_id


def _blob(h: int, w: int, box: Box, amplitude: float) -> np.ndarray:
    """Gaussian bump centered in the box, sigma a quarter of each side."""
    cy = (box.y1 + box.y2) / 2.0 - 0.5
    cx = (box.x1 + box.x2) / 2.0 - 0.5
    sy = max((box.y2 - box.y1) / 4.0, 1e-6)
    sx = max((box.x2 - box.x1) / 4.0, 1e-6)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    return amplitude * np.exp(-0.5 * (((ii - cy) / sy) ** 2 + ((jj - cx) / sx) ** 2))


def render_pair(
    cfg: SynthConfig, records: list[GroundTruth], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Noise background plus one blob per annotated box per modality.

    Both maps carry all D channels so they feed the same pipeline; signal
    lives only in channels [0, D/2) of the color map and [D/2, D) of the
    thermal map.  Classes 2c and 2c+1 share a color channel and separate
    only in their thermal channels.
    """
    shape = (cfg.channels, cfg.height, cfg.width)
    rgb = cfg.noise * rng.standard_normal(shape)
    ir = cfg.noise * rng.standard_normal(shape)
    for record in records:
        bump = _blob(cfg.height, cfg.width, record.box, cfg.amplitude)
        rgb[rgb_channel(record.class_id)] += bump
        ir[ir_channel(record.class_id, cfg.channels)] += bump
    return rgb, ir


def _random_box(cfg: SynthConfig, rng: np.random.Generator) -> Box:
    bw = rng.uniform(cfg.min_size, min(cfg.max_size, cfg.width))
    bh = rng.uniform(cfg.min_size, min(cfg.max_size, cfg.height))
    x1 = rng.uniform(0.0, cfg.width - bw)
    y1 = rng.uniform(0.0, cfg.height - bh)
    return Box(x1, y1, x1 + bw, y1 + bh)


def synthesize(cfg: SynthConfig, seed: int, prefix: str, root: Path) -> DatasetIndex:
    """The dataset in memory: an index whose entries name their map files
    under `root` (which need not exist) and whose pairs are already loaded."""
    rng = np.random.default_rng((seed, 424242))
    index = DatasetIndex()
    for i in range(cfg.images):
        image_id = f"{prefix}{i:04d}"
        n_obj = int(rng.integers(1, cfg.max_objects + 1))
        records = []
        for _ in range(n_obj):
            class_id = int(rng.integers(cfg.classes))
            records.append(GroundTruth(_random_box(cfg, rng), class_id, image_id))
        index.add(IndexEntry(image_id, root / f"{image_id}_rgb.fmp", root / f"{image_id}_ir.fmp", records, "clean"))
        index._cache[image_id] = render_pair(cfg, records, rng)
    return index


def generate_synthetic(out_dir, cfg: SynthConfig, seed: int = 0, prefix: str = "pair") -> DatasetIndex:
    """Write map pairs (one container file per map), the annotation index, and a ground-truth
    interchange file under out_dir; return the in-memory index.  Every map is
    checked finite before out_dir is made, so a non-finite one leaves nothing."""
    out = Path(out_dir)
    index = synthesize(cfg, seed, prefix, out)
    maps = [(path, m) for e in index.entries.values()
            for path, m in zip((e.rgb_path, e.ir_path), index.load_pair(e.image_id))]
    for path, m in maps:
        fmp.require_finite(path, {"map": m})
    out.mkdir(parents=True, exist_ok=True)
    for path, m in maps:
        fmp.write_map(path, m)
    save_index(out / "index.txt", index)
    write_ground_truths(out / "gts.txt", [g for entry in index.entries.values() for g in entry.boxes])
    return index
