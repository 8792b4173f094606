"""Binary container for a single (D, H, W) float64 feature map.

Layout, all little-endian:

    bytes 0..3    magic b"FMP1"
    bytes 4..15   three u32: D, H, W
    bytes 16..    D*H*W float64, row-major (channel, row, col)

Readers reject a wrong magic, a truncated payload, trailing bytes, and
non-finite values.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import NumericGuardError, ParseError, ShapeError

MAGIC = b"FMP1"
_HEADER = struct.Struct("<4sIII")


def write_map(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"feature map must be 3-d (D, H, W), got {arr.shape}")
    d, h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, d, h, w))
        fh.write(arr.astype("<f8").tobytes())


def read_map(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ParseError(f"{path}: too short for a map header")
    magic, d, h, w = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + d * h * w * 8
    if len(raw) < expected:
        raise ParseError(f"{path}: truncated, expected {expected} bytes, got {len(raw)}")
    if len(raw) > expected:
        raise ParseError(f"{path}: {len(raw) - expected} trailing bytes")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    bad = ~np.isfinite(data)
    if bad.any():
        raise NumericGuardError(f"{path}: {int(bad.sum())} non-finite values")
    return data.reshape(d, h, w).astype(np.float64)
