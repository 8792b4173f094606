"""The one binary file container, for feature maps, parameter stores and
prototype tables alike.  Little-endian: magic b"PST1", i64 seed, u32 array
count, then per array in sorted key order a u16 key length, the UTF-8 key,
a u8 rank, one u32 per axis and the row-major float64 values.  A feature
map is one (D, H, W) array under `map`.

`read_arrays` is the one place that checks bytes: a bad magic, a
truncation, trailing bytes, a non-UTF-8 or repeated key, a negative seed
or a shape numpy cannot build is a ParseError (exit 2); a non-finite value
is a NumericGuardError (exit 3).  `write_arrays` refuses a non-finite value
with the same error (`require_finite`) before it opens the file, so no
command writes a file its reader rejects.
"""
from __future__ import annotations

import math
import struct
from collections.abc import Mapping

import numpy as np

from .errors import NumericGuardError, ParseError, ShapeError

MAGIC = b"PST1"
_HEADER = struct.Struct("<4sqI")


def require_finite(path, arrays: Mapping[str, np.ndarray]) -> None:
    bad = {k: n for k, a in arrays.items() if (n := a.size - np.count_nonzero(np.isfinite(a)))}
    if bad:
        raise NumericGuardError(f"{path} holds {sum(bad.values())} non-finite values in {', '.join(bad)}")


def write_arrays(path, arrays: Mapping[str, np.ndarray], seed: int = 0) -> None:
    arrays = {key: np.asarray(arrays[key], dtype="<f8") for key in sorted(arrays)}
    require_finite(path, arrays)
    parts = [_HEADER.pack(MAGIC, seed, len(arrays))]
    for key, arr in arrays.items():
        raw = key.encode("utf-8")
        parts.append(struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape))
        parts.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.writelines(parts)


def read_arrays(path) -> tuple[int, dict[str, np.ndarray]]:
    """(seed, arrays by key in file order) of a container."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    off, key = 0, ""

    def take(n: int, what: str) -> int:
        nonlocal off
        if off + n > len(blob):
            raise ParseError(f"{path}: truncated at {len(blob)} bytes, reading {what.format(key)}")
        off += n
        return off - n

    _, seed, count = _HEADER.unpack_from(blob, take(_HEADER.size, "the header"))
    if seed < 0:
        raise ParseError(f"{path}: negative seed {seed}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (klen,) = struct.unpack_from("<H", blob, take(2, "a key length"))
        at = take(klen, "a key")
        try:
            key = blob[at : at + klen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: array key is not UTF-8") from exc
        if key in arrays:
            raise ParseError(f"{path}: repeated key {key!r}")
        ndim = blob[take(1, "the rank of {}")]
        shape = struct.unpack_from(f"<{ndim}I", blob, take(4 * ndim, "the shape of {}"))
        size = math.prod(shape)
        at = take(8 * size, "the values of {}")
        try:  # numpy refuses over 64 axes, or empty shapes too large to index
            arrays[key] = np.frombuffer(blob, "<f8", size, at).reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}: {key} cannot have shape {shape} ({exc})") from exc
    if off != len(blob):
        raise ParseError(f"{path}: {len(blob) - off} trailing bytes")
    require_finite(path, arrays)
    return seed, arrays


def write_map(path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"feature map must be 3-d (D, H, W), got {arr.shape}")
    write_arrays(path, {"map": arr})


def read_map(path) -> np.ndarray:
    _, arrays = read_arrays(path)
    if list(arrays) != ["map"] or arrays["map"].ndim != 3:
        found = [(k, a.shape) for k, a in arrays.items()]
        raise ParseError(f"{path}: not a feature map, one (D, H, W) array under 'map'; holds {found}")
    return arrays["map"]
