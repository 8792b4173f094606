"""Flat `key = value` run configuration shared by all commands.

Keys are namespaced by dataclass: `model.*` (ModelConfig), `train.*`
(TrainConfig), `synth.*` (SynthConfig), plus `split.base` / `split.novel`
as comma-separated class id lists.  Unknown keys are rejected so typos
fail loudly.  Every command echoes the resolved configuration, one
`key = value` line per field, before doing work.
"""
from __future__ import annotations

from dataclasses import fields, replace

from .data import SplitSpec
from .errors import ParseError, PreconditionError, finite_float, read_records, read_text
from .model import ModelConfig
from .synth import SynthConfig
from .training import TrainConfig

_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "synth": SynthConfig}
_SPLIT_KEYS = ("split.base", "split.novel")


def known_keys() -> set[str]:
    keys = set(_SPLIT_KEYS)
    for prefix, cls in _SECTIONS.items():
        keys.update(f"{prefix}.{f.name}" for f in fields(cls))
    return keys


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    allowed = known_keys()
    out: dict[str, str] = {}

    def record(line: str) -> None:
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise ParseError(f"expected 'key = value', got {line.strip()!r}")
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}")
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = value

    read_records(source, record, text)
    return out


def load_config_file(path) -> dict[str, str]:
    return parse_config_text(read_text(path), source=str(path))


def _coerce(value: str, target_type: type, key: str):
    try:
        if target_type is int:
            return int(value)
        if target_type is float:
            return finite_float(value)
        return value
    except ValueError as exc:
        kind = "a finite float" if target_type is float else target_type.__name__
        raise PreconditionError(f"{key}: cannot read {value!r} as {kind}") from exc


def build_section(cls, prefix: str, kv: dict[str, str]):
    """A dataclass instance with defaults overridden by kv entries.

    Field types are taken from the default values, which every section
    field carries.
    """
    defaults = cls()
    updates = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key in kv:
            updates[f.name] = _coerce(kv[key], type(getattr(defaults, f.name)), key)
    return replace(defaults, **updates) if updates else defaults


def parse_class_ids(text: str, what: str) -> tuple[int, ...]:
    """Class ids from a comma- or space-separated list; `what` names the
    list's source in errors."""
    toks = text.replace(",", " ").split()
    if not toks:
        raise PreconditionError(f"{what}: empty class list")
    try:
        return tuple(int(t) for t in toks)
    except ValueError as exc:
        raise PreconditionError(f"{what}: cannot read {text!r} as class ids") from exc


def build_split(kv: dict[str, str]) -> SplitSpec | None:
    present = [k for k in _SPLIT_KEYS if k in kv]
    if not present:
        return None
    if len(present) == 1:
        raise PreconditionError(f"split needs both {_SPLIT_KEYS[0]} and {_SPLIT_KEYS[1]}")
    return SplitSpec(
        base_classes=parse_class_ids(kv["split.base"], "split.base"),
        novel_classes=parse_class_ids(kv["split.novel"], "split.novel"),
    )


def resolved_lines(model: ModelConfig, train: TrainConfig, synth: SynthConfig, split: SplitSpec | None) -> list[str]:
    """The full effective configuration, one sorted `key = value` per line."""
    pairs: dict[str, object] = {}
    for prefix, obj in (("model", model), ("train", train), ("synth", synth)):
        for f in fields(obj):
            pairs[f"{prefix}.{f.name}"] = getattr(obj, f.name)
    if split is not None:
        pairs["split.base"] = ",".join(str(c) for c in split.base_classes)
        pairs["split.novel"] = ",".join(str(c) for c in split.novel_classes)
    return [f"{k} = {pairs[k]}" for k in sorted(pairs)]
