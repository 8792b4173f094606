"""Built-in verification checks runnable from the command line.

Each check is a named zero-argument callable that raises AssertionError
(or any exception) on failure.  The registry drives both the CLI report
and the fault-injection hook used to prove the checks can actually fail.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import deformable, fmp, neighborhood, ops, prototypes
from .autodiff import Node, ParamStore, as_node
from .data import load_index
from .evaluation import Box, Detection, GroundTruth, average_precision
from .synth import SynthConfig, generate_synthetic


def _check_na_oracle() -> None:
    rng = np.random.default_rng(7)
    for k in (1, 3):
        d, h, w = 3, 5, 4
        cfg = neighborhood.NAConfig(k=k, channels=d)
        store = ParamStore(seed=11)
        neighborhood.init_na_params(store, "na", d)
        params = store.nodes()
        x = rng.standard_normal((d, h, w))
        got = neighborhood.na_forward(x, cfg, params, "na").value
        want = neighborhood.na_oracle(
            x, store.array("na.wq"), store.array("na.wk"), store.array("na.wv"), k
        )
        err = np.abs(got - want).max()
        assert err <= 1e-10, f"window attention deviates from masked oracle by {err:.3e}"


def cda_dense_oracle(f_res, f_q, f_kv, store: ParamStore, prefix: str = "cda") -> np.ndarray:
    """Straight-line deformable attention with zero offsets at stride 1,
    which puts a key at every pixel: plain dense attention plus the FFN."""
    d, h, w = f_q.shape
    kv = f_kv.reshape(d, h * w).T
    q = (f_q.reshape(d, h * w).T) @ store.array(f"{prefix}.wq").T
    keys = kv @ store.array(f"{prefix}.wk").T
    vals = kv @ store.array(f"{prefix}.wv").T
    logits = q @ keys.T / np.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    attn = e / e.sum(axis=1, keepdims=True)
    mixed = (attn @ vals).T.reshape(d, h, w)
    inner = f_q + mixed
    hidden = np.maximum(
        np.tensordot(store.array(f"{prefix}.ffn_w1"), inner, axes=([1], [0]))
        + store.array(f"{prefix}.ffn_b1")[:, None, None],
        0.0,
    )
    return f_res + (
        np.tensordot(store.array(f"{prefix}.ffn_w2"), hidden, axes=([1], [0]))
        + store.array(f"{prefix}.ffn_b2")[:, None, None]
    )


def _check_cda_dense() -> None:
    rng = np.random.default_rng(13)
    d, h, w = 4, 3, 3
    cfg = deformable.CDAConfig(r=1, s=0.5, k_off=3, channels=d)
    store = ParamStore(seed=5)
    deformable.init_cda_params(store, "cda", cfg)
    f_res = rng.standard_normal((d, h, w))
    f_q = rng.standard_normal((d, h, w))
    f_kv = rng.standard_normal((d, h, w))
    got = deformable.cda_forward(f_res, f_q, f_kv, cfg, store.nodes(), "cda").value
    err = np.abs(got - cda_dense_oracle(f_res, f_q, f_kv, store)).max()
    assert err <= 1e-10, f"zero-offset attention deviates from dense oracle by {err:.3e}"


def _check_softmax_rows() -> None:
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5))
    s = ops.softmax(x, axis=1).value
    assert np.all(s >= 0), "softmax produced negative mass"
    err = np.abs(s.sum(axis=1) - 1.0).max()
    assert err <= 1e-12, f"softmax rows sum to 1 off by {err:.3e}"


def _check_ap_hand_cases() -> None:
    gts = [
        GroundTruth(Box(0, 0, 2, 2), class_id=0, image_id="a"),
        GroundTruth(Box(5, 5, 7, 7), class_id=0, image_id="a"),
    ]
    dets = [
        Detection(Box(0, 0, 2, 2), 0.9, 0, "a"),
        Detection(Box(10, 10, 12, 12), 0.8, 0, "a"),
        Detection(Box(5, 5, 7, 7), 0.7, 0, "a"),
    ]
    ap = average_precision(dets, gts, class_id=0)
    assert abs(ap - 5.0 / 6.0) < 1e-15, f"hand-walked case gave {ap}, want 5/6"
    perfect = [Detection(g.box, 0.9, 0, "a") for g in gts]
    assert average_precision(perfect, gts, 0) == 1.0, "perfect detections not AP 1.0"
    assert average_precision([], gts, 0) == 0.0, "empty detections not AP 0.0"


def _check_offset_bound() -> None:
    rng = np.random.default_rng(23)
    cfg = deformable.CDAConfig(r=2, s=0.5, k_off=5, channels=4)
    store = ParamStore(seed=2)
    deformable.init_cda_params(store, "cda", cfg)
    store.set_array("cda.off_w", rng.standard_normal(store.array("cda.off_w").shape))
    store.set_array("cda.off_b", rng.standard_normal(store.array("cda.off_b").shape))
    params = store.nodes()
    worst = 0.0
    for _ in range(50):
        x = 3.0 * rng.standard_normal((4, 4, 4))
        dp = deformable.offset_net(x, cfg, params, "cda").value
        worst = max(worst, float(np.abs(dp).max()))
    assert worst <= cfg.s, f"offset magnitude {worst} exceeds bound {cfg.s}"


def _check_reference_grid() -> None:
    g = deformable.reference_grid(2, 2, 1)
    want = np.array([[-1.0, 1.0, -1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]])
    assert np.array_equal(g, want), f"2x2 stride-1 grid wrong: {g}"
    g = deformable.reference_grid(4, 4, 4)
    assert np.array_equal(g, np.zeros((2, 1))), f"4x4 stride-4 grid wrong: {g}"


def _check_task_encodings() -> None:
    a = prototypes.task_encodings(4, 8)
    b = prototypes.task_encodings(4, 8)
    assert np.array_equal(a, b), "slot encodings not deterministic"
    assert np.array_equal(a[0, 0::2], np.zeros(4)), "slot 0 sines not zero"
    assert np.array_equal(a[0, 1::2], np.ones(4)), "slot 0 cosines not one"


def _check_container_round_trip() -> None:
    rng = np.random.default_rng(31)
    x = rng.standard_normal((3, 4, 5))
    store = ParamStore(seed=9)
    store.xavier_uniform("a.w", (3, 4), 4, 3)
    store.zeros("a.b", (3,))
    with tempfile.TemporaryDirectory() as tmp:
        fmp.write_map(Path(tmp) / "map.fmp", x)
        y = fmp.read_map(Path(tmp) / "map.fmp")
        store.save(Path(tmp) / "params.pst")
        back = ParamStore.load(Path(tmp) / "params.pst")
    assert np.array_equal(x, y), "map round-trip not bit-exact"
    assert back.seed == store.seed, "parameter seed changed in round-trip"
    assert back.keys() == sorted(store.keys()), "parameter keys changed in round-trip"
    for key in store.keys():
        assert np.array_equal(store.array(key), back.array(key)), f"{key} changed in round-trip"


def _check_annotation_round_trip() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = SynthConfig(classes=2, images=3, channels=4, height=8, width=8)
        index = generate_synthetic(tmp, cfg, seed=1)
        back = load_index(Path(tmp) / "index.txt")
        assert back.image_ids() == index.image_ids(), "image ids changed in round-trip"
        for image_id in index.image_ids():
            assert back.entries[image_id].boxes == index.entries[image_id].boxes, (
                f"{image_id} boxes changed in round-trip"
            )


CHECKS: tuple[tuple[str, object], ...] = (
    ("softmax-normalization", _check_softmax_rows),
    ("window-attention-vs-masked-oracle", _check_na_oracle),
    ("zero-offset-attention-vs-dense-oracle", _check_cda_dense),
    ("ap-hand-cases", _check_ap_hand_cases),
    ("offset-bound", _check_offset_bound),
    ("reference-grid-corners", _check_reference_grid),
    ("task-encoding-determinism", _check_task_encodings),
    ("container-round-trip", _check_container_round_trip),
    ("annotation-round-trip", _check_annotation_round_trip),
)

FAULTS = ("softmax",)


def _corrupt_softmax(x, axis):
    x = as_node(x)
    e = np.exp(x.value - x.value.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True) + 0.01
    return Node(s, (x,), (lambda g: g * 0.0,))


def run_selftests(inject_fault: str | None = None) -> list[tuple[str, bool, str]]:
    """Run every registered check; returns (name, passed, detail) rows.

    inject_fault="softmax" swaps in a deliberately broken softmax for the
    duration, to demonstrate the oracle checks catch it.
    """
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; expected one of {FAULTS}")
    original = ops.softmax
    if inject_fault == "softmax":
        ops.softmax = _corrupt_softmax
    try:
        results = []
        for name, fn in CHECKS:
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - report, never crash the runner
                results.append((name, False, f"{type(exc).__name__}: {exc}"))
            else:
                results.append((name, True, ""))
        return results
    finally:
        ops.softmax = original
