"""Acceptance suite: every headline numeric property at its stated tolerance.

One test per criterion, numbered; each prints a single PASS line with the
measured quantity (visible with -s, or in the -v result listing by name).
Criterion 08's geometry also pins the graph size of a step and an inference.
"""
import hashlib
from collections import Counter

import numpy as np
import pytest

from fusedet.audit import AUDIT_CASES, CHECKS, GRAD_TOL
from fusedet import ops
from fusedet.autodiff import Node, backward, grad_check, min_abs_grad
from fusedet.cli import main
from fusedet.config import build_section, build_split, parse_config_text
from fusedet.data import SplitSpec, build_supports, sample_episode
from fusedet.evaluation import nap50, read_detections
from fusedet.model import ModelConfig, init_params
from fusedet.synth import SynthConfig, generate_synthetic
from fusedet.training import (
    TrainConfig,
    ablate_thermal,
    detect_over,
    gts_of,
    infer,
    precompute_prototypes,
    run_training,
    train_loss,
)


def report(n: int, detail: str) -> None:
    print(f"criterion {n} PASS: {detail}")


def run_check(name: str) -> str:
    """Run one registered oracle check; its figures make the PASS line."""
    return dict(CHECKS)[name]()


def test_criterion_01_window_attention_matches_masked_oracle():
    report(1, run_check("window-attention-vs-masked-oracle"))


def test_criterion_02_zero_offset_attention_matches_dense_oracle():
    report(2, run_check("zero-offset-attention-vs-dense-oracle"))


# Floors on the smallest analytic gradient: a guard against a conditioning
# regression, under which a finite-difference error would be mere noise.
MIN_GRAD = {"fusion": 1e-3, "training-loss": 5e-5}


def zero_grad_keys(build, store) -> list[str]:
    """The keys whose analytic gradient is zero in every entry: a grad_check
    over them compares zero with zero and shows nothing."""
    nodes = store.nodes()
    backward(build(nodes))
    return [k for k in store.keys() if nodes[k].grad is None or not np.any(nodes[k].grad)]


def test_criterion_03_gradient_audit():
    errs = {}
    for name, case, seeds in AUDIT_CASES:
        worst = 0.0
        for seed in seeds:
            store, build = case(seed)
            if name in MIN_GRAD:
                assert min_abs_grad(build, store) >= MIN_GRAD[name], f"{name} seed {seed} lost conditioning"
            assert not zero_grad_keys(build, store), f"{name} seed {seed}: keys with all-zero gradient"
            worst = max(worst, grad_check(build, store))
        errs[name] = worst

    assert all(e <= GRAD_TOL for e in errs.values()), errs
    detail = ", ".join(f"{name} {err:.3e}" for name, err in errs.items())
    report(3, f"grad check over the verified seeds of each family <= {GRAD_TOL:g}: {detail}")


def test_criterion_04_offset_bound():
    report(4, run_check("offset-bound"))


def test_criterion_05_average_precision_hand_cases():
    report(5, run_check("average-precision-cases"))


def test_criterion_06_episodic_contract(tmp_path):
    scfg = SynthConfig(
        classes=2, images=160, channels=4, height=4, width=4,
        max_objects=1, noise=0.1, min_size=2.0, max_size=3.0,
    )
    index = generate_synthetic(tmp_path / "data", scfg, seed=6)
    split = SplitSpec(base_classes=(0,), novel_classes=(1,))
    for c in (0, 1):
        assert len(index.instances(c)) >= 30, "dataset too small for the 30-shot draw"

    for k in (5, 10, 30):
        for sset in build_supports(index, split, k=k, n_seeds=10):
            for c in (0, 1):
                items = sset.instances[c]
                assert len(items) == k
                keys = {(g.image_id, g.box.x1, g.box.y1, g.box.x2, g.box.y2) for g in items}
                assert len(keys) == k, "support draw repeated an instance"

    sset = build_supports(index, split, k=5, n_seeds=1)[0]
    rng = np.random.default_rng(99)
    leaks = 0
    for _ in range(1000):
        ep = sample_episode(index, split, "finetune", rng, sset, t_max=2, shots_per_slot=2)
        for c in ep.slots:
            if c not in split.novel_classes:
                continue
            for record in ep.support[c]:
                leaks += not sset.contains(record)
            for record in index.entries[ep.query_id].boxes:
                if record.class_id == c:
                    leaks += not sset.contains(record)
    assert leaks == 0
    report(6, "K in {5,10,30} x 10 seeds draw exactly K distinct instances per class; "
              "0 out-of-support novel instances across 1000 fine-tune episodes")


def test_criterion_07_learning_smoke(tmp_path):
    scfg = SynthConfig(
        classes=3, images=60, channels=8, height=8, width=8,
        max_objects=1, noise=0.1, min_size=3.0, max_size=4.5, amplitude=3.0,
    )
    qcfg = SynthConfig(
        classes=3, images=20, channels=8, height=8, width=8,
        max_objects=1, noise=0.1, min_size=3.0, max_size=4.5, amplitude=3.0,
    )
    train_index = generate_synthetic(tmp_path / "train", scfg, seed=0)
    query_index = generate_synthetic(tmp_path / "query", qcfg, seed=500, prefix="query")
    split = SplitSpec(base_classes=(0, 2), novel_classes=(1,))
    cfg = ModelConfig(
        channels=8, classes_total=3, t_max=3, na_k=3, r=2, s=0.5,
        k_off=3, roi_out=2, roi_sampling=1, score_thr=0.1,
    )
    tcfg = TrainConfig(
        steps_base=400, steps_finetune=500, lr=0.07, shots_per_step=2,
        seed=0, k=5, n_support_seeds=5,
    )
    supports = build_supports(train_index, split, k=5, n_seeds=5, master_seed=0)
    store, log = run_training(train_index, split, cfg, tcfg, supports[0])
    fin = [float(line.split("loss=")[1]) for line in log if "stage=finetune" in line]
    assert len(fin) == 500
    assert fin[-1] <= 0.5 * fin[0], f"fine-tune loss {fin[-1]:.3f} vs initial {fin[0]:.3f}"

    params = store.nodes()
    protos = precompute_prototypes(train_index, supports, cfg, params)
    ids = query_index.image_ids()
    assert len(ids) == 20
    gts = gts_of(query_index, ids)
    fused = nap50(detect_over(query_index, ids, protos, cfg, params), gts, [1])
    ablated_dets = [
        d for i in sorted(ids) for d in infer(*ablate_thermal(*query_index.load_pair(i)), protos, cfg, params, i)
    ]
    ablated = nap50(ablated_dets, gts, [1])
    # also at the default threshold: inference scores are the posterior
    # that training fits
    strict = nap50(detect_over(query_index, ids, protos, cfg.with_updates(score_thr=0.3), params), gts, [1])
    assert fused >= 0.9, f"fused nAP50 {fused:.4f}"
    assert strict >= 0.9, f"fused nAP50 at score_thr 0.3 {strict:.4f}"
    assert ablated < fused, f"thermal ablation did not degrade: {ablated:.4f} vs {fused:.4f}"
    report(7, f"500 fine-tune steps: loss {fin[0]:.2f} -> {fin[-1]:.2f} (<= 50%), "
              f"nAP50 fused {fused:.4f} >= 0.9 ({strict:.4f} at score_thr 0.3), "
              f"thermal-ablated {ablated:.4f} < fused")


CFG_8 = """
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


# Criterion 08 trains long enough on a map large enough that decoded boxes
# survive, so its detection files are not empty.
CFG_DETERMINISM = """
model.channels = 8
model.classes_total = 3
model.t_max = 3
model.k_off = 3
model.roi_out = 2
model.roi_sampling = 1
model.score_thr = 0.0
train.steps_base = 10
train.steps_finetune = 10
train.shots_per_step = 1
train.k = 2
train.n_support_seeds = 2
synth.classes = 3
synth.images = 12
synth.channels = 8
synth.height = 16
synth.width = 16
synth.max_objects = 2
split.base = 0,2
split.novel = 1
"""


def _pipeline(tmp_path, capsys, tag, cfg_text=CFG_8):
    cfgp = tmp_path / f"run{tag}.cfg"
    cfgp.write_text(cfg_text)
    data = tmp_path / f"data{tag}"
    rundir = tmp_path / f"out{tag}"
    dets = tmp_path / f"dets{tag}.txt"
    for argv in (
        ["gen", "--out", str(data), "--seed", "0", "--config", str(cfgp)],
        ["train", "--data", str(data / "index.txt"), "--out", str(rundir),
         "--seed", "0", "--config", str(cfgp)],
        ["infer", "--data", str(data / "index.txt"), "--params", str(rundir / "params.pst"),
         "--protos", str(rundir / "protos.pst"), "--out", str(dets), "--config", str(cfgp)],
        ["eval", "--dets", str(dets), "--gts", str(data / "gts.txt"),
         "--novel", "1", "--config", str(cfgp)],
    ):
        assert main(argv) == 0, f"{argv[0]} failed"
    capsys.readouterr()
    return rundir, dets


# sha256 of criterion 08's artifacts as recorded under PINNED_BUILD.  Two
# runs of one tree agree even when a change moves the last bits of every
# run alike (a gradient buffer in another memory order makes OpenBLAS and
# numpy's reductions round differently); the pins catch that drift.
PINNED_SHA256 = {
    "params.pst": "06177405559e1929ce6581a109636c2333d09ecc104de1bd00eafa97453e2aa8",
    "protos.pst": "15bca9b963c86eead6630f1d85a7e52e3115e678f9684413771897e449216dfc",
    "log.txt": "4876d60dad189fb3d0fc5c3b0024d7c94071c1a7ebbdf639ad5d64ab9bebb4c2",
    "detections": "7fe27d2210dda013a6f775023b927b0c0bfa46ebbd7c7ec169f83bcbe819481b",
}
PINNED_BUILD = ("2.4.6", "scipy-openblas 0.3.31.188.0", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))


def numeric_build():
    """numpy's version, its BLAS build, and the SIMD targets numpy
    dispatches to on this CPU: what sets the last bits of a trained float
    besides the code.  None where numpy does not say."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        simd = tuple(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
        return (np.__version__, f"{blas['name']} {blas['version']}", simd)
    except (ImportError, KeyError, TypeError):
        return None


def test_criterion_08_determinism(tmp_path, capsys):
    run_a, dets_a = _pipeline(tmp_path, capsys, "A", CFG_DETERMINISM)
    run_b, dets_b = _pipeline(tmp_path, capsys, "B", CFG_DETERMINISM)
    for name in ("params.pst", "protos.pst", "log.txt"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    assert dets_a.read_bytes() == dets_b.read_bytes()
    n = len(read_detections(dets_a))
    assert n >= 1, "the compared detection files are empty"
    report(8, "two train+infer+eval runs, same master seed: parameters, prototypes, "
              f"training logs and detection files ({n} records) byte-identical")
    build = numeric_build()
    if build != PINNED_BUILD:
        pytest.skip(f"same-seed runs agree; byte pins recorded under {PINNED_BUILD}, not {build}")
    files = {name: run_a / name for name in ("params.pst", "protos.pst", "log.txt")}
    files["detections"] = dets_a
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert got == PINNED_SHA256


# Node constructions and ops calls, counted test-side, of one seeded
# training step (train_loss, then backward) and of one inference: at
# criterion 08's geometry, and at the benchmark's (its `train` model on
# 8x8 pairs, and a 32x32 inference as on `detect-dense`).  Unlike times
# they do not depend on the host; a change that moves them states the old
# and new figures.
GRAPH_COUNTS = {"train_step": (170, 77), "infer": (113, 67)}
BENCH_GRAPH_COUNTS = {"train_step": (178, 77), "infer_32x32": (113, 67)}


def graph_counts(monkeypatch, run) -> tuple[int, int]:
    """(Node constructions, public ops calls) made by `run()`."""
    counts = Counter()
    node_init = Node.__init__

    def counting_init(self, *args, **kwargs):
        counts["nodes"] += 1
        node_init(self, *args, **kwargs)

    def counting(fn):
        def op(*args, **kwargs):
            counts["ops"] += 1
            return fn(*args, **kwargs)

        return op

    with monkeypatch.context() as m:
        m.setattr(Node, "__init__", counting_init)
        for name, fn in list(vars(ops).items()):
            if callable(fn) and getattr(fn, "__module__", None) == ops.__name__ and not name.startswith("_"):
                m.setattr(ops, name, counting(fn))
        run()
    return counts["nodes"], counts["ops"]


def step_and_protos(index, split, cfg, tcfg):
    """run_training's first episode on fresh parameters, and the prototype
    table of those parameters."""
    params = init_params(cfg, seed=tcfg.seed).nodes()
    rng = np.random.default_rng((tcfg.seed, 101))
    episode = sample_episode(index, split, "base", rng, t_max=cfg.t_max, shots_per_slot=tcfg.shots_per_step)
    supports = build_supports(index, split, tcfg.k, n_seeds=tcfg.n_support_seeds, master_seed=tcfg.seed)
    protos = precompute_prototypes(index, supports, cfg, params)
    return params, lambda: backward(train_loss(episode, index, cfg, tcfg, params)), protos


def test_graph_and_op_counts_at_criterion_08_geometry(tmp_path, monkeypatch):
    kv = parse_config_text(CFG_DETERMINISM)
    cfg, tcfg = build_section(ModelConfig, "model", kv), build_section(TrainConfig, "train", kv)
    index = generate_synthetic(tmp_path / "data", build_section(SynthConfig, "synth", kv), seed=tcfg.seed)
    params, step, protos = step_and_protos(index, build_split(kv), cfg, tcfg)
    image_id = sorted(index.entries)[0]
    counts = {
        "train_step": graph_counts(monkeypatch, step),
        "infer": graph_counts(monkeypatch, lambda: infer(*index.load_pair(image_id), protos, cfg, params, image_id)),
    }
    assert counts == GRAPH_COUNTS


def test_graph_and_op_counts_at_bench_geometries(tmp_path, monkeypatch):
    cfg = ModelConfig(
        channels=8, classes_total=3, t_max=3, na_k=3, r=2, s=0.5, k_off=3, roi_out=2, roi_sampling=1,
        score_thr=0.0,
    )
    tcfg = TrainConfig(shots_per_step=2, seed=0, k=5, n_support_seeds=5)
    synth = dict(classes=3, channels=8, noise=0.1, min_size=3.0, max_size=4.5, amplitude=3.0)
    index = generate_synthetic(
        tmp_path / "train", SynthConfig(images=60, height=8, width=8, max_objects=1, **synth), seed=0
    )
    dense = generate_synthetic(
        tmp_path / "dense", SynthConfig(images=1, height=32, width=32, max_objects=8, **synth), seed=1
    )
    params, step, protos = step_and_protos(index, SplitSpec(base_classes=(0, 2), novel_classes=(1,)), cfg, tcfg)
    image_id = dense.image_ids()[0]
    counts = {
        "train_step": graph_counts(monkeypatch, step),
        "infer_32x32": graph_counts(monkeypatch, lambda: infer(*dense.load_pair(image_id), protos, cfg, params, image_id)),
    }
    assert counts == BENCH_GRAPH_COUNTS


def test_criterion_09_fusion_mode_plumbing(tmp_path, capsys):
    counts = {}
    for mode in ("concat", "add"):
        _, dets = _pipeline(tmp_path, capsys, mode, CFG_8 + f"model.fusion_mode = {mode}\n")
        counts[mode] = len(read_detections(dets))
    report(9, "fusion modes concat/add ran the identical train+infer+eval harness; "
              f"detection files parse back ({counts['concat']} / {counts['add']} records)")
