"""The benchmark workloads, their inputs, and how each is timed.

Each workload is built around one operation of the program that
dominates its figures:

* `train`: criterion 07's two-stage episodic training; then prototypes
  and the held-out evaluation of the trained parameters at 8x8.
* `detect-dense`: inference over held-out 32x32 pairs at score_thr 0,
  where the head decode and NMS dominate.

Small companion operations (a short training run, prototypes, inference
over 8x8 pairs, a light gradient audit, a repeated set-up) give the
end-to-end metrics a workload's own operation does not, so every
workload reports every metric.  They run interleaved with the workload's
own operation so that their samples spread over the run.

Training inputs are criterion 07's fixed set (seed 0): the loss-halving
and nAP50 criteria are established there and not on other training sets.
The seed draws the held-out query pairs.
"""
from __future__ import annotations

import gc
import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fusedet import autodiff, training
from fusedet.autodiff import ParamStore
from fusedet.data import DatasetIndex, SplitSpec, SupportSet, build_supports, load_index
from fusedet.evaluation import nap50
from fusedet.model import ModelConfig
from fusedet.neighborhood import NAConfig, init_na_params, na_forward
from fusedet.prototypes import PrototypeSet, cam_forward, cosine_ce_loss, init_cam_params, task_encodings
from fusedet.synth import SynthConfig, generate_synthetic
from fusedet.training import TrainConfig, ablate_thermal, gts_of

import checks
from fixture import load_fixture
from tracing import BARRIER, FORWARD

MODEL = ModelConfig(
    channels=8, classes_total=3, t_max=3, na_k=3, r=2, s=0.5, k_off=3, roi_out=2, roi_sampling=1,
)
SYNTH = dict(classes=3, channels=8, noise=0.1, min_size=3.0, max_size=4.5, amplitude=3.0)
TRAIN_SET = SynthConfig(images=60, height=8, width=8, max_objects=1, **SYNTH)
SPLIT = SplitSpec(base_classes=(0, 2), novel_classes=(1,))
NOVEL = SPLIT.novel_classes
SCHEDULE = TrainConfig(
    steps_base=400, steps_finetune=500, lr=0.07, shots_per_step=2, seed=0, k=5, n_support_seeds=5,
)
SHORT_SCHEDULE = replace(SCHEDULE, steps_base=20, steps_finetune=20)


@dataclass(frozen=True)
class Geometry:
    """One held-out query set: map side, pair count, objects per pair,
    score threshold and the nAP50 floor detections must clear."""

    side: int
    images: int
    max_objects: int
    score_thr: float
    floor: float

    def synth(self) -> SynthConfig:
        return SynthConfig(
            images=self.images, height=self.side, width=self.side, max_objects=self.max_objects, **SYNTH,
        )

    def model(self) -> ModelConfig:
        return replace(MODEL, score_thr=self.score_thr)


SMALL = Geometry(side=8, images=40, max_objects=1, score_thr=0.1, floor=0.7)
# criterion 07's own held-out pairs, at its synth seed and with its threshold
CRITERION_07 = replace(SMALL, images=20, floor=0.9)
DENSE = Geometry(side=32, images=48, max_objects=8, score_thr=0.0, floor=0.8)
SUBSET_THR = 0.1


@dataclass
class Inputs:
    train: DatasetIndex
    supports: list[SupportSet]
    heldout: DatasetIndex
    geo: Geometry


def make_inputs(work: Path, seed: int, geo: Geometry) -> Inputs:
    """Write the training set and the seed's held-out pairs, then read them
    back through the index files, as the CLI does."""
    generate_synthetic(work / "train", TRAIN_SET, seed=0)
    generate_synthetic(work / "heldout", geo.synth(), seed=seed + 1, prefix="heldout")
    train = load_index(work / "train" / "index.txt")
    heldout = load_index(work / "heldout" / "index.txt")
    for index in (train, heldout):
        for image_id in index.image_ids():
            index.load_pair(image_id)
    supports = build_supports(train, SPLIT, SCHEDULE.k, n_seeds=SCHEDULE.n_support_seeds, master_seed=0)
    return Inputs(train, supports, heldout, geo)


def criterion07(inputs: Inputs, work: Path) -> Inputs:
    """The same training inputs with criterion 07's held-out pairs."""
    generate_synthetic(work / "criterion07", CRITERION_07.synth(), seed=500, prefix="query")
    heldout = load_index(work / "criterion07" / "index.txt")
    return replace(inputs, heldout=heldout, geo=CRITERION_07)


def prototypes_of(inputs: Inputs, store: ParamStore) -> PrototypeSet:
    return training.precompute_prototypes(inputs.train, inputs.supports, MODEL, store.nodes())


@dataclass
class Context:
    inputs: Inputs
    store: ParamStore  # the trained-parameter fixture
    protos: PrototypeSet


def set_up(work: Path, seed: int, geo: Geometry) -> tuple[Context, float]:
    """Inputs, fixture and prototypes, made from scratch in `work`, which
    is emptied first; with the seconds this took."""
    shutil.rmtree(work, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    inputs = make_inputs(work, seed, geo)
    store = load_fixture(MODEL)
    protos = prototypes_of(inputs, store)
    return Context(inputs, store, protos), time.perf_counter() - t0


# -- phases -----------------------------------------------------------------


def params_bytes(store: ParamStore, work: Path) -> bytes:
    store.save(work / "params.pst")
    return (work / "params.pst").read_bytes()


def record_name(schedule: TrainConfig) -> str:
    return f"params-{schedule.steps_base}-{schedule.steps_finetune}.sha256"


def check_reproducible(saved: bytes, record: Path) -> None:
    """Trained parameter bytes equal those of every earlier run in this
    checkout; the first run records their digest."""
    digest = hashlib.sha256(saved).hexdigest()
    if record.exists():
        checks.check_same(digest, record.read_text().strip(), f"trained params.pst ({record.name})")
    else:
        record.write_text(digest + "\n")


def train_once(inputs: Inputs, schedule: TrainConfig, pause=None):
    """run_training under the schedule; returns the store, per-step losses
    and per-step wall times in ms.

    A step starts where run_training asks for its episode, so the episode
    sampler is wrapped, in training's namespace, to stamp each start and
    the end of the step before it; `pause` runs between the two stamps.
    """
    ends: list[float] = []
    starts: list[float] = []
    sampler = training.sample_episode

    def stamped(*args, **kwargs):
        if pause is not None and pause.busy:  # a companion's own training
            return sampler(*args, **kwargs)
        ends.append(time.perf_counter())
        if pause is not None:
            pause()
        starts.append(time.perf_counter())
        return sampler(*args, **kwargs)

    training.sample_episode = stamped
    try:
        store, log = training.run_training(inputs.train, SPLIT, MODEL, schedule, inputs.supports[0])
        ends.append(time.perf_counter())
    finally:
        training.sample_episode = sampler
    losses = [float(line.split("loss=")[1]) for line in log]
    checks.check_losses(losses)
    return store, losses, 1e3 * (np.array(ends[1:]) - np.array(starts))


def detect_round(inputs: Inputs, params, protos, ablate=None, pause=None):
    """`infer` over every held-out pair in id order, with `pause` run after
    each; detections and per-image ms."""
    cfg = inputs.geo.model()
    dets, times = [], []
    for image_id in sorted(inputs.heldout.image_ids()):
        rgb, ir = inputs.heldout.load_pair(image_id)
        if ablate is not None:
            rgb, ir = ablate(rgb, ir)
        t0 = time.perf_counter()
        found = training.infer(rgb, ir, protos, cfg, params, image_id)
        times.append(1e3 * (time.perf_counter() - t0))
        dets.extend(found)
        if pause is not None:
            pause()
    return dets, times


def check_round(inputs: Inputs, dets, protos) -> float:
    """Every detection check; returns the verified nAP50."""
    geo = inputs.geo
    checks.check_detections(dets, geo.side, geo.side, geo.score_thr, protos.class_ids)
    checks.check_no_overlap(dets)
    gts = gts_of(inputs.heldout, inputs.heldout.image_ids())
    return checks.check_nap50(dets, gts, NOVEL, nap50(dets, gts, NOVEL), geo.floor)


def check_subset(inputs: Inputs, dets, params, protos) -> None:
    """Detections of a score_thr=0 round scoring >= SUBSET_THR equal a
    score_thr=SUBSET_THR run on the same images."""
    cfg = replace(inputs.geo.model(), score_thr=SUBSET_THR)
    for image_id in sorted(inputs.heldout.image_ids()):
        rgb, ir = inputs.heldout.load_pair(image_id)
        mine = [d for d in dets if d.image_id == image_id]
        checks.check_threshold_subset(mine, training.infer(rgb, ir, protos, cfg, params, image_id), SUBSET_THR)


def check_ablation(inputs: Inputs, params, protos, fused: float) -> None:
    """Criterion 07: knocking out the thermal half lowers nAP50."""
    ablated, _ = detect_round(inputs, params, protos, ablate=ablate_thermal)
    gts = gts_of(inputs.heldout, inputs.heldout.image_ids())
    checks.check_ablation(fused, nap50(ablated, gts, NOVEL))


# -- gradient audit -----------------------------------------------------------


def _window_case(seed: int):
    rng = np.random.default_rng(seed)
    d = 3
    store = ParamStore(seed=seed)
    init_na_params(store, "na", d)
    x = rng.standard_normal((d, 4, 4))
    probe = rng.standard_normal((d, 4, 4))
    cfg = NAConfig(k=3, channels=d)
    return store, lambda p: (na_forward(x, cfg, p, "na") * probe).sum()


def _aggregation_case(seed: int):
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

    return store, build


# Two light families of criterion 03 at its verified seeds: a fraction of a
# second in all.  Criterion 03 screens neither; both are held to its fusion
# screen, MIN_GRAD, which each of these seeds clears.
AUDIT_CASES = [("window-attention", _window_case, s) for s in (0, 1, 2)] + [
    ("aggregation-and-cosine-loss", _aggregation_case, s) for s in (0, 2, 3)
]
MIN_GRAD = 1e-3


def audit_case(name: str, case, seed: int, tracer) -> None:
    """Screen and grad_check one case and check its verdict."""
    store, build = case(seed)
    if tracer is not None:
        build = tracer.wrap(FORWARD, build)
    smallest = autodiff.min_abs_grad(build, store)
    worst = autodiff.grad_check(build, store)
    checks.check_gradients(f"{name} seed {seed}", worst, smallest, MIN_GRAD)


# -- workloads ---------------------------------------------------------------

# Own operations between two companion rounds: one to two seconds of each
# workload's own work on the reference host.
COMPANION_EVERY = {"train": 30, "detect-dense": 5}


class Companions:
    """Runs the workload's companion round at the first call and then at
    every `every`-th call.  The schedule counts operations, not seconds, so
    a run allocates and collects in the same order however fast the
    machine is, and its peak memory does not depend on the machine's
    load."""

    def __init__(self, round_fn, every: int, tracer) -> None:
        self.round_fn, self.every, self.tracer = round_fn, every, tracer
        self.busy = False
        self._calls = 0

    def __call__(self) -> None:
        if self.busy:
            return
        self._calls += 1
        if (self._calls - 1) % self.every == 0:
            self.round()

    def round(self) -> None:
        self.busy = True
        try:
            with self.tracer.span(BARRIER) if self.tracer is not None else nullcontext():
                self.round_fn()
        finally:
            self.busy = False


class Run:
    """Timing samples of one workload run.  Each operation runs through a
    method that records its wall time, counts it as attempted, and checks
    that every repeat reproduces the first output.

    A metric takes, for each timed item (a training step, an image, one
    prototype pass or audit round), the mean over the item's repeats with
    the slowest tenth left out, and then the median over items (and the
    98th percentile for steps); set-up time is the median of its repeats.
    Repeats are spread over the run, and the other tenants of a shared
    machine move its speed over a range of half or more, in spells of
    seconds to minutes.  A mean follows the share of the run spent at each
    speed; the fastest repeat and the median jump between speeds when that
    share crosses 0 or a half, and spread more between runs.  Leaving out
    the slowest tenth keeps a short stall out.  Each repeat starts from a
    full garbage collection, so the collector's work inside it is that of
    the repeat's own objects and the same in every repeat.
    """

    def __init__(self, work: Path, seed: int, geo: Geometry, tracer) -> None:
        self.work, self.seed, self.geo, self.tracer = work, seed, geo, tracer
        self.samples: dict[str, list] = {"setup": [], "step": [], "protos": [], "image": [], "audit": []}
        self.attempted = 0
        self.first: dict[str, object] = {}
        self.nap50 = None
        self.ctx = self.set_up()

    def _same(self, key: str, value, what: str) -> bool:
        """True on the first output under key; later ones must equal it."""
        if key not in self.first:
            self.first[key] = value
            return True
        checks.check_same(value, self.first[key], what)
        return False

    def set_up(self) -> Context:
        """The first set-up gives the run its context; repeats, made apart
        from it, must give the same prototypes."""
        where = "setup" if not self.samples["setup"] else "setup-again"
        ctx, seconds = set_up(self.work / where, self.seed, self.geo)
        self.samples["setup"].append(seconds)
        self.attempted += 1
        self._same("setup", ctx.protos.values.tobytes(), "prototypes of a repeated set-up")
        return ctx

    def train(self, schedule: TrainConfig, pause=None):
        gc.collect()
        store, losses, step_ms = train_once(self.ctx.inputs, schedule, pause)
        self._same(f"params{schedule.steps_base}", params_bytes(store, self.work), "trained params.pst")
        self.samples["step"].append(step_ms)
        self.attempted += len(step_ms)
        return store, losses

    def protos(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        protos = prototypes_of(self.ctx.inputs, self.ctx.store)
        self.samples["protos"].append(1e3 * (time.perf_counter() - t0))
        self.attempted += 1
        self._same("protos", protos.values.tobytes(), "prototypes")

    def detect(self, params, protos, pause=None):
        inputs = self.ctx.inputs
        gc.collect()
        dets, image_ms = detect_round(inputs, params, protos, pause=pause)
        self.samples["image"].append(image_ms)
        self.attempted += len(image_ms)
        if self._same("detections", dets, "detections"):
            self.nap50 = check_round(inputs, dets, protos)
        return dets

    def audit(self, cases) -> None:
        """One audit round, timed whole."""
        gc.collect()
        t0 = time.perf_counter()
        for name, case, seed in cases:
            audit_case(name, case, seed, self.tracer)
        self.samples["audit"].append(time.perf_counter() - t0)
        self.attempted += len(cases)
        if self.tracer is not None:
            self.tracer.audit_rounds += 1

    def typical(self, kind: str) -> np.ndarray:
        """Each item's mean over its repeats, the slowest tenth left out."""
        repeats = np.sort(np.array(self.samples[kind]), axis=0)
        return repeats[: len(repeats) - len(repeats) // 10].mean(axis=0)

    def metrics(self) -> dict[str, tuple[float, str]]:
        steps = self.typical("step")
        return {
            "setup_s": (float(np.median(self.samples["setup"])), "s"),
            "train_step_ms": (float(np.median(steps)), "ms"),
            "train_step_ms_p98": (float(np.percentile(steps, 98)), "ms"),
            "protos_ms": (float(self.typical("protos")), "ms"),
            "detect_ms": (float(np.median(self.typical("image"))), "ms"),
            "gradcheck_s": (float(self.typical("audit")), "s"),
            "nap50": (self.nap50, "AP"),
        }


GEOMETRY = {"train": SMALL, "detect-dense": DENSE}


def rounds_until(seconds: float, round_fn, companions: Companions) -> None:
    """Whole rounds of the workload's own operation, at least one, while
    the next, taking as long as the last, would end within `seconds`; then
    companion rounds until `seconds` have passed.  A run so lasts about
    `seconds`, even where one own round takes most of them."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        round_fn()
        now = time.perf_counter()
        if 2 * now - t0 - start > seconds:
            break
    while time.perf_counter() - start < seconds:
        companions.round()


def run(name: str, seed: int, seconds: float, work: Path, out: Path, tracer=None):
    """Run one workload; returns (end-to-end metrics, operations attempted).

    Whole rounds of the workload's own operation run for about `seconds`,
    with a companion round after every COMPANION_EVERY of its operations
    (between training steps, between images), so that every metric
    samples the whole run.  Raises checks.CheckFailed when an output is
    wrong.
    """
    r = Run(work, seed, GEOMETRY[name], tracer)
    ctx = r.ctx
    inputs, fixture = ctx.inputs, ctx.store.nodes()

    def companions():
        if name == "train":
            r.detect(fixture, ctx.protos)
        else:
            r.train(SHORT_SCHEDULE)
        r.protos()
        r.audit(AUDIT_CASES)
        r.set_up()

    pause = Companions(companions, COMPANION_EVERY[name], tracer)
    if name == "train":
        trained = []
        rounds_until(seconds, lambda: trained.append(r.train(SCHEDULE, pause)), pause)
        store, losses = trained[0]
        checks.check_loss_halves(losses[SCHEDULE.steps_base:])
        # criterion 07 on the trained parameters
        c07, params = criterion07(inputs, work), store.nodes()
        protos = training.precompute_prototypes(inputs.train, inputs.supports, MODEL, params)
        dets, _ = detect_round(c07, params, protos)
        r.nap50 = check_round(c07, dets, protos)
        check_ablation(c07, params, protos, r.nap50)
    else:
        rounds_until(seconds, lambda: r.detect(fixture, ctx.protos, pause), pause)
        check_subset(inputs, r.first["detections"], fixture, ctx.protos)
    for schedule in (SCHEDULE, SHORT_SCHEDULE):
        if f"params{schedule.steps_base}" in r.first:
            check_reproducible(r.first[f"params{schedule.steps_base}"], out / record_name(schedule))
    return r.metrics(), r.attempted
