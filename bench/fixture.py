"""The trained-parameter fixture that inference and prototypes run with.

`fixture.pst` holds the parameters of criterion 07's training schedule at
seed 0.  Loading it checks every key and shape against `init_params(cfg)`,
so a fixture left stale by a change to the model fails with a message
saying how to make it anew:

    python3 bench/fixture.py

That command trains, refuses to write parameters that miss any nAP50
floor of the held-out sets the benchmark uses, and replaces the fixture.
"""
from __future__ import annotations

import struct
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().with_name("fixture.pst")
REMAKE = "python3 bench/fixture.py"
FLOOR_SEEDS = (0, 1, 2)


class StaleFixture(Exception):
    """The fixture is missing, unreadable, or does not match the model."""


def schema_mismatch(store, cfg) -> list[str]:
    """Differences between a store's keys and shapes and init_params(cfg)."""
    from fusedet.model import init_params

    want = init_params(cfg)
    problems = [f"missing {k}" for k in want.keys() if k not in store]
    problems += [f"unexpected {k}" for k in store.keys() if k not in want]
    problems += [
        f"{k} has shape {store.array(k).shape}, model wants {want.array(k).shape}"
        for k in want.keys()
        if k in store and store.array(k).shape != want.array(k).shape
    ]
    return problems


def load_fixture(cfg, path: Path = FIXTURE):
    from fusedet.autodiff import ParamStore
    from fusedet.errors import FusedetError

    try:
        store = ParamStore.load(path)
    except (OSError, ValueError, struct.error, FusedetError) as exc:
        raise StaleFixture(f"cannot read {path}: {exc}; make it anew with {REMAKE}") from exc
    problems = schema_mismatch(store, cfg)
    if problems:
        raise StaleFixture(
            f"{path} does not match the model ({'; '.join(problems)}); make it anew with {REMAKE}"
        )
    return store


def main() -> int:
    import os
    import shutil

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = FIXTURE.parent.parent
    sys.path.insert(0, str(root / "src"))
    import checks
    import workloads

    work = root / ".bench_out" / f"fixture-{os.getpid()}"
    try:
        inputs = workloads.make_inputs(work / "train", 0, workloads.SMALL)
        store, losses, _ = workloads.train_once(inputs, workloads.SCHEDULE)
        checks.check_loss_halves(losses[workloads.SCHEDULE.steps_base:])
        params = store.nodes()
        c07 = workloads.criterion07(inputs, work)
        protos = workloads.prototypes_of(c07, store)
        dets, _ = workloads.detect_round(c07, params, protos)
        score = workloads.check_round(c07, dets, protos)
        workloads.check_ablation(c07, params, protos, score)
        print(f"criterion 07 held-out pairs: nAP50 {score:.4f} >= {c07.geo.floor}, thermal ablation lower")
        for geo in (workloads.SMALL, workloads.DENSE):
            for seed in FLOOR_SEEDS:
                inputs = workloads.make_inputs(work / f"{geo.side}-{seed}", seed, geo)
                protos = workloads.prototypes_of(inputs, store)
                dets, _ = workloads.detect_round(inputs, params, protos)
                score = workloads.check_round(inputs, dets, protos)
                print(f"{geo.side}x{geo.side} held-out seed {seed}: nAP50 {score:.4f} >= {geo.floor}")
    except checks.CheckFailed as exc:
        print(f"fixture not written: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    store.save(FIXTURE)
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
