"""Single command-line entry point.

Subcommands: gen (synthetic dataset), fuse (one map pair through a fusion
mode), train (two-stage episodic training), infer (detections from a
trained run), eval (per-class AP and novel-class mean), selftest (oracle
checks), gradcheck (finite-difference audit).

Exit codes: 0 success, 1 I/O failure, 2 validation or shape failure,
3 numerical failure.  Every run echoes its resolved configuration.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import fmp
from .audit import GRAD_TOL, gradcheck_cases
from .autodiff import ParamStore, grad_check
from .config import build_section, build_split, load_config_file, parse_class_ids, resolved_lines
from .data import SplitSpec, build_supports, load_index
from .deformable import FUSE_MODES, fuse, init_fusion_params
from .errors import NumericGuardError, ParseError, PreconditionError, ShapeError
from .evaluation import average_precision, nap50, read_detections, read_ground_truths, write_detections
from .model import ModelConfig, init_params
from .prototypes import load_prototypes, save_prototypes
from .selftest import FAULTS, run_selftests
from .synth import SynthConfig, generate_synthetic
from .training import TrainConfig, detect_over, precompute_prototypes, run_training


def _resolve(args):
    """(model, train, synth, split) from config file plus seed flag."""
    kv = load_config_file(args.config) if getattr(args, "config", None) else {}
    model = build_section(ModelConfig, "model", kv)
    train = build_section(TrainConfig, "train", kv)
    synth = build_section(SynthConfig, "synth", kv)
    split = build_split(kv)
    seed = getattr(args, "seed", None)
    if seed is not None:
        train = replace(train, seed=int(seed))
    return model, train, synth, split


def _echo(model, train, synth, split) -> None:
    print("# resolved configuration")
    for line in resolved_lines(model, train, synth, split):
        print(line)


def _checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_gen(args) -> int:
    model, train, synth, split = _resolve(args)
    _echo(model, train, synth, split)
    index = generate_synthetic(args.out, synth, seed=train.seed)
    n_boxes = sum(len(e.boxes) for e in index.entries.values())
    print(f"generated {len(index.entries)} image pairs, {n_boxes} boxes in {args.out}")
    return 0


def _load_params(path, want: ParamStore) -> ParamStore:
    """The parameter store at `path`, checked to hold every key of `want`
    at the same shape."""
    store = ParamStore.load(path)
    problems = [f"missing {k}" for k in want.keys() if k not in store]
    problems += [
        f"{k} has shape {store.array(k).shape}, the model wants {want.array(k).shape}"
        for k in want.keys()
        if k in store and store.array(k).shape != want.array(k).shape
    ]
    if problems:
        raise PreconditionError(f"{path} does not fit the model: {'; '.join(problems)}")
    return store


def cmd_fuse(args) -> int:
    model, train, synth, split = _resolve(args)
    _echo(model, train, synth, split)
    rgb = fmp.read_map(args.rgb)
    ir = fmp.read_map(args.ir)
    fusion = model.fusion_config(rgb.shape[0])
    store = ParamStore(seed=train.seed)
    init_fusion_params(store, fusion)
    if args.params:
        want = ParamStore()
        init_fusion_params(want, fusion, args.mode)
        store = _load_params(args.params, want)
    out = fuse(rgb, ir, args.mode, fusion, store.nodes())
    fmp.write_map(args.out, out.value)
    print(f"shape={out.value.shape} checksum={_checksum(args.out)}")
    return 0


def _require_split(split: SplitSpec | None) -> SplitSpec:
    if split is None:
        raise PreconditionError("this command needs split.base and split.novel in the config")
    return split


def cmd_train(args) -> int:
    model, train, synth, split = _resolve(args)
    split = _require_split(split)
    _echo(model, train, synth, split)
    index = load_index(args.data)
    supports = build_supports(
        index, split, train.k, n_seeds=train.n_support_seeds, master_seed=train.seed
    )
    store, log = run_training(index, split, model, train, supports[train.support_index])
    protos = precompute_prototypes(index, supports, model, store.nodes())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store.save(out / "params.pst")
    save_prototypes(out / "protos.pst", protos)
    (out / "log.txt").write_text("".join(f"{line}\n" for line in log))
    for line in log[-3:]:
        print(line)
    print(f"params checksum={_checksum(out / 'params.pst')}")
    print(f"prototypes checksum={_checksum(out / 'protos.pst')}")
    return 0


def cmd_infer(args) -> int:
    model, train, synth, split = _resolve(args)
    _echo(model, train, synth, split)
    index = load_index(args.data)
    ids = args.ids.split(",") if args.ids else index.image_ids()
    missing = [i for i in ids if i not in index.entries]
    if missing:
        raise PreconditionError(f"image ids not in index: {missing}")
    repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
    if repeated:
        raise PreconditionError(f"image ids given more than once: {repeated}")
    store = _load_params(args.params, init_params(model))
    protos = load_prototypes(args.protos)
    dets = detect_over(index, ids, protos, model, store.nodes())
    write_detections(args.out, dets)
    print(f"wrote {len(dets)} detections for {len(ids)} images to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, train, synth, split = _resolve(args)
    _echo(model, train, synth, split)
    dets = read_detections(args.dets)
    gts = read_ground_truths(args.gts)
    novel = parse_class_ids(args.novel, "--novel")
    for c in novel:
        print(f"AP class={c} {average_precision(dets, gts, c, 0.5):.4f}")
    print(f"nAP50 {nap50(dets, gts, novel):.4f}")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftests(inject_fault=args.inject_fault)
    failures = 0
    for name, ok, detail in results:
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name} ({detail})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 2 if failures else 0


def cmd_gradcheck(args) -> int:
    seed = _resolve(args)[1].seed
    worst_overall = 0.0
    failures = 0
    with tempfile.TemporaryDirectory(prefix="fusedet-gradcheck-") as tmp:
        for name, store, build in gradcheck_cases(seed, Path(tmp)):
            worst = grad_check(build, store)
            worst_overall = max(worst_overall, worst)
            ok = worst <= GRAD_TOL
            failures += 0 if ok else 1
            print(f"{'PASS' if ok else 'FAIL'} {name} worst_rel_err={worst:.3e}")
    if failures:
        raise NumericGuardError(f"{failures} gradient checks exceeded {GRAD_TOL}")
    print(f"all gradients within {GRAD_TOL} (worst {worst_overall:.3e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fusedet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic paired-modality dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("fuse", help="fuse one map pair and write the result")
    p.add_argument("--rgb", required=True)
    p.add_argument("--ir", required=True)
    p.add_argument("--mode", choices=FUSE_MODES, default="cda")
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("train", help="two-stage episodic training")
    p.add_argument("--data", required=True, help="annotation index file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="detect over index images with trained parameters")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--protos", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ids", default="", help="comma-separated image ids (default: all)")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="per-class AP and novel-class mean AP")
    p.add_argument("--dets", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--novel", required=True, help="comma-separated novel class ids")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.add_argument("--inject-fault", choices=FAULTS, default=None)
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericGuardError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ShapeError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
