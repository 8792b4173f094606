"""fusedet benchmark: one workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload train --seed 3 --seconds 50 --trace 0

Runs from the root of a source checkout, importing the package from
`src/` with one BLAS thread and without huge pages for numpy arrays.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, where metrics are
the end-to-end figures with `--trace 0` and the per-layer figures with
`--trace 1`.  A traced run also prints its (slowed) end-to-end figures on
standard error, which gives the tracing overhead, and writes its spans to
`.bench_out/trace-<workload>-seed<n>.tsv`.  A failed output check prints
`correct: false` and exits 1.  See bench/README.md.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays; whether the kernel
# grants them depends on the whole machine's memory, and moved the peak
# resident set of the same run by up to a tenth.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "detect-dense")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fusedet" / "__init__.py").is_file():
        print(f"error: no fusedet sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import workloads
    from fixture import StaleFixture
    from tracing import Tracer

    out = ROOT / ".bench_out"
    work = out / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install([workloads])
    try:
        e2e, attempted = workloads.run(args.workload, args.seed, args.seconds, work, out, tracer)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    except StaleFixture as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    if tracer is None:
        metrics = e2e
    else:
        silent = tracer.silent()
        if silent:
            print(f"check failed: traced spans never fired: {', '.join(silent)}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
            return 1
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.tsv")
        print("traced end-to-end: " + json.dumps({k: v for k, (v, _) in e2e.items()}), file=sys.stderr)
        metrics = tracer.per_layer()
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
