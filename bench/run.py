"""Benchmark of the floqtools CLI: four workloads with independently checked outputs.

Run from the repository root:

    python3 bench/run.py --workload osc-sweep --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1. A copy with run details goes to
bench_results/. Without --workload every workload runs, each in its own
process. See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_environment():
    """Unset FLOQUET_STEPS and cap BLAS threads at the usable cores; must run
    before numpy is imported."""
    os.environ.pop("FLOQUET_STEPS", None)
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)


def _environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _run_all(args, names):
    status = 0
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"{name}: {lines[-1] if lines else 'no result'}")
        status = status or proc.returncode
    return status


def main(argv=None):
    if not (SRC / "floqtools" / "cli.py").is_file():
        print(f"error: no floqtools sources under {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS),
                        help="workload to run (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args, workloads.WORKLOADS)

    sys.path.insert(0, str(SRC))
    import harness

    result, detail = harness.run_workload(args.workload, args.seed, args.seconds,
                                          args.trace, str(SRC))
    detail["environment"] = _environment()
    detail["result"] = result
    out_dir = ROOT / "bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")

    for op in detail["ops"]:
        for problem in op["problems"]:
            print(f"FAILED {op['kind']}: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
