"""Digest of the CLI output of every benchmark operation.

    python3 tools/cli_digest.py [--seeds 1 2] > digest.txt

Runs each operation of bench/workloads.build(name, seed) in process through
floqtools.cli.main, from the src/ tree next to this script, with
FLOQUET_STEPS unset. Prints one line per operation: workload, seed, operation
name, exit code, and the sha256 of stdout and of stderr. A refactor that
keeps the output byte-identical gives the same lines at the parent commit
and at the change, so `diff` of the two runs is empty.
"""
import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
os.environ.pop("FLOQUET_STEPS", None)

import workloads  # noqa: E402
from floqtools import cli  # noqa: E402


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, seed).ops:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(op.argv)
                print(name, seed, op.kind, code, sha(out.getvalue()), sha(err.getvalue()))


if __name__ == "__main__":
    main()
