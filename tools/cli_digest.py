"""Digest of the CLI output of every benchmark operation.

    python3 tools/cli_digest.py [--seeds 1 2] [--reverse] > digest.txt

Runs each operation of bench/workloads.build(name, seed) in process through
floqtools.cli.main, from the src/ tree next to this script, and then the
fixed EXTRA argvs under the workload name `extra` (seed 0): the subcommands
and options no workload runs, and runs that exit 2 or 3. Prints one line
per operation: workload, seed, operation name, exit code (or the type name
of an exception that escapes cli.main), and the sha256 of stdout and of
stderr. A refactor that keeps the output byte-identical gives
the same lines at the parent commit and at the change, so `diff` of the two
runs is empty. --reverse runs the same operations last to first and prints
the lines in the forward order, so a result that depends on what an earlier
operation left in process-wide state (such as a cache) shows as a `diff`
against a forward run.
"""
import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from floqtools import cli  # noqa: E402

SIN_NO_OMEGA = '{"kind": "sin", "beta0": 1.0}'
SIN = '{"kind": "sin", "beta0": 1.0, "omega": 6.283185307179586}'
THREE_STEPS = '{"kind": "steps", "steps": [[1.0, 0.3], [0.0, 0.4], [0.5, 0.3]]}'
ONE_STEP = ('{"steps": [{"hamiltonian": [[0.5, [0.3, -0.2]], [[0.3, 0.2], -0.25]], '
            '"duration": 0.7}]}')
TWO_FAULTS = ('{"steps": [{"hamiltonian": [[0, 1], [0, 0]], "duration": 1}, '
              '{"hamiltonian": [[1, 0], [0, -1]], "duration": true}]}')
DIMENSION_MISMATCH = ('{"steps": [{"hamiltonian": [[1, 0], [0, -1]], "duration": 1}, '
                      '{"hamiltonian": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "duration": 1}]}')
FIELDS_PROBE = ["fields-probe", "--amplitude", "1.3", "--omega", "6.283185307179586",
                "--x", "0.01", "-0.02", "0.03", "--t", "0.1"]

PHASE_OVERFLOW = ["fields-probe", "--amplitude", "1", "--omega", "1e10",
                  "--x", "0.1", "0.2", "0.3", "--t", "1e300"]
SPIN_POINT = ["spin-spectrum", "--mu", "1", "--B", "0.5", "--omega", "1"]
HUGE = "1" + "0" * 5000  # a number of more digits than int() converts from text
BIG = "1" + "0" * 400  # an integer that int() reads but a float cannot hold
# Matrix entries that _load_pattern rejects, naming the row they are in.
BAD_ENTRIES = [("bool", "true"), ("nan", "NaN"), ("big-integer", BIG),
               ("pair-with-bool", "[1, true]"), ("triple", "[1, 2, 3]"), ("string", '"1"'),
               ("pair-with-big-integer", f"[{BIG}, 0]")]


def osc_spectrum(profile):
    return ["osc-spectrum", "--profile", profile, "--beta0-min", "0", "--beta0-max", "1",
            "--points", "2"]


def step_floquet(hamiltonian, duration):
    return ["step-floquet", "--pattern",
            f'{{"steps": [{{"hamiltonian": {hamiltonian}, "duration": {duration}}}]}}']


# (operation name, argv) of the runs no workload makes. The two trajectories
# after the exit-3 one give the prefix scan of hill._radial_samples one segment
# and 101 (a prime, one above the square 100: a padded last block). The spin
# step counts are per period, and spin-spectrum evolves a quarter of each,
# rounded up: 16384, 16385, 32768 and 32769 reach propagator.evolve as 4096,
# 4097, 8192 and 8193 steps, on either side of its 4096-step chunk edges;
# 8192 and 8193 reach it as 2048 and 2049, 12289 as 3073, 4095 and 4096 both
# as 1024, 4097 as 1025, and 7 as 2; the odd Hill chains (4097 and 3 sin
# steps, three drive steps) carry an odd last block through chain_matmul;
# the runs after them reach the input checks of
# the profile and pattern loaders, the overflow guards of step-floquet, a
# pattern with two faults (a non-Hermitian step, then a bool duration), whose
# report depends on the order of StepPattern's checks, one whose step
# dimensions differ, and the spin-spectrum options that do not apply to a
# sweep or to a single point.
# Then four amplitude sweeps: a steps one and a stability-scan whose
# amplitudes overflow (exit 3), a sin one to 1e300, and a constant one from
# -0.0 to 0.0. The last seven are fields-probe runs whose wavenumber,
# offsets, amplitude or phase overflow, a loop search at an angle too large
# for a naive reduction, and a spin product of 2^19 steps whose rounding
# drifts past the unitarity check. Last, the seven entry faults of
# BAD_ENTRIES in a step-floquet pattern, a 64-step pattern at d = 3, a
# 5-step one at d = 2 (an odd stack of closed-form step exponentials), and a
# trajectory of 10^17 samples, too many to allocate (exit 2).
EXTRA = [
    ("spin-spectrum/point", SPIN_POINT),
    ("spin-spectrum/point-steps", SPIN_POINT + ["--steps", "512"]),
    ("fields-probe/rotating", FIELDS_PROBE + ["--mode", "rotating"]),
    ("fields-probe/standing", FIELDS_PROBE + ["--mode", "standing"]),
    ("planar-loop/check", ["planar-loop", "--beta0", "0.785", "--beta1", "0.946",
                           "--omega", "6.283185307179586", "--periods", "24"]),
    ("step-floquet/one-step", ["step-floquet", "--pattern", ONE_STEP]),
    ("osc-spectrum/exit-2", osc_spectrum(SIN_NO_OMEGA)),
    ("osc-loop-find/exit-3", ["osc-loop-find", "--profile", '{"kind": "constant", "beta0": 1.0}',
                              "--bracket", "0.1", "0.2"]),
    ("osc-trajectory/exit-3", ["osc-trajectory", "--profile",
                               '{"kind": "constant", "beta0": 1e300}', "--t-end", "1e10",
                               "--samples", "2"]),
    ("osc-trajectory/samples-1", ["osc-trajectory", "--profile", SIN, "--t-end", "0.7",
                                  "--samples", "1"]),
    ("osc-trajectory/steps-101-segments", ["osc-trajectory", "--profile", THREE_STEPS,
                                           "--t-end", "2.5", "--samples", "94"]),
] + [(f"spin-spectrum/point-steps-{n}", SPIN_POINT + ["--steps", str(n)])
     for n in (7, 4095, 4096, 4097, 8192, 8193, 12289, 16384, 16385, 32768, 32769)] + [
    ("osc-spectrum/sin-steps-4097", osc_spectrum(SIN) + ["--steps", "4097"]),
    ("osc-spectrum/sin-steps-3", osc_spectrum(SIN) + ["--steps", "3"]),
    ("osc-loop-find/three-steps", ["osc-loop-find", "--profile", THREE_STEPS,
                                   "--bracket", "0.5", "3"]),
] + [
    (f"osc-spectrum/steps-{name}", osc_spectrum(f'{{"kind": "steps", "steps": {steps}}}'))
    for name, steps in [("scalar", "5"), ("empty", "[]"), ("triple", "[[1, 2, 3]]"),
                        ("bool", "[[true, 1]]"), ("negative", "[[1, -1]]")]
] + [
    ("osc-spectrum/huge-number", osc_spectrum(f'{{"kind": "constant", "beta0": {HUGE}}}')),
    ("step-floquet/duration-bool", step_floquet("[[1, 0], [0, -1]]", "true")),
    ("step-floquet/duration-string", step_floquet("[[1, 0], [0, -1]]", '"2"')),
    ("step-floquet/duration-huge", step_floquet("[[1, 0], [0, -1]]", HUGE)),
    ("step-floquet/exponent-overflow", step_floquet("[[1e300, 0], [0, -1e300]]", "1e10")),
    ("step-floquet/large-hermitian", step_floquet("[[1e308, 1e308], [1e308, -1e308]]", "1")),
    ("step-floquet/two-faults", ["step-floquet", "--pattern", TWO_FAULTS]),
    ("step-floquet/dimension-mismatch", ["step-floquet", "--pattern", DIMENSION_MISMATCH]),
    ("spin-spectrum/sweep-with-B", ["spin-spectrum", "--mu", "1", "--B", "5", "--omega", "1",
                                    "--points", "2", "--ratio-max", "1"]),
    ("spin-spectrum/point-with-ratio-max", SPIN_POINT + ["--ratio-max", "1"]),
    ("osc-spectrum/steps-amplitude-overflow",
     osc_spectrum('{"kind": "steps", "steps": [[2.0, 0.5], [0.0, 0.5]]}')
     + ["--beta0-max", "1e308"]),
    ("stability-scan/amplitude-overflow", ["stability-scan", "--omega", "1e300",
                                           "--alpha-max", "1e10"]),
    ("osc-spectrum/sin-huge-amplitude", osc_spectrum(SIN) + ["--beta0-max", "1e300"]),
    ("osc-spectrum/constant-signed-zeros", osc_spectrum('{"kind": "constant", "beta0": 1.0}')
     + ["--beta0-min", "-0.0", "--beta0-max", "0.0"]),
    ("fields-probe/wavenumber-overflow", ["fields-probe", "--amplitude", "1", "--omega", "1e200",
                                          "--light-speed", "1e-200", "--x", "1", "0", "0"]),
    ("fields-probe/offset-overflow", ["fields-probe", "--amplitude", "1", "--omega", "1",
                                      "--x", "1e308", "1e308", "0", "--h", "1e308"]),
    ("fields-probe/amplitude-overflow", ["fields-probe", "--amplitude", "1e308", "--omega", "1e10",
                                         "--x", "0.1", "0.2", "0.3", "--t", "0.3"]),
    ("fields-probe/phase-overflow", PHASE_OVERFLOW),
    ("fields-probe/standing-phase-overflow", PHASE_OVERFLOW + ["--mode", "standing"]),
    ("osc-loop-find/huge-angle", ["osc-loop-find", "--profile", SIN, "--angle", "1e20",
                                  "--bracket", "0.5", "3.0"]),
    ("spin-spectrum/drift", ["spin-spectrum", "--mu", "1", "--B", "1000", "--omega", "1",
                             "--steps", "524288"]),
] + [
    (f"step-floquet/entry-{name}", step_floquet(f"[[{entry}, 0], [0, 1]]", "1"))
    for name, entry in BAD_ENTRIES
] + [
    ("step-floquet/d3-64-steps", workloads._pattern_op(np.random.default_rng(64), 3, 64).argv),
    ("step-floquet/d2-5-steps", workloads._pattern_op(np.random.default_rng(5), 2, 5).argv),
    ("osc-trajectory/samples-1e17", ["osc-trajectory", "--profile",
                                     '{"kind": "constant", "beta0": 1}', "--t-end", "1",
                                     "--samples", str(10 ** 17)]),
]


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(name, seed, kind, argv):
    """One digest line; an exception that escapes cli.main stands as its type name for the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback at one tree still gives a line to compare
            code = type(exc).__name__
    return " ".join(map(str, (name, seed, kind, code, sha(out.getvalue()), sha(err.getvalue()))))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--reverse", action="store_true",
                        help="run the operations last to first; the lines keep their order")
    args = parser.parse_args(argv)
    ops = [(name, seed, op.kind, op.argv) for seed in args.seeds
           for name in workloads.WORKLOADS for op in workloads.build(name, seed).ops]
    ops += [("extra", 0, kind, extra_argv) for kind, extra_argv in EXTRA]
    step = -1 if args.reverse else 1
    lines = [digest(*op) for op in ops[::step]]
    print("\n".join(lines[::step]))


if __name__ == "__main__":
    main()
