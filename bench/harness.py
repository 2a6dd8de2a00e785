"""Runs one workload in rounds of in-process CLI calls and reports its metrics.

The load is a closed loop: one process makes one floqtools.cli.main(argv)
call at a time, with stdout captured, and starts the next call when the last
one returns. A round is the workload's fixed list of operations. Rounds
repeat until the requested seconds have passed, so every run attempts whole
rounds. The outputs of the first round are checked against the references in
workloads.py; every later output must equal its first-round output byte for
byte, as the CLI promises. An operation fails on a non-zero exit code, an
exception, a failed check or a changed output.

Timings are calibrated: the calibration kernel of calib.py runs before
every operation and after the last, and each latency is divided by the mean
of the two calibrations around it and multiplied by calib.REFERENCE_S. On
the shared 2-core host this benchmark was built on, the same code runs up
to ~2x slower for stretches of a second to minutes (thread CPU time moves
with wall time, so it is not scheduling); raw medians and best-of-k times
of 25 s runs spread 0.15 to 0.3 between runs (IQR over median, 10 seeds),
calibrated ones 0.02 to 0.065.
An operation's time is the median of its calibrated latencies over the
rounds of a run.
"""
from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from floqtools import cli

import calib
import layers
import workloads

SETUP_RUNS = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import floqtools.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "cli.build_parser()\n"
    "print(t1 - t0, time.perf_counter() - t1)\n"
)
CHECK_ERRORS = (ValueError, KeyError, IndexError, TypeError)

# Per-layer metrics reported by a traced run: (layer, fields).
LAYER_FIELDS = [
    ("profiles.integration_segments", ("calls", "segments", "self_ms")),
    ("linops.oscillator_blocks", ("calls", "blocks", "self_ms")),
    ("linops.chain_matmul", ("calls", "matrices", "self_ms")),
    ("hill.monodromy", ("calls", "self_ms")),
    ("hill.floquet_result", ("calls", "self_ms")),
    ("hill.classical_trajectory", ("self_ms",)),
    ("hill.find_loop_beta", ("evals",)),
    ("planar_charge.stability_threshold", ("evals",)),
    ("planar_charge.polish_loop_beta1", ("evals",)),
    ("planar_charge.planar_monodromy", ("calls", "self_ms")),
    ("propagator.evolve", ("calls", "steps", "self_ms")),
    ("propagator.expm_hermitian", ("calls", "self_ms")),
    ("propagator.step_propagator", ("calls", "self_ms")),
    ("propagator.quasienergies", ("calls", "self_ms")),
    ("spin_resonance.spin_instantaneous", ("calls", "self_ms")),
    ("spin_resonance.spin_spacing_from_propagator", ("self_ms",)),
    ("cli.main", ("calls",)),
]
UNITS = {"calls": "count", "segments": "count", "blocks": "count", "matrices": "count",
         "steps": "count", "self_ms": "ms", "evals": "evals/call"}
EXTRA_LAYER_METRICS = {"cli.self_ms": "ms", "cli.output_bytes": "bytes",
                       "setup.import_ms": "ms", "trace.overhead_ratio": "ratio"}


def layer_metric_units():
    """{metric name: unit} of every per-layer metric, in report order."""
    out = {f"{layer}.{f}": UNITS[f] for layer, fields in LAYER_FIELDS for f in fields}
    out.update(EXTRA_LAYER_METRICS)
    return out


def measure_setup(src, runs=SETUP_RUNS):
    """Median wall time of a fresh interpreter that imports floqtools.cli and
    builds the parser, with the median import and parser-build times inside it.

    Not calibrated: import time follows the calibration kernel poorly
    (correlation 0.4 over 94 fresh interpreters), and dividing by it doubled
    the spread of single set-up times, from 0.10 to 0.2 (IQR over median).
    """
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("FLOQUET_STEPS", None)
    walls, imports, parsers = [], [], []
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        walls.append(perf_counter() - start)
        t_import, t_parser = map(float, proc.stdout.split())
        imports.append(t_import)
        parsers.append(t_parser)
    return (statistics.median(walls), statistics.median(imports),
            statistics.median(parsers))


def run_op(argv):
    """One in-process CLI call: (exit code or error text, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counted as a failed operation; the run goes on
        code = "exception: " + traceback.format_exc(limit=3)
    return code, perf_counter() - start, out.getvalue(), err.getvalue()


def check_outputs(workload, firsts):
    """Per-operation problems and worst error/tolerance of the first round."""
    problems = [[] for _ in workload.ops]
    worst = [0.0] * len(workload.ops)
    for i, (op, (code, text, err)) in enumerate(zip(workload.ops, firsts)):
        if code != 0:
            problems[i].append(f"exit {code!r}: {err.strip()[-300:]}")
            continue
        rep = workloads.Report()
        try:
            op.check(text, rep)
        except CHECK_ERRORS as exc:
            rep.problems.append(f"unreadable output: {exc!r}")
        problems[i].extend(rep.problems)
        worst[i] = rep.worst
    for members, check in workload.joint:
        if any(firsts[i][0] != 0 for i in members):
            continue
        rep = workloads.Report()
        try:
            check([firsts[i][1] for i in members], rep)
        except CHECK_ERRORS as exc:
            rep.problems.append(f"unreadable output: {exc!r}")
        for i in members:
            problems[i].extend(f"joint: {p}" for p in rep.problems)
            worst[i] = max(worst[i], rep.worst)
    return problems, worst


class Rounds:
    """What the rounds of one run did: timings, outputs, checks and failures."""

    def __init__(self, workload, seconds, tracer=None):
        """Run rounds of `workload` for `seconds`; with a tracer, every
        second round is traced."""
        ops = workload.ops
        self.firsts = []                     # (exit code, stdout, stderr) of round 0
        self.changed = [0] * len(ops)        # later outputs that differ from round 0
        self.round_s = {False: [], True: []}
        self.latencies = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.calibrated = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.kernel_s = []                   # every calibration, in seconds
        self.tables = []                     # one layer table per traced round
        self.output_bytes = 0                # stdout of one round
        self.rounds = 0
        start = perf_counter()
        while True:
            traced = tracer is not None and self.rounds % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            round_start = perf_counter()
            total = 0.0
            before = calib.kernel_seconds()
            self.kernel_s.append(before)
            try:
                for i, op in enumerate(ops):
                    code, elapsed, text, err = run_op(op.argv)
                    after = calib.kernel_seconds()
                    self.kernel_s.append(after)
                    total += elapsed
                    self.latencies[traced][i].append(elapsed)
                    self.calibrated[traced][i].append(calib.calibrated(elapsed, before, after))
                    before = after
                    if self.rounds == 0:
                        self.firsts.append((code, text, err))
                        self.output_bytes += len(text.encode())
                    elif code != self.firsts[i][0] or text != self.firsts[i][1]:
                        self.changed[i] += 1
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                self.tables.append(tracer.table())
            self.round_s[traced].append(total)
            self.rounds += 1
            # Stop before a round that would end past the deadline.
            now = perf_counter()
            if (now - start + now - round_start > seconds
                    and (tracer is None or self.rounds >= 2)):
                break
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        self.problems, self.worst = check_outputs(workload, self.firsts)
        self.attempted = self.rounds * len(ops)
        self.failed = sum(self.rounds if self.problems[i] else self.changed[i]
                          for i in range(len(ops)))
        # Operations that exited non-zero count as failed but leave `correct`
        # alone: it speaks of the outputs the program did return.
        self.correct = not any(self.problems[i] and self.firsts[i][0] == 0
                               for i in range(len(ops))) and not any(self.changed)

    def op_seconds(self, traced=False):
        """Median calibrated latency of each operation, in seconds."""
        return [statistics.median(ts) for ts in self.calibrated[traced]]


def run_workload(name, seed, seconds, trace, src):
    """Run `name` for `seconds` and return the result object and its details.

    With trace, untraced and traced rounds alternate; the result then holds
    the per-layer metrics of one round, self times as the best over the
    traced rounds, and the traced/untraced ratio of summed operation times.
    """
    setup_s, import_s, parser_s = measure_setup(src)
    workload = workloads.build(name, seed)
    run = Rounds(workload, seconds, layers.Tracer() if trace else None)
    if trace:
        metrics = layer_metrics(run, import_s)
    else:
        op_s = run.op_seconds()
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (sum(op_s), "s"),
            "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
        }
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "rounds": run.rounds, "round_s": run.round_s[False],
        "traced_round_s": run.round_s[True],
        "setup": {"wall_s": setup_s, "import_s": import_s, "build_parser_s": parser_s},
        "kernel_ms": {"reference": 1e3 * calib.REFERENCE_S,
                      "median": 1e3 * statistics.median(run.kernel_s),
                      "min": 1e3 * min(run.kernel_s), "max": 1e3 * max(run.kernel_s)},
        "peak_rss_mb": run.peak_rss_mb,
        "ops": [{"kind": op.kind, "latencies_ms": [1e3 * t for t in run.latencies[False][i]],
                 "calibrated_ms": [1e3 * t for t in run.calibrated[False][i]],
                 "output_bytes": len(run.firsts[i][1].encode()),
                 "worst_error_over_tol": run.worst[i], "problems": run.problems[i][:5],
                 "changed_outputs": run.changed[i]}
                for i, op in enumerate(workload.ops)],
        "layers": run.tables[0] if run.tables else None,
        "layer_counts_repeat": all(_counts(t) == _counts(run.tables[0]) for t in run.tables),
    }
    return result, detail


def _counts(table):
    return {layer: {k: v for k, v in row.items() if not k.endswith("_ms")}
            for layer, row in table.items()}


def layer_metrics(run, import_s):
    """Per-layer metrics of one round from the traced rounds' tables."""
    tables = run.tables

    def best(layer, key):
        return min(t.get(layer, {}).get(key, 0.0) for t in tables)

    first = tables[0]
    out = {}
    for layer, fields in LAYER_FIELDS:
        row = first.get(layer, {})
        for f in fields:
            if f == "self_ms":
                value = best(layer, "self_ms")
            elif f == "evals":
                value = row.get("evals", 0) / row["calls"] if row else 0.0
            else:
                value = row.get(f, 0)
            out[f"{layer}.{f}"] = (value, UNITS[f])
    cli_layers = {layer for t in tables for layer in t if layer.startswith("cli.")}
    out["cli.self_ms"] = (sum(best(layer, "self_ms") for layer in cli_layers), "ms")
    out["cli.output_bytes"] = (run.output_bytes, "bytes")
    out["setup.import_ms"] = (1e3 * import_s, "ms")
    out["trace.overhead_ratio"] = (sum(run.op_seconds(traced=True)) / sum(run.op_seconds()),
                                   "ratio")
    return out
