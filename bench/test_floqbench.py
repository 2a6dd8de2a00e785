"""Tests of the benchmark itself: small workloads run clean, and every checker
rejects a deliberately perturbed output, so that no check passes vacuously.

Run from the repository root with `PYTHONPATH=src python -m pytest bench`.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import harness
import layers
import workloads

SEED = 7
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def outputs():
    """{workload: (Workload, first-round stdout per op)} in small mode."""
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, SEED, small=True)
        texts = []
        for op in wl.ops:
            code, _, text, err = harness.run_op(op.argv)
            assert code == 0, (op.kind, err)
            texts.append(text)
        out[name] = (wl, texts)
    return out


def problems(op, text):
    rep = workloads.Report()
    op.check(text, rep)
    return rep.problems


def test_inputs_repeat_for_a_seed_and_change_with_it():
    a = [op.argv for op in workloads.build("trajectory", SEED).ops]
    b = [op.argv for op in workloads.build("trajectory", SEED).ops]
    c = [op.argv for op in workloads.build("trajectory", SEED + 1).ops]
    assert a == b
    assert a != c
    assert [x[0] for x in a] == [x[0] for x in c]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_runs_clean_with_tracing(name):
    wl = workloads.build(name, SEED, small=True)
    run = harness.Rounds(wl, seconds=0.0, tracer=layers.Tracer())
    assert run.rounds == 2 and len(run.tables) == 1
    assert run.correct and run.failed == 0, run.problems
    assert run.attempted == 2 * len(wl.ops)
    assert [len(ts) for ts in run.calibrated[False]] == [1] * len(wl.ops)
    assert len(run.kernel_s) == 2 * (len(wl.ops) + 1)
    table = run.tables[0]
    assert table["cli.main"]["calls"] == len(wl.ops)
    used = {
        "osc-sweep": ["hill.floquet_result", "linops.chain_matmul",
                      "profiles.integration_segments"],
        "loop-search": ["hill.find_loop_beta", "planar_charge.stability_threshold",
                        "planar_charge.polish_loop_beta1", "planar_charge.planar_monodromy"],
        "trajectory": ["hill.classical_trajectory", "linops.oscillator_blocks"],
        "spin": ["propagator.evolve", "propagator.expm_hermitian", "propagator.quasienergies",
                 "spin_resonance.spin_instantaneous"],
    }[name]
    for layer in used:
        assert table[layer]["calls"] > 0, layer
    if name == "spin":
        assert "hill.monodromy" not in table
    if name == "osc-sweep":
        assert "propagator.evolve" not in table and "hill.find_loop_beta" not in table
    metrics = harness.layer_metrics(run, import_s=0.5)
    assert set(metrics) == set(harness.layer_metric_units())


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.layer_metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "op_p50_ms",
                                                     "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_counts_calls_made_through_imported_names():
    from floqtools import hill
    original = hill.chain_matmul
    tracer = layers.Tracer()
    tracer.install()
    try:
        code, _, _, _ = harness.run_op(["osc-spectrum", "--profile",
                                        '{"kind": "sin", "beta0": 1, "omega": 6.283185307179586}',
                                        "--beta0-min", "0", "--beta0-max", "2", "--points", "5"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert hill.chain_matmul is original
    table = tracer.table()
    assert table["linops.chain_matmul"]["calls"] == 5
    assert table["linops.chain_matmul"]["matrices"] == 5 * workloads.DEFAULT_STEPS
    assert table["linops.oscillator_blocks"]["blocks"] == 5 * workloads.DEFAULT_STEPS
    assert table["profiles.integration_segments"]["segments"] == 5 * workloads.DEFAULT_STEPS


def _replace_csv(text, fn):
    lines = text.splitlines()
    return "\n".join([lines[0]] + [",".join(fn(i, line.split(","))) for i, line in
                                   enumerate(lines[1:])]) + "\n"


def _classify(tr, period):
    if abs(abs(tr) - 2.0) <= 1e-12:
        cls = "parabolic"
    else:
        cls = "elliptic" if abs(tr) < 2.0 else "hyperbolic"
    w = "" if cls == "hyperbolic" else format(math.acos(max(-1, min(1, tr / 2))) / period, ".12g")
    return cls, w


def _spectrum_shifted(text, period):
    # Shift every trace by 1e-3 and keep the table self-consistent, so that
    # only the comparison with the reference can catch it.
    def row(_, cells):
        tr = float(cells[1]) + 1e-3
        return [cells[0], format(tr, ".12g"), *_classify(tr, period)]
    return _replace_csv(text, row)


def _json_shift(key, rel):
    def perturb(text):
        out = json.loads(text)
        out[key] = out[key] * (1.0 + rel)
        return json.dumps(out)
    return perturb


def _trajectory_scaled(text):
    # (q, p) -> (q s, p / s) keeps q1 p2 - q2 p1 between paired runs.
    s = 1.0 + 1e-4
    return _replace_csv(text, lambda i, c: [c[0], repr(float(c[1]) * s), repr(float(c[2]) / s)])


def _last_line_shift(delta):
    def perturb(text):
        lines = text.splitlines()
        kind, value = lines[-1].split(",")
        lines[-1] = f"{kind},{float(value) + delta!r}"
        return "\n".join(lines) + "\n"
    return perturb


def _spin_numeric_shift(text):
    return _replace_csv(text, lambda i, c: c[:2] + [repr(float(c[2]) + 1e-5)] if i == 1 else c)


def _period(op):
    profile = json.loads(op.argv[op.argv.index("--profile") + 1])
    if "omega" in profile:
        return 2.0 * math.pi / profile["omega"]
    if profile["kind"] == "steps":
        return sum(tau for _, tau in profile["steps"])
    return profile["period"]


PERTURBATIONS = {
    "osc-spectrum": lambda op, t: _spectrum_shifted(t, _period(op)),
    "stability-scan/grid": lambda op, t: _replace_csv(
        t, lambda i, c: [c[0], repr(float(c[1]) + 1e-3),
                         "true" if abs(float(c[1]) + 1e-3) <= 2 else "false"]),
    "osc-loop-find": lambda op, t: _json_shift("beta0_star", 1e-6)(t),
    "stability-scan/threshold": lambda op, t: _json_shift("alpha_star", 2e-5)(t),
    "planar-loop/polish": lambda op, t: _json_shift("beta1_polished", 1e-5)(t),
    "osc-trajectory": lambda op, t: _trajectory_scaled(t),
    "spin-spectrum/sweep": lambda op, t: _spin_numeric_shift(t),
    "step-floquet": lambda op, t: _last_line_shift(1e-6)(t),
}


def _perturbation(kind):
    for prefix, fn in PERTURBATIONS.items():
        if kind.startswith(prefix):
            return fn
    raise KeyError(kind)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_checker_rejects_a_perturbed_output(outputs, name):
    wl, texts = outputs[name]
    for op, text in zip(wl.ops, texts):
        assert problems(op, text) == [], op.kind
        assert problems(op, _perturbation(op.kind)(op, text)), op.kind


def test_stability_rule_rejects_a_wrong_label(outputs):
    wl, texts = outputs["osc-sweep"]
    op, text = wl.ops[0], texts[0]
    flip = {"elliptic": "hyperbolic", "hyperbolic": "elliptic", "parabolic": "hyperbolic"}
    bad = _replace_csv(text, lambda i, c: [c[0], c[1], flip[c[2]], c[3]] if i == 5 else c)
    assert problems(op, bad)


def test_sweep_reference_rejects_an_under_resolved_run(outputs):
    wl, _ = outputs["osc-sweep"]
    op = next(op for op in wl.ops if op.kind == "osc-spectrum/sin")
    _, _, coarse, _ = harness.run_op(op.argv + ["--steps", "64"])
    assert problems(op, coarse)


def test_joint_checks_reject_perturbed_outputs(outputs):
    wl, texts = outputs["trajectory"]
    (pair, det_check), _ = wl.joint
    rep = workloads.Report()
    det_check([texts[pair[0]], texts[pair[0]]], rep)
    assert rep.problems

    wl, texts = outputs["loop-search"]
    (members, spread_check), = wl.joint
    shifted = [texts[members[0]], _json_shift("alpha_star", 1e-5)(texts[members[0]])]
    rep = workloads.Report()
    spread_check(shifted, rep)
    assert rep.problems


def test_non_zero_exit_counts_as_failed_and_leaves_correct():
    wl = workloads.Workload([workloads.Op("bad", ["osc-spectrum"], lambda t, r: None)])
    run = harness.Rounds(wl, seconds=0.0)
    assert run.failed == run.attempted == 1
    assert run.correct


def test_setup_measurement_starts_a_fresh_interpreter():
    wall, t_import, t_parser = harness.measure_setup(SRC, runs=1)
    assert wall > t_import > 0 and t_parser > 0


def test_calibration_divides_out_the_kernel_speed():
    ref = calib.REFERENCE_S
    assert calib.calibrated(0.2, ref, ref) == pytest.approx(0.2)
    assert calib.calibrated(0.2, 2 * ref, 2 * ref) == pytest.approx(0.1)
    assert calib.calibrated(0.3, ref, 2 * ref) == pytest.approx(0.2)
    assert 0 < calib.kernel_seconds(repeats=1) < 1.0


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           "spin", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no floqtools sources" in proc.stderr
