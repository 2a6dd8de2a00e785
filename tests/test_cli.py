import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import floqtools
from floqtools import cli
from floqtools import spin_quasienergy_spacing, SpinParams

TWO_PI = 2.0 * math.pi

SIN_PROFILE = '{"kind": "sin", "beta0": 1.0, "omega": 6.283185307179586}'
CONST_PROFILE = '{"kind": "constant", "beta0": 1.0}'
TWO_STEP_PATTERN = json.dumps({
    "steps": [
        {"hamiltonian": [[0.5, 0.0], [0.0, -0.5]], "duration": 1.0},
        {"hamiltonian": [[1.5, 0.0], [0.0, -1.5]], "duration": 1.0},
    ]
})


def run_cli(*argv):
    return cli.main(list(argv))


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("no-such-command")
    assert excinfo.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("osc-spectrum", "--profile", SIN_PROFILE)
    assert excinfo.value.code == 2


def test_invalid_profile_names_the_field(capsys):
    code = run_cli("osc-spectrum", "--profile", '{"kind": "sin", "beta0": 1.0}',
                   "--beta0-min", "0", "--beta0-max", "1", "--points", "3")
    assert code == 2
    assert "'omega'" in capsys.readouterr().err


def test_no_root_in_bracket_exits_3(capsys):
    code = run_cli("osc-loop-find", "--profile", CONST_PROFILE,
                   "--bracket", "2.0", "2.5")
    assert code == 3
    assert "bracket" in capsys.readouterr().err


def test_zero_steps_is_a_configuration_error(capsys):
    code = run_cli("osc-spectrum", "--profile", SIN_PROFILE, "--beta0-min", "2",
                   "--beta0-max", "3", "--points", "3", "--steps", "0")
    assert code == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (("osc-spectrum", "--profile", SIN_PROFILE, "--beta0-min", "0", "--beta0-max", "NaN",
      "--points", "3"), "--beta0-max"),
    (("planar-loop", "--beta0", "0.785", "--beta1", "inf", "--omega", "6.28",
      "--periods", "24"), "--beta1"),
    (("spin-spectrum", "--mu", "1", "--B", "nan", "--omega", "1"), "--B"),
    (("osc-loop-find", "--profile", CONST_PROFILE, "--angle", "nan",
      "--bracket", "1", "2"), "--angle"),
])
def test_non_finite_option_exits_2_naming_it(argv, field, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    assert f"argument {field}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (("osc-spectrum", "--profile", SIN_PROFILE, "--beta0-min", "0", "--beta0-max", "1",
      "--points", "0"), "--points"),
    (("stability-scan", "--omega", "6.28", "--points", "-2"), "--points"),
    (("spin-spectrum", "--mu", "1", "--omega", "1", "--points", "1.5"), "--points"),
    (("osc-trajectory", "--profile", SIN_PROFILE, "--t-end", "1", "--samples", "0"),
     "--samples"),
    (("planar-loop", "--beta0", "0.785", "--beta1", "0.946", "--omega", "6.28",
      "--periods", "0"), "--periods"),
])
def test_non_positive_count_exits_2_naming_it(argv, field, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    assert f"argument {field}: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("osc-loop-find", "--profile", CONST_PROFILE, "--bracket", "2", "2.5", "--steps", "0"),
    ("stability-scan", "--omega", "6.28", "--find-threshold", "--steps", "0"),
])
def test_root_search_with_zero_steps_is_a_configuration_error(argv, capsys):
    code = run_cli(*argv)
    assert code == 2
    assert "n_steps" in capsys.readouterr().err


def exit_code(argv):
    """main's return code, or the code of the SystemExit an argparse error raises."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def step_pattern(step):
    return json.dumps({"steps": [step]})


SPECTRUM_GRID = ("--beta0-min", "0", "--beta0-max", "1", "--points", "2")


# MISSING_FILE and ARRAY_FILE stand for a path that does not exist and a
# file that holds the JSON text [1].
@pytest.mark.parametrize("argv, message", [
    (("osc-spectrum", "--profile", "MISSING_FILE") + SPECTRUM_GRID,
     "error: cannot read profile file 'MISSING_FILE'"),
    (("osc-spectrum", "--profile", SIN_PROFILE, "--beta0-min", "abc", "--beta0-max", "1",
      "--points", "2"), "error: argument --beta0-min: expected a finite number, got 'abc'"),
    (("step-floquet", "--pattern", '{"foo": 1}'),
     "error: missing field 'steps' in the step pattern"),
    (("step-floquet", "--pattern", '{"steps": [1]}'),
     "error: field 'steps'[0] must be an object"),
    (("step-floquet", "--pattern",
      step_pattern({"hamiltonian": [[1.0]], "duration": 1.0, "phase": 0.0})),
     "error: unexpected field 'phase' in 'steps'[0]"),
    (("step-floquet", "--pattern", step_pattern({"duration": 1.0})),
     "error: field 'steps'[0] needs 'hamiltonian' and 'duration'"),
    (("step-floquet", "--pattern", step_pattern({"hamiltonian": [], "duration": 1.0})),
     "error: field 'steps'[0].hamiltonian must be a matrix"),
    (("step-floquet", "--pattern",
      step_pattern({"hamiltonian": [[1.0, 0.0], [0.0]], "duration": 1.0})),
     "error: field 'steps'[0].hamiltonian must be square"),
    (("step-floquet", "--pattern", json.dumps({"steps": [
        {"hamiltonian": [[0, 1], [0, 0]], "duration": 1},
        {"hamiltonian": [[1, 0], [0, -1]], "duration": True}]})),
     "error: invalid step pattern: step 1: duration must be positive and finite"),
    (("spin-spectrum", "--mu", "0", "--omega", "1", "--points", "3"),
     "error: field 'mu' must be nonzero for a ratio sweep"),
    (("spin-spectrum", "--mu", "1", "--B", "5", "--omega", "1", "--points", "2",
      "--ratio-max", "1"), "error: option --B applies only to a single point"),
    (("spin-spectrum", "--mu", "1", "--B", "0.5", "--omega", "1", "--ratio-min", "1"),
     "error: option --ratio-min applies only to a sweep"),
    (("spin-spectrum", "--mu", "1", "--B", "0.5", "--omega", "1", "--ratio-max", "1"),
     "error: option --ratio-max applies only to a sweep"),
    (("osc-trajectory", "--profile", SIN_PROFILE, "--t-end", "-1"),
     "error: t_end must not precede t_start"),
    (("osc-spectrum", "--profile", "ARRAY_FILE") + SPECTRUM_GRID,
     "error: profile must be a JSON object"),
    (("osc-spectrum", "--profile", '{"kind": "constant", "beta0": 1.0, "omega": -2}')
     + SPECTRUM_GRID, "error: field 'omega' must be positive"),
    (("planar-loop", "--beta0", "0.78539", "--beta1", "0.94595",
      "--omega", "6.283185307179586", "--periods", "24", "--tol", "-1"),
     "error: tol must be positive and finite, got -1.0"),
    (("osc-spectrum", "--profile", '{"kind": "constant", "beta0": 1.0, "period": 0}')
     + SPECTRUM_GRID, "error: field 'period' must be positive"),
], ids=["unreadable-profile", "beta0-min-text", "pattern-without-steps", "step-not-object",
        "step-extra-key", "step-without-hamiltonian", "empty-hamiltonian", "ragged-hamiltonian",
        "non-hermitian-then-bool-duration",
        "spin-sweep-zero-mu", "spin-sweep-with-B", "spin-point-with-ratio-min",
        "spin-point-with-ratio-max", "negative-t-end", "profile-file-not-object",
        "constant-negative-omega", "negative-tol", "constant-zero-period"])
def test_configuration_error_exits_2_naming_the_field(argv, message, tmp_path, capsys):
    files = {"MISSING_FILE": str(tmp_path / "missing.json"),
             "ARRAY_FILE": str(tmp_path / "array.json")}
    Path(files["ARRAY_FILE"]).write_text("[1]")
    argv = [files.get(arg, arg) for arg in argv]
    for token, path in files.items():
        message = message.replace(token, path)
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("bound, value", [("--ratio-min", "0"), ("--ratio-max", "-1")])
def test_spin_spectrum_non_positive_ratio_bound_exits_2_naming_it(bound, value, capsys):
    code = run_cli("spin-spectrum", "--mu", "1", "--omega", "1", "--points", "3", bound, value)
    assert code == 2
    assert bound in capsys.readouterr().err


def test_spin_spectrum_defaults_of_a_point_and_of_a_sweep(capsys):
    assert run_cli("spin-spectrum", "--mu", "1", "--omega", "1", "--steps", "64") == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,0"
    assert run_cli("spin-spectrum", "--mu", "1", "--omega", "1", "--points", "2",
                   "--steps", "64") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.001", "1000"]


@pytest.mark.parametrize("argv", [
    ("osc-trajectory", "--profile", '{"kind":"constant","beta0":1e300}', "--t-end", "1e10",
     "--samples", "2"),
    ("stability-scan", "--omega", "1e300", "--alpha-min", "1e10", "--alpha-max", "1e11",
     "--points", "2"),
    ("planar-loop", "--beta0", "1e300", "--beta1", "1e300", "--omega", str(TWO_PI),
     "--periods", "24"),
    ("osc-spectrum", "--profile", '{"kind":"steps","steps":[[1e10,0.5],[0,0.5]]}',
     "--beta0-min", "0", "--beta0-max", "1e300", "--points", "2"),
    ("planar-loop", "--beta0", "0.785", "--beta1", "1.75e308", "--omega", str(TWO_PI),
     "--periods", "24", "--polish", "--steps", "64"),
    ("osc-loop-find", "--profile", '{"kind":"steps","steps":[[1e300,1],[1e-300,1],[1e300,1]]}',
     "--angle", "1.0", "--bracket", "0.5", "1"),
    ("step-floquet", "--pattern",
     '{"steps":[{"hamiltonian":[[1e300,0],[0,-1e300]],"duration":1e10}]}'),
])
def test_non_finite_result_exits_3_without_output(argv, tmp_path, capsys, recwarn):
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err
    out = tmp_path / "result"
    assert run_cli(*argv, "-o", str(out)) == 3
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflowing_sweep_monodromy_exits_3_without_warning(capsys, recwarn):
    # The outer steps of the monodromy multiply to ~1e600 while every input
    # number is finite.
    profile = '{"kind":"steps","steps":[[1e300,1],[1e-300,1],[1e300,1]]}'
    code = run_cli("osc-spectrum", "--profile", profile, "--beta0-min", "1",
                   "--beta0-max", "1", "--points", "1")
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: result is not finite: the monodromy overflows\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _writer_table():
    special = [-0.0, 0.0, 5e-324, 1e-300, 1e16, 123456789012.5, 2.0]
    normals = np.random.default_rng(10).standard_normal(41)
    return np.concatenate([special, -np.array(special), normals]).reshape(-1, 5)


def test_array_and_row_tables_render_the_same_text():
    header = ("a", "b", "c", "d", "e")
    table = _writer_table()
    text = cli._render((header, table))
    assert text == cli._render((header, table.tolist()))
    assert text.splitlines()[1] == "-0,0,4.94065645841e-324,1e-300,1e+16"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_array_and_row_tables_reject_the_same_first_non_finite_cell(value):
    table = _writer_table()
    table[3, 2] = value
    table[5, 0] = math.nan
    messages = []
    for rows in (table, table.tolist()):
        with pytest.raises(FloatingPointError) as excinfo:
            cli._render((("a", "b", "c", "d", "e"), rows))
        messages.append(str(excinfo.value))
    assert messages == [f"result is not finite: {value}"] * 2


def test_json_report_rejects_a_non_finite_value():
    with pytest.raises(FloatingPointError, match="^result is not finite$"):
        cli._render({"x": math.inf})


def test_run_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["floqtools", "osc-spectrum", "--profile",
                                      '{"kind": "sin", "beta0": 1.0}', *SPECTRUM_GRID])
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("profile", [
    SIN_PROFILE,
    '{"kind": "steps", "steps": [[1.7, 0.3], [-0.4, 0.45], [0.9, 0.25]]}',
])
def test_osc_trajectory_prints_the_classical_trajectory(profile, tmp_path, capsys):
    argv = ("osc-trajectory", "--profile", profile, "--q0", "0.3", "--p0", "-1.2",
            "--t-end", "7.5", "--samples", "300")
    assert run_cli(*argv) == 0
    printed = capsys.readouterr().out
    path = floqtools.classical_trajectory(floqtools.profile_from_json(profile), (0.3, -1.2),
                                          7.5, 300)
    assert printed == "t,q,p\n" + "".join(
        ",".join(map(cli._fmt, row)) + "\n" for row in path.tolist())
    out = tmp_path / "path.csv"
    assert run_cli(*argv, "-o", str(out)) == 0
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv", [
    ("osc-spectrum", "--profile", SIN_PROFILE, "--beta0-min", "0", "--beta0-max", "3",
     "--points", "4", "--steps", "256"),
    ("osc-loop-find", "--profile", CONST_PROFILE, "--bracket", "1", "2", "--steps", "256"),
    ("osc-trajectory", "--profile", SIN_PROFILE, "--t-end", "2", "--samples", "8"),
    ("planar-loop", "--beta0", "0.78539", "--beta1", "0.94595", "--omega", str(TWO_PI),
     "--periods", "24", "--steps", "512"),
    ("stability-scan", "--omega", str(TWO_PI), "--points", "3", "--steps", "256"),
    ("spin-spectrum", "--mu", "1", "--B", "0.5", "--omega", "1", "--steps", "256"),
    ("step-floquet", "--pattern", TWO_STEP_PATTERN),
    ("fields-probe", "--amplitude", "1", "--omega", "1", "--x", "0.1", "0", "0"),
])
def test_stdout_and_output_file_get_the_same_bytes(argv, tmp_path, capsys):
    assert run_cli(*argv) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "result"
    assert run_cli(*argv, "-o", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert printed and out.read_bytes() == printed


def test_threshold_zero_omega_exits_2_naming_it(capsys):
    code = run_cli("stability-scan", "--omega", "0", "--find-threshold")
    assert code == 2
    assert "omega" in capsys.readouterr().err


def test_spin_spectrum_zero_omega_exits_2_naming_it(capsys):
    code = run_cli("spin-spectrum", "--mu", "1", "--B", "1", "--omega", "0")
    assert code == 2
    assert "omega" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (("--mu", "1", "--B", "1", "--omega", "1e-310"), 2,
     "omega must give a finite period 2 pi / omega"),
    (("--mu", "1e300", "--B", "1e300", "--omega", "1"), 3,
     "result is not finite: a drive amplitude overflows"),
    (("--mu", "1e300", "--B", "1e300", "--omega", "1", "--steps", "64"), 3,
     "result is not finite: a drive amplitude overflows"),
    # mu B is finite, but the sampled Hamiltonian (1e308) or a step exponent
    # H dt (1e307) is not.
    (("--mu", "1e200", "--B", "1e108", "--omega", "1e-3", "--steps", "64"), 3,
     "result is not finite"),
    (("--mu", "1e200", "--B", "1e107", "--omega", "1e-3", "--steps", "64"), 3,
     "result is not finite"),
    # Every step is unitary, but the rounding of 2^19 of them is not.
    (("--mu", "1", "--B", "1000", "--omega", "1", "--steps", "524288"), 3,
     "the product of 524288 steps drifts from unitary (defect "),
    # The automatic step rule would ask for 2.5e11 steps (1.85 TiB).
    (("--mu", "1", "--B", "1e9", "--omega", "1e-3"), 2,
     "mu B / omega = 1e+12 needs 253988980741 steps per period"),
])
def test_spin_spectrum_overflow_fails_cleanly(argv, code, message, capsys, recwarn):
    assert run_cli("spin-spectrum", *argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_profile_number_exits_2_naming_it(capsys):
    code = run_cli("osc-spectrum", "--profile", '{"kind": "sin", "beta0": NaN, "omega": 1}',
                   "--beta0-min", "0", "--beta0-max", "1", "--points", "3")
    assert code == 2
    assert "'beta0'" in capsys.readouterr().err


def test_non_finite_pattern_entry_exits_2(capsys):
    pattern = '{"steps": [{"hamiltonian": [[NaN, 0], [0, 1]], "duration": 1}]}'
    code = run_cli("step-floquet", "--pattern", pattern)
    assert code == 2
    assert "hamiltonian" in capsys.readouterr().err


def test_osc_spectrum_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = run_cli("osc-spectrum", "--profile", SIN_PROFILE,
                       "--beta0-min", "0", "--beta0-max", "4", "--points", "9",
                       "--steps", "512", "-o", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "beta0,trace,stability,omega_F"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[2] == "parabolic"


def test_osc_spectrum_profile_from_file(tmp_path):
    profile_path = tmp_path / "sin.json"
    profile_path.write_text(SIN_PROFILE)
    out = tmp_path / "scan.csv"
    code = run_cli("osc-spectrum", "--profile", str(profile_path),
                   "--beta0-min", "2", "--beta0-max", "2.5", "--points", "3",
                   "--steps", "1024", "-o", str(out))
    assert code == 0
    assert out.read_text().startswith("beta0,trace,stability,omega_F\n")


def test_osc_loop_find_constant_family(tmp_path):
    out = tmp_path / "loop.json"
    code = run_cli("osc-loop-find", "--profile", CONST_PROFILE,
                   "--bracket", "1.0", "2.0", "-o", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["beta0_star"] == pytest.approx(math.pi / 2, abs=1e-6)
    assert report["loop_order"] == 4
    assert report["loop_deviation"] < 1e-6


def test_osc_trajectory_csv(tmp_path):
    out = tmp_path / "path.csv"
    code = run_cli("osc-trajectory", "--profile", CONST_PROFILE,
                   "--q0", "1", "--p0", "0", "--t-end", "2.0",
                   "--samples", "16", "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,q,p"
    assert len(lines) == 18


def exact_steps_state(steps, t, q, p):
    """(q, p) at time t from one closed-form rotation per constant piece."""
    start = 0.0
    while True:
        for beta, tau in steps:
            dt = min(tau, t - start)
            c, s = math.cos(beta * dt), math.sin(beta * dt)
            q, p = c * q + s / beta * p, -beta * s * q + c * p
            start += tau
            if start >= t:
                return q, p


def test_osc_trajectory_keeps_steps_ending_next_to_a_period_boundary(tmp_path):
    # A sample interval here ends one ulp below a period boundary, right
    # after t = 17.41; all of it must still be integrated.
    steps = [[2.0289493259295535, 0.469875758173911],
             [0.5847306262912656, 0.4282258391809993],
             [0.9669841983845213, 0.2634220135946851]]
    out = tmp_path / "path.csv"
    code = run_cli("osc-trajectory", "--profile", json.dumps({"kind": "steps", "steps": steps}),
                   "--t-end", "25.330642892854875", "--samples", "400", "-o", str(out))
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    exact = np.array([exact_steps_state(steps, t, 1.0, 0.0) for t in rows[:, 0]])
    late = rows[:, 0] > 17.41
    assert late.sum() > 100
    assert np.abs(rows[:, 1:] - exact).max() < 1e-9


def test_planar_loop_report(tmp_path, monodromy_calls):
    out = tmp_path / "loop.json"
    code = run_cli("planar-loop", "--beta0", "0.78539", "--beta1", "0.94595",
                   "--omega", str(TWO_PI), "--periods", "24", "-o", str(out))
    assert code == 0
    assert len(monodromy_calls) == 1
    report = json.loads(out.read_text())
    assert report["is_loop"] is True
    assert report["deviation"] < 1e-2
    assert abs(report["theta"] - 6 * math.pi) < 1e-3


def test_planar_loop_polish(tmp_path, monodromy_calls):
    out = tmp_path / "loop.json"
    code = run_cli("planar-loop", "--beta0", str(math.pi / 4), "--beta1", "0.94595",
                   "--omega", str(TWO_PI), "--periods", "24", "--polish",
                   "-o", str(out))
    assert code == 0
    assert len(monodromy_calls) <= 10
    report = json.loads(out.read_text())
    assert abs(report["beta1_polished"] - 0.94595) < 1e-3
    assert report["polished_deviation"] < 1e-6


def test_stability_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli("stability-scan", "--omega", str(TWO_PI),
                   "--alpha-min", "0.1", "--alpha-max", "0.9", "--points", "5",
                   "--steps", "1024", "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,trace,stable"
    values = [line.split(",") for line in lines[1:]]
    assert values[0][2] == "true"
    assert values[-1][2] == "false"


def test_stability_scan_threshold_mode(tmp_path):
    out = tmp_path / "threshold.json"
    code = run_cli("stability-scan", "--omega", str(TWO_PI), "--find-threshold",
                   "-o", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["alpha_star"] == pytest.approx(0.5735, abs=5e-4)


def test_spin_spectrum_single_point(tmp_path):
    out = tmp_path / "spin.csv"
    code = run_cli("spin-spectrum", "--mu", "1", "--B", "0", "--omega", "1",
                   "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "muB_over_homega,deltaE_formula,deltaE_numeric"
    ratio, formula, numeric = (float(v) for v in lines[1].split(","))
    assert ratio == 0.0
    assert formula == 0.0
    assert abs(numeric) < 1e-10


def test_spin_spectrum_sweep(tmp_path):
    out = tmp_path / "spin.csv"
    code = run_cli("spin-spectrum", "--mu", "1", "--omega", "1",
                   "--points", "3", "--ratio-min", "0.1", "--ratio-max", "10",
                   "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        ratio, formula, numeric = (float(v) for v in line.split(","))
        expected = spin_quasienergy_spacing(SpinParams(1.0, ratio, 1.0))
        assert formula == pytest.approx(expected, rel=1e-12)
        assert numeric == pytest.approx(formula, abs=1e-7)


def test_step_floquet_lines(tmp_path):
    out = tmp_path / "lines.csv"
    code = run_cli("step-floquet", "--pattern", TWO_STEP_PATTERN, "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "line_kind,energy"
    table = {}
    for line in lines[1:]:
        kind, energy = line.split(",")
        table.setdefault(kind, []).append(float(energy))
    assert table["instantaneous_1"] == pytest.approx([-0.5, 0.5])
    assert table["instantaneous_2"] == pytest.approx([-1.5, 1.5])
    # commuting two-step pattern: average generator diag(1, -1), zone pi
    assert table["floquet"] == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_step_floquet_rejects_bad_pattern(capsys, recwarn):
    code = run_cli("step-floquet", "--pattern", '{"steps": []}')
    assert code == 2
    assert "steps" in capsys.readouterr().err
    # H - H^dag would overflow; the defect is measured on the halves.
    pattern = '{"steps":[{"hamiltonian":[[0,1e308],[-1e308,0]],"duration":1}]}'
    assert run_cli("step-floquet", "--pattern", pattern) == 2
    assert "matrix is not Hermitian (defect inf)" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("duration, message", [
    ("true", "invalid step pattern: step 0: duration must be positive and finite"),
    ('"2"', "invalid step pattern: step 0: duration must be positive and finite"),
    ("-1", "invalid step pattern: step 0: duration must be positive and finite"),
    ("1" + "0" * 5000, "invalid pattern JSON: Exceeds the limit"),
], ids=["bool", "string", "negative", "5001-digits"])
def test_step_floquet_bad_duration_exits_2_naming_it(duration, message, capsys):
    pattern = '{"steps": [{"hamiltonian": [[1, 0], [0, -1]], "duration": %s}]}' % duration
    assert run_cli("step-floquet", "--pattern", pattern) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_step_floquet_of_a_near_overflow_hamiltonian_succeeds(capsys, recwarn):
    # H + H^dag would overflow; the symmetrized H is formed from the halves.
    pattern = '{"steps":[{"hamiltonian":[[1e308,1e308],[1e308,-1e308]],"duration":1}]}'
    assert run_cli("step-floquet", "--pattern", pattern) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["instantaneous_1,-1.41421356237e+308",
                          "instantaneous_1,1.41421356237e+308"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_fields_probe_rotating(tmp_path):
    out = tmp_path / "probe.json"
    code = run_cli("fields-probe", "--amplitude", "1.0", "--omega", str(TWO_PI),
                   "--x", "0", "0", "0", "--t", "0.25", "-o", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["vector_potential"] == pytest.approx([0.0, 0.0, 0.0])
    expected = TWO_PI * np.array([math.cos(TWO_PI * 0.25), 0.0, math.sin(TWO_PI * 0.25)])
    assert report["magnetic_field_fd"] == pytest.approx(list(expected), abs=1e-7)
    assert report["magnetic_field_nodal"] == pytest.approx(list(expected), abs=1e-12)


def test_fields_probe_standing_mode(tmp_path):
    out = tmp_path / "probe.json"
    code = run_cli("fields-probe", "--amplitude", "2.0", "--omega", "1.0",
                   "--x", "0", "0", "0", "--t", "0.5", "--mode", "standing",
                   "-o", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["magnetic_field_fd"] == pytest.approx(
        report["magnetic_field_nodal"], abs=1e-7)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, message", [
    (("--amplitude", "1", "--omega", "1e200", "--light-speed", "1e-200", "--x", "1", "0", "0"),
     2, "omega and light_speed must give a finite wavenumber omega / light_speed, "
        "got 1e+200 / 1e-200"),
    (("--amplitude", "1", "--omega", "1", "--x", "1e308", "1e308", "0", "--h", "1e308"), 3,
     "result is not finite: the trap field overflows"),
    (("--amplitude", "1e308", "--omega", "1e10", "--x", "0.1", "0.2", "0.3", "--t", "0.3"), 3,
     "result is not finite: the trap field overflows"),
    (("--amplitude", "1", "--omega", "1e10", "--x", "0.1", "0.2", "0.3", "--t", "1e300"), 3,
     "result is not finite: the trap field overflows"),
    (("--amplitude", "1", "--omega", "1e10", "--x", "0.1", "0.2", "0.3", "--t", "1e300",
      "--mode", "standing"), 3, "result is not finite: the trap field overflows"),
], ids=["wavenumber", "fd-offset", "amplitude", "phase", "phase-standing"])
def test_fields_probe_overflow_fails_cleanly(argv, code, message, capsys):
    assert run_cli("fields-probe", *argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_osc_loop_find_reports_no_loop_for_a_huge_angle(capsys):
    # cos(1e20) = 0.764: the reached angle closes no loop.
    assert run_cli("osc-loop-find", "--profile", SIN_PROFILE, "--angle", "1e20",
                   "--bracket", "0.5", "3.0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["loop_order"] is None
    assert "loop_deviation" not in report


def test_planar_loop_polish_does_not_settle_on_a_stability_boundary(capsys):
    # The nearest multiple of 2 pi / 4 to this radial angle (0.13) is 0, where
    # tr M = 2 and M is a shear; the one allowed target, pi / 2, lies outside
    # the 5% bracket.
    argv = ["planar-loop", "--beta0", "0", "--beta1", "7.2", "--omega", str(TWO_PI),
            "--periods", "4", "--polish"]
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "loop angle crossing" in captured.err
    argv[argv.index("4")] = "2"
    assert run_cli(*argv) == 2
    assert "n_periods" in capsys.readouterr().err


SRC = str(Path(floqtools.__file__).resolve().parents[1])


def fresh_python(code, *args):
    """Run code in a new interpreter that imports floqtools from this tree."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def test_importing_the_cli_loads_scipy_only_when_a_root_search_runs():
    probe = fresh_python(
        "import sys\n"
        "def loaded(): return sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
        "import floqtools\n"
        "print(loaded())\n"
        "import floqtools.cli\n"
        "print(loaded())\n"
        "floqtools.cli.main(sys.argv[1:])\n"
        "print('scipy.optimize' in sys.modules)\n",
        "osc-loop-find", "--profile", CONST_PROFILE, "--bracket", "1", "2", "--steps", "64")
    assert probe.returncode == 0, probe.stderr
    lines = probe.stdout.splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert lines[-1] == "True"


def test_calls_in_one_process_match_fresh_interpreters_and_share_one_parser(
        tmp_path, monkeypatch, capsys):
    # argparse wraps its messages to the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    calls = [
        ("osc-spectrum", "--profile", SIN_PROFILE, "--beta0-min", "0", "--beta0-max", "1",
         "--points", "0"),
        ("osc-spectrum", "--profile", SIN_PROFILE, "--beta0-min", "0", "--beta0-max", "3",
         "--points", "4", "--steps", "256", "-o", "{out}"),
        ("stability-scan", "--omega", str(TWO_PI), "--find-threshold"),
        ("osc-loop-find", "--profile", CONST_PROFILE, "--bracket", "1", "2"),
    ]
    codes = []
    for i, argv in enumerate(calls):
        outputs = []
        for side in ("in-process", "fresh"):
            out = tmp_path / f"{side}-{i}.csv"
            args = [str(out) if arg == "{out}" else arg for arg in argv]
            if side == "fresh":
                proc = fresh_python("import sys\nfrom floqtools import cli\n"
                                    "sys.exit(cli.main(sys.argv[1:]))", *args)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            else:
                try:
                    code = cli.main(args)
                except SystemExit as exc:
                    code = exc.code
                stdout, stderr = capsys.readouterr()
            outputs.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
        assert outputs[0] == outputs[1], argv
        codes.append(outputs[0][0])
    assert codes == [2, 0, 0, 0]
    assert len(builds) == 1
