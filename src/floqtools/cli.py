"""Command-line interface: spectra sweeps, loop searches, and field probes.

All commands emit CSV or JSON data suitable for external plotting; output is
deterministic byte for byte for identical invocations. Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical failures such as a
root bracket without a sign change or a result that is not finite.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from . import fields, hill, planar_charge, spin_resonance
from ._linops import TWO_PI, default_steps, is_finite_number, raise_on_overflow
from .profiles import (
    DriveProfile,
    ProfileError,
    beta_period_integral,
    profile_from_json,
    with_amplitude,
)
from .propagator import StepPattern, quasienergies, step_propagator


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise FloatingPointError(f"result is not finite: {value}")
        return format(value, ".12g")
    return str(value)


def _render(result):
    """Output text of a command: JSON for a dict, CSV for a (header, rows) pair.

    rows is a sequence of rows, each cell formatted by _fmt, or a 2-d float
    array, formatted with the one "%.12g" that _fmt gives a float (the same
    CPython routine) in a single string operation once the whole table is
    known to be finite. Raises FloatingPointError when the result holds a
    non-finite number; for a table it names the first one in row order.
    """
    if isinstance(result, dict):
        try:
            return json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            raise FloatingPointError("result is not finite") from None
    header, rows = result
    if isinstance(rows, np.ndarray):
        finite = np.isfinite(rows)
        if not finite.all():
            _fmt(float(rows[~finite][0]))  # raises the row route's message
        n_rows, n_cols = rows.shape
        line = ",".join(["%.12g"] * n_cols) + "\n"
        return ",".join(header) + "\n" + line * n_rows % tuple(rows.ravel().tolist())
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_json_source(value, what):
    """Accept inline JSON or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith("{"):
        try:
            with open(value) as handle:
                text = handle.read()
        except OSError as exc:
            raise ProfileError(f"cannot read {what} file {value!r}: {exc}") from None
    return text


def _load_profile(value):
    return profile_from_json(_load_json_source(value, "profile"))


def _finite_float(text):
    """argparse type for float options: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text):
    """argparse type for counts: the value must be an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load_pattern(value):
    """Step-pattern JSON: {"steps": [{"hamiltonian": [[...]], "duration": tau}, ...]}.

    Matrix entries are numbers or [re, im] pairs; StepPattern checks the
    durations, Hermiticity and the dimensions. One pass checks the structure
    and each entry, and one np.array converts the entries of all steps.
    """
    text = _load_json_source(value, "pattern")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number of over 4300 digits
        raise ProfileError(f"invalid pattern JSON: {exc}") from None
    if not isinstance(obj, dict) or "steps" not in obj:
        raise ProfileError("missing field 'steps' in the step pattern")
    raw_steps = obj["steps"]
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ProfileError("field 'steps' must be a non-empty list")
    pairs, steps = [], []
    for i, entry in enumerate(raw_steps):
        if not isinstance(entry, dict):
            raise ProfileError(f"field 'steps'[{i}] must be an object")
        for key in entry:
            if key not in ("hamiltonian", "duration"):
                raise ProfileError(f"unexpected field {key!r} in 'steps'[{i}]")
        if "hamiltonian" not in entry or "duration" not in entry:
            raise ProfileError(f"field 'steps'[{i}] needs 'hamiltonian' and 'duration'")
        rows = entry["hamiltonian"]
        if not isinstance(rows, list) or not rows:
            raise ProfileError(f"field 'steps'[{i}].hamiltonian must be a matrix")
        steps.append((len(pairs), len(rows), entry["duration"]))
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(rows):
                raise ProfileError(f"field 'steps'[{i}].hamiltonian must be square")
            for v in row:
                pair = v if type(v) is list and len(v) == 2 else (v, 0.0)
                if not (is_finite_number(pair[0]) and is_finite_number(pair[1])):
                    raise ProfileError(f"field 'steps'[{i}].hamiltonian[{r}] must be a finite "
                                       "number or an [re, im] pair")
                pairs.append(pair)
    flat = np.array(pairs, dtype=float).view(complex)[:, 0]  # the (re, im) of each entry
    try:
        return StepPattern(tuple((flat[k:k + d * d].reshape(d, d), tau) for k, d, tau in steps))
    except ValueError as exc:
        raise ProfileError(f"invalid step pattern: {exc}") from None


def _cmd_osc_spectrum(args):
    profile = _load_profile(args.profile)
    grid = np.linspace(args.beta0_min, args.beta0_max, args.points)
    rows = hill.omega_F_scan(lambda b: with_amplitude(profile, b), grid, args.steps)
    return ("beta0", "trace", "stability", "omega_F"), rows


def _cmd_osc_loop_find(args):
    profile = _load_profile(args.profile)
    family = lambda b: with_amplitude(profile, b)  # noqa: E731
    beta0 = hill.find_loop_beta(family, args.angle, tuple(args.bracket), args.steps)
    order = hill.loop_order_for_angle(args.angle)
    report = {
        "beta0_star": beta0,
        "target_angle": args.angle,
        "loop_order": order,
    }
    if order is not None:
        report["loop_deviation"] = hill.loop_deviation(
            hill.monodromy(family(beta0), args.steps), order)
    return report


def _cmd_osc_trajectory(args):
    profile = _load_profile(args.profile)
    path = hill.classical_trajectory(profile, (args.q0, args.p0), args.t_end,
                                     args.samples)
    return ("t", "q", "p"), path


def _cmd_planar_loop(args):
    profile = DriveProfile.offset_sinusoid(args.beta0, args.beta1, args.omega)
    is_loop, deviation = planar_charge.planar_loop_check(
        profile, args.periods, args.tol, args.steps)
    theta = args.periods * beta_period_integral(profile)
    report = {
        "beta0": args.beta0,
        "beta1": args.beta1,
        "omega": args.omega,
        "periods": args.periods,
        "deviation": deviation,
        "is_loop": is_loop,
        "theta": theta,
        "theta_mod_2pi": theta % TWO_PI,
    }
    if args.polish:
        beta1_star = planar_charge.polish_loop_beta1(
            args.beta0, args.beta1, args.omega, args.periods, args.steps)
        polished = DriveProfile.offset_sinusoid(args.beta0, beta1_star, args.omega)
        _, polished_dev = planar_charge.planar_loop_check(
            polished, args.periods, args.tol, args.steps)
        report["beta1_polished"] = beta1_star
        report["polished_deviation"] = polished_dev
    return report


def _cmd_stability_scan(args):
    if args.find_threshold:
        alpha_star = planar_charge.stability_threshold(
            args.omega, tuple(args.bracket), args.steps)
        return {"alpha_star": alpha_star, "omega": args.omega}
    grid = np.linspace(args.alpha_min, args.alpha_max, args.points)
    family = planar_charge.stability_family(args.omega)
    rows = [(alpha, trace, stability != hill.HYPERBOLIC)
            for alpha, trace, stability, _ in hill.omega_F_scan(family, grid, args.steps)]
    return ("alpha", "trace", "stable"), rows


def _cmd_spin_spectrum(args):
    if args.points is None:
        for option, bound in ("--ratio-min", args.ratio_min), ("--ratio-max", args.ratio_max):
            if bound is not None:
                raise ProfileError(f"option {option} applies only to a sweep (--points)")
        b_field = 0.0 if args.B is None else args.B
        params = spin_resonance.SpinParams(args.mu, b_field, args.omega)
        points = [(abs(args.mu * b_field) / args.omega, params)]
    else:
        if args.B is not None:
            raise ProfileError("option --B applies only to a single point, not to a sweep")
        if args.mu == 0:
            raise ProfileError("field 'mu' must be nonzero for a ratio sweep")
        ratio_min = 1e-3 if args.ratio_min is None else args.ratio_min
        ratio_max = 1e3 if args.ratio_max is None else args.ratio_max
        for option, bound in ("--ratio-min", ratio_min), ("--ratio-max", ratio_max):
            if not bound > 0:
                raise ProfileError(f"option {option} must be positive, got {bound:g}")
        ratios = np.logspace(math.log10(ratio_min), math.log10(ratio_max), args.points)
        points = [(ratio, spin_resonance.SpinParams(
            args.mu, ratio * args.omega / abs(args.mu), args.omega)) for ratio in ratios]
    rows = [(float(ratio),
             spin_resonance.spin_quasienergy_spacing(params),
             spin_resonance.spin_spacing_from_propagator(params, args.steps))
            for ratio, params in points]
    return ("muB_over_homega", "deltaE_formula", "deltaE_numeric"), rows


def _cmd_step_floquet(args):
    pattern = _load_pattern(args.pattern)
    # StepPattern has checked and symmetrized every matrix.
    levels = np.linalg.eigvalsh(pattern.hamiltonians)
    rows = [(f"instantaneous_{i + 1}", float(energy))
            for i, step_levels in enumerate(levels) for energy in step_levels]
    spectrum = quasienergies(step_propagator(pattern), pattern.period)
    rows += [("floquet", float(energy)) for energy in spectrum.values]
    return ("line_kind", "energy"), rows


def _cmd_fields_probe(args):
    trap = fields.TrapField(args.amplitude, args.omega, args.light_speed)
    x = np.asarray(args.x, dtype=float)
    vector_potential, nodal_field = {
        "rotating": (fields.vector_potential_rotating, fields.rotating_nodal_field),
        "standing": (fields.vector_potential_standing, fields.standing_nodal_field)}[args.mode]
    with raise_on_overflow("the trap field overflows"):
        potential = vector_potential(trap, x, args.t)
        limit = nodal_field(trap, args.t)
        fd = fields.magnetic_field_fd(functools.partial(vector_potential, trap),
                                      x, args.t, args.h)
    return {
        "mode": args.mode,
        "x": list(map(float, x)),
        "t": args.t,
        "vector_potential": list(map(float, potential)),
        "magnetic_field_fd": list(map(float, fd)),
        "magnetic_field_nodal": list(map(float, limit)),
        "h": args.h,
    }


def _add_steps(parser, default=None):
    default = default_steps() if default is None else default
    parser.add_argument("--steps", type=int, default=None,
                        help=f"integrator steps per period (default: {default})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="floqtools",
        description="Floquet spectra, stability charts, and evolution loops "
                    "of periodically driven systems.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("osc-spectrum", help="Floquet-frequency sweep of a drive family")
    p.add_argument("--profile", required=True, help="drive profile JSON (file or inline)")
    p.add_argument("--beta0-min", type=_finite_float, required=True)
    p.add_argument("--beta0-max", type=_finite_float, required=True)
    p.add_argument("--points", type=_positive_int, required=True)
    _add_steps(p)
    p.set_defaults(func=_cmd_osc_spectrum)

    p = sub.add_parser("osc-loop-find", help="amplitude where the Floquet angle hits a target")
    p.add_argument("--profile", required=True)
    p.add_argument("--angle", type=_finite_float, default=math.pi / 2,
                   help="target Floquet angle omega_F*T in radians (default pi/2)")
    p.add_argument("--bracket", type=_finite_float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    _add_steps(p)
    p.set_defaults(func=_cmd_osc_loop_find)

    p = sub.add_parser("osc-trajectory", help="phase-plane trajectory of the driven oscillator")
    p.add_argument("--profile", required=True)
    p.add_argument("--q0", type=_finite_float, default=1.0)
    p.add_argument("--p0", type=_finite_float, default=0.0)
    p.add_argument("--t-end", type=_finite_float, required=True)
    p.add_argument("--samples", type=_positive_int, default=1024)
    p.set_defaults(func=_cmd_osc_trajectory)

    p = sub.add_parser("planar-loop", help="loop check for the planar charge in an axial field")
    p.add_argument("--beta0", type=_finite_float, required=True)
    p.add_argument("--beta1", type=_finite_float, required=True)
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--periods", type=_positive_int, required=True)
    p.add_argument("--tol", type=_finite_float, default=1e-2)
    p.add_argument("--polish", action="store_true",
                   help="also refine beta1 onto the exact loop")
    _add_steps(p)
    p.set_defaults(func=_cmd_planar_loop)

    p = sub.add_parser("stability-scan", help="stability chart of the sinusoidally driven trap")
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--alpha-min", type=_finite_float, default=0.0)
    p.add_argument("--alpha-max", type=_finite_float, default=1.0)
    p.add_argument("--points", type=_positive_int, default=200)
    p.add_argument("--find-threshold", action="store_true",
                   help="locate the first stability boundary instead of scanning")
    p.add_argument("--bracket", type=_finite_float, nargs=2, default=(0.3, 0.8),
                   metavar=("LO", "HI"))
    _add_steps(p)
    p.set_defaults(func=_cmd_stability_scan)

    p = sub.add_parser("spin-spectrum", help="resonance spacing of the rotating-field spin")
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--B", type=_finite_float, default=None, help="single point only (default 0)")
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--points", type=_positive_int, default=None,
                   help="log-grid sweep of mu B / omega instead of a single point")
    p.add_argument("--ratio-min", type=_finite_float, default=None,
                   help="sweep only (default 1e-3)")
    p.add_argument("--ratio-max", type=_finite_float, default=None,
                   help="sweep only (default 1e3)")
    _add_steps(p, "max(1024, ceil(64 (|mu B| T)^0.75)) with T = 2 pi / omega, "
                  "at most 2^20; a count is rounded up to a multiple of 4")
    p.set_defaults(func=_cmd_spin_spectrum)

    p = sub.add_parser("step-floquet",
                       help="instantaneous vs Floquet lines of a step pattern")
    p.add_argument("--pattern", required=True,
                   help="step pattern JSON (file or inline)")
    p.set_defaults(func=_cmd_step_floquet)

    p = sub.add_parser("fields-probe", help="trap vector potential and its field")
    p.add_argument("--amplitude", type=_finite_float, required=True)
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--light-speed", type=_finite_float, default=1.0)
    p.add_argument("--x", type=_finite_float, nargs=3, required=True, metavar=("X", "Y", "Z"))
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--mode", choices=("rotating", "standing"), default="rotating")
    p.add_argument("--h", type=_finite_float, default=1e-5, help="finite-difference step")
    p.set_defaults(func=_cmd_fields_probe)

    for p in sub.choices.values():
        p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    return parser


@functools.cache
def _parser():
    """The parser of main, built on its first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        text = _render(args.func(args))
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (hill.NoRootError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
    return 0


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
