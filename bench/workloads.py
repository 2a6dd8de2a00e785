"""Seeded inputs for the four benchmark workloads and the checks on their outputs.

A workload is a fixed list of CLI operations (argv lists for
floqtools.cli.main) built from a seed. Each operation carries a checker that
compares its stdout with a reference from refs.py; joint checkers compare
the outputs of several operations with each other. A checker appends one
line per problem to a Report, and an empty report means the output is
correct. The seed changes the numbers in the inputs but not their shape
(grid sizes, sample counts, bracket widths), so the cost of a round of
operations does not depend on the seed.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs

TWO_PI = refs.TWO_PI
DEFAULT_STEPS = 4096      # the package's documented steps per period
LOOP_XTOL = 1e-8          # find_loop_beta's bisection tolerance
THRESHOLD_XTOL = 1e-6     # stability_threshold's bisection tolerance
LOOP_ANGLES = [(k, n) for n in range(3, 13) for k in range(1, (n + 1) // 2)
               if math.gcd(k, n) == 1 and 12 * k <= 5 * n]


class Report:
    """Problems found in one or more outputs, and the worst error/tolerance."""

    def __init__(self):
        self.problems = []
        self.worst = 0.0

    def close(self, what, got, want, tol):
        err = abs(got - want)
        if tol > 0 and math.isfinite(err):
            self.worst = max(self.worst, err / tol)
        if not err <= tol:
            self.problems.append(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")

    def require(self, ok, what):
        if not ok:
            self.problems.append(what)


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable  # (stdout text, Report) -> None


@dataclass
class Workload:
    ops: list
    joint: list = field(default_factory=list)  # [(op indices, (texts, Report) -> None)]


def _num(x):
    return repr(float(x))


def _csv(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(header):
        raise ValueError(f"expected CSV header {','.join(header)!r}")
    return [line.split(",") for line in lines[1:]]


def _table(text, header):
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if text.split("\n", 1)[0] != ",".join(header) or rows.shape[1] != len(header):
        raise ValueError(f"expected CSV columns {','.join(header)!r}")
    return rows


def _grid_column(rep, what, got, want):
    rep.require(len(got) == len(want), f"{what}: {len(got)} rows, want {len(want)}")
    for g, w in zip(got, want):
        rep.close(what, g, w, 1e-11 * max(1.0, abs(w)))


# ------------------------------------------------------------ stability rules

def _check_class(rep, where, trace, stability, omega_f, period):
    """The documented rule, applied to the program's own printed trace:
    parabolic within 1e-12 of |tr| = 2, elliptic inside, hyperbolic outside;
    omega_F solves cos(omega_F T) = tr / 2 on [0, pi] unless hyperbolic."""
    edge = abs(abs(trace) - 2.0)
    strict = "elliptic" if abs(trace) < 2.0 else "hyperbolic"
    allowed = {strict, "parabolic"} if edge <= 2e-11 else {strict}
    rep.require(stability in allowed, f"{where}: stability {stability!r} for trace {trace!r}")
    if stability == "hyperbolic":
        rep.require(omega_f == "", f"{where}: omega_F {omega_f!r} on a hyperbolic point")
        return
    w = float(omega_f)
    rep.require(-1e-12 <= w * period <= math.pi + 1e-12,
                f"{where}: omega_F T = {w * period!r} outside [0, pi]")
    rep.close(f"{where}: cos(omega_F T)", math.cos(w * period), 0.5 * trace, 1e-10)


def _check_stable(rep, where, trace, stable):
    want = abs(trace) <= 2.0
    if abs(abs(trace) - 2.0) <= 2e-11:
        rep.require(stable in ("true", "false"), f"{where}: stable {stable!r}")
    else:
        rep.require(stable == ("true" if want else "false"),
                    f"{where}: stable {stable!r} for trace {trace!r}")


# ------------------------------------------------------------ osc-sweep

def _sweep_op(kind, profile, lo, hi, points, reference, period, probe):
    """osc-spectrum over beta0 in [lo, hi]; `reference(beta0)` gives
    (trace, tolerance) and is evaluated at the grid indices in `probe`."""
    argv = ["osc-spectrum", "--profile", json.dumps(profile),
            "--beta0-min", _num(lo), "--beta0-max", _num(hi), "--points", str(points)]

    def check(text, rep):
        rows = _csv(text, ("beta0", "trace", "stability", "omega_F"))
        grid = np.linspace(lo, hi, points)
        _grid_column(rep, "beta0", [float(r[0]) for r in rows], grid)
        for i, (_, tr, stability, omega_f) in enumerate(rows):
            _check_class(rep, f"row {i}", float(tr), stability, omega_f, period)
        for i in probe:
            want, tol = reference(grid[i])
            rep.close(f"trace at beta0 = {grid[i]!r}", float(rows[i][1]), want, tol)

    return Op(f"osc-spectrum/{kind}", argv, check)


def _ivp_trace(beta, period, n_steps=DEFAULT_STEPS):
    fn, bmax, dbmax = beta
    m = refs.hill_flow(fn, period)
    tol = refs.midpoint_tol(bmax, dbmax, period / n_steps, period, np.abs(m).max())
    return float(np.trace(m)), tol


def osc_sweep(rng, small=False):
    """osc-spectrum charts over all four profile kinds plus stability-scan grids."""
    points = 24 if small else 400
    n_probe = 3 if small else 12
    ops = []

    def probe():
        return sorted(rng.choice(points, size=n_probe, replace=False).tolist())

    for _ in range(2):
        omega = TWO_PI * rng.uniform(0.8, 1.25)
        scale = omega / TWO_PI
        lo, hi = rng.uniform(0.0, 0.5) * scale, rng.uniform(7.5, 8.5) * scale
        ops.append(_sweep_op(
            "sin", {"kind": "sin", "beta0": 1.0, "omega": omega}, lo, hi, points,
            lambda b, omega=omega: _ivp_trace(refs.sin_beta(b, omega), TWO_PI / omega),
            TWO_PI / omega, probe()))
    for _ in range(2):
        omega = TWO_PI * rng.uniform(0.8, 1.25)
        scale = omega / TWO_PI
        beta1 = rng.uniform(0.5, 2.0) * scale
        lo, hi = -rng.uniform(0.0, 1.0) * scale, rng.uniform(6.0, 8.0) * scale
        ops.append(_sweep_op(
            "offset_sin", {"kind": "offset_sin", "beta0": 0.0, "beta1": beta1, "omega": omega},
            lo, hi, points,
            lambda b, omega=omega, beta1=beta1: _ivp_trace(
                refs.offset_sin_beta(b, beta1, omega), TWO_PI / omega),
            TWO_PI / omega, probe()))

    tau_on, tau_off = rng.uniform(0.3, 0.7, size=2)
    ops.append(_sweep_op(
        "steps", {"kind": "steps", "steps": [[1.0, tau_on], [0.0, tau_off]]},
        0.0, rng.uniform(10.0, 14.0), points,
        lambda b: (refs.rect_trace(b, tau_on, tau_off),
                   1e-10 * max(1.0, abs(refs.rect_trace(b, tau_on, tau_off)))),
        tau_on + tau_off, range(points)))

    period = rng.uniform(0.5, 2.0)
    ops.append(_sweep_op(
        "constant", {"kind": "constant", "beta0": 1.0, "period": period},
        0.0, rng.uniform(8.0, 12.0) / period, points,
        lambda b: (2.0 * math.cos(b * period), 1e-10), period, range(points)))

    for _ in range(2):
        ops.append(_scan_op(rng.uniform(1.0, 10.0), rng.uniform(0.0, 0.1),
                            rng.uniform(0.9, 1.0), points, probe()))
    return Workload(ops)


def _scan_op(omega, lo, hi, points, probe):
    argv = ["stability-scan", "--omega", _num(omega), "--alpha-min", _num(lo),
            "--alpha-max", _num(hi), "--points", str(points)]
    period = TWO_PI / omega

    def check(text, rep):
        rows = _csv(text, ("alpha", "trace", "stable"))
        grid = np.linspace(lo, hi, points)
        _grid_column(rep, "alpha", [float(r[0]) for r in rows], grid)
        for i, (_, tr, stable) in enumerate(rows):
            _check_stable(rep, f"row {i}", float(tr), stable)
        for i in probe:
            want, tol = _ivp_trace(refs.sin_beta(2.0 * grid[i] * omega, omega), period)
            rep.close(f"trace at alpha = {grid[i]!r}", float(rows[i][1]), want, tol)

    return Op("stability-scan/grid", argv, check)


# ------------------------------------------------------------ loop-search

def _loop_op(kind, profile, theta, n, root_bracket, check_root, flow_at):
    """osc-loop-find at target angle theta = 2 pi k / n.

    check_root(beta0_star, rep) checks the root itself; flow_at(beta0)
    returns the reference one-period flow and the tolerance on it, from
    which the loop deviation after n periods is recomputed.
    """
    argv = ["osc-loop-find", "--profile", json.dumps(profile), "--angle", _num(theta),
            "--bracket", _num(root_bracket[0]), _num(root_bracket[1])]

    def check(text, rep):
        out = json.loads(text)
        rep.require(set(out) == {"beta0_star", "target_angle", "loop_order", "loop_deviation"},
                    f"keys {sorted(out)}")
        beta = out["beta0_star"]
        check_root(beta, rep)
        rep.close("target_angle", out["target_angle"], theta, 1e-15 * theta)
        rep.require(out["loop_order"] == n, f"loop_order {out['loop_order']!r}, want {n}")
        m, tol = flow_at(beta)
        want = float(np.abs(np.linalg.matrix_power(m, n) - np.eye(2)).max())
        rep.close("loop_deviation", out["loop_deviation"], want, 4.0 * n * tol + 1e-11)

    return Op(f"osc-loop-find/{kind}", argv, check)


def _bracket(rng, root, width):
    u = rng.uniform(0.2, 0.8)
    return root - u * width, root + (1.0 - u) * width


def _angle(rng):
    k, n = LOOP_ANGLES[rng.integers(len(LOOP_ANGLES))]
    return TWO_PI * k / n, n


def loop_search(rng, small=False):
    """Root searches: osc-loop-find on constant, steps and sin drives,
    stability-scan --find-threshold, and planar-loop --polish."""
    reps = 1 if small else 3
    ops, joint = [], []

    for _ in range(reps):
        period = rng.uniform(0.8, 1.25)
        theta, n = _angle(rng)
        root = theta / period

        def check_root(beta, rep, root=root):
            rep.close("beta0_star", beta, root, 2.0 * LOOP_XTOL)

        ops.append(_loop_op(
            "constant", {"kind": "constant", "beta0": 1.0, "period": period}, theta, n,
            _bracket(rng, root, 0.25), check_root,
            lambda b, period=period: (refs.free_block(b, period), 1e-14)))

    for _ in range(reps):
        tau_on, tau_off = rng.uniform(0.4, 0.6, size=2)
        theta, n = _angle(rng)
        root = refs.first_trace_root(lambda b: refs.rect_trace(b, tau_on, tau_off),
                                     2.0 * math.cos(theta), 0.0, 8.0, n_scan=400)

        def check_root(beta, rep, root=root):
            rep.close("beta0_star", beta, root, 2.0 * LOOP_XTOL)

        ops.append(_loop_op(
            "steps", {"kind": "steps", "steps": [[1.0, tau_on], [0.0, tau_off]]}, theta, n,
            _bracket(rng, root, 0.25), check_root,
            lambda b, tau_on=tau_on, tau_off=tau_off: (
                refs.steps_flow([(b, tau_on), (0.0, tau_off)]), 1e-14)))

    for _ in range(reps):
        omega = TWO_PI * rng.uniform(0.8, 1.25)
        period = TWO_PI / omega
        theta, n = _angle(rng)
        goal = 2.0 * math.cos(theta)
        # The sin-drive trace depends on beta0 / omega alone.
        x_root = refs.first_trace_root(
            lambda x: float(np.trace(refs.hill_flow(refs.sin_beta(x, 1.0)[0], TWO_PI))),
            goal, 0.0, 0.62, n_scan=12)
        root = x_root * omega

        def flow_at(b, omega=omega, period=period):
            beta = refs.sin_beta(b, omega)
            m = refs.hill_flow(beta[0], period)
            return m, refs.midpoint_tol(beta[1], beta[2], period / DEFAULT_STEPS, period,
                                        np.abs(m).max())

        def check_root(beta, rep, omega=omega, period=period, goal=goal, flow_at=flow_at):
            m, tol = flow_at(beta)
            h = 1e-5
            up = np.trace(refs.hill_flow(refs.sin_beta(beta + h, omega)[0], period))
            down = np.trace(refs.hill_flow(refs.sin_beta(beta - h, omega)[0], period))
            slope = (up - down) / (2 * h)
            rep.close("reference trace at beta0_star", float(np.trace(m)), goal,
                      tol + 2.0 * LOOP_XTOL * abs(slope))

        ops.append(_loop_op(
            "sin", {"kind": "sin", "beta0": 1.0, "omega": omega}, theta, n,
            _bracket(rng, root, 0.25), check_root, flow_at))

    first = len(ops)
    for _ in range(reps):
        ops.append(_threshold_op(rng.uniform(1.0, 10.0), rng.uniform(0.25, 0.35)))
    joint.append((tuple(range(first, len(ops))), _check_threshold_spread))

    for _ in range(reps):
        ops.append(_planar_op(rng))
    return Workload(ops, joint)


def _threshold_op(omega, lo):
    argv = ["stability-scan", "--omega", _num(omega), "--find-threshold",
            "--bracket", _num(lo), _num(lo + 0.5)]
    period = TWO_PI / omega

    def check(text, rep):
        out = json.loads(text)
        rep.require(set(out) == {"alpha_star", "omega"}, f"keys {sorted(out)}")
        rep.close("omega", out["omega"], omega, 0.0)
        alpha = out["alpha_star"]
        margin = 3.0 * THRESHOLD_XTOL
        below = np.trace(refs.hill_flow(refs.sin_beta(2 * (alpha - margin) * omega, omega)[0],
                                        period)) - 2.0
        above = np.trace(refs.hill_flow(refs.sin_beta(2 * (alpha + margin) * omega, omega)[0],
                                        period)) - 2.0
        rep.require(below < 0.0 < above,
                    f"reference trace - 2 at alpha_star -+ {margin:g}: {below!r}, {above!r}; "
                    "want a rising sign change")

    return Op("stability-scan/threshold", argv, check)


def _check_threshold_spread(texts, rep):
    alphas = [json.loads(t)["alpha_star"] for t in texts]
    rep.close("alpha_star spread over omega", max(alphas) - min(alphas), 0.0,
              2.5 * THRESHOLD_XTOL)


def _planar_op(rng):
    """planar-loop --polish near a radial loop of order n with a closed rotation."""
    while True:
        omega = TWO_PI * rng.uniform(0.8, 1.25)
        period = TWO_PI / omega
        n = int(rng.choice([12, 16, 20, 24]))
        # theta = n beta0 T = 2 pi m closes the in-plane rotation.
        ms = [m for m in range(1, n) if 0.4 <= TWO_PI * m / (n * period) <= 1.2]
        beta0 = TWO_PI * ms[rng.integers(len(ms))] / (n * period)
        base = rng.uniform(0.6, 1.2) * omega / TWO_PI

        def trace(b1, beta0=beta0, omega=omega, period=period):
            return float(np.trace(refs.hill_flow(
                refs.offset_sin_beta(beta0, b1, omega)[0], period)))

        k = round(math.acos(max(-1.0, min(1.0, 0.5 * trace(base)))) * n / TWO_PI)
        if not 0 < 2 * k < n:
            continue
        goal = 2.0 * math.cos(TWO_PI * k / n)
        try:
            exact = refs.first_trace_root(trace, goal, 0.9 * base, 1.1 * base, n_scan=5)
        except ValueError:
            continue
        beta1 = exact * (1.0 + rng.uniform(-0.005, 0.005))
        angle = math.acos(max(-1.0, min(1.0, 0.5 * trace(beta1))))
        if (round(angle * n / TWO_PI) == k
                and (trace(0.95 * beta1) - goal) * (trace(1.05 * beta1) - goal) < 0):
            break

    argv = ["planar-loop", "--beta0", _num(beta0), "--beta1", _num(beta1),
            "--omega", _num(omega), "--periods", str(n), "--polish"]

    def planar_deviation(b1):
        beta = refs.offset_sin_beta(beta0, b1, omega)
        m = refs.planar_flow(beta[0], n * period)
        tol = refs.midpoint_tol(beta[1], beta[2], period / DEFAULT_STEPS, n * period,
                                np.abs(m).max())
        return float(np.abs(m - np.eye(4)).max()), tol

    def check(text, rep):
        out = json.loads(text)
        keys = {"beta0", "beta1", "omega", "periods", "deviation", "is_loop", "theta",
                "theta_mod_2pi", "beta1_polished", "polished_deviation"}
        rep.require(set(out) == keys, f"keys {sorted(out)}")
        for key, want in (("beta0", beta0), ("beta1", beta1), ("omega", omega)):
            rep.close(key, out[key], want, 0.0)
        rep.require(out["periods"] == n, f"periods {out['periods']!r}")
        theta = n * beta0 * period
        rep.close("theta", out["theta"], theta, 1e-12 * abs(theta))
        rep.close("theta_mod_2pi on the circle",
                  refs.circle_distance(out["theta_mod_2pi"], theta, TWO_PI), 0.0, 1e-9)
        rep.require(0.0 <= out["theta_mod_2pi"] < TWO_PI, "theta_mod_2pi outside [0, 2 pi)")
        dev, tol = planar_deviation(beta1)
        rep.close("deviation", out["deviation"], dev, 3.0 * tol)
        rep.require(out["is_loop"] is (out["deviation"] < 1e-2), "is_loop against deviation < tol")
        b1 = out["beta1_polished"]
        rep.close("beta1_polished within the 5% bracket", b1, beta1, 0.05 * abs(beta1))
        beta = refs.offset_sin_beta(beta0, b1, omega)
        radial = refs.hill_flow(beta[0], period)
        tol_r = refs.midpoint_tol(beta[1], beta[2], period / DEFAULT_STEPS, period,
                                  np.abs(radial).max())
        rep.close("reference radial monodromy^n - 1",
                  float(np.abs(np.linalg.matrix_power(radial, n) - np.eye(2)).max()), 0.0,
                  10.0 * n * tol_r + 1e-9)
        dev, tol = planar_deviation(b1)
        rep.close("polished_deviation", out["polished_deviation"], dev, 3.0 * tol)

    return Op("planar-loop/polish", argv, check)


# ------------------------------------------------------------ trajectory

def _trajectory_op(kind, profile, state0, t_end, samples, reference):
    """osc-trajectory; reference(times, state0) gives (states, tolerance)."""
    argv = ["osc-trajectory", "--profile", json.dumps(profile), "--q0", _num(state0[0]),
            "--p0", _num(state0[1]), "--t-end", _num(t_end), "--samples", str(samples)]

    def check(text, rep):
        rows = _table(text, ("t", "q", "p"))
        times = np.linspace(0.0, t_end, samples + 1)
        rep.require(rows.shape[0] == samples + 1, f"{rows.shape[0]} rows, want {samples + 1}")
        if rows.shape[0] != samples + 1:
            return
        rep.close("max |t - grid|", float(np.abs(rows[:, 0] - times).max()), 0.0,
                  1e-11 * t_end)
        idx, want, tol = reference(times, state0)
        got = rows[idx, 1:]
        err = np.abs(got - want).max(axis=1)
        worst = int(np.argmax(err))
        rep.close(f"(q, p) at t = {times[idx][worst]!r}", float(err[worst]), 0.0, tol)

    return Op(f"osc-trajectory/{kind}", argv, check)


def _check_unit_determinant(texts, rep):
    a = _table(texts[0], ("t", "q", "p"))
    b = _table(texts[1], ("t", "q", "p"))
    if a.shape != b.shape:
        rep.require(False, "paired trajectories differ in length")
        return
    det = a[:, 1] * b[:, 2] - b[:, 1] * a[:, 2]
    scale = np.maximum(1.0, np.abs(a[:, 1] * b[:, 2]) + np.abs(b[:, 1] * a[:, 2]))
    worst = int(np.argmax(np.abs(det - 1.0) / scale))
    rep.close(f"q1 p2 - q2 p1 at t = {a[worst, 0]!r}", float(det[worst]), 1.0,
              1e-9 * float(scale[worst]))


def trajectory(rng, small=False):
    """Long sampled trajectories of sin and steps drives, each started from
    (1, 0) and from (0, 1)."""
    samples, periods = (400, (0.9, 1.1)) if small else (20_000, (18.0, 22.0))
    ops, joint = [], []

    while True:
        omega = TWO_PI * rng.uniform(0.8, 1.25)
        beta0 = rng.uniform(0.25, 0.38) * omega
        m = refs.hill_flow(refs.sin_beta(beta0, omega)[0], TWO_PI / omega)
        if abs(np.trace(m)) < 1.9:
            break
    period = TWO_PI / omega
    t_end = period * rng.uniform(*periods)
    fn, bmax, dbmax = refs.sin_beta(beta0, omega)
    probe = np.sort(rng.choice(np.arange(1, samples + 1), size=min(200, samples),
                               replace=False))

    def sin_reference(times, state0):
        want = refs.hill_states(fn, state0, times[probe])
        tol = refs.midpoint_tol(bmax, dbmax, t_end / samples, t_end, np.abs(want).max(),
                                factor=0.1)
        return probe, want, tol

    for state0 in ((1.0, 0.0), (0.0, 1.0)):
        ops.append(_trajectory_op("sin", {"kind": "sin", "beta0": beta0, "omega": omega},
                                  state0, t_end, samples, sin_reference))
    joint.append(((0, 1), _check_unit_determinant))

    # Durations are multiples of 1/32, so that period edges are exact sums:
    # with other durations a segment end can land one ulp below a period
    # boundary, where osc-trajectory drops the rest of the sample interval.
    while True:
        steps = [(float(b), float(t) / 32) for b, t in
                 zip(rng.uniform(0.5, 3.0, size=3), rng.integers(7, 20, size=3))]
        if abs(np.trace(refs.steps_flow(steps))) < 1.8:
            break
    t_end = sum(t for _, t in steps) * rng.uniform(*periods)

    def steps_reference(times, state0):
        want = refs.steps_states(steps, state0, times)
        return slice(None), want, 1e-9 * max(1.0, float(np.abs(want).max()))

    for state0 in ((1.0, 0.0), (0.0, 1.0)):
        ops.append(_trajectory_op("steps", {"kind": "steps", "steps": [list(s) for s in steps]},
                                  state0, t_end, samples, steps_reference))
    joint.append(((2, 3), _check_unit_determinant))
    return Workload(ops, joint)


# ------------------------------------------------------------ spin

def _spin_op(mu, omega, points, ratio_max):
    argv = ["spin-spectrum", "--mu", _num(mu), "--omega", _num(omega),
            "--points", str(points), "--ratio-min", "0.001", "--ratio-max", _num(ratio_max)]

    def check(text, rep):
        rows = _csv(text, ("muB_over_homega", "deltaE_formula", "deltaE_numeric"))
        ratios = np.logspace(-3.0, math.log10(ratio_max), points)
        _grid_column(rep, "muB_over_homega", [float(r[0]) for r in rows], ratios)
        for ratio, (_, formula, numeric) in zip(ratios, rows):
            want = refs.spin_gap(abs(mu), ratio * omega / abs(mu), omega)
            rep.close(f"deltaE_formula at {ratio!r}", float(formula), want, 2e-11 * want)
            # The whole multiple of omega in deltaE_numeric comes from the
            # closed form; only the gap folded into the zone is computed.
            folded = refs.circle_distance(refs.fold(float(numeric), omega),
                                          refs.fold(want, omega), omega)
            rep.close(f"folded deltaE_numeric at {ratio!r}", folded, 0.0,
                      1e-7 * omega + 1e-11 * want)

    return Op("spin-spectrum/sweep", argv, check)


def _random_hermitian(rng, dim, scale):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * scale * (a + a.conj().T)
    for i in range(dim):
        h[i, i] = h[i, i].real
    return h


def _pattern_op(rng, dim, n_steps):
    steps = [(_random_hermitian(rng, dim, rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.3)))
             for _ in range(n_steps)]
    pattern = {"steps": [{
        "hamiltonian": [[float(h[i, j].real) if i == j else [float(h[i, j].real),
                                                              float(h[i, j].imag)]
                         for j in range(dim)] for i in range(dim)],
        "duration": tau} for h, tau in steps]}
    argv = ["step-floquet", "--pattern", json.dumps(pattern)]
    period = sum(tau for _, tau in steps)
    omega = TWO_PI / period

    def check(text, rep):
        rows = _csv(text, ("line_kind", "energy"))
        want_kinds = [f"instantaneous_{i + 1}" for i in range(n_steps) for _ in range(dim)]
        want_kinds += ["floquet"] * dim
        rep.require([r[0] for r in rows] == want_kinds, "line kinds or their count")
        if [r[0] for r in rows] != want_kinds:
            return
        energies = np.array([float(r[1]) for r in rows])
        for i, (h, _) in enumerate(steps):
            got = energies[i * dim:(i + 1) * dim]
            want = np.sort(np.linalg.eigvals(h).real)
            scale = max(1.0, float(np.abs(want).max()))
            rep.close(f"instantaneous_{i + 1} lines", float(np.abs(got - want).max()), 0.0,
                      1e-10 * scale)
        floquet = energies[-dim:]
        rep.require(bool(np.all(np.diff(floquet) >= 0)), "floquet lines not ascending")
        rep.require(bool(np.all((floquet > -0.5 * omega * (1 + 1e-9))
                                & (floquet <= 0.5 * omega * (1 + 1e-9)))),
                    "floquet lines outside (-omega/2, omega/2]")
        rep.close("floquet lines against expm eigenphases",
                  refs.match_on_circle(floquet, refs.pattern_unitary(steps), period), 0.0, 1e-9)

    return Op(f"step-floquet/d{dim}", argv, check)


def spin(rng, small=False):
    """Rotating-field spin sweeps over mu B / omega in 1e-3..1e3, plus
    step-floquet patterns of dimension 2 and above."""
    ops = []
    for _ in range(2 if small else 5):
        mu = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        ops.append(_spin_op(mu, rng.uniform(0.5, 4.0), 3 if small else 8,
                            10.0 if small else 1000.0))
    for dim, n_steps in ((2, 120), (2, 120), (3, 40), (5, 40)):
        ops.append(_pattern_op(rng, dim, 4 if small else n_steps))
    return Workload(ops)


WORKLOADS = {
    "osc-sweep": osc_sweep,
    "loop-search": loop_search,
    "trajectory": trajectory,
    "spin": spin,
}


def build(name, seed, small=False):
    """The workload `name` generated from `seed`."""
    return WORKLOADS[name](np.random.default_rng(seed), small)
