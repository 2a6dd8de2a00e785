"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import math
import time

import numpy as np
import pytest
from scipy.optimize import bisect

from floqtools import (
    DriveProfile,
    SIGMA_X,
    SIGMA_Z,
    SpinParams,
    StepPattern,
    constant_family,
    epicycle,
    evolve,
    expm_hermitian,
    find_loop_beta,
    floquet_hamiltonian,
    magnetic_field_fd,
    monodromy,
    planar_loop_check,
    planar_monodromy,
    polish_loop_beta1,
    quasienergies,
    rectangular_family,
    reconstruct_planar,
    reduce_to_zone,
    rotating_frame_reduction,
    rotating_nodal_field,
    sinusoid_family,
    spin_floquet_generator,
    spin_quasienergy_spacing,
    spin_spacing_from_propagator,
    stability_threshold,
    step_propagator,
    symplectic_defect,
    unitarity_defect,
    vector_potential_rotating,
    TrapField,
)
from planar_oracle import planar_flow

TWO_PI = 2.0 * math.pi


def report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, detail
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.2f}s"


def test_a1_constant_drive_loop_amplitude():
    start = time.perf_counter()
    beta0 = find_loop_beta(constant_family(), math.pi / 2, (1.0, 2.0))
    elapsed = time.perf_counter() - start
    ok = abs(beta0 - 1.57079) <= 1e-4
    report("A1 constant loop", ok, f"beta0* = {beta0:.6f} vs 1.57079 +- 1e-4",
           elapsed, 1.0)


def test_a2_rectangular_drive_loop_amplitude():
    start = time.perf_counter()
    beta0 = find_loop_beta(rectangular_family(), math.pi / 2, (1.5, 3.0))
    # independent oracle: tan(x) = 2/x with x = beta0 / 2
    oracle = 2.0 * bisect(lambda x: x * math.sin(x) - 2.0 * math.cos(x),
                          0.5, 1.5, xtol=1e-12)
    elapsed = time.perf_counter() - start
    ok = abs(beta0 - 2.15375) <= 5e-4 and abs(beta0 - oracle) <= 1e-6
    report("A2 rectangular loop", ok,
           f"beta0* = {beta0:.6f} vs 2.15375 +- 5e-4, |root - oracle| = {abs(beta0 - oracle):.1e}",
           elapsed, 1.0)


def test_a3_sinusoidal_drive_loop_amplitude():
    start = time.perf_counter()
    beta0 = find_loop_beta(sinusoid_family(), math.pi / 2, (1.5, 3.0), n_steps=4096)
    elapsed = time.perf_counter() - start
    ok = abs(beta0 - 2.21231) <= 1e-3
    report("A3 sinusoidal loop", ok, f"beta0* = {beta0:.6f} vs 2.21231 +- 1e-3",
           elapsed, 5.0)


def test_a4_stability_threshold():
    start = time.perf_counter()
    alphas = [stability_threshold(omega) for omega in (math.pi, TWO_PI, 4.0 * math.pi)]
    elapsed = time.perf_counter() - start
    spread = max(alphas) - min(alphas)
    ok = all(abs(a - 0.5735) <= 5e-4 for a in alphas) and spread <= 1e-5
    report("A4 stability threshold", ok,
           f"alpha* = {alphas[1]:.6f} vs 0.5735 +- 5e-4, spread over omega = {spread:.1e}",
           elapsed, 10.0)


def test_a5_24_period_planar_loop():
    start = time.perf_counter()
    profile = DriveProfile.offset_sinusoid(0.78539, 0.94595, TWO_PI)
    is_loop, deviation = planar_loop_check(profile, 24, tol=1e-2)
    theta, _ = rotating_frame_reduction(profile, 24)
    beta1_star = polish_loop_beta1(math.pi / 4, 0.94595, TWO_PI, 24)
    polished = DriveProfile.offset_sinusoid(math.pi / 4, beta1_star, TWO_PI)
    _, polished_dev = planar_loop_check(polished, 24)
    elapsed = time.perf_counter() - start
    ok = (is_loop and deviation < 1e-2
          and abs(beta1_star - 0.94595) < 1e-3 and polished_dev < 1e-6
          and abs(theta - 6.0 * math.pi) < 1e-3)
    report("A5 24-period planar loop", ok,
           f"deviation = {deviation:.1e}, beta1* = {beta1_star:.6f}, "
           f"polished deviation = {polished_dev:.1e}, theta - 6pi = {theta - 6 * math.pi:.1e}",
           elapsed, 30.0)


def test_a6_spin_resonance_consistency():
    start = time.perf_counter()
    omega = 1.0
    worst_gap = 0.0
    worst_eig = 0.0
    for ratio in np.logspace(-3, 3, 50):
        params = SpinParams(1.0, ratio, omega)
        gap_err = abs(spin_spacing_from_propagator(params)
                      - spin_quasienergy_spacing(params))
        lam = math.hypot(params.mu * params.B, 0.5 * omega)
        eig_err = np.abs(np.linalg.eigvalsh(spin_floquet_generator(params))
                         - np.array([-lam, lam])).max()
        worst_gap = max(worst_gap, gap_err)
        worst_eig = max(worst_eig, eig_err / max(1.0, lam))
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-7 * omega and worst_eig < 1e-12
    report("A6 spin resonance consistency", ok,
           f"worst gap error = {worst_gap:.1e} (bound 1e-7), "
           f"worst generator eigenvalue error = {worst_eig:.1e} (bound 1e-12)",
           elapsed, 10.0)


def test_a7_spacing_limit_formulas():
    start = time.perf_counter()

    def weak_rel(ratio):
        spacing = spin_quasienergy_spacing(SpinParams(1.0, ratio, 1.0))
        return abs(2.0 * ratio * ratio - spacing) / spacing

    def strong_rel(ratio):
        spacing = spin_quasienergy_spacing(SpinParams(1.0, ratio, 1.0))
        return abs(spacing - (2.0 * ratio - 1.0)) / spacing

    grid = np.logspace(-3, 3, 50)
    weak = np.array([weak_rel(r) for r in grid])
    strong = np.array([strong_rel(r) for r in grid])
    elapsed = time.perf_counter() - start
    ok = (weak_rel(0.05) < 1e-2 and strong_rel(20.0) < 1e-2
          and np.all(np.diff(weak) > 0) and np.all(np.diff(strong) < 0))
    report("A7 spacing limit formulas", ok,
           f"weak rel err at 0.05 = {weak_rel(0.05):.2%}, "
           f"strong rel err at 20 = {strong_rel(20.0):.2%}, both monotone",
           elapsed, 10.0)


def test_a8_epicycle_closure_of_quantized_drive():
    start = time.perf_counter()
    beta0 = 2.21231

    def h(t):
        t = np.asarray(t)
        return SIGMA_X + beta0 * np.multiply.outer(np.sin(TWO_PI * t), SIGMA_Z)

    steps = 4096
    f = floquet_hamiltonian(evolve(h, 1.0, steps), 1.0)
    worst = 0.0
    for n in (1, 2, 3):
        g = epicycle(h, f, float(n), n_steps=steps * n)
        worst = max(worst, float(np.abs(g.matrix - np.eye(2)).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7
    report("A8 epicycle closure", ok, f"max |G(nT) - 1| = {worst:.1e} for n = 1..3",
           elapsed, 10.0)


def test_a9_property_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(23)

    # unitarity of integrated and step propagators
    h0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0 = 0.5 * (h0 + h0.conj().T)
    u = evolve(lambda t: h0 * math.cos(TWO_PI * t), 1.0, 256)
    if unitarity_defect(u.matrix) > 1e-10:
        failures.append("unitarity")

    # symplecticity and unit determinant of classical flows
    offset = DriveProfile.offset_sinusoid(0.78539, 0.94595, TWO_PI)
    if symplectic_defect(planar_monodromy(offset, 24)) > 1e-9:
        failures.append("symplecticity")
    if abs(np.linalg.det(monodromy(DriveProfile.sinusoid(2.2, TWO_PI))) - 1.0) > 1e-10:
        failures.append("determinant")

    # quasienergies stay in the first zone
    qs = quasienergies(u, 1.0)
    half = 0.5 * qs.omega
    if not (np.all(qs.values > -half - 1e-12) and np.all(qs.values <= half + 1e-12)):
        failures.append("zone membership")

    # commuting pattern reproduces the averaged generator spectrum
    pattern = StepPattern(((SIGMA_Z, 1.0), (3.0 * SIGMA_Z, 1.0)))
    got = quasienergies(step_propagator(pattern), 2.0).values
    expected = np.array([-(math.pi - 2.0), math.pi - 2.0])
    if np.abs(got - expected).max() > 1e-10:
        failures.append("commuting average")

    # zero-average commuting drive drops out of the period propagator
    h_static = np.diag([0.3, -0.2, 1.1])
    moment = np.diag([1.0, 2.0, -1.0])
    u_z = evolve(lambda t: h_static - math.sin(TWO_PI * t) * moment, 1.0, 512)
    if np.abs(u_z.matrix - expm_hermitian(h_static, 1.0).matrix).max() > 1e-10:
        failures.append("commuting drive cancellation")

    # rotating-frame reconstruction matches the direct 4x4 planar flow
    direct = planar_flow(offset)
    if np.abs(direct - reconstruct_planar(*rotating_frame_reduction(offset))).max() > 1e-7:
        failures.append("frame reconstruction")

    # curl by central differences converges at second order
    trap = TrapField(1.3, TWO_PI, 1.0)
    pot = lambda x, t: vector_potential_rotating(trap, x, t)  # noqa: E731
    x_probe = np.array([0.03, -0.02, 0.05])
    ref = magnetic_field_fd(pot, x_probe, 0.37, 1e-7)
    ratio = (np.linalg.norm(magnetic_field_fd(pot, x_probe, 0.37, 2e-3) - ref)
             / np.linalg.norm(magnetic_field_fd(pot, x_probe, 0.37, 1e-3) - ref))
    if not 3.5 < ratio < 4.5:
        failures.append("curl convergence order")

    # near the nodal point the trap potential carries the rotating field
    h_fd = 1e-4
    x_small = np.array([1e-4, -0.5e-4, 0.7e-4])
    for t in (0.0, 0.3):
        fd = magnetic_field_fd(pot, x_small, t, h_fd)
        if np.abs(fd - rotating_nodal_field(trap, t)).max() > 1e-5:
            failures.append("nodal field limit")
            break

    elapsed = time.perf_counter() - start
    report("A9 property suite", not failures,
           "all properties hold" if not failures else f"failed: {', '.join(failures)}",
           elapsed, 30.0)
