import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from floqtools import (
    DriveProfile,
    NoRootError,
    PhysicalParams,
    beta_from_physical,
    monodromy,
    planar_loop_check,
    planar_monodromy,
    planar_trajectory,
    polish_loop_beta1,
    reconstruct_planar,
    rotating_frame_reduction,
    stability_threshold,
    symplectic_defect,
)
from planar_oracle import planar_blocks, planar_flow, planar_path
from stepping_oracle import (TRAJECTORY_CASES, assert_close_to_stepping,
                             assert_cut_and_summed_per_interval, interval_samples)

TWO_PI = 2.0 * math.pi

REFERENCE_BETA0 = 0.78539
REFERENCE_BETA1 = 0.94595


def planar_generator(beta):
    """dx/dt = A x on (q1, q2, p1, p2) for frozen drive beta."""
    return np.array([
        [0.0, beta, 1.0, 0.0],
        [-beta, 0.0, 0.0, 1.0],
        [-beta ** 2, 0.0, 0.0, beta],
        [0.0, -beta ** 2, -beta, 0.0],
    ])


# ---------- unit conversion ----------


def test_beta_from_physical_arithmetic():
    assert beta_from_physical(PhysicalParams(2.0, 1.0, 3.0, 3.0)) == pytest.approx(1.0)


def test_beta_from_physical_vanishing_field():
    assert beta_from_physical(PhysicalParams(1.0, 1.0, 1.0, 0.0)) == 0.0


def test_beta_from_physical_linearity():
    one = beta_from_physical(PhysicalParams(1.5, 2.0, 1.0, 3.0))
    two = beta_from_physical(PhysicalParams(1.5, 2.0, 1.0, 6.0))
    assert two == pytest.approx(2.0 * one)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 1.0, 1.0, -1.0)


# ---------- planar flow ----------


def test_frozen_step_block_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    for _ in range(5):
        beta = float(rng.uniform(-2.0, 2.0))
        dt = float(rng.uniform(0.05, 0.8))
        block = planar_blocks(np.array([beta]), np.array([dt]))[0]
        assert np.abs(block - scipy.linalg.expm(planar_generator(beta) * dt)).max() < 1e-12


def test_free_motion_is_a_block_shear():
    m = planar_monodromy(DriveProfile.constant(0.0, 1.0))
    expected = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
    assert_allclose(m, expected, atol=1e-14)


def test_constant_drive_against_matrix_exponential():
    beta0 = 0.9
    m = planar_monodromy(DriveProfile.constant(beta0, 1.0))
    assert np.abs(m - scipy.linalg.expm(planar_generator(beta0))).max() < 1e-10


@pytest.mark.parametrize("profile", [
    DriveProfile.constant(1.1, 1.0),
    DriveProfile.sinusoid(2.0, TWO_PI),
    DriveProfile.offset_sinusoid(REFERENCE_BETA0, REFERENCE_BETA1, TWO_PI),
])
def test_planar_monodromy_is_symplectic(profile):
    assert symplectic_defect(planar_monodromy(profile, n_periods=24)) < 1e-9


@pytest.mark.parametrize("profile", [
    DriveProfile.constant(1.1, 1.0),
    DriveProfile.sinusoid(2.0, TWO_PI),
    DriveProfile.offset_sinusoid(REFERENCE_BETA0, REFERENCE_BETA1, TWO_PI),
])
def test_rotating_frame_reconstruction_matches_direct_flow(profile):
    direct = planar_flow(profile)
    theta, m_radial = rotating_frame_reduction(profile)
    assert np.abs(direct - reconstruct_planar(theta, m_radial)).max() < 1e-7


def test_reconstruction_is_the_rotation_composed_with_the_radial_map():
    # kron(M, R) against the product it stands for, kron(1, R) kron(M, 1).
    rng = np.random.default_rng(12)
    for _ in range(200):
        m_radial = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3)
        theta = rng.uniform(-100.0, 100.0)
        c, s = np.cos(theta), np.sin(theta)
        rotation = np.array([[c, s], [-s, c]])
        expected = np.kron(np.eye(2), rotation) @ np.kron(m_radial, np.eye(2))
        assert np.array_equal(reconstruct_planar(theta, m_radial), expected)


def test_rotating_frame_reduction_values():
    theta, m_radial = rotating_frame_reduction(DriveProfile.constant(1.0, 1.0))
    assert theta == pytest.approx(1.0)
    assert_allclose(m_radial, monodromy(DriveProfile.constant(1.0, 1.0)))
    theta, _ = rotating_frame_reduction(DriveProfile.sinusoid(2.0, TWO_PI))
    assert theta == 0.0
    theta, _ = rotating_frame_reduction(
        DriveProfile.offset_sinusoid(REFERENCE_BETA0, REFERENCE_BETA1, TWO_PI), 24)
    assert abs(theta - 6.0 * math.pi) < 1e-3


# ---------- loops ----------


def test_free_drift_never_closes():
    is_loop, deviation = planar_loop_check(DriveProfile.constant(0.0, 1.0), 10)
    assert not is_loop
    assert deviation > 1.0


def test_constant_quarter_angle_drive_loops_after_four_periods():
    is_loop, deviation = planar_loop_check(DriveProfile.constant(math.pi / 2, 1.0), 4,
                                           tol=1e-9)
    assert is_loop, f"deviation {deviation}"


def test_reference_offset_drive_loops_after_24_periods():
    profile = DriveProfile.offset_sinusoid(REFERENCE_BETA0, REFERENCE_BETA1, TWO_PI)
    is_loop, deviation = planar_loop_check(profile, 24, tol=1e-2)
    assert is_loop
    assert deviation < 1e-2


def test_polish_recovers_exact_loop():
    beta1 = polish_loop_beta1(math.pi / 4, REFERENCE_BETA1, TWO_PI, 24)
    assert abs(beta1 - REFERENCE_BETA1) < 1e-3
    profile = DriveProfile.offset_sinusoid(math.pi / 4, beta1, TWO_PI)
    _, deviation = planar_loop_check(profile, 24)
    assert deviation < 1e-6


# ---------- stability threshold ----------


def test_zero_amplitude_is_parabolic():
    trace = np.trace(monodromy(DriveProfile.sinusoid(0.0, TWO_PI)))
    assert trace == pytest.approx(2.0, abs=1e-14)


def test_threshold_value_and_scale_invariance():
    alphas = [stability_threshold(omega) for omega in (math.pi, TWO_PI, 4 * math.pi)]
    for alpha in alphas:
        assert alpha == pytest.approx(0.5735, abs=5e-4)
    assert max(alphas) - min(alphas) < 1e-5


def test_threshold_matches_the_first_mathieu_boundary():
    # With q = alpha^2 the stability_family drive is Mathieu's equation on
    # the line a = 2q, and its first boundary solves 2q = b_1(q).
    from scipy.optimize import brentq
    from scipy.special import mathieu_b

    grid = np.linspace(0.1, 1.0, 9001)
    steps = np.diff(mathieu_b(1, grid))
    # scipy's characteristic values jump at larger q; here b_1 is smooth and
    # decreasing, so 2q - b_1(q) has one root in the bracket.
    assert (steps < 0).all() and np.abs(steps).max() < 2.0 * (grid[1] - grid[0])
    q_star = brentq(lambda q: 2.0 * q - mathieu_b(1, q), 0.1, 1.0, xtol=1e-15)
    alpha_star = math.sqrt(q_star)
    assert alpha_star == pytest.approx(0.5735902089705807, abs=1e-14)
    # The bound is the midpoint error at 4096 steps, 3.9e-8.
    assert abs(stability_threshold(TWO_PI, xtol=1e-12) - alpha_star) < 5e-8


def test_moderate_amplitude_is_stable():
    profile = DriveProfile.sinusoid(2.0 * 0.35 * TWO_PI, TWO_PI)
    assert abs(np.trace(monodromy(profile))) < 2.0


def test_threshold_requires_a_bracketing_interval():
    with pytest.raises(NoRootError):
        stability_threshold(TWO_PI, alpha_bracket=(0.1, 0.2))


def test_threshold_rejects_zero_omega_before_the_search():
    # A ValueError, not the NoRootError of a bracket without a crossing.
    with pytest.raises(ValueError, match="omega"):
        stability_threshold(0.0)


def test_threshold_and_polish_each_make_few_monodromy_calls(monodromy_calls):
    stability_threshold(TWO_PI)
    assert 3 <= len(monodromy_calls) <= 12
    monodromy_calls.clear()
    polish_loop_beta1(math.pi / 4, REFERENCE_BETA1, TWO_PI, 24)
    assert 3 <= len(monodromy_calls) <= 12


# ---------- trajectories ----------


def test_free_planar_trajectory():
    path = planar_trajectory(DriveProfile.constant(0.0, 1.0), (0.0, 0.0, 1.0, 0.0),
                             1.0, n_steps=8)
    assert_allclose(path[-1, 1:], [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_constant_drive_trajectory_closes():
    path = planar_trajectory(DriveProfile.constant(math.pi / 2, 1.0),
                             (1.0, 0.0, 0.0, 0.0), 4.0, n_steps=256)
    assert np.abs(path[-1, 1:] - path[0, 1:]).max() < 1e-6


def test_reference_loop_trajectory_closes():
    profile = DriveProfile.offset_sinusoid(REFERENCE_BETA0, REFERENCE_BETA1, TWO_PI)
    path = planar_trajectory(profile, (1.0, 0.0, 0.0, 0.5), 24.0, n_steps=2048)
    coords = path[:, 1:]
    diameter = np.linalg.norm(coords.max(axis=0) - coords.min(axis=0))
    closure = np.linalg.norm(coords[-1] - coords[0])
    assert closure < 1e-2 * diameter


@pytest.mark.parametrize("profile", [
    DriveProfile.constant(1.1, 1.0),
    DriveProfile.from_steps(((1.7, 0.3), (-0.4, 0.45), (0.9, 0.25))),
    DriveProfile.sinusoid(2.0, TWO_PI),
    DriveProfile.offset_sinusoid(REFERENCE_BETA0, REFERENCE_BETA1, TWO_PI),
])
def test_planar_trajectory_matches_direct_4x4_stepping(profile):
    state0 = (1.0, -0.3, 0.2, 0.5)
    path = planar_trajectory(profile, state0, 3.7, n_steps=300)
    direct = planar_path(profile, state0, 3.7, 300)
    assert np.abs(path - direct).max() < 1e-12


@pytest.mark.parametrize("profile, t_end, n", TRAJECTORY_CASES)
def test_planar_trajectory_equals_per_interval_stepping(profile, t_end, n,
                                                        oscillator_block_calls):
    path = planar_trajectory(profile, (1.0, -0.3, 0.2, 0.5), t_end, n_steps=n)
    assert len(oscillator_block_calls) == 1
    times, radial, angles = interval_samples(profile, [[1.0, -0.3], [0.2, 0.5]], t_end, n)
    c, s = np.cos(angles), np.sin(angles)
    q1, q2, p1, p2 = radial[:, 0, 0], radial[:, 0, 1], radial[:, 1, 0], radial[:, 1, 1]
    expected = np.column_stack([c * q1 + s * q2, c * q2 - s * q1, c * p1 + s * p2, c * p2 - s * p1])
    assert np.array_equal(path[:, 0], times)
    assert_close_to_stepping(path[:, 1:], expected)
    assert_cut_and_summed_per_interval(profile, [[1.0, -0.3], [0.2, 0.5]], t_end, n)


def test_threshold_and_scan_profiles_come_from_stability_family(monkeypatch, monodromy_calls,
                                                               tmp_path):
    from floqtools import cli, planar_charge, stability_family

    assert stability_family(2.0)(0.25) == DriveProfile.sinusoid(1.0, 2.0)
    made = []

    def recording(omega):
        family = stability_family(omega)

        def member(alpha):
            made.append(family(alpha))
            return made[-1]
        return member

    monkeypatch.setattr(planar_charge, "stability_family", recording)
    stability_threshold(3.0, n_steps=256)
    assert cli.main(["stability-scan", "--omega", "3", "--points", "5", "--steps", "64",
                     "-o", str(tmp_path / "scan.csv")]) == 0
    assert len(monodromy_calls) > 5
    assert all(any(args[0] is profile for profile in made) for args in monodromy_calls)


def test_polish_from_a_hyperbolic_start_targets_a_loop_not_the_boundary():
    # tr M = 2.198 at beta1 = 7.3: the clamped angle 0 would give tr M = 2,
    # a shear, so the target is the nearest allowed angle 2 pi / 24.
    beta1 = polish_loop_beta1(0.0, 7.3, TWO_PI, 24)
    tr = np.trace(monodromy(DriveProfile.offset_sinusoid(0.0, beta1, TWO_PI)))
    assert tr == pytest.approx(2.0 * math.cos(TWO_PI / 24), abs=1e-9)
    is_loop, deviation = planar_loop_check(DriveProfile.offset_sinusoid(0.0, beta1, TWO_PI), 24)
    assert is_loop and deviation < 1e-6


@pytest.mark.parametrize("n_periods", [1, 2])
def test_polish_needs_three_periods(n_periods):
    with pytest.raises(ValueError, match="n_periods"):
        polish_loop_beta1(REFERENCE_BETA0, REFERENCE_BETA1, TWO_PI, n_periods)
