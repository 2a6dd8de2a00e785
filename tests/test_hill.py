import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floqtools import (
    DriveProfile,
    NoRootError,
    classical_trajectory,
    constant_family,
    eval_beta,
    evolve,
    find_loop_beta,
    floquet_result,
    loop_deviation,
    monodromy,
    omega_F_scan,
    oscillator_quasienergies,
    rectangular_family,
    reduce_to_zone,
    sinusoid_family,
)
from floqtools._linops import oscillator_blocks, raise_on_overflow, rotation2
from floqtools.hill import loop_order_for_angle
from stepping_oracle import (TRAJECTORY_CASES, assert_close_to_stepping,
                             assert_cut_and_summed_per_interval, interval_samples)

TWO_PI = 2.0 * math.pi


def rotation_block(beta, t):
    return np.array([
        [math.cos(beta * t), math.sin(beta * t) / beta],
        [-beta * math.sin(beta * t), math.cos(beta * t)],
    ])


# ---------- monodromy ----------


def test_constant_profile_matches_analytic_rotation():
    beta0, period = 1.3, 1.0
    m = monodromy(DriveProfile.constant(beta0, period))
    assert np.abs(m - rotation_block(beta0, period)).max() < 1e-9


def test_free_profile_is_a_shear():
    m = monodromy(DriveProfile.constant(0.0, 2.0))
    assert_allclose(m, [[1.0, 2.0], [0.0, 1.0]], atol=1e-14)


def test_rectangular_profile_closed_form_trace():
    beta0, period = 2.3, 1.0
    profile = DriveProfile.from_steps(((beta0, period / 2), (0.0, period / 2)))
    x = beta0 * period / 2
    expected = 2.0 * math.cos(x) - x * math.sin(x)
    assert np.trace(monodromy(profile)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("profile", [
    DriveProfile.constant(1.7, 1.0),
    DriveProfile.from_steps(((2.0, 0.3), (0.7, 0.7))),
    DriveProfile.sinusoid(2.2, TWO_PI),
    DriveProfile.offset_sinusoid(0.8, 0.9, TWO_PI),
])
def test_monodromy_has_unit_determinant(profile):
    assert abs(np.linalg.det(monodromy(profile)) - 1.0) < 1e-10


def test_monodromy_overflow_raises_without_warning(recwarn):
    # The product of the three blocks overflows in its [1, 0] entry.
    profile = DriveProfile.from_steps(((1e300, 1.0), (1e-300, 1.0), (1e300, 1.0)))
    with pytest.raises(FloatingPointError,
                       match="^result is not finite: the monodromy overflows$"):
        monodromy(profile)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


BLOCK_BETAS = np.array([0.0, -0.0, 1.3, -2.7, 5e-324, 1e-300, -1e150, 1e150, 3e100, 0.0])
BLOCK_DTS = np.array([0.25, 0.5, 0.1, 0.3, 0.5, 0.7, 0.2, 1e-140, 2.0, 4.0])


@pytest.mark.parametrize("betas, dts", [
    pytest.param(BLOCK_BETAS, BLOCK_DTS, id="arrays"),
    pytest.param(BLOCK_BETAS, 0.3, id="scalar-dt"),
    *[pytest.param(np.array(beta), 0.5, id=f"0d-beta-{beta}") for beta in (0.0, -0.0, 1.3)],
])
def test_oscillator_blocks_divide_only_where_beta_is_nonzero(betas, dts):
    # The blocks as built with two np.where calls and a divisor of 1 at beta = 0.
    s = np.sin(betas * dts)
    upper = np.where(betas == 0.0, dts, s / np.where(betas == 0.0, 1.0, betas))
    c = np.cos(betas * dts)
    want = np.stack([np.stack([c, upper], -1), np.stack([-betas * s, c], -1)], -2)
    with warnings.catch_warnings(), raise_on_overflow("the blocks overflow"):
        warnings.simplefilter("error")
        blocks = oscillator_blocks(betas, dts)
    assert blocks.shape == np.shape(betas) + (2, 2)
    assert blocks.transpose(-2, -1, *range(blocks.ndim - 2)).flags.c_contiguous  # entry-major
    assert np.array_equal(blocks.view(np.uint64), want.view(np.uint64))
    dts = np.broadcast_to(dts, np.shape(betas))
    for k in np.ndindex(np.shape(betas)):
        if betas[k] == 0.0:
            assert np.array_equal(blocks[k], [[1.0, dts[k]], [0.0, 1.0]])


def test_sinusoid_against_many_constant_steps():
    # Sampling the sinusoid with 1e4 constant steps must agree with the
    # integrated monodromy.
    beta0 = 2.0
    profile = DriveProfile.sinusoid(beta0, TWO_PI)
    n = 10_000
    dt = profile.period / n
    mids = (np.arange(n) + 0.5) * dt
    stepped = DriveProfile.from_steps(
        tuple((beta0 * math.sin(TWO_PI * t), dt) for t in mids))
    assert np.abs(monodromy(stepped) - monodromy(profile)).max() < 1e-5


def test_time_rescaling_leaves_trace_invariant():
    scale = 2.7
    pairs = [
        (DriveProfile.constant(1.3, 1.0), DriveProfile.constant(1.3 / scale, scale)),
        (DriveProfile.from_steps(((1.7, 0.5), (0.0, 0.5))),
         DriveProfile.from_steps(((1.7 / scale, 0.5 * scale), (0.0, 0.5 * scale)))),
    ]
    for original, rescaled in pairs:
        assert np.trace(monodromy(original)) == pytest.approx(
            np.trace(monodromy(rescaled)), abs=1e-12)


# ---------- stability classification ----------


def test_quarter_turn_rotation_result():
    res = floquet_result(rotation2(math.pi / 2), 1.0)
    assert res.stability == "elliptic"
    assert res.omega_F == pytest.approx(math.pi / 2)
    assert res.loop_order == 4


def test_identity_is_parabolic_with_trivial_loop():
    res = floquet_result(np.eye(2), 1.0)
    assert res.stability == "parabolic"
    assert res.omega_F == 0.0
    assert res.loop_order == 1


def _loop_order_by_deviation(m, n_max=64):
    return next((n for n in range(1, n_max + 1) if loop_deviation(m, n) < 1e-8), None)


def _loop_order_by_matrix_power(m, n_max=64):
    return next((n for n in range(1, n_max + 1)
                 if np.abs(np.linalg.matrix_power(m, n) - np.eye(2)).max() < 1e-8), None)


def _exact_loop_order(m, n_max=64):
    """Least n with ||M^n - 1||_max < 1e-8 for the exact powers of M's float entries."""
    a, b, c, d = map(Fraction, np.ravel(m).tolist())
    p00, p01, p10, p11 = a, b, c, d
    for n in range(1, n_max + 1):
        if max(abs(p00 - 1), abs(p01), abs(p10), abs(p11 - 1)) < Fraction(1e-8):
            return n
        p00, p01, p10, p11 = (a * p00 + b * p10, a * p01 + b * p11,
                              c * p00 + d * p10, c * p01 + d * p11)
    return None


def test_loop_orders_of_rotations_and_shears_are_those_of_matrix_power():
    mats = [rotation2(TWO_PI * k / n) for n in range(1, 65) for k in range(n)]
    for s in (0.0, 1e-12, 1e-10, 1.5e-10, 1.6e-10, 1e-9, 1e-8, 1e-3, 1.0):
        shear = np.array([[1.0, s], [0.0, 1.0]])
        mats += [shear, shear.T, -shear]
    orders = [floquet_result(m, 1.0).loop_order for m in mats]
    assert orders == [_loop_order_by_matrix_power(m) for m in mats]
    assert orders == [_loop_order_by_deviation(m) for m in mats]
    assert orders[:4] == [1, 1, 2, 1] and orders.count(None) > 0
    # Rotations by 2 pi k / n conjugated by random matrices, and by ones of
    # condition number 1e3: there M^n - 1 is rounding alone, near 1e-8, and
    # sequential powers M, M^2, ... round differently from matrix_power's
    # squarings. Judged against exact powers, the sequential verdict is never
    # wrong on the first set and is wrong on 21 of the second, squaring on 2 and 52.
    rng = np.random.default_rng(1)
    conjugated = []
    for k, n in [(7, 9), (1, 5), (3, 8), (5, 12), (2, 7)] * 80:
        p = rng.uniform(-1e2, 1e2, (2, 2))
        conjugated.append(p @ rotation2(TWO_PI * k / n) @ np.linalg.inv(p))
    ill_conditioned = []
    for k, n in [(7, 9), (1, 5), (3, 8), (5, 12), (2, 7)] * 20:
        a, b = rng.uniform(0, TWO_PI, 2)
        p = rotation2(a) @ np.diag([1.0, 1e-3]) @ rotation2(b)
        ill_conditioned.append(p @ rotation2(TWO_PI * k / n) @ np.linalg.inv(p))
    wrong = {}
    for name, group in (("conjugated", conjugated), ("ill_conditioned", ill_conditioned)):
        orders = [floquet_result(m, 1.0).loop_order for m in group]
        assert orders == [_loop_order_by_deviation(m) for m in group]
        exact = [_exact_loop_order(m) for m in group]
        wrong[name] = (sum(o != e for o, e in zip(orders, exact)),
                       sum(_loop_order_by_matrix_power(m) != e for m, e in zip(group, exact)))
    assert wrong["conjugated"][0] == 0
    assert wrong["ill_conditioned"][0] < wrong["ill_conditioned"][1]


def test_hyperbolic_matrix_has_no_frequency_or_loop():
    res = floquet_result(np.diag([2.0, 0.5]), 1.0)
    assert res.stability == "hyperbolic"
    assert res.omega_F is None
    assert res.loop_order is None


def test_floquet_result_trace_overflow_raises_without_a_warning():
    with warnings.catch_warnings(), pytest.raises(FloatingPointError, match="not finite"):
        warnings.simplefilter("error")
        with raise_on_overflow("the trace overflows"):
            floquet_result([[1e308, 0.0], [0.0, 1e308]], 1.0)


def test_an_overflowing_power_raises_without_a_warning():
    # Trace 0 and M^2 = 0 in exact arithmetic, but 1e200 * 1e200 overflows.
    m = [[1e200, 1e200], [-1e200, -1e200]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="a power of the monodromy overflows"):
            loop_deviation(m, 2)
        with pytest.raises(FloatingPointError, match="a power of the monodromy overflows"):
            floquet_result(m, 1.0)
        assert floquet_result(m, 1.0, n_max=0).stability == "elliptic"


def test_loop_deviation_accepts_a_nested_list():
    assert loop_deviation([[0, 1], [-1, 0]], 4) == 0.0


@pytest.mark.parametrize("angle, order", [
    (math.pi / 2, 4), (-2.0 * math.pi / 5, 5), (4.0 * math.pi / 3, 3), (0.0, 1), (1.0, None),
    # cos(1e16) = -0.626, cos(1e20) = 0.764, cos(2^60 2 pi) = 0.936: exact
    # reduction, not x - 2 pi ceil(x / 2 pi - 1/2), decides these.
    (1e16, None), (1e20, None), (1e300, None), (2.0 ** 60 * TWO_PI, None),
])
def test_loop_order_for_angle_reads_the_exactly_reduced_angle(angle, order):
    assert loop_order_for_angle(angle) == order


def test_reported_loops_are_sound():
    rng = np.random.default_rng(5)
    for angle_num in (1, 2, 3, 5):
        angle = TWO_PI * angle_num / 8
        conj = np.array([[1.0, rng.normal()], [0.0, 1.0]])
        m = conj @ rotation2(angle) @ np.linalg.inv(conj)
        res = floquet_result(m, 1.0)
        assert res.loop_order is not None
        assert loop_deviation(m, res.loop_order) < 1e-8
        ratio = res.omega_F * res.loop_order / TWO_PI
        assert abs(ratio - round(ratio)) < 1e-7


# ---------- loop search ----------


def test_constant_loop_amplitude_is_quarter_angle():
    beta0 = find_loop_beta(constant_family(), math.pi / 2, (1.0, 2.0))
    assert beta0 == pytest.approx(math.pi / 2, abs=1e-7)


def test_rectangular_loop_matches_transcendental_oracle():
    from scipy.optimize import bisect
    beta0 = find_loop_beta(rectangular_family(), math.pi / 2, (1.5, 3.0))
    # Independent closed form: trace = 2 cos(x) - x sin(x) with x = beta0/2,
    # so the quarter-angle loop solves tan(x) = 2/x.
    oracle = 2.0 * bisect(lambda x: x * math.sin(x) - 2.0 * math.cos(x),
                          0.5, 1.5, xtol=1e-12)
    assert abs(beta0 - oracle) < 1e-6


def test_sinusoidal_loop_search_makes_few_monodromy_calls(monodromy_calls):
    # the A3 acceptance search: Brent's method needs far fewer trace
    # evaluations than the 30 that bisection spends on xtol = 1e-8
    beta0 = find_loop_beta(sinusoid_family(), math.pi / 2, (1.5, 3.0), n_steps=4096)
    assert abs(beta0 - 2.21231) <= 1e-3
    assert len(monodromy_calls) <= 12


def test_find_loop_beta_reports_missing_root():
    with pytest.raises(NoRootError):
        find_loop_beta(constant_family(), math.pi / 2, (2.0, 2.5))


def test_find_loop_beta_reports_an_invalid_family_member_not_a_missing_root():
    with pytest.raises(ValueError, match="omega"):
        find_loop_beta(lambda b: DriveProfile.sinusoid(b, -1.0), math.pi / 2, (1.5, 3.0))


# ---------- scans and ladders ----------


def test_scan_of_constant_family():
    rows = omega_F_scan(constant_family(), [0.5, 1.0])
    assert [row.omega_F for row in rows] == pytest.approx([0.5, 1.0])
    assert all(row.stability == "elliptic" for row in rows)


def test_scan_rectangular_near_loop_amplitude():
    row = omega_F_scan(rectangular_family(), [2.15375])[0]
    assert abs(row.trace) < 1e-3


def test_scan_sinusoid_near_loop_amplitude():
    row = omega_F_scan(sinusoid_family(), [2.21231], n_steps=4096)[0]
    assert abs(row.omega_F - math.pi / 2) < 1e-3


def test_scan_marks_unstable_points():
    row = omega_F_scan(sinusoid_family(), [7.5], n_steps=2048)[0]
    assert row.stability == "hyperbolic"
    assert row.omega_F is None


def test_oscillator_quasienergy_ladder():
    assert_allclose(oscillator_quasienergies(0.0, TWO_PI, 4), np.zeros(4))
    assert_allclose(oscillator_quasienergies(math.pi / 2, TWO_PI, 2),
                    [math.pi / 4, 3 * math.pi / 4])
    ladder = oscillator_quasienergies(math.pi / 2, TWO_PI, 5)
    assert ladder[4] == pytest.approx(math.pi / 4)  # 9 pi / 4 folded back


def test_oscillator_quasienergy_ladder_rejects_infinite_omega():
    with pytest.raises(ValueError, match="omega"):
        oscillator_quasienergies(1.0, math.inf, 3)


@pytest.mark.parametrize("beta0", [2.2, 1.0])
def test_quantum_quasienergies_lie_on_the_classical_ladder(beta0):
    # H(t) = p^2/2 + beta(t)^2 q^2/2 in the lowest d Fock states, with q^2
    # and p^2 formed in d + 4 states so that truncation leaves them exact.
    d = 30
    a = np.diag(np.sqrt(np.arange(1.0, d + 4)), 1)
    q2 = 0.5 * ((a + a.T) @ (a + a.T))[:d, :d]
    p2 = -0.5 * ((a.T - a) @ (a.T - a))[:d, :d]
    profile = DriveProfile.sinusoid(beta0, TWO_PI)
    u = evolve(lambda t: 0.5 * p2 + 0.5 * (eval_beta(profile, t) ** 2)[..., None, None] * q2,
               1.0, 512)
    phases, vectors = np.linalg.eig(u.matrix)
    # Floquet states of the truncated space that the cut does not reach.
    kept = (np.abs(vectors[:10]) ** 2).sum(axis=0) >= 0.999
    assert kept.sum() >= 4
    omega_f = floquet_result(monodromy(profile), 1.0).omega_F
    ladder = oscillator_quasienergies(omega_f, TWO_PI, d)
    energies = -np.angle(phases[kept])
    distance = np.abs(reduce_to_zone(energies[:, None] - ladder, TWO_PI)).min(axis=1)
    assert distance.max() < 3e-8


# ---------- trajectories ----------


def test_constant_drive_orbit_closes():
    path = classical_trajectory(DriveProfile.constant(math.pi / 2), (1.0, 0.0),
                                4.0, n_steps=512)
    assert np.abs(path[-1, 1:] - [1.0, 0.0]).max() < 1e-6


def test_free_motion_trajectory():
    path = classical_trajectory(DriveProfile.constant(0.0), (0.0, 1.0), 2.0,
                                n_steps=16)
    assert_allclose(path[-1], [2.0, 2.0, 1.0], atol=1e-12)


def test_rectangular_loop_trajectory_closes():
    profile = DriveProfile.from_steps(((2.15375, 0.5), (0.0, 0.5)))
    path = classical_trajectory(profile, (1.0, 0.0), 4.0, n_steps=512)
    assert np.abs(path[-1, 1:] - path[0, 1:]).max() < 1e-3


@pytest.mark.parametrize("profile, t_end, n", TRAJECTORY_CASES)
def test_trajectory_equals_per_interval_stepping(profile, t_end, n, oscillator_block_calls):
    path = classical_trajectory(profile, (1.0, -0.3), t_end, n_steps=n)
    assert len(oscillator_block_calls) == 1
    times, states, _ = interval_samples(profile, (1.0, -0.3), t_end, n)
    assert np.array_equal(path[:, 0], times)
    assert_close_to_stepping(path[:, 1:], states)
    assert_cut_and_summed_per_interval(profile, (1.0, -0.3), t_end, n)


def test_zero_state_stays_zero_on_a_growing_flow():
    # |M^1000| ~ 1e396 leaves the float range, but the scan carries states,
    # not prefixes, across its blocks: a zero start stays +0.0 and a 1e-100
    # one grows to about 4e297, as stepping one block at a time gives.
    profile = DriveProfile.from_steps(((1.0, 0.5), (5.0, 0.5)))
    path = classical_trajectory(profile, (0.0, 0.0), 1000.0, n_steps=1000)
    assert np.array_equal(path[:, 1:], np.zeros((1001, 2)))
    assert not np.signbit(path[:, 1:]).any()
    path = classical_trajectory(profile, (1e-100, 0.0), 1000.0, n_steps=1000)
    _, states, _ = interval_samples(profile, (1e-100, 0.0), 1000.0, 1000)
    assert np.abs(states[-1]).max() > 1e297
    assert_close_to_stepping(path[:, 1:], states)
