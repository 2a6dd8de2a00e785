import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floqtools import spin_resonance
from floqtools import (
    SIGMA_X,
    SpinParams,
    evolve,
    quasienergies,
    reduce_to_zone,
    spin_floquet_generator,
    spin_instantaneous,
    spin_quasienergy_spacing,
    spin_spacing_from_propagator,
    verify_factorization,
)

TWO_PI = 2.0 * math.pi


def test_params_validation():
    with pytest.raises(ValueError):
        SpinParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SpinParams(1.0, -1.0, 1.0)


def test_params_reject_an_infinite_period_and_an_overflowing_coupling():
    with pytest.raises(ValueError, match="omega must give a finite period"):
        SpinParams(1.0, 1.0, 1e-310)
    assert SpinParams(-2.0, 1.5, 1.0).coupling == -3.0
    with pytest.raises(FloatingPointError, match="overflows"):
        SpinParams(1e300, 1e300, 1.0).coupling


# ---------- instantaneous Hamiltonian ----------


def test_instantaneous_at_time_zero():
    params = SpinParams(0.7, 1.3, 2.0)
    assert_allclose(spin_instantaneous(params, 0.0), -0.7 * 1.3 * SIGMA_X, atol=1e-15)


def test_instantaneous_vanishes_without_field():
    assert_allclose(spin_instantaneous(SpinParams(1.0, 0.0, 1.0), 0.3),
                    np.zeros((2, 2)), atol=1e-15)


@pytest.mark.parametrize("mu, b_field", [(0.7, 1.3), (-0.7, 1.3), (0.7, 0.0), (-0.7, 0.0)])
def test_instantaneous_is_bit_for_bit_the_cos_plus_i_sin_row(mu, b_field):
    params = SpinParams(mu, b_field, 2.0)
    for t in (0.0, -0.0, 0.3, np.array([0.0, -0.0, 0.3, 1e10]),
              np.linspace(0.0, 7.0, 1001)):
        angle = params.omega * np.asarray(t)
        expected = np.zeros(angle.shape + (2, 2), dtype=complex)
        expected[..., 0, 1] = -params.coupling * (np.cos(angle) + 1j * np.sin(angle))
        expected[..., 1, 0] = np.conj(expected[..., 0, 1])
        got = spin_instantaneous(params, t).view(float)
        assert np.array_equal(got, expected.view(float))
        assert np.array_equal(np.signbit(got), np.signbit(expected.view(float)))


def test_instantaneous_is_time_reversal_symmetric():
    # H(T - t) = H(t)^T, the symmetry that _period_propagator composes U(T) from.
    params = SpinParams(-0.8, 2.5, 1.7)
    t = np.linspace(0.0, params.period, 257)
    mirrored = spin_instantaneous(params, params.period - t)
    transposed = spin_instantaneous(params, t).swapaxes(-1, -2)
    assert np.abs(mirrored - transposed).max() <= 1e-15 * abs(params.coupling)


def test_instantaneous_spectrum_is_time_independent():
    params = SpinParams(0.9, 1.1, 3.0)
    for t in (0.0, 0.2, 1.7):
        vals = np.linalg.eigvalsh(spin_instantaneous(params, t))
        assert_allclose(vals, [-0.99, 0.99], atol=1e-12)


# ---------- rotating-frame generator ----------


def test_generator_matrix_entries():
    params = SpinParams(1.0, 2.0, 3.0)
    assert_allclose(spin_floquet_generator(params),
                    [[1.5, -2.0], [-2.0, -1.5]], atol=1e-15)


def test_generator_without_field_keeps_a_gap():
    gen = spin_floquet_generator(SpinParams(1.0, 0.0, 2.0))
    assert_allclose(gen, np.diag([1.0, -1.0]), atol=1e-15)


def test_generator_eigenvalues_three_four_five():
    vals = np.linalg.eigvalsh(spin_floquet_generator(SpinParams(1.0, 3.0, 8.0)))
    assert_allclose(vals, [-5.0, 5.0], atol=1e-12)


def test_generator_eigenvalue_identity_on_log_grid():
    for ratio in np.logspace(-3, 3, 25):
        params = SpinParams(1.0, ratio, 1.0)
        expected = math.hypot(params.mu * params.B, 0.5 * params.omega)
        vals = np.linalg.eigvalsh(spin_floquet_generator(params))
        assert_allclose(vals, [-expected, expected], rtol=0, atol=1e-12 * max(1.0, expected))


def test_equal_coupling_gives_sqrt_two_levels():
    params = SpinParams(1.0, 0.5, 1.0)  # mu B = omega / 2
    vals = np.linalg.eigvalsh(spin_floquet_generator(params))
    assert vals[1] == pytest.approx(0.5 * math.sqrt(2.0))


# ---------- rotating-frame factorization ----------


def test_factorization_exact_without_field():
    assert verify_factorization(SpinParams(1.0, 0.0, 2.0), (0.3, 1.7)) < 1e-10


def test_factorization_residual_small_at_default_resolution():
    assert verify_factorization(SpinParams(1.0, 1.0, 1.0), (0.1, 1.0, 5.0)) < 1e-7


def test_factorization_residual_is_fourth_order():
    params = SpinParams(1.0, 1.0, 1.0)
    coarse = verify_factorization(params, (5.0,), n_steps=64)
    fine = verify_factorization(params, (5.0,), n_steps=128)
    assert 14.0 < coarse / fine < 18.0


def test_factorization_rejects_zero_steps():
    with pytest.raises(ValueError, match="n_steps"):
        verify_factorization(SpinParams(1.0, 1.0, 1.0), (5.0,), n_steps=0)


# ---------- resonance spacing ----------


def test_spacing_without_field_is_zero():
    assert spin_quasienergy_spacing(SpinParams(1.0, 0.0, 1.0)) == 0.0


def test_spacing_at_matched_coupling():
    params = SpinParams(1.0, 0.5, 1.0)  # 2 mu B = omega
    assert spin_quasienergy_spacing(params) == pytest.approx(math.sqrt(2.0) - 1.0)


def test_weak_coupling_expansion():
    params = SpinParams(1.0, 0.01, 1.0)
    spacing = spin_quasienergy_spacing(params)
    weak = 2.0 * 0.01 * 0.01
    assert abs(spacing - weak) / spacing < 2e-4


def test_propagator_route_without_field():
    assert spin_spacing_from_propagator(SpinParams(1.0, 0.0, 1.0), 512) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("ratio", [0.25, 5.0])
def test_propagator_route_matches_closed_form(ratio):
    params = SpinParams(1.0, ratio, 1.0)
    numeric = spin_spacing_from_propagator(params)
    assert abs(numeric - spin_quasienergy_spacing(params)) < 1e-8


def test_propagator_route_across_coupling_decades():
    for ratio in np.logspace(-3, 3, 13):
        params = SpinParams(1.0, ratio, 1.0)
        err = abs(spin_spacing_from_propagator(params) - spin_quasienergy_spacing(params))
        assert err < 1e-7, f"ratio {ratio}: error {err}"


def test_automatic_step_count_is_capped_before_anything_is_evolved(monkeypatch):
    # The rule max(1024, ceil(64 (|mu B| T)^0.75)) passes 2^20 steps near
    # mu B / omega = 6.62e4.
    asked = []

    def no_evolve(h, t_end, n_steps):
        asked.append(n_steps)
        raise RuntimeError("evolve called")

    monkeypatch.setattr(spin_resonance, "evolve", no_evolve)
    with pytest.raises(RuntimeError, match="evolve called"):
        spin_spacing_from_propagator(SpinParams(1.0, 6.6e4, 1.0))
    assert 2 ** 19 < 2 * asked[0] <= 2 ** 20
    with pytest.raises(ValueError, match=r"mu B / omega = 67000 needs 1057721 steps"):
        spin_spacing_from_propagator(SpinParams(1.0, 6.7e4, 1.0))
    assert len(asked) == 1


def test_automatic_step_count_has_a_floor_of_1024(monkeypatch):
    asked = []

    def no_evolve(h, t_end, n_steps):
        asked.append(n_steps)
        raise RuntimeError("evolve called")

    monkeypatch.setattr(spin_resonance, "evolve", no_evolve)
    with pytest.raises(RuntimeError, match="evolve called"):
        spin_spacing_from_propagator(SpinParams(1.0, 1e-3, 1.0))
    assert asked == [512]


def test_automatic_step_count_holds_the_folded_gap_error():
    # The fourth-order rule's own error over the A6 grid is 3.5e-10 omega;
    # the 1e-7 bound of A6 leaves room for a far coarser rule.
    omega = 1.0
    for ratio in np.logspace(-3, 3, 50):
        params = SpinParams(1.0, ratio, omega)
        err = reduce_to_zone(spin_spacing_from_propagator(params)
                             - spin_quasienergy_spacing(params), omega)
        assert abs(err) <= 4e-10 * omega, f"ratio {ratio}: error {err}"


def test_propagator_route_folded_gap():
    # spin_spacing_from_propagator takes its whole multiple of omega and its
    # sign from the closed form; the gap folded into the zone is all it
    # computes, so only |fold(gap)| is compared.
    omega = 2.0
    for ratio in np.logspace(-3, 2, 6):
        params = SpinParams(1.0, ratio * omega, omega)
        exact = spin_quasienergy_spacing(params)
        numeric = spin_spacing_from_propagator(params)
        err = abs(abs(reduce_to_zone(numeric, omega)) - abs(reduce_to_zone(exact, omega)))
        assert err < 1e-7 * omega + 1e-11 * exact, f"ratio {ratio}: error {err}"


@pytest.mark.parametrize("ratio", [1e-3, 0.25, 5.0, 1e3])
def test_half_period_route_is_the_whole_period_product(ratio):
    params = SpinParams(1.0, ratio, 1.0)
    u = spin_resonance._period_propagator(params).matrix
    n_steps = 2 * -(-spin_resonance._auto_steps(params) // 2)
    whole = evolve(lambda t: spin_instantaneous(params, t), params.period, n_steps).matrix
    assert np.abs(u - whole).max() <= 1e-11
    assert np.abs(u - u.T).max() <= 1e-12


def test_odd_step_count_is_rounded_up_to_even():
    params = SpinParams(1.0, 0.4, 1.0)
    for n in (1, 7, 4097):
        assert np.array_equal(spin_resonance._period_propagator(params, n).matrix,
                              spin_resonance._period_propagator(params, n + 1).matrix)


def test_one_period_quasienergies_carry_the_spinor_sign():
    # U(T) picks up the 2 pi spinor rotation of the frame factor, so its
    # quasienergies are reduce(+-lambda + omega/2), not reduce(+-lambda).
    params = SpinParams(1.0, 0.25, 1.0)
    period = params.period
    u = evolve(lambda t: spin_instantaneous(params, t), period, 8192)
    lam = math.hypot(params.mu * params.B, 0.5 * params.omega)
    expected = sorted([reduce_to_zone(lam + 0.5, 1.0), reduce_to_zone(-lam + 0.5, 1.0)])
    assert_allclose(quasienergies(u, period).values, expected, atol=1e-9)


def test_limit_formulas_bracket_the_spacing():
    grid = np.logspace(-3, 3, 21)
    weak_rel, strong_rel = [], []
    for ratio in grid:
        params = SpinParams(1.0, ratio, 1.0)
        spacing = spin_quasienergy_spacing(params)
        weak_rel.append(abs(2.0 * ratio * ratio - spacing) / spacing)
        strong_rel.append(abs(spacing - (2.0 * ratio - 1.0)) / spacing)
    assert np.all(np.diff(weak_rel) > 0)      # error shrinks toward weak coupling
    assert np.all(np.diff(strong_rel) < 0)    # error shrinks toward strong coupling
