import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floqtools import (
    TrapField,
    magnetic_field_fd,
    nodal_approx_error,
    rotating_nodal_field,
    standing_nodal_field,
    uniform_field_potential,
    vector_potential_rotating,
    vector_potential_standing,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def trap():
    return TrapField(1.3, TWO_PI, 1.0)


def test_axes_must_be_orthonormal():
    with pytest.raises(ValueError, match="unit"):
        TrapField(1.0, 1.0, 1.0, axis_m=np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="orthogonal"):
        TrapField(1.0, 1.0, 1.0,
                  axis_m=np.array([1.0, 0.0, 0.0]),
                  axis_n=np.array([1.0, 0.0, 0.0]),
                  axis_s=np.array([0.0, 0.0, 1.0]))


def test_axes_reject_nan():
    with pytest.raises(ValueError, match="unit"):
        TrapField(1.0, 1.0, 1.0, axis_m=np.array([math.nan, 0.0, 0.0]))


# ---------- standing wave ----------


def test_standing_vanishes_on_nodal_line(trap):
    # nodal line: m.x = n.x = 0
    for z in (0.0, 0.17, -2.3):
        assert_allclose(vector_potential_standing(trap, np.array([0.0, 0.0, z]), 0.37),
                        np.zeros(3), atol=1e-15)


def test_standing_vanishes_at_time_zero(trap):
    x = np.array([0.2, -0.1, 0.4])
    assert_allclose(vector_potential_standing(trap, x, 0.0), np.zeros(3), atol=1e-15)


def test_standing_antisymmetric_under_axis_swap(trap):
    swapped = TrapField(trap.amplitude, trap.omega, trap.light_speed,
                        axis_m=trap.axis_n, axis_n=trap.axis_m, axis_s=trap.axis_s)
    x = np.array([0.21, -0.13, 0.05])
    assert_allclose(vector_potential_standing(swapped, x, 0.4),
                    -vector_potential_standing(trap, x, 0.4), atol=1e-15)


def test_standing_nodal_field_from_curl(trap):
    fd = magnetic_field_fd(lambda x, t: vector_potential_standing(trap, x, t),
                           np.zeros(3), 0.37, 1e-5)
    assert np.abs(fd - standing_nodal_field(trap, 0.37)).max() < 1e-8


# ---------- rotating superposition ----------


def test_rotating_vanishes_at_origin(trap):
    for t in (0.0, 0.3, 1.9):
        assert_allclose(vector_potential_rotating(trap, np.zeros(3), t),
                        np.zeros(3), atol=1e-15)


def test_rotating_reduces_to_cos_term_at_time_zero(trap):
    x = np.array([0.11, 0.07, -0.23])
    k = trap.wavenumber
    cos_bracket = (trap.axis_s * math.sin(k * float(trap.axis_n @ x))
                   - trap.axis_n * math.sin(k * float(trap.axis_s @ x)))
    assert_allclose(vector_potential_rotating(trap, x, 0.0),
                    0.5 * trap.amplitude * cos_bracket, atol=1e-15)


def test_rotating_approaches_uniform_field_form(trap):
    # |A - B(t) x r / 2| shrinks like r^3
    t = 0.29
    b = rotating_nodal_field(trap, t)
    devs = []
    for r in (1e-3, 2e-3):
        x = r * np.array([0.6, 0.48, 0.64])
        dev = vector_potential_rotating(trap, x, t) - 0.5 * np.cross(b, x)
        devs.append(np.linalg.norm(dev))
    assert 6.0 < devs[1] / devs[0] < 10.0


# ---------- finite-difference curl ----------


def test_curl_exact_for_uniform_field():
    b0 = np.array([0.4, -1.1, 0.7])
    fd = magnetic_field_fd(lambda x, t: uniform_field_potential(b0, x),
                           np.array([1.0, 2.0, 3.0]), 0.0, 1e-4)
    assert np.abs(fd - b0).max() < 1e-10


def test_curl_sign_convention():
    # r x B / 2 is the opposite gauge and flips the recovered field.
    b0 = np.array([0.0, 0.0, 1.0])
    fd = magnetic_field_fd(lambda x, t: 0.5 * np.cross(x, b0),
                           np.array([0.3, -0.2, 0.1]), 0.0, 1e-4)
    assert np.abs(fd + b0).max() < 1e-10


def test_rotating_field_at_nodal_point(trap):
    for t in (0.0, 0.37, 0.81):
        fd = magnetic_field_fd(lambda x, tt: vector_potential_rotating(trap, x, tt),
                               np.zeros(3), t, 1e-5)
        assert np.abs(fd - rotating_nodal_field(trap, t)).max() < 1e-8


def test_curl_converges_at_second_order(trap):
    x = np.array([0.03, -0.02, 0.05])
    t = 0.37
    pot = lambda xx, tt: vector_potential_rotating(trap, xx, tt)  # noqa: E731
    ref = magnetic_field_fd(pot, x, t, 1e-7)
    coarse = np.linalg.norm(magnetic_field_fd(pot, x, t, 2e-3) - ref)
    fine = np.linalg.norm(magnetic_field_fd(pot, x, t, 1e-3) - ref)
    assert 3.5 < coarse / fine < 4.5


def test_curl_rejects_bad_step(trap):
    with pytest.raises(ValueError):
        magnetic_field_fd(lambda x, t: np.zeros(3), np.zeros(3), 0.0, 0.0)


# ---------- local equivalence to the uniform field ----------


def test_nodal_error_vanishes_with_radius(trap):
    t_grid = np.linspace(0.0, 1.0, 5)
    wavelength_scale = trap.light_speed / trap.omega
    assert nodal_approx_error(trap, 1e-5 * wavelength_scale, t_grid) < 1e-9


def test_nodal_error_small_inside_a_thousandth_wavelength(trap):
    t_grid = np.linspace(0.0, 1.0, 5)
    wavelength_scale = trap.light_speed / trap.omega
    assert nodal_approx_error(trap, 1e-3 * wavelength_scale, t_grid) < 1e-5


@pytest.mark.parametrize("name, radius, t_grid", [
    pytest.param("radius", math.nan, [0.0], id="radius-nan"),
    pytest.param("radius", math.inf, [0.0], id="radius-inf"),
    pytest.param("t_grid", 1e-3, [math.nan], id="time-nan"),
    pytest.param("t_grid", 1e-3, [0.0, math.nan], id="later-time-nan"),
])
def test_nodal_error_rejects_a_non_finite_radius_or_time(trap, name, radius, t_grid):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        nodal_approx_error(trap, radius, t_grid)


def test_nodal_error_scales_quadratically(trap):
    t_grid = np.linspace(0.0, 1.0, 5)
    wavelength_scale = trap.light_speed / trap.omega
    small = nodal_approx_error(trap, 1e-3 * wavelength_scale, t_grid)
    large = nodal_approx_error(trap, 4e-3 * wavelength_scale, t_grid)
    assert 10.0 < large / small < 22.0
