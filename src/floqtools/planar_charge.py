"""Planar dynamics of a charged particle in a time-dependent axial magnetic field.

In scaled variables the in-plane motion is generated by
H(t) = (p1^2 + p2^2)/2 + beta(t)^2 (q1^2 + q2^2)/2 - beta(t) (q1 p2 - q2 p1),
with the drive beta(t) = e B(t) / (2 m c). The free axial motion decouples
and is not simulated. Passing to the frame rotating by the accumulated angle
integral of beta removes the angular-momentum term and leaves two identical
radial Hill equations u'' + beta(t)^2 u = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hill
from ._linops import (TWO_PI, count, finite_product, raise_on_overflow, require_finite,
                      require_positive, rotation2)
from .profiles import DriveProfile, beta_period_integral

# Symplectic form on (q1, q2, p1, p2).
SYMPLECTIC_FORM_4 = np.block([
    [np.zeros((2, 2)), np.eye(2)],
    [-np.eye(2), np.zeros((2, 2))],
])

_BRACKET = 0.05  # polish_loop_beta1 searches beta1 (1 -+ _BRACKET) for the loop angle


@dataclass(frozen=True)
class PhysicalParams:
    """Charge, mass, light speed, and field amplitude in Gaussian units."""

    charge: float
    mass: float
    light_speed: float
    field: float

    def __post_init__(self):
        require_finite(**vars(self))
        require_positive(charge=self.charge, mass=self.mass, light_speed=self.light_speed)
        if self.field < 0:
            raise ValueError("field must be non-negative")


def beta_from_physical(params):
    """Drive amplitude beta = e B / (2 m c), in inverse-time units."""
    return params.charge * params.field / (2.0 * params.mass * params.light_speed)


def symplectic_defect(m):
    """Max-norm of M^T J M - J on the 4d phase space."""
    m = np.asarray(m, dtype=float)
    return float(np.abs(m.T @ SYMPLECTIC_FORM_4 @ m - SYMPLECTIC_FORM_4).max())


def planar_monodromy(profile, n_periods=1, n_steps=None):
    """Flow map of (q1, q2, p1, p2) over n_periods drive periods.

    Each frozen-beta step is kron(radial block, rotation by beta dt): the
    angular-momentum rotation commutes with the isotropic radial oscillator.
    The ordered product is therefore the radial Hill monodromy composed with
    one rotation by the summed angle, built by reconstruct_planar. The angle
    is taken from the closed-form integral of beta, which the midpoint sums
    of the frozen steps reproduce for every profile kind.
    """
    return reconstruct_planar(*rotating_frame_reduction(profile, n_periods, n_steps))


def rotating_frame_reduction(profile, n_periods=1, n_steps=None):
    """Accumulated rotation angle and radial monodromy over n_periods.

    Returns (theta, M_radial) with theta the integral of beta over the span
    (closed form) and M_radial the radial Hill monodromy. The planar flow is
    recovered by reconstruct_planar(theta, M_radial).
    """
    n_periods = count(n_periods, "n_periods", 1)
    theta = n_periods * beta_period_integral(profile)
    with raise_on_overflow("the planar monodromy overflows"):
        m_radial = np.linalg.matrix_power(hill.monodromy(profile, n_steps), n_periods)
    return theta, m_radial


def reconstruct_planar(theta, m_radial):
    """Rotation by theta acting jointly on (q1, q2) and (p1, p2), composed
    with the radial map applied identically in both rotated planes.

    Positive theta rotates with the [[cos, sin], [-sin, cos]] convention,
    matching the sense of the constant-drive analytic solution. The map
    kron(1, R) kron(M, 1) is kron(M, R) by the mixed-product rule. An
    infinite theta makes R invalid: FloatingPointError.
    """
    with raise_on_overflow("the planar monodromy overflows"):
        return np.kron(np.asarray(m_radial, float), rotation2(theta))


def planar_loop_check(profile, n_periods, tol=1e-2, n_steps=None):
    """(is_loop, deviation): deviation = ||M(nT) - 1||_max against tol.

    ValueError naming tol unless it is positive and finite.
    """
    require_positive(tol=tol)
    m = planar_monodromy(profile, n_periods, n_steps)
    deviation = float(np.abs(m - np.eye(4)).max())
    return deviation < tol, deviation


def stability_threshold(omega, alpha_bracket=(0.3, 0.8), n_steps=None, xtol=1e-6):
    """First amplitude ratio alpha at which the sinusoidally driven radial
    motion turns unstable.

    alpha parametrizes the drive as beta(t) = 2 alpha omega sin(omega t);
    the threshold of the rescaled radial Hill equation is a pure number, so
    the result does not depend on omega. Brent's method runs on tr M - 2,
    which changes sign exactly at the first stability boundary (the
    full-period trace of this family never drops below -2, being the square
    of the half-period map).

    Raises NoRootError when the bracket holds no crossing.
    """
    return hill._trace_root(stability_family(omega), 2.0, alpha_bracket, n_steps, xtol,
                            "stability boundary")


def stability_family(omega):
    """Sinusoidal drives beta(t) = 2 alpha omega sin(omega t), indexed by alpha."""
    return lambda alpha: DriveProfile.sinusoid(finite_product(2.0, alpha, omega), omega)


def polish_loop_beta1(beta0, beta1, omega, n_periods, n_steps=None):
    """Refine the sine amplitude of an offset-sinusoid drive onto an exact loop.

    Holding beta0 fixed, the radial Floquet angle is pushed onto the nearest
    2 pi k / n_periods with 1 <= k <= (n_periods - 1) // 2 (the loop condition
    for the radial factor); at 0 and pi, tr M = +-2 and M is a shear, not a
    loop, so n_periods must be >= 3. Returns the refined beta1.
    """
    n_periods = count(n_periods, "n_periods", 3)
    family = lambda b1: DriveProfile.offset_sinusoid(beta0, b1, omega)  # noqa: E731
    with raise_on_overflow("the monodromy overflows"):
        angle = hill.floquet_angle(float(np.trace(hill.monodromy(family(beta1), n_steps))))
    k = min(max(round(angle * n_periods / TWO_PI), 1), (n_periods - 1) // 2)
    target = k * TWO_PI / n_periods
    bracket = (finite_product(beta1, 1.0 - _BRACKET), finite_product(beta1, 1.0 + _BRACKET))
    return hill._trace_root(family, 2.0 * math.cos(target), bracket, n_steps, 1e-10,
                            "loop angle crossing")


def planar_trajectory(profile, state0, t_end, n_steps=None):
    """Sampled in-plane path; rows are (t, q1, q2, p1, p2).

    The radial Hill flow carries both planes at once, as the columns
    (q1, p1) and (q2, p2) of a 2 x 2 state that each prefix product of the
    frozen blocks maps; each sample is then rotated by the sum of beta dt
    over the frozen segments up to it, as in reconstruct_planar.
    FloatingPointError when the flow or its rotation overflows.
    """
    q1, q2, p1, p2 = np.asarray(state0, dtype=float)
    times, radial, angles = hill._radial_samples(profile, [[q1, q2], [p1, p2]], t_end, n_steps)
    # Rotate the rows (q1, q2) and (p1, p2) of every sample by its angle.
    (c, s), (minus_s, _) = rotation2(angles[:, None])
    first, second = radial[:, :, 0], radial[:, :, 1]
    with raise_on_overflow("the planar trajectory overflows"):
        planes = np.stack([first * c + second * s, first * minus_s + second * c], axis=-1)
        planes += 0.0  # a sum of two -0.0 terms is -0.0; a rotated 0 stays +0.0
    return np.column_stack([times, planes.reshape(times.size, 4)])
