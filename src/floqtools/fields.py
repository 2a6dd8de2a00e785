"""Crossed standing-wave laser traps and the fields hosted on their nodal sets.

Near a common nodal point the trap potentials reduce to the uniform-field
form B(t) x r / 2, so a particle kept close to the nodal set sees the clean
homogeneous field of the solenoid model; the deviation grows quadratically
with the distance measured in wavelengths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linops import count, require_finite

_AXIS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TrapField:
    """Amplitude, frequency, light speed, and an orthonormal axis triad."""

    amplitude: float
    omega: float
    light_speed: float
    axis_m: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    axis_n: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    axis_s: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        require_finite(amplitude=self.amplitude, omega=self.omega, light_speed=self.light_speed)
        for name in ("omega", "light_speed"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        axes = []
        for name in ("axis_m", "axis_n", "axis_s"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not abs(np.linalg.norm(v) - 1.0) <= _AXIS_TOL:  # NaN fails too
                raise ValueError(f"{name} must be a unit vector")
            axes.append(v)
            object.__setattr__(self, name, v)
        for i in range(3):
            for j in range(i + 1, 3):
                if not abs(float(axes[i] @ axes[j])) <= _AXIS_TOL:
                    raise ValueError("trap axes must be pairwise orthogonal")

    @property
    def wavenumber(self):
        return self.omega / self.light_speed


def vector_potential_standing(trap, x, t):
    """Two crossed standing waves: A = (A/2) [m sin(k n.x) - n sin(k m.x)] sin(wt).

    Vanishes on the nodal line m.x = n.x = 0 and is antisymmetric under
    swapping the m and n axes.
    """
    x = np.asarray(x, dtype=float)
    k = trap.wavenumber
    bracket = (trap.axis_m * math.sin(k * float(trap.axis_n @ x))
               - trap.axis_n * math.sin(k * float(trap.axis_m @ x)))
    return 0.5 * trap.amplitude * math.sin(trap.omega * t) * bracket


def vector_potential_rotating(trap, x, t):
    """Superposition of two crossed standing waves a quarter period apart.

    The combination is chosen so that near a nodal point the potential
    approaches B(t) x r / 2 with the rotating field B(t) of
    rotating_nodal_field, with relative error of order (k r)^2.
    """
    x = np.asarray(x, dtype=float)
    k = trap.wavenumber
    cos_bracket = (trap.axis_s * math.sin(k * float(trap.axis_n @ x))
                   - trap.axis_n * math.sin(k * float(trap.axis_s @ x)))
    sin_bracket = (trap.axis_n * math.sin(k * float(trap.axis_m @ x))
                   - trap.axis_m * math.sin(k * float(trap.axis_n @ x)))
    return 0.5 * trap.amplitude * (math.cos(trap.omega * t) * cos_bracket
                                   + math.sin(trap.omega * t) * sin_bracket)


def rotating_nodal_field(trap, t):
    """Field hosted at the nodal points: (A w / c) (m cos(wt) + s sin(wt))."""
    scale = trap.amplitude * trap.omega / trap.light_speed
    return scale * (math.cos(trap.omega * t) * trap.axis_m
                    + math.sin(trap.omega * t) * trap.axis_s)


def standing_nodal_field(trap, t):
    """Pulsating field on the standing-wave nodal line: -(A w / c) s sin(wt)."""
    scale = trap.amplitude * trap.omega / trap.light_speed
    return -scale * math.sin(trap.omega * t) * trap.axis_s


def uniform_field_potential(b, x):
    """Symmetric-gauge potential B x r / 2 of a uniform field."""
    return 0.5 * np.cross(np.asarray(b, dtype=float), np.asarray(x, dtype=float))


def magnetic_field_fd(potential, x, t, h=1e-5):
    """Curl of a vector potential by central differences, error O(h^2).

    potential is a callable (x, t) -> 3-vector.
    """
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty((3, 3))
    for j in range(3):
        offset = np.zeros(3)
        offset[j] = h
        plus = np.asarray(potential(x + offset, t), dtype=float)
        minus = np.asarray(potential(x - offset, t), dtype=float)
        grad[j] = (plus - minus) / (2.0 * h)
    # curl_i = eps_ijk d_j A_k
    return np.array([
        grad[1, 2] - grad[2, 1],
        grad[2, 0] - grad[0, 2],
        grad[0, 1] - grad[1, 0],
    ])


def _fibonacci_sphere(n):
    idx = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * idx
    z = 1.0 - 2.0 * idx / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def nodal_approx_error(trap, radius, t_grid, n_dirs=64):
    """Relative deviation of the rotating trap potential from B(t) x r / 2.

    Maximum of |A(x, t) - B(t) x r / 2| over a sphere of the given radius and
    the time grid, normalized by the largest |B(t) x r / 2| over the same
    set. Scales as (k radius)^2. A radius or time that is not finite raises
    ValueError.
    """
    require_finite(radius=radius)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    dirs = _fibonacci_sphere(count(n_dirs, "n_dirs", 1))
    worst_dev = 0.0
    worst_ref = 0.0
    for t in t_grid:
        require_finite(t_grid=t)
        b = rotating_nodal_field(trap, t)
        for direction in dirs:
            x = radius * direction
            ref = uniform_field_potential(b, x)
            dev = vector_potential_rotating(trap, x, t) - ref
            worst_dev = max(worst_dev, float(np.linalg.norm(dev)))
            worst_ref = max(worst_ref, float(np.linalg.norm(ref)))
    if worst_ref == 0.0:
        return 0.0
    return worst_dev / worst_ref
