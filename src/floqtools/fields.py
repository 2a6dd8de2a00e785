"""Crossed standing-wave laser traps and the fields hosted on their nodal sets.

Near a common nodal point the trap potentials reduce to the uniform-field
form B(t) x r / 2, so a particle kept close to the nodal set sees the clean
homogeneous field of the solenoid model; the deviation grows quadratically
with the distance measured in wavelengths. The potentials take one point x
or an (n, 3) array of points, one per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linops import count, raise_on_overflow, require_finite

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
        if not math.isfinite(float(self.omega) / float(self.light_speed)):
            raise ValueError("omega and light_speed must give a finite wavenumber omega / "
                             f"light_speed, got {self.omega} / {self.light_speed}")
        for name in ("axis_m", "axis_n", "axis_s"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not abs(np.linalg.norm(v) - 1.0) <= _AXIS_TOL:  # NaN fails too
                raise ValueError(f"{name} must be a unit vector")
            object.__setattr__(self, name, v)
        axes = np.array([self.axis_m, self.axis_n, self.axis_s])
        if not np.abs(np.triu(axes @ axes.T, 1)).max() <= _AXIS_TOL:
            raise ValueError("trap axes must be pairwise orthogonal")

    @property
    def wavenumber(self):
        return self.omega / self.light_speed


def _crossed(a, b, k, x):
    """a sin(k b.x) - b sin(k a.x) at a point x, or at each row of an (n, 3) array."""
    x = np.asarray(x, dtype=float)
    return np.multiply.outer(np.sin(k * (x @ b)), a) - np.multiply.outer(np.sin(k * (x @ a)), b)


def vector_potential_standing(trap, x, t):
    """Two crossed standing waves: A = (A/2) [m sin(k n.x) - n sin(k m.x)] sin(wt).

    Vanishes on the nodal line m.x = n.x = 0 and is antisymmetric under
    swapping the m and n axes.
    """
    bracket = _crossed(trap.axis_m, trap.axis_n, trap.wavenumber, x)
    return 0.5 * trap.amplitude * np.sin(trap.omega * t) * bracket


def vector_potential_rotating(trap, x, t):
    """Superposition of two crossed standing waves a quarter period apart.

    The combination is chosen so that near a nodal point the potential
    approaches B(t) x r / 2 with the rotating field B(t) of
    rotating_nodal_field, with relative error of order (k r)^2.
    """
    k, wt = trap.wavenumber, trap.omega * t
    return 0.5 * trap.amplitude * (np.cos(wt) * _crossed(trap.axis_s, trap.axis_n, k, x)
                                   + np.sin(wt) * _crossed(trap.axis_n, trap.axis_m, k, x))


def rotating_nodal_field(trap, t):
    """Field hosted at the nodal points: (A w / c) (m cos(wt) + s sin(wt))."""
    scale = np.multiply(trap.amplitude, trap.omega) / trap.light_speed
    return scale * (np.cos(trap.omega * t) * trap.axis_m
                    + np.sin(trap.omega * t) * trap.axis_s)


def standing_nodal_field(trap, t):
    """Pulsating field on the standing-wave nodal line: -(A w / c) s sin(wt)."""
    scale = np.multiply(trap.amplitude, trap.omega) / trap.light_speed
    return -scale * np.sin(trap.omega * t) * trap.axis_s


def uniform_field_potential(b, x):
    """Symmetric-gauge potential B x r / 2 of a uniform field, at a point or each row."""
    return 0.5 * np.cross(np.asarray(b, dtype=float), np.asarray(x, dtype=float))


def magnetic_field_fd(potential, x, t, h=1e-5):
    """Curl of a vector potential by central differences, error O(h^2).

    potential is a callable (x, t) -> 3-vector, called once per offset.
    """
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")
    x = np.asarray(x, dtype=float)
    # grad[j, k] = d_j A_k
    grad = np.array([(np.asarray(potential(x + offset, t), dtype=float)
                      - np.asarray(potential(x - offset, t), dtype=float)) / (2.0 * h)
                     for offset in h * np.eye(3)])
    # curl_i = eps_ijk d_j A_k
    return (grad - grad.T)[[1, 2, 0], [2, 0, 1]]


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
    ValueError, a field that overflows FloatingPointError.
    """
    require_finite(radius=radius)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    x = radius * _fibonacci_sphere(count(n_dirs, "n_dirs", 1))
    worst_dev = worst_ref = 0.0
    with raise_on_overflow("the trap field overflows"):
        for t in t_grid:
            require_finite(t_grid=t)
            ref = uniform_field_potential(rotating_nodal_field(trap, t), x)
            dev = vector_potential_rotating(trap, x, t) - ref
            worst_dev = max(worst_dev, float(np.hypot.reduce(dev, axis=1).max()))
            worst_ref = max(worst_ref, float(np.hypot.reduce(ref, axis=1).max()))
    return worst_dev / worst_ref if worst_ref else 0.0
