"""Spin-1/2 in a uniformly rotating transverse magnetic field.

The field sweeps the xy-plane at angular velocity omega while the coupling
strength mu B stays constant. In the co-rotating frame the dynamics is
generated by the time-independent two-level matrix returned by
spin_floquet_generator; the period-T propagator therefore factorizes into a
frame rotation times exp(-i t F).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linops import TWO_PI, finite_product, reduce_to_zone, require_finite, resolve_steps
from .propagator import _DriftError, epicycle, evolve, product_unitary, quasienergies

# Most steps per period the automatic rule of spin_spacing_from_propagator
# and verify_factorization may choose. It bounds run time, about 0.1-0.15 s
# for a spin_spacing_from_propagator point on a 2-core Xeon; evolve's memory
# does not grow with the step count. The rule reaches it near mu B / omega = 6.6e4.
_MAX_AUTO_STEPS = 2 ** 20

# sz A sz of a 2x2 matrix A is A with its off-diagonal entries negated.
_SZ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class SpinParams:
    """Magnetic moment mu, field magnitude B, rotation frequency omega (hbar = 1)."""

    mu: float
    B: float
    omega: float

    def __post_init__(self):
        require_finite(**vars(self))
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not math.isfinite(self.period):
            raise ValueError(f"omega must give a finite period 2 pi / omega, got {self.omega}")
        if self.B < 0:
            raise ValueError("B must be non-negative")

    @property
    def period(self):
        return TWO_PI / self.omega

    @property
    def coupling(self):
        """mu B; FloatingPointError when the finite factors overflow."""
        return finite_product(self.mu, self.B)


def spin_instantaneous(params, t):
    """Frozen two-level Hamiltonian -mu B (cos(wt) sx - sin(wt) sy).

    The field angle runs clockwise from +x; this sense is the one for which
    the rotating-frame factorization holds with the generator below.
    Broadcasts over an array of times, returning the (n, 2, 2) stack.
    """
    # + 0.0: sin(-0.0) is -0.0, where the imaginary part of cos + 1j sin is +0.0.
    angle = params.omega * np.asarray(t) + 0.0
    row = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=row.real)
    np.sin(angle, out=row.imag)
    row *= -params.coupling
    h = np.zeros(angle.shape + (2, 2), dtype=complex)
    h[..., 0, 1] = row
    np.conjugate(row, out=h[..., 1, 0])
    return h


def spin_floquet_generator(params):
    """Rotating-frame generator [[w/2, -mu B], [-mu B, -w/2]].

    Its eigenvalues +-sqrt((mu B)^2 + (w/2)^2) stay apart even as B -> 0,
    which is why this branch of the generator carries no direct energy
    meaning; only differences modulo omega are observable.
    """
    off = -params.coupling
    half = 0.5 * params.omega
    return np.array([[half, off], [off, -half]], dtype=complex)


def rotating_frame_factor(params, t):
    """Frame rotation diag(e^{+i w t / 2}, e^{-i w t / 2})."""
    phase = 0.5 * params.omega * t
    return np.diag([np.exp(1j * phase), np.exp(-1j * phase)])


def verify_factorization(params, t_grid, n_steps=None):
    """Max-norm distance of the epicycle U(t,0) exp(+i t F) from frame(t) over t_grid.

    The factorization U(t,0) = frame(t) exp(-i t F) makes them equal. U(t,0)
    comes from evolve; n_steps counts integrator steps per drive period
    (default: the rule of spin_spacing_from_propagator, with its cap).
    """
    per_period = _auto_steps(params) if n_steps is None else resolve_steps(n_steps)
    generator = spin_floquet_generator(params)
    period = params.period
    worst = 0.0
    for t in t_grid:
        require_finite(t_grid=t)
        t = float(t)
        n = max(1, math.ceil(per_period * abs(t) / period))
        g = epicycle(lambda s: spin_instantaneous(params, s), generator, t, n).matrix
        worst = max(worst, float(np.abs(g - rotating_frame_factor(params, t)).max()))
    return worst


def spin_quasienergy_spacing(params):
    """Resonance spacing omega (sqrt(1 + (2 mu B / omega)^2) - 1).

    Cancellation-free for small couplings; limits: 2 mu B * (mu B / omega)
    for 2 mu B << omega and 2 mu B - omega for 2 mu B >> omega.
    """
    x = abs(2.0 * params.coupling) / params.omega
    return params.omega * x * x / (1.0 + math.hypot(1.0, x))


def _auto_steps(params):
    # Fourth-order stepping: the per-period step count grows like
    # (coupling * period)^(3/4) to hold the quasienergy gap error near 1e-9
    # of omega across mu B / omega up to 1e3. The floor takes over below
    # mu B / omega ~ 6. Worst folded-gap error, in units of omega, and total
    # steps over the 50 ratios of np.logspace(-3, 3, 50):
    #
    #   floor   worst error   total steps
    #   4096    3.47e-10      373,888
    #   1024    3.53e-10      264,478
    #    512    4.10e-10
    #   none    4.2e-7
    #
    # so 1024 is the lowest of these floors that keeps the rule's own error.
    # Above _MAX_AUTO_STEPS the run takes too long, so it fails before any
    # step is taken.
    phase = finite_product(abs(params.coupling), params.period)
    n_steps = max(1024, int(math.ceil(64.0 * phase ** 0.75)))
    if n_steps > _MAX_AUTO_STEPS:
        raise ValueError(
            f"mu B / omega = {abs(params.coupling) / params.omega:.6g} needs {n_steps} "
            f"steps per period, more than the automatic limit of {_MAX_AUTO_STEPS}")
    return n_steps


def _period_propagator(params, n_steps=None):
    """U(T) = V^T V, V = U(T/2, 0) = sz W^T sz W, W = U(T/4, 0) over ceil(n_steps / 4) steps.

    The drive has two mirror symmetries, both properties of the drive, not
    of the closed form: its field angle mirrors about T/2, so H(T - t) =
    H(t)^T, and about T/4, so H(T/2 - t) = sz H(t)^T sz. As 1 - c1 = c2,
    each CF4 step of [T/4, T/2] is sz (mirror step in [0, T/4])^T sz, and
    each step of [T/2, T] the transpose of its mirror step in [0, T/2]. So
    V^T V is the whole-period product at 4 ceil(n_steps / 4) steps up to
    rounding; the sz conjugation only flips the signs of the off-diagonal
    entries, so it is exact. A drift of W or V^T V names that count.
    """
    per_period = _auto_steps(params) if n_steps is None else resolve_steps(n_steps)
    quarter = -(-per_period // 4)
    try:
        w = evolve(lambda s: spin_instantaneous(params, s), 0.25 * params.period, quarter).matrix
    except _DriftError as exc:
        raise _DriftError(4 * quarter, exc.args[1]) from None
    v = (w.T * _SZ_SIGNS) @ w
    return product_unitary(v.T @ v, 4 * quarter)


def spin_spacing_from_propagator(params, n_steps=None):
    """Resonance spacing recovered from one integrated drive period.

    n_steps counts steps per period, rounded up to a multiple of 4
    (_period_propagator). The one-period propagator determines quasienergies
    only modulo omega, so the measurable content is the zone-folded gap; the
    whole multiple of omega is restored from the closed-form branch before
    returning. Agrees with spin_quasienergy_spacing to the integrator tolerance.
    """
    period = params.period
    eps = quasienergies(_period_propagator(params, n_steps), period).values
    gap = abs(reduce_to_zone(float(eps[-1] - eps[0]), params.omega))
    exact = spin_quasienergy_spacing(params)
    residue = reduce_to_zone(exact, params.omega)
    base = exact - residue
    return base + (gap if residue >= 0 else -gap)
