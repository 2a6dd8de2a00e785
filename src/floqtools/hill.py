"""Monodromy, Floquet frequency, and loop search for q'' + beta(t)^2 q = 0.

The classical one-period flow map (monodromy) fully determines the stability
class and the quasi-level spacing of the pulsed oscillator; an evolution
loop is a drive whose monodromy power returns to the identity.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._linops import (TWO_PI, chain_matmul, count, oscillator_blocks, prefix_products,
                      raise_on_overflow, reduce_to_zone, require_finite, resolve_steps)
from .profiles import DriveProfile, integration_segments, sample_segments

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"

_PARABOLIC_TOL = 1e-12
_LOOP_TOL = 1e-8


class NoRootError(RuntimeError):
    """A root bracket does not contain a sign change."""


@dataclass(frozen=True)
class FloquetResult:
    """Stability class, trace, Floquet frequency, and loop order of a monodromy."""

    stability: str
    trace: float
    omega_F: Optional[float]
    loop_order: Optional[int]


class SweepPoint(NamedTuple):
    beta0: float
    trace: float
    stability: str
    omega_F: Optional[float]


def monodromy(profile, n_steps=None):
    """One-period flow map of (q, p) for q'' + beta(t)^2 q = 0.

    Constant and steps profiles are composed from exact rotation/shear
    blocks (n_steps is only checked); sinusoidal profiles use n_steps
    midpoint-frozen blocks per period, each exactly area preserving. The
    first overflow or invalid value raises FloatingPointError.
    """
    with raise_on_overflow("the monodromy overflows"):
        dts, betas = integration_segments(profile, 0.0, profile.period, n_steps)
        return chain_matmul(oscillator_blocks(betas, dts))


def classify_trace(tr):
    """Stability class of a monodromy with trace tr.

    Elliptic for |tr| < 2, hyperbolic for |tr| > 2, parabolic within
    1e-12 of the boundary.
    """
    if abs(abs(tr) - 2.0) <= _PARABOLIC_TOL:
        return PARABOLIC
    return ELLIPTIC if abs(tr) < 2.0 else HYPERBOLIC


def floquet_angle(tr):
    """Floquet angle omega_F T in [0, pi] solving cos(omega_F T) = tr / 2.

    The cosine is clamped to [-1, 1], so a trace that round-off pushed just
    past +-2 maps onto the boundary angle.
    """
    return math.acos(min(1.0, max(-1.0, 0.5 * tr)))


def floquet_result(m, t_period, n_max=64):
    """Classify a monodromy matrix and search for its loop order.

    The stability class comes from classify_trace and the Floquet frequency
    from floquet_angle(tr) / T, both absent for a hyperbolic monodromy;
    loop_order is the least n <= n_max with loop_deviation(M, n) below 1e-8,
    absent otherwise, so it is the order osc-loop-find reports. The powers
    are formed one at a time and the search stops at the first that closes;
    if a power overflows before any closes, FloatingPointError is raised.
    """
    n_max = count(n_max, "n_max", 0)
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"monodromy must be a 2x2 matrix, got shape {m.shape}")
    if not all(map(math.isfinite, m.flat)):
        raise ValueError("monodromy must be finite")
    if not 0 < t_period < math.inf:
        raise ValueError("period must be positive and finite")
    # np.trace's sum, which starts from 0.0 (so a -0.0 diagonal gives 0.0), on
    # NumPy scalars, so that an overflow still raises under raise_on_overflow.
    tr = float(0.0 + m[0, 0] + m[1, 1])
    stability = classify_trace(tr)
    omega_f = loop_order = None
    if stability != HYPERBOLIC:
        omega_f = floquet_angle(tr) / t_period
        loop_order = next((k for k, defect in enumerate(_closure_defects(m, n_max), 1)
                           if defect < _LOOP_TOL), None)
    return FloquetResult(stability, tr, omega_f, loop_order)


def loop_deviation(m, n_periods):
    """||M^n - 1||_max of a 2x2 matrix M, the closure defect after n periods.

    The last value of _closure_defects: n sequential products, so the cost
    grows as O(n) time (about 0.5 us a period) in O(1) memory.
    """
    return deque(_closure_defects(m, count(n_periods, "n_periods", 1)), maxlen=1)[0]


def _closure_defects(m, n):
    """Yield ||M^k - 1||_max for k = 1..n of a 2x2 matrix M.

    One sequential pass M^k = M M^(k-1) in Python floats, each entry by
    chain_matmul's rule x[i, 0] y[0, j] + x[i, 1] y[1, j], keeping only the
    current power. On ill-conditioned monodromies it matches the verdict of
    exact powers more often than repeated squaring (np.linalg.matrix_power)
    does. Reaching a power that overflows (is not finite) raises
    FloatingPointError.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    a, b, c, d = m.ravel().tolist()
    p00, p01, p10, p11 = a, b, c, d
    for k in range(1, n + 1):
        if not (math.isfinite(p00) and math.isfinite(p01)
                and math.isfinite(p10) and math.isfinite(p11)):
            raise FloatingPointError("result is not finite: a power of the monodromy overflows")
        yield max(abs(p00 - 1.0), abs(p01), abs(p10), abs(p11 - 1.0))
        if k < n:
            p00, p01, p10, p11 = (a * p00 + b * p10, a * p01 + b * p11,
                                  c * p00 + d * p10, c * p01 + d * p11)


def _trace_root(family, goal, bracket, n_steps, xtol, what):
    """Parameter x in bracket with tr monodromy(family(x)) == goal, by Brent's method.

    brentq reports a bracket without a sign change as a ValueError, and any
    ValueError inside it becomes NoRootError naming `what`. So n_steps and
    the family members at both ends are checked before brentq starts, and a
    configuration error raises its own message. Brent's method runs under
    raise_on_overflow, so a monodromy that overflows raises
    FloatingPointError, which is not a ValueError. scipy.optimize is
    imported here, on the first root search, so that importing the package
    does not pay for it.
    """
    from scipy.optimize import brentq

    n_steps = resolve_steps(n_steps)
    lo, hi = float(bracket[0]), float(bracket[1])
    family(lo), family(hi)
    try:
        with raise_on_overflow("the monodromy overflows"):
            return float(brentq(lambda x: float(np.trace(monodromy(family(x), n_steps))) - goal,
                                lo, hi, xtol=xtol))
    except ValueError as exc:
        raise NoRootError(f"no {what} inside bracket ({lo:g}, {hi:g})") from exc


def find_loop_beta(family, target_angle, bracket, n_steps=None, xtol=1e-8):
    """Drive amplitude at which the Floquet angle omega_F T crosses target_angle.

    Parameters
    ----------
    family : callable
        Maps an amplitude beta0 to a DriveProfile.
    target_angle : float
        Desired one-period rotation angle, typically 2 pi k / n for a loop
        of order n.
    bracket : (float, float)
        Amplitude interval with a sign change of tr M - 2 cos(target_angle).

    Brent's method runs on the trace rather than on the angle itself, so the
    bracket may graze instability without arccos domain failures.

    Raises NoRootError when the bracket holds no sign change.
    """
    return _trace_root(family, 2.0 * math.cos(target_angle), bracket, n_steps, xtol,
                       "Floquet-angle crossing")


def loop_order_for_angle(target_angle, n_max=512):
    """Smallest n with n * target_angle an integer multiple of 2 pi, if any.

    The angle is first reduced exactly into (-pi, pi] as atan2(sin a, cos a);
    x - 2 pi ceil(x / 2 pi - 1/2) loses every digit once |x| passes 1e15.
    """
    require_finite(target_angle=target_angle)
    angle = math.atan2(math.sin(target_angle), math.cos(target_angle))
    for n in range(1, count(n_max, "n_max", 0) + 1):
        if abs(reduce_to_zone(n * angle, TWO_PI)) < 1e-9 * max(1.0, n):
            return n
    return None


def omega_F_scan(family, beta0_grid, n_steps=None):
    """Table of (beta0, trace, stability, omega_F) across an amplitude grid.

    Every profile is built before the first monodromy, so a profile error
    raises its own message; a monodromy that overflows raises
    FloatingPointError.
    """
    profiles = [(float(beta0), family(beta0)) for beta0 in beta0_grid]
    rows = []
    with raise_on_overflow("the monodromy overflows"):
        for beta0, profile in profiles:
            res = floquet_result(monodromy(profile, n_steps), profile.period, n_max=0)
            rows.append(SweepPoint(beta0, res.trace, res.stability, res.omega_F))
    return rows


def oscillator_quasienergies(omega_f, omega, n_levels):
    """Ladder omega_F (n + 1/2), each level reduced to (-omega/2, omega/2]."""
    if not 0 <= omega_f < math.inf:
        raise ValueError("omega_F must be non-negative and finite")
    if not 0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    levels = omega_f * (np.arange(count(n_levels, "n_levels", 1)) + 0.5)
    return reduce_to_zone(levels, omega)


def _radial_samples(profile, state0, t_end, n_steps):
    """Radial flow of q'' + beta(t)^2 q = 0 on n_steps uniform sample intervals.

    state0 is a (q, p) vector or a 2 x k array of them as columns. Returns
    (times, states, angles): states[k] is the image of state0 at times[k]
    and angles[k] the sum of beta dt up to it. The grid is cut once by
    sample_segments, so steps profiles are split at the drive
    discontinuities and the other kinds take one midpoint per interval.
    Each state is a prefix product of the frozen blocks applied to state0,
    which prefix_products carries from block to block of its scan; it agrees
    with one-at-a-time stepping to roundoff.

    Raises ValueError for a t_end or state0 that is not finite, and
    FloatingPointError at the first overflow or invalid value.
    """
    require_finite(t_end=t_end)
    state = np.asarray(state0, dtype=float)
    if not np.isfinite(state).all():
        raise ValueError("state0 must be finite")
    times = np.linspace(0.0, float(t_end), resolve_steps(n_steps) + 1)
    dts, betas, ends = sample_segments(profile, times)
    with raise_on_overflow("the sampled radial flow overflows"):
        flow = prefix_products(oscillator_blocks(betas, dts), state)
        flow += 0.0  # a sum of two -0.0 terms is -0.0; a state that is 0 stays +0.0
        states = np.concatenate([state[None], flow])
        angles = np.concatenate([[0.0], np.cumsum(betas * dts)])
    return times, states[ends], angles[ends]


def classical_trajectory(profile, state0, t_end, n_steps=None):
    """Phase-plane path of (q, p), sampled on a uniform grid.

    Returns an array with rows (t, q, p); steps profiles are integrated
    exactly by splitting the grid at the drive discontinuities. Each state
    is a prefix product of the frozen blocks applied to state0.
    """
    times, states, _ = _radial_samples(profile, state0, t_end, n_steps)
    return np.column_stack([times, states])


def constant_family(period=1.0) -> Callable[[float], DriveProfile]:
    """Time-independent drives beta(t) = beta0."""
    return lambda beta0: DriveProfile.constant(beta0, period)


def rectangular_family(period=1.0, duty=0.5) -> Callable[[float], DriveProfile]:
    """Rectangular pulses: beta0 for duty*T, then 0 for the rest of the period."""
    return lambda beta0: DriveProfile.from_steps(
        ((beta0, duty * period), (0.0, (1.0 - duty) * period)))


def sinusoid_family(omega=TWO_PI) -> Callable[[float], DriveProfile]:
    """Sinusoidal drives beta(t) = beta0 sin(omega t)."""
    return lambda beta0: DriveProfile.sinusoid(beta0, omega)
