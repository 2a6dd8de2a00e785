"""Reference computations that the benchmark checks floqtools output against.

Nothing here imports floqtools. The Hill flows come from a tight-tolerance
DOP853 integration (scipy.integrate.solve_ivp) of the equations of motion,
piecewise-constant drives from closed-form rotations, step patterns from
scipy.linalg.expm products, and the spin gap from its closed form written in
another algebraic shape than the package uses.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq, linear_sum_assignment

TWO_PI = 2.0 * math.pi
IVP_RTOL = 1e-12
IVP_ATOL = 1e-13


# ---------------------------------------------------------------- drives

def sin_beta(beta0, omega):
    """beta(t) = beta0 sin(omega t) and its largest |beta| and |beta'|."""
    return (lambda t: beta0 * math.sin(omega * t)), abs(beta0), abs(beta0 * omega)


def offset_sin_beta(beta0, beta1, omega):
    """beta(t) = beta0 + beta1 sin(omega t) and its largest |beta| and |beta'|."""
    return ((lambda t: beta0 + beta1 * math.sin(omega * t)),
            abs(beta0) + abs(beta1), abs(beta1 * omega))


def midpoint_tol(beta_max, dbeta_max, dt, span, scale, factor=0.2):
    """Error allowance for a product of midpoint-frozen Hill blocks.

    Each frozen block errs by O(dt^3 |beta| |beta'|) against the exact flow,
    so n = span / dt of them err by about dt^2 span |beta| |beta'| times the
    size of the flow. `factor` is set from measurements over the workloads'
    parameter ranges with a margin of at least 3.
    """
    return factor * dt * dt * span * beta_max * dbeta_max * max(1.0, scale) + 1e-10


# ---------------------------------------------------------------- Hill flows

def hill_states(beta, state0, times):
    """(q, p) of q'' + beta(t)^2 q = 0 at the given ascending times."""
    times = np.asarray(times, dtype=float)

    def rhs(t, y):
        b = beta(t)
        return (y[1], -b * b * y[0])

    sol = solve_ivp(rhs, (0.0, float(times[-1])), list(state0), method="DOP853",
                    rtol=IVP_RTOL, atol=IVP_ATOL, t_eval=times)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def hill_flow(beta, t_end):
    """2x2 flow map (columns: images of (1, 0) and (0, 1)) over [0, t_end]."""

    def rhs(t, y):
        b2 = beta(t) ** 2
        return (y[1], -b2 * y[0], y[3], -b2 * y[2])

    sol = solve_ivp(rhs, (0.0, float(t_end)), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=IVP_RTOL, atol=IVP_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    return np.array([[y[0], y[2]], [y[1], y[3]]])


def planar_flow(beta, t_end):
    """4x4 flow on (q1, q2, p1, p2) of the planar charge in an axial field.

    H = |p|^2 / 2 + beta^2 |q|^2 / 2 - beta (q1 p2 - q2 p1), integrated
    directly, without the rotating-frame reduction.
    """

    def rhs(t, y):
        b = beta(t)
        out = np.empty_like(y)
        q1, q2, p1, p2 = y[0:4], y[4:8], y[8:12], y[12:16]
        out[0:4] = p1 + b * q2
        out[4:8] = p2 - b * q1
        out[8:12] = -b * b * q1 + b * p2
        out[12:16] = -b * b * q2 - b * p1
        return out

    y0 = np.eye(4).reshape(16)
    sol = solve_ivp(rhs, (0.0, float(t_end)), y0, method="DOP853",
                    rtol=IVP_RTOL, atol=IVP_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(4, 4)


def free_block(beta, dt):
    """Exact flow of q'' + beta^2 q = 0 over dt with constant beta."""
    if beta == 0.0:
        return np.array([[1.0, dt], [0.0, 1.0]])
    c, s = math.cos(beta * dt), math.sin(beta * dt)
    return np.array([[c, s / beta], [-beta * s, c]])


def steps_flow(steps):
    """One-period flow of a piecewise-constant drive [(beta, tau), ...]."""
    m = np.eye(2)
    for beta, tau in steps:
        m = free_block(beta, tau) @ m
    return m


def rect_trace(beta, tau_on, tau_off):
    """Closed-form trace of beta for tau_on followed by 0 for tau_off."""
    phi = beta * tau_on
    return 2.0 * math.cos(phi) - tau_off * beta * math.sin(phi)


def steps_states(steps, state0, times):
    """Exact (q, p) at ascending times for a periodically repeated step drive.

    The state is carried across the drive edges one segment at a time; each
    sample is then reached from the start of its own segment in closed form.
    """
    times = np.asarray(times, dtype=float)
    betas = np.array([b for b, _ in steps])
    taus = np.array([t for _, t in steps])
    period = float(taus.sum())
    n_periods = int(math.ceil(times[-1] / period)) + 1
    starts = (np.arange(n_periods)[:, None] * period
              + np.concatenate([[0.0], np.cumsum(taus)[:-1]])[None, :]).reshape(-1)
    seg_beta = np.tile(betas, n_periods)
    seg_tau = np.tile(taus, n_periods)
    states = np.empty((starts.size, 2))
    state = np.asarray(state0, dtype=float)
    for k in range(starts.size):
        states[k] = state
        state = free_block(seg_beta[k], seg_tau[k]) @ state
    idx = np.searchsorted(starts, times, side="right") - 1
    b = seg_beta[idx]
    dt = times - starts[idx]
    q0, p0 = states[idx, 0], states[idx, 1]
    c, s = np.cos(b * dt), np.sin(b * dt)
    safe = np.where(b == 0.0, 1.0, b)
    s_over_b = np.where(b == 0.0, dt, s / safe)
    return np.stack([c * q0 + s_over_b * p0, -b * s * q0 + c * p0], axis=1)


def first_trace_root(trace, goal, lo, hi, n_scan=64):
    """First x in [lo, hi] where trace(x) crosses goal, bracketed by a scan."""
    xs = np.linspace(lo, hi, n_scan)
    prev = trace(xs[0]) - goal
    for a, b in zip(xs[:-1], xs[1:]):
        cur = trace(b) - goal
        if prev == 0.0:
            return a
        if prev * cur < 0.0:
            return brentq(lambda x: trace(x) - goal, a, b, xtol=1e-13)
        prev = cur
    raise ValueError("no crossing in the scanned interval")


# ---------------------------------------------------------------- spin

def spin_gap(mu, B, omega):
    """omega (sqrt(1 + (2 mu B / omega)^2) - 1), via expm1 and log1p."""
    x = 2.0 * mu * B / omega
    return omega * math.expm1(0.5 * math.log1p(x * x))


def fold(value, omega):
    """value reduced into (-omega/2, omega/2]."""
    r = math.fmod(value, omega)
    if r > 0.5 * omega:
        r -= omega
    elif r <= -0.5 * omega:
        r += omega
    return r


def circle_distance(a, b, omega):
    """Distance of a and b as points on the circle of circumference omega."""
    d = math.fmod(abs(a - b), omega)
    return min(d, omega - d)


# ---------------------------------------------------------------- step patterns

def pattern_unitary(steps):
    """exp(-i tau_n H_n) ... exp(-i tau_1 H_1) by scipy.linalg.expm."""
    u = np.eye(steps[0][0].shape[0], dtype=complex)
    for h, tau in steps:
        u = expm(-1j * tau * h) @ u
    return u


def match_on_circle(energies, unitary, period):
    """Largest |exp(-i e T) - lambda| over the best pairing of the program's
    quasienergies with the eigenvalues of the reference unitary."""
    lam = np.linalg.eigvals(unitary)
    mine = np.exp(-1j * np.asarray(energies) * period)
    cost = np.abs(mine[:, None] - lam[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
