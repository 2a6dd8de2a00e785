"""Finite-dimensional propagators for time-periodic Hamiltonians.

Conventions used throughout the package: hbar = 1, a Hamiltonian H generates
U = exp(-i t H), and quasienergies live in the symmetric zone
(-omega/2, omega/2] with omega = 2 pi / T.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linops import (TWO_PI, _matmul2, chain_matmul, is_finite_number, raise_on_overflow,
                      reduce_to_zone, require_finite, resolve_steps)
from ._linops import default_steps  # noqa: F401  (re-exported: the step default of evolve)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_HERMITIAN_TOL = 1e-12
_UNITARY_TOL = 1e-10

# Two-point Gauss-Legendre nodes and the weights of the fourth-order
# commutator-free exponential scheme built on them.
_GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0

# Steps evolve forms and reduces at once, about 2 MB at d = 2. A power of
# two, so the chunked product is the whole chain (see chain_matmul). 4096
# was the fastest of 2^10 .. 2^14.
_CHUNK = 4096


def _hermitian(m):
    """Exactly symmetrized copy of a Hermitian matrix or (n, d, d) stack.

    Each matrix may deviate from Hermiticity by 1e-12 times the larger of 1
    and its own largest entry. The comparisons are written so that a NaN
    fails them. The halves are formed first, so neither their difference
    nor their sum can overflow, and the sum is exact.
    """
    half = 0.5 * m
    # C order, so the difference and sum below run on matching strides.
    half_dag = np.conj(np.swapaxes(half, -1, -2), order="C")
    defect = np.abs(half - half_dag)
    # Every scale is at least 1, so a defect within the bare tolerance passes
    # without the per-matrix maxima.
    if not defect.max() <= 0.5 * _HERMITIAN_TOL:
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        if not (defect.max(axis=(-2, -1)) <= 0.5 * _HERMITIAN_TOL * scale).all():
            raise ValueError(f"matrix is not Hermitian (defect {2 * float(defect.max()):.3e})")
    return half + half_dag


def as_hermitian(h):
    """Validate Hermiticity and return the exactly symmetrized matrix."""
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _hermitian(m)


def unitarity_defect(u):
    """Max-norm of U^dag U - 1."""
    m = np.asarray(u, dtype=complex)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


@dataclass(frozen=True, eq=False)
class Unitary:
    """A unitary propagator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        defect = unitarity_defect(m)
        if not defect <= _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)


@dataclass(frozen=True, eq=False)
class StepPattern:
    """Piecewise-constant Hamiltonian: (H_i, tau_i) applied in listed order."""

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a step pattern needs at least one (H, tau) step")
        norm = []
        dim = None
        for i, step in enumerate(self.steps):
            if not isinstance(step, (list, tuple)) or len(step) != 2:
                raise ValueError(f"step {i} must be an (H, tau) pair")
            h, tau = step
            if not is_finite_number(tau) or not tau > 0:
                raise ValueError(f"step {i}: duration must be positive and finite")
            hm = as_hermitian(h)
            if dim is None:
                dim = hm.shape[0]
            elif hm.shape[0] != dim:
                raise ValueError(f"step {i}: dimension {hm.shape[0]} does not match {dim}")
            norm.append((hm, float(tau)))
        object.__setattr__(self, "steps", tuple(norm))

    @property
    def period(self):
        return sum(tau for _, tau in self.steps)


@dataclass(frozen=True, eq=False)
class QuasiSpectrum:
    """Quasienergies sorted ascending inside the zone (-omega/2, omega/2]."""

    values: np.ndarray
    omega: float

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        vals = np.sort(np.asarray(self.values, dtype=float))
        half = 0.5 * self.omega
        slack = 1e-9 * self.omega
        if vals.size and not (-half - slack < vals[0] and vals[-1] <= half + slack):
            raise ValueError("quasienergies outside the first zone")
        object.__setattr__(self, "values", vals)


def _expm_batch(hs, dt):
    """exp(-i dt H) for every matrix of an exactly Hermitian (n, d, d) stack.

    Every 2x2 stack, a stack of one included, is exponentiated in closed
    form: with H = a0 + n.sigma, exp(-i dt H) = e^{-i a0 dt} [cos(|n| dt) -
    i S n.sigma] and S = sin(|n| dt) / |n| = dt sinc(|n| dt), sinc(x) =
    sin(x) / x taking its limit 1 at x = 0, so n = 0 needs no branch. The
    sine and cosine share one argument, which keeps U unitary to roundoff at
    any |n| dt. a0, n_z come from the real diagonal and n_x + i n_y from
    H[1, 0] alone, which is exact because every caller passes an exactly
    symmetrized stack: _hermitian makes it so, and the real combinations
    A1 h1 + A2 h2 of such stacks in CF4 keep it so. a0 and n_z are formed
    from the halves of the diagonal, so an entry near the largest float
    stays finite. A stack of d > 2 goes through eigh.
    """
    if hs.shape[1:] == (2, 2):
        upper, lower, off = hs[:, 0, 0].real, hs[:, 1, 1].real, hs[:, 1, 0]
        nz = 0.5 * upper - 0.5 * lower
        norm = np.hypot(nz, np.abs(off))
        angle = norm * dt
        sinc = np.ones_like(angle)
        np.divide(np.sin(angle), angle, out=sinc, where=angle != 0.0)
        phase = np.exp(-1j * dt * (0.5 * upper + 0.5 * lower))
        cos = phase * np.cos(angle)
        sin = -1j * dt * phase * sinc
        u = np.empty(hs.shape, dtype=complex)
        u[:, 0, 0] = cos + sin * nz
        u[:, 0, 1] = sin * off.conj()
        u[:, 1, 0] = sin * off
        u[:, 1, 1] = cos - sin * nz
        return u
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * dt * w)
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)


def expm_hermitian(h, t):
    """exp(-i t H), in closed form at d = 2 and through eigh above; unitary up to roundoff.

    FloatingPointError when the exponent H t overflows from finite inputs.
    """
    hm = as_hermitian(h)
    require_finite(t=t)
    with raise_on_overflow("a step exponent H t overflows"):
        u = _expm_batch(hm[None], float(t))[0]
    return Unitary(u)


def step_propagator(pattern):
    """Ordered product exp(-i tau_n H_n) ... exp(-i tau_1 H_1) over one period."""
    if not isinstance(pattern, StepPattern):
        pattern = StepPattern(tuple(pattern))
    return Unitary(chain_matmul([expm_hermitian(h, tau).matrix for h, tau in pattern.steps]))


def step_evolve(pattern, t):
    """U(t, 0) of a periodically repeated step pattern.

    Whole periods use the one-period propagator; the step straddling t is
    split exactly. divmod gives the exact remainder of t in [0, T).
    """
    if not isinstance(pattern, StepPattern):
        pattern = StepPattern(tuple(pattern))
    require_finite(t=t)
    t = float(t)
    if t < 0:
        raise ValueError("t must be non-negative")
    n_full, remainder = divmod(t, pattern.period)
    u = np.linalg.matrix_power(step_propagator(pattern).matrix, int(n_full))
    left = remainder
    for h, tau in pattern.steps:
        if left <= 0:
            break
        dt = min(tau, left)
        u = expm_hermitian(h, dt).matrix @ u
        left -= dt
    return Unitary(u)


def _sample_hamiltonian(h, times):
    """Stack H(t) over a time grid, preferring one vectorized call.

    A callable may return the full (n, d, d) stack for an array argument; one
    that raises TypeError or ValueError on it is evaluated per time point.
    """
    try:
        hs = np.asarray(h(times), dtype=complex)
    except (TypeError, ValueError):
        hs = None
    if hs is None or hs.ndim != 3 or hs.shape[0] != times.size or hs.shape[1] != hs.shape[2]:
        return np.stack([as_hermitian(h(t)) for t in times])
    return _hermitian(hs)


def evolve(h, t_end, n_steps=None, t_start=0.0):
    """Integrate i dU/dt = H(t) U across [t_start, t_end].

    Each fixed step dt is the fourth-order commutator-free pair of
    exponentials on the two Gauss nodes t + c1 dt, t + c2 dt (Alvermann and
    Fehske, J. Comput. Phys. 230 (2011) 5930):
    exp(-i dt (a2 H1 + a1 H2)) exp(-i dt (a1 H1 + a2 H2)). For d = 2 the
    exponentials are taken in closed form (see _expm_batch) and the products
    entry by entry, by the same 2x2 rule as chain_matmul (see _matmul2);
    larger d uses eigh and np.matmul.
    Each run of _CHUNK steps is formed and reduced by chain_matmul, and the
    run products by one more chain_matmul, so at most _CHUNK steps are held
    whatever n_steps is; _CHUNK is a power of two, so the product is bit for
    bit the chain of all steps at once (see chain_matmul).

    Parameters
    ----------
    h : callable
        Maps a time to a Hermitian matrix; a callable that accepts an array
        of times and returns the matching (n, d, d) stack avoids per-step
        Python overhead.
    t_end, t_start : float
        Integration span.
    n_steps : int, optional
        Number of fixed steps across the span (default: default_steps()).

    Returns
    -------
    Unitary
        U(t_end, t_start), exactly unitary per step up to roundoff.

    Raises
    ------
    FloatingPointError
        When a sampled H(t), a combination of two samples, or a step
        exponent H dt overflows (or turns invalid) from finite inputs.
    """
    n_steps = resolve_steps(n_steps)
    require_finite(t_start=t_start, t_end=t_end)
    t_start, t_end = float(t_start), float(t_end)
    span = t_end - t_start
    if span == 0.0:
        dim = as_hermitian(h(t_start)).shape[0]
        return Unitary(np.eye(dim, dtype=complex))
    dt = span / n_steps

    def cf4_steps(lo, hi):
        base = t_start + dt * np.arange(lo, hi)
        h1 = _sample_hamiltonian(h, base + _GAUSS_C1 * dt)
        h2 = _sample_hamiltonian(h, base + _GAUSS_C2 * dt)
        first = _expm_batch(_CF4_A1 * h1 + _CF4_A2 * h2, dt)
        second = _expm_batch(_CF4_A2 * h1 + _CF4_A1 * h2, dt)
        return _matmul2(second, first)

    # The first overflow while H(t) is sampled, combined or exponentiated
    # raises here, before a NaN reaches the unitarity check.
    with raise_on_overflow("a step of H(t) dt overflows"):
        u = chain_matmul([chain_matmul(cf4_steps(lo, min(lo + _CHUNK, n_steps)))
                          for lo in range(0, n_steps, _CHUNK)])
    return Unitary(u)


def _zone_energies(phases, t_period):
    """Energies -phases / T reduced into the zone, and omega = 2 pi / T."""
    t_period = float(t_period)
    if not 0 < t_period < math.inf:
        raise ValueError("period must be positive and finite")
    omega = TWO_PI / t_period
    return reduce_to_zone(-phases / t_period, omega), omega


def floquet_hamiltonian(u, t_period):
    """Principal-branch generator F with exp(-i T F) = U.

    Every eigenvalue of F lies in (-omega/2, omega/2], omega = 2 pi / T; the
    closed end of the zone owns eigenphases that land exactly on the branch
    cut. Any other generator of the same U differs by multiples of omega on
    eigenspaces. Degenerate eigenphases share one phase, so the unitary
    eigenbasis from the Schur form introduces no ordering ambiguity.
    scipy.linalg is imported here, its one use, so that importing the
    package does not pay for it.
    """
    import scipy.linalg

    tri, z = scipy.linalg.schur(Unitary(u).matrix, output="complex")
    f, _ = _zone_energies(np.angle(np.diagonal(tri)), t_period)
    fm = (z * f) @ z.conj().T
    return 0.5 * (fm + fm.conj().T)


def quasienergies(u, t_period):
    """Quasienergy spectrum of a one-period propagator, sorted ascending."""
    phases = np.angle(np.linalg.eigvals(Unitary(u).matrix))
    return QuasiSpectrum(*_zone_energies(phases, t_period))


def epicycle(h, f, t, n_steps=None):
    """Periodic factor G(t) = U(t, 0) exp(+i t F) of the evolution.

    When F generates the one-period propagator of the drive, G closes up,
    G(n T) = 1, and exp(-i t F) carries the secular part of the motion.
    """
    u = evolve(h, t, n_steps)
    g = u.matrix @ expm_hermitian(f, -float(t)).matrix
    return Unitary(g)
