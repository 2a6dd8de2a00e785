"""Finite-dimensional propagators for time-periodic Hamiltonians.

Conventions used throughout the package: hbar = 1, a Hamiltonian H generates
U = exp(-i t H), and quasienergies live in the symmetric zone
(-omega/2, omega/2] with omega = 2 pi / T.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linops import (TWO_PI, _entry_product, chain_matmul, is_finite_number, raise_on_overflow,
                      reduce_to_zone, require_finite, require_positive, resolve_steps)
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


def _require_hermitian(defect, m):
    """ValueError unless every matrix of m is Hermitian within tolerance.

    defect holds |half - half^dag| of m, entry by entry or already reduced to
    its largest value per matrix. Each matrix may deviate by 1e-12 times the
    larger of 1 and its own largest entry; the message names the largest
    defect of a failing matrix. The comparisons are written so that a NaN
    fails them, and an infinite defect fails even where an infinite entry
    makes the scale infinite.
    """
    # Every scale is at least 1, so a defect within the bare tolerance passes
    # without the per-matrix maxima; an empty stack has no defect.
    if not defect.max(initial=0.0) <= 0.5 * _HERMITIAN_TOL:
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        worst = defect.reshape(scale.shape + (-1,)).max(axis=-1)
        failing = worst[~((worst <= 0.5 * _HERMITIAN_TOL * scale) & (worst < math.inf))]
        if failing.size:
            raise ValueError(f"matrix is not Hermitian (defect {2 * float(failing.max()):.3e})")


def _hermitian(m):
    """Exactly symmetrized copy of a Hermitian matrix or (n, d, d) stack.

    The halves are formed first, so neither their difference nor their sum
    can overflow, and the sum is exact. The halving turns an infinite entry
    into NaN parts, and so its defect into NaN or infinity, which fails the
    check; invalid values are ignored there, so it fails without a
    RuntimeWarning.
    """
    with np.errstate(invalid="ignore"):
        half = 0.5 * m
        # C order, so the difference and sum below run on matching strides.
        half_dag = np.conj(np.swapaxes(half, -1, -2), order="C")
        defect = np.abs(half - half_dag)
    _require_hermitian(defect, m)
    return half + half_dag


def _hermitian2(m):
    """Entries (upper, lower, off) of _hermitian(m) for an (n, 2, 2) stack, bit for bit.

    upper and lower are the real diagonals and off the entry [1, 0]; [0, 1]
    is its conjugate. The halves, the defect and its check are _hermitian's,
    formed on the four entry rows instead of the stack. The defect of a
    diagonal entry is |h - conj(h)|, not |Im h|, so a NaN or infinite real
    part fails the check as well.
    """
    with np.errstate(invalid="ignore"):
        h00, h11 = 0.5 * m[:, 0, 0], 0.5 * m[:, 1, 1]
        h01, h10 = 0.5 * m[:, 0, 1], 0.5 * m[:, 1, 0]
        defect = np.abs(h00 - h00.conj())
        np.maximum(defect, np.abs(h11 - h11.conj()), out=defect)
        np.maximum(defect, np.abs(h10 - h01.conj()), out=defect)
    _require_hermitian(defect, m)
    return h00.real + h00.real, h11.real + h11.real, h10 + h01.conj()


def _square(m, ndim=2):
    """m if it is one square matrix, or (ndim 3) a stack; the error names one matrix's shape."""
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape[ndim - 2:]}")
    return m


def as_hermitian(h):
    """Validate Hermiticity and return the exactly symmetrized matrix."""
    return _hermitian(_square(np.asarray(h, dtype=complex)))


def unitarity_defect(u):
    """Max-norm of U^dag U - 1."""
    m = np.asarray(u, dtype=complex)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


@dataclass(frozen=True, eq=False)
class Unitary:
    """A unitary propagator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _square(np.asarray(self.matrix, dtype=complex))
        defect = unitarity_defect(m)
        if not defect <= _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)


@dataclass(frozen=True, eq=False)
class StepPattern:
    """Piecewise-constant Hamiltonian: (H_i, tau_i) applied in listed order.

    hamiltonians is the checked, symmetrized (n, d, d) stack and durations the
    (n,) taus, both read-only; period is the taus' sum.
    """

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a step pattern needs at least one (H, tau) step")
        mats, taus = [], []
        for i, step in enumerate(self.steps):
            if not isinstance(step, (list, tuple)) or len(step) != 2:
                raise ValueError(f"step {i} must be an (H, tau) pair")
            h, tau = step
            if not is_finite_number(tau) or not tau > 0:
                raise ValueError(f"step {i}: duration must be positive and finite")
            m = _square(np.asarray(h, dtype=complex))
            if mats and len(m) != len(mats[0]):
                raise ValueError(f"step {i}: dimension {len(m)} does not match {len(mats[0])}")
            mats.append(m)
            taus.append(float(tau))
        hamiltonians, durations = _hermitian(np.stack(mats)), np.array(taus)
        hamiltonians.flags.writeable = durations.flags.writeable = False
        object.__setattr__(self, "hamiltonians", hamiltonians)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "steps", tuple(zip(hamiltonians, taus)))
        # A sequential sum: np.sum adds pairwise, which rounds differently.
        object.__setattr__(self, "period", sum(taus))


@dataclass(frozen=True, eq=False)
class QuasiSpectrum:
    """Quasienergies sorted ascending inside the zone (-omega/2, omega/2]."""

    values: np.ndarray
    omega: float

    def __post_init__(self):
        require_positive(omega=self.omega)
        vals = np.sort(np.asarray(self.values, dtype=float))
        half = 0.5 * self.omega
        slack = 1e-9 * self.omega
        if vals.size and not (-half - slack < vals[0] and vals[-1] <= half + slack):
            raise ValueError("quasienergies outside the first zone")
        object.__setattr__(self, "values", vals)


def _expm2(upper, lower, off, dt):
    """exp(-i dt H) for each exactly Hermitian 2x2 H given by its entry rows.

    H = [[upper, conj(off)], [off, lower]] = a0 + n.sigma, and exp(-i dt H) =
    e^{-i a0 dt} [cos(|n| dt) - i S n.sigma] with S = sin(|n| dt) / |n| =
    dt sinc(|n| dt), sinc(x) = sin(x) / x taking its limit 1 at x = 0, so
    n = 0 needs no branch. The sine and cosine share one argument, which
    keeps U unitary to roundoff at any |n| dt. a0 and n_z are formed from
    the halves of the diagonal, so an entry near the largest float stays
    finite. The steps are written entry-major, into the contiguous (2, 2, n)
    array that is returned.
    """
    nz = 0.5 * upper - 0.5 * lower
    norm = np.hypot(nz, np.abs(off))
    angle = norm * dt
    sinc = np.ones_like(angle)
    np.divide(np.sin(angle), angle, out=sinc, where=angle != 0.0)
    phase = np.exp(-1j * dt * (0.5 * upper + 0.5 * lower))
    cos = phase * np.cos(angle)
    sin = -1j * dt * phase * sinc
    u = np.empty((2, 2, angle.size), dtype=complex)
    np.add(cos, sin * nz, out=u[0, 0])
    np.multiply(sin, off.conj(), out=u[0, 1])
    np.multiply(sin, off, out=u[1, 0])
    np.subtract(cos, sin * nz, out=u[1, 1])
    return u


def _expm_batch(hs, dt):
    """exp(-i dt H) for every matrix of an exactly Hermitian (n, d, d) stack, dt scalar or (n,).

    Every 2x2 stack, a stack of one included, is exponentiated in closed
    form by _expm2, read from the real diagonal and H[1, 0] alone, and
    returned as the (n, 2, 2) view of its entry-major array. That is exact
    because every caller passes an exactly symmetrized stack. A stack of
    d > 2 goes through eigh.
    """
    if hs.shape[1:] == (2, 2):
        return _expm2(hs[:, 0, 0].real, hs[:, 1, 1].real, hs[:, 1, 0], dt).transpose(2, 0, 1)
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * (dt[:, None] if np.ndim(dt) else dt) * w)
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)


def expm_hermitian(h, t):
    """exp(-i t H), in closed form at d = 2 and through eigh above; unitary up to roundoff.

    An (n, d, d) stack, with t one duration or one per matrix, gives the array
    of its steps (none for a (0, d, d) stack) from one Hermiticity check and
    one batched exponential. FloatingPointError when H t overflows.
    """
    m = np.asarray(h, dtype=complex)
    hs = _hermitian(_square(m, 3)) if m.ndim == 3 else as_hermitian(m)[None]
    if not (m.ndim == 3 and np.ndim(t)):
        require_finite(t=t)
    elif np.shape(t) != hs.shape[:1] or not np.isfinite(t).all():
        raise ValueError(f"t must be finite, one duration per matrix, got shape {np.shape(t)}")
    with raise_on_overflow("a step exponent H t overflows"):
        u = _expm_batch(hs, np.asarray(t, dtype=float) if np.ndim(t) else float(t))
    return u if m.ndim == 3 else Unitary(u[0])


def step_propagator(pattern):
    """Ordered product exp(-i tau_n H_n) ... exp(-i tau_1 H_1) over one period."""
    pattern = pattern if isinstance(pattern, StepPattern) else StepPattern(tuple(pattern))
    u = chain_matmul(expm_hermitian(pattern.hamiltonians, pattern.durations))
    return product_unitary(u, len(pattern.durations))


def step_evolve(pattern, t):
    """U(t, 0) of a periodically repeated step pattern.

    Whole periods are a power of the one-period propagator, and the step
    straddling t is split at the exact remainder divmod(t, T) in [0, T).
    Overflow and drift from unitary raise FloatingPointError.
    """
    pattern = pattern if isinstance(pattern, StepPattern) else StepPattern(tuple(pattern))
    require_finite(t=t)
    t = float(t)
    if t < 0:
        raise ValueError("t must be non-negative")
    n_full, remainder = divmod(t, pattern.period)
    one_period = step_propagator(pattern).matrix
    with raise_on_overflow("the power of the one-period propagator overflows"):
        u = np.linalg.matrix_power(one_period, int(n_full))
    dts, left = [], remainder
    for tau in pattern.durations.tolist():
        if left > 0:
            dts.append(min(tau, left))
            left -= dts[-1]
    u = chain_matmul([u, *expm_hermitian(pattern.hamiltonians[:len(dts)], dts)])
    return product_unitary(u, int(n_full) * len(pattern.durations) + len(dts))


def _sample_hamiltonian(h, times):
    """Stack H(t) over a time grid, preferring one vectorized call.

    A callable may return the full (n, d, d) stack for an array argument; one
    that raises TypeError or ValueError on it, or returns another shape, is
    evaluated per time point. Either stack is checked for square matrices
    only; the caller checks its Hermiticity, once.
    """
    try:
        hs = np.asarray(h(times), dtype=complex)
    except (TypeError, ValueError):
        hs = None
    if hs is None or hs.ndim != 3 or hs.shape[0] != times.size or hs.shape[1] != hs.shape[2]:
        hs = np.stack([np.asarray(h(t), dtype=complex) for t in times])
    return _square(hs, 3)


def evolve(h, t_end, n_steps=None, t_start=0.0):
    """Integrate i dU/dt = H(t) U across [t_start, t_end].

    Each fixed step dt is the fourth-order commutator-free pair of
    exponentials on the two Gauss nodes t + c1 dt, t + c2 dt (Alvermann and
    Fehske, J. Comput. Phys. 230 (2011) 5930):
    exp(-i dt (a2 H1 + a1 H2)) exp(-i dt (a1 H1 + a2 H2)). Each run of
    _CHUNK steps samples both nodes of all its steps in one call, on the
    interleaved grid, checks the samples once as one stack, and is reduced
    by chain_matmul; the run products take one more chain_matmul. So at
    most _CHUNK steps are held whatever n_steps is, and, _CHUNK being a
    power of two, the product is bit for bit the chain of all steps at once.
    At d = 2 each step is formed on the three independent entries of H
    (_hermitian2, _expm2, _entry_product) in the entry-major layout, bit for
    bit the same steps as on full matrices; larger d uses _hermitian, eigh
    and np.matmul.

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
        exponent H dt overflows (or turns invalid) from finite inputs, or
        the rounding of some 5e5 steps or more drifts the product from unitary.
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
        hs = _sample_hamiltonian(h, np.add.outer(base, [_GAUSS_C1 * dt, _GAUSS_C2 * dt]).ravel())
        if hs.shape[1:] == (2, 2):
            rows = _hermitian2(hs)
            first = _expm2(*[_CF4_A1 * x[0::2] + _CF4_A2 * x[1::2] for x in rows], dt)
            second = _expm2(*[_CF4_A2 * x[0::2] + _CF4_A1 * x[1::2] for x in rows], dt)
            return _entry_product(second, first).transpose(2, 0, 1)
        hs = _hermitian(hs)
        first = _expm_batch(_CF4_A1 * hs[0::2] + _CF4_A2 * hs[1::2], dt)
        second = _expm_batch(_CF4_A2 * hs[0::2] + _CF4_A1 * hs[1::2], dt)
        return second @ first

    # The first overflow while H(t) is sampled, combined or exponentiated
    # raises here, before a NaN reaches the unitarity check.
    with raise_on_overflow("a step of H(t) dt overflows"):
        u = chain_matmul([chain_matmul(cf4_steps(lo, min(lo + _CHUNK, n_steps)))
                          for lo in range(0, n_steps, _CHUNK)])
    return product_unitary(u, n_steps)


class _DriftError(FloatingPointError):
    def __str__(self):  # args (n_steps, defect) of a product that rounding drifted
        return "the product of %d steps drifts from unitary (defect %.3e)" % self.args


def product_unitary(u, n_steps):
    """Unitary(u) for a product u of n_steps unitary steps, or FloatingPointError."""
    try:
        return Unitary(u)
    except ValueError:  # each step is unitary, so only rounding drift fails the check
        raise _DriftError(n_steps, unitarity_defect(u)) from None


def _zone_energies(phases, t_period):
    """Energies -phases / T reduced into the zone, and omega = 2 pi / T."""
    require_positive(period=t_period)
    t_period = float(t_period)
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
