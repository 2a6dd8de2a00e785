"""Constants, step-count rules and small dense linear-algebra helpers shared by the solvers."""
from __future__ import annotations

import contextlib
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def default_steps():
    """Integrator steps per period when n_steps is None."""
    return 4096


def _shown(value):
    """str(value) for an error message; an integer too long for decimal text by its bit length."""
    try:
        return str(value)
    except ValueError:  # more digits than int-to-str conversion allows
        return f"an integer of {value.bit_length()} bits"


def count(value, name, minimum):
    """value as an int; ValueError naming name unless it is a non-bool integer >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {_shown(value)}")
    return int(value)


def resolve_steps(n_steps):
    """n_steps as an int >= 1, with None selecting default_steps()."""
    return default_steps() if n_steps is None else count(n_steps, "n_steps", 1)


def reduce_to_zone(values, omega):
    """Map values into (-omega/2, omega/2] by subtracting multiples of omega.

    Rounding in x - omega ceil(x / omega - 1/2) can land a value just past
    either edge of the zone; one more fold, exact there, takes it back.
    """
    x = np.asarray(values, dtype=float)
    out = x - omega * np.ceil(x / omega - 0.5)
    half = 0.5 * omega
    if not x.ndim:
        out, omega = float(out), float(omega)
        return out - omega if out > half else out + omega if out <= -half else out
    out[out > half] -= omega
    out[out <= -half] += omega
    return out


def is_finite_number(value):
    """True for a finite int or float (numpy ones included), False for bool and all else.

    json.loads accepts the literals NaN and Infinity; they are rejected here.
    """
    if type(value) is float:  # the common case, tested first
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def require_finite(**values):
    """Raise ValueError naming the first keyword whose value is not a finite number."""
    for name, value in values.items():
        if not is_finite_number(value):
            raise ValueError(f"{name} must be finite, got {_shown(value)}")


def require_positive(**values):
    """Raise ValueError naming the first keyword whose value is not a finite number > 0."""
    for name, value in values.items():
        if not (is_finite_number(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {_shown(value)}")


def finite_product(*factors):
    """Product of the factors; FloatingPointError when finite factors overflow.

    The factors are multiplied as Python floats, whose overflow gives inf
    without the RuntimeWarning a NumPy scalar prints.
    """
    result = math.prod(map(float, factors))
    if math.isinf(result) and all(map(math.isfinite, factors)):
        raise FloatingPointError("result is not finite: a drive amplitude overflows")
    return result


@contextlib.contextmanager
def raise_on_overflow(what):
    """Run the block under np.errstate(over="raise", invalid="raise").

    The first overflow or invalid value becomes FloatingPointError("result
    is not finite: " + what), so no RuntimeWarning is printed and no NaN
    leaves the block. Enter it once per call of a route, not per step.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise FloatingPointError(f"result is not finite: {what}") from None


def chain_matmul(mats):
    """Time-ordered product mats[-1] @ ... @ mats[0] by pairwise reduction.

    Pairwise reduction keeps the number of sequential matmuls logarithmic,
    which matters for the 10^4..10^5 step chains the integrators produce.
    Each round multiplies neighbours, later by earlier, and carries an odd
    last element. A stack of d > 2 multiplies through np.matmul. A 2x2
    stack, real or complex, is reduced by _entry_product on its entry-major
    (2, 2, n) view, the layout every 2x2 producer writes; a C-order stack
    gives the same bits, only more slowly.

    So a chain may be reduced in aligned blocks: for a power of two
    size = 2^k, chain_matmul of the block products chain_matmul(mats[i:i +
    size]), i = 0, size, 2 size, ..., is bit for bit chain_matmul(mats).
    After k rounds the whole reduction holds exactly these block products,
    in this order, each formed by the same products: every block starts at
    an even index of each round, and only the last one can carry an odd
    element.
    """
    m = np.asarray(mats)
    if m.ndim != 3 or m.shape[0] == 0:
        raise ValueError("expected a non-empty stack of matrices")
    if m.shape[0] == 1:
        return m[0]
    if m.shape[1:] != (2, 2):
        while m.shape[0] > 1:
            even = m.shape[0] - (m.shape[0] % 2)
            head = np.matmul(m[1:even:2], m[0:even:2])
            m = head if even == m.shape[0] else np.concatenate([head, m[-1:]])
        return m[0]
    e = m.transpose(1, 2, 0)
    while e.shape[2] > 1:
        even = e.shape[2] - (e.shape[2] % 2)
        head = _entry_product(e[:, :, 1:even:2], e[:, :, 0:even:2])
        e = head if even == e.shape[2] else np.concatenate([head, e[:, :, -1:]], axis=2)
    return e[:, :, 0]


def _entry_product(x, y, out=None):
    """x y in the entry-major (2, 2, ...) layout: x[i, 0] y[0, j] + x[i, 1] y[1, j] per entry."""
    out = np.multiply(x[:, 0, None], y[None, 0], out=out)
    out += x[:, 1, None] * y[None, 1]
    return out


def prefix_products(blocks, state):
    """Prefixes P_k = blocks[k] @ ... @ blocks[0] of a real 2x2 stack, applied to state.

    state is a (2,) vector or a (2, c) array of them as columns (the
    identity gives the prefixes themselves); the result has shape (n,) +
    state.shape. A blocked two-level scan: padded with identities to blocks of
    w = isqrt(n) steps, w sequential entry products (chain_matmul's rule) form
    the prefixes inside all blocks at once, the state is carried from block to
    block, and one broadcast product maps each block's start state. No matrix
    product spans more than one block, so, as in a sequential loop, a zero or
    small state on a growing flow stays finite; the results equal that loop's
    to roundoff of their largest entry.
    """
    b = np.asarray(blocks, dtype=float)
    if b.ndim != 3 or b.shape[0] == 0 or b.shape[1:] != (2, 2):
        raise ValueError("expected a non-empty stack of 2x2 matrices")
    s = np.asarray(state, dtype=float)
    n, w = b.shape[0], math.isqrt(b.shape[0])
    m = -(-n // w)
    scan = np.concatenate([b, np.broadcast_to(np.eye(2), (m * w - n, 2, 2))])
    scan = scan.reshape(m, w, 2, 2).transpose(2, 3, 1, 0).copy()  # [:, :, j, k] is step k w + j
    for j in range(1, w):
        scan[:, :, j] = _entry_product(scan[:, :, j], scan[:, :, j - 1])
    starts = np.empty((2, s.size // 2, m))
    starts[:, :, 0] = s.reshape(2, -1)
    for k in range(1, m):
        _entry_product(scan[:, :, -1, k - 1], starts[:, :, k - 1], out=starts[:, :, k])
    out = np.empty((m, w, 2, s.size // 2))
    _entry_product(scan, starts[:, :, None], out=out.transpose(2, 3, 1, 0))
    return out.reshape((m * w,) + s.shape)[:n]


def oscillator_blocks(betas, dts):
    """Exact (q, p) flow blocks of q'' + beta^2 q = 0 with beta frozen per step.

    betas == 0 degenerates to the free-motion shear [[1, dt], [0, 1]].
    Every block has unit determinant, so products stay area preserving.
    The entries are written entry-major, into one contiguous (2, 2) +
    betas.shape array, and returned as its betas.shape + (2, 2) view; dts
    broadcasts to the shape of betas.
    """
    betas = np.asarray(betas, dtype=float)
    dts = np.asarray(dts, dtype=float)
    phi = betas * dts
    s = np.sin(phi)
    blocks = np.empty((2, 2) + betas.shape)
    np.cos(phi, out=blocks[0, 0, ...])
    blocks[1, 1] = blocks[0, 0]
    blocks[0, 1] = dts
    np.divide(s, betas, out=blocks[0, 1, ...], where=betas != 0.0)
    np.multiply(-betas, s, out=blocks[1, 0, ...])
    return blocks.transpose(*range(2, blocks.ndim), 0, 1)


def rotation2(theta):
    """2x2 rotation [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])
