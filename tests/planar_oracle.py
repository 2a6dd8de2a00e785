"""Direct 4x4 route for the planar charge, kept apart from the package.

floqtools builds the planar flow from the radial Hill monodromy and one
closed-form rotation. This module multiplies the frozen-beta 4x4 steps on
(q1, q2, p1, p2) one by one instead, so that tests of the package's planar
results compare two independent routes.
"""
import numpy as np

from floqtools._linops import chain_matmul, oscillator_blocks
from floqtools.profiles import integration_segments


def planar_blocks(betas, dts):
    """Exact frozen-beta steps on (q1, q2, p1, p2).

    The angular-momentum rotation commutes with the isotropic radial
    oscillator, so each step is kron(radial block, in-plane rotation).
    """
    osc = oscillator_blocks(betas, dts)
    phi = np.asarray(betas, dtype=float) * np.asarray(dts, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    rot = np.empty(phi.shape + (2, 2))
    rot[..., 0, 0] = c
    rot[..., 0, 1] = s
    rot[..., 1, 0] = -s
    rot[..., 1, 1] = c
    n = osc.shape[0]
    return np.einsum("nab,ncd->nacbd", osc, rot).reshape(n, 4, 4)


def planar_flow(profile, n_periods=1, n_steps=None):
    """n_periods power of the ordered product of one period's 4x4 steps."""
    dts, betas = integration_segments(profile, 0.0, profile.period, n_steps)
    return np.linalg.matrix_power(chain_matmul(planar_blocks(betas, dts)), n_periods)


def planar_path(profile, state0, t_end, n_samples):
    """Rows (t, q1, q2, p1, p2), stepping each sample interval by 4x4 blocks."""
    times = np.linspace(0.0, float(t_end), n_samples + 1)
    state = np.asarray(state0, dtype=float)
    out = np.empty((n_samples + 1, 5))
    out[0] = (times[0], *state)
    for k in range(n_samples):
        dts, betas = integration_segments(profile, times[k], times[k + 1], 1)
        for block in planar_blocks(betas, dts):
            state = block @ state
        out[k + 1] = (times[k + 1], *state)
    return out
