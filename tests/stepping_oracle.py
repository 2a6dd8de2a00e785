"""Per-interval stepping of the sampled radial flow, kept apart from the package.

floqtools cuts a whole sample grid once and steps through the segments in
one loop. This module segments each sample interval on its own, as
integration_segments does for a monodromy, so that tests can require the
two routes to agree bit for bit.
"""
import numpy as np

from floqtools._linops import TWO_PI, oscillator_blocks
from floqtools.profiles import DriveProfile, integration_segments

# (profile, t_end, samples) for each profile kind; the last case runs steps
# past t = 16384, where one ulp of t exceeds 1e-12 of the period.
TRAJECTORY_CASES = [
    (DriveProfile.constant(1.1, 1.0), 3.7, 300),
    (DriveProfile.from_steps(((1.7, 0.3), (-0.4, 0.45), (0.9, 0.25))), 3.7, 300),
    (DriveProfile.sinusoid(2.0, TWO_PI), 3.7, 300),
    (DriveProfile.offset_sinusoid(0.78539, 0.94595, TWO_PI), 3.7, 300),
    (DriveProfile.from_steps(((1.0, 0.1), (2.0, 0.9))), 16400.0, 4100),
]


def interval_samples(profile, state0, t_end, n_samples):
    """(times, states, angles) with each sample interval stepped on its own.

    states[k] is the image of state0, a (q, p) vector or a 2 x 2 array of
    them as columns, at times[k]; angles[k] is the running sum of beta dt.
    """
    times = np.linspace(0.0, float(t_end), n_samples + 1)
    state = np.asarray(state0, dtype=float)
    angle = 0.0
    states, angles = [state], [angle]
    for a, b in zip(times[:-1], times[1:]):
        dts, betas = integration_segments(profile, a, b, 1)
        for block, beta, dt in zip(oscillator_blocks(betas, dts), betas, dts):
            state = block @ state
            angle = angle + beta * dt
        states.append(state)
        angles.append(angle)
    return times, np.array(states), np.array(angles)
