"""Per-interval stepping of the sampled radial flow, kept apart from the package.

floqtools cuts a whole sample grid once and forms the states as prefix
products of the frozen blocks, by a blocked scan. This module segments each
sample interval on its own, as integration_segments does for a monodromy,
and steps through the blocks one at a time. The segments and the angle sums
of the two routes agree bit for bit; the states agree to SCAN_TOL of
max(1, |state|), because the scan multiplies the blocks in another order.
"""
import functools

import numpy as np

from floqtools._linops import TWO_PI, oscillator_blocks
from floqtools.hill import _radial_samples
from floqtools.profiles import DriveProfile, integration_segments, sample_segments

# (profile, t_end, samples) for each profile kind; the last case runs steps
# past t = 16384, where one ulp of t exceeds 1e-12 of the period.
TRAJECTORY_CASES = [
    (DriveProfile.constant(1.1, 1.0), 3.7, 300),
    (DriveProfile.from_steps(((1.7, 0.3), (-0.4, 0.45), (0.9, 0.25))), 3.7, 300),
    (DriveProfile.sinusoid(2.0, TWO_PI), 3.7, 300),
    (DriveProfile.offset_sinusoid(0.78539, 0.94595, TWO_PI), 3.7, 300),
    (DriveProfile.from_steps(((1.0, 0.1), (2.0, 0.9))), 16400.0, 4100),
]

# Over TRAJECTORY_CASES the scan and the stepping differ by at most 7.5e-14
# of max(1, |state|) (the long steps case; the others by under 4e-15).
SCAN_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def interval_segments(profile, t_end, n_samples):
    """(times, dts, betas, ends) of a uniform sample grid whose intervals
    integration_segments cuts one at a time; ends[k] counts the segments
    before times[k]."""
    times = np.linspace(0.0, float(t_end), n_samples + 1)
    pieces = [integration_segments(profile, a, b, 1) for a, b in zip(times[:-1], times[1:])]
    ends = np.cumsum([0] + [len(dts) for dts, _ in pieces])
    return (times, np.concatenate([dts for dts, _ in pieces]),
            np.concatenate([betas for _, betas in pieces]), ends)


def interval_samples(profile, state0, t_end, n_samples):
    """(times, states, angles) with the blocks of interval_segments stepped one at a time.

    states[k] is the image of state0, a (q, p) vector or a 2 x 2 array of
    them as columns, at times[k]; angles[k] is the running sum of beta dt.
    """
    times, dts, betas, ends = interval_segments(profile, t_end, n_samples)
    state = np.asarray(state0, dtype=float)
    angle = 0.0
    states, angles = [state], [angle]
    for block, beta, dt in zip(oscillator_blocks(betas, dts), betas, dts):
        state = block @ state
        angle = angle + beta * dt
        states.append(state)
        angles.append(angle)
    return times, np.array(states)[ends], np.array(angles)[ends]


def assert_cut_and_summed_per_interval(profile, state0, t_end, n_samples):
    """sample_segments cuts the grid into interval_segments' segments, and
    _radial_samples sums their angles as interval_samples does, bit for bit."""
    times, *segments = interval_segments(profile, t_end, n_samples)
    for got, want in zip(sample_segments(profile, times), segments):
        assert np.array_equal(got, want)
    _, _, angles = interval_samples(profile, state0, t_end, n_samples)
    assert np.array_equal(_radial_samples(profile, state0, t_end, n_samples)[2], angles)


def assert_close_to_stepping(got, want):
    """Every sample of got within SCAN_TOL of max(1, |want|) of want's."""
    got, want = (np.asarray(a).reshape(len(want), -1) for a in (got, want))
    scale = np.maximum(1.0, np.abs(want).max(axis=1))
    assert (np.abs(got - want).max(axis=1) <= SCAN_TOL * scale).all()
