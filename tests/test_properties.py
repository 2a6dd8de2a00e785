"""Property tests of the library constructors, the profile JSON schema, step_evolve and
the Hill monodromy."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floqtools import (
    DriveProfile,
    PhysicalParams,
    SpinParams,
    StepPattern,
    TrapField,
    monodromy,
    profile_from_json,
    profile_to_json,
    step_evolve,
    with_amplitude,
)
from floqtools._linops import chain_matmul, oscillator_blocks
from floqtools.profiles import sample_segments

TWO_PI = 2.0 * math.pi

# Examples come from a fixed seed and are not timed, because the speed of a
# shared host drifts by up to 2x.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=50)

finite = st.floats(min_value=-1e6, max_value=1e6)
positive = st.floats(min_value=1e-3, max_value=1e3)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# Values that are not finite numbers, among them a bool, None, a string and an
# integer too large for a float.
not_a_finite_number = st.sampled_from([math.nan, math.inf, -math.inf, True, None, "1", 10 ** 400])

PROFILES = {
    "constant": st.builds(DriveProfile.constant, finite, positive),
    "steps": st.builds(DriveProfile.from_steps,
                       st.lists(st.tuples(finite, positive), min_size=1, max_size=5)),
    "sin": st.builds(DriveProfile.sinusoid, finite, positive),
    "offset_sin": st.builds(DriveProfile.offset_sinusoid, finite, finite, positive),
}


@pytest.mark.parametrize("kind", sorted(PROFILES))
@PROPERTY
@given(data=st.data())
def test_profile_json_round_trip(kind, data):
    profile = data.draw(PROFILES[kind])
    assert profile_from_json(json.dumps(profile_to_json(profile))) == profile


@PROPERTY
@given(profile=st.one_of(PROFILES["sin"], PROFILES["offset_sin"]), omega=positive)
def test_sinusoidal_period_follows_omega_through_replace(profile, omega):
    assert replace(profile, omega=omega).period == TWO_PI / omega


# Each constructor with keyword arguments that are valid for any value drawn
# from `positive`.
CONSTRUCTORS = {
    "offset_sin": (lambda **kw: DriveProfile("offset_sin", **kw), ("beta0", "beta1", "omega")),
    "constant": (lambda **kw: DriveProfile("constant", **kw), ("beta0", "period")),
    "SpinParams": (SpinParams, ("mu", "B", "omega")),
    "TrapField": (TrapField, ("amplitude", "omega", "light_speed")),
    "PhysicalParams": (PhysicalParams, ("charge", "mass", "light_speed", "field")),
}


@pytest.mark.parametrize("build, names, name", [
    pytest.param(build, names, name, id=f"{label}-{name}")
    for label, (build, names) in CONSTRUCTORS.items() for name in names])
@PROPERTY
@given(data=st.data(), bad=not_a_finite_number)
def test_constructor_rejects_a_non_finite_field(build, names, name, data, bad):
    kwargs = {key: data.draw(positive, label=key) for key in names}
    kwargs[name] = bad
    with pytest.raises(ValueError) as excinfo:
        build(**kwargs)
    assert name in str(excinfo.value).split(" must")[0]


@PROPERTY
@given(steps=st.lists(st.tuples(finite, positive), min_size=1, max_size=4),
       index=st.integers(0, 3), slot=st.integers(0, 1), bad=non_finite)
def test_profile_rejects_a_non_finite_step(steps, index, slot, bad):
    index %= len(steps)
    pair = list(steps[index])
    pair[slot] = bad
    steps[index] = tuple(pair)
    with pytest.raises(ValueError, match=rf"field 'steps'\[{index}\] must contain finite numbers"):
        DriveProfile.from_steps(steps)


def _hermitian(dim):
    """Hermitian dim x dim matrices with entries of magnitude up to 2."""
    entries = st.lists(st.floats(-2.0, 2.0), min_size=2 * dim * dim, max_size=2 * dim * dim)

    def build(values):
        re, im = np.reshape(values, (2, dim, dim))
        m = re + 1j * im
        return m + m.conj().T

    return entries.map(build)


@pytest.mark.parametrize("dim", [2, 3])
@PROPERTY
@given(data=st.data(), t=st.floats(0.0, 10.0))
def test_step_evolve_composes_with_a_whole_period(dim, data, t):
    # U(t + T) = U(t) U(T) for a T-periodic drive.
    steps = data.draw(st.lists(st.tuples(_hermitian(dim), st.floats(0.05, 2.0)),
                               min_size=1, max_size=3))
    pattern = StepPattern(tuple(steps))
    later = step_evolve(pattern, t + pattern.period).matrix
    composed = step_evolve(pattern, t).matrix @ step_evolve(pattern, pattern.period).matrix
    assert np.abs(later - composed).max() <= 1e-12


# Drives whose one-period monodromies stay far from overflow.
amplitude = st.floats(-5.0, 5.0)
frequency = st.floats(0.5, 20.0)
DRIVES = st.one_of(
    st.builds(DriveProfile.sinusoid, amplitude, frequency),
    st.builds(DriveProfile.offset_sinusoid, amplitude, amplitude, frequency),
    st.builds(DriveProfile.from_steps,
              st.lists(st.tuples(amplitude, st.floats(0.05, 2.0)), min_size=1, max_size=4)),
)


def _other_grid(profile):
    """A drive of the same kind on another grid: twice the frequency or the durations."""
    if profile.kind == "steps":
        return DriveProfile.from_steps([(beta, 2.0 * tau) for beta, tau in profile.steps])
    return replace(profile, omega=2.0 * profile.omega)


@PROPERTY
@given(profile=DRIVES, scale=amplitude,
       n=st.one_of(st.integers(1, 300), st.sampled_from([4096, 4097])))
def test_monodromy_is_the_product_of_its_sampled_blocks(profile, scale, n):
    # The grid a monodromy reuses from an earlier one of another grid, or
    # of another amplitude, must be the grid sample_segments cuts.
    monodromy(_other_grid(profile), n)
    for drive in (profile, with_amplitude(profile, scale)):
        dts, betas, _ = sample_segments(drive, [0.0, drive.period], n)
        want = chain_matmul(oscillator_blocks(betas, dts))
        assert np.array_equal(monodromy(drive, n).view(np.uint64), want.view(np.uint64))
