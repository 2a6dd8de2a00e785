"""Property tests of the library constructors, the profile JSON schema, with_amplitude,
step_evolve, the Hill monodromy, floquet_result, reduce_to_zone and prefix_products."""
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floqtools import (
    DriveProfile,
    PhysicalParams,
    ProfileError,
    SpinParams,
    StepPattern,
    TrapField,
    floquet_result,
    monodromy,
    profile_from_json,
    profile_to_json,
    reduce_to_zone,
    step_evolve,
    with_amplitude,
)
from floqtools._linops import (chain_matmul, finite_product, is_finite_number, oscillator_blocks,
                               prefix_products)
from floqtools.hill import HYPERBOLIC, classify_trace, floquet_angle
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


# Finite amplitudes, -0.0, integers and values whose steps products overflow
# among them, the non-finite ones, and values that are not numbers: a bool, a
# string, None and an integer too large for a float.
amplitudes = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-10 ** 6, 10 ** 6),
                       st.sampled_from([-0.0, 0, 10 ** 300, 1e308, -1e308]),
                       non_finite,
                       st.sampled_from([True, "2.5", None, 10 ** 400]))


def _replaced(profile, beta0):
    """with_amplitude through dataclasses.replace, which reruns every field check.

    A steps amplitude scales the step betas, so one that is not a float must
    be a finite number, as a profile field must.
    """
    if profile.kind == "steps":
        if not (isinstance(beta0, float) or is_finite_number(beta0)):
            raise ProfileError("field 'beta0' must be a finite number")
        return replace(profile, steps=tuple((finite_product(beta0, beta), tau)
                                            for beta, tau in profile.steps))
    return replace(profile, beta0=beta0)


def _outcome(build, profile, beta0):
    """The profile's type, repr (field values and float types) and period bits, or the error."""
    try:
        got = build(profile, beta0)
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)
    return type(got), repr(got), got.period.hex(), hash(got)


@pytest.mark.parametrize("kind", sorted(PROFILES))
@PROPERTY
@given(data=st.data(), beta0=amplitudes)
def test_with_amplitude_is_the_replace_route(kind, data, beta0):
    profile = data.draw(PROFILES[kind])
    got = _outcome(with_amplitude, profile, beta0)
    assert got == _outcome(_replaced, profile, beta0)
    if not is_finite_number(beta0):
        assert got[0] is ProfileError


@pytest.mark.parametrize("beta0, error, match", [
    pytest.param(1e308, FloatingPointError, "a drive amplitude overflows", id="overflow"),
    pytest.param(math.nan, ProfileError, r"field 'steps'\[0\] must contain finite numbers",
                 id="nan"),
])
def test_with_amplitude_rejects_a_steps_amplitude(beta0, error, match):
    with pytest.raises(error, match=match):
        with_amplitude(DriveProfile.from_steps(((2.0, 0.5), (0.0, 0.5))), beta0)


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


# 2x2 matrices with entries of either sign, ±0 on the diagonal among them.
entry = st.floats(-3.0, 3.0)
MATRICES = st.tuples(st.one_of(entry, st.sampled_from([0.0, -0.0])), entry, entry,
                     st.one_of(entry, st.sampled_from([0.0, -0.0]))).map(
    lambda v: np.reshape(v, (2, 2)))


@pytest.mark.parametrize("n_max", [0, 64])
@PROPERTY
@given(m=MATRICES, t_period=positive)
def test_floquet_result_takes_the_trace_of_np_trace(n_max, m, t_period):
    tr = float(np.trace(m))
    stability = classify_trace(tr)
    omega_f = None if stability == HYPERBOLIC else floquet_angle(tr) / t_period
    res = floquet_result(m, t_period, n_max)
    assert (res.trace.hex(), res.stability) == (tr.hex(), stability)
    assert res.omega_F == omega_f and (omega_f is None or res.omega_F.hex() == omega_f.hex())
    if n_max == 0:
        assert res.loop_order is None


def _near(x, ulps):
    """The float |ulps| steps from x, up for ulps > 0 and down for ulps < 0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@PROPERTY
@given(omega=positive, k=st.integers(-999, 999), x=finite)
def test_reduce_to_zone_lands_in_the_zone_and_is_idempotent(omega, k, x):
    # Inputs at and next to the zone edges (k + 1/2) omega, where rounding
    # in x - omega ceil(x / omega - 1/2) can overshoot, and one anywhere.
    edge = (k + 0.5) * omega
    values = [_near(edge, ulps) for ulps in range(-3, 4)] + [x]
    array = reduce_to_zone(np.array(values), omega)
    for value, zoned in zip(values, array.tolist()):
        assert reduce_to_zone(value, omega) == zoned
        assert -0.5 * omega < zoned <= 0.5 * omega
        assert reduce_to_zone(zoned, omega) == zoned


def elliptic_steps(n):
    """n (beta, dt) pairs of an elliptic drive, drawn from the seed n."""
    rng = np.random.default_rng(n)
    return list(zip(rng.uniform(0.5, 3.0, n), rng.uniform(0.0, 0.05, n)))


# Besides the drawn lengths: 1, 2, 3, a perfect square and its neighbours, a
# prime, and a trajectory's length.
@PROPERTY
@given(steps=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 0.05)), min_size=1,
                      max_size=400))
@example(steps=elliptic_steps(1))
@example(steps=elliptic_steps(2))
@example(steps=elliptic_steps(3))
@example(steps=elliptic_steps(143))
@example(steps=elliptic_steps(144))
@example(steps=elliptic_steps(145))
@example(steps=elliptic_steps(151))
@example(steps=elliptic_steps(20_000))
def test_prefix_products_are_the_running_products(steps):
    # Each prefix, and its image of a vector, within 1e-12 of its largest
    # entry of the block-by-block product; the last one is chain_matmul's,
    # and every determinant stays 1 to roundoff.
    betas, dts = np.array(steps).T
    blocks = oscillator_blocks(betas, dts)
    want = np.array(list(itertools.accumulate(blocks, lambda prefix, block: block @ prefix)))
    scale = np.abs(want).max(axis=(1, 2))
    got = prefix_products(blocks, np.eye(2))
    assert got.shape == (len(steps), 2, 2)
    assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale).all()
    vector = np.array([0.3, -1.1])
    assert (np.abs(prefix_products(blocks, vector) - want @ vector).max(axis=1)
            <= 1e-12 * scale * np.abs(vector).sum()).all()
    assert np.abs(got[-1] - chain_matmul(blocks)).max() <= 1e-12 * scale[-1]
    assert (np.abs(np.linalg.det(got) - 1.0) <= 1e-12 * scale ** 2).all()
