import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floqtools import (
    DriveProfile,
    ProfileError,
    beta_period_integral,
    eval_beta,
    monodromy,
    profile_from_json,
    profile_to_json,
    with_amplitude,
)
from floqtools.profiles import _unit_segments, integration_segments, sample_segments

TWO_PI = 2.0 * math.pi


def test_eval_constant_anywhere():
    assert eval_beta(DriveProfile.constant(2.0), 99.5) == 2.0


def test_eval_steps_wraps_periodically():
    profile = DriveProfile.from_steps(((3.0, 0.5), (0.0, 0.5)))
    assert eval_beta(profile, 0.75) == 0.0
    assert eval_beta(profile, 0.25) == 3.0
    assert eval_beta(profile, 17.25) == 3.0
    assert_allclose(eval_beta(profile, np.array([0.1, 0.6, 1.1])), [3.0, 0.0, 3.0])


def test_eval_sinusoid_at_zero():
    assert eval_beta(DriveProfile.sinusoid(1.5, TWO_PI), 0.0) == 0.0


def test_eval_offset_sinusoid():
    profile = DriveProfile.offset_sinusoid(1.0, 0.5, TWO_PI)
    assert eval_beta(profile, 0.25) == pytest.approx(1.5)


def test_period_definitions():
    assert DriveProfile.sinusoid(1.0, math.pi).period == pytest.approx(2.0)
    assert DriveProfile.from_steps(((1.0, 0.3), (0.0, 0.9))).period == pytest.approx(1.2)


def test_sinusoidal_period_is_derived_from_omega():
    direct = DriveProfile("sin", beta0=2.2, omega=math.pi)
    assert direct.period == 2.0
    assert np.array_equal(monodromy(direct, 256),
                          monodromy(DriveProfile.sinusoid(2.2, math.pi), 256))
    assert replace(DriveProfile.sinusoid(1, TWO_PI), omega=math.pi).period == 2.0
    assert replace(DriveProfile.offset_sinusoid(1, 0.5, TWO_PI), omega=4.0).period == TWO_PI / 4.0


def test_beta_period_integral():
    assert beta_period_integral(DriveProfile.constant(1.0, 1.0)) == pytest.approx(1.0)
    assert beta_period_integral(DriveProfile.sinusoid(2.0, TWO_PI)) == 0.0
    assert beta_period_integral(DriveProfile.offset_sinusoid(0.5, 2.0, TWO_PI)) == pytest.approx(0.5)
    assert beta_period_integral(DriveProfile.from_steps(((2.0, 0.5), (1.0, 0.25)))) == pytest.approx(1.25)


def test_with_amplitude_by_kind():
    assert with_amplitude(DriveProfile.sinusoid(1.0, TWO_PI), 2.5).beta0 == 2.5
    scaled = with_amplitude(DriveProfile.from_steps(((1.0, 0.5), (0.0, 0.5))), 2.0)
    assert scaled.steps == ((2.0, 0.5), (0.0, 0.5))
    offset = with_amplitude(DriveProfile.offset_sinusoid(1.0, 0.7, TWO_PI), 0.3)
    assert offset.beta0 == 0.3 and offset.beta1 == 0.7


def test_invalid_profiles_rejected():
    with pytest.raises(ProfileError, match="kind"):
        DriveProfile("triangle")
    with pytest.raises(ProfileError, match="omega"):
        DriveProfile.sinusoid(1.0, 0.0)
    with pytest.raises(ProfileError, match="duration"):
        DriveProfile.from_steps(((1.0, -0.5),))
    with pytest.raises(ProfileError, match="steps"):
        DriveProfile.from_steps(())


@pytest.mark.parametrize("steps, message", [
    (5, "field 'steps' must be a non-empty list of [beta, tau] pairs"),
    ([], "field 'steps' must be a non-empty list of [beta, tau] pairs"),
    ([[1, 2, 3]], "field 'steps'[0] must be a [beta, tau] pair"),
    ([[1.0, 0.5], 5], "field 'steps'[1] must be a [beta, tau] pair"),
    ([[True, 1]], "field 'steps'[0] must contain finite numbers"),
    ([[1.0, "2"]], "field 'steps'[0] must contain finite numbers"),
    ([[1, -1]], "field 'steps'[0]: duration must be positive"),
])
def test_steps_constructor_and_json_give_one_message(steps, message):
    with pytest.raises(ProfileError) as direct:
        DriveProfile.from_steps(steps)
    with pytest.raises(ProfileError) as loaded:
        profile_from_json(json.dumps({"kind": "steps", "steps": steps}))
    assert str(direct.value) == str(loaded.value) == message


def test_json_round_trip():
    profiles = [
        DriveProfile.constant(1.3, 0.7),
        DriveProfile.from_steps(((2.0, 0.5), (0.0, 0.5))),
        DriveProfile.sinusoid(2.2, TWO_PI),
        DriveProfile.offset_sinusoid(0.8, 0.9, TWO_PI),
    ]
    for profile in profiles:
        again = profile_from_json(json.dumps(profile_to_json(profile)))
        assert again == profile


def test_json_constant_accepts_omega():
    profile = profile_from_json({"kind": "constant", "beta0": 1.0, "omega": math.pi})
    assert profile.period == pytest.approx(2.0)


def test_json_errors_name_the_field():
    with pytest.raises(ProfileError, match="'kind'"):
        profile_from_json({"beta0": 1.0})
    with pytest.raises(ProfileError, match="'omega'"):
        profile_from_json({"kind": "sin", "beta0": 1.0})
    with pytest.raises(ProfileError, match="'beta1'"):
        profile_from_json({"kind": "offset_sin", "beta0": 1.0, "omega": 1.0})
    with pytest.raises(ProfileError, match="'steps'"):
        profile_from_json({"kind": "steps"})
    with pytest.raises(ProfileError, match="unexpected field 'omega'"):
        profile_from_json({"kind": "steps", "steps": [[1.0, 0.5]], "omega": 1.0})
    with pytest.raises(ProfileError, match=r"'steps'\[1\]"):
        profile_from_json({"kind": "steps", "steps": [[1.0, 0.5], [0.0, -1.0]]})
    with pytest.raises(ProfileError, match="invalid profile JSON"):
        profile_from_json("{not json")


def test_integration_segments_exact_for_steps():
    profile = DriveProfile.from_steps(((2.0, 0.25), (0.5, 0.75)))
    dts, betas = integration_segments(profile, 0.0, profile.period, 999)
    assert_allclose(dts, [0.25, 0.75])
    assert_allclose(betas, [2.0, 0.5])
    # window straddling a period boundary
    dts, betas = integration_segments(profile, 0.9, 1.2, 999)
    assert_allclose(dts, [0.1, 0.2])
    assert_allclose(betas, [0.5, 2.0])


def test_integration_segments_midpoints_for_sinusoid():
    profile = DriveProfile.sinusoid(1.0, TWO_PI)
    dts, betas = integration_segments(profile, 0.0, 1.0, 4)
    assert_allclose(dts, np.full(4, 0.25))
    assert_allclose(betas, np.sin(TWO_PI * (np.arange(4) + 0.5) / 4))


def test_step_segments_cover_every_sample_interval():
    # In 33 of these 24,000 intervals a piece ends one ulp below a period
    # boundary, where a floor(t / period) lookup loses the rest of the interval.
    rng = np.random.default_rng(5)
    for _ in range(60):
        profile = DriveProfile.from_steps(
            [(rng.uniform(0.0, 2.5), rng.uniform(0.2, 1.2)) for _ in range(3)])
        times = np.linspace(0.0, rng.uniform(10.0, 30.0), 401)
        for a, b in zip(times[:-1], times[1:]):
            dts, _ = integration_segments(profile, a, b, 1)
            assert abs(dts.sum() - (b - a)) < 1e-12
            assert np.all(dts > 0)


def test_step_segments_cover_intervals_far_from_zero():
    # Near t = 16384 one ulp exceeds 1e-12 of the period, so fl(16384 + 0.1)
    # sits 1.5e-12 below the step edge it stands for.
    profile = DriveProfile.from_steps([(1.0, 0.1), (2.0, 0.9)])
    times = np.linspace(16380.0, 16400.0, 2001)
    for a, b in zip(times[:-1], times[1:]):
        dts, _ = integration_segments(profile, a, b, 1)
        assert abs(dts.sum() - (b - a)) < 1e-12
        assert np.all(dts > 0)
    dts, betas = integration_segments(profile, 16384.0 + 0.1, 16384.0 + 0.12, 1)
    assert_allclose(dts, [0.02], atol=1e-11)
    assert_allclose(betas, [2.0])


def test_sample_segments_cut_a_grid_far_from_zero():
    profile = DriveProfile.from_steps([(1.0, 0.1), (2.0, 0.9)])
    times = np.linspace(16380.0, 16400.0, 2001)
    dts, betas, ends = sample_segments(profile, times)
    assert np.all(dts > 0)
    assert abs(dts.sum() - 20.0) < 1e-9
    assert ends[0] == 0 and ends[-1] == dts.size
    spans = np.add.reduceat(dts, ends[:-1])
    assert np.abs(spans - np.diff(times)).max() < 1e-12
    assert set(betas) == {1.0, 2.0}


def test_integration_segments_rejects_zero_steps():
    with pytest.raises(ValueError, match="n_steps"):
        integration_segments(DriveProfile.sinusoid(1.0, TWO_PI), 0.0, 1.0, 0)


@pytest.mark.parametrize("text, field", [
    ('{"kind": "sin", "beta0": NaN, "omega": 1.0}', "'beta0'"),
    ('{"kind": "offset_sin", "beta0": 1.0, "beta1": -Infinity, "omega": 1.0}', "'beta1'"),
    ('{"kind": "constant", "beta0": 1.0, "period": Infinity}', "'period'"),
    ('{"kind": "constant", "beta0": 1%s}' % ("0" * 400), "'beta0'"),
    pytest.param('{"kind": "constant", "beta0": 1%s}' % ("0" * 5000), "invalid profile JSON",
                 id="beta0-of-5001-digits"),
    ('{"kind": "steps", "steps": [[1.0, 0.5], [NaN, 0.5]]}', r"'steps'\[1\]"),
])
def test_json_rejects_non_finite_numbers(text, field):
    with pytest.raises(ProfileError, match=field):
        profile_from_json(text)


@pytest.mark.parametrize("profile", [
    DriveProfile.sinusoid(2.2, 5.0),
    DriveProfile.offset_sinusoid(0.7, 1.3, TWO_PI),
], ids=["sin", "offset_sin"])
def test_sample_segments_substeps_join_the_per_interval_segments(profile):
    times = np.array([0.0, 0.13, 0.5, 0.51, 1.7, 3.0, 16384.1])
    m = 7
    dts, betas, ends = sample_segments(profile, times, m)
    pieces = [integration_segments(profile, a, b, m) for a, b in zip(times[:-1], times[1:])]
    assert np.array_equal(dts, np.concatenate([p[0] for p in pieces]))
    assert np.array_equal(betas, np.concatenate([p[1] for p in pieces]))
    assert np.array_equal(ends, np.arange(times.size) * m)
    # Each interval keeps the arithmetic of a uniform midpoint grid.
    for (a, b), (piece_dts, piece_betas) in zip(zip(times[:-1], times[1:]), pieces):
        h = (b - a) / m
        assert np.array_equal(piece_dts, np.full(m, h))
        assert np.array_equal(piece_betas, eval_beta(profile, a + (np.arange(m) + 0.5) * h))


@pytest.mark.parametrize("profile", [
    DriveProfile.constant(1.3, 0.7),
    DriveProfile.from_steps(((1.7, 0.3), (-0.4, 0.45), (0.9, 0.25))),
], ids=["constant", "steps"])
def test_sample_segments_ignore_substeps_for_piecewise_constant_kinds(profile):
    times = np.linspace(0.0, 2.9, 12)
    base = sample_segments(profile, times)
    for m in (2, 9):
        for want, got in zip(base, sample_segments(profile, times, m)):
            assert np.array_equal(want, got)
    assert np.array_equal(integration_segments(profile, 0.2, 2.9, 9)[0],
                          sample_segments(profile, [0.2, 2.9])[0])


# Two grids of each kind: two drive frequencies, or two sets of durations
# under the same betas.
GRID_FAMILIES = {
    "sin": (DriveProfile.sinusoid(1.7, TWO_PI), DriveProfile.sinusoid(1.7, 5.0)),
    "offset_sin": (DriveProfile.offset_sinusoid(0.4, 1.1, TWO_PI),
                   DriveProfile.offset_sinusoid(0.4, 1.1, 5.0)),
    "steps": (DriveProfile.from_steps(((1.7, 0.3), (-0.4, 0.45), (0.9, 0.25))),
              DriveProfile.from_steps(((1.7, 0.5), (-0.4, 0.2), (0.9, 0.3)))),
}


@pytest.mark.parametrize("kind", sorted(GRID_FAMILIES))
@pytest.mark.parametrize("span", [(0.0, 1.0), (0.3, 2.7)], ids=["one-period", "off-zero"])
def test_integration_segments_reuse_only_their_own_grid(kind, span):
    first, second = GRID_FAMILIES[kind]
    scaled = with_amplitude(first, -2.5)
    # Each pair of calls alternates twice: two grids, the same grid at two
    # amplitudes, or the same drive at two step counts.
    pairs = [((first, n), (second, n)) for n in (3, 4096, 4097)]
    pairs += [((first, 4096), (scaled, 4096)), ((first, 4096), (first, 4097))]
    hits = _unit_segments.cache_info().hits
    for pair in pairs:
        for profile, n in pair * 2:
            a, b = span[0] * profile.period, span[1] * profile.period
            got = integration_segments(profile, a, b, n)
            for want, value in zip(sample_segments(profile, [a, b], n)[:2], got):
                assert value.dtype == want.dtype
                assert np.array_equal(value.view(np.uint64), want.view(np.uint64))
    assert _unit_segments.cache_info().hits >= hits + 2 * len(pairs)


@pytest.mark.parametrize("kind", sorted(GRID_FAMILIES))
def test_a_write_into_integration_segments_does_not_reach_the_next_call(kind):
    profile = GRID_FAMILIES[kind][0]
    want = sample_segments(profile, [0.0, profile.period], 64)[:2]
    for i in range(2):
        value = integration_segments(profile, 0.0, profile.period, 64)[i]
        try:
            value[:] = 7.0
        except ValueError:  # a read-only array
            pass
        for expected, again in zip(want, integration_segments(profile, 0.0, profile.period, 64)):
            assert np.array_equal(again, expected)


@pytest.mark.parametrize("kind", sorted(GRID_FAMILIES))
def test_integration_segments_of_an_empty_span_keep_the_sign_of_zero(kind):
    profile = GRID_FAMILIES[kind][0]
    for t_start, t_end in [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]:
        got = integration_segments(profile, t_start, t_end, 4)
        for want, value in zip(sample_segments(profile, [t_start, t_end], 4)[:2], got):
            assert np.array_equal(value.view(np.uint64), want.view(np.uint64))


def test_constant_profile_rejects_omega_with_period():
    with pytest.raises(ProfileError, match="'omega' and 'period'"):
        profile_from_json({"kind": "constant", "beta0": 1, "omega": math.pi, "period": 5})
    assert profile_from_json({"kind": "constant", "beta0": 1, "omega": math.pi}).period == 2.0
    assert profile_from_json({"kind": "constant", "beta0": 1, "period": 5}).period == 5.0


@pytest.mark.parametrize("kind, fields, unused", [
    ("constant", {"beta0": 1.0, "beta1": 7.0}, "beta1"),
    ("constant", {"beta0": 1.0, "omega": 3.0, "period": 5.0}, "omega"),
    ("constant", {"beta0": 1.0, "steps": ((1.0, 1.0),)}, "steps"),
    ("sin", {"beta0": 1.0, "beta1": 7.0, "omega": 3.0}, "beta1"),
    ("sin", {"beta0": 1.0, "omega": 3.0, "steps": ((1.0, 1.0),)}, "steps"),
    ("offset_sin", {"beta0": 1.0, "beta1": 0.5, "omega": 3.0, "steps": ((1.0, 1.0),)},
     "steps"),
    ("steps", {"steps": ((1.0, 1.0),), "beta0": 2.0}, "beta0"),
    ("steps", {"steps": ((1.0, 1.0),), "beta1": 2.0}, "beta1"),
    ("steps", {"steps": ((1.0, 1.0),), "omega": 2.0}, "omega"),
])
def test_profile_rejects_a_field_its_kind_does_not_read(kind, fields, unused):
    with pytest.raises(ProfileError, match=f"'{unused}' is not used by kind '{kind}'"):
        DriveProfile(kind, **fields)
    read = {name: value for name, value in fields.items() if name != unused}
    assert DriveProfile(kind, **read).kind == kind


def test_profile_accepts_a_passed_along_period():
    profile = DriveProfile.sinusoid(1.0, 3.0)
    assert replace(profile, beta0=2.0).period == profile.period
    assert DriveProfile("steps", steps=((1.0, 0.5),), period=9.0).period == 0.5
