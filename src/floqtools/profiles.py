"""Periodic scalar drive profiles beta(t) shared by the oscillator solvers."""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from ._linops import TWO_PI, _shown, count, finite_product, is_finite_number, resolve_steps

PROFILE_KINDS = ("constant", "steps", "sin", "offset_sin")


class ProfileError(ValueError):
    """Invalid drive-profile definition (bad kind, field, or value)."""


@dataclass(frozen=True)
class DriveProfile:
    """A T-periodic scalar drive beta(t).

    kind    one of PROFILE_KINDS
    beta0   constant value, sine amplitude, or sine offset
    beta1   sine amplitude of the offset_sin kind
    omega   angular frequency of the sinusoidal kinds
    steps   ((beta, tau), ...) for the steps kind, given as a list or tuple
    period  drive period T; derived, also by dataclasses.replace, as
            2 pi / omega for the sinusoidal kinds and the sum of tau for steps

    Every number must be finite, and a field the kind does not read must keep
    its default; a ProfileError names the offending field.
    """

    kind: str
    beta0: float = 0.0
    beta1: float = 0.0
    omega: float = 0.0
    steps: tuple = ()
    period: float = 1.0

    def __post_init__(self):
        _check_kind(self.kind)
        for name, default in _UNUSED_FIELDS[self.kind]:
            if getattr(self, name) != default:
                raise ProfileError(f"field {name!r} is not used by kind {self.kind!r}")
        for name in ("omega", "beta0", "beta1"):
            value = getattr(self, name)
            if type(value) is not float or not math.isfinite(value):
                object.__setattr__(self, name, _finite(value, name))
        if self.kind in ("sin", "offset_sin"):
            if not self.omega > 0:
                raise ProfileError(f"field 'omega' must be positive for kind {self.kind!r}")
            object.__setattr__(self, "period", TWO_PI / self.omega)
        if self.kind == "steps":
            if not isinstance(self.steps, (list, tuple)) or not self.steps:
                raise ProfileError("field 'steps' must be a non-empty list of [beta, tau] pairs")
            for i, pair in enumerate(self.steps):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ProfileError(f"field 'steps'[{i}] must be a [beta, tau] pair")
                if not all(map(is_finite_number, pair)):
                    raise ProfileError(f"field 'steps'[{i}] must contain finite numbers")
                if not pair[1] > 0:
                    raise ProfileError(f"field 'steps'[{i}]: duration must be positive")
            object.__setattr__(self, "steps", tuple((float(b), float(t)) for b, t in self.steps))
            object.__setattr__(self, "period", sum(tau for _, tau in self.steps))
        # A derived period can overflow: 2 pi / 1e-310 is infinite.
        object.__setattr__(self, "period", _finite(self.period, "period"))
        if not self.period > 0:
            raise ProfileError("field 'period' must be positive")

    @staticmethod
    def constant(beta0, period=1.0):
        return DriveProfile("constant", beta0=beta0, period=period)

    @staticmethod
    def from_steps(steps):
        return DriveProfile("steps", steps=steps)

    @staticmethod
    def sinusoid(beta0, omega):
        """beta(t) = beta0 sin(omega t)."""
        return DriveProfile("sin", beta0=beta0, omega=omega)

    @staticmethod
    def offset_sinusoid(beta0, beta1, omega):
        """beta(t) = beta0 + beta1 sin(omega t)."""
        return DriveProfile("offset_sin", beta0=beta0, beta1=beta1, omega=omega)


def eval_beta(profile, t):
    """beta(t) with periodic wrap-around; accepts scalars or arrays."""
    tt = np.asarray(t, dtype=float)
    if profile.kind == "constant":
        out = np.full(tt.shape, profile.beta0)
    elif profile.kind == "sin":
        out = profile.beta0 * np.sin(profile.omega * tt)
    elif profile.kind == "offset_sin":
        out = profile.beta0 + profile.beta1 * np.sin(profile.omega * tt)
    else:
        local = np.mod(tt, profile.period)
        edges = _step_ends(profile)
        idx = np.minimum(np.searchsorted(edges, local, side="right"), len(edges) - 1)
        out = np.asarray([beta for beta, _ in profile.steps])[idx]
    return out if tt.ndim else float(out)


def _step_ends(profile):
    """Ends of the steps within a period: the running sums of the durations."""
    return list(accumulate(tau for _, tau in profile.steps))


def beta_period_integral(profile):
    """Integral of beta over one period, evaluated in closed form."""
    if profile.kind == "constant":
        return profile.beta0 * profile.period
    if profile.kind == "steps":
        return sum(beta * tau for beta, tau in profile.steps)
    if profile.kind == "sin":
        return 0.0
    return profile.beta0 * profile.period


def with_amplitude(profile, beta0):
    """Member of the profile's amplitude family with overall scale beta0.

    For constant/sin/offset_sin the beta0 field is replaced; for steps the
    listed beta values are treated as a unit-amplitude pulse shape and are
    scaled by beta0.

    The result is dataclasses.replace's, but only the new amplitude is
    checked: every other field is the profile's own, checked when it was
    built, and so is the period, which the kind derives from them.
    """
    if profile.kind == "steps":
        scaled = tuple((finite_product(beta0, beta), tau) for beta, tau in profile.steps)
        for i, (beta, _) in enumerate(scaled):
            if not math.isfinite(beta):
                raise ProfileError(f"field 'steps'[{i}] must contain finite numbers")
        return _rebuilt(profile, steps=scaled)
    return _rebuilt(profile, beta0=_finite(float(beta0), "beta0"))


def _rebuilt(profile, **checked):
    """A copy of the profile with the checked fields replaced, built without __post_init__."""
    new = object.__new__(type(profile))
    vars(new).update(vars(profile), **checked)
    return new


def sample_segments(profile, times, substeps=1):
    """Frozen-coefficient segments (dts, betas, ends) of a sample grid.

    A sinusoidal kind cuts each sample interval into `substeps` equal pieces.
    The others ignore substeps and cut at the sample times and, for steps,
    at the drive edges k * period + end_i between them. An edge within guard
    of a sample time is dropped, so that time joins the piece past the edge;
    the guard grows with ulp(times[-1]), the rounding of k * period + end_i
    far from t = 0. Each segment takes beta at its midpoint, which is exact
    for the piecewise-constant kinds. ends[k] counts the segments before
    times[k].
    """
    times = np.asarray(times, dtype=float)
    spans = times[1:] - times[:-1]
    if (spans < 0).any():
        raise ValueError("t_end must not precede t_start")
    pieces = count(substeps, "substeps", 1) if profile.kind in ("sin", "offset_sin") else 1
    cuts = times
    ends = np.arange(0, times.size * pieces, pieces)
    if profile.kind == "steps" and times.size > 1:
        period = profile.period
        guard = max(1e-12 * period, 4.0 * math.ulp(float(times[-1])))
        periods = range(math.floor(times[0] / period), math.floor(times[-1] / period) + 1)
        edges = np.array([k * period + end for k in periods for end in _step_ends(profile)])
        # after[i] indexes the first sample time at or past edges[i], clamped
        # to [1, n - 1]; an edge outside the grid then fails the keep test.
        after = times[1:-1].searchsorted(edges) + 1
        keep = (edges > times[after - 1] + guard) & (edges < times[after] - guard)
        edges, after = edges[keep], after[keep]
        cuts = np.sort(np.concatenate([times, edges]))
        spans = cuts[1:] - cuts[:-1]
        ends = ends + after.searchsorted(ends, side="right")
    h = spans / pieces
    mids = cuts[:-1, None] + (np.arange(pieces) + 0.5) * h[:, None]
    return np.repeat(h, pieces), eval_beta(profile, mids.ravel()), ends


def integration_segments(profile, t_start, t_end, n_steps):
    """Frozen-coefficient grid (dts, betas) covering [t_start, t_end].

    The two-point case of sample_segments with n_steps substeps (None
    selects default_steps()); the piecewise-constant kinds ignore n_steps.
    A sin, offset_sin or steps grid rescales the cached one of its
    amplitude-free unit by eval_beta's own operations, so it is bit for bit
    sample_segments'; its dts are read-only.
    """
    pieces = resolve_steps(n_steps)
    # The cache's keys do not tell 0.0 from -0.0, which only an empty span
    # at t = 0 tells apart.
    if profile.kind == "constant" or t_start == t_end:
        return sample_segments(profile, [t_start, t_end], pieces)[:2]
    shape = tuple(tau for _, tau in profile.steps) if profile.kind == "steps" else profile.omega
    dts, units = _unit_segments(shape, float(t_start), float(t_end), pieces)
    if profile.kind == "steps":
        return dts, np.array([beta for beta, _ in profile.steps])[units]
    if profile.kind == "sin":
        return dts, profile.beta0 * units
    return dts, profile.beta0 + profile.beta1 * units


@functools.lru_cache(maxsize=2)
def _unit_segments(shape, t_start, t_end, pieces):
    """Read-only sample_segments(unit, [t_start, t_end], pieces)[:2] of a unit drive.

    The unit is sin(omega t) for shape omega, or betas 0..k-1 on the step
    durations shape, whose betas come back as intp step indices.
    """
    steps = isinstance(shape, tuple)
    unit = (DriveProfile.from_steps(tuple(enumerate(shape))) if steps
            else DriveProfile.sinusoid(1.0, shape))
    dts, units = sample_segments(unit, [t_start, t_end], pieces)[:2]
    grid = dts, units.astype(np.intp) if steps else units
    for array in grid:
        array.flags.writeable = False
    return grid


_JSON_FIELDS = {
    "constant": (("beta0",), ("omega", "period")),
    "steps": (("steps",), ()),
    "sin": (("beta0", "omega"), ()),
    "offset_sin": (("beta0", "beta1", "omega"), ()),
}


# (name, default) of each field a kind does not read: every field outside its
# required JSON fields but the derived period, which dataclasses.replace
# passes along.
_UNUSED_FIELDS = {
    kind: tuple((field.name, field.default) for field in fields(DriveProfile)
                if field.name not in ("kind", "period") + required)
    for kind, (required, _) in _JSON_FIELDS.items()
}


def _check_kind(kind):
    """ProfileError naming field 'kind' unless kind is one of PROFILE_KINDS.

    An integer is shown through _shown: repr fails past 4300 digits.
    """
    if kind not in PROFILE_KINDS:
        shown = _shown(kind) if isinstance(kind, int) else repr(kind)
        raise ProfileError(f"field 'kind' must be one of {PROFILE_KINDS}, got {shown}")


def _finite(value, field):
    """value as a float, or ProfileError naming field unless it is a finite number."""
    if not is_finite_number(value):
        raise ProfileError(f"field {field!r} must be a finite number")
    return float(value)


def profile_from_json(source):
    """Build a DriveProfile from a JSON object (text or dict).

    Schema: {"kind": "constant"|"steps"|"sin"|"offset_sin", "beta0": num,
    "beta1": num?, "omega": num?, "steps": [[beta, tau], ...]?}; constant
    profiles also accept either "period" (default 1.0) or "omega", which
    sets the period to 2 pi / omega, but not both. Errors name the
    offending field.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except ValueError as exc:  # a JSONDecodeError, or a number of over 4300 digits
            raise ProfileError(f"invalid profile JSON: {exc}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ProfileError("profile must be a JSON object")
    kind = obj.get("kind")
    _check_kind(kind)
    required, optional = _JSON_FIELDS[kind]
    for key in obj:
        if key != "kind" and key not in required and key not in optional:
            raise ProfileError(f"unexpected field {key!r} for kind {kind!r}")
    for key in required:
        if key not in obj:
            raise ProfileError(f"missing field {key!r} for kind {kind!r}")
    values = {key: value for key, value in obj.items() if key != "kind"}
    if "omega" in values and kind == "constant":
        if "period" in values:
            raise ProfileError("fields 'omega' and 'period' of a constant profile conflict")
        omega = _finite(values.pop("omega"), "omega")
        if not omega > 0:
            raise ProfileError("field 'omega' must be positive")
        values["period"] = TWO_PI / omega
    return DriveProfile(kind, **values)


def profile_to_json(profile):
    """Dict form of a profile matching the profile_from_json schema."""
    if profile.kind == "steps":
        return {"kind": "steps", "steps": [[beta, tau] for beta, tau in profile.steps]}
    keys = _JSON_FIELDS[profile.kind][0] + (("period",) if profile.kind == "constant" else ())
    return {"kind": profile.kind, **{key: getattr(profile, key) for key in keys}}
