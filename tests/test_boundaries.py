"""Count and non-finite inputs at the library boundary, and the Hill stack import graph."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

import floqtools
from floqtools import (
    SIGMA_Z,
    DriveProfile,
    QuasiSpectrum,
    SpinParams,
    TrapField,
    classical_trajectory,
    constant_family,
    evolve,
    find_loop_beta,
    floquet_hamiltonian,
    floquet_result,
    loop_deviation,
    magnetic_field_fd,
    monodromy,
    nodal_approx_error,
    oscillator_quasienergies,
    planar_loop_check,
    planar_trajectory,
    polish_loop_beta1,
    quasienergies,
    rotating_frame_reduction,
    stability_threshold,
    verify_factorization,
    with_amplitude,
)
from floqtools._linops import chain_matmul, prefix_products, resolve_steps
from floqtools.hill import loop_order_for_angle
from floqtools.profiles import integration_segments, sample_segments

TWO_PI = 2.0 * math.pi
SIN = DriveProfile.sinusoid(1.0, TWO_PI)

COUNT_SITES = [
    pytest.param("n_steps", lambda n: monodromy(SIN, n), id="monodromy"),
    pytest.param("n_steps", lambda n: integration_segments(SIN, 0.0, 1.0, n),
                 id="integration_segments"),
    pytest.param("substeps", lambda n: sample_segments(SIN, [0.0, 1.0], n), id="sample_segments"),
    pytest.param("n_steps", lambda n: classical_trajectory(SIN, (1.0, 0.0), 1.0, n),
                 id="classical_trajectory"),
    pytest.param("n_steps", lambda n: evolve(lambda t: SIGMA_Z, 1.0, n), id="evolve"),
    pytest.param("n_periods", lambda n: rotating_frame_reduction(SIN, n),
                 id="rotating_frame_reduction"),
    pytest.param("n_periods", lambda n: polish_loop_beta1(0.785, 0.946, TWO_PI, n),
                 id="polish_loop_beta1"),
    pytest.param("n_periods", lambda n: loop_deviation(np.eye(2), n), id="loop_deviation"),
    pytest.param("n_max", lambda n: floquet_result(np.diag([2.0, 0.5]), 1.0, n),
                 id="floquet_result"),
    pytest.param("n_max", lambda n: loop_order_for_angle(math.pi / 2, n),
                 id="loop_order_for_angle"),
    pytest.param("n_levels", lambda n: oscillator_quasienergies(1.0, 2.0, n),
                 id="oscillator_quasienergies"),
    pytest.param("n_dirs", lambda n: nodal_approx_error(TrapField(1.3, TWO_PI, 1.0), 0.1,
                                                        [0.0], n), id="nodal_approx_error"),
]


@pytest.mark.parametrize("value", [2.7, math.nan, True], ids=["fraction", "nan", "bool"])
@pytest.mark.parametrize("name, call", COUNT_SITES)
def test_count_rejects_non_integers_naming_the_parameter(name, call, value):
    with pytest.raises(ValueError, match=name):
        call(value)


# Values that are not finite numbers: a bool, a string, None, an integer too
# large for a float, and NaN.
NOT_NUMBERS = {"bool": True, "string": "2.5", "None": None, "huge": 10 ** 400, "nan": math.nan}
STEPS = DriveProfile.from_steps(((2.0, 0.5), (0.0, 0.5)))
ZERO_FIELD = lambda x, t: np.zeros(3)  # noqa: E731
# A number input of a library boundary (id: (name pattern, call with the value)).
NUMBER_INPUTS = {
    "with_amplitude-constant": ("beta0", lambda v: with_amplitude(DriveProfile.constant(1.0), v)),
    "with_amplitude-sin": ("beta0", lambda v: with_amplitude(SIN, v)),
    "with_amplitude-offset_sin": ("beta0", lambda v: with_amplitude(
        DriveProfile.offset_sinusoid(0.5, 1.0, TWO_PI), v)),
    "floquet_result-period": ("^period", lambda v: floquet_result(np.eye(2), v)),
    "quasienergies-period": ("^period", lambda v: quasienergies(np.eye(2), v)),
    "floquet_hamiltonian-period": ("^period", lambda v: floquet_hamiltonian(np.eye(2), v)),
    "QuasiSpectrum-omega": ("^omega", lambda v: QuasiSpectrum([0.1], v)),
    "oscillator_quasienergies-omega_F": ("^omega_F", lambda v: oscillator_quasienergies(v, 2.0, 3)),
    "oscillator_quasienergies-omega": ("^omega must",
                                       lambda v: oscillator_quasienergies(1.0, v, 3)),
    "magnetic_field_fd-h": ("^h must", lambda v: magnetic_field_fd(
        ZERO_FIELD, np.zeros(3), 0.0, v)),
    "find_loop_beta-target_angle": ("^target_angle", lambda v: find_loop_beta(
        constant_family(), v, (1.0, 2.0))),
    "find_loop_beta-bracket-lo": ("^bracket", lambda v: find_loop_beta(
        constant_family(), math.pi / 2, (v, 2.0))),
    "find_loop_beta-bracket-hi": ("^bracket", lambda v: find_loop_beta(
        constant_family(), math.pi / 2, (1.0, v))),
    "find_loop_beta-xtol": ("^xtol", lambda v: find_loop_beta(
        constant_family(), math.pi / 2, (1.0, 2.0), xtol=v)),
    "stability_threshold-xtol": ("^xtol", lambda v: stability_threshold(TWO_PI, xtol=v)),
    "verify_factorization-t_grid": ("^t_grid", lambda v: verify_factorization(
        SpinParams(1.0, 0.5, 1.0), [v], 64)),
}

# Each call passes one input that is not a finite number or is out of range,
# named by the first entry: the Hill stack first, then the checks it shares
# and the trap fields, then every number input above with each value of
# NOT_NUMBERS.
HILL_SITES = [
    pytest.param("t_end", lambda: classical_trajectory(SIN, (1.0, 0.0), math.nan, 4),
                 id="classical_trajectory-t_end"),
    pytest.param("state0", lambda: classical_trajectory(SIN, (math.nan, 0.0), 1.0, 4),
                 id="classical_trajectory-state0"),
    pytest.param("t_end", lambda: planar_trajectory(SIN, (1.0, 0.0, 0.0, 1.0), math.nan, 4),
                 id="planar_trajectory-t_end"),
    pytest.param("state0", lambda: planar_trajectory(SIN, (1.0, 0.0, math.inf, 1.0), 1.0, 4),
                 id="planar_trajectory-state0"),
    pytest.param("period", lambda: floquet_result(np.eye(2), 0.0), id="floquet_result-zero"),
    pytest.param("monodromy", lambda: floquet_result(np.full((2, 2), math.nan), 1.0),
                 id="floquet_result-matrix"),
    pytest.param("monodromy must be a 2x2", lambda: floquet_result(np.diag([3.0, 0.5, 0.1]), 1.0),
                 id="floquet_result-shape"),
    pytest.param("omega_F", lambda: oscillator_quasienergies(math.inf, 2.0, 3),
                 id="oscillator_quasienergies-inf"),
    *[pytest.param("^tol must be positive and finite", lambda tol=tol: planar_loop_check(
        SIN, 24, tol), id=f"planar_loop_check-tol-{tol}")
      for tol in (-1.0, 0.0, math.nan, math.inf, True)],
    pytest.param("^target_angle must be finite", lambda: loop_order_for_angle(math.inf),
                 id="loop_order_for_angle-inf"),
    pytest.param("^field 'period' must be positive$", lambda: DriveProfile.constant(1.0, 0.0),
                 id="DriveProfile-period"),
    pytest.param("^expected a non-empty stack", lambda: chain_matmul(np.zeros((0, 2, 2))),
                 id="chain_matmul-empty"),
    pytest.param("^expected a non-empty stack of 2x2",
                 lambda: prefix_products(np.zeros((0, 2, 2)), [1.0, 0.0]),
                 id="prefix_products-empty"),
    pytest.param("^expected a non-empty stack of 2x2",
                 lambda: prefix_products(np.eye(3)[None], [1.0, 0.0]), id="prefix_products-3x3"),
    pytest.param("^omega must be positive$", lambda: TrapField(1, 0, 1), id="TrapField-omega"),
    pytest.param("^light_speed must be positive$", lambda: TrapField(1, 1, -1),
                 id="TrapField-light_speed"),
    pytest.param("^omega and light_speed must give a finite wavenumber",
                 lambda: TrapField(1, 1e200, 1e-200), id="TrapField-wavenumber"),
    pytest.param("^axis_n must be a 3-vector$", lambda: TrapField(1, 1, 1, axis_n=[0.0, 1.0]),
                 id="TrapField-axis-shape"),
    pytest.param("^radius must be non-negative$", lambda: nodal_approx_error(
        TrapField(1.3, TWO_PI, 1.0), -1.0, [0.0]), id="nodal_approx_error-radius"),
    pytest.param("^monodromy must be finite$",
                 lambda: loop_deviation([[1.0, math.nan], [0.0, 1.0]], 4),
                 id="loop_deviation-matrix"),
    pytest.param("^monodromy must be a 2x2", lambda: loop_deviation(np.eye(3), 4),
                 id="loop_deviation-shape"),
    *[pytest.param(name, lambda call=call, value=value: call(value), id=f"{site}-{label}")
      for site, (name, call) in NUMBER_INPUTS.items() for label, value in NOT_NUMBERS.items()],
    # A steps amplitude that is NaN makes the step betas NaN, which the steps
    # check names (test_properties).
    *[pytest.param("beta0", lambda value=value: with_amplitude(STEPS, value),
                   id=f"with_amplitude-steps-{label}")
      for label, value in NOT_NUMBERS.items() if label != "nan"],
    *[pytest.param("^xtol must be positive and finite", lambda call=call, value=value: call(value),
                   id=f"{site}-{value:g}")
      for site in ("find_loop_beta-xtol", "stability_threshold-xtol")
      for call in [NUMBER_INPUTS[site][1]] for value in (0.0, -1.0)],
]


@pytest.mark.parametrize("name, call", HILL_SITES)
def test_hill_routine_rejects_a_non_finite_input_naming_it(name, call, recwarn):
    with pytest.raises(ValueError, match=name):
        call()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("name, call", [
    ("mu", lambda: SpinParams(10 ** 5000, 1, 1)),
    ("n_steps", lambda: resolve_steps(-10 ** 5000)),
    ("field 'kind'", lambda: DriveProfile(kind=10 ** 5000, beta0=1.0)),
], ids=["require_finite", "count", "DriveProfile-kind"])
def test_an_integer_too_long_for_decimal_text_is_named_by_its_bit_length(name, call):
    with pytest.raises(ValueError, match=f"^{name} must .*, got an integer of 16610 bits$"):
        call()


def test_count_accepts_numpy_integers():
    assert np.array_equal(monodromy(SIN, np.int64(16)), monodromy(SIN, 16))
    assert oscillator_quasienergies(1.0, 2.0, np.int32(3)).shape == (3,)


@pytest.mark.parametrize("module", ["profiles", "hill", "planar_charge"])
def test_hill_stack_does_not_import_propagator(module):
    tree = ast.parse((Path(floqtools.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "propagator" for name in imported)
