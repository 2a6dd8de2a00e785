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
    SpinParams,
    TrapField,
    classical_trajectory,
    evolve,
    floquet_result,
    loop_deviation,
    monodromy,
    nodal_approx_error,
    oscillator_quasienergies,
    planar_loop_check,
    planar_trajectory,
    polish_loop_beta1,
    rotating_frame_reduction,
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


# Each call passes one input that is NaN, infinite or out of range, named by
# the first entry: the Hill stack first, then the checks it shares and the trap
# fields.
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
    pytest.param("period", lambda: floquet_result(np.eye(2), math.nan), id="floquet_result-nan"),
    pytest.param("monodromy", lambda: floquet_result(np.full((2, 2), math.nan), 1.0),
                 id="floquet_result-matrix"),
    pytest.param("monodromy must be a 2x2", lambda: floquet_result(np.diag([3.0, 0.5, 0.1]), 1.0),
                 id="floquet_result-shape"),
    pytest.param("omega_F", lambda: oscillator_quasienergies(math.nan, 2.0, 3),
                 id="oscillator_quasienergies-nan"),
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
