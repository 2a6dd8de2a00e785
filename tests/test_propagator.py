import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from floqtools import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QuasiSpectrum,
    StepPattern,
    Unitary,
    as_hermitian,
    default_steps,
    epicycle,
    evolve,
    expm_hermitian,
    floquet_hamiltonian,
    quasienergies,
    reduce_to_zone,
    step_evolve,
    step_propagator,
    unitarity_defect,
)
from floqtools import hill, propagator
from floqtools._linops import _entry_product, chain_matmul
from floqtools.profiles import DriveProfile

TWO_PI = 2.0 * math.pi


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


# ---------- expm_hermitian ----------


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_expm_zero_hamiltonian_is_identity(dim):
    u = expm_hermitian(np.zeros((dim, dim)), 7.3)
    assert_allclose(u.matrix, np.eye(dim), atol=1e-14)


def test_expm_sigma_z_pi_is_minus_identity():
    u = expm_hermitian(SIGMA_Z, math.pi)
    assert_allclose(u.matrix, -np.eye(2), atol=1e-14)


def test_expm_sigma_x_quarter_turn():
    u = expm_hermitian(SIGMA_X, math.pi / 2)
    assert_allclose(u.matrix, -1j * SIGMA_X, atol=1e-14)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_rejects_non_finite_duration():
    with pytest.raises(ValueError):
        expm_hermitian(SIGMA_Z, math.inf)


NAN_MATRIX = np.array([[math.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: Unitary(np.full((2, 2), math.nan)), "unitary", id="Unitary"),
    pytest.param(lambda: as_hermitian(NAN_MATRIX), "Hermitian", id="as_hermitian"),
    pytest.param(lambda: Unitary(np.zeros((2, 3))), r"square matrix, got shape \(2, 3\)",
                 id="Unitary-shape"),
    pytest.param(lambda: as_hermitian(np.zeros((2, 3))), r"square matrix, got shape \(2, 3\)",
                 id="as_hermitian-shape"),
    pytest.param(lambda: StepPattern(((NAN_MATRIX, 1.0),)), "Hermitian", id="StepPattern"),
    pytest.param(lambda: expm_hermitian(NAN_MATRIX, 1.0), "Hermitian", id="expm_hermitian"),
    pytest.param(lambda: step_propagator([(NAN_MATRIX, 1.0)]), "Hermitian",
                 id="step_propagator"),
    pytest.param(lambda: evolve(lambda t: NAN_MATRIX, 1.0, 4), "Hermitian", id="evolve-H"),
    pytest.param(lambda: StepPattern(((SIGMA_Z, math.inf),)), "duration",
                 id="StepPattern-duration"),
    pytest.param(lambda: StepPattern(((SIGMA_Z, 1.0), (SIGMA_Z, True))),
                 "step 1: duration must be positive and finite", id="StepPattern-bool"),
    pytest.param(lambda: StepPattern(((SIGMA_Z, "2"),)),
                 "step 0: duration must be positive and finite", id="StepPattern-string"),
    pytest.param(lambda: StepPattern(((SIGMA_Z, 10 ** 5000),)),
                 "step 0: duration must be positive and finite", id="StepPattern-huge"),
    pytest.param(lambda: StepPattern(((SIGMA_Z,),)), r"step 0 must be an \(H, tau\) pair",
                 id="StepPattern-single"),
    pytest.param(lambda: StepPattern(((SIGMA_Z, 1.0), SIGMA_Z)),
                 r"step 1 must be an \(H, tau\) pair", id="StepPattern-matrix"),
    pytest.param(lambda: QuasiSpectrum([math.nan, 0.1], 1.0), "zone", id="QuasiSpectrum"),
    pytest.param(lambda: QuasiSpectrum([0.1], math.inf), "omega", id="QuasiSpectrum-omega"),
    pytest.param(lambda: floquet_hamiltonian(np.eye(2), math.inf), "period",
                 id="floquet_hamiltonian-period"),
    pytest.param(lambda: quasienergies(np.eye(2), math.inf), "period", id="quasienergies-period"),
    pytest.param(lambda: evolve(lambda t: SIGMA_Z, math.nan, 4), "t_end", id="evolve-t_end"),
    pytest.param(lambda: evolve(lambda t: SIGMA_Z, 1.0, 4, t_start=math.inf), "t_start",
                 id="evolve-t_start"),
    pytest.param(lambda: step_evolve([(SIGMA_Z, 1.0)], math.nan), "t must be finite",
                 id="step_evolve-nan"),
    pytest.param(lambda: step_evolve([(SIGMA_Z, 1.0)], math.inf), "t must be finite",
                 id="step_evolve-inf"),
    pytest.param(lambda: StepPattern(()), r"^a step pattern needs at least one \(H, tau\) step$",
                 id="StepPattern-empty"),
    pytest.param(lambda: step_evolve([(SIGMA_Z, 1.0)], -1.0), "^t must be non-negative$",
                 id="step_evolve-negative"),
    # Each step's duration is checked before the matrices are checked as one stack.
    pytest.param(lambda: StepPattern(((np.triu(SIGMA_X), 1.0), (SIGMA_Z, True))),
                 "^step 1: duration must be positive and finite$", id="StepPattern-two-faults"),
])
def test_non_finite_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("i, j, imaginary", [(0, 0, False), (1, 1, True), (0, 1, False),
                                             (1, 0, True)],
                         ids=["diagonal", "diagonal-imag", "upper", "lower-imag"])
def test_non_finite_hamiltonian_entry_is_rejected_without_warnings(dim, value, i, j, imaginary):
    m = np.zeros((dim, dim), dtype=complex)
    # complex(0, inf), not 1j * inf, whose real part is NaN.
    m[i, j] = complex(0.0, value) if imaginary else complex(value, 0.0)
    calls = [lambda: as_hermitian(m), lambda: StepPattern(((m, 1.0),)),
             lambda: expm_hermitian(m, 1.0),
             lambda: evolve(lambda t: np.broadcast_to(m, np.shape(t) + m.shape), 1.0, 4)]
    for call in calls:
        with pytest.raises(ValueError, match="Hermitian"):
            call()


# ---------- step patterns ----------


def test_single_step_matches_expm():
    pattern = StepPattern(((SIGMA_X, 0.7),))
    assert_allclose(step_propagator(pattern).matrix,
                    expm_hermitian(SIGMA_X, 0.7).matrix, atol=1e-14)


def test_commuting_steps_add_exponents():
    pattern = StepPattern(((SIGMA_Z, 1.0), (SIGMA_Z, 2.0)))
    assert_allclose(step_propagator(pattern).matrix,
                    expm_hermitian(SIGMA_Z, 3.0).matrix, atol=1e-14)


def test_noncommuting_step_product():
    # Direct 2x2 product: (-i sz)(-i sx) = -i sy.
    pattern = StepPattern(((SIGMA_X, math.pi / 2), (SIGMA_Z, math.pi / 2)))
    assert_allclose(step_propagator(pattern).matrix, -1j * SIGMA_Y, atol=1e-14)


def test_step_pattern_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        StepPattern(((SIGMA_Z, 1.0), (np.zeros((3, 3)), 1.0)))


def test_step_pattern_rejects_nonpositive_duration():
    with pytest.raises(ValueError, match="duration"):
        StepPattern(((SIGMA_Z, 0.0),))


def test_step_evolve_splits_straddling_step():
    pattern = StepPattern(((SIGMA_X, 0.4), (SIGMA_Z, 0.6)))
    expected = expm_hermitian(SIGMA_Z, 0.3).matrix @ expm_hermitian(SIGMA_X, 0.4).matrix
    assert_allclose(step_evolve(pattern, 0.7).matrix, expected, atol=1e-14)


def test_step_evolve_beyond_one_period():
    pattern = StepPattern(((SIGMA_X, 0.4), (SIGMA_Z, 0.6)))
    u_t = step_propagator(pattern).matrix
    expected = expm_hermitian(SIGMA_X, 0.3).matrix @ u_t
    assert_allclose(step_evolve(pattern, 1.3).matrix, expected, atol=1e-13)


@st.composite
def step_patterns(draw):
    """Hermitian patterns of d = 2..5 and 1..60 steps at scales 0.01 to 100."""
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scales = 10.0 ** rng.uniform(-2.0, 2.0, n)
    taus = draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n))
    return StepPattern(tuple((s * random_hermitian(rng, dim), tau) for s, tau in zip(scales, taus)))


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(pattern=step_patterns())
def test_step_propagator_is_the_chain_of_single_step_exponentials(pattern):
    steps = [expm_hermitian(h, tau).matrix for h, tau in pattern.steps]
    assert np.array_equal(step_propagator(pattern).matrix, chain_matmul(steps))


def _sequential_step_evolve(pattern, t):
    n_full, left = divmod(t, pattern.period)
    u = np.linalg.matrix_power(step_propagator(pattern).matrix, int(n_full))
    for h, tau in pattern.steps:
        if left <= 0:
            break
        dt = min(tau, left)
        u = expm_hermitian(h, dt).matrix @ u
        left -= dt
    return u


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_step_evolve_matches_the_sequential_remainder_product(dim):
    rng = np.random.default_rng(dim)
    pattern = StepPattern(tuple((random_hermitian(rng, dim), float(tau))
                                for tau in rng.uniform(0.1, 0.5, 7)))
    edges = np.cumsum(pattern.durations)
    for t in [0.0, *edges, *(edges + pattern.period), *rng.uniform(0.0, 3 * pattern.period, 8)]:
        got = step_evolve(pattern, t).matrix
        assert np.abs(got - _sequential_step_evolve(pattern, float(t))).max() <= 1e-13


@pytest.mark.parametrize("dim", [2, 3])
def test_step_evolve_over_whole_periods_is_the_power_of_the_period_propagator(dim):
    rng = np.random.default_rng(dim)
    pattern = StepPattern(tuple((random_hermitian(rng, dim), tau) for tau in (0.25, 1.0, 0.5)))
    u_t = step_propagator(pattern).matrix
    for n in (0, 1, 2, 7, 1000):
        assert divmod(n * pattern.period, pattern.period) == (n, 0.0)
        got = step_evolve(pattern, n * pattern.period).matrix
        assert np.array_equal(got, np.linalg.matrix_power(u_t, n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("periods, message", [
    (1e6, r"^the product of 2000000 steps drifts from unitary \(defect \d\.\d{3}e-10\)$"),
    (1e20, "^result is not finite: the power of the one-period propagator overflows$"),
], ids=["drift", "overflow"])
def test_step_evolve_over_many_periods_raises_floating_point_error(periods, message):
    pattern = StepPattern(((SIGMA_Z, 1.0), (SIGMA_X, 0.5)))
    with pytest.raises(FloatingPointError, match=message):
        step_evolve(pattern, periods * pattern.period)


def test_step_pattern_keeps_its_stack_and_durations():
    pattern = StepPattern(((SIGMA_X, 0.25), (SIGMA_Z, 1), (SIGMA_Y, 0.5)))
    assert pattern.hamiltonians.shape == (3, 2, 2)
    assert pattern.durations.tolist() == [0.25, 1.0, 0.5]
    for (h, tau), stacked, duration in zip(pattern.steps, pattern.hamiltonians,
                                           pattern.durations):
        assert h.tobytes() == stacked.tobytes() and tau == duration
    assert pattern.period == 1.75
    # Both arrays are read-only, so the period and propagator read one pattern.
    u = step_propagator(pattern).matrix
    for write in (lambda: pattern.hamiltonians.__setitem__(0, SIGMA_Z),
                  lambda: pattern.durations.__setitem__(0, 3.0),
                  lambda: pattern.steps[0][0].__setitem__(0, 0.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert pattern.period == 1.75
    assert np.array_equal(step_propagator(pattern).matrix, u)


@pytest.mark.parametrize("dim", [2, 3])
def test_expm_hermitian_of_a_stack_is_each_matrix_alone(dim):
    rng = np.random.default_rng(dim)
    hs = np.array([random_hermitian(rng, dim) for _ in range(5)])
    taus = rng.uniform(0.1, 2.0, 5)
    steps = expm_hermitian(hs, taus)
    assert isinstance(steps, np.ndarray) and steps.shape == (5, dim, dim)
    for h, tau, step in zip(hs, taus, steps):
        assert np.array_equal(step, expm_hermitian(h, float(tau)).matrix)
    for h, step in zip(hs, expm_hermitian(hs, 0.7)):
        assert np.array_equal(step, expm_hermitian(h, 0.7).matrix)
    for t in (0.7, np.zeros(0)):
        assert expm_hermitian(hs[:0], t).shape == (0, dim, dim)


@pytest.mark.parametrize("make, t, error, message", [
    (lambda hs: hs + np.triu(np.ones(2), 1), 1.0, ValueError, "matrix is not Hermitian"),
    (lambda hs: hs, [1.0, 2.0], ValueError, r"t must be finite, one duration per matrix"),
    (lambda hs: hs, [1.0, 2.0, math.nan], ValueError, "t must be finite"),
    (lambda hs: hs, math.inf, ValueError, "t must be finite"),
    (lambda hs: hs[:, :1], 1.0, ValueError, "expected a square matrix"),
    (lambda hs: 1e300 * hs, [1.0, 1e10, 1.0], FloatingPointError,
     "a step exponent H t overflows"),
], ids=["non-hermitian", "short-durations", "nan-duration", "inf-duration", "not-square",
        "overflow"])
def test_expm_hermitian_of_a_stack_checks_it_once(make, t, error, message):
    hs = np.array([SIGMA_X, SIGMA_Z, SIGMA_Y])
    with pytest.raises(error, match=message):
        expm_hermitian(make(hs), t)


# ---------- evolve ----------


def test_evolve_constant_hamiltonian_exact():
    u = evolve(lambda t: SIGMA_Z, 1.0, n_steps=3)
    assert_allclose(u.matrix, expm_hermitian(SIGMA_Z, 1.0).matrix, atol=1e-14)


def test_evolve_zero_average_commuting_drive():
    u = evolve(lambda t: math.sin(TWO_PI * t) * SIGMA_Z, 1.0, n_steps=256)
    assert_allclose(u.matrix, np.eye(2), atol=1e-13)


def test_evolve_gauss_scheme_is_fourth_order():
    h = lambda t: SIGMA_X + math.sin(TWO_PI * t) * SIGMA_Z  # noqa: E731
    u = {n: evolve(h, 1.0, n).matrix for n in (64, 128, 256)}
    coarse = np.abs(u[64] - u[128]).max()
    fine = np.abs(u[128] - u[256]).max()
    assert 12.0 < coarse / fine < 20.0


def test_evolve_accepts_vectorized_callable():
    def h(t):
        t = np.asarray(t)
        return SIGMA_X + np.multiply.outer(np.sin(TWO_PI * t), SIGMA_Z)

    scalar = evolve(lambda t: SIGMA_X + math.sin(TWO_PI * t) * SIGMA_Z, 1.0, 512)
    assert_allclose(evolve(h, 1.0, 512).matrix, scalar.matrix, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_steps", [3, 4095, 4097])
def test_per_point_drive_equals_the_vectorized_drive(dim, n_steps):
    h = _cosine_drive(dim, 7)
    probes, points = [], []

    def per_point(t):
        (probes if np.ndim(t) else points).append(t)
        return h(float(t))  # float() raises TypeError on an array of times

    assert np.array_equal(evolve(per_point, 1.0, n_steps).matrix, evolve(h, 1.0, n_steps).matrix)
    # One array probe per chunk, both Gauss nodes at once, then one call per node.
    assert len(probes) == -(-n_steps // propagator._CHUNK)
    assert len(points) == 2 * n_steps


def test_evolve_checks_each_sample_against_its_own_scale():
    # The 2e-11 defect is below 1e-12 of the stack's largest entry but not
    # of its own matrix.
    def h(t):
        t = np.asarray(t)
        stack = np.multiply.outer(np.where(t < 0.5, 1e3, 1.0), SIGMA_X)
        stack[t >= 0.5, 0, 1] += 2e-11
        return stack

    with pytest.raises(ValueError, match="Hermitian"):
        evolve(h, 1.0, 4)


@pytest.mark.parametrize("error", [RuntimeError, KeyError])
def test_evolve_propagates_a_callable_error_after_one_call(error):
    # Only TypeError and ValueError, what a scalar-only callable raises on an
    # array, fall back to per-point calls.
    calls = []

    def h(t):
        calls.append(t)
        if np.ndim(t):
            raise error("drive failed")
        return SIGMA_Z

    with pytest.raises(error, match="drive failed"):
        evolve(h, 1.0, 8)
    assert len(calls) == 1


def test_evolve_rejects_zero_steps():
    with pytest.raises(ValueError):
        evolve(lambda t: SIGMA_Z, 1.0, n_steps=0)


def test_evolve_composes_over_subintervals():
    h = lambda t: SIGMA_X + math.sin(TWO_PI * t) * SIGMA_Z  # noqa: E731
    full = evolve(h, 1.0, 4096).matrix
    halves = evolve(h, 1.0, 2048, t_start=0.5).matrix @ evolve(h, 0.5, 2048).matrix
    assert np.abs(full - halves).max() < 1e-9


def test_zeeman_cancellation():
    # H(t) = H0 - b(t) M with [H0, M] = 0 and zero-average b: the drive term
    # drops out of the one-period propagator.
    rng = np.random.default_rng(7)
    h0 = np.diag(rng.normal(size=4)) + 0.5 * np.eye(4)
    m = np.diag(rng.normal(size=4))
    u = evolve(lambda t: h0 - math.sin(TWO_PI * t) * m, 1.0, 512)
    assert np.abs(u.matrix - expm_hermitian(h0, 1.0).matrix).max() < 1e-12


def test_unitarity_of_propagators():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        h0 = random_hermitian(rng, dim)
        h1 = random_hermitian(rng, dim)
        u = evolve(lambda t: h0 + math.cos(TWO_PI * t) * h1, 1.0, 128)
        assert unitarity_defect(u.matrix) < 1e-10
        pattern = StepPattern(((h0, 0.3), (h1, 0.9)))
        assert unitarity_defect(step_propagator(pattern).matrix) < 1e-10


def test_unitary_wrapper_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        Unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


# ---------- Floquet Hamiltonian and quasienergies ----------


def test_floquet_hamiltonian_of_identity():
    assert_allclose(floquet_hamiltonian(np.eye(3), 1.0), np.zeros((3, 3)), atol=1e-12)


def test_floquet_branch_puts_pi_at_zone_edge():
    f = floquet_hamiltonian(-np.eye(2), 1.0)
    assert_allclose(f, math.pi * np.eye(2), atol=1e-12)


def test_floquet_hamiltonian_diagonal_phases():
    u = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    assert_allclose(floquet_hamiltonian(u, 1.0), np.diag([0.3, -0.3]), atol=1e-12)


def test_floquet_hamiltonian_reproduces_propagator():
    rng = np.random.default_rng(3)
    for _ in range(4):
        h = random_hermitian(rng, 4)
        t_period = float(rng.uniform(0.2, 3.0))
        u = expm_hermitian(h, t_period)
        f = floquet_hamiltonian(u, t_period)
        omega = TWO_PI / t_period
        vals = np.linalg.eigvalsh(f)
        assert np.all(vals > -omega / 2 - 1e-12) and np.all(vals <= omega / 2 + 1e-12)
        assert np.abs(expm_hermitian(f, t_period).matrix - u.matrix).max() < 1e-10


def test_floquet_hamiltonian_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        floquet_hamiltonian(np.diag([1.0, 2.0]), 1.0)


def test_quasienergies_identity():
    qs = quasienergies(np.eye(3), 2.0)
    assert_allclose(qs.values, np.zeros(3), atol=1e-13)
    assert qs.omega == pytest.approx(math.pi)


def test_quasienergies_commuting_steps():
    # (sz, 1) then (3 sz, 1): U = exp(-4i sz); average generator 2 sz has
    # spectrum {+-2}, reduced mod omega = pi to {+-(pi - 2)}.
    pattern = StepPattern(((SIGMA_Z, 1.0), (3.0 * SIGMA_Z, 1.0)))
    qs = quasienergies(step_propagator(pattern), 2.0)
    expected = np.array([-(math.pi - 2.0), math.pi - 2.0])
    assert_allclose(qs.values, expected, atol=1e-12)


def test_commuting_pattern_spectrum_matches_average_generator():
    rng = np.random.default_rng(19)
    diags = [np.diag(rng.normal(size=3)) for _ in range(3)]
    taus = rng.uniform(0.2, 1.5, size=3)
    pattern = StepPattern(tuple(zip(diags, taus)))
    t_period = pattern.period
    omega = TWO_PI / t_period
    average = sum(tau * h for h, tau in pattern.steps) / t_period
    expected = np.sort(reduce_to_zone(np.linalg.eigvalsh(average), omega))
    qs = quasienergies(step_propagator(pattern), t_period)
    assert_allclose(qs.values, expected, atol=1e-10)


def test_quasispectrum_rejects_out_of_zone_values():
    with pytest.raises(ValueError, match="zone"):
        QuasiSpectrum(np.array([0.9]), 1.0)


def test_reduce_to_zone_edges():
    assert reduce_to_zone(0.5, 1.0) == pytest.approx(0.5)
    assert reduce_to_zone(-0.5, 1.0) == pytest.approx(0.5)
    assert reduce_to_zone(1.3, 1.0) == pytest.approx(0.3)
    assert_allclose(reduce_to_zone(np.array([2.25 * math.pi]), TWO_PI),
                    [0.25 * math.pi])


# ---------- epicycle and instantaneous spectra ----------


def test_epicycle_at_time_zero():
    g = epicycle(lambda t: SIGMA_X, SIGMA_X, 0.0, n_steps=1)
    assert_allclose(g.matrix, np.eye(2), atol=1e-14)


def test_epicycle_constant_drive_is_trivial():
    for t in (0.4, 1.0, 2.7):
        g = epicycle(lambda s: SIGMA_X, SIGMA_X, t, n_steps=64)
        assert np.abs(g.matrix - np.eye(2)).max() < 1e-12


def test_epicycle_closes_at_period_multiples():
    h = lambda t: SIGMA_X + 1.7 * math.sin(TWO_PI * t) * SIGMA_Z  # noqa: E731
    f = floquet_hamiltonian(evolve(h, 1.0, 1024), 1.0)
    for n in (1, 2, 3):
        g = epicycle(h, f, float(n), n_steps=1024 * n)
        assert np.abs(g.matrix - np.eye(2)).max() < 1e-8


def test_as_hermitian_symmetrizes_within_tolerance():
    h = SIGMA_X + 1e-14 * np.array([[0.0, 1.0], [0.0, 0.0]])
    out = as_hermitian(h)
    assert np.abs(out - out.conj().T).max() == 0.0


def test_default_steps_env_override(monkeypatch):
    # No environment variable changes the default step count.
    monkeypatch.delenv("FLOQUET_STEPS", raising=False)
    assert default_steps() == 4096
    monkeypatch.setenv("FLOQUET_STEPS", "512")
    assert default_steps() == 4096
    monkeypatch.setenv("FLOQUET_STEPS", "zero")
    assert default_steps() == 4096


# ---------- closed-form 2x2 steps ----------

coefficient = st.floats(min_value=-1e3, max_value=1e3)


def su2_stack(rows):
    """Hermitian a0 + n.sigma for each (a0, nx, ny, nz) row."""
    return np.array([a0 * np.eye(2) + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
                     for a0, nx, ny, nz in rows])


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(rows=st.lists(st.tuples(coefficient, coefficient, coefficient, coefficient),
                     max_size=6),
       a0=coefficient, dt=st.floats(min_value=-10.0, max_value=10.0))
@example(rows=[(0.3, 700.0, -400.0, 500.0)], a0=2.0, dt=3.0)
@example(rows=[(-1.0, 0.0, 900.0, 0.0)], a0=0.0, dt=-4.0)
def test_closed_form_2x2_steps_match_eigh(rows, a0, dt):
    # Every stack also holds H = a0 (n = 0) and H = 0; the examples reach
    # |n| dt >= 1e3 with either sign of dt.
    hs = propagator._hermitian(su2_stack(rows + [(a0, 0.0, 0.0, 0.0), (0.0,) * 4]))
    u = propagator._expm_batch(hs, dt)
    for h, step in zip(hs, u):
        w, v = np.linalg.eigh(h)
        by_eigh = (v * np.exp(-1j * dt * w)) @ v.conj().T
        scale = max(1.0, np.abs(np.linalg.eigvalsh(h)).max() * abs(dt))
        assert np.abs(step - by_eigh).max() <= 1e-14 * scale
        assert unitarity_defect(step) <= 1e-14
        assert abs(np.linalg.det(step) - np.exp(-1j * dt * np.trace(h))) <= 1e-14


unit = st.floats(min_value=-1.0, max_value=1.0)
entry = st.tuples(st.integers(0, 1), st.integers(0, 1), st.booleans())  # i, j, imaginary part


@st.composite
def near_hermitian_stacks(draw):
    """2x2 stacks at scale 1 or 1e3, each matrix off Hermitian by up to twice the
    tolerance in one entry, and sometimes one entry NaN or infinite."""
    n = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 1e3]))
    m = scale * su2_stack(draw(st.lists(st.tuples(unit, unit, unit, unit),
                                        min_size=n, max_size=n)))
    for k in range(n):
        i, j, imaginary = draw(entry)
        size = draw(st.floats(0.0, 2.0)) * 1e-12 * max(1.0, float(np.abs(m[k]).max()))
        m[k, i, j] += 1j * size if imaginary else size
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        i, j, imaginary = draw(entry)
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        re, im = m[k, i, j].real, m[k, i, j].imag
        m[k, i, j] = complex(re, value) if imaginary else complex(value, im)
    return m


def _outcome(check, m):
    try:
        return check(m)
    except ValueError as err:
        return str(err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(m=near_hermitian_stacks())
def test_entry_check_is_the_matrix_check_on_three_rows(m):
    full = _outcome(propagator._hermitian, m)
    rows = _outcome(propagator._hermitian2, m)
    if isinstance(full, str):
        assert rows == full
        return
    assert not isinstance(rows, str), rows
    upper, lower, off = rows
    for got, want in ((upper, full[:, 0, 0].real), (lower, full[:, 1, 1].real),
                      (off, full[:, 1, 0])):
        assert got.tobytes() == want.tobytes()
    assert not full[:, 0, 0].imag.any() and not full[:, 1, 1].imag.any()


@st.composite
def scaled_patterns(draw):
    """Hermitian d x d matrices at scales 1 to 1e6, each off Hermitian by well
    inside its tolerance, and one by up to twice it, in one entry."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    mats = []
    for _ in range(n):
        values = draw(st.lists(unit, min_size=2 * dim * dim, max_size=2 * dim * dim))
        re, im = np.reshape(values, (2, dim, dim))
        a = re + 1j * im
        mats.append(10.0 ** draw(st.floats(0.0, 6.0)) * (a + a.conj().T))
    faulty = draw(st.integers(0, n - 1))
    for k, m in enumerate(mats):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        size = draw(st.floats(0.0, 2.0 if k == faulty else 0.2)) * 1e-12 * max(
            1.0, float(np.abs(m).max()))
        m[i, j] += 1j * size if draw(st.booleans()) else size
    return mats


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(mats=scaled_patterns())
def test_step_pattern_checks_its_stack_as_each_matrix_alone(mats):
    alone = [_outcome(as_hermitian, m) for m in mats]
    pattern = _outcome(StepPattern, tuple((m, 0.5) for m in mats))
    failures = [out for out in alone if isinstance(out, str)]
    if failures:
        # Only one matrix is off by more than a fifth of its tolerance.
        assert pattern == failures[0]
        return
    assert not isinstance(pattern, str), pattern
    for (h, tau), want in zip(pattern.steps, alone):
        assert h.tobytes() == want.tobytes()
        assert tau == 0.5


def test_lone_2x2_matrix_takes_the_closed_form_of_a_stack():
    hs = propagator._hermitian(su2_stack([(0.5, 1.0, -2.0, 0.25), (-1.0, 0.0, 3.0, 1e-3)]))
    u = propagator._expm_batch(hs, 0.7)
    for h, step in zip(hs, u):
        assert np.array_equal(propagator._expm_batch(h[None], 0.7)[0], step)
        assert np.array_equal(expm_hermitian(h, 0.7).matrix, step)


def test_entry_wise_2x2_product_matches_matmul():
    rng = np.random.default_rng(5)
    a, b = (rng.normal(size=(257, 2, 2)) + 1j * rng.normal(size=(257, 2, 2)) for _ in "ab")
    got = _entry_product(a.transpose(1, 2, 0), b.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert np.abs(got - np.matmul(a, b)).max() <= 1e-14


def _pairwise(m, product):
    """Pairwise chain reduction: neighbours multiplied, an odd last element carried."""
    while len(m) > 1:
        even = len(m) - len(m) % 2
        m = np.concatenate([product(m[1:even:2], m[0:even:2]), m[even:]])
    return m[0]


def _entry_formula(x, y):
    out = np.empty(x.shape, np.result_type(x, y))
    for i in range(2):
        for j in range(2):
            out[:, i, j] = x[:, i, 0] * y[:, 0, j] + x[:, i, 1] * y[:, 1, j]
    return out


@pytest.mark.parametrize("dtype", [float, complex])
def test_2x2_chain_is_the_entry_formula_reduction(dtype):
    rng = np.random.default_rng(6)
    m = rng.normal(size=(70, 2, 2)).astype(dtype)
    if dtype is complex:
        m += 1j * rng.normal(size=m.shape)
    # The same matrices stored entry-major and with a stride of two matrices.
    entry_major = np.ascontiguousarray(m.transpose(1, 2, 0)).transpose(2, 0, 1)
    strided = np.repeat(m, 2, axis=0)[::2]
    for n in range(1, 71):
        ref = _pairwise(m[:n], _entry_formula)
        for stack in (m[:n], entry_major[:n], strided[:n]):
            assert np.array_equal(chain_matmul(stack), ref), n
        by_matmul = _pairwise(m[:n], np.matmul)
        assert np.abs(ref - by_matmul).max() <= 1e-14 * np.abs(by_matmul).max()


def _cf4_on_stacks(h, n, product):
    """evolve's n CF4 steps across [0, 1], formed on full checked (n, d, d) stacks."""
    dt = 1.0 / n
    base = dt * np.arange(n)
    hs1, hs2 = (propagator._hermitian(propagator._sample_hamiltonian(h, base + c * dt))
                for c in (propagator._GAUSS_C1, propagator._GAUSS_C2))
    a1, a2 = propagator._CF4_A1, propagator._CF4_A2
    first = propagator._expm_batch(a1 * hs1 + a2 * hs2, dt)
    second = propagator._expm_batch(a2 * hs1 + a1 * hs2, dt)
    return chain_matmul(product(second, first))


def _cosine_drive(dim, seed):
    rng = np.random.default_rng(seed)
    h0, h1 = random_hermitian(rng, dim), random_hermitian(rng, dim)
    return lambda t: h0 + np.multiply.outer(np.cos(TWO_PI * np.asarray(t)), h1)


def test_fourth_order_step_above_dimension_two_is_unchanged():
    h = _cosine_drive(3, 7)
    assert np.array_equal(evolve(h, 1.0, 64).matrix, _cf4_on_stacks(h, 64, np.matmul))


def test_fourth_order_step_at_dimension_two_equals_the_stack_route():
    # evolve forms each 2x2 step on three entry rows; the same steps formed
    # on full matrices give the same bits.
    h = _cosine_drive(2, 7)
    assert np.array_equal(evolve(h, 1.0, 64).matrix, _cf4_on_stacks(h, 64, _entry_formula))


# ---------- streamed reduction ----------


def _spin_drive(t):
    t = np.asarray(t)
    return -1.3 * (np.multiply.outer(np.cos(1.1 * t), SIGMA_X)
                   - np.multiply.outer(np.sin(1.1 * t), SIGMA_Y))


@pytest.mark.parametrize("h, t_end, t_start", [
    (_spin_drive, 5.7, 0.0),
    (_cosine_drive(3, 8), 1.0, 0.0),
    (_spin_drive, 2.1, -0.4),
], ids=["spin", "three-level", "t_start"])
def test_evolve_in_chunks_is_bit_identical_to_one_chunk(monkeypatch, h, t_end, t_start):
    for n in range(1, 41):
        monkeypatch.setattr(propagator, "_CHUNK", 64)
        whole = evolve(h, t_end, n, t_start).matrix
        for chunk in (2, 4, 8):
            monkeypatch.setattr(propagator, "_CHUNK", chunk)
            assert np.array_equal(evolve(h, t_end, n, t_start).matrix, whole), (n, chunk)


@pytest.mark.parametrize("size", [1, 4, 16])
def test_streamed_product_builds_aligned_chunks_and_matches_the_whole_chain(size):
    # The chain of aligned block products, as evolve forms it, is the whole chain.
    rng = np.random.default_rng(9)
    mats = rng.normal(size=(70, 2, 2)) + 1j * rng.normal(size=(70, 2, 2))
    for n in range(1, 71):
        blocks = [chain_matmul(mats[lo:min(lo + size, n)]) for lo in range(0, n, size)]
        assert np.array_equal(chain_matmul(blocks), chain_matmul(mats[:n])), n


def test_every_long_2x2_chain_arrives_entry_major(monkeypatch):
    # A C-order stack reduces to the same bits but several times more slowly,
    # so every producer of a long 2x2 chain writes the entry-major layout.
    stacks = []
    for module in (hill, propagator):
        def recording(mats, original=module.chain_matmul):
            if len(mats) > 16:
                stacks.append(np.asarray(mats))
            return original(mats)
        monkeypatch.setattr(module, "chain_matmul", recording)
    hill.monodromy(DriveProfile.sinusoid(1.3, TWO_PI), 4096)
    hill.monodromy(DriveProfile.offset_sinusoid(0.7, 1.3, TWO_PI), 4096)
    evolve(_spin_drive, 5.7, 1000)
    rng = np.random.default_rng(8)
    step_propagator([(random_hermitian(rng, 2), 0.1) for _ in range(64)])
    assert [len(m) for m in stacks] == [4096, 4096, 1000, 64]
    for m in stacks:
        assert m.transpose(1, 2, 0).flags.c_contiguous


def test_evolve_memory_does_not_grow_with_the_step_count():
    import tracemalloc

    tracemalloc.start()
    try:
        evolve(_spin_drive, 5.7, 2 ** 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
