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
from floqtools import propagator
from floqtools._linops import _matmul2, chain_matmul

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
])
def test_non_finite_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
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


def test_lone_2x2_matrix_takes_the_closed_form_of_a_stack():
    hs = propagator._hermitian(su2_stack([(0.5, 1.0, -2.0, 0.25), (-1.0, 0.0, 3.0, 1e-3)]))
    u = propagator._expm_batch(hs, 0.7)
    for h, step in zip(hs, u):
        assert np.array_equal(propagator._expm_batch(h[None], 0.7)[0], step)
        assert np.array_equal(expm_hermitian(h, 0.7).matrix, step)


def test_entry_wise_2x2_product_matches_matmul():
    rng = np.random.default_rng(5)
    a, b = (rng.normal(size=(257, 2, 2)) + 1j * rng.normal(size=(257, 2, 2)) for _ in "ab")
    assert np.abs(_matmul2(a, b) - np.matmul(a, b)).max() <= 1e-14


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


def test_fourth_order_step_above_dimension_two_is_unchanged():
    rng = np.random.default_rng(7)
    h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)

    def h(t):
        return h0 + np.multiply.outer(np.cos(TWO_PI * np.asarray(t)), h1)

    n, dt = 64, 1.0 / 64
    base = dt * np.arange(n)
    hs1 = propagator._sample_hamiltonian(h, base + propagator._GAUSS_C1 * dt)
    hs2 = propagator._sample_hamiltonian(h, base + propagator._GAUSS_C2 * dt)
    a1, a2 = propagator._CF4_A1, propagator._CF4_A2
    first = propagator._expm_batch(a1 * hs1 + a2 * hs2, dt)
    second = propagator._expm_batch(a2 * hs1 + a1 * hs2, dt)
    expected = chain_matmul(np.matmul(second, first))
    assert np.array_equal(evolve(h, 1.0, n).matrix, expected)


# ---------- streamed reduction ----------


def _spin_drive(t):
    t = np.asarray(t)
    return -1.3 * (np.multiply.outer(np.cos(1.1 * t), SIGMA_X)
                   - np.multiply.outer(np.sin(1.1 * t), SIGMA_Y))


def _three_level_drive():
    rng = np.random.default_rng(8)
    h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    return lambda t: h0 + np.multiply.outer(np.cos(TWO_PI * np.asarray(t)), h1)


@pytest.mark.parametrize("h, t_end, t_start", [
    (_spin_drive, 5.7, 0.0),
    (_three_level_drive(), 1.0, 0.0),
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


def test_evolve_memory_does_not_grow_with_the_step_count():
    import tracemalloc

    tracemalloc.start()
    try:
        evolve(_spin_drive, 5.7, 2 ** 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
