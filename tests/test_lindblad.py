import numpy as np
import pytest

from decobath.errors import TraceDriftError
from decobath.lindblad import (
    DephasingParams,
    dephasing_generator,
    dissipator,
    evolve_dephasing_markov,
    evolve_isotropic_markov,
    integrate_master,
    isotropic_generator,
)
from decobath.qstate import (
    DensityMatrix2,
    QubitAmplitudes,
    SIGMA_PLUS,
    SIGMA_Z,
    density_from_amplitudes,
)
from decobath.trajectory import TimeGrid


def lindblad_oracle(op, rho):
    """Direct 2x2 matrix arithmetic, independent of the implementation."""
    od = np.asarray(op).conj().T
    return 2 * op @ rho @ od - od @ op @ rho - rho @ od @ op


def test_dissipator_sigma_z_on_diagonal_state_vanishes():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.allclose(dissipator(SIGMA_Z, rho), 0.0, atol=1e-15)


def test_dissipator_sigma_z_scales_coherence_by_minus_four():
    c = 0.11 + 0.07j
    rho = np.array([[0.4, c], [np.conj(c), 0.6]])
    out = dissipator(SIGMA_Z, rho)
    expected = np.array([[0.0, -4 * c], [-4 * np.conj(c), 0.0]])
    assert np.allclose(out, expected, atol=1e-15)


def test_dissipator_sigma_plus_pumps_excited_population():
    # sigma_minus sigma_plus = |1><1|: the "excited" state for the raising flip
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = dissipator(SIGMA_PLUS, rho)
    expected = 2 * np.diag([1.0, 0.0]) - 2 * rho  # pumped minus depleted
    assert np.allclose(out, expected, atol=1e-15)
    assert np.allclose(out, lindblad_oracle(SIGMA_PLUS, rho), atol=1e-15)


def test_dissipator_hermitian_traceless_randomized():
    rng = np.random.default_rng(9)
    for _ in range(50):
        op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = h @ h.conj().T
        rho /= np.trace(rho).real
        out = dissipator(op, rho)
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.allclose(out, lindblad_oracle(op, rho), atol=1e-13)


def test_evolve_dephasing_markov_t0_is_initial_projector():
    psi = QubitAmplitudes(0.6, 0.8)
    rho = evolve_dephasing_markov(psi, DephasingParams(1.3), 0.0)
    assert rho.isclose(density_from_amplitudes(psi), atol=1e-15)


def test_evolve_dephasing_markov_worked_value():
    s = 1.0 / np.sqrt(2.0)
    rho = evolve_dephasing_markov(QubitAmplitudes(s, s), DephasingParams(0.5), 2.0)
    assert abs(rho.coherence) == pytest.approx(0.5 * np.exp(-1.0), abs=1e-15)
    assert abs(rho.coherence) == pytest.approx(0.18393972058572117, abs=1e-15)


def test_evolve_dephasing_markov_long_time_fixed_point():
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        psi = QubitAmplitudes(v[0], v[1])
        rho = evolve_dephasing_markov(psi, DephasingParams(2.0), 10.0)  # gamma t = 20
        assert abs(rho.coherence) < 3e-9 * max(abs(psi.a * psi.b), 1e-300)
        assert rho.rho00 == pytest.approx(abs(psi.a) ** 2, abs=1e-15)
        assert rho.rho11 == pytest.approx(abs(psi.b) ** 2, abs=1e-15)


def test_evolve_dephasing_markov_semigroup():
    psi = QubitAmplitudes(0.6, 0.8j)
    p = DephasingParams(0.7, omega0=1.4)
    t1, t2 = 0.9, 1.7
    once = evolve_dephasing_markov(psi, p, t1 + t2)
    # apply the channel to the t1 output for a further t2: populations frozen,
    # coherence multiplies by the same factor regardless of the state's purity
    mid = evolve_dephasing_markov(psi, p, t1)
    factor = np.exp(-(1j * p.omega0 + p.gamma) * t2)
    assert abs(mid.coherence * factor - once.coherence) <= 1e-12
    assert abs(mid.rho00 - once.rho00) <= 1e-12


def test_evolve_dephasing_markov_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve_dephasing_markov(QubitAmplitudes(1.0, 0.0), DephasingParams(1.0), -0.1)
    with pytest.raises(ValueError):
        evolve_isotropic_markov(DensityMatrix2.from_parts(0.5, 0.5, 0.0), 1.0, -0.1)


def test_closed_forms_take_a_time_array():
    psi = QubitAmplitudes(0.6, 0.8j)
    p = DephasingParams(0.7, omega0=1.4)
    rho0 = density_from_amplitudes(psi)
    ts = np.linspace(0.0, 3.0, 7)
    markov = evolve_dephasing_markov(psi, p, ts)
    iso = evolve_isotropic_markov(rho0, 0.3, ts)
    assert markov.matrix.shape == iso.matrix.shape == (7, 2, 2)
    for i, t in enumerate(ts):
        assert np.max(np.abs(markov.matrix[i] - evolve_dephasing_markov(psi, p, t).matrix)) <= 1e-15
        assert np.max(np.abs(iso.matrix[i] - evolve_isotropic_markov(rho0, 0.3, t).matrix)) <= 1e-15
    with pytest.raises(ValueError):
        evolve_dephasing_markov(psi, p, np.array([0.0, -1e-3]))


def test_isotropic_fixed_point_is_maximally_mixed():
    mixed = DensityMatrix2.from_parts(0.5, 0.5, 0.0)
    out = evolve_isotropic_markov(mixed, 3.0, 1.7)
    assert out.isclose(mixed, atol=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho0 = density_from_amplitudes(QubitAmplitudes(v[0], v[1]))
        out = evolve_isotropic_markov(rho0, 1.0, 20.0)
        assert np.max(np.abs(out.matrix - 0.5 * np.eye(2))) < 1e-6


def test_isotropic_rate_against_rk4_oracle():
    # gamma=1, t=0.5 from |0><0|: Bloch z decays by exp(-4 gamma t)
    rho0 = density_from_amplitudes(QubitAmplitudes(1.0, 0.0))
    gamma, t = 1.0, 0.5
    analytic = evolve_isotropic_markov(rho0, gamma, t)
    assert analytic.rho00 - analytic.rho11 == pytest.approx(np.exp(-2.0), abs=1e-14)
    grid = TimeGrid(0.0, t, 5000)  # step 1e-4
    states = integrate_master(rho0, isotropic_generator(gamma), grid)
    assert np.max(np.abs(states[-1] - analytic.matrix)) < 1e-10


def test_integrate_master_matches_dephasing_solution():
    s = 1.0 / np.sqrt(2.0)
    psi = QubitAmplitudes(s, s)
    params = DephasingParams(1.0)
    grid = TimeGrid(0.0, 5.0, 5000)
    states = integrate_master(
        density_from_amplitudes(psi), dephasing_generator(params), grid
    )
    worst = 0.0
    for i in (0, 500, 1666, 3333, 5000):
        expected = evolve_dephasing_markov(psi, params, grid.times[i]).matrix
        worst = max(worst, float(np.max(np.abs(states[i] - expected))))
    assert worst < 1e-8


def test_integrate_master_with_phase_matches_dephasing_solution():
    psi = QubitAmplitudes(0.6, 0.8)
    params = DephasingParams(0.5, omega0=2.0)
    grid = TimeGrid(0.0, 3.0, 6000)
    states = integrate_master(
        density_from_amplitudes(psi), dephasing_generator(params), grid
    )
    expected = evolve_dephasing_markov(psi, params, 3.0).matrix
    assert np.max(np.abs(states[-1] - expected)) < 1e-9


def test_integrate_master_zero_generator_identity_trajectory():
    rho0 = density_from_amplitudes(QubitAmplitudes(0.6, 0.8j))
    states = integrate_master(rho0, lambda t, r: np.zeros((2, 2), complex),
                            TimeGrid(0.0, 2.0, 100))
    assert np.max(np.abs(states - rho0.matrix[None])) == 0.0


def test_integrate_master_isotropic_reaches_mixed_state():
    rho0 = density_from_amplitudes(QubitAmplitudes(1.0, 0.0))
    grid = TimeGrid(0.0, 20.0, 20000)  # gamma t = 20
    states = integrate_master(rho0, isotropic_generator(1.0), grid)
    assert np.max(np.abs(states[-1] - 0.5 * np.eye(2))) < 1e-6


def test_integrate_master_trace_and_hermiticity_along_trajectory():
    rho0 = density_from_amplitudes(QubitAmplitudes(0.8, 0.6j))
    states = integrate_master(rho0, isotropic_generator(0.7), TimeGrid(0.0, 4.0, 4000))
    traces = states[:, 0, 0] + states[:, 1, 1]
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) < 1e-9


def test_integrate_master_rejects_contract_violations():
    rho0 = DensityMatrix2.from_parts(0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="trace-free"):
        integrate_master(rho0, lambda t, r: np.eye(2, dtype=complex),
                         TimeGrid(0.0, 1.0, 10))
    with pytest.raises(ValueError, match="Hermiticity"):
        integrate_master(rho0, lambda t, r: np.array([[0, 1], [0, 0]], complex),
                         TimeGrid(0.0, 1.0, 10))


def test_integrate_master_aborts_on_trace_drift():
    rho0 = DensityMatrix2.from_parts(0.4, 0.6, 0.0)

    def leaky(t, rho):
        # trace-free at t=0 where the contract is checked, leaks afterwards
        return 0.1 * t * np.eye(2, dtype=complex)

    with pytest.raises(TraceDriftError):
        integrate_master(rho0, leaky, TimeGrid(0.0, 10.0, 100))


def test_integrate_master_aborts_on_nan_trace():
    # zero at t0, so the contract check passes; NaN at every later time
    rho0 = DensityMatrix2.from_parts(0.4, 0.6, 0.0)

    def nan_after_start(t, rho):
        return np.zeros((2, 2), complex) if t == 0.0 else np.full((2, 2), np.nan, complex)

    with pytest.raises(TraceDriftError, match="abort threshold 1e-06") as exc:
        integrate_master(rho0, nan_after_start, TimeGrid(0.0, 1.0, 10))
    assert np.isnan(exc.value.drift)


def test_steady_state_structure_of_master_equation_generator():
    # generator form (r/2) L[sigma_z, .]: diagonal states are exact fixed
    # points and off-diagonal entries decay at rate 2r
    rng = np.random.default_rng(123)
    r = 0.9
    rhs = lambda t, rho: (r / 2.0) * dissipator(SIGMA_Z, rho)
    for _ in range(20):
        p = rng.uniform(0.0, 1.0)
        diag = np.diag([p, 1 - p]).astype(complex)
        assert np.max(np.abs(rhs(0.0, diag))) == 0.0
        c = rng.normal() + 1j * rng.normal()
        rho = np.array([[p, c], [np.conj(c), 1 - p]])
        out = rhs(0.0, rho)
        assert out[0, 1] == pytest.approx(-2.0 * r * c, abs=1e-14)
        assert out[0, 0] == 0.0 and out[1, 1] == 0.0
    # the shipped generator is normalized so the coherence rate is gamma itself
    gen = dephasing_generator(DephasingParams(r))
    rho = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
    assert gen(0.0, rho)[0, 1] == pytest.approx(-r * (0.2 + 0.1j), abs=1e-14)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, np.inf, 10)
    g = TimeGrid(0.0, 1.0, 4)
    assert g.dt == 0.25
    assert g.times.size == 5
