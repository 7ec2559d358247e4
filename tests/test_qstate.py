import numpy as np
import pytest

from decobath.errors import NormalizationError
from decobath.qstate import (
    DensityMatrix2,
    QubitAmplitudes,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    dephased,
    density_from_amplitudes,
)


def random_amplitudes(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return QubitAmplitudes(v[0], v[1])


def test_convention_fixed_once():
    # sigma_z |0> = +|0>; sigma_plus raises |1> -> |0>; sigma_minus lowers
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert np.allclose(SIGMA_Z @ e0, e0)
    assert np.allclose(SIGMA_Z @ e1, -e1)
    assert np.allclose(SIGMA_PLUS @ e1, e0)
    assert np.allclose(SIGMA_PLUS @ e0, 0.0)
    assert np.allclose(SIGMA_MINUS @ e0, e1)
    assert np.allclose(SIGMA_MINUS.conj().T, SIGMA_PLUS)


def test_amplitudes_reject_unnormalized_and_nonfinite():
    with pytest.raises(NormalizationError) as exc:
        QubitAmplitudes(1.0, 1.0)
    assert exc.value.deviation == pytest.approx(1.0)
    with pytest.raises(ValueError):
        QubitAmplitudes(np.nan, 0.0)
    with pytest.raises(ValueError):
        QubitAmplitudes(np.inf, 0.0)
    # the norm is taken by hypot: a huge amplitude is refused, not overflowed
    with pytest.raises(NormalizationError):
        QubitAmplitudes(1e200, 0.0)


def test_density_from_basis_state():
    rho = density_from_amplitudes(QubitAmplitudes(1.0, 0.0))
    assert rho.rho00 == 1.0 and rho.rho11 == 0.0 and rho.coherence == 0.0


def test_density_from_equal_superposition():
    s = 1.0 / np.sqrt(2.0)
    rho = density_from_amplitudes(QubitAmplitudes(s, s))
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))


def test_density_from_amplitudes_outer_product_oracle():
    # brute-force complex arithmetic: outer product entry by entry
    a, b = np.sqrt(0.3), np.sqrt(0.7)
    psi = np.array([a, b])
    expected = np.outer(psi, psi.conj())
    rho = density_from_amplitudes(QubitAmplitudes(a, b))
    assert np.allclose(rho.matrix, expected, atol=1e-15)
    assert rho.rho00 == pytest.approx(0.3, abs=1e-15)
    assert rho.coherence == pytest.approx(np.sqrt(0.21), abs=1e-15)


def test_bloch_z_values():
    assert QubitAmplitudes(1.0, 0.0).bloch_z == 1.0
    assert QubitAmplitudes(0.0, 1.0j).bloch_z == -1.0
    assert QubitAmplitudes(np.sqrt(0.3), np.sqrt(0.7)).bloch_z == pytest.approx(-0.4, abs=1e-15)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix2.from_parts(0.6, 0.6, 0.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix2.from_parts(0.5, 0.5, 0.6)
    # the parts are the one constructor: a matrix is not taken
    with pytest.raises(TypeError):
        DensityMatrix2(0.5 * np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix2.from_parts(np.nan, 1.0, 0.0)
    # integrated-path tolerance admits slightly negative populations
    DensityMatrix2.from_parts(-1e-10, 1.0 + 1e-10, 0.0, atol=1e-9)


def test_batch_validation_catches_a_single_bad_element():
    n = 20001
    p0 = np.linspace(0.0, 1.0, n)
    coh = np.sqrt(p0 * (1.0 - p0)) * np.exp(1j * np.linspace(0.0, 7.0, n))
    rho = DensityMatrix2.from_parts(p0, 1.0 - p0, coh)
    assert rho.rho00.shape == (n,) and rho.matrix.shape == (n, 2, 2)
    p1 = 1.0 - p0
    p1[12345] += 2e-12  # trace off by 2 * ATOL_ANALYTIC at one point
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix2.from_parts(p0, p1, coh)
    bad = coh.copy()
    bad[777] *= 1.0 + 1e-9  # det ~ -2e-9 |coh|^2 ~ -7e-11 < -atol at one point
    assert p0[777] * (1 - p0[777]) - abs(bad[777]) ** 2 < -1e-12
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix2.from_parts(p0, 1.0 - p0, bad)


def test_scalar_parts_give_scalar_properties():
    rho = DensityMatrix2.from_parts(0.25, 0.75, 0.1 + 0.2j)
    assert np.ndim(rho.rho00) == 0 and np.ndim(rho.coherence) == 0
    assert rho.matrix.shape == (2, 2)
    assert rho.coherence == 0.1 + 0.2j


def test_coherence_holds_no_signed_zero():
    neg = complex(-0.0, -0.0)
    rho = DensityMatrix2.from_parts(0.5, 0.5, np.array([neg, complex(-0.0, 0.3), 0.2 + 0j]))
    for z in rho.coherence:
        assert np.copysign(1.0, z.real) == 1.0 and np.copysign(1.0, z.imag) == 1.0
    assert rho.coherence[1] == 0.3j and rho.coherence[2] == 0.2
    one = DensityMatrix2.from_parts(0.5, 0.5, neg).coherence
    assert np.ndim(one) == 0 and np.copysign(1.0, one.imag) == 1.0


def test_dephased_keeps_populations_and_forms_the_coherence_once():
    psi = QubitAmplitudes(0.6, -0.8j)
    phase, decay = np.array([0.0, 1.3, 40.0]), np.array([0.0, 0.2, 800.0])
    rho = dephased(psi, phase, decay)
    assert np.all(rho.rho00 == abs(psi.a) ** 2) and np.all(rho.rho11 == abs(psi.b) ** 2)
    assert rho.coherence[0] == psi.a * np.conj(psi.b)
    assert rho.coherence[1] == psi.a * np.conj(psi.b) * np.exp(-1.3j) * np.exp(-0.2)
    # exp(-800) underflows: the coherence is +0 whatever the phase
    assert rho.coherence[2] == 0.0 and np.copysign(1.0, rho.coherence[2].imag) == 1.0
    # phase and decay broadcast; a scalar pair gives a scalar state
    assert dephased(psi, 0.5, np.array([0.0, 1.0])).coherence.shape == (2,)
    assert np.ndim(dephased(psi, 0.5, 1.0).coherence) == 0


def test_constructed_states_satisfy_invariants_randomized():
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        rho = density_from_amplitudes(random_amplitudes(rng))
        m = rho.matrix
        assert abs(np.trace(m) - 1.0) <= 1e-12
        assert np.array_equal(m, m.conj().T)
        assert np.linalg.det(m).real >= -1e-12


def test_bloch_z_matches_amplitude_formula():
    rng = np.random.default_rng(77)
    for _ in range(100):
        psi = random_amplitudes(rng)
        rho = density_from_amplitudes(psi)
        assert abs(psi.bloch_z - (rho.rho00 - rho.rho11)) <= 1e-12
