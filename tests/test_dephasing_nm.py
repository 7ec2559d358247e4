import math

import numpy as np
import pytest

from decobath.dephasing_nm import (
    CorrelatedBathParams,
    SpectralDensity,
    decoherence_factors,
    gamma_thermal,
    phi,
    rho_correlated,
    rho_uncorrelated,
)
from decobath.errors import DegenerateParametersError, QuadratureError, WorkBudgetError
from decobath.qstate import QubitAmplitudes, dephased, density_from_amplitudes


# closed-form oracles for the Ohmic family (verified analytically):
#   Phi(t)        = eta * arctan(omega_c t)
#   gamma1(t,T=0) = (eta/2) * ln(1 + omega_c^2 t^2)
def ohmic_phi_exact(eta, omega_c, t):
    return eta * math.atan(omega_c * t)


def ohmic_gamma1_zero_t_exact(eta, omega_c, t):
    return 0.5 * eta * math.log1p((omega_c * t) ** 2)


def triangle_bin(center, half_width, weight):
    """Tabulated J that integrates to `weight` on a narrow triangular bin."""
    peak = weight / half_width
    return SpectralDensity.tabulated(
        [center - half_width, center, center + half_width], [0.0, peak, 0.0]
    )


class TestSpectralDensity:
    def test_ohmic_values(self):
        J = SpectralDensity.ohmic(0.8, 3.0)
        w = np.array([0.0, 1.0, 3.0])
        assert np.allclose(J(w), 0.8 * w * np.exp(-w / 3.0))
        assert J(-1.0) == 0.0

    def test_tabulated_interp_and_range(self):
        J = SpectralDensity.tabulated([1.0, 2.0, 4.0], [0.5, 1.5, 0.0])
        assert J(1.5) == pytest.approx(1.0)
        assert J(0.5) == 0.0 and J(5.0) == 0.0

    def test_tabulated_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectralDensity.tabulated([1.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=">= 0"):
            SpectralDensity.tabulated([1.0, 2.0], [0.5, -0.1])
        with pytest.raises(ValueError, match="vanish at omega = 0"):
            SpectralDensity.tabulated([0.0, 1.0], [0.5, 0.0])
        with pytest.raises(ValueError):
            SpectralDensity.ohmic(-1.0, 2.0)
        with pytest.raises(ValueError):
            SpectralDensity.ohmic(1.0, 0.0)

    def test_tail_bound_constant_is_e1_of_the_span(self):
        mpmath = pytest.importorskip("mpmath")
        from decobath import dephasing_nm

        with mpmath.workdps(40):
            e1 = float(mpmath.e1(dephasing_nm._OHMIC_SPAN))
        assert dephasing_nm._E1_OHMIC_SPAN == e1
        J = SpectralDensity.ohmic(0.8, 3.0)
        assert J._tail_bound(2.5) == 2.0 * 0.8 * 2.5 * e1

    def test_from_csv_roundtrip(self, tmp_path):
        path = tmp_path / "J.csv"
        path.write_text("# omega, J\n0.5,0.1\n1.0,0.4\n2.0,0.0\n")
        J = SpectralDensity.from_csv(path)
        assert J(1.0) == pytest.approx(0.4)
        assert J(0.75) == pytest.approx(0.25)


class TestPhi:
    def test_zero_time(self):
        assert phi(0.0, SpectralDensity.ohmic(1.0, 2.0)) == 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            phi(-1.0, SpectralDensity.ohmic(1.0, 2.0))

    @pytest.mark.parametrize("eta,omega_c", [(0.8, 3.0), (1.7, 0.5), (0.05, 10.0)])
    def test_ohmic_closed_form(self, eta, omega_c):
        J = SpectralDensity.ohmic(eta, omega_c)
        for t in np.linspace(0.01, 50.0 / omega_c, 23):
            exact = ohmic_phi_exact(eta, omega_c, t)
            assert phi(t, J) == pytest.approx(exact, rel=1e-9)

    def test_narrow_bin_matches_discrete_mode(self):
        g, w1, t = 0.3, 2.0, 1.3
        J = triangle_bin(w1, 0.05, 4.0 * g * g)
        expected = 4.0 * g * g * math.sin(w1 * t) / w1**2
        assert phi(t, J) == pytest.approx(expected, abs=5e-4)

    def test_nonconvergence_is_reported(self):
        # a narrow table probed at a huge time: millions of oscillation
        # periods exceed the subdivision budget
        J = SpectralDensity.tabulated([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
        with pytest.raises(QuadratureError):
            phi(1.0e7, J)


class TestGammaThermal:
    def test_zero_time(self):
        assert gamma_thermal(0.0, SpectralDensity.ohmic(1.0, 2.0), 2.0) == 0.0

    @pytest.mark.parametrize("eta,omega_c", [(0.8, 3.0), (1.7, 0.5)])
    def test_zero_temperature_closed_form(self, eta, omega_c):
        J = SpectralDensity.ohmic(eta, omega_c)
        for t in np.linspace(0.02, 50.0 / omega_c, 19):
            exact = ohmic_gamma1_zero_t_exact(eta, omega_c, t)
            assert gamma_thermal(t, J, math.inf) == pytest.approx(exact, rel=1e-9)

    def test_finite_temperature_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        eta, omega_c, beta, t = 0.5, 1.7, 0.7, 2.3
        J = SpectralDensity.ohmic(eta, omega_c)
        f = lambda w: eta * mp.exp(-w / omega_c) * (1 - mp.cos(w * t)) / w \
            * mp.coth(beta * w / 2)
        splits = [2 * mp.pi * k / t for k in range(0, 40)] + [mp.inf]
        reference = float(mp.quad(f, splits))
        assert gamma_thermal(t, J, beta) == pytest.approx(reference, rel=1e-9)

    def test_discrete_mode_with_coth_weight(self):
        g, w1, beta, t = 0.25, 1.5, 2.0, 2.2
        J = triangle_bin(w1, 0.04, 4.0 * g * g)
        expected = 4.0 * g * g * (1 - math.cos(w1 * t)) / w1**2 \
            / math.tanh(beta * w1 / 2.0)
        assert gamma_thermal(t, J, beta) == pytest.approx(expected, abs=5e-4)

    def test_bin_convergence_to_discrete_sum(self):
        # halving the bin width must shrink the residual quadratically
        g, w1, t = 0.3, 2.0, 1.3
        exact = 4.0 * g * g * (1 - math.cos(w1 * t)) / w1**2
        errs = []
        for h in (0.2, 0.1, 0.05):
            J = triangle_bin(w1, h, 4.0 * g * g)
            errs.append(abs(gamma_thermal(t, J, math.inf) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.35)

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            J = SpectralDensity.ohmic(rng.uniform(0.1, 2.0), rng.uniform(0.5, 5.0))
            beta = rng.uniform(0.2, 10.0)
            t = rng.uniform(0.0, 10.0)
            assert gamma_thermal(t, J, beta) >= 0.0


def make_params(eta=1.0, omega_c=5.0, beta=2.0, omega0=1.0):
    return CorrelatedBathParams(SpectralDensity.ohmic(eta, omega_c), beta, omega0)


def state_with(z):
    """A real state whose <sigma_z> is z, up to rounding."""
    return QubitAmplitudes(math.sqrt((1 + z) / 2), math.sqrt((1 - z) / 2))


class TestGammaCorrAndChi:
    def test_polarized_states_have_no_correlation_term(self):
        for z in (1.0, -1.0):
            assert decoherence_factors(1.3, make_params(), state_with(z)).gamma_corr == 0.0

    def test_zero_phase_shift_gives_zero(self):
        # eta = 0 kills Phi identically
        f = decoherence_factors(2.0, make_params(eta=0.0), state_with(0.4))
        assert f.gamma_corr == 0.0
        assert f.chi == 0.0

    def test_thermal_expectation_simplification(self):
        # z = tanh(beta omega0 / 2): gamma_corr = -ln|cos Phi|, chi = 0.
        # the identity is conditioned as cosh^2(beta omega0/2) * eps, so the
        # draws keep |beta omega0 / 2| <= 5 to make 1e-10 meaningful
        rng = np.random.default_rng(18)
        for _ in range(60):
            beta = rng.uniform(0.2, 4.0)
            omega0 = rng.uniform(-2.5, 2.5)
            if omega0 == 0.0:
                continue
            eta = rng.uniform(0.05, 0.95)  # keeps |Phi| < pi/2
            p = make_params(eta=eta, omega_c=rng.uniform(0.5, 4.0), beta=beta, omega0=omega0)
            psi = state_with(math.tanh(beta * omega0 / 2.0))
            f = decoherence_factors(rng.uniform(0.0, 8.0), p, psi)
            assert f.chi == pytest.approx(0.0, abs=1e-10)
            assert f.gamma_corr == pytest.approx(
                -math.log(abs(math.cos(f.phi))), abs=1e-10
            )

    def test_chi_sign_at_full_polarization(self):
        ts = np.array([0.4, 1.1, 3.0])
        f_up = decoherence_factors(ts, make_params(eta=0.7), state_with(1.0))
        f_dn = decoherence_factors(ts, make_params(eta=0.7), state_with(-1.0))
        assert f_up.chi == pytest.approx(-f_up.phi, abs=1e-12)
        assert f_dn.chi == pytest.approx(+f_dn.phi, abs=1e-12)

    def test_chi_zero_at_t0(self):
        assert decoherence_factors(0.0, make_params(), state_with(0.3)).chi == 0.0

    def test_chi_continuous_across_branches(self):
        # eta = 3 drives Phi through several multiples of pi/2; the closed-form
        # winding must agree with path-based unwrapping of the principal value
        p, psi = make_params(eta=3.0, omega_c=2.0, beta=1.5, omega0=0.8), state_with(0.3)
        x = 0.5 * p.beta * p.omega0
        r = (math.sinh(x) - psi.bloch_z * math.cosh(x)) / (
            math.cosh(x) - psi.bloch_z * math.sinh(x))
        f = decoherence_factors(np.linspace(0.0, 12.0, 400), p, psi)
        principal = np.arctan2(r * np.sin(f.phi), np.cos(f.phi))
        reference = np.unwrap(principal)
        values = f.chi
        assert np.max(np.abs(values - reference)) < 1e-9
        assert np.max(np.abs(np.diff(values))) < 0.5  # no branch jumps

    def test_gamma_corr_nonnegative_randomized(self):
        rng = np.random.default_rng(91)
        for _ in range(80):
            p = make_params(
                eta=rng.uniform(0.05, 2.5), omega_c=rng.uniform(0.3, 6.0),
                beta=rng.uniform(0.1, 8.0), omega0=rng.uniform(-4.0, 4.0),
            )
            psi = state_with(rng.uniform(-1.0, 1.0))
            assert decoherence_factors(rng.uniform(0.0, 10.0), p, psi).gamma_corr >= 0.0

    def test_singular_point_annihilates_coherence(self):
        # at z = tanh(beta omega0/2) and Phi = pi/2 the log argument hits zero;
        # solved exactly for the Ohmic family: t* = tan(pi/(2 eta))/omega_c
        eta, omega_c, beta, omega0 = 1.2, 2.0, 2.0, 1.0
        t_star = math.tan(math.pi / (2.0 * eta)) / omega_c
        psi = state_with(math.tanh(beta * omega0 / 2.0))
        p = make_params(eta=eta, omega_c=omega_c, beta=beta, omega0=omega0)
        rho = rho_correlated(t_star, psi, p)
        # either the singular branch mapped it to exactly 0, or the factor
        # collapsed it below any physical relevance
        assert abs(rho.coherence) < 1e-7

    def test_singular_branch_raises_on_exact_hit(self):
        # omega0 = 0 and z = 0 give correlation strength c = 1 exactly, and
        # sin(Phi)^2 rounds to 1 at the Ohmic t* = tan(pi/(2 eta))/omega_c
        from decobath.dephasing_nm import _gamma_corr_from_phi

        eta, omega_c = 1.2, 2.0
        t_star = math.tan(math.pi / (2.0 * eta)) / omega_c
        p = make_params(eta=eta, omega_c=omega_c, beta=2.0, omega0=0.0)
        g = _gamma_corr_from_phi(np.array([0.3, math.pi / 2.0]), (0.0, 1.0))
        assert g[0] == pytest.approx(-math.log(math.cos(0.3)), rel=1e-14)
        assert g[1] == math.inf
        f = decoherence_factors(np.array([0.5 * t_star, t_star]), p, state_with(0.0))
        assert math.isinf(f.gamma_corr[1]) and math.isnan(f.chi[1])
        assert np.isfinite(f.gamma_corr[0]) and np.isfinite(f.chi[0])

    def test_degenerate_zero_temperature_zero_splitting(self):
        with pytest.raises(DegenerateParametersError):
            CorrelatedBathParams(SpectralDensity.ohmic(1.0, 1.0), math.inf, 0.0)


class TestReducedStates:
    def test_correlated_t0_is_pure_state(self):
        psi = QubitAmplitudes(0.6, 0.8j)
        rho = rho_correlated(0.0, psi, make_params())
        assert rho.isclose(density_from_amplitudes(psi), atol=1e-12)

    def test_uncorrelated_t0_is_pure_state(self):
        psi = QubitAmplitudes(0.6, 0.8j)
        J = SpectralDensity.ohmic(1.0, 5.0)
        rho = rho_uncorrelated(0.0, psi, J, 2.0, 1.0)
        assert rho.isclose(density_from_amplitudes(psi), atol=1e-12)

    def test_diagonals_time_independent(self):
        psi = QubitAmplitudes(np.sqrt(0.3), np.sqrt(0.7))
        p = make_params()
        for t in (0.0, 0.7, 2.4, 9.0):
            rho = rho_correlated(t, psi, p)
            assert rho.rho00 == pytest.approx(0.3, abs=1e-14)
            assert rho.rho11 == pytest.approx(0.7, abs=1e-14)

    def test_long_time_collapse(self):
        # strong coupling at finite temperature: gamma_thermal >= 20 at late t
        psi = QubitAmplitudes(math.sqrt(0.5), math.sqrt(0.5))
        p = make_params(eta=4.0, omega_c=3.0, beta=0.05, omega0=1.0)
        t = 30.0
        assert gamma_thermal(t, p.J, p.beta) > 20.0
        rho = rho_correlated(t, psi, p)
        assert abs(rho.coherence) < 3e-9
        assert rho.rho00 == pytest.approx(0.5, abs=1e-14)

    def test_correlated_against_independent_mpmath_composition(self):
        # high-precision quadrature of the defining integrals, assembled
        # independently of the package code paths
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        eta, omega_c, beta, omega0, t = 1.0, 5.0, 2.0, 1.0, 1.0
        s = 1.0 / math.sqrt(2.0)
        psi = QubitAmplitudes(s, s)  # z = 0

        splits = [2 * mp.pi * k / t for k in range(0, 40)] + [mp.inf]
        phi_mp = mp.quad(
            lambda w: eta * mp.exp(-w / omega_c) * mp.sin(w * t) / w, splits
        )
        g1_mp = mp.quad(
            lambda w: eta * mp.exp(-w / omega_c) * (1 - mp.cos(w * t)) / w
            * mp.coth(beta * w / 2), splits
        )
        x = mp.mpf(beta) * omega0 / 2
        g2_mp = -mp.mpf(0.5) * mp.log(1 - mp.sin(phi_mp) ** 2 / mp.cosh(x) ** 2)
        chi_mp = mp.atan2(mp.tanh(x) * mp.sin(phi_mp), mp.cos(phi_mp))
        coh_mp = mp.mpf(0.5) * mp.e**(-1j * (omega0 * t + chi_mp)) \
            * mp.e**(-(g1_mp + g2_mp))

        rho = rho_correlated(t, psi, make_params(eta, omega_c, beta, omega0))
        assert abs(rho.coherence - complex(coh_mp)) < 1e-8

    def test_uncorrelated_zero_temperature_closed_form(self):
        eta, omega_c = 0.8, 2.0
        J = SpectralDensity.ohmic(eta, omega_c)
        psi = QubitAmplitudes(0.6, 0.8)
        for t in (0.3, 1.0, 4.0):
            rho = rho_uncorrelated(t, psi, J, math.inf, 0.0)
            expected = 0.48 * (1.0 + (omega_c * t) ** 2) ** (-eta / 2.0)
            assert abs(rho.coherence) == pytest.approx(expected, rel=1e-9)

    def test_correlated_equals_uncorrelated_when_phase_shift_absent(self):
        # z = tanh(beta omega0/2) and eta = 0 (Phi == 0): both reduce to free
        # evolution of the coherence
        beta, omega0 = 1.5, 2.0
        psi = state_with(math.tanh(beta * omega0 / 2.0))
        p = make_params(eta=0.0, beta=beta, omega0=omega0)
        for t in (0.5, 2.0):
            a = rho_correlated(t, psi, p)
            b = rho_uncorrelated(t, psi, p.J, beta, omega0)
            assert a.isclose(b, atol=1e-12)

    def test_recomputes_sigma_z_from_amplitudes(self):
        # <sigma_z> comes from the state the bath is prepared from
        psi = QubitAmplitudes(1.0, 0.0)  # z = +1: no correlation term at all
        p = make_params()
        rho = rho_correlated(1.2, psi, p)
        assert rho.rho00 == 1.0 and abs(rho.coherence) == 0.0

    def test_coherence_ordering_randomized(self):
        rng = np.random.default_rng(2718)
        for _ in range(60):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            psi = QubitAmplitudes(v[0], v[1])
            eta = rng.uniform(0.05, 2.0)
            omega_c = rng.uniform(0.3, 5.0)
            beta = rng.uniform(0.2, 6.0)
            omega0 = rng.uniform(-3.0, 3.0)
            if math.isinf(beta) and omega0 == 0:
                continue
            J = SpectralDensity.ohmic(eta, omega_c)
            p = CorrelatedBathParams(J, beta, omega0)
            t = rng.uniform(0.0, 6.0)
            corr = rho_correlated(t, psi, p)
            ref = rho_uncorrelated(t, psi, J, beta, omega0)
            assert abs(corr.coherence) <= abs(ref.coherence) + 1e-14

    def test_time_array_matches_scalar_calls(self):
        p = make_params(eta=0.9, omega_c=2.0, beta=1.1, omega0=0.7)
        psi = QubitAmplitudes(0.8, 0.6)  # z = 0.28
        ts = np.array([0.0, 0.4, 1.9, 3.3])
        f = decoherence_factors(ts, p, psi)
        rho = rho_correlated(ts, psi, p)
        assert f.phi.shape == ts.shape and rho.matrix.shape == (4, 2, 2)
        for i, t in enumerate(ts):
            one = decoherence_factors(t, p, psi)
            assert (f.phi[i], f.gamma_thermal[i], f.gamma_corr[i], f.chi[i]) \
                == (one.phi, one.gamma_thermal, one.gamma_corr, one.chi)
            assert np.max(np.abs(rho.matrix[i] - rho_correlated(t, psi, p).matrix)) <= 1e-15

    def test_uncorrelated_time_array_is_one_batch_without_quad(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quad called")

        monkeypatch.setattr("decobath.dephasing_nm.quad", refuse)
        psi = QubitAmplitudes(0.6, 0.8j)
        J = SpectralDensity.ohmic(0.9, 2.0)
        ts = np.array([0.0, 0.4, 1.9, 3.3])
        for beta, omega0 in ((1.1, 0.7), (math.inf, 0.0)):
            rho = rho_uncorrelated(ts, psi, J, beta, omega0)
            assert rho.matrix.shape == (4, 2, 2)
            for i, t in enumerate(ts):
                one = rho_uncorrelated(t, psi, J, beta, omega0)
                assert np.ndim(one.coherence) == 0 and one.coherence == rho.coherence[i]
        with pytest.raises(ValueError, match="t must be >= 0"):
            rho_uncorrelated(np.array([0.0, -1.0]), psi, J, 1.0, 0.0)

    def test_singular_branch_state_has_exactly_zero_coherence(self):
        # where gamma_corr = inf, chi is NaN: the phase omega0 t + chi is NaN
        # and the decay gamma_thermal + gamma_corr is inf
        rho = dephased(QubitAmplitudes(0.6, 0.8), np.array([0.7, math.nan]),
                       np.array([0.15, math.inf]))
        assert rho.coherence[1] == 0.0
        assert math.copysign(1.0, rho.coherence[1].real) == 1.0
        assert math.copysign(1.0, rho.coherence[1].imag) == 1.0
        assert rho.coherence[0] == 0.6 * 0.8 * np.exp(-0.7j) * np.exp(-0.15)
        assert np.all(rho.rho00 == 0.6 ** 2) and np.all(rho.rho11 == 0.8 ** 2)

    def test_decoherence_factors_consistent_with_scalar_ops(self):
        p, psi = make_params(eta=0.9, omega_c=2.0, beta=1.1, omega0=0.7), state_with(0.25)
        t = 1.9
        f = decoherence_factors(t, p, psi)
        phi_t, z = phi(t, p.J), psi.bloch_z
        cosh, sinh = math.cosh(0.5 * p.beta * p.omega0), math.sinh(0.5 * p.beta * p.omega0)
        gamma_corr = -0.5 * math.log(
            1.0 - (1.0 - z * z) * math.sin(phi_t) ** 2 / (cosh - z * sinh) ** 2)
        # Phi < pi here, so chi is the principal branch of tan chi = R tan Phi
        r = (sinh - z * cosh) / (cosh - z * sinh)
        chi = math.atan2(r * math.sin(phi_t), math.cos(phi_t))
        assert f.phi == pytest.approx(phi_t, abs=1e-12)
        assert f.gamma_thermal == pytest.approx(gamma_thermal(t, p.J, p.beta), abs=1e-12)
        assert f.gamma_corr == pytest.approx(gamma_corr, abs=1e-12)
        assert f.chi == pytest.approx(chi, abs=1e-12)
        assert f.gamma_total == f.gamma_thermal + f.gamma_corr


def oracle_bound(value, reference):
    """The quadrature target: relative 1e-9 plus an absolute 1e-12."""
    return abs(value - reference) <= 1e-9 * abs(reference) + 1e-12


ORACLE_TIMES = np.array([0.0, 1e-6, 1e-3, 0.05, 0.4, 1.3, 3.7, 9.0])


class TestClosedFormFactors:
    """decoherence_factors' closed forms against the scalar quad oracles."""

    @pytest.mark.parametrize("beta", [0.05, 0.3, 1.0, 3.0, 10.0, math.inf])
    def test_ohmic_matches_quad(self, beta):
        rng = np.random.default_rng([7, int(min(beta, 99.0) * 100)])
        for _ in range(3):
            J = SpectralDensity.ohmic(rng.uniform(0.05, 2.0), rng.uniform(0.3, 6.0))
            ts = np.append(ORACLE_TIMES, rng.uniform(0.0, 12.0, 3))
            f = decoherence_factors(ts, CorrelatedBathParams(J, beta, 0.8), state_with(0.3))
            assert f.phi[0] == 0.0 and f.gamma_thermal[0] == 0.0
            for i, t in enumerate(ts):
                assert oracle_bound(f.phi[i], phi(t, J)), (beta, t)
                assert oracle_bound(f.gamma_thermal[i], gamma_thermal(t, J, beta)), (beta, t)

    TABLES = {
        "interior": ([0.2, 0.9, 1.5, 2.6, 3.1, 4.8, 6.0], None),
        "from-zero": ([0.0, 0.4, 1.1, 2.0, 3.5, 5.0], None),
        "graded": ([0.01, 1.5, 4.0], [0.4, 0.9, 0.0]),
    }

    @pytest.mark.parametrize("beta", [2.0, math.inf])
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_tabulated_matches_quad(self, table, beta):
        omega, values = self.TABLES[table]
        rng = np.random.default_rng(11)
        if values is None:
            values = rng.uniform(0.1, 1.0, len(omega))
            values[0] = values[-1] = 0.0
        J = SpectralDensity.tabulated(omega, values)
        ts = np.append(ORACLE_TIMES, rng.uniform(0.0, 12.0, 3))
        f = decoherence_factors(ts, CorrelatedBathParams(J, beta, 0.8), state_with(0.3))
        assert f.phi[0] == 0.0 and f.gamma_thermal[0] == 0.0
        for i, t in enumerate(ts):
            assert oracle_bound(f.phi[i], phi(t, J)), (table, beta, t)
            assert oracle_bound(f.gamma_thermal[i], gamma_thermal(t, J, beta)), (table, beta, t)

    @pytest.mark.parametrize("eta,omega_c,beta,t", [
        (1.0, 1.0, 1e-3, 1e-3), (1.0, 5.0, 2.0, 1e-6), (0.6, 2.0, 0.5, 0.3),
        (0.6, 2.0, 0.5, 40.0),
    ])
    def test_ohmic_small_time_against_mpmath(self, eta, omega_c, beta, t):
        # the plain ln Gamma difference loses 1.6e-9 and 2.7e-4 relative at
        # the first two points; the zeta series keeps full precision there
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x, y = 1 / (mp.mpf(beta) * omega_c), mp.mpf(t) / beta
        u = mp.mpf(omega_c) * t
        reference = eta * mp.log1p(u * u) / 2 \
            + 2 * eta * (mp.loggamma(1 + x) - mp.re(mp.loggamma(1 + x + 1j * y)))
        J = SpectralDensity.ohmic(eta, omega_c)
        f = decoherence_factors(t, CorrelatedBathParams(J, beta, 1.0), state_with(0.0))
        assert float(f.gamma_thermal) == pytest.approx(float(reference), rel=1e-14)

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 2.0])
    def test_tabulated_small_time_against_mpmath(self, t):
        # Cin in place of ln(w) - Ci: the difference form loses 1.2e-2 at t = 1e-6
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        omega, values = [0.3, 0.8, 2.0, 3.0], [0.0, 0.5, 0.2, 0.0]
        phi_mp = gamma_mp = mp.mpf(0)
        for a, b, ja, jb in zip(omega[:-1], omega[1:], values[:-1], values[1:]):
            c1 = (mp.mpf(jb) - ja) / (mp.mpf(b) - a)
            c0 = ja - c1 * a
            phi_mp += mp.quad(lambda w: (c0 + c1 * w) * mp.sin(w * t) / w ** 2, [a, b])
            gamma_mp += mp.quad(
                lambda w: (c0 + c1 * w) * 2 * mp.sin(w * t / 2) ** 2 / w ** 2, [a, b])
        J = SpectralDensity.tabulated(omega, values)
        f = decoherence_factors(t, CorrelatedBathParams(J, math.inf, 1.0), state_with(0.0))
        assert float(f.phi) == pytest.approx(float(phi_mp), rel=1e-13)
        assert float(f.gamma_thermal) == pytest.approx(float(gamma_mp), rel=1e-13)

    def test_tabulated_blocks_match_single_points(self):
        # many time points span several blocks; each point's value must not
        # depend on which block it fell in
        from decobath.dephasing_nm import _BLOCK_ELEMENTS

        omega = np.linspace(0.05, 10.0, 80)
        values = omega * np.exp(-omega / 3.0)
        values[0] = values[-1] = 0.0
        p = CorrelatedBathParams(SpectralDensity.tabulated(omega, values), 2.0, 1.0)
        psi = state_with(0.2)
        ts = np.linspace(0.0, 4.0, 2 * _BLOCK_ELEMENTS // 80 + 7)
        f = decoherence_factors(ts, p, psi)
        for i in (0, 1, ts.size // 2, ts.size - 1):
            one = decoherence_factors(ts[i], p, psi)
            assert (f.phi[i], f.gamma_thermal[i]) == (one.phi, one.gamma_thermal)

    def test_tabulated_thermal_memory_is_blocked(self):
        import tracemalloc

        omega = np.linspace(0.05, 10.0, 80)
        values = omega * np.exp(-omega / 3.0)
        values[0] = values[-1] = 0.0
        p = CorrelatedBathParams(SpectralDensity.tabulated(omega, values), 2.0, 1.0)
        ts = np.linspace(0.0, 4.0, 4001)  # unblocked: 4001 x 1920 nodes, 61 MB an array
        tracemalloc.start()
        try:
            decoherence_factors(ts, p, state_with(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_thermal_error_estimate_is_live(self, monkeypatch):
        import decobath.dephasing_nm as dnm

        J = SpectralDensity.tabulated([0.2, 1.0, 3.0], [0.0, 0.7, 0.0])
        p, psi = CorrelatedBathParams(J, 2.0, 1.0), state_with(0.0)
        decoherence_factors(np.linspace(0.0, 5.0, 11), p, psi)
        monkeypatch.setattr(dnm, "_REL_TOL", 0.0)
        monkeypatch.setattr(dnm, "_ABS_FLOOR", 0.0)
        with pytest.raises(QuadratureError, match="thermal integral"):
            decoherence_factors(np.linspace(0.0, 5.0, 11), p, psi)

    def test_oversize_tabulated_run_is_refused_fast(self):
        import re
        import time

        from decobath.trajectory import MAX_WORK

        J = SpectralDensity.tabulated(np.linspace(0.05, 10.0, 80),
                                      np.r_[0.0, np.full(78, 0.5), 0.0])
        started = time.perf_counter()
        with pytest.raises(WorkBudgetError, match=re.escape(
                f"quadrature panels on 80 knots, 201 time points), above the cap of {MAX_WORK}")):
            decoherence_factors(np.linspace(0.0, 1e7, 201), CorrelatedBathParams(J, 2.0, 1.0),
                                state_with(0.0))
        assert time.perf_counter() - started < 0.5

    def test_negative_time_rejected(self):
        for J in (SpectralDensity.ohmic(1.0, 2.0),
                  SpectralDensity.tabulated([0.5, 1.0], [0.2, 0.0])):
            with pytest.raises(ValueError, match="t must be >= 0"):
                decoherence_factors(np.array([-1.0, 0.0, 1.0]),
                                    CorrelatedBathParams(J, 2.0, 1.0), state_with(0.0))

    def test_one_row_table_names_the_sample_count(self, tmp_path):
        path = tmp_path / "J.csv"
        path.write_text("# omega, J\n0.5,0.1\n")
        with pytest.raises(ValueError, match="at least 2 samples"):
            SpectralDensity.from_csv(path)


class TestSpecialFunctions:
    """The numpy Si/Ci, Hurwitz-zeta and log-Gamma forms against mpmath.

    Each over the whole argument range its closed form reaches; the bounds
    are a few units in the last place of the value, or of its scale where
    the value crosses zero.
    """

    #: The first three zeros of Ci.
    CI_ZEROS = (0.6165054856207162, 3.384180422551186, 6.427047744050823)

    def test_sici_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        from decobath.dephasing_nm import _SICI_SERIES_MAX, _sici

        switch = _SICI_SERIES_MAX
        x = np.unique(np.concatenate([
            [0.0, np.nextafter(switch, 0.0), switch, np.nextafter(switch, 8.0)],
            switch * (1.0 + np.linspace(-1e-3, 1e-3, 21)), self.CI_ZEROS,
            np.geomspace(1e-8, 1e6, 400), np.linspace(0.01, 12.0, 500)]))
        si, ci, cin = _sici(x, np.sin(0.5 * x), np.cos(0.5 * x))
        assert (si[0], ci[0], cin[0]) == (0.0, -np.inf, 0.0)
        with mp.workdps(50):  # the Cin reference cancels 18 digits at x = 1e-8
            for xi, s, c, n in zip(x[1:], si[1:], ci[1:], cin[1:]):
                ref_si, ref_ci = mp.si(xi), mp.ci(xi)
                ref_cin = mp.euler + mp.log(xi) - ref_ci
                assert abs(s - ref_si) <= 1e-15 * ref_si, xi
                # Ci crosses zero; past x = 1 its scale is the 1/x of f sin x
                assert abs(c - ref_ci) <= 1e-15 * max(abs(ref_ci), 4.0 / max(xi, 1.0)), xi
                assert abs(n - ref_cin) <= 1e-15 * ref_cin, xi

    @pytest.mark.parametrize("z", [1.0 + 1e-12, 1.05, 1.1, 1.5, 1.9, 2.0, 3.7, 67.0])
    def test_hurwitz_zeta_against_mpmath(self, z):
        mp = pytest.importorskip("mpmath")
        from decobath.dephasing_nm import _hurwitz_zeta_even

        values = _hurwitz_zeta_even(z)
        # mpmath's zeta(s, z) subtracts partial sums from zeta(s) at integer
        # z, which costs it ~40 digits at z = 67
        with mp.workdps(100):
            for m, value in enumerate(values, 1):
                reference = mp.zeta(2 * m, z)
                assert abs(value - reference) <= 1e-15 * reference, m

    @pytest.mark.parametrize("z", [1.0 + 1e-9, 1.1, 1.5, 2.0, 9.5, 10.0, 67.0])
    def test_lngamma_drop_against_mpmath(self, z):
        # ln Gamma(z) - Re ln Gamma(z + iy) on the direct branch's y >= z/8,
        # across the shift's limit; Re ln Gamma itself is lgamma(z) minus it
        mp = pytest.importorskip("mpmath")
        from decobath.dephasing_nm import _SHIFT_Y_MAX, _lngamma_drop

        y = np.concatenate([np.geomspace(z / 8, 1e20, 120),
                            [9.99, 10.0, _SHIFT_Y_MAX, np.nextafter(_SHIFT_Y_MAX, 2e15)]])
        drops = _lngamma_drop(z, y)
        with mp.workdps(40):
            for yi, drop in zip(y, drops):
                reference = mp.loggamma(z) - mp.re(mp.loggamma(mp.mpc(z, yi)))
                assert abs(drop - reference) <= 1e-15 * reference, yi
