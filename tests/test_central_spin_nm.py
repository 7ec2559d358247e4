import math
import time

import numpy as np
import pytest

from decobath import central_spin_nm
from decobath.central_spin import RotatedAmplitudes, SpinBathSpec
from decobath.central_spin_nm import (
    MAX_SME_STEPS,
    _integrate_sme_matrix,
    _refine_factor,
    integrate_sme,
    sme_analytic,
    sme_analytic_solution,
    sme_discrepancy_report,
    sme_rates,
)
from decobath.errors import StepBudgetError, TraceDriftError
from decobath.qstate import SIGMA_Z
from decobath.trajectory import TimeGrid


def spec_with(g, omega0, omega):
    g = np.atleast_1d(np.asarray(g, dtype=float))
    return SpinBathSpec(N=g.size, g=g, omega0=omega0, omega=omega)


def random_rot(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return RotatedAmplitudes(v[0], v[1])


def random_ten_mode_spec(rng):
    return spec_with(
        rng.uniform(0.05, 0.15, 10),
        rng.uniform(0.5, 1.5),
        rng.uniform(-1.0, 1.0, 10),
    )


class TestRates:
    def test_all_rates_vanish_at_t0(self):
        rates = sme_rates(spec_with([0.3, 0.4], 1.0, [0.2, 0.8]))
        assert rates.Gamma_d(0.0) == 0.0
        assert rates.Gamma_0(0.0) == 0.0
        omega_r = 1.0 - 0.7
        assert np.allclose(rates.lamb_shift(0.0), (omega_r / 2.0) * SIGMA_Z)

    def test_resonant_mode_linear_in_t(self):
        g = 0.7
        rates = sme_rates(spec_with([g], 1.3, [1.3]))
        for t in (0.1, 1.0, 7.3):
            assert rates.Gamma_0(t) == pytest.approx(g * g * t, rel=1e-14)

    def test_small_time_expansion(self):
        spec = spec_with([0.2, 0.5, 0.1], 1.0, [0.3, 1.4, -0.2])
        rates = sme_rates(spec)
        t = 1e-6
        assert rates.Gamma_0(t) == pytest.approx(t * float(np.sum(spec.g**2)), rel=1e-9)

    def test_two_mode_cancellation_at_pi(self):
        # detunings (1, -1) with weights (1, 4): sin terms cancel at t = pi
        spec = spec_with([1.0, 2.0], 0.0, [-1.0, 1.0])
        rates = sme_rates(spec)
        assert rates.Gamma_0(math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_d_exact_linearity(self):
        spec = spec_with([0.3, 1.1, 0.6], 0.4, [0.0, 0.2, 0.9])
        rates = sme_rates(spec)
        base = rates.Gamma_d(1.0)
        for lam in (0.0, 0.25, 3.0, 17.5):
            assert rates.Gamma_d(lam) == lam * base

    def test_lamb_shift_acts_on_decaying_branch(self):
        spec = spec_with([0.5], 1.0, [0.4])
        h = sme_rates(spec).lamb_shift(2.0)
        delta = 0.6
        lam = 0.25 * (1 - math.cos(delta * 2.0)) / delta
        omega_r = 0.5
        expected = np.diag([omega_r / 2.0 + lam, -omega_r / 2.0])
        assert np.allclose(h, expected, atol=1e-14)


class TestAnalyticSolution:
    def test_t0_reproduces_rotated_state(self):
        rng = np.random.default_rng(10)
        spec = random_ten_mode_spec(rng)
        rot = random_rot(rng)
        rho = sme_analytic(spec, rot, 0.0)
        psi = np.array([rot.beta, rot.alpha])
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-12

    def test_aligned_branch_is_stationary(self):
        spec = spec_with([0.4, 0.2], 1.0, [0.5, 1.2])
        rot = RotatedAmplitudes(1.0, 0.0)
        for t in (0.0, 1.0, 5.0):
            rho = sme_analytic(spec, rot, t)
            assert rho.rho11 == 1.0 and rho.coherence == 0.0

    def test_single_mode_worked_values(self):
        # g=1, detuning 2, t=1, checked by independent scalar arithmetic
        spec = spec_with([1.0], 2.0, [0.0])
        sol = sme_analytic_solution(spec)
        gamma1 = (1.0 - math.cos(2.0)) / 2.0
        gamma_d = (2.0 - math.sin(2.0)) / 4.0
        assert float(sol.gamma_1(1.0)) == pytest.approx(gamma1, abs=1e-15)
        assert float(sol.gamma_d_phase(1.0)) == pytest.approx(gamma_d, abs=1e-15)
        g2 = complex(sol.G2(1.0))
        assert g2 == pytest.approx(
            math.exp(-0.5) * complex(math.cos(2 * gamma_d), -math.sin(2 * gamma_d)),
            abs=1e-15,
        )
        rot = RotatedAmplitudes(0.6, 0.8)
        rho = sme_analytic(spec, rot, 1.0)
        assert rho.rho00 == pytest.approx(0.64 * math.exp(-gamma1), abs=1e-15)
        assert rho.coherence == pytest.approx(0.48 * g2, abs=1e-15)

    def test_g2_magnitude_law_exact(self):
        rng = np.random.default_rng(3)
        spec = random_ten_mode_spec(rng)
        sol = sme_analytic_solution(spec)
        gsum = float(np.sum(spec.g))
        for t in (0.2, 1.7, 4.0):
            assert abs(complex(sol.G2(t))) == pytest.approx(
                math.exp(-0.5 * (gsum * t) ** 2), rel=1e-14
            )

    def test_g1_bounds_and_termwise_envelope(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = random_ten_mode_spec(rng)
            sol = sme_analytic_solution(spec)
            delta = spec.omega0 - spec.omega
            for t in rng.uniform(0.0, 8.0, 5):
                g1 = float(sol.G1(t))
                assert 0.0 < g1 <= 1.0
                terms = 2.0 * spec.g**2 * (1 - np.cos(delta * t)) \
                    / np.where(delta == 0, 1.0, delta) ** 2
                bound = 2.0 * spec.g**2 * np.minimum(t * t, 4.0 / delta**2)
                assert np.all(terms <= bound + 1e-12)

    def test_resonant_detuning_series(self):
        spec = spec_with([0.5], 1.0, [1.0])  # exact resonance
        sol = sme_analytic_solution(spec)
        t = 2.0
        assert float(sol.gamma_1(t)) == pytest.approx(0.25 * t * t, rel=1e-12)
        assert float(sol.gamma_d_phase(t)) == pytest.approx(0.0, abs=1e-12)


class TestIntegration:
    def test_rejects_nonzero_start(self):
        spec = spec_with([0.1], 1.0, [0.5])
        rot = RotatedAmplitudes(0.6, 0.8)
        with pytest.raises(ValueError, match="t = 0"):
            integrate_sme(spec, rot, TimeGrid(1.0, 2.0, 10))

    def test_decoupled_pure_phase_evolution(self):
        spec = spec_with([0.0, 0.0], 1.3, [0.4, 0.9])
        rot = RotatedAmplitudes(0.6, 0.8)
        grid = TimeGrid(0.0, 2.0, 400)  # h small enough for 1e-10 phase accuracy
        traj = integrate_sme(spec, rot, grid)
        assert np.max(np.abs(traj.states[:, 0, 0].real - 0.64)) < 1e-12
        expected = 0.48 * np.exp(-1j * 1.3 * grid.times)
        assert np.max(np.abs(traj.states[:, 0, 1] - expected)) < 1e-10

    def test_population_channel_matches_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(2):
            spec = random_ten_mode_spec(rng)
            rot = random_rot(rng)
            grid = TimeGrid(0.0, 3.0, 60)
            traj = integrate_sme(spec, rot, grid)
            sol = sme_analytic_solution(spec)
            expected = abs(rot.beta) ** 2 * sol.G1(grid.times)
            assert np.max(np.abs(traj.states[:, 0, 0].real - expected)) < 2e-6

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        spec = random_ten_mode_spec(rng)
        traj = integrate_sme(spec, random_rot(rng), TimeGrid(0.0, 2.0, 40))
        tr = traj.states[:, 0, 0].real + traj.states[:, 1, 1].real
        assert np.max(np.abs(tr - 1.0)) < 1e-9
        herm = traj.states - traj.states.conj().transpose(0, 2, 1)
        assert np.max(np.abs(herm)) < 1e-9

    def test_long_time_relaxation_to_stationary_branch(self):
        # single resonant mode: gamma_1 = g^2 t^2 crosses 20 within reach
        spec = spec_with([1.0], 0.7, [0.7])
        rot = RotatedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
        t_end = 4.8  # gamma_1 = 23
        traj = integrate_sme(spec, rot, TimeGrid(0.0, t_end, 24))
        gamma1 = t_end**2
        assert gamma1 > 20.0
        floor = 1.0 - 3e-9 * abs(rot.beta) ** 2 - 1e-9
        assert traj.states[-1, 1, 1].real > floor


class TestChannelwiseIntegration:
    def test_matches_matrix_rk4_oracle_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(31)
        # one mode at exact resonance exercises the series branch of the rates
        spec = spec_with(rng.uniform(0.05, 0.15, 5), 0.9, [0.9, *rng.uniform(-1.0, 1.0, 4)])
        rot = random_rot(rng)
        grid = TimeGrid(0.0, 1.5, 20)
        refine = _refine_factor(sme_rates(spec), grid)
        whole = integrate_sme(spec, rot, grid)
        # 7 fine steps per block: block edges fall off the sampled grid points
        monkeypatch.setattr(central_spin_nm, "_BLOCK_ELEMENTS", 7 * spec.N)
        blocked = integrate_sme(spec, rot, grid)
        oracle = _integrate_sme_matrix(spec, rot, grid, refine)
        assert refine > 7 and grid.steps * refine > 7
        assert np.array_equal(blocked.times, oracle.times)
        assert np.array_equal(blocked.times, whole.times)
        # blocks continue one sequential product, so the split changes no bit
        assert np.array_equal(blocked.states, whole.states)
        assert np.max(np.abs(blocked.states - oracle.states)) < 1e-12

    def test_refine_factor_pinned_on_acceptance_spec(self):
        # first bath of acceptance criterion 08 (rng 808): Gamma_d-capped step
        rng = np.random.default_rng(808)
        spec = SpinBathSpec(
            N=10,
            g=rng.uniform(0.05, 0.15, 10),
            omega0=rng.uniform(0.5, 1.5),
            omega=rng.uniform(-0.5, 2.5, 10),
        )
        assert _refine_factor(sme_rates(spec), TimeGrid(0.0, 3.0, 60)) == 120

    def test_trace_drift_abort_reports_first_failing_step(self, monkeypatch):
        rng = np.random.default_rng(8)
        spec = random_ten_mode_spec(rng)
        grid = TimeGrid(0.0, 1.0, 10)
        refine = _refine_factor(sme_rates(spec), grid)
        monkeypatch.setattr(central_spin_nm, "TRACE_ABORT", -1.0)
        with pytest.raises(TraceDriftError) as info:
            integrate_sme(spec, random_rot(rng), grid)
        assert info.value.t == grid.refined(refine).times[1]

    def test_decayed_coherence_reaches_zero_not_a_subnormal(self):
        # Gamma_d t^2 reaches ~e^-800 by t = 20; a subnormal rho01 times R ~ 1
        # would round back to itself and freeze near 6e-322
        spec = spec_with([0.5, 0.5], 0.3, [0.1, 0.5])
        s = 1.0 / math.sqrt(2.0)
        traj = integrate_sme(spec, RotatedAmplitudes(s, s), TimeGrid(0.0, 20.0, 200))
        mag = np.abs(traj.states[:, 0, 1])
        tiny = np.finfo(float).tiny
        assert np.all((mag == 0.0) | (mag >= tiny))
        # the 15 rows that were subnormal before the flush are exactly 0
        assert np.all(traj.states[-15:, 0, 1] == 0.0)
        assert mag[-16] >= tiny

    def test_step_cap_refuses_before_integrating(self):
        # the README bath run ten times longer: ~3e8 fine steps
        spec = spec_with(np.full(8, 1.2), 0.9, np.linspace(0.1, 2.2, 8))
        grid = TimeGrid(0.0, 60.0, 2000)
        expected = grid.steps * _refine_factor(sme_rates(spec), grid)
        assert expected > MAX_SME_STEPS
        started = time.perf_counter()
        with pytest.raises(StepBudgetError) as info:
            integrate_sme(spec, RotatedAmplitudes(0.6, 0.8), grid)
        assert time.perf_counter() - started < 0.5
        assert isinstance(info.value, ValueError)
        assert info.value.steps == expected
        assert str(expected) in str(info.value)
        assert f"refine factor {expected // grid.steps}" in str(info.value)


class TestDiscrepancyReport:
    def test_zero_couplings_zero_deviation(self):
        spec = spec_with([0.0, 0.0, 0.0], 1.1, [0.2, 0.5, 0.9])
        rot = RotatedAmplitudes(0.6, 0.8)
        rep = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 2.0, 400))
        assert np.max(rep.population_deviation) < 1e-12
        assert np.max(rep.coherence_magnitude_deviation) < 1e-12
        assert np.nanmax(rep.coherence_phase_deviation) < 1e-10

    def test_population_channel_small_on_random_spec(self):
        rng = np.random.default_rng(123)
        spec = random_ten_mode_spec(rng)
        rot = random_rot(rng)
        rep = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 3.0, 60))
        assert np.max(rep.population_deviation) < 2e-6

    def test_best_fit_factor_emitted(self, tmp_path):
        rng = np.random.default_rng(5)
        spec = random_ten_mode_spec(rng)
        rot = random_rot(rng)
        rep = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 3.0, 60))
        assert math.isfinite(rep.best_fit_dephasing_factor)
        assert rep.best_fit_dephasing_factor > 0.0
        text = rep.summary()
        assert "best-fit dephasing factor" in text
        out = tmp_path / "report.csv"
        rep.write_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,popDev,cohMagDev,cohPhaseDev"

    def test_best_fit_factor_on_revival_preset_scale(self):
        # strong uniform couplings compress the coherence lifetime to ~1e-2;
        # the fitted constant lands near the hand-derived dissipator factor 4
        # (documented, not asserted: only finiteness and reporting precision)
        from decobath.central_spin import fig2_spec, rotate_to_polarization

        spec = fig2_spec(50)
        rot = rotate_to_polarization(0.6, 0.8, 0.0, 1.0)
        rep = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 0.01, 100))
        assert math.isfinite(rep.best_fit_dephasing_factor)
        summary = rep.summary()
        digits = summary.rsplit("best-fit dephasing factor ", 1)[1]
        assert len(digits.replace(".", "").replace("-", "").lstrip("0")) >= 3

    def test_stationary_branch_has_no_coherence_channel(self):
        spec = spec_with([0.2], 1.0, [0.4])
        rot = RotatedAmplitudes(1.0, 0.0)  # beta = 0: no coherence, no fit
        rep = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 1.0, 20))
        assert np.max(rep.population_deviation) < 1e-12
        assert math.isnan(rep.best_fit_dephasing_factor)
