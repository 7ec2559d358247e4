import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decobath import central_spin_nm
from decobath.central_spin import RotatedAmplitudes, SpinBathSpec
from decobath.central_spin_nm import (
    _integrate_sme_matrix,
    _refine_factor,
    channel_exponents,
    integrate_sme,
    sme_analytic,
    sme_discrepancy_report,
    sme_rates,
)
from decobath.qstate import QubitAmplitudes
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
        gamma_d, gamma_0, lamb = sme_rates(spec_with([0.3, 0.4], 1.0, [0.2, 0.8]), 0.0)
        assert gamma_d == 0.0 and gamma_0 == 0.0 and lamb == 0.0

    def test_resonant_mode_linear_in_t(self):
        g = 0.7
        ts = np.array([0.1, 1.0, 7.3])
        _, gamma_0, lamb = sme_rates(spec_with([g], 1.3, [1.3]), ts)
        assert gamma_0 == pytest.approx(g * g * ts, rel=1e-14)
        assert np.all(lamb == 0.0)

    def test_near_resonant_mode_at_long_times(self):
        # delta = 5e-11: the kernels switch on the phase delta t, not on |delta|
        ts = np.array([1e9, 1e11])
        _, gamma_0, lamb = sme_rates(spec_with([1.0], 0.0, [-5e-11]), ts)
        for t, g0, lam in zip(ts, gamma_0, lamb):
            with mpmath.workdps(40):
                x = mpmath.mpf(5e-11) * mpmath.mpf(t)
                ref_0 = mpmath.sin(x) / mpmath.mpf(5e-11)
                ref_lam = (1 - mpmath.cos(x)) / mpmath.mpf(5e-11)
            assert abs(g0 - ref_0) <= 1e-14 * abs(ref_0)
            assert abs(lam - ref_lam) <= 1e-14 * abs(ref_lam)

    def test_small_time_expansion(self):
        spec = spec_with([0.2, 0.5, 0.1], 1.0, [0.3, 1.4, -0.2])
        t = 1e-6
        gamma_0 = sme_rates(spec, t)[1]
        assert gamma_0 == pytest.approx(t * float(np.sum(spec.g**2)), rel=1e-9)

    def test_two_mode_cancellation_at_pi(self):
        # detunings (1, -1) with weights (1, 4): sin terms cancel at t = pi
        spec = spec_with([1.0, 2.0], 0.0, [-1.0, 1.0])
        assert sme_rates(spec, math.pi)[1] == pytest.approx(0.0, abs=1e-12)

    def test_gamma_d_exact_linearity(self):
        spec = spec_with([0.3, 1.1, 0.6], 0.4, [0.0, 0.2, 0.9])
        base = sme_rates(spec, 1.0)[0]
        lams = np.array([0.0, 0.25, 3.0, 17.5])
        assert np.array_equal(sme_rates(spec, lams)[0], lams * base)

    def test_lamb_shift_acts_on_decaying_branch(self):
        spec = spec_with([0.5], 1.0, [0.4])
        gamma_d, gamma_0, lamb = sme_rates(spec, 2.0)
        delta = 0.6
        lam = 0.25 * (1 - math.cos(delta * 2.0)) / delta
        assert lamb == pytest.approx(lam, abs=1e-14)
        # the generator turns the coherence at omega_r + Lambda: the shift
        # sits on |0><0| alone
        omega_r = 0.5
        rho = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
        d01 = central_spin_nm._sme_generator(spec)(2.0, rho)[0, 1]
        expected = (-1j * (omega_r + lam) - 4.0 * gamma_d - gamma_0) * rho[0, 1]
        assert abs(d01 - expected) <= 1e-14

    def test_array_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(27)
        # a resonant mode and a tiny phase reach both kernel branches
        spec = spec_with(rng.uniform(0.05, 0.15, 12), 0.9,
                         [0.9, *rng.uniform(-1.0, 2.0, 11)])
        ts = np.concatenate(([0.0, 1e-120], rng.uniform(0.0, 50.0, 40))).reshape(6, 7)
        rates = sme_rates(spec, ts)
        for got in rates:
            assert got.shape == ts.shape
        for idx in np.ndindex(ts.shape):
            one = sme_rates(spec, ts[idx])
            for got, scalar in zip(rates, one):
                assert np.ndim(scalar) == 0 and got[idx] == scalar


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
        got_1, got_d = channel_exponents(spec, 1.0)
        gamma1 = (1.0 - math.cos(2.0)) / 2.0
        gamma_d = (2.0 - math.sin(2.0)) / 4.0
        assert got_1 == pytest.approx(gamma1, abs=1e-15)
        assert got_d == pytest.approx(gamma_d, abs=1e-15)
        g2 = math.exp(-0.5) * complex(math.cos(2 * gamma_d), -math.sin(2 * gamma_d))
        rot = RotatedAmplitudes(0.6, 0.8)
        rho = sme_analytic(spec, rot, 1.0)
        assert rho.rho00 == pytest.approx(0.64 * math.exp(-gamma1), abs=1e-15)
        assert rho.coherence == pytest.approx(0.48 * g2, abs=1e-15)

    def test_g2_magnitude_law_exact(self):
        rng = np.random.default_rng(3)
        spec = random_ten_mode_spec(rng)
        gsum = float(np.sum(spec.g))
        # |conj(alpha) beta| = 0.48 scales G2 into the coherence
        rot = RotatedAmplitudes(0.6, 0.8)
        for t in (0.2, 1.7, 4.0):
            assert abs(sme_analytic(spec, rot, t).coherence) / 0.48 == pytest.approx(
                math.exp(-0.5 * (gsum * t) ** 2), rel=1e-14
            )

    def test_g1_bounds_and_termwise_envelope(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = random_ten_mode_spec(rng)
            delta = spec.omega0 - spec.omega
            for t in rng.uniform(0.0, 8.0, 5):
                g1 = math.exp(-channel_exponents(spec, t)[0])
                assert 0.0 < g1 <= 1.0
                terms = 2.0 * spec.g**2 * (1 - np.cos(delta * t)) \
                    / np.where(delta == 0, 1.0, delta) ** 2
                bound = 2.0 * spec.g**2 * np.minimum(t * t, 4.0 / delta**2)
                assert np.all(terms <= bound + 1e-12)

    def test_array_times_give_one_batched_state(self):
        rng = np.random.default_rng(12)
        spec = random_ten_mode_spec(rng)
        rot = random_rot(rng)
        ts = np.linspace(0.0, 4.0, 9)
        batch = sme_analytic(spec, rot, ts)
        assert batch.matrix.shape == (9, 2, 2)
        for i, t in enumerate(ts):
            rho = sme_analytic(spec, rot, float(t))
            assert rho.matrix.shape == (2, 2)
            assert np.max(np.abs(batch.matrix[i] - rho.matrix)) < 1e-15

    def test_negative_times_refused(self):
        spec = spec_with([0.3], 1.0, [0.4])
        rot = RotatedAmplitudes(0.6, 0.8)
        for t in (-0.5, np.array([0.0, 1.0, -1e-3])):
            with pytest.raises(ValueError, match="t must be >= 0"):
                sme_analytic(spec, rot, t)

    def test_resonant_detuning_series(self):
        spec = spec_with([0.5], 1.0, [1.0])  # exact resonance
        t = 2.0
        gamma_1, gamma_d = channel_exponents(spec, t)
        assert gamma_1 == pytest.approx(0.25 * t * t, rel=1e-12)
        assert gamma_d == pytest.approx(0.0, abs=1e-12)


#: Detunings from exact resonance through 1e-12 ... 1e-6, where x - sin x
#: cancels for every t of the grid, to O(1).
_DETUNINGS = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-12.0, -6.0)).map(
        lambda p: p[0] * 10.0 ** p[1]),
    st.floats(-3.0, 3.0),
)


def _exponents_mp(spec, t):
    """gamma_1, gamma_d and the sum of gamma_d's term magnitudes, in mpmath.

    Each term is taken at the phase x = delta t as the float product the
    code forms: near a zero of 1 - cos x, gamma_1's term is ill-conditioned
    in x, and that rounding belongs to the input, not to the kernels.  The
    working precision is 120 digits plus the 2 |log10 x| that 1 - cos x and
    x - sin x lose to cancellation, so the reference itself does not cancel.
    """
    delta = spec.omega0 - spec.omega
    ones, arcs = [], []
    for g, d in zip(spec.g, delta):
        x = float(d * t)
        if x == 0.0:  # resonance, t = 0, or a phase below the smallest double
            ones.append(mpmath.mpf(g) ** 2 * mpmath.mpf(t) ** 2)
            arcs.append(0)
            continue
        with mpmath.workdps(120 + 2 * max(0, -math.floor(math.log10(abs(x))))):
            gsq, d, x = mpmath.mpf(g) ** 2, mpmath.mpf(d), mpmath.mpf(x)
            ones.append(2 * gsq * (1 - mpmath.cos(x)) / d**2)
            arcs.append(gsq * (x - mpmath.sin(x)) / d**2)
    with mpmath.workdps(120):
        return mpmath.fsum(ones), mpmath.fsum(arcs), mpmath.fsum(abs(a) for a in arcs)


class TestChannelExponents:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        modes=st.lists(st.tuples(st.floats(0.01, 1.5), _DETUNINGS), min_size=1, max_size=6),
        omega0=st.floats(-2.0, 2.0),
        times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
    )
    # a lone mode at |delta| = 2e-10, delta = 1e-9 at t = 100, and the
    # README bath at t = 1e-4: the Lamb phase once lost 100%, 3% and 3e-8;
    # delta = 5e-11 at t = 1e9 and 1e11: gamma_1 took its resonance series
    # by |delta| alone and was off by 8e-13 and 11x
    @example(modes=[(1.0, 2e-10)], omega0=0.0, times=[1.0, 50.0])
    @example(modes=[(1.0, 5e-11)], omega0=0.0, times=[1e9, 1e11])
    @example(modes=[(1.0, 1e-9)], omega0=0.0, times=[100.0])
    @example(modes=[(1.2, 0.9 - w) for w in (0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.2)],
             omega0=0.9, times=[1e-4])
    def test_match_mpmath(self, modes, omega0, times):
        g, delta = np.array(modes).T
        spec = spec_with(g, omega0, omega0 - delta)
        got_1, got_d = channel_exponents(spec, np.array(times))
        for t, g1, gd in zip(times, got_1, got_d):
            ref_1, ref_d, mag_d = _exponents_mp(spec, t)
            # gamma_d relative to its terms' magnitudes: they carry the sign
            # of their detuning and may cancel
            assert abs(g1 - ref_1) <= 1e-13 * ref_1 + 1e-300, (t, g1, ref_1)
            assert abs(gd - ref_d) <= 1e-13 * mag_d + 1e-300, (t, gd, ref_d)

    def test_scalar_time_gives_scalars_equal_to_array_entries(self):
        rng = np.random.default_rng(8)
        spec = random_ten_mode_spec(rng)
        ts = np.linspace(0.0, 5.0, 11)
        both = channel_exponents(spec, ts)
        for i, t in enumerate(ts):
            one = channel_exponents(spec, float(t))
            for scalar, row in zip(one, both):
                assert np.ndim(scalar) == 0 and scalar == row[i]


class TestIntegration:
    def test_later_start_gives_the_same_rows(self, monkeypatch):
        # each time is solved on its own from the preparation at t = 0, so
        # dropping the first k times changes no bit of the others, at any
        # blocking of channel_exponents
        rng = np.random.default_rng(16)
        spec = random_ten_mode_spec(rng)
        rot = random_rot(rng)
        t = TimeGrid(0.0, 3.0, 60).times
        whole = integrate_sme(spec, rot, t)
        exponents = channel_exponents(spec, t)
        monkeypatch.setattr(central_spin_nm, "_BLOCK_ELEMENTS", 7 * spec.N)
        assert all(np.array_equal(a, b) for a, b in zip(channel_exponents(spec, t), exponents))
        for k in (1, 7, 30, 60):
            later = integrate_sme(spec, rot, t[k:])
            for part in ("rho00", "rho11", "coherence"):
                assert np.array_equal(getattr(later, part), getattr(whole, part)[k:])

    def test_decoupled_pure_phase_evolution(self):
        spec = spec_with([0.0, 0.0], 1.3, [0.4, 0.9])
        rot = RotatedAmplitudes(0.6, 0.8)
        grid = TimeGrid(0.0, 2.0, 400)
        rho = integrate_sme(spec, rot, grid.times)
        assert np.max(np.abs(rho.rho00 - 0.64)) < 1e-12
        expected = 0.48 * np.exp(-1j * 1.3 * grid.times)
        assert np.max(np.abs(rho.coherence - expected)) < 1e-10

    def test_population_channel_matches_closed_form(self):
        # the exact population channel is |beta|^2 G1 by construction; the
        # independent check is the RK4 oracle (acceptance 08 and below)
        rng = np.random.default_rng(99)
        for _ in range(2):
            spec = random_ten_mode_spec(rng)
            rot = random_rot(rng)
            grid = TimeGrid(0.0, 3.0, 60)
            rho = integrate_sme(spec, rot, grid.times)
            expected = abs(rot.beta) ** 2 * np.exp(-channel_exponents(spec, grid.times)[0])
            assert np.array_equal(rho.rho00, expected)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        spec = random_ten_mode_spec(rng)
        rho = integrate_sme(spec, random_rot(rng), TimeGrid(0.0, 2.0, 40).times)
        assert np.max(np.abs(rho.rho00 + rho.rho11 - 1.0)) < 1e-9
        m = rho.matrix
        assert m.shape == (41, 2, 2)
        assert np.max(np.abs(m - m.conj().transpose(0, 2, 1))) < 1e-9

    def test_long_time_relaxation_to_stationary_branch(self):
        # single resonant mode: gamma_1 = g^2 t^2 crosses 20 within reach
        spec = spec_with([1.0], 0.7, [0.7])
        rot = RotatedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
        t_end = 4.8  # gamma_1 = 23
        rho = integrate_sme(spec, rot, TimeGrid(0.0, t_end, 24).times)
        gamma1 = t_end**2
        assert gamma1 > 20.0
        floor = 1.0 - 3e-9 * abs(rot.beta) ** 2 - 1e-9
        assert rho.rho11[-1] > floor

    def test_small_rho11_keeps_relative_accuracy(self):
        # beta ~ 1: rho11 ~ 1e-7 is what leaves rho00; 1 - rho00 would lose
        # ~1e-9 of it to rounding, the expm1 form keeps ~1e-15
        rng = np.random.default_rng(41)
        spec = random_ten_mode_spec(rng)
        p_alpha = 1e-7
        rot = RotatedAmplitudes(math.sqrt(p_alpha), math.sqrt(1.0 - p_alpha))
        grid = TimeGrid(0.0, 0.004, 8)
        rho = integrate_sme(spec, rot, grid.times)
        mpmath.mp.dps = 40
        delta = [mpmath.mpf(spec.omega0) - mpmath.mpf(w) for w in spec.omega]
        for t, got in zip(grid.times, rho.rho11):
            t = mpmath.mpf(t)
            gamma1 = 2 * mpmath.fsum(
                mpmath.mpf(g) ** 2 * (1 - mpmath.cos(d * t)) / d**2
                for g, d in zip(spec.g, delta)
            )
            expected = (abs(mpmath.mpc(rot.alpha)) ** 2
                        + abs(mpmath.mpc(rot.beta)) ** 2 * -mpmath.expm1(-gamma1))
            assert abs(got - expected) <= 1e-12 * expected


class TestChannelwiseIntegration:
    def test_matches_matrix_rk4_oracle_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(31)
        # one mode at exact resonance exercises the series branch of the rates
        spec = spec_with(rng.uniform(0.05, 0.15, 5), 0.9, [0.9, *rng.uniform(-1.0, 1.0, 4)])
        rot = random_rot(rng)
        grid = TimeGrid(0.0, 1.5, 20)
        whole = integrate_sme(spec, rot, grid.times)
        # 7 time rows per block: block edges fall inside the grid
        monkeypatch.setattr(central_spin_nm, "_BLOCK_ELEMENTS", 7 * spec.N)
        blocked = integrate_sme(spec, rot, grid.times)
        # a row's mode sum does not see the blocking, so no bit changes
        for part in ("rho00", "rho11", "coherence"):
            assert np.array_equal(getattr(blocked, part), getattr(whole, part))
        oracle = _integrate_sme_matrix(spec, rot, grid, _refine_factor(spec, grid))
        assert oracle.shape == (grid.steps + 1, 2, 2)
        assert np.max(np.abs(oracle - blocked.matrix)) < 1e-12

    def test_matrix_oracle_refuses_a_later_start(self):
        # RK4 steps from the prepared state, which holds at t = 0 only
        spec = spec_with([0.1], 1.0, [0.5])
        with pytest.raises(ValueError, match="t = 0"):
            _integrate_sme_matrix(spec, RotatedAmplitudes(0.6, 0.8), TimeGrid(1.0, 2.0, 10), 1)

    def test_oracle_converges_to_exact_at_fourth_order(self):
        # bench master-eq sme-rotation shape: omega0 = 60 sets the RK4 step,
        # so the oracle's coherence error is its phase error
        rng = np.random.default_rng(61)
        g = rng.uniform(0.005, 0.015, 10)
        spec = spec_with(g * (0.1 / g.sum()), 60.0, rng.uniform(-0.5, 2.5, 10))
        rot = random_rot(rng)
        grid = TimeGrid(0.0, 0.25, 5)
        exact = integrate_sme(spec, rot, grid.times).coherence
        refine = _refine_factor(spec, grid)
        errors = [
            np.max(np.abs(_integrate_sme_matrix(spec, rot, grid, refine * k)[:, 0, 1]
                          - exact))
            for k in (1, 2, 4, 8)
        ]
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios >= 12.0) & (ratios <= 20.0)), ratios
        assert errors[-1] > 1e-11  # still far above rounding

    def test_memory_stays_flat_in_times_by_modes(self):
        rng = np.random.default_rng(200)
        n = 200
        spec = spec_with(rng.uniform(0.0005, 0.0015, n), 1.0, rng.uniform(0.0, 2.0, n))
        grid = TimeGrid(0.0, 10.0, 20000)
        tracemalloc.start()
        try:
            integrate_sme(spec, random_rot(rng), grid.times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (T, N) float array alone would be 32 MB
        assert (grid.steps + 1) * n > 100 * central_spin_nm._BLOCK_ELEMENTS
        assert peak < 5e6

    def test_refine_factor_pinned_on_acceptance_spec(self):
        # first bath of acceptance criterion 08 (rng 808): Gamma_d-capped step
        rng = np.random.default_rng(808)
        spec = SpinBathSpec(
            N=10,
            g=rng.uniform(0.05, 0.15, 10),
            omega0=rng.uniform(0.5, 1.5),
            omega=rng.uniform(-0.5, 2.5, 10),
        )
        assert _refine_factor(spec, TimeGrid(0.0, 3.0, 60)) == 120

    def test_decayed_coherence_reaches_zero_not_a_subnormal(self):
        # Gamma_d t^2 reaches ~e^-800 by t = 20; coherences below the smallest
        # normal double are flushed to the zero they decay towards
        spec = spec_with([0.5, 0.5], 0.3, [0.1, 0.5])
        s = 1.0 / math.sqrt(2.0)
        rho = integrate_sme(spec, RotatedAmplitudes(s, s), TimeGrid(0.0, 20.0, 200).times)
        mag = np.abs(rho.coherence)
        tiny = np.finfo(float).tiny
        assert np.all((mag == 0.0) | (mag >= tiny))
        # the 15 rows that would be subnormal or 0 are exactly 0
        assert np.all(rho.coherence[-15:] == 0.0)
        assert mag[-16] >= tiny


class TestDiscrepancyReport:
    def test_zero_couplings_zero_deviation(self):
        spec = spec_with([0.0, 0.0, 0.0], 1.1, [0.2, 0.5, 0.9])
        rot = RotatedAmplitudes(0.6, 0.8)
        rep, _ = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 2.0, 400).times)
        assert np.max(rep.columns["cohMagDev"]) < 1e-12
        assert np.nanmax(rep.columns["cohPhaseDev"]) < 1e-10

    def test_best_fit_factor_emitted(self, tmp_path):
        rng = np.random.default_rng(5)
        spec = random_ten_mode_spec(rng)
        rot = random_rot(rng)
        rep, kappa = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 3.0, 60).times)
        assert math.isfinite(kappa)
        assert kappa > 0.0
        out = tmp_path / "report.csv"
        rep.write_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,cohMagDev,cohPhaseDev"

    def test_best_fit_factor_on_revival_preset_scale(self):
        # strong uniform couplings compress the coherence lifetime to ~1e-2;
        # the fitted constant lands near the hand-derived dissipator factor 4
        # (documented, not asserted: only finiteness)
        from decobath.central_spin import fig2_spec, rotate_to_polarization

        spec = fig2_spec(50)
        rot = rotate_to_polarization(QubitAmplitudes(0.6, 0.8), QubitAmplitudes(0.0, 1.0))
        _, kappa = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 0.01, 100).times)
        assert math.isfinite(kappa)

    def test_stationary_branch_has_no_coherence_channel(self):
        spec = spec_with([0.2], 1.0, [0.4])
        rot = RotatedAmplitudes(1.0, 0.0)  # beta = 0: no coherence, no fit
        _, kappa = sme_discrepancy_report(spec, rot, TimeGrid(0.0, 1.0, 20).times)
        assert math.isnan(kappa)

    def test_times_must_increase(self):
        spec = spec_with([0.2], 1.0, [0.4])
        with pytest.raises(ValueError, match="strictly increasing"):
            sme_discrepancy_report(spec, RotatedAmplitudes(0.6, 0.8), [1.0, 0.5])

    def test_bath_whose_closed_form_is_no_state_is_refused(self):
        # couplings summing to 0 leave |G2| = 1 while G1 < 1: with a small
        # |beta| the claimed state's determinant is negative
        spec = spec_with([0.3, -0.3], 1.0, [0.2, 0.7])
        rot = RotatedAmplitudes(0.95, math.sqrt(1.0 - 0.95 ** 2))
        with pytest.raises(ValueError, match="positive semidefinite"):
            sme_discrepancy_report(spec, rot, TimeGrid(0.0, 3.0, 30).times)
