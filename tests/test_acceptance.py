"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ... PASS` line (visible with `pytest -s`
or in captured output); a failed assertion marks the criterion FAIL.
"""

import math
import time

import numpy as np
import pytest

from decobath import central_spin, central_spin_nm, cli, dephasing_nm, lindblad
from decobath.qstate import DensityMatrix2, QubitAmplitudes
from decobath.trajectory import TimeGrid


def _report(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number}: {label}: PASS ({time.perf_counter() - started:.2f}s)")


def _random_amplitudes(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return QubitAmplitudes(v[0], v[1])


def test_acceptance_01_born_rule_fixed_point():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        psi = _random_amplitudes(rng)
        for gamma in (0.1, 1.0, 10.0):
            t = 25.0 / gamma  # gamma t = 25
            rho = lindblad.evolve_dephasing_markov(
                psi, lindblad.DephasingParams(gamma), t
            )
            assert abs(rho.rho00 - abs(psi.a) ** 2) <= 1e-12
            assert abs(rho.rho11 - abs(psi.b) ** 2) <= 1e-12
            assert abs(rho.coherence) < 1e-10
    _report(1, "Born-rule fixed point of Markovian dephasing", started)


def test_acceptance_02_isotropic_fixed_point():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    gamma = 1.0
    # gamma t = 20; 800 RK4 steps leave integration error orders below 1e-6
    grid = TimeGrid(0.0, 20.0, 800)
    gen = lindblad.isotropic_generator(gamma)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = a @ a.conj().T
        m /= np.trace(m).real
        rho0 = DensityMatrix2.from_parts(m[0, 0].real, m[1, 1].real, m[0, 1])
        states = lindblad.integrate_master(rho0, gen, grid)
        assert np.max(np.abs(states[-1] - 0.5 * np.eye(2))) < 1e-6
    _report(2, "isotropic model decoheres to I/2", started)


def test_acceptance_03_correlated_bath_closed_forms():
    started = time.perf_counter()
    # quadrature against the exact Ohmic integrals
    for eta, omega_c in ((0.8, 3.0), (1.6, 0.4)):
        J = dephasing_nm.SpectralDensity.ohmic(eta, omega_c)
        for t in np.linspace(0.5 / omega_c, 50.0 / omega_c, 25):
            assert dephasing_nm.phi(t, J) == pytest.approx(
                eta * math.atan(omega_c * t), rel=1e-8
            )
            assert dephasing_nm.gamma_thermal(t, J, math.inf) == pytest.approx(
                0.5 * eta * math.log1p((omega_c * t) ** 2), rel=1e-8
            )
    # special-value identities at <sigma_z> = tanh(beta omega0 / 2); draws
    # keep |beta omega0 / 2| <= 5 so the identity conditioning stays well
    # below the 1e-10 assertion
    rng = np.random.default_rng(303)
    for _ in range(1000):
        beta = rng.uniform(0.2, 4.0)
        omega0 = rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0])
        z = math.tanh(0.5 * beta * omega0)
        psi = QubitAmplitudes(math.sqrt((1.0 + z) / 2.0), math.sqrt((1.0 - z) / 2.0))
        p = dephasing_nm.CorrelatedBathParams(
            dephasing_nm.SpectralDensity.ohmic(rng.uniform(0.05, 0.95),
                                               rng.uniform(0.5, 4.0)),
            beta, omega0,
        )
        f = dephasing_nm.decoherence_factors(rng.uniform(0.0, 8.0), p, psi)
        assert abs(f.chi) <= 1e-10
        assert abs(f.gamma_corr - (-math.log(abs(math.cos(f.phi))))) <= 1e-10
    _report(3, "correlated-bath closed forms and special values", started)


def test_acceptance_04_coherence_ordering():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(1000):
        psi = _random_amplitudes(rng)
        J = dephasing_nm.SpectralDensity.ohmic(
            rng.uniform(0.05, 2.0), rng.uniform(0.3, 4.0)
        )
        beta = rng.uniform(0.2, 6.0)
        omega0 = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.0, 5.0)
        p = dephasing_nm.CorrelatedBathParams(J, beta, omega0)
        corr = dephasing_nm.rho_correlated(t, psi, p)
        ref = dephasing_nm.rho_uncorrelated(t, psi, J, beta, omega0)
        if abs(corr.coherence) > abs(ref.coherence) + 1e-15:
            violations += 1
    assert violations == 0
    _report(4, "correlated coherence never exceeds the uncorrelated one", started)


def test_acceptance_05_sector_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    grid = TimeGrid(0.0, 5.0, 199)  # 200 time points
    for n in (4, 8, 12):
        for _ in range(5):
            spec = central_spin.SpinBathSpec(
                N=n,
                g=rng.uniform(0.5, 2.0, n),
                omega0=rng.uniform(-2.0, 2.0),
                omega=rng.uniform(-2.0, 2.0, n),
            )
            pairs = [(1.0, 0.0)] + [(0.0, 1.0)] * n
            full = central_spin.brute_force_evolve(
                spec, central_spin.product_state(pairs), grid
            )
            sector = central_spin.evolve_sector(spec, grid)
            assert np.max(np.abs(full.sector_amplitudes()
                                 - sector.amplitudes)) < 1e-10
            sz = full.sz_total()
            assert np.max(np.abs(sz - sz[0])) < 1e-10
    _report(5, "2^(N+1) brute force equals the secular measure's sector amplitudes",
            started)


def test_acceptance_06_revival_curves():
    started = time.perf_counter()
    revivals = {}
    for n in (50, 100):
        cfg = cli.parse_config(f"scenario = fig2\nbath.N = {n}\n")
        traj = cli.run_scenario(cfg)
        p0 = traj.columns["P0"]
        assert abs(p0[0] - 1.0) < 1e-12
        assert np.min(p0) < 0.1
        found = central_spin.first_revival(traj.times, p0)
        assert found is not None, f"no revival above 0.5 for N={n}"
        revivals[n] = found[0]
    assert revivals[100] > revivals[50]
    _report(6, "collapse-and-revival preset curves "
               f"(t_rev(50)={revivals[50]:.3f} < t_rev(100)={revivals[100]:.3f})",
            started)


def test_acceptance_07_aligned_state_stationary():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    spec = central_spin.SpinBathSpec(
        N=8, g=rng.uniform(0.5, 2.0, 8), omega0=0.9,
        omega=rng.uniform(-2.0, 2.0, 8),
    )
    v = np.zeros(spec.dim_full, complex)
    v[central_spin.aligned_index(8)] = 1.0
    full = central_spin.brute_force_evolve(spec, v, TimeGrid(0.0, 6.0, 200))
    fidelity = np.abs(full.register_states() @ v.conj())
    assert np.max(np.abs(fidelity - 1.0)) < 1e-10
    _report(7, "fully aligned state is stationary under brute force", started)


def test_acceptance_08_sme_population_consistency(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    grid = TimeGrid(0.0, 3.0, 60)
    factor = math.nan
    for i in range(10):
        spec = central_spin.SpinBathSpec(
            N=10,
            g=rng.uniform(0.05, 0.15, 10),
            omega0=rng.uniform(0.5, 1.5),
            omega=rng.uniform(-0.5, 2.5, 10),
        )
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rot = central_spin.RotatedAmplitudes(v[0], v[1])
        report, factor = central_spin_nm.sme_discrepancy_report(spec, rot, grid.times)
        if i == 0:
            report.write_csv(tmp_path / "sme_discrepancy.csv")
            assert (tmp_path / "sme_discrepancy.csv").exists()
            # the solved population is |beta|^2 G1 by construction: step the
            # full generator with the RK4 oracle, an independent path
            refine = central_spin_nm._refine_factor(spec, grid)
            oracle = central_spin_nm._integrate_sme_matrix(spec, rot, grid, refine)
            g1 = np.exp(-central_spin_nm.channel_exponents(spec, grid.times)[0])
            rk4_dev = np.abs(oracle[:, 0, 0].real - abs(rot.beta) ** 2 * g1)
            assert np.max(rk4_dev) < 2e-6
        assert math.isfinite(factor)
    _report(8, "RK4-integrated population channel matches exp(-gamma_1); "
               f"coherence best-fit factor {factor:.3g} emitted", started)


def test_acceptance_09_long_time_relaxation():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    for _ in range(20):
        g = rng.uniform(1.0, 2.0, 10)
        gsum = float(np.sum(g))
        omega0 = rng.uniform(-1.0, 1.0)
        detunings = rng.uniform(-0.1, 0.1, 10) * gsum
        spec = central_spin.SpinBathSpec(
            N=10, g=g, omega0=omega0, omega=omega0 - detunings
        )
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rot = central_spin.RotatedAmplitudes(v[0], v[1])
        ts = np.linspace(0.0, 3.0, 400)
        gamma1 = central_spin_nm.channel_exponents(spec, ts)[0]
        deep = ts[gamma1 > 20.0]
        assert deep.size > 0, "no grid point reaches gamma_1 > 20"
        rho = central_spin_nm.sme_analytic(spec, rot, deep[:: max(1, deep.size // 8)])
        assert np.all(rho.rho11 > 1.0 - 1e-8)
    _report(9, "analytic solution relaxes onto the stationary branch", started)


def test_acceptance_10_determinism(tmp_path):
    started = time.perf_counter()
    for n in (50, 100):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"fig2_{n}_{run}.csv"
            assert cli.main(["preset", "fig2", "--n", str(n),
                             "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
    _report(10, "presets render byte-identical CSVs across runs", started)
