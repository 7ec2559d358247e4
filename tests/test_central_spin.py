import numpy as np
import pytest

from decobath.central_spin import (
    RotatedAmplitudes,
    SpinBathSpec,
    aligned_eigen_energy,
    aligned_index,
    arrowhead_eigensystem,
    brute_force_evolve,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    evolve_sector,
    excitation_on_system,
    fig2_spec,
    first_revival,
    product_state,
    reduced_system_density,
    rotate_to_polarization,
    sector_eigensystem,
    sector_indices,
)
from decobath.errors import NormalizationError
from decobath.trajectory import TimeGrid


def random_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return tuple(v / np.linalg.norm(v))


def random_spec(rng, n):
    return SpinBathSpec(
        N=n,
        g=rng.uniform(0.5, 2.0, n),
        omega0=rng.uniform(-2.0, 2.0),
        omega=rng.uniform(-2.0, 2.0, n),
    )


class TestSpec:
    def test_broadcast_and_validation(self):
        spec = SpinBathSpec(N=3, g=1.5, omega0=0.2, omega=[1.0, 2.0, 3.0])
        assert np.array_equal(spec.g, [1.5, 1.5, 1.5])
        assert spec.uniform_coupling
        with pytest.raises(ValueError):
            SpinBathSpec(N=0, g=1.0, omega0=0.0, omega=1.0)
        with pytest.raises(ValueError):
            SpinBathSpec(N=2, g=np.inf, omega0=0.0, omega=1.0)
        with pytest.raises(NormalizationError):
            SpinBathSpec(N=1, g=1.0, omega0=0.0, omega=1.0,
                         polarization=(1.0, 1.0))

    def test_fig2_parameters(self):
        spec = fig2_spec(50)
        assert spec.omega0 == 4.0 * 49
        assert np.array_equal(spec.g, np.full(50, 4.0))
        k = np.arange(1, 51)
        assert np.allclose(spec.omega / 2.0, 39.0 - 80.0 * k / 49.0)
        assert spec.omega[-1] < 0  # negative splittings accepted as detunings


class TestRotation:
    def test_bath_already_aligned(self):
        # (c, d) = (0, 1): alpha = b, beta = a
        a, b = 0.6, 0.8j
        rot = rotate_to_polarization(a, b, 0.0, 1.0)
        assert rot.alpha == pytest.approx(b)
        assert rot.beta == pytest.approx(a)

    def test_system_parallel_to_bath(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, d = random_pair(rng)
            rot = rotate_to_polarization(c, d, c, d)
            assert rot.alpha == pytest.approx(1.0, abs=1e-12)
            assert abs(rot.beta) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_matrix_oracle(self):
        # (beta, alpha) must equal R (a, b) with R = [[d, -c], [c*, d*]]
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = random_pair(rng)
            c, d = random_pair(rng)
            r = np.array([[d, -c], [np.conj(c), np.conj(d)]])
            assert np.max(np.abs(r.conj().T @ r - np.eye(2))) < 1e-12
            expect = r @ np.array([a, b])
            rot = rotate_to_polarization(a, b, c, d)
            assert rot.beta == pytest.approx(expect[0], abs=1e-12)
            assert rot.alpha == pytest.approx(expect[1], abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            rotate_to_polarization(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(NormalizationError):
            rotate_to_polarization(1.0, 0.0, 0.5, 0.5)


class TestAlignedEnergy:
    def test_worked_example(self):
        spec = SpinBathSpec(N=2, g=4.0, omega0=4.0, omega=2.0)
        res = aligned_eigen_energy(spec)
        assert res.energy == 0.0
        assert not res.generalized

    def test_decoupled(self):
        spec = SpinBathSpec(N=1, g=0.0, omega0=1.3, omega=0.7)
        assert aligned_eigen_energy(spec).energy == pytest.approx(-1.0)

    def test_fig2_value(self):
        spec = fig2_spec(50)
        expected = 100.0 - 0.5 * (196.0 + float(np.sum(spec.omega)))
        assert aligned_eigen_energy(spec).energy == pytest.approx(expected)

    def test_nonuniform_flagged_and_eigencheck(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 6)
        res = aligned_eigen_energy(spec)
        assert res.generalized
        h = build_full_hamiltonian(spec)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(spec.N)] = 1.0
        assert np.max(np.abs(h @ v - res.energy * v)) < 1e-10

    def test_uniform_eigencheck_brute_force(self):
        spec = SpinBathSpec(N=8, g=1.7, omega0=0.4,
                            omega=np.linspace(-1.0, 2.0, 8))
        res = aligned_eigen_energy(spec)
        h = build_full_hamiltonian(spec)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(spec.N)] = 1.0
        assert np.max(np.abs(h @ v - res.energy * v)) < 1e-10


class TestSectorHamiltonian:
    def test_worked_2x2(self):
        spec = SpinBathSpec(N=1, g=4.0, omega0=0.0, omega=0.0)
        assert np.array_equal(build_sector_hamiltonian(spec),
                              np.array([[-2.0, 4.0], [4.0, -2.0]]))

    def test_decoupled_is_diagonal(self):
        spec = SpinBathSpec(N=4, g=0.0, omega0=1.0, omega=[0.5, 1.5, -0.3, 2.0])
        h = build_sector_hamiltonian(spec)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_arrowhead_sparsity(self):
        rng = np.random.default_rng(14)
        spec = random_spec(rng, 9)
        h = build_sector_hamiltonian(spec)
        assert np.count_nonzero(h) == 3 * spec.N + 1
        assert np.array_equal(h, h.T)

    def test_equals_brute_force_restriction(self):
        # the shifted arrowhead must be the exact sector block of the full H
        rng = np.random.default_rng(21)
        spec = random_spec(rng, 7)
        h_full = build_full_hamiltonian(spec).toarray()
        idx = sector_indices(spec.N)
        assert np.max(np.abs(h_full[np.ix_(idx, idx)].real
                             - build_sector_hamiltonian(spec))) < 1e-12


class TestEvolveSector:
    def test_decoupled_magnitudes_constant(self):
        spec = SpinBathSpec(N=3, g=0.0, omega0=0.9, omega=[0.4, 1.1, -0.2])
        traj = evolve_sector(spec, grid=TimeGrid(0.0, 5.0, 200))
        assert np.max(np.abs(np.abs(traj.amplitudes) - np.abs(traj.amplitudes[0]))) < 1e-12

    def test_resonant_pair_rabi_oscillation(self):
        # N=1, g=4, omega0=omega1=0: H = -2 I + 4 sigma_x, P0(t) = cos(4t)^2
        spec = SpinBathSpec(N=1, g=4.0, omega0=0.0, omega=0.0)
        grid = TimeGrid(0.0, 2.0, 400)
        traj = evolve_sector(spec, grid=grid)
        assert np.max(np.abs(traj.p0 - np.cos(4.0 * grid.times) ** 2)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 12)
        v = rng.normal(size=13) + 1j * rng.normal(size=13)
        v /= np.linalg.norm(v)
        traj = evolve_sector(spec, v, TimeGrid(0.0, 8.0, 500))
        norms = (np.abs(traj.amplitudes) ** 2).sum(axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_global_shift_leaves_populations_invariant(self):
        rng = np.random.default_rng(33)
        spec = random_spec(rng, 6)
        h = build_sector_hamiltonian(spec)
        v0 = excitation_on_system(6)
        ts = np.linspace(0.0, 4.0, 50)

        def propagate(matrix):
            evals, evecs = np.linalg.eigh(matrix)
            coeff = evecs.conj().T @ v0
            return (np.exp(-1j * np.outer(ts, evals)) * coeff) @ evecs.T

        base = propagate(h)
        shifted = propagate(h + 17.3 * np.eye(7))
        assert np.max(np.abs(np.abs(base) - np.abs(shifted))) < 1e-12

    def test_initial_norm_enforced(self):
        spec = SpinBathSpec(N=2, g=1.0, omega0=0.0, omega=0.0)
        bad = np.array([1.0, 1.0, 0.0], complex)
        with pytest.raises(NormalizationError):
            evolve_sector(spec, bad, TimeGrid(0.0, 1.0, 10))


class TestArrowheadSolver:
    def test_small_against_dense(self):
        rng = np.random.default_rng(40)
        for n in (1, 2, 5, 17):
            spec = random_spec(rng, n)
            h = build_sector_hamiltonian(spec)
            ed, vd = sector_eigensystem(h, "dense")
            ea, va = sector_eigensystem(h, "arrowhead")
            assert np.max(np.abs(ed - ea)) < 1e-12 * max(1.0, np.max(np.abs(ed)))
            assert np.max(np.abs(va.T @ va - np.eye(n + 1))) < 1e-10
            assert np.max(np.abs(va @ np.diag(ea) @ va.T - h)) < 1e-10

    def test_deflation_zero_couplings(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(float)
        h[0, 1] = h[1, 0] = 0.7  # couple only the first bath state
        ea, va = arrowhead_eigensystem(h[0, 0], h[1:, 0], np.diag(h)[1:])
        ed, _ = np.linalg.eigh(h)
        assert np.max(np.abs(ea - ed)) < 1e-12
        assert np.max(np.abs(va @ np.diag(ea) @ va.T - h)) < 1e-12

    def test_duplicate_poles(self):
        # three bath states share a splitting: two exact eigenvalues sit there
        spec = SpinBathSpec(N=4, g=[1.0, 1.0, 1.0, 0.5], omega0=0.3,
                            omega=[1.0, 1.0, 1.0, -0.6])
        h = build_sector_hamiltonian(spec)
        ed, _ = sector_eigensystem(h, "dense")
        ea, va = sector_eigensystem(h, "arrowhead")
        assert np.max(np.abs(ed - ea)) < 1e-12
        assert np.max(np.abs(va.T @ va - np.eye(5))) < 1e-12
        assert np.max(np.abs(va @ np.diag(ea) @ va.T - h)) < 1e-12

    def test_near_degenerate_weak_coupling(self):
        # couplings weak enough that the root sits within one ulp of its pole
        spec = SpinBathSpec(N=3, g=[1e-12, 1.0, 0.5], omega0=0.2,
                            omega=[1.0, -0.4, 0.7])
        h = build_sector_hamiltonian(spec)
        ed, _ = sector_eigensystem(h, "dense")
        ea, va = sector_eigensystem(h, "arrowhead")
        assert np.all(np.isfinite(va))
        assert np.max(np.abs(ed - ea)) < 1e-10
        assert np.max(np.abs(va.T @ va - np.eye(4))) < 1e-8

    def test_cross_validation_at_n500(self):
        rng = np.random.default_rng(500)
        spec = random_spec(rng, 500)
        h = build_sector_hamiltonian(spec)
        ed, _ = sector_eigensystem(h, "dense")
        ea, va = sector_eigensystem(h, "arrowhead")
        scale = float(np.max(np.abs(ed)))
        assert np.max(np.abs(ed - ea)) < 1e-9 * scale
        assert np.max(np.abs(va.T @ va - np.eye(501))) < 1e-8
        # survival probability through both paths
        v0 = excitation_on_system(500)
        ts = np.linspace(0.0, 3.0, 40)
        c = va.T @ v0
        p_arrow = np.abs((np.exp(-1j * np.outer(ts, ea)) * c) @ va.T[:, 0]) ** 2
        evals, evecs = np.linalg.eigh(h)
        cd = evecs.T @ v0
        p_dense = np.abs((np.exp(-1j * np.outer(ts, evals)) * cd) @ evecs.T[:, 0]) ** 2
        assert np.max(np.abs(p_arrow - p_dense)) < 1e-8


class TestBruteForce:
    def test_rejects_large_bath(self):
        spec = SpinBathSpec(N=13, g=1.0, omega0=0.0, omega=1.0)
        with pytest.raises(ValueError, match="N <= 12"):
            build_full_hamiltonian(spec)

    def test_product_state_matches_bitwise_oracle(self):
        rng = np.random.default_rng(2)
        pairs = [random_pair(rng) for _ in range(4)]
        vec = product_state(pairs)
        explicit = np.array([
            np.prod([pairs[k][(n >> k) & 1] for k in range(4)])
            for n in range(16)
        ])
        assert np.max(np.abs(vec - explicit)) < 1e-15

    def test_full_hamiltonian_hermitian(self):
        rng = np.random.default_rng(77)
        spec = random_spec(rng, 5)
        h = build_full_hamiltonian(spec)
        assert (abs(h - h.conj().T)).max() == 0.0

    def test_sector_agreement_and_sz_conservation(self):
        rng = np.random.default_rng(1234)
        spec = random_spec(rng, 8)
        grid = TimeGrid(0.0, 5.0, 200)
        pairs = [(1.0, 0.0)] + [(0.0, 1.0)] * 8
        full = brute_force_evolve(spec, product_state(pairs), grid)
        sector = evolve_sector(spec, grid=grid)
        assert np.max(np.abs(full.sector_amplitudes() - sector.amplitudes)) < 1e-10
        sz = full.sz_total()
        assert np.max(np.abs(sz - sz[0])) < 1e-10

    def test_superposed_initial_state_two_branches(self):
        # alpha on the aligned branch, beta on the excitation branch
        rng = np.random.default_rng(9)
        spec = random_spec(rng, 6)
        alpha, beta = random_pair(rng)
        grid = TimeGrid(0.0, 4.0, 100)
        pairs = [(beta, alpha)] + [(0.0, 1.0)] * 6
        full = brute_force_evolve(spec, product_state(pairs), grid)
        sector = evolve_sector(spec, grid=grid)
        assert np.max(np.abs(full.sector_amplitudes()
                             - beta * sector.amplitudes)) < 1e-10
        energy = aligned_eigen_energy(spec).energy
        expected_aligned = alpha * np.exp(-1j * energy * grid.times)
        assert np.max(np.abs(full.aligned_amplitude() - expected_aligned)) < 1e-10

    def test_aligned_state_stationary(self):
        rng = np.random.default_rng(55)
        spec = random_spec(rng, 8)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(8)] = 1.0
        full = brute_force_evolve(spec, v, TimeGrid(0.0, 6.0, 120))
        fidelity = np.abs(full.states @ v.conj())
        assert np.max(np.abs(fidelity - 1.0)) < 1e-10

    def test_basis_covariance_under_polarization_rotation(self):
        # tilting every field axis by R and starting from a (c, d)-polarized
        # bath is the same experiment as the z-axis problem in rotated labels
        rng = np.random.default_rng(13)
        n = 5
        spec = random_spec(rng, n)
        a, b = random_pair(rng)
        c, d = random_pair(rng)
        r = np.array([[d, -c], [np.conj(c), np.conj(d)]])
        grid = TimeGrid(0.0, 3.0, 60)

        tilted = brute_force_evolve(
            spec, product_state([(a, b)] + [(c, d)] * n), grid, field_unitary=r
        )
        rot = rotate_to_polarization(a, b, c, d)
        straight = brute_force_evolve(
            spec,
            product_state([(rot.beta, rot.alpha)] + [(0.0, 1.0)] * n),
            grid,
        )

        def rotate_register(states):
            out = states.reshape(states.shape[0], *([2] * (n + 1)))
            for axis in range(1, n + 2):
                out = np.moveaxis(np.tensordot(r, out, axes=(1, axis)), 0, axis)
            return out.reshape(states.shape)

        assert np.max(np.abs(rotate_register(tilted.states) - straight.states)) < 1e-10


class TestReducedDensity:
    def test_pure_aligned_branch(self):
        spec = SpinBathSpec(N=3, g=1.0, omega0=0.5, omega=[0.1, 0.2, 0.3])
        rot = RotatedAmplitudes(1.0, 0.0)
        traj = evolve_sector(spec, grid=TimeGrid(0.0, 3.0, 30))
        for i in (0, 15, 30):
            rho = reduced_system_density(spec, rot, traj.times[i], traj.amplitudes[i])
            assert rho.rho11 == pytest.approx(1.0, abs=1e-12)
            assert abs(rho.coherence) == pytest.approx(0.0, abs=1e-12)

    def test_t0_reproduces_rotated_pure_state(self):
        rng = np.random.default_rng(64)
        alpha, beta = random_pair(rng)
        rot = RotatedAmplitudes(alpha, beta)
        spec = SpinBathSpec(N=4, g=0.8, omega0=0.3, omega=[0.5, 1.0, -0.7, 0.2])
        rho = reduced_system_density(spec, rot, 0.0, excitation_on_system(4))
        psi = np.array([beta, alpha])
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-12

    def test_matches_partial_trace_of_brute_force(self):
        rng = np.random.default_rng(4321)
        n = 8
        spec = random_spec(rng, n)
        alpha, beta = random_pair(rng)
        grid = TimeGrid(0.0, 4.0, 40)
        pairs = [(beta, alpha)] + [(0.0, 1.0)] * n
        full = brute_force_evolve(spec, product_state(pairs), grid)
        sector = evolve_sector(spec, grid=grid)
        rot = RotatedAmplitudes(alpha, beta)
        for i in (0, 13, 27, 40):
            state = full.states[i].reshape([2] * (n + 1))
            # partial trace over bath: system occupies bit 0 (last axis varies
            # fastest in our bit order, so reshape to (bath, system))
            psi_mat = full.states[i].reshape(-1, 2)
            rho_full = psi_mat.T @ psi_mat.conj()
            rho = reduced_system_density(spec, rot, grid.times[i],
                                         sector.amplitudes[i])
            assert np.max(np.abs(rho.matrix - rho_full)) < 1e-10


    def test_stack_of_sector_states_gives_one_batch(self):
        spec = SpinBathSpec(N=4, g=0.8, omega0=0.3, omega=[0.5, 1.0, -0.7, 0.2])
        rot = RotatedAmplitudes(0.6, 0.8j)
        traj = evolve_sector(spec, grid=TimeGrid(0.0, 3.0, 30))
        batch = reduced_system_density(spec, rot, traj.times, traj.amplitudes)
        assert batch.matrix.shape == (31, 2, 2)
        for i in (0, 7, 30):
            one = reduced_system_density(spec, rot, traj.times[i], traj.amplitudes[i])
            assert np.max(np.abs(batch.matrix[i] - one.matrix)) <= 1e-15


class TestMeasurementConsistency:
    def test_pre_revival_window_completes_the_measurement(self):
        # beta = 1 and a large bath: between collapse and revival the reduced
        # state sits in the stationary branch, as the measurement-operator
        # picture demands
        spec = fig2_spec(100)
        grid = TimeGrid(0.0, 4.5, 15000)
        traj = evolve_sector(spec, grid=grid)
        rot = RotatedAmplitudes(0.0, 1.0)
        window = (grid.times > 0.5) & (grid.times < 3.5)
        rho11_min = 1.0
        for i in np.nonzero(window)[0][::150]:
            rho = reduced_system_density(spec, rot, grid.times[i],
                                         traj.amplitudes[i])
            rho11_min = min(rho11_min, rho.rho11)
        assert rho11_min > 0.9


class TestRevivalDetection:
    def test_synthetic_curve(self):
        ts = np.linspace(0.0, 10.0, 2001)
        p0 = 0.04 + 0.9 * np.exp(-((ts - 6.0) ** 2))  # dip then revive
        p0[0] = 1.0
        t_rev, value = first_revival(ts, p0)
        assert t_rev == pytest.approx(6.0, abs=0.01)
        assert value > 0.9

    def test_no_drop_returns_none(self):
        ts = np.linspace(0.0, 1.0, 100)
        assert first_revival(ts, np.full(100, 0.8)) is None

    def test_fig2_50_revives_later_than_it_drops(self):
        spec = fig2_spec(50)
        grid = TimeGrid(0.0, 3.0, 12000)
        traj = evolve_sector(spec, grid=grid)
        found = first_revival(grid.times, traj.p0)
        assert found is not None
        t_rev, value = found
        assert value > 0.5
        assert t_rev > 0.5
