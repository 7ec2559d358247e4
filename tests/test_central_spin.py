import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from decobath import central_spin, cli
from decobath.central_spin import (
    RotatedAmplitudes,
    SpinBathSpec,
    aligned_eigen_energy,
    aligned_index,
    arrowhead_eigensystem,
    brute_force_evolve,
    build_sector_hamiltonian,
    evolve_sector,
    fig2_spec,
    first_revival,
    hamiltonian_rows,
    product_state,
    reduced_system_density,
    rotate_to_polarization,
    sector_eigensystem,
    sector_indices,
    survival_amplitude,
)
from decobath.errors import NormalizationError, TraceDriftError, WorkBudgetError
from decobath.qstate import QubitAmplitudes
from decobath.trajectory import MAX_WORK, TimeGrid, check_work

EPS = float(np.finfo(float).eps)


def random_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return tuple(v / np.linalg.norm(v))


def rotate(a, b, c, d):
    return rotate_to_polarization(QubitAmplitudes(a, b), QubitAmplitudes(c, d))


def full_csr(spec, field_unitary=None):
    """The brute force's register Hamiltonian as a scipy CSR matrix, for the
    scipy references."""
    import scipy.sparse

    rows, cols, vals = hamiltonian_rows(spec, np.arange(spec.dim_full), field_unitary)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(spec.dim_full,) * 2)


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
        with pytest.raises(ValueError):
            SpinBathSpec(N=0, g=1.0, omega0=0.0, omega=1.0)
        with pytest.raises(ValueError):
            SpinBathSpec(N=2, g=np.inf, omega0=0.0, omega=1.0)

    @pytest.mark.parametrize("g, omega, name, size", [
        ([1.0, 2.0], 1.0, "g", 2), (1.0, np.ones(4), "omega", 4), (1.0, [], "omega", 0)])
    def test_mode_array_length_is_named(self, g, omega, name, size):
        with pytest.raises(ValueError, match=f"^{name} needs 1 or N = 3 values, got {size}$"):
            SpinBathSpec(N=3, g=g, omega0=0.0, omega=omega)

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
        rot = rotate(a, b, 0.0, 1.0)
        assert rot.alpha == pytest.approx(b)
        assert rot.beta == pytest.approx(a)

    def test_system_parallel_to_bath(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, d = random_pair(rng)
            rot = rotate(c, d, c, d)
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
            rot = rotate(a, b, c, d)
            assert rot.beta == pytest.approx(expect[0], abs=1e-12)
            assert rot.alpha == pytest.approx(expect[1], abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            rotate(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(NormalizationError):
            rotate(1.0, 0.0, 0.5, 0.5)


class TestAlignedEnergy:
    def test_worked_example(self):
        spec = SpinBathSpec(N=2, g=4.0, omega0=4.0, omega=2.0)
        assert aligned_eigen_energy(spec) == 0.0

    def test_decoupled(self):
        spec = SpinBathSpec(N=1, g=0.0, omega0=1.3, omega=0.7)
        assert aligned_eigen_energy(spec) == pytest.approx(-1.0)

    def test_fig2_value(self):
        spec = fig2_spec(50)
        expected = 100.0 - 0.5 * (196.0 + float(np.sum(spec.omega)))
        assert aligned_eigen_energy(spec) == pytest.approx(expected)

    def test_nonuniform_eigencheck(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 6)
        energy = aligned_eigen_energy(spec)
        h = full_csr(spec)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(spec.N)] = 1.0
        assert np.max(np.abs(h @ v - energy * v)) < 1e-10

    def test_uniform_eigencheck_brute_force(self):
        spec = SpinBathSpec(N=8, g=1.7, omega0=0.4,
                            omega=np.linspace(-1.0, 2.0, 8))
        energy = aligned_eigen_energy(spec)
        h = full_csr(spec)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(spec.N)] = 1.0
        assert np.max(np.abs(h @ v - energy * v)) < 1e-10


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
        h_full = full_csr(spec).toarray()
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

    def test_global_shift_leaves_populations_invariant(self):
        rng = np.random.default_rng(33)
        spec = random_spec(rng, 6)
        h = build_sector_hamiltonian(spec)
        v0 = np.eye(7)[0]
        ts = np.linspace(0.0, 4.0, 50)

        def propagate(matrix):
            evals, evecs = np.linalg.eigh(matrix)
            coeff = evecs.conj().T @ v0
            return (np.exp(-1j * np.outer(ts, evals)) * coeff) @ evecs.T

        base = propagate(h)
        shifted = propagate(h + 17.3 * np.eye(7))
        assert np.max(np.abs(np.abs(base) - np.abs(shifted))) < 1e-12

    def test_weak_couplings_against_brute_force(self):
        # roots of the 1e-6 and 1e-7 couplings sit 2.5e-14 and 2.5e-16 from
        # poles near 40, whose ulp is 7e-15: mu_j - d_k from the rounded
        # roots misses by 2e-10 and divides by 0, from the offsets it holds
        rng = np.random.default_rng(8)
        g = rng.uniform(0.5, 2.0, 8)
        g[2], g[5] = 1e-6, 1e-7
        spec = SpinBathSpec(N=8, g=g, omega0=41.0, omega=40.0 + rng.uniform(-2.0, 2.0, 8))
        grid = TimeGrid(0.0, 5.0, 200)
        full = brute_force_evolve(spec, product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 8), grid)
        sector = evolve_sector(spec, grid)
        assert np.max(np.abs(full.sector_amplitudes() - sector.amplitudes)) < 1e-12

    def test_uncoupled_spin_on_the_head_stays_exactly_empty(self):
        # g_1 = 0 puts a pole on the only root: its amplitude is 0, not 0/0
        spec = SpinBathSpec(N=2, g=[0.0, 0.0], omega0=0.7, omega=[0.7, -0.2])
        traj = evolve_sector(spec, TimeGrid(0.0, 2.0, 20))
        assert not np.any(traj.amplitudes[:, 1:])
        assert np.max(np.abs(traj.p0 - 1.0)) < 1e-15

    @pytest.mark.parametrize("steps", [20000, 400])
    def test_byte_estimate_bounds_the_peak(self, monkeypatch, steps):
        # fig2 N = 100: the (T, N+1) amplitudes lead at 20 001 points, the
        # phase tables and the (roots, N) coefficients at 401
        spec, grid = fig2_spec(100), TimeGrid(0.0, 5.0, steps)
        estimates = []

        def spy(work, nbytes, *args):
            estimates.append(nbytes)
            check_work(work, nbytes, *args)

        monkeypatch.setattr(central_spin, "check_work", spy)
        evolve_sector(spec, grid)  # first-call allocations are not the run's
        estimates.clear()
        tracemalloc.start()
        try:
            evolve_sector(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(estimates) == 1
        assert peak <= estimates[0], (peak, estimates[0])

    @pytest.mark.parametrize("spec, grid", [
        (fig2_spec(50), TimeGrid(0.0, 5.0, 20000)),
        (cli._oracle_bath(12, 42), TimeGrid(0.0, 5.0, 200)),
    ], ids=["fig2-50", "oracle-12-seed-42"])
    def test_survival_column_has_survival_amplitudes_bits(self, spec, grid):
        # one secular solve serves every column: its roots, kept in order
        # where w > 0, are the measure survival_amplitude sums
        c0 = evolve_sector(spec, grid).amplitudes[:, 0]
        phase = np.exp(-1j * aligned_eigen_energy(spec) * grid.times)
        assert np.array_equal(c0, survival_amplitude(spec, grid) * phase)


def dense_sector_evolution(spec, times):
    """Sector amplitudes of the excitation started on the system, from the
    full eigenvectors of the dense sector Hamiltonian."""
    evals, evecs = sector_eigensystem(build_sector_hamiltonian(spec))
    return (np.exp(-1j * np.outer(times, evals)) * evecs[0]) @ evecs.T


def aligned_arrowhead(spec):
    """(head, arm, poles) of the sector Hamiltonian in the aligned frame."""
    return spec.omega0 - float(np.sum(spec.g)), spec.g, spec.omega - spec.g


def dense_measure(head, arm, diag):
    """Eigenvalues and |v_j0|^2 of the arrowhead from the dense solver."""
    n = diag.size
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = head
    h[0, 1:] = h[1:, 0] = arm
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = diag
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs[0] ** 2


def mpmath_measure(head, arm, diag, dps=40):
    """Eigenvalues and |v_j0|^2 at ``dps`` digits, rounded to floats."""
    with mpmath.workdps(dps):
        n = len(diag)
        a = mpmath.zeros(n + 1, n + 1)
        a[0, 0] = mpmath.mpf(float(head))
        for i in range(n):
            a[0, i + 1] = a[i + 1, 0] = mpmath.mpf(float(arm[i]))
            a[i + 1, i + 1] = mpmath.mpf(float(diag[i]))
        evals, evecs = mpmath.eigsy(a)
        order = sorted(range(n + 1), key=lambda k: evals[k])
        return (np.array([float(evals[k]) for k in order]),
                np.array([float(evecs[0, k] ** 2) for k in order]))


def direct_sum(times, mu, w):
    """sum_j w_j exp(-i mu_j t) with one cos and one sin per (time, root) pair."""
    phase = np.multiply.outer(times, mu)
    return (np.cos(phase) * w).sum(axis=1) - 1j * (np.sin(phase) * w).sum(axis=1)


class TestArrowheadSolver:
    def test_small_against_dense(self):
        rng = np.random.default_rng(40)
        for n in (1, 2, 5, 17):
            spec = random_spec(rng, n)
            h = build_sector_hamiltonian(spec)
            ed, vd = sector_eigensystem(h)
            ea, wa = arrowhead_eigensystem(h[0, 0], h[1:, 0], np.diag(h)[1:])
            assert np.max(np.abs(ed - ea)) < 1e-12 * max(1.0, np.max(np.abs(ed)))
            assert np.max(np.abs(wa - vd[0] ** 2)) < 1e-12
            assert abs(np.sum(wa) - 1.0) < 1e-14

    def test_deflation_zero_couplings(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(float)
        h[0, 1] = h[1, 0] = 0.7  # couple only the first bath state
        ea, wa = arrowhead_eigensystem(h[0, 0], h[1:, 0], np.diag(h)[1:])
        ed, vd = np.linalg.eigh(h)
        assert np.max(np.abs(ea - ed)) < 1e-12
        assert np.max(np.abs(wa - vd[0] ** 2)) < 1e-12
        # the uncoupled poles are eigenvalues of weight exactly 0
        assert np.array_equal(wa[np.isin(ea, [2.0, 3.0])], [0.0, 0.0])

    def test_duplicate_poles(self):
        # three bath states share a splitting: two exact eigenvalues sit there
        spec = SpinBathSpec(N=4, g=[1.0, 1.0, 1.0, 0.5], omega0=0.3,
                            omega=[1.0, 1.0, 1.0, -0.6])
        h = build_sector_hamiltonian(spec)
        ed, vd = sector_eigensystem(h)
        ea, wa = arrowhead_eigensystem(h[0, 0], h[1:, 0], np.diag(h)[1:])
        assert np.max(np.abs(ed - ea)) < 1e-12
        assert np.max(np.abs(wa - vd[0] ** 2)) < 1e-12
        assert np.count_nonzero(wa[ea == h[1, 1]] == 0.0) == 2
        assert abs(np.sum(wa) - 1.0) < 1e-14

    def test_near_degenerate_weak_coupling(self):
        # couplings weak enough that the root sits within one ulp of its pole
        spec = SpinBathSpec(N=3, g=[1e-12, 1.0, 0.5], omega0=0.2,
                            omega=[1.0, -0.4, 0.7])
        h = build_sector_hamiltonian(spec)
        ed, vd = sector_eigensystem(h)
        ea, wa = arrowhead_eigensystem(h[0, 0], h[1:, 0], np.diag(h)[1:])
        assert np.all(np.isfinite(wa)) and np.all(wa > 0.0)
        assert np.max(np.abs(ed - ea)) < 1e-12
        assert np.max(np.abs(wa - vd[0] ** 2)) < 1e-12

    def test_cross_validation_at_n500(self):
        rng = np.random.default_rng(500)
        spec = random_spec(rng, 500)
        h = build_sector_hamiltonian(spec)
        ed, vd = sector_eigensystem(h)
        ea, wa = arrowhead_eigensystem(h[0, 0], h[1:, 0], np.diag(h)[1:])
        scale = float(np.max(np.abs(ed)))
        assert np.max(np.abs(ed - ea)) < 1e-12 * scale
        assert np.max(np.abs(wa - vd[0] ** 2)) < 1e-12
        # survival probability through both paths
        ts = np.linspace(0.0, 3.0, 40)
        p_arrow = np.abs(np.exp(-1j * np.outer(ts, ea)) @ wa) ** 2
        p_dense = np.abs(np.exp(-1j * np.outer(ts, ed)) @ vd[0] ** 2) ** 2
        assert np.max(np.abs(p_arrow - p_dense)) < 1e-12

    @pytest.mark.parametrize("case", ["random", "zero-coupling", "equal-poles",
                                      "three-pole-cluster", "weak-1e-12", "fig2-16"])
    def test_roots_and_weights_against_mpmath(self, case):
        rng = np.random.default_rng(7)
        head, arm, diag = {
            "random": lambda: (0.3, rng.uniform(0.5, 2.0, 8), rng.uniform(-2.0, 2.0, 8)),
            "zero-coupling": lambda: (0.2, np.array([0.7, 0.0, 0.4, 0.0]),
                                      np.array([1.0, 2.0, 3.0, -1.0])),
            "equal-poles": lambda: (0.3, np.array([1.0, 1.0, 1.0, 0.5]),
                                    np.array([0.0, 0.0, 0.0, -1.1])),
            "three-pole-cluster": lambda: (0.3, np.array([0.3, 0.6, 0.2, 0.5, 0.4]),
                                           np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, -1.1, 2.0])),
            "weak-1e-12": lambda: aligned_arrowhead(SpinBathSpec(
                N=3, g=[1e-12, 1.0, 0.5], omega0=0.2, omega=[1.0, -0.4, 0.7])),
            "fig2-16": lambda: aligned_arrowhead(fig2_spec(16)),
        }[case]()
        ea, wa = arrowhead_eigensystem(head, arm, diag)
        er, wr = mpmath_measure(head, arm, diag)
        assert np.max(np.abs(ea - er) / np.maximum(1.0, np.abs(er))) < 1e-14
        assert np.max(np.abs(wa - wr)) < 1e-14
        if case in ("zero-coupling", "equal-poles"):
            assert np.count_nonzero(wa == 0.0) == 2

    def test_trace_shift_is_minus_aligned_energy(self):
        rng = np.random.default_rng(41)
        spec = random_spec(rng, 9)
        head, arm, diag = aligned_arrowhead(spec)
        h = build_sector_hamiltonian(spec)
        energy = aligned_eigen_energy(spec)
        assert np.array_equal(h[1:, 0], arm)
        shift = np.diag(h) - np.concatenate(([head], diag))
        assert np.max(np.abs(shift - energy)) < 1e-14 * max(1.0, abs(energy))


def two_level_bath(kind, n):
    """(head, arm, diag) of a weak-coupling arrowhead whose leaves have far poles."""
    rng = np.random.default_rng([n, len(kind)])
    arm = rng.uniform(0.01, 0.04, n)
    diag = rng.uniform(0.5, 1.5, n)
    if kind == "clustered":  # half the poles within 1e-6
        diag[: n // 2] = 1.0 + rng.uniform(0.0, 1e-6, n // 2)
    elif kind == "log-normal":
        diag = rng.lognormal(0.0, 1.0, n)
    elif kind == "two-bands":  # two unit bands, 10 apart
        diag[n // 2:] += 11.0
        return 6.5, arm, diag
    elif kind == "deflation":  # 1e-13 couplings and repeated poles mixed in
        arm[::7] = 1e-13
        diag[1::5] = diag[0::5][: diag[1::5].size]
    elif kind == "offset":  # the band 10^6 from 0: far sums need the leaf's frame
        return 1e6 + 1.0, arm, diag + 1e6
    return 1.0, arm, diag


def has_far_poles(head, arm, diag) -> bool:
    poles, zsq, _ = central_spin._deflate(head, arm, diag)
    leaves = central_spin._secular_leaves(head, poles, zsq)[1]
    return bool(np.any(leaves[:, 3] - leaves[:, 2] < poles.size))


class TestTwoLevelSolve:
    """Near poles summed directly and far poles from per-leaf Chebyshev
    tables, against every pole summed directly, mpmath and itself."""

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "log-normal", "two-bands",
                                      "deflation", "offset"])
    @pytest.mark.parametrize("n", [2000, 5000])
    def test_against_the_direct_block(self, n, kind):
        head, arm, diag = two_level_bath(kind, n)
        poles, zsq, _ = central_spin._deflate(head, arm, diag)
        ends, leaves = central_spin._secular_plan(head, poles, zsq, 0)[0]
        m = poles.size
        assert np.count_nonzero(leaves[:, 3] - leaves[:, 2] < m) > leaves.shape[0] // 2
        fast = central_spin._secular_roots(head, poles, zsq, (ends, leaves))
        # the same loop on one leaf, where every pole is near: the direct solve
        direct = central_spin._secular_roots(head, poles, zsq,
                                             (ends, np.array([[0, m + 1, 0, m]])))
        # every 13th root and each leaf's end roots, where the far poles
        # come nearest, against every pole summed directly
        pick = np.unique(np.concatenate((np.arange(0, m + 1, 13), leaves[:, 0],
                                         leaves[:, 1] - 1)))
        roots = direct[0][pick] + direct[1][pick]
        scale = np.maximum(1.0, np.abs(roots))
        assert np.max(np.abs((fast[0] + fast[1])[pick] - roots) / scale) < 1e-14
        assert np.max(np.abs(fast[2][pick] - direct[2][pick])) < 1e-14

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "deflation", "offset"])
    def test_only_the_outer_roots_sum_every_pole(self, kind):
        # on a band within the Weyl bound, the brackets of roots 0 and m
        # reach past every pole; each takes a leaf of its own, and every
        # other leaf has far poles
        head, arm, diag = two_level_bath(kind, 2000)
        poles, zsq, _ = central_spin._deflate(head, arm, diag)
        leaves = central_spin._secular_leaves(head, poles, zsq)[1]
        m = poles.size
        every = np.flatnonzero(leaves[:, 3] - leaves[:, 2] == m)
        assert leaves.shape[0] > 2
        assert every.tolist() == [0, leaves.shape[0] - 1]
        assert leaves[every, :2].tolist() == [[0, 1], [m, m + 1]]

    def test_far_field_against_mpmath(self, monkeypatch):
        # leaves of 4 roots on a 20-pole bath, so most leaves have far poles
        monkeypatch.setattr(central_spin, "_LEAF_MIN", 2)
        rng = np.random.default_rng(20)
        head, arm, diag = 0.3, rng.uniform(0.05, 0.2, 20), rng.uniform(-2.0, 2.0, 20)
        assert has_far_poles(head, arm, diag)
        ea, wa = arrowhead_eigensystem(head, arm, diag)
        er, wr = mpmath_measure(head, arm, diag)
        assert np.max(np.abs(ea - er) / np.maximum(1.0, np.abs(er))) < 1e-14
        assert np.max(np.abs(wa - wr)) < 1e-14

    @pytest.mark.parametrize("spec", [fig2_spec(50), fig2_spec(100),
                                      random_spec(np.random.default_rng(127), 127)],
                             ids=["fig2-50", "fig2-100", "random-127"])
    def test_one_leaf_is_the_direct_block_bit_for_bit(self, spec):
        head, arm, diag = aligned_arrowhead(spec)
        assert not has_far_poles(head, arm, diag)
        poles, zsq, deflated = central_spin._deflate(head, arm, diag)
        ends, _ = central_spin._secular_leaves(head, poles, zsq)
        m = poles.size
        origins, offsets, weights = central_spin._secular_roots(
            head, poles, zsq, (ends, np.array([[0, m + 1, 0, m]])))
        evals = np.concatenate((origins + offsets, deflated))
        order = np.argsort(evals, kind="stable")
        mu, w = arrowhead_eigensystem(head, arm, diag)
        assert np.array_equal(mu, evals[order])
        assert np.array_equal(w, np.concatenate((weights, np.zeros(deflated.size)))[order])

    def test_blocked_far_field_runs_are_bit_identical(self, monkeypatch):
        head, arm, diag = two_level_bath("log-normal", 1000)
        assert has_far_poles(head, arm, diag)
        whole = arrowhead_eigensystem(head, arm, diag)
        # blocks of a few roots, and far tables of one node per block
        monkeypatch.setattr(central_spin, "_BLOCK_ELEMENTS", 7 * 311)
        blocked = arrowhead_eigensystem(head, arm, diag)
        assert all(np.array_equal(a, b) for a, b in zip(blocked, whole))


class TestSurvivalAmplitude:
    @pytest.mark.parametrize("n", [500, 2000])
    def test_against_dense_eigh(self, n):
        rng = np.random.default_rng([n, 2])
        g = rng.uniform(0.01, 0.04, n)
        spec = SpinBathSpec(N=n, g=g, omega0=float(np.sum(g)) + 1.0,
                            omega=rng.uniform(0.5, 1.5, n))
        grid = TimeGrid(0.0, 40.0, 400)
        ed, wd = dense_measure(*aligned_arrowhead(spec))
        ea, wa = arrowhead_eigensystem(*aligned_arrowhead(spec))
        assert np.max(np.abs(wa - wd)) < 1e-12
        amp = survival_amplitude(spec, grid)
        ref = np.exp(-1j * np.outer(grid.times, ed)) @ wd
        assert np.max(np.abs(amp - ref)) < 1e-12

    def test_matches_dense_sector_evolution(self):
        # c_0(t) = exp(-iEt) a(t), and every c_k, against full eigenvectors
        rng = np.random.default_rng(17)
        spec = random_spec(rng, 12)
        grid = TimeGrid(0.0, 5.0, 200)
        dense = dense_sector_evolution(spec, grid.times)
        energy = aligned_eigen_energy(spec)
        amp = survival_amplitude(spec, grid)
        c0 = np.exp(-1j * energy * grid.times) * amp
        assert np.max(np.abs(c0 - dense[:, 0])) < 1e-12
        assert np.max(np.abs(evolve_sector(spec, grid).amplitudes - dense)) < 1e-12

    def test_blocked_runs_are_bit_identical(self, monkeypatch):
        spec = fig2_spec(50)
        grid = TimeGrid(0.0, 5.0, 2000)
        whole = survival_amplitude(spec, grid)
        measure = arrowhead_eigensystem(*aligned_arrowhead(spec))
        monkeypatch.setattr(central_spin, "_BLOCK_ELEMENTS", 7 * 51)
        assert np.array_equal(survival_amplitude(spec, grid), whole)
        blocked = arrowhead_eigensystem(*aligned_arrowhead(spec))
        assert all(np.array_equal(a, b) for a, b in zip(blocked, measure))

    def test_memory_stays_linear_in_the_bath(self):
        rng = np.random.default_rng(20000)
        n = 20000
        g = rng.uniform(0.01, 0.04, n)
        spec = SpinBathSpec(N=n, g=g, omega0=float(np.sum(g)) + 1.0,
                            omega=rng.uniform(0.5, 1.5, n))
        tracemalloc.start()
        try:
            survival_amplitude(spec, TimeGrid(0.0, 40.0, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (N+1)^2 eigenvector matrix alone would be 3.2 GB; the phase
        # tables take ~1 KB per spin at 401 points, the two-level solve
        # (every root's state, far tables in blocks of nodes) ~330 B
        assert peak < 1500 * n

    @pytest.mark.parametrize("bufsize", [8192, 16384])
    @pytest.mark.parametrize("n, steps", [(100, 20000), (100, 400), (300, 4), (2000, 4)])
    def test_byte_estimate_bounds_the_peak(self, monkeypatch, n, steps, bufsize):
        # fig2 N = 100 at 20 001 points is led by the phase tables, the
        # 300- and 2000-spin baths at 5 points by the secular solve, its
        # per-root state, near block and far tables (5 and 18 leaves); numpy's
        # reduction buffer grows with its size setting (8192 by default)
        spec = fig2_spec(n) if n == 100 else random_spec(np.random.default_rng(n), n)
        assert has_far_poles(*aligned_arrowhead(spec)) == (n > 100)
        grid = TimeGrid(0.0, 5.0, steps)
        estimates = []

        def spy(work, nbytes, *args):
            estimates.append(nbytes)
            check_work(work, nbytes, *args)

        monkeypatch.setattr(central_spin, "check_work", spy)
        old = np.setbufsize(bufsize)
        try:
            survival_amplitude(spec, grid)  # first-call allocations are not the run's
            tracemalloc.start()
            survival_amplitude(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(old)
        assert peak <= estimates[-1], (peak, estimates[-1])

    def test_sum_rule_abort_is_live(self, monkeypatch):
        spec = SpinBathSpec(N=3, g=0.5, omega0=0.2, omega=[1.0, -0.4, 0.7])
        monkeypatch.setattr(central_spin, "_NORM_TOL", -1.0)
        with pytest.raises(TraceDriftError, match="trace drift"):
            survival_amplitude(spec, TimeGrid(0.0, 1.0, 10))

    def test_unconverged_secular_roots_raise(self, monkeypatch):
        monkeypatch.setattr(central_spin, "_SECULAR_MAX_ITER", 1)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            survival_amplitude(fig2_spec(50), TimeGrid(0.0, 1.0, 10))

    def test_work_estimate_and_cap(self):
        # 4 roots meet 3 poles in the solve, every one near, and 10 times
        # in the sum at 1/12 pair each
        assert central_spin._SUM_PAIRS_PER_PAIR == 12
        work = central_spin._secular_plan(0.2, np.array([1.0, 2.0, 3.0]), np.ones(3), 10)[1]
        assert work == 4 * 3 + 4
        work = central_spin._secular_plan(0.2, np.array([1.0, 2.0, 3.0]), np.ones(3), 12)[1]
        assert work == 4 * 3 + 4
        spec = SpinBathSpec(N=4, g=0.5, omega0=0.2, omega=[1.0, 2.0, 3.0, 4.0])
        points = MAX_WORK // 5 * 12
        with pytest.raises(WorkBudgetError) as info:
            survival_amplitude(spec, TimeGrid(0.0, 1.0, points))
        assert info.value.size == 4 and info.value.points == points + 1
        # head omega0 - sum g, poles omega - g, squared couplings g^2
        poles, zsq = np.array([0.5, 1.5, 2.5, 3.5]), np.full(4, 0.25)
        assert info.value.work == central_spin._secular_plan(-1.8, poles, zsq, points + 1)[1]
        assert info.value.work > MAX_WORK
        # times, amplitudes, per-spin arrays and small-array objects; the
        # secular block of 5 roots (two 5 x 4 arrays, 40 floats a root);
        # the two phase tables (ceil(T/B) + B rows of 5 roots), one B-row
        # product and the float phase of the larger table, B = isqrt(T);
        # numpy's reduction buffer, 8192 complex elements at most
        block = math.isqrt(points + 1)
        heads = -(-(points + 1) // block)
        assert info.value.nbytes == (24 * (points + 1) + 64 * 4 + (1 << 14)
                                     + 8 * 5 * (2 * 4 + 40)
                                     + (16 * (heads + 2 * block) + 8 * heads) * 5
                                     + 16 * min(np.getbufsize(), block * 5))

    @pytest.mark.parametrize("t0, t1, steps", [
        (-7.0, 3.0, 10006),   # through t = 0; 10007 points, a prime
        (-4.0, -1.0, 143),    # every time negative; 144 points, a square
        (5.0, 30.0, 1008),    # t0 > 0; 1009 points, a prime
        (0.0, 40.0, 2400),    # 2401 points, a square
        (2.0, 3.0, 1),        # two points
        (0.0, 1e-3, 1),
        (-1.0, 2.0, 7),       # 8 points: a last block of 2 after two of 3
    ])
    def test_tables_against_a_direct_sum(self, t0, t1, steps):
        spec = fig2_spec(50)
        grid = TimeGrid(t0, t1, steps)
        mu, w = arrowhead_eigensystem(*aligned_arrowhead(spec))
        direct = direct_sum(grid.times, mu, w)
        amp = survival_amplitude(spec, grid)
        assert amp.shape == grid.times.shape
        # the grid resolves its times to ~eps max(|t0|, |t1|), so each phase
        # mu t rounds on that scale
        scale = 8.0 * EPS * np.sum(w * (1.0 + np.abs(mu) * max(abs(t0), abs(t1))))
        assert np.max(np.abs(amp - direct)) <= scale

    def test_late_times_against_mpmath(self):
        spec = fig2_spec(100)
        grid = TimeGrid(-3.0, 1e3, 20000)
        amp = survival_amplitude(spec, grid)
        mu, w = arrowhead_eigensystem(*aligned_arrowhead(spec))
        late = slice(10000, None, 400)  # t from 498.5 to 1000
        times = grid.times[late]
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.fsum(
                mpmath.mpf(float(wj)) * mpmath.expj(-mpmath.mpf(float(mj)) * mpmath.mpf(float(t)))
                for mj, wj in zip(mu, w))) for t in times])
        direct = direct_sum(times, mu, w)
        # the rounding of each phase mu_j t sets the scale of both paths' error
        scale = 8.0 * EPS * np.sum(w * np.abs(mu)) * np.abs(times)
        assert np.all(np.abs(amp[late] - ref) <= scale)
        assert np.all(np.abs(direct - ref) <= scale)


class TestBruteForce:
    def test_rejects_large_bath(self):
        spec = SpinBathSpec(N=13, g=1.0, omega0=0.0, omega=1.0)
        with pytest.raises(ValueError, match="N <= 12"):
            hamiltonian_rows(spec, [0])

    def test_product_state_matches_bitwise_oracle(self):
        rng = np.random.default_rng(2)
        pairs = [random_pair(rng) for _ in range(4)]
        vec = product_state(pairs)
        explicit = np.array([
            np.prod([pairs[k][(n >> k) & 1] for k in range(4)])
            for n in range(16)
        ])
        assert np.max(np.abs(vec - explicit)) < 1e-15

    @pytest.mark.parametrize("tilted", [False, True])
    def test_full_hamiltonian_triplets_are_row_sorted_with_every_diagonal(self, tilted):
        rng = np.random.default_rng(78)
        spec = random_spec(rng, 5)
        c, d = random_pair(rng)
        r = np.array([[d, -c], [np.conj(c), np.conj(d)]]) if tilted else None
        rows, cols, vals = hamiltonian_rows(spec, np.arange(spec.dim_full), r)
        assert np.all(np.diff(rows) >= 0)
        assert np.unique(rows * spec.dim_full + cols).size == rows.size
        assert np.array_equal(rows[rows == cols], np.arange(spec.dim_full))
        # the diagonal, the flip-flops (bits 0 and k differ: N/2 a state on
        # average) and, with a tilted field, N+1 single-spin flips a state
        flips = spec.dim_full * (spec.N + 1) if tilted else 0
        assert rows.size == spec.dim_full * (1 + spec.N / 2) + flips

    def test_full_hamiltonian_hermitian(self):
        rng = np.random.default_rng(77)
        spec = random_spec(rng, 5)
        h = full_csr(spec)
        assert (abs(h - h.conj().T)).max() == 0.0

    def test_sector_agreement_and_sz_conservation(self):
        rng = np.random.default_rng(1234)
        spec = random_spec(rng, 8)
        grid = TimeGrid(0.0, 5.0, 200)
        pairs = [(1.0, 0.0)] + [(0.0, 1.0)] * 8
        full = brute_force_evolve(spec, product_state(pairs), grid)
        dense = dense_sector_evolution(spec, grid.times)
        assert np.max(np.abs(full.sector_amplitudes() - dense)) < 1e-10
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
        dense = dense_sector_evolution(spec, grid.times)
        assert np.max(np.abs(full.sector_amplitudes() - beta * dense)) < 1e-10
        energy = aligned_eigen_energy(spec)
        expected_aligned = alpha * np.exp(-1j * energy * grid.times)
        assert np.max(np.abs(full.aligned_amplitude() - expected_aligned)) < 1e-10

    def test_aligned_state_stationary(self):
        rng = np.random.default_rng(55)
        spec = random_spec(rng, 8)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(8)] = 1.0
        full = brute_force_evolve(spec, v, TimeGrid(0.0, 6.0, 120))
        fidelity = np.abs(full.register_states() @ v.conj())
        assert np.max(np.abs(fidelity - 1.0)) < 1e-10

    def test_norm_drift_abort_names_its_threshold(self, monkeypatch):
        spec = random_spec(np.random.default_rng(56), 3)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(3)] = 1.0
        grid = TimeGrid(0.0, 1.0, 10)
        # every state is linear in the Bessel weights: scaling them scales
        # the propagator's output by the same factor
        weights = central_spin._bessel_table
        monkeypatch.setattr(central_spin, "_bessel_table",
                            lambda *args: weights(*args) * (1.0 + 1e-8))
        with pytest.raises(TraceDriftError, match=r"threshold 1e-09$"):
            brute_force_evolve(spec, v, grid)
        monkeypatch.setattr(central_spin, "BRUTE_FORCE_NORM_ABORT", 2e-8)
        brute_force_evolve(spec, v, grid)
        monkeypatch.setattr(central_spin, "BRUTE_FORCE_NORM_ABORT", -1.0)
        monkeypatch.setattr(central_spin, "_bessel_table", weights)
        with pytest.raises(TraceDriftError, match=r"threshold -1$"):
            brute_force_evolve(spec, v, grid)

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
        rot = rotate(a, b, c, d)
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

        assert np.max(np.abs(rotate_register(tilted.register_states())
                             - straight.register_states())) < 1e-10

    @pytest.mark.parametrize("n, grid, tilted", [
        (5, TimeGrid(0.0, 4.0, 40), False),
        (4, TimeGrid(1.5, 6.0, 30), True),    # t0 > 0, complex H
        (3, TimeGrid(-2.0, 3.0, 25), False),  # negative times: J_k(-x)
        (6, TimeGrid(0.5, 3.0, 10), True),
    ])
    def test_matches_expm_multiply_and_dense_expm(self, n, grid, tilted):
        import scipy.linalg
        import scipy.sparse.linalg

        rng = np.random.default_rng(100 + n)
        spec = random_spec(rng, n)
        r = None
        if tilted:
            c, d = random_pair(rng)
            r = np.array([[d, -c], [np.conj(c), np.conj(d)]])
        v = rng.normal(size=spec.dim_full) + 1j * rng.normal(size=spec.dim_full)
        v /= np.linalg.norm(v)
        h = full_csr(spec, r)
        assert np.any(h.data.imag) == tilted
        states = brute_force_evolve(spec, v, grid, field_unitary=r).register_states()
        taylor = scipy.sparse.linalg.expm_multiply(
            -1j * h, v, start=grid.t0, stop=grid.t1, num=grid.steps + 1, endpoint=True)
        dense = h.toarray()
        exact = np.array([scipy.linalg.expm(-1j * t * dense) @ v for t in grid.times])
        assert np.max(np.abs(states - taylor)) < 1e-10
        assert np.max(np.abs(states - exact)) < 1e-10

    def test_long_horizon(self):
        import scipy.sparse.linalg

        spec = random_spec(np.random.default_rng(808), 8)
        grid = TimeGrid(0.0, 200.0, 200)
        full = brute_force_evolve(spec, product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 8), grid)
        dense = dense_sector_evolution(spec, grid.times)
        assert np.max(np.abs(full.sector_amplitudes() - dense)) < 1e-10
        # every tenth grid time, t = 0, 10, ..., 200
        states = full.register_states()
        taylor = scipy.sparse.linalg.expm_multiply(
            -1j * full_csr(spec), states[0],
            start=0.0, stop=200.0, num=21, endpoint=True)
        assert np.max(np.abs(states[::10] - taylor)) < 1e-10

    def test_work_over_the_cap_is_refused_before_any_weight(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("weights were computed for a refused run")

        monkeypatch.setattr(central_spin, "_bessel_table", no_work)
        spec = random_spec(np.random.default_rng(3), 2)
        v = product_state([(1.0, 0.0), (0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(WorkBudgetError,
                           match="Chebyshev terms on a block of 3 of 8 register states") as err:
            brute_force_evolve(spec, v, TimeGrid(0.0, 2e7, 1))
        assert err.value.work > 10 * MAX_WORK
        # a short horizon (a few terms) over 10^8 points: the work of a time
        # point that does not scale with K alone is over the cap, the K
        # terms (at most 3 x 3 nonzeros of the block) are not
        points = 10**8 + 1
        with pytest.raises(WorkBudgetError) as err:
            brute_force_evolve(spec, v, TimeGrid(0.0, 1e-4, points - 1))
        order, per_pair = err.value.size, central_spin._ELEMENTS_PER_PAIR
        with_terms = order * (9 * central_spin._ENTRY_WORK
                              + points * (3 + central_spin._BESSEL_WORK)
                              + central_spin._CHEBYSHEV_STEP_WORK)
        assert with_terms < MAX_WORK * per_pair < points * central_spin._POINT_WORK
        elements = err.value.work * per_pair
        assert points * central_spin._POINT_WORK <= elements
        assert elements < points * central_spin._POINT_WORK + with_terms + per_pair


class TestInvariantBlock:
    """The brute force runs on the closure S of its start under H's pattern."""

    @staticmethod
    def support(spec, v, field_unitary=None):
        return brute_force_evolve(spec, v, TimeGrid(0.0, 0.1, 1), field_unitary).support

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_excitation_on_system_reaches_the_sector(self, n):
        spec = random_spec(np.random.default_rng(n), n)
        v = product_state([(1.0, 0.0)] + [(0.0, 1.0)] * n)
        assert np.array_equal(self.support(spec, v), np.sort(sector_indices(n)))

    def test_aligned_state_is_its_own_block(self):
        spec = random_spec(np.random.default_rng(6), 6)
        v = np.zeros(spec.dim_full, complex)
        v[aligned_index(6)] = 1.0
        assert np.array_equal(self.support(spec, v), [aligned_index(6)])

    def test_tilted_field_and_random_start_reach_the_register(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 12)
        c, d = random_pair(rng)
        r = np.array([[d, -c], [np.conj(c), np.conj(d)]])
        # the excitation on the system, its field tilted: H mixes every sector
        v = product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 12)
        assert np.array_equal(self.support(spec, v, r), np.arange(spec.dim_full))
        v = rng.normal(size=spec.dim_full) + 1j * rng.normal(size=spec.dim_full)
        v /= np.linalg.norm(v)
        assert np.array_equal(self.support(spec, v), np.arange(spec.dim_full))

    def test_sector_start_scattered_matches_expm_multiply(self):
        import scipy.sparse.linalg

        spec = random_spec(np.random.default_rng(88), 8)
        grid = TimeGrid(0.0, 4.0, 40)
        v = product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 8)
        full = brute_force_evolve(spec, v, grid)
        states = full.register_states()
        taylor = scipy.sparse.linalg.expm_multiply(
            -1j * full_csr(spec), v,
            start=grid.t0, stop=grid.t1, num=grid.steps + 1, endpoint=True)
        assert np.max(np.abs(states - taylor)) < 1e-10
        # the whole-register propagator leaves the rest exactly 0 as well
        outside = np.setdiff1d(np.arange(spec.dim_full), full.support)
        assert not np.any(states[:, outside]) and not np.any(taylor[:, outside])

    def test_stored_zero_coupling_keeps_its_state_in_the_block(self):
        # g_2 = 0 is stored in H: its flipped bath spin joins S and stays 0
        spec = SpinBathSpec(N=3, g=[1.2, 0.0, 0.7], omega0=0.4, omega=[0.9, -0.3, 1.1])
        grid = TimeGrid(0.0, 3.0, 30)
        full = brute_force_evolve(spec, product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 3), grid)
        assert np.array_equal(full.support, np.sort(sector_indices(3)))
        dense = dense_sector_evolution(spec, grid.times)
        assert np.max(np.abs(full.sector_amplitudes() - dense)) < 1e-10
        assert not np.any(full.sector_amplitudes()[:, 2])

    def test_a_leak_out_of_the_sector_grows_the_block(self, monkeypatch):
        # a coupling from the sector to a two-excitation state: S takes that
        # state in, and the drift of total sigma_z shows the leak
        build = central_spin.hamiltonian_rows

        def leaky(spec, indices, field_unitary=None):
            rows, cols, vals = build(spec, indices, field_unitary)
            i, j = sector_indices(spec.N)[0], aligned_index(spec.N) ^ 0b11
            # the leak's entries in the rows asked for, and no others
            asked = np.isin([i, j], indices)
            rows = np.append(rows, np.array([i, j])[asked])
            cols = np.append(cols, np.array([j, i])[asked])
            vals = np.append(vals, np.full(np.count_nonzero(asked), 0.3))
            order = np.argsort(rows, kind="stable")  # the triplets stay row-sorted
            return rows[order], cols[order], vals[order]

        monkeypatch.setattr(central_spin, "hamiltonian_rows", leaky)
        spec = random_spec(np.random.default_rng(4), 3)
        full = brute_force_evolve(spec, product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 3),
                                  TimeGrid(0.0, 3.0, 30))
        assert full.support.size > 4 and aligned_index(3) ^ 0b11 in full.support
        sz = full.sz_total()
        assert np.max(np.abs(sz - sz[0])) > 1e-3

    def test_a_sector_start_builds_only_the_rows_of_its_block(self, monkeypatch):
        # the start's one row, then the N + 1 rows it reaches: never the
        # 8192 rows of the register
        build, asked = central_spin.hamiltonian_rows, []

        def spy(spec, indices, field_unitary=None):
            asked.append(len(indices))
            return build(spec, indices, field_unitary)

        monkeypatch.setattr(central_spin, "hamiltonian_rows", spy)
        spec = random_spec(np.random.default_rng(12), 12)
        v = product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 12)
        full = brute_force_evolve(spec, v, TimeGrid(0.0, 1.0, 10))
        assert full.support.size == 13
        assert asked and max(asked) <= 13

    def test_reads_outside_the_block_are_exact_zeros(self):
        spec = random_spec(np.random.default_rng(5), 5)
        full = brute_force_evolve(spec, product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 5),
                                  TimeGrid(0.0, 2.0, 20))
        assert not np.any(full.aligned_amplitude())
        states = full.register_states()
        assert np.array_equal(full.sector_amplitudes(), states[:, sector_indices(5)])
        sz = (1.0 - 2.0 * central_spin._spin_bits(np.arange(spec.dim_full), 6)).sum(axis=1)
        assert np.allclose(full.sz_total(), (np.abs(states) ** 2 * sz).sum(axis=1),
                           rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("start", ["sector", "random", "tilted"])
    def test_byte_estimate_bounds_the_peak(self, monkeypatch, start):
        # the N = 12 sector start is led by its per-point arrays (a Bessel
        # table of 65 orders), the random start by its 8192-amplitude states;
        # a tilted field at 2 points is led by the build of all 8192 rows
        # with complex entries, the least margin of the three
        rng = np.random.default_rng(1212)
        spec = random_spec(rng, 12)
        v = product_state([(1.0, 0.0)] + [(0.0, 1.0)] * 12)
        r, steps = None, 100
        if start == "random":
            v = rng.normal(size=spec.dim_full) + 1j * rng.normal(size=spec.dim_full)
            v /= np.linalg.norm(v)
        elif start == "tilted":
            c, d = random_pair(rng)
            r, steps = np.array([[d, -c], [np.conj(c), np.conj(d)]]), 1
        grid = TimeGrid(0.0, 2.0, steps)
        estimates = []

        def spy(work, nbytes, *args):
            estimates.append(nbytes)
            check_work(work, nbytes, *args)

        monkeypatch.setattr(central_spin, "check_work", spy)
        brute_force_evolve(spec, v, grid, r)  # first-call allocations are not the run's
        tracemalloc.start()
        try:
            full = brute_force_evolve(spec, v, grid, r)
            full.sz_total()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full.support.size == (spec.N + 1 if start == "sector" else spec.dim_full)
        assert peak <= estimates[-1], (peak, estimates[-1])


class TestBesselWeights:
    """The propagator's numpy Bessel weights against independent references."""

    @staticmethod
    def table(x):
        x = np.asarray(x, dtype=float)
        degrees = central_spin._chebyshev_degrees(x)
        return central_spin._bessel_table(x, degrees, int(degrees.max()) + 1)

    @pytest.mark.parametrize("x_max", [1e-20, 1e-3, 0.7, 10.0, 100.0, 300.0])
    def test_against_scipy_jv(self, x_max):
        from scipy.special import jv

        x = np.linspace(0.0, x_max, 61)
        weights = self.table(x)
        orders = np.arange(weights.shape[0])[:, None]
        assert np.max(np.abs(weights - jv(orders, x[None, :]))) < 1e-14

    @pytest.mark.parametrize("k, x", [(0, 1e4), (593, 9750.0), (9900, 1e4), (10200, 1e4),
                                      (106, 850.0), (1000, 1e3), (124, 3e3), (3100, 3e3)])
    def test_against_mpmath_to_1e4(self, k, x):
        # scipy's jv itself is off by up to 9e-14 here (at k = 593, x = 9750)
        weights = self.table([0.0, x])
        with mpmath.workdps(25):
            reference = float(mpmath.besselj(k, mpmath.mpf(x), maxprec=60000))
        assert abs(weights[k, 1] - reference) < 1e-14

    @pytest.mark.parametrize("x", [0.0, 1e-18, 1e-6, 0.5, 7.0, 180.0, 2500.0])
    def test_degree_drops_a_tail_below_1e_17(self, x):
        from scipy.special import jv

        degree = int(central_spin._chebyshev_degrees(x))
        assert (degree == 0) if x < 1e-17 else (degree > x)
        tail = 2.0 * np.sum(np.abs(jv(np.arange(degree + 1, degree + 400), x)))
        assert tail < 1e-17


class TestReducedDensity:
    def test_pure_aligned_branch(self):
        spec = SpinBathSpec(N=3, g=1.0, omega0=0.5, omega=[0.1, 0.2, 0.3])
        rot = RotatedAmplitudes(1.0, 0.0)
        amp = survival_amplitude(spec, TimeGrid(0.0, 3.0, 30))
        for i in (0, 15, 30):
            rho = reduced_system_density(rot, amp[i])
            assert rho.rho11 == pytest.approx(1.0, abs=1e-12)
            assert abs(rho.coherence) == pytest.approx(0.0, abs=1e-12)

    def test_t0_reproduces_rotated_pure_state(self):
        rng = np.random.default_rng(64)
        alpha, beta = random_pair(rng)
        rot = RotatedAmplitudes(alpha, beta)
        spec = SpinBathSpec(N=4, g=0.8, omega0=0.3, omega=[0.5, 1.0, -0.7, 0.2])
        rho = reduced_system_density(rot, survival_amplitude(spec, TimeGrid(0.0, 1.0, 1))[0])
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
        states = full.register_states()
        amp = survival_amplitude(spec, grid)
        rot = RotatedAmplitudes(alpha, beta)
        for i in (0, 13, 27, 40):
            # partial trace over bath: system occupies bit 0 (last axis varies
            # fastest in our bit order, so reshape to (bath, system))
            psi_mat = states[i].reshape(-1, 2)
            rho_full = psi_mat.T @ psi_mat.conj()
            rho = reduced_system_density(rot, amp[i])
            assert np.max(np.abs(rho.matrix - rho_full)) < 1e-10

    def test_stack_of_sector_states_gives_one_batch(self):
        spec = SpinBathSpec(N=4, g=0.8, omega0=0.3, omega=[0.5, 1.0, -0.7, 0.2])
        rot = RotatedAmplitudes(0.6, 0.8j)
        amp = survival_amplitude(spec, TimeGrid(0.0, 3.0, 30))
        batch = reduced_system_density(rot, amp)
        assert batch.matrix.shape == (31, 2, 2)
        for i in (0, 7, 30):
            one = reduced_system_density(rot, amp[i])
            assert np.max(np.abs(batch.matrix[i] - one.matrix)) <= 1e-15


class TestMeasurementConsistency:
    def test_pre_revival_window_completes_the_measurement(self):
        # beta = 1 and a large bath: between collapse and revival the reduced
        # state sits in the stationary branch, as the measurement-operator
        # picture demands
        spec = fig2_spec(100)
        grid = TimeGrid(0.0, 4.5, 15000)
        rho = reduced_system_density(RotatedAmplitudes(0.0, 1.0),
                                     survival_amplitude(spec, grid))
        window = (grid.times > 0.5) & (grid.times < 3.5)
        assert np.min(rho.rho11[window]) > 0.9


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
        p0 = np.abs(dense_sector_evolution(spec, grid.times)[:, 0]) ** 2
        found = first_revival(grid.times, p0)
        assert found is not None
        t_rev, value = found
        assert value > 0.5
        assert t_rev > 0.5
