"""Exact dynamics of one spin Heisenberg-coupled to a polarized spin bath.

The total z spin is conserved, so a product initial state with the bath fully
polarized confines the dynamics to a two-piece Hilbert space: the fully
aligned state (an exact eigenstate) plus the (N+1)-dimensional
single-excitation sector spanned by the states with exactly one spin flipped.
The sector Hamiltonian is a symmetric arrowhead matrix; its exact evolution
is what produces the collapse-and-revival curves of the survival probability
P0(t).

Everything in this module works in the frame aligned with the bath
polarization: :func:`rotate_to_polarization` maps arbitrary system amplitudes
and bath polarization (c, d) into that frame, after which the bath starts in
the all-|1> product state.

The reduced system state needs only the survival amplitude
c_0(t) = sum_j |v_j0|^2 exp(-i E_j t), a sum over the spectral measure of
the excitation-on-system state.  :func:`survival_amplitude`, the production
path, takes that measure from the arrowhead's secular equation
(:func:`arrowhead_eigensystem`, in blocks of roots: O(N) memory, no
eigenvector formed) and sums it over the T-point time grid from two phase
tables of ~sqrt(T) rows, one complex multiply per (time, root) pair and no
cos or sin.  Full eigenvectors come only from the dense solver in
:func:`evolve_sector`, for general initial states and the oracle checks.
A full 2^(N+1) brute-force propagator (N <= 12) is the oracle that
validates the sector reduction: one Chebyshev expansion of exp(-iHt) over
the whole time grid, its Bessel weights from numpy.  Both pass their work
and bytes to the one work rule, ``trajectory.check_work``, before any
large allocation.

Only that oracle needs scipy, and only ``scipy.sparse`` for the
Hamiltonian, imported inside :func:`build_full_hamiltonian` and
:func:`brute_force_evolve`: the production paths then start with numpy
alone, which saves a short run most of its start-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NormalizationError, TraceDriftError
from .qstate import ATOL_INTEGRATED, DensityMatrix2, QubitAmplitudes, unit_pair
from .trajectory import TimeGrid, check_work, positive_count

__all__ = [
    "SpinBathSpec",
    "RotatedAmplitudes",
    "SectorTrajectory",
    "FullTrajectory",
    "fig2_spec",
    "rotate_to_polarization",
    "aligned_eigen_energy",
    "build_sector_hamiltonian",
    "sector_eigensystem",
    "arrowhead_eigensystem",
    "spectral_work",
    "survival_amplitude",
    "evolve_sector",
    "reduced_system_density",
    "build_full_hamiltonian",
    "product_state",
    "brute_force_evolve",
    "first_revival",
]

#: Largest bath for the 2^(N+1) brute-force oracle (dimension 8192).
BRUTE_FORCE_MAX_N = 12
#: Norm drift of the brute-force register above this aborts the run.
BRUTE_FORCE_NORM_ABORT = 1e-9

_NORM_TOL = 1e-10
#: Matrix elements per block of (roots x poles) in the secular iteration,
#: so its memory stays O(N).
_BLOCK_ELEMENTS = 1 << 17
#: Iterations a secular root may take before the solver gives up (about 5
#: on average, at most 10, on random baths of up to 10^4 spins).
_SECULAR_MAX_ITER = 64
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
#: The Chebyshev series of the brute-force propagator stops where the Bessel
#: bound on its dropped tail, 2 sum_{k>K} |J_k(x)|, falls below this.
_CHEBYSHEV_TAIL = 1e-17
#: Orders above a column's degree where Miller's backward recurrence starts;
#: its start error then reaches the kept orders damped below J_K(x) ~ 1e-17.
_MILLER_MARGIN = 8
#: Chebyshev vectors held at once, and time points per product with them,
#: so the propagator's scratch does not grow with the degree or the grid.
_CHEBYSHEV_CHUNK = 64
_CHEBYSHEV_TIMES = 32
#: Costs in the brute-force work estimate beyond its elements (~0.3 ns
#: each): one Bessel weight of Miller's recurrence (~10 ns) and the fixed
#: interpreter and call overhead of one Chebyshev step (~20 us).
_BESSEL_WORK = 32
_CHEBYSHEV_STEP_WORK = 65_536
#: Brute-force elements per secular (root, pole) pair of work (0.2-0.36 ns
#: against 35-45 ns).
_ELEMENTS_PER_PAIR = 128
#: Amplitude-sum (time, root) pairs per secular pair of work (~3 ns against
#: 30-50 ns).
_SUM_PAIRS_PER_PAIR = 12
#: Floats the secular iteration holds per root of its block beside its three
#: (roots x poles) arrays (about 30 index, bracket and step arrays), and the
#: bytes of the call's small-array objects (8 KB measured at N = 1): the
#: terms of :func:`survival_amplitude`'s byte estimate that are not tables.
_SECULAR_ROOT_FLOATS = 40
_CALL_BYTES = 1 << 14


@dataclass(frozen=True)
class SpinBathSpec:
    """Couplings and splittings of the spin bath, in the polarization frame.

    ``g`` and ``omega`` accept scalars (uniform over the bath) or length-N
    arrays; any other length, a bath size below 1 or a non-finite value is
    refused with ValueError.  The bath starts in the all-|1> state of that
    frame; a bath polarized along (c, d) enters only through
    :func:`rotate_to_polarization` of the system amplitudes.
    """

    N: int
    g: np.ndarray
    omega0: float
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "N", positive_count(self.N, "N"))
        g, omega = np.asarray(self.g, dtype=float), np.asarray(self.omega, dtype=float)
        for name, values in (("g", g), ("omega", omega)):
            if values.shape not in ((), (1,), (self.N,)):
                raise ValueError(f"{name} needs 1 or N = {self.N} values, got {values.size}")
        g = np.broadcast_to(g, (self.N,)).copy()
        omega = np.broadcast_to(omega, (self.N,)).copy()
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(omega))
                and np.isfinite(self.omega0)):
            raise ValueError("couplings and splittings must be finite")
        g.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega0", float(self.omega0))

    @property
    def dim_full(self) -> int:
        return 1 << (self.N + 1)

    @property
    def phase_frequency(self) -> float:
        """|omega0| + max |omega_k| + 2 sum |g_k|: it bounds every Gershgorin disc
        of the sector arrowhead and every detuning omega0 - omega_k."""
        with np.errstate(over="ignore"):
            return (abs(self.omega0) + float(np.max(np.abs(self.omega)))
                    + 2.0 * float(np.sum(np.abs(self.g))))


def fig2_spec(n: int) -> SpinBathSpec:
    """The bundled collapse-and-revival preset.

    Uniform coupling g = 4, system splitting omega0 = g (N - 1), and bath
    splittings omega_k = 2 (39 - 80 k / (N - 1)) for k = 1..N.  The formula
    gives omega_N < 0 for the largest k; negative splittings are accepted
    (they are detunings).  Shipped for N = 50 and N = 100.
    """
    if n < 2:
        raise ValueError("preset requires N >= 2")
    g = 4.0
    k = np.arange(1, n + 1, dtype=float)
    return SpinBathSpec(
        N=n,
        g=g,
        omega0=g * (n - 1),
        omega=2.0 * (39.0 - 80.0 * k / (n - 1)),
    )


@dataclass(frozen=True)
class RotatedAmplitudes:
    """System amplitudes in the bath-polarization frame.

    ``alpha`` multiplies |1>' (the branch parallel to the bath, stationary up
    to a phase) and ``beta`` multiplies |0>' (the single-excitation branch
    that decays into the bath).
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        alpha, beta = unit_pair(self.alpha, self.beta, ("alpha", "beta"))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def rotate_to_polarization(psi: QubitAmplitudes, pol: QubitAmplitudes) -> RotatedAmplitudes:
    """Rotate system amplitudes psi = (a, b) into the frame of bath polarization (c, d).

    In the rotated frame each bath spin reads |1>' and the system becomes
    alpha |1>' + beta |0>' with alpha = a c* + b d* and beta = a d - b c.
    Both pairs are normalized by construction and the map is unitary.
    """
    a, b, c, d = psi.a, psi.b, pol.a, pol.b
    alpha = a * np.conj(c) + b * np.conj(d)
    beta = a * d - b * c
    return RotatedAmplitudes(alpha, beta)


def aligned_eigen_energy(spec: SpinBathSpec) -> float:
    """Exact eigenenergy of the aligned state |1> x |1...1>.

    (sum_k g_k) / 2 - (omega0 + sum_k omega_k) / 2; for uniform coupling
    sum_k g_k is g N.
    """
    return 0.5 * float(np.sum(spec.g)) - 0.5 * (spec.omega0 + float(np.sum(spec.omega)))


def build_sector_hamiltonian(spec: SpinBathSpec) -> np.ndarray:
    """Single-excitation sector Hamiltonian: a real symmetric arrowhead matrix.

    Basis index 0 carries the excitation on the system, index k >= 1 on bath
    spin k.  Only the first row/column and the diagonal are nonzero.  The
    trace shift -(omega0 - sum g + sum omega)/2 * I makes the matrix equal the
    exact restriction of the full Hamiltonian to the sector (not merely equal
    up to a constant), so phases are directly comparable with the aligned
    branch.  The shift is exactly the aligned energy E, so the matrix is
    E I plus the aligned-frame arrowhead that :func:`survival_amplitude`
    solves.
    """
    n = spec.N
    g, omega = spec.g, spec.omega
    h = np.zeros((n + 1, n + 1))
    gsum = float(np.sum(g))
    h[0, 0] = spec.omega0 - gsum
    h[0, 1:] = g
    h[1:, 0] = g
    idx = np.arange(1, n + 1)
    h[idx, idx] = omega - g
    shift = 0.5 * (spec.omega0 - gsum + float(np.sum(omega)))
    h[np.arange(n + 1), np.arange(n + 1)] -= shift
    return h


def _deflate(head: float, arm: np.ndarray, diag: np.ndarray):
    """Split the arrowhead's poles into the secular problem and exact eigenvalues.

    A coupling below 1e-15 of the matrix scale leaves its pole an eigenvalue
    of weight 0.  Equal poles merge into one pole carrying their summed
    squared couplings; each of the others stays an eigenvalue at the pole,
    of weight 0.  Returns (sorted distinct poles, their squared couplings,
    the deflated eigenvalues).
    """
    scale = max(abs(head), float(np.max(np.abs(diag), initial=0.0)),
                float(np.max(np.abs(arm), initial=0.0)), 1e-300)
    active = np.abs(arm) > 1e-15 * scale
    d = diag[active]
    order = np.argsort(d, kind="stable")
    d = d[order]
    zsq = arm[active][order] ** 2
    first = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))[:d.size]
    deflated = np.concatenate((diag[~active], np.delete(d, first)))
    if d.size:
        zsq = np.add.reduceat(zsq, first)
    return d[first], zsq, deflated


def _secular_block(head, poles, zsq, j, low, high):
    """Roots j (an index array) of g(lam) = lam - head + sum_i zsq_i/(poles_i - lam).

    Root j lies between poles j-1 and j; the outer two lie in (low, poles[0])
    and (poles[-1], high).  Each root is tracked as tau = lam - poles[o] with
    its origin o at the nearer pole, which the sign of g at the interval
    midpoint picks, so the distances poles_i - lam keep full relative
    precision however close the root is to its pole.  The step is the
    "middle way" model of LAPACK dlaed4 (R.-C. Li): the origin pole's term
    kept exact, a pole at the interval's other end fitted to g and g', its
    zero in the bracket taken in cancellation-free form; a step that leaves
    the bracket is replaced by bisection.  A root stops when |g| is below
    its rounding bound.  Returns (roots, weights), the weights
    1/g'(lam) = |v_0|^2 taken at the last evaluation.
    """
    m = poles.size
    # root j lies in (ends[j], ends[j + 1]); it starts in its left pole's frame
    ends = np.concatenate(([low], poles, [high]))
    o = np.maximum(j - 1, 0)
    lo = ends[j] - poles[o]
    hi = ends[j + 1] - poles[o]
    tau = 0.5 * (lo + hi)
    roots = np.empty(j.size)
    weights = np.empty(j.size)
    act = np.arange(j.size)
    for it in range(_SECULAR_MAX_ITER):
        jj, po, t = j[act], poles[o[act]], tau[act]
        delta = np.subtract(poles, po[:, None])
        delta -= t[:, None]
        terms = zsq / delta
        g = (po - head) + t + terms.sum(axis=1)
        np.divide(terms, delta, out=delta)
        dg = 1.0 + delta.sum(axis=1)
        np.abs(terms, out=terms)
        bound = 8.0 * _EPS * (np.abs(po - head) + np.abs(t) + terms.sum(axis=1))
        above = g < 0.0  # g increases: the root lies above t
        lo[act] = np.where(above, t, lo[act])
        hi[act] = np.where(above, hi[act], t)
        # converged, or the bracket is down to a few ulps
        done = (np.abs(g) <= bound) | (
            hi[act] - lo[act] <= 4.0 * _EPS * np.maximum(np.abs(lo[act]), np.abs(hi[act])))
        roots[act[done]] = po[done] + t[done]
        weights[act[done]] = 1.0 / dg[done]
        keep = ~done
        act, jj, g, dg, t = act[keep], jj[keep], g[keep], dg[keep], t[keep]
        if act.size == 0:
            return roots, weights
        if it == 0:
            # interior roots above the midpoint move to the right pole's frame
            flip = above[keep] & (jj > 0) & (jj < m)
            shift = hi[act[flip]]
            t[flip] -= shift
            lo[act[flip]] -= shift
            hi[act[flip]] = 0.0
            o[act[flip]] = jj[flip]
        oa = o[act]
        s = zsq[oa]
        d_o = -t
        # the other end q of the root's interval: a pole, or beyond the
        # extreme poles the bound low or high standing in for the line
        q = np.where(oa == jj, jj - 1, jj)
        d_q = (ends[q + 1] - poles[oa]) - t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c = g - d_q * dg - (d_o - d_q) * (s / d_o / d_o)
            a = (d_o + d_q) * g - d_o * d_q * dg
            b = d_o * d_q * g
            root_disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
            t_new = t + np.where(a <= 0.0, (a - root_disc) / (2.0 * c),
                                 2.0 * b / (a + root_disc))
        lo_a, hi_a = lo[act], hi[act]
        inside = (t_new > lo_a) & (t_new < hi_a)
        tau[act] = np.where(inside, t_new, 0.5 * (lo_a + hi_a))
    raise np.linalg.LinAlgError(
        f"secular equation: {act.size} of {j.size} roots did not converge "
        f"in {_SECULAR_MAX_ITER} iterations")


def arrowhead_eigensystem(head: float, arm: np.ndarray, diag: np.ndarray):
    """Spectral measure of e_0 for the arrowhead [[head, arm^T], [arm, diag(diag)]].

    Returns all N+1 eigenvalues in ascending order and the weights
    |v_j0|^2 = 1/(1 + sum_i arm_i^2/(diag_i - lam_j)^2) of the first basis
    vector, without forming any eigenvector: O(N) memory, and O(N^2) work
    in blocks of roots.  Deflated eigenvalues (a negligible coupling, or
    the repeats of an equal pole) have weight exactly 0.
    """
    arm = np.asarray(arm, dtype=float)
    diag = np.asarray(diag, dtype=float)
    head = float(head)
    poles, zsq, deflated = _deflate(head, arm, diag)
    m = poles.size
    if m == 0:
        roots, weights = np.array([head]), np.ones(1)
    else:
        radius = 2.0 * math.sqrt(float(np.sum(zsq)))  # Weyl bound, doubled
        low = min(head, poles[0]) - radius
        high = max(head, poles[-1]) + radius
        roots, weights = np.empty(m + 1), np.empty(m + 1)
        rows = max(1, _BLOCK_ELEMENTS // m)
        for start in range(0, m + 1, rows):
            j = np.arange(start, min(start + rows, m + 1))
            roots[j], weights[j] = _secular_block(head, poles, zsq, j, low, high)
    evals = np.concatenate((roots, deflated))
    order = np.argsort(evals, kind="stable")
    return evals[order], np.concatenate((weights, np.zeros(deflated.size)))[order]


def sector_eigensystem(h: np.ndarray):
    """Dense eigendecomposition of the sector Hamiltonian (LAPACK symmetric solver)."""
    h = np.asarray(h, dtype=float)
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        sym_dev = float(np.max(np.abs(h - h.T)))
        raise np.linalg.LinAlgError(
            f"symmetric eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix "
            f"(max |H|={np.max(np.abs(h)):.3e}, symmetry deviation={sym_dev:.3e}): {exc}"
        ) from exc


def spectral_work(poles: int, points: int) -> int:
    """Estimated work of :func:`survival_amplitude`, in secular pairs.

    ``poles`` secular poles after deflation give poles + 1 roots.  Each
    root meets every pole in each of its secular iterations (30-50 ns per
    pair on one Xeon core) and every time point once in the amplitude sum,
    one complex multiply and add (``_SUM_PAIRS_PER_PAIR`` of them per
    secular pair).
    """
    roots = poles + 1
    return roots * poles + -(-roots * points // _SUM_PAIRS_PER_PAIR)


def _phase_table(times: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """exp(-i mu_j t) for each t in ``times`` (rows) and each mu_j (columns)."""
    phase = np.multiply.outer(times, -mu)
    table = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)
    return table


def survival_amplitude(spec: SpinBathSpec, grid: TimeGrid) -> np.ndarray:
    """Aligned-frame survival amplitude a(t) = sum_j w_j exp(-i mu_j t) on ``grid``.

    The sector Hamiltonian is E I plus the arrowhead with head
    omega0 - sum g, arm g and poles omega_k - g_k, where E is the aligned
    energy, so the excitation's amplitude is c_0(t) = exp(-iEt) a(t) with
    (mu_j, w_j) the arrowhead's spectral measure of e_0.  Solving in this
    frame keeps mu_j to full relative precision: no phase of size
    sum(omega)/2 is formed and cancelled.  Its :func:`spectral_work` and the
    bytes of its times, amplitudes, per-pole arrays and phase tables go
    through ``trajectory.check_work`` before any large allocation, each part
    counted as if all were held at once, so the estimate bounds the peak; a
    sum rule |sum_j w_j - 1| above 1e-10 raises TraceDriftError.

    The grid's T times go in blocks of B = isqrt(T): time t_{aB+b} is
    t_{aB} + b dt, so its terms are heads[a] * tails[b] with the tables
    heads[a] = w exp(-i mu t_{aB}) and tails[b] = exp(-i mu b dt), about
    sqrt(T) rows each.  Each time then costs one complex multiply per root
    and a row sum, no cos or sin; memory is O(sqrt(T) N).  The blocks
    depend on the grid alone and no BLAS product is used, so each time's
    sum is the same whatever the BLAS library or its thread count.
    """
    head = spec.omega0 - float(np.sum(spec.g))
    diag = spec.omega - spec.g
    poles = _deflate(head, spec.g, diag)[0].size
    roots, points = poles + 1, grid.steps + 1
    block = math.isqrt(points)
    heads = -(-points // block)
    rows = min(roots, max(1, _BLOCK_ELEMENTS // max(poles, 1)))
    # times, amplitudes and per-spin arrays; the secular block's three
    # (rows x poles) arrays and per-root floats; the heads and tails tables,
    # one tails-sized product and the float phase beside the larger table;
    # numpy's reduction buffer, up to getbufsize() complex elements
    nbytes = (24 * points + 64 * spec.N + _CALL_BYTES
              + 8 * rows * (3 * poles + _SECULAR_ROOT_FLOATS)
              + (16 * (heads + 2 * block) + 8 * max(heads, block)) * roots
              + 16 * min(np.getbufsize(), max(rows * poles, block * roots)))
    check_work(spectral_work(poles, points), nbytes, poles, points,
               "secular poles after deflation")
    mu, w = arrowhead_eigensystem(head, spec.g, diag)
    drift = abs(float(np.sum(w)) - 1.0)
    if not drift <= _NORM_TOL:
        raise TraceDriftError(drift, 0.0, _NORM_TOL)
    keep = w > 0.0
    mu, w = mu[keep], w[keep]
    heads = _phase_table(grid.times[::block], mu)
    heads *= w
    tails = _phase_table(np.arange(block) * grid.dt, mu)
    amp = np.empty(points, dtype=complex)
    part = np.empty_like(tails)
    for start, row in zip(range(0, points, block), heads):
        n = min(block, points - start)
        np.multiply(tails[:n], row, out=part[:n])
        # row sums, not a BLAS product: each time's sum then does not depend
        # on the BLAS kernel or its threads
        part[:n].sum(axis=1, out=amp[start:start + n])
    return amp


@dataclass
class SectorTrajectory:
    """Amplitudes over the N+1 single-excitation basis states, per time."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (len(times), N+1), complex

    @property
    def p0(self) -> np.ndarray:
        """Survival probability |amplitude_0(t)|^2 of the system excitation."""
        return np.abs(self.amplitudes[:, 0]) ** 2


def _unit_state(vector, length: int, what: str) -> np.ndarray:
    """``vector`` as a complex array, refused unless of ``length`` and unit norm."""
    vector = np.asarray(vector, dtype=complex)
    if vector.shape != (length,):
        raise ValueError(f"initial state must have length {length}")
    dev = abs(float(np.sum(np.abs(vector) ** 2)) - 1.0)
    if not dev <= _NORM_TOL:
        raise NormalizationError(f"initial {what} state must be normalized", dev)
    return vector


def excitation_on_system(n: int) -> np.ndarray:
    """Sector basis state e_0: the excitation sits on the system spin."""
    v = np.zeros(n + 1, dtype=complex)
    v[0] = 1.0
    return v


def evolve_sector(
    spec: SpinBathSpec,
    initial: Optional[np.ndarray] = None,
    grid: TimeGrid = None,
) -> SectorTrajectory:
    """Exact sector evolution psi(t) = sum_j exp(-i E_j t) <v_j|psi(0)> v_j.

    Full eigenvectors from the dense solver: the oracle path, for small
    baths and general initial states.  ``initial`` defaults to the
    excitation on the system (e_0).  Its norm, and that of every returned
    state, must be within 1e-10 of one (NaN is refused).
    """
    if grid is None:
        raise ValueError("a TimeGrid is required")
    initial = _unit_state(excitation_on_system(spec.N) if initial is None else initial,
                          spec.N + 1, "sector")

    evals, evecs = sector_eigensystem(build_sector_hamiltonian(spec))
    coeff = evecs.conj().T @ initial
    times = grid.times
    phases = np.exp(-1j * np.outer(times, evals))
    amps = (phases * coeff[None, :]) @ evecs.T
    norm_drift = float(np.max(np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0)))
    if not norm_drift <= _NORM_TOL:
        raise TraceDriftError(norm_drift, float(times[-1]), _NORM_TOL)
    return SectorTrajectory(times, amps)


def reduced_system_density(rot: RotatedAmplitudes, amplitude) -> DensityMatrix2:
    """System density matrix from the aligned-frame survival amplitude(s).

    The full state is alpha e^{-iEt}|aligned> + beta sum_k c_k(t)|k flipped>
    with c_0(t) = e^{-iEt} a(t); tracing out the bath leaves
    rho00 = |beta a|^2 and coherence rho01 = alpha* beta a (every other
    cross term dies by bath orthogonality), which is positive semidefinite
    by construction.  ``amplitude`` is a scalar or an array over times,
    which gives one batched state.
    """
    amplitude = np.asarray(amplitude, dtype=complex)
    p0 = abs(rot.beta) ** 2 * np.abs(amplitude) ** 2
    coh = np.conj(rot.alpha) * rot.beta * amplitude
    # trace is exact by construction; PSD slack absorbs evolution roundoff
    return DensityMatrix2.from_parts(p0, 1.0 - p0, coh, atol=ATOL_INTEGRATED)


def _spin_bits(n_spins: int) -> np.ndarray:
    idx = np.arange(1 << n_spins)
    return (idx[:, None] >> np.arange(n_spins)[None, :]) & 1


def build_full_hamiltonian(
    spec: SpinBathSpec, field_unitary: Optional[np.ndarray] = None
) -> "scipy.sparse.csr_matrix":
    """Sparse 2^(N+1) Hamiltonian of the system plus bath register.

    Spin k occupies bit k of the basis index (bit set = spin in |1>); the
    system is spin 0.  ``field_unitary`` optionally conjugates every
    single-spin field term sigma_z -> R^dag sigma_z R, tilting the energy
    axis while the Heisenberg couplings stay rotation invariant.  Restricted
    to N <= 12.
    """
    import scipy.sparse

    n = spec.N
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to N <= {BRUTE_FORCE_MAX_N}, got {n}")
    dim = spec.dim_full
    bits = _spin_bits(n + 1)
    sz = 1.0 - 2.0 * bits  # +1 for |0>, -1 for |1>
    idx = np.arange(dim)
    w_all = np.concatenate(([spec.omega0], spec.omega))

    if field_unitary is None:
        field = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    else:
        r = np.asarray(field_unitary, dtype=complex)
        if r.shape != (2, 2) or np.max(np.abs(r.conj().T @ r - np.eye(2))) > 1e-12:
            raise ValueError("field_unitary must be a 2x2 unitary")
        field = r.conj().T @ np.diag([1.0, -1.0]).astype(complex) @ r

    rows = [idx]
    cols = [idx]
    # diagonal: field diagonal part + Heisenberg sigma_z sigma_z
    f_diag = np.array([field[0, 0].real, field[1, 1].real])
    diag = 0.5 * (w_all[None, :] * f_diag[bits]).sum(axis=1)
    diag = diag + 0.5 * ((spec.g[None, :] * sz[:, [0]] * sz[:, 1:]).sum(axis=1))
    vals = [diag.astype(complex)]

    # field off-diagonal part (only when the axis is tilted)
    f01 = field[0, 1]
    if abs(f01) > 0.0:
        for k in range(n + 1):
            mask = bits[:, k] == 1
            src = idx[mask]            # spin k in |1>
            dst = src ^ (1 << k)       # spin k flipped to |0>
            amp = 0.5 * w_all[k]
            rows.append(dst); cols.append(src)
            vals.append(np.full(src.size, amp * f01, dtype=complex))
            rows.append(src); cols.append(dst)
            vals.append(np.full(src.size, amp * np.conj(f01), dtype=complex))

    # Heisenberg flip-flop: g_k (s0+ sk- + s0- sk+) connects opposite bits
    for k in range(1, n + 1):
        mask = bits[:, 0] != bits[:, k]
        src = idx[mask]
        dst = src ^ 1 ^ (1 << k)
        rows.append(src)
        cols.append(dst)
        vals.append(np.full(src.size, spec.g[k - 1], dtype=complex))

    h = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    return h


def product_state(amplitude_pairs) -> np.ndarray:
    """Full-register product state from per-spin (amp0, amp1) pairs.

    The first pair is the system spin (bit 0), followed by bath spins 1..N.
    """
    vec = np.array([1.0 + 0.0j])
    for pair in amplitude_pairs:  # bit k varies fastest for spin k
        p = np.asarray(pair, dtype=complex)
        if p.shape != (2,):
            raise ValueError("each spin needs exactly two amplitudes")
        vec = np.kron(p, vec)
    return vec


def aligned_index(n: int) -> int:
    """Basis index of the fully aligned register (every spin in |1>)."""
    return (1 << (n + 1)) - 1


def sector_indices(n: int) -> np.ndarray:
    """Full-register indices of the single-excitation basis, k = 0..N."""
    full = aligned_index(n)
    return np.array([full ^ (1 << k) for k in range(n + 1)])


@dataclass
class FullTrajectory:
    """Brute-force state-vector trajectory over the full register."""

    spec: SpinBathSpec
    times: np.ndarray
    states: np.ndarray  # shape (len(times), 2^(N+1)), complex

    def sz_total(self) -> np.ndarray:
        """Expectation of the conserved total sigma_z, per time point."""
        sz = (1.0 - 2.0 * _spin_bits(self.spec.N + 1)).sum(axis=1)
        return (np.abs(self.states) ** 2 * sz[None, :]).sum(axis=1)

    def sector_amplitudes(self) -> np.ndarray:
        """Amplitudes on the N+1 single-excitation basis states."""
        return self.states[:, sector_indices(self.spec.N)]

    def aligned_amplitude(self) -> np.ndarray:
        return self.states[:, aligned_index(self.spec.N)]


def _chebyshev_degrees(x) -> np.ndarray:
    """Chebyshev degree K for each x = r |t| >= 0, as whole floats.

    K is the least order at which a bound on the dropped Bessel tail
    2 sum_{k>K} |J_k(x)| falls below ``_CHEBYSHEV_TAIL``.  That tail is at
    most 2 (e^{x/2} - 1), so K = 0 where this is below it.  Otherwise
    K > x, where Kapteyn's inequality bounds |J_n(x)| by
    exp(n (tanh a - a)), cosh a = n/x, and each next bound is smaller by at
    least e^{-a}: the tail past n is then at most
    2 exp(n (tanh a - a)) / (e^a - 1), which falls with n, so doubling and
    then bisection find the least n it puts below the target.
    """
    x = np.asarray(x, dtype=float)
    log_tail = math.log(_CHEBYSHEV_TAIL / 2.0)

    def tail_small(n):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.arccosh(n / x)
            return n * (np.tanh(a) - a) - np.log(np.expm1(a)) <= log_tail

    # lo never qualifies (K > x); lo + gap does once the doubling stops
    lo, gap = np.floor(x), np.ones_like(x)
    for _ in range(64):
        short = ~tail_small(lo + gap)
        if not short.any():
            break
        gap[short] *= 2.0
    hi = lo + gap
    for _ in range(64):
        open_ = hi - lo > 1.0
        if not open_.any():
            break
        mid = np.floor(0.5 * (lo + hi))
        small = tail_small(mid)
        hi = np.where(open_ & small, mid, hi)
        lo = np.where(open_ & ~small, mid, lo)
    return np.where(x <= 2.0 * math.log1p(0.5 * _CHEBYSHEV_TAIL), 0.0, hi)


def _bessel_table(x: np.ndarray, degrees: np.ndarray, rows: int) -> np.ndarray:
    """J_k(x_j) for k < ``rows``, one column per x_j >= 0 of degree ``degrees[j]``.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}: column j
    starts from (J_s, J_{s+1}) = (1, 0) at s = degree + ``_MILLER_MARGIN``
    and runs down to k = 0, then is normalised by J_0 + 2 sum_k J_2k = 1.
    A column of degree 0 (x below about 1e-17) is (1, 0, 0, ...).  The
    other columns grow from their seed 1 by at most ~1e161 (at x ~ 1e-17,
    degree 1) before the normalisation, so nothing overflows.
    """
    starts = np.where(degrees > 0, degrees + _MILLER_MARGIN, 0.0).astype(np.intp)
    top = int(starts.max())
    table = np.zeros((max(top, rows) + 2, x.size))
    table[starts, np.arange(x.size)] = 1.0
    two_over_x = np.divide(2.0, x, out=np.zeros_like(x), where=degrees > 0)
    step = np.empty(x.size)
    # rows above a column's start hold 0, so adding the recurrence seeds
    # the column at its start row and continues it below
    for k in range(top, 0, -1):
        np.multiply(two_over_x, table[k], out=step)
        step *= k
        step -= table[k + 1]
        table[k - 1] += step
    table /= table[0] + 2.0 * table[2::2].sum(axis=0)
    return table[:rows]


def brute_force_evolve(
    spec: SpinBathSpec,
    initial: np.ndarray,
    grid: TimeGrid,
    field_unitary: Optional[np.ndarray] = None,
) -> FullTrajectory:
    """Propagate the full 2^(N+1) register exactly (N <= 12).

    One Chebyshev expansion (Tal-Ezer & Kosloff 1984) serves the whole
    grid.  With [lo, hi] the Gershgorin bounds of H's rows, c their centre
    and r their half-width, H^ = (H - c)/r has its spectrum in [-1, 1] and

        psi(t) = e^{-ict} sum_k (2 - delta_k0) J_k(rt) (-i)^k T_k(H^) psi(0),

    with the vectors U_k = (-i)^k T_k(H^) psi(0) from the three-term
    recurrence U_{k+1} = -2i H^ U_k + U_{k-1}.  The series stops at the
    degree K whose Bessel tail at r max|t| is below 1e-17; the weights
    J_k(rt) come from Miller's recurrence in numpy.  Chunks of U_k meet
    blocks of time points in fixed-size real products, so memory is the
    states plus a fixed scratch.

    The estimated work, K (nnz(H) + points 2^(N+1)) elements plus the
    Bessel weights and a fixed cost per term, and the bytes of the states
    (with the temporaries of :meth:`FullTrajectory.sz_total`) and the
    Bessel table go through ``trajectory.check_work`` before any weight or
    state is allocated.  A non-unit ``initial`` (NaN included) is refused;
    norm drift beyond BRUTE_FORCE_NORM_ABORT aborts.
    """
    import scipy.sparse

    initial = _unit_state(initial, spec.dim_full, "register")
    h = build_full_hamiltonian(spec, field_unitary)
    dim = spec.dim_full
    diag = h.diagonal().real
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    centre, half = 0.5 * (lo + hi), max(0.5 * (hi - lo), _TINY)
    # U_{k+1} = step U_k + U_{k-1}
    step = (h - centre * scipy.sparse.identity(dim, format="csr")) * (-2j / half)

    points = grid.steps + 1
    order = int(_chebyshev_degrees(half * max(abs(grid.t0), abs(grid.t1))))
    elements = order * (step.nnz + points * (dim + _BESSEL_WORK) + _CHEBYSHEV_STEP_WORK)
    check_work(-(-elements // _ELEMENTS_PER_PAIR),
               points * (32 * dim + 8 * (order + _MILLER_MARGIN + 2)), order, points,
               f"Chebyshev terms on a {dim}-state register")

    times = grid.times
    x = half * np.abs(times)
    degrees = _chebyshev_degrees(x)
    weights = _bessel_table(x, degrees, order + 1)
    weights[1:] *= 2.0
    weights[1::2, times < 0.0] *= -1.0  # J_k(-x) = (-1)^k J_k(x)

    states = np.zeros((times.size, dim), dtype=complex)
    vectors = np.empty((min(_CHEBYSHEV_CHUNK, order + 1), dim), dtype=complex)
    part = np.empty((min(_CHEBYSHEV_TIMES, times.size), 2 * dim))
    # complex rows viewed as real pairs: real weights times complex vectors
    # is one real matrix product
    states_re, vectors_re = states.view(float), vectors.view(float)
    for k0 in range(0, order + 1, _CHEBYSHEV_CHUNK):
        count = min(_CHEBYSHEV_CHUNK, order + 1 - k0)
        for j in range(count):
            # from the second chunk on, rows -1 and -2 still hold the last
            # two vectors of the previous (full) chunk
            if k0 + j == 0:
                vectors[0] = initial
            elif k0 + j == 1:
                np.multiply(step @ initial, 0.5, out=vectors[1])
            else:
                np.add(step @ vectors[j - 1], vectors[j - 2], out=vectors[j])
        for b0 in range(0, times.size, _CHEBYSHEV_TIMES):
            rows = slice(b0, b0 + _CHEBYSHEV_TIMES)
            n = min(_CHEBYSHEV_TIMES, times.size - b0)
            np.matmul(weights[k0:k0 + count, rows].T, vectors_re[:count], out=part[:n])
            states_re[rows] += part[:n]
    states *= np.exp(-1j * centre * times)[:, None]

    norms = np.sqrt(np.einsum("ij,ij->i", states_re, states_re))
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= BRUTE_FORCE_NORM_ABORT:
        raise TraceDriftError(drift, float(grid.t1), BRUTE_FORCE_NORM_ABORT)
    return FullTrajectory(spec, times, states)


def first_revival(
    times: np.ndarray,
    p0: np.ndarray,
    drop: float = 0.1,
    level: float = 0.5,
) -> Optional[tuple[float, float]]:
    """Locate the first revival of the survival probability.

    Returns (time, value) of the first local maximum of ``p0`` that follows
    the first drop below ``drop`` and exceeds ``level``; None when the curve
    never drops or never revives.  Use a grid of >= 1e4 points over the
    window of interest for a stable answer.
    """
    times = np.asarray(times, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    below = np.nonzero(p0 < drop)[0]
    if below.size == 0:
        return None
    start = below[0]
    d = np.diff(p0)
    peaks = np.nonzero((d[:-1] > 0) & (d[1:] <= 0))[0] + 1
    peaks = peaks[(peaks > start) & (p0[peaks] > level)]
    if peaks.size == 0:
        return None
    return float(times[peaks[0]]), float(p0[peaks[0]])
