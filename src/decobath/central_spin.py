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
the all-|1> product state.  A full 2^(N+1) brute-force propagator (N <= 12)
is included as the oracle that validates the sector reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import expm_multiply

from .errors import NormalizationError, TraceDriftError
from .qstate import ATOL_ANALYTIC, ATOL_INTEGRATED, DensityMatrix2
from .trajectory import TimeGrid

__all__ = [
    "SpinBathSpec",
    "RotatedAmplitudes",
    "AlignedEnergy",
    "SectorTrajectory",
    "FullTrajectory",
    "fig2_spec",
    "rotate_to_polarization",
    "aligned_eigen_energy",
    "build_sector_hamiltonian",
    "sector_eigensystem",
    "arrowhead_eigensystem",
    "evolve_sector",
    "reduced_system_density",
    "build_full_hamiltonian",
    "product_state",
    "brute_force_evolve",
    "first_revival",
]

#: Above this sector size the O(N^2) arrowhead secular-equation solver is
#: used instead of the dense symmetric eigensolver.
DENSE_EIGH_LIMIT = 2000
#: Largest bath for the 2^(N+1) brute-force oracle (dimension 8192).
BRUTE_FORCE_MAX_N = 12

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class SpinBathSpec:
    """Couplings, splittings and polarization of the spin bath.

    ``g`` and ``omega`` accept scalars (uniform over the bath) or length-N
    arrays.  ``polarization`` is the normalized amplitude pair (c, d) of each
    bath spin, defaulting to (0, 1): bath already aligned with the frame.
    """

    N: int
    g: np.ndarray
    omega0: float
    omega: np.ndarray
    polarization: tuple[complex, complex] = (0.0 + 0.0j, 1.0 + 0.0j)

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        g = np.broadcast_to(np.asarray(self.g, dtype=float), (self.N,)).copy()
        omega = np.broadcast_to(np.asarray(self.omega, dtype=float), (self.N,)).copy()
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(omega))
                and np.isfinite(self.omega0)):
            raise ValueError("couplings and splittings must be finite")
        g.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega0", float(self.omega0))
        c, d = (complex(x) for x in self.polarization)
        dev = abs(abs(c) ** 2 + abs(d) ** 2 - 1.0)
        if dev > ATOL_ANALYTIC:
            raise NormalizationError("polarization (c, d) must be normalized", dev)
        object.__setattr__(self, "polarization", (c, d))

    @property
    def uniform_coupling(self) -> bool:
        return bool(np.all(self.g == self.g[0]))

    @property
    def dim_full(self) -> int:
        return 1 << (self.N + 1)


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
        alpha, beta = complex(self.alpha), complex(self.beta)
        dev = abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0)
        if dev > ATOL_ANALYTIC:
            raise NormalizationError("|alpha|^2 + |beta|^2 must equal 1", dev)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def rotate_to_polarization(
    a: complex, b: complex, c: complex, d: complex
) -> RotatedAmplitudes:
    """Rotate system amplitudes (a, b) into the frame of bath polarization (c, d).

    In the rotated frame each bath spin reads |1>' and the system becomes
    alpha |1>' + beta |0>' with alpha = a c* + b d* and beta = a d - b c.
    The map is unitary, so the output is normalized whenever the inputs are.
    """
    for name, (x, y) in (("(a, b)", (a, b)), ("(c, d)", (c, d))):
        dev = abs(abs(x) ** 2 + abs(y) ** 2 - 1.0)
        if dev > ATOL_ANALYTIC:
            raise NormalizationError(f"{name} must be normalized", dev)
    alpha = a * np.conj(c) + b * np.conj(d)
    beta = a * d - b * c
    return RotatedAmplitudes(alpha, beta)


class AlignedEnergy(NamedTuple):
    """Energy of the fully aligned product state, with a generalization flag."""

    energy: float
    #: True when the couplings are non-uniform and the sum-of-couplings
    #: generalization replaced the uniform-coupling value g*N.
    generalized: bool


def aligned_eigen_energy(spec: SpinBathSpec) -> AlignedEnergy:
    """Exact eigenenergy of the aligned state |1> x |1...1>.

    For uniform coupling this is g N / 2 - (omega0 + sum_k omega_k) / 2.
    Non-uniform couplings replace g N by sum_k g_k; the result is flagged
    ``generalized`` in that case.
    """
    energy = 0.5 * float(np.sum(spec.g)) - 0.5 * (spec.omega0 + float(np.sum(spec.omega)))
    return AlignedEnergy(energy, not spec.uniform_coupling)


def build_sector_hamiltonian(spec: SpinBathSpec) -> np.ndarray:
    """Single-excitation sector Hamiltonian: a real symmetric arrowhead matrix.

    Basis index 0 carries the excitation on the system, index k >= 1 on bath
    spin k.  Only the first row/column and the diagonal are nonzero.  The
    trace shift -(omega0 - sum g + sum omega)/2 * I makes the matrix equal the
    exact restriction of the full Hamiltonian to the sector (not merely equal
    up to a constant), so phases are directly comparable with the aligned
    branch.
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


def _secular_roots(head: float, poles: np.ndarray, wsq: np.ndarray) -> np.ndarray:
    """All m+1 roots of f(lam) = head - lam - sum_j wsq_j/(poles_j - lam).

    One root interlaces each pair of adjacent (distinct, sorted) poles plus
    one below and one above; each is bisected to machine precision.  Interval
    blocks of 512 keep the O(m^2) evaluation memory-bounded.
    """
    m = poles.size
    radius = float(np.sum(np.sqrt(wsq))) + 1.0
    lo = min(head, poles[0]) - radius
    hi = max(head, poles[-1]) + radius
    a_all = np.concatenate(([lo], poles))
    b_all = np.concatenate((poles, [hi]))
    roots = np.empty(m + 1)
    # a midpoint can land exactly on (or within one ulp of) a pole; the
    # resulting huge or infinite term still carries the correct sign for
    # the bracketing update
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, m + 1, 512):
            sl = slice(start, min(start + 512, m + 1))
            a = a_all[sl].copy()
            b = b_all[sl].copy()
            for _ in range(120):
                mid = 0.5 * (a + b)
                f = head - mid \
                    - (wsq[:, None] / (poles[:, None] - mid[None, :])).sum(axis=0)
                above = f > 0.0  # the root lies above mid
                a = np.where(above, mid, a)
                b = np.where(above, b, mid)
                if np.all((b - a) <= 1e-16 * np.maximum(np.abs(a), np.abs(b))):
                    break
            roots[sl] = 0.5 * (a + b)
    return roots


def arrowhead_eigensystem(head: float, arm: np.ndarray, diag: np.ndarray):
    """Eigendecomposition of [[head, arm^T], [arm, diag(diag)]] in O(N^2).

    Solves the secular equation f(lam) = head - lam - sum_i arm_i^2/(d_i - lam)
    by vectorized bisection, one root per interlacing interval.  Zero (or
    negligible) arm entries and repeated diagonal values are deflated exactly.
    Returns (eigenvalues ascending, orthonormal eigenvector columns).
    """
    arm = np.asarray(arm, dtype=float)
    diag = np.asarray(diag, dtype=float)
    n = diag.size
    scale = max(abs(head), float(np.max(np.abs(diag), initial=0.0)),
                float(np.max(np.abs(arm), initial=0.0)), 1e-300)

    order = np.argsort(diag, kind="stable")
    d = diag[order]
    w = arm[order]

    eigvals = np.empty(n + 1)
    eigvecs = np.zeros((n + 1, n + 1))
    filled = 0

    # positions (in sorted order) that participate in the secular problem
    active = np.abs(w) > 1e-15 * scale

    # deflate zero-weight rows: (d_i, e_i) is an exact eigenpair
    for i in np.nonzero(~active)[0]:
        eigvals[filled] = d[i]
        eigvecs[1 + order[i], filled] = 1.0
        filled += 1

    # group active duplicates: a cluster of m equal poles contributes m-1
    # eigenvalues at the pole with eigenvectors orthogonal to the weights
    act_idx = np.nonzero(active)[0]
    poles = []
    weights = []
    i = 0
    while i < act_idx.size:
        j = i
        while (j + 1 < act_idx.size
               and d[act_idx[j + 1]] - d[act_idx[i]] <= 1e-14 * scale):
            j += 1
        group = act_idx[i:j + 1]
        u = w[group]
        poles.append(float(np.mean(d[group])))
        weights.append(float(np.linalg.norm(u)))
        if group.size > 1:
            # Householder: orthonormal complement of u within the group
            m = group.size
            v = u.astype(float).copy()
            v[0] += math.copysign(np.linalg.norm(u), u[0] if u[0] != 0 else 1.0)
            v /= np.linalg.norm(v)
            hh = np.eye(m) - 2.0 * np.outer(v, v)
            for col in range(1, m):
                eigvals[filled] = poles[-1]
                eigvecs[1 + order[group], filled] = hh[:, col]
                filled += 1
        i = j + 1

    poles = np.asarray(poles)
    wsq = np.asarray(weights) ** 2
    m = poles.size

    if m == 0:
        eigvals[filled] = head
        eigvecs[0, filled] = 1.0
        filled += 1
    else:
        roots = _secular_roots(head, poles, wsq)
        act_orig = order[act_idx]
        for lam in roots:
            vec = np.zeros(n + 1)
            den = lam - d[act_idx]
            hit = den == 0.0
            if np.any(hit):
                # a very weak coupling left the root within one ulp of its
                # pole: the eigenvector is that basis vector to working
                # precision
                vec[1 + act_orig[hit][0]] = 1.0
            else:
                vec[0] = 1.0
                vec[1 + act_orig] = w[act_idx] / den
                vec /= np.linalg.norm(vec)
            eigvals[filled] = lam
            eigvecs[:, filled] = vec
            filled += 1

    sort = np.argsort(eigvals, kind="stable")
    return eigvals[sort], eigvecs[:, sort]


def sector_eigensystem(h: np.ndarray, method: str = "auto"):
    """Eigendecomposition of the sector Hamiltonian.

    ``method`` is ``"dense"`` (LAPACK symmetric solver), ``"arrowhead"`` (the
    O(N^2) secular-equation path) or ``"auto"``, which switches to the
    arrowhead path above :data:`DENSE_EIGH_LIMIT`.
    """
    h = np.asarray(h, dtype=float)
    if method == "auto":
        method = "dense" if h.shape[0] <= DENSE_EIGH_LIMIT else "arrowhead"
    if method == "arrowhead":
        return arrowhead_eigensystem(h[0, 0], h[1:, 0].copy(), np.diag(h)[1:].copy())
    if method != "dense":
        raise ValueError(f"unknown eigensystem method {method!r}")
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        sym_dev = float(np.max(np.abs(h - h.T)))
        raise np.linalg.LinAlgError(
            f"symmetric eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix "
            f"(max |H|={np.max(np.abs(h)):.3e}, symmetry deviation={sym_dev:.3e}): {exc}"
        ) from exc


@dataclass
class SectorTrajectory:
    """Amplitudes over the N+1 single-excitation basis states, per time."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (len(times), N+1), complex

    @property
    def p0(self) -> np.ndarray:
        """Survival probability |amplitude_0(t)|^2 of the system excitation."""
        return np.abs(self.amplitudes[:, 0]) ** 2


def excitation_on_system(n: int) -> np.ndarray:
    """Sector basis state e_0: the excitation sits on the system spin."""
    v = np.zeros(n + 1, dtype=complex)
    v[0] = 1.0
    return v


def evolve_sector(
    spec: SpinBathSpec,
    initial: Optional[np.ndarray] = None,
    grid: TimeGrid = None,
    method: str = "auto",
) -> SectorTrajectory:
    """Exact sector evolution psi(t) = sum_j exp(-i E_j t) <v_j|psi(0)> v_j.

    ``initial`` defaults to the excitation on the system (e_0).  The norm of
    every returned state is checked to stay within 1e-10 of one.
    """
    if grid is None:
        raise ValueError("a TimeGrid is required")
    if initial is None:
        initial = excitation_on_system(spec.N)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (spec.N + 1,):
        raise ValueError(f"initial state must have length {spec.N + 1}")
    dev = abs(float(np.sum(np.abs(initial) ** 2)) - 1.0)
    if dev > _NORM_TOL:
        raise NormalizationError("initial sector state must be normalized", dev)

    evals, evecs = sector_eigensystem(build_sector_hamiltonian(spec), method)
    coeff = evecs.conj().T @ initial
    times = grid.times
    phases = np.exp(-1j * np.outer(times, evals))
    amps = (phases * coeff[None, :]) @ evecs.T
    norm_drift = float(np.max(np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0)))
    if norm_drift > _NORM_TOL:
        raise TraceDriftError(norm_drift, float(times[-1]))
    return SectorTrajectory(times, amps)


def reduced_system_density(
    spec: SpinBathSpec,
    rot: RotatedAmplitudes,
    t,
    sector_state: np.ndarray,
) -> DensityMatrix2:
    """System density matrix from the two-branch decomposition at time(s) t.

    The full state is alpha e^{-iEt}|aligned> + beta sum_k c_k(t)|k flipped>;
    tracing out the bath leaves rho00 = |beta c_0|^2 and coherence
    rho01 = alpha* beta c_0 e^{+iEt} (every other cross term dies by bath
    orthogonality), which is positive semidefinite by construction.
    ``sector_state`` is one state of length N+1 or a ``(T, N+1)`` stack
    with ``t`` of length T, which gives one batched state.
    """
    sector_state = np.asarray(sector_state, dtype=complex)
    if sector_state.shape[-1:] != (spec.N + 1,):
        raise ValueError(f"sector state must have length {spec.N + 1}")
    alpha, beta = rot.alpha, rot.beta
    energy = aligned_eigen_energy(spec).energy
    c0 = sector_state[..., 0]
    p0 = abs(beta) ** 2 * np.abs(c0) ** 2
    coh = np.conj(alpha) * beta * c0 * np.exp(1j * energy * np.asarray(t, dtype=float))
    # trace is exact by construction; PSD slack absorbs evolution roundoff
    return DensityMatrix2.from_parts(p0, 1.0 - p0, coh, atol=ATOL_INTEGRATED)


def _spin_bits(n_spins: int) -> np.ndarray:
    idx = np.arange(1 << n_spins)
    return (idx[:, None] >> np.arange(n_spins)[None, :]) & 1


def build_full_hamiltonian(
    spec: SpinBathSpec, field_unitary: Optional[np.ndarray] = None
) -> sparse.csr_matrix:
    """Sparse 2^(N+1) Hamiltonian of the system plus bath register.

    Spin k occupies bit k of the basis index (bit set = spin in |1>); the
    system is spin 0.  ``field_unitary`` optionally conjugates every
    single-spin field term sigma_z -> R^dag sigma_z R, tilting the energy
    axis while the Heisenberg couplings stay rotation invariant.  Restricted
    to N <= 12.
    """
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

    h = sparse.coo_matrix(
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


def brute_force_evolve(
    spec: SpinBathSpec,
    initial: np.ndarray,
    grid: TimeGrid,
    field_unitary: Optional[np.ndarray] = None,
) -> FullTrajectory:
    """Propagate the full 2^(N+1) register exactly (N <= 12).

    Uses a scaling-and-squaring matrix exponential applied to the state
    vector over the whole grid in one pass.  Norm drift beyond 1e-9 aborts.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (spec.dim_full,):
        raise ValueError(f"initial state must have length {spec.dim_full}")
    dev = abs(float(np.sum(np.abs(initial) ** 2)) - 1.0)
    if dev > _NORM_TOL:
        raise NormalizationError("initial register state must be normalized", dev)
    h = build_full_hamiltonian(spec, field_unitary)
    states = expm_multiply(
        -1j * h, initial, start=grid.t0, stop=grid.t1,
        num=grid.steps + 1, endpoint=True,
    )
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > 1e-9:
        raise TraceDriftError(drift, float(grid.t1))
    return FullTrajectory(spec, grid.times, states)


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
