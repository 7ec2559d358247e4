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
the excitation-on-system state.  One private function,
:func:`_shipped_measure`, produces that measure for every caller: it
deflates the arrowhead once, plans the leaves of its secular solve once,
passes the solve's and the sum's work and bytes to the one work rule,
``trajectory.check_work``, before any large allocation, solves the
secular equation and checks the sum rule.  The solve forms no eigenvector
and takes O(N) memory.  It has two levels: the roots go in leaves of
~sqrt(N) neighbours, each leaf sums its near poles directly in every
iteration and its far poles through Chebyshev tables built once per leaf,
so the work is O(N^1.5) instead of the O(N^2) of summing every pole (Gu &
Eisenstat 1995 and Livne & Brandt 2002 sum the same Cauchy sums fast).
One block routine, :func:`_phase_blocks`, then hands out the products
w_j exp(-i mu_j t) over the T-point time grid from two phase tables of
~sqrt(T) rows, one complex multiply per (time, root) pair and no cos or
sin.  :func:`survival_amplitude`, the production path, sums each block's
rows.  :func:`evolve_sector` takes c_0 from the same row sums, so with its
bits, and the other N sector amplitudes from one product per block with
the arrowhead's eigenvector coefficients, each root's distance to a pole
formed from its offset to its own pole; the ``oracle-compare`` check
against the brute force so checks the shipped measure and sum.
:func:`arrowhead_eigensystem` gives the sorted measure of any arrowhead
from the same solve, for the tests.  The dense ``eigh`` of the sector
matrix (:func:`sector_eigensystem`) runs on no CLI path; it stays as the
tests' dense reference.
A brute-force propagator on the full 2^(N+1) register (N <= 12) is the
oracle that validates the sector reduction: one Chebyshev expansion of
exp(-iHt) over the whole time grid, its Bessel weights from numpy.  It
builds rows of H by bit arithmetic (:func:`hamiltonian_rows`),
independent of the sector code, and propagates only the block S that the
initial state can reach through H's stored entries: S starts as the
initial state's support and takes in the columns of its rows until they
add no state, so only S's rows are ever built.  No entry connects S to
the rest, so every amplitude outside S is exactly 0 and dropping it is
exact; S is found, never assumed, so a start that H spreads over the
whole register (a tilted field, a generic vector) runs on the whole
register by the same code, and a leak out of the sector would show as a
larger S.  It too passes its work and bytes to the work rule before any
large allocation.

The module, the brute force included, needs numpy alone: H's rows are
row-sorted (row, column, value) triplets, and each Chebyshev step is one
gather, one product and one ``np.add.reduceat`` over the block's rows.
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
    "survival_amplitude",
    "evolve_sector",
    "reduced_system_density",
    "hamiltonian_rows",
    "product_state",
    "brute_force_evolve",
    "first_revival",
]

#: Largest bath for the 2^(N+1) brute-force oracle (dimension 8192).
BRUTE_FORCE_MAX_N = 12
#: Norm drift of the brute-force register above this aborts the run.
BRUTE_FORCE_NORM_ABORT = 1e-9
#: :func:`first_revival` looks for a peak of P0 above REVIVAL_LEVEL after
#: P0 first drops below REVIVAL_DROP.
REVIVAL_DROP = 0.1
REVIVAL_LEVEL = 0.5

_NORM_TOL = 1e-10
#: Matrix elements per block of (roots x near poles) in the secular
#: iteration, and of (nodes x far poles) in its far tables, so its memory
#: stays O(N).
_BLOCK_ELEMENTS = 1 << 17
#: Roots per leaf of the two-level secular solve, max(_LEAF_MIN, isqrt(m))
#: for m poles: a leaf's near sums cost about its roots times three leaf
#: widths in every iteration, its far tables _FAR_NODES times m once.
_LEAF_MIN = 128
#: A pole is near a leaf when it lies within _NEAR_REACH times the leaf's
#: width of it.  A far pole then sits at least 3 half-widths from the
#: leaf's centre, so its term's Chebyshev series on the leaf converges as
#: (3 + sqrt 8)^-k: _FAR_NODES nodes leave ~1e-18 of the far sums.
_NEAR_REACH = 1.0
_FAR_NODES = 24
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
#: Costs in the brute-force work estimate beyond its elements (~0.16 ns
#: each): one Bessel weight of Miller's recurrence (~4.5 ns); one stored
#: entry of the block in a Chebyshev step (~7.5 ns: its gather, its product
#: and its share of reduceat's ~25 ns a row; 26-41 elements an entry
#: measured on whole registers at N = 10 and 12, up to 85 at N = 6, where a
#: row holds fewer entries); the fixed interpreter and call overhead of one
#: step (~9 us), held on blocks of 3 to 13 states, where a step is mostly
#: the numpy calls of its reduceat apply (N = 2 to 12, best of 7 in each of
#: three runs on a shared host: 3.8-5.3 us unloaded, up to 8.8 us loaded;
#: the rule takes the top); and the work of one time point that does not
#: scale with K, mostly the bisection of its degree in
#: ``_chebyshev_degrees`` (0.25-0.72 us a point beyond the other terms,
#: N = 2 to 12 and K = 4 to 143 at 1e5 points, best of 3).
_BESSEL_WORK = 32
_ENTRY_WORK = 48
_CHEBYSHEV_STEP_WORK = 57_344
_POINT_WORK = 4096
#: Floats per time point of the brute-force propagator beside its states
#: and the K + _MILLER_MARGIN rows of its Bessel table: the table's two
#: spare rows, times, arguments, degrees, recurrence scratch, phases and
#: norms.  Bytes of the build of the block's rows per stored entry of H_SS
#: (the build's per-term tables, its triplets and their renumbered copy),
#: beside 32 per (state, spin) for the spin bits, the sigma_z signs and
#: their products: 38-62 measured on whole registers from N = 4 to 10,
#: 44-61 with a complex tilted field from N = 4 to 12; a sector block's few
#: rows take the call's 6-14 KB of small arrays, within _CALL_BYTES.  The
#: build is freed before the propagation allocates, and the estimate counts
#: both, so it bounds the peak tilted too (by 1.27-3.99 at N = 4 to 12, 2
#: and 101 points).
_POINT_FLOATS = 16
_ENTRY_BYTES = 64
#: Brute-force elements per secular (root, pole) pair of work (~0.16 ns
#: against ~40 ns).
_ELEMENTS_PER_PAIR = 256
#: Amplitude-sum (time, root) pairs per secular pair of work (~3 ns against
#: 30-50 ns).
_SUM_PAIRS_PER_PAIR = 12
#: Far-table terms per secular pair of work (~1.6 ns against 30-50 ns).
_TABLE_ELEMENTS_PER_PAIR = 24
#: Floats the secular iteration holds per root of its block beside its two
#: (roots x poles) arrays (30-35 index, bracket, step and far-series arrays
#: measured), and the bytes of the call's small-array objects (8 KB
#: measured at N = 1): the terms of :func:`_shipped_measure`'s byte
#: estimate that are not tables.
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

    No CLI path builds it.  It stays as the tests' dense reference, under a
    name the benchmark's tracer wraps until it reads a run report (ROADMAP
    item 2).
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


def _secular_leaves(head: float, poles: np.ndarray, zsq: np.ndarray):
    """The brackets of the secular roots and the leaves of the two-level solve.

    Returns (ends, leaves).  Root j lies in (ends[j], ends[j + 1]), where
    ends = (low, poles..., high) with low and high beyond the Weyl bound.
    Each leaf row (j0, j1, a, b) takes the consecutive roots j0..j1-1, whose
    brackets make up X = (ends[j0], ends[j1]); its near poles a..b-1 are
    those within ``_NEAR_REACH`` |X| of X, which include every root's two
    bracketing poles.  The poles before a and from b on are its far poles.
    """
    m = poles.size
    radius = 2.0 * math.sqrt(float(np.sum(zsq)))  # Weyl bound, doubled
    low = min(head, poles[0]) - radius
    high = max(head, poles[-1]) + radius
    ends = np.concatenate(([low], poles, [high]))
    size = max(_LEAF_MIN, math.isqrt(m))
    j0 = np.arange(0, m + 1, size)
    j1 = np.minimum(j0 + size, m + 1)
    reach = _NEAR_REACH * (ends[j1] - ends[j0])
    a = np.searchsorted(poles, ends[j0] - reach, side="left")
    b = np.searchsorted(poles, ends[j1] + reach, side="right")
    return ends, np.stack((j0, j1, a, b), axis=1)


def _far_field(poles, zsq, ends, j0, j1, a, b):
    """Chebyshev series, on the leaf of roots j0..j1-1, of its far sums.

    The leaf of :func:`_secular_leaves` spans (ends[j0], ends[j1]); its near
    poles are a..b-1.  In the frame s = lam - ref of its first bracketing
    pole ref, the three rows of coefficients give
    F_L(s) = sum_{i<a} zsq_i/(poles_i - ref - s), F_R(s) the same sum over
    i >= b, and D(s) = sum over both of zsq_i/(poles_i - ref - s)^2; the
    frame keeps the distances to the far poles at full relative precision
    wherever the band lies.  Each sum is taken directly at ``_FAR_NODES``
    Chebyshev nodes, in blocks of nodes of at most ``_BLOCK_ELEMENTS``
    (node, pole) pairs, and then converted to coefficients.  Returns
    (a, b, ref, mid, half, coefficients), the series in u = (s - mid)/half.
    """
    ref = poles[max(j0 - 1, 0)]
    lo, hi = ends[j0] - ref, ends[j1] - ref
    theta = (np.arange(_FAR_NODES) + 0.5) * (math.pi / _FAR_NODES)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid + half * np.cos(theta)
    far = a + poles.size - b
    shifted = np.empty(far)
    np.subtract(poles[:a], ref, out=shifted[:a])
    np.subtract(poles[b:], ref, out=shifted[a:])
    values = np.empty((3, _FAR_NODES))
    rows = min(_FAR_NODES, max(1, _BLOCK_ELEMENTS // far))
    buffers = np.empty((2, rows, far))
    for k in range(0, _FAR_NODES, rows):
        n = min(rows, _FAR_NODES - k)
        delta, terms = buffers[0, :n], buffers[1, :n]
        np.subtract(shifted, nodes[k:k + n, None], out=delta)
        np.divide(zsq[:a], delta[:, :a], out=terms[:, :a])
        np.divide(zsq[b:], delta[:, a:], out=terms[:, a:])
        values[0, k:k + n] = terms[:, :a].sum(axis=1)
        values[1, k:k + n] = terms[:, a:].sum(axis=1)
        np.divide(terms, delta, out=delta)
        values[2, k:k + n] = delta.sum(axis=1)
    # c_k = (2/P) sum_n f(node_n) cos(k theta_n), c_0 halved
    cosines = np.cos(np.multiply.outer(np.arange(_FAR_NODES), theta))
    coef = (values[:, None, :] * cosines).sum(axis=2)
    coef *= 2.0 / _FAR_NODES
    coef[:, 0] *= 0.5
    return a, b, ref, mid, half, coef


def _chebyshev_rows(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k coef[r, k] T_k(u) for each row r and each u, by Clenshaw's recurrence."""
    two_u = 2.0 * u
    b1, b2, b0 = np.zeros((3, coef.shape[0], u.size))
    for c in coef[:, :0:-1].T:
        # b_k = 2u b_{k+1} - b_{k+2} + c_k, into the buffer b_{k+2} frees
        np.multiply(two_u, b1, out=b0)
        b0 -= b2
        b0 += c[:, None]
        b1, b2, b0 = b0, b1, b2
    return u * b1 - b2 + coef[:, :1]


def _secular_block(head, poles, zsq, j, ends, far=None):
    """Roots j (an index array) of g(lam) = lam - head + sum_i zsq_i/(poles_i - lam).

    Root j lies in (ends[j], ends[j + 1]): between poles j-1 and j, and the
    outer two below poles[0] and above poles[-1] within the bounds ends[0]
    and ends[-1] (see :func:`_secular_leaves`).  Each root is tracked as
    tau = lam - poles[o] with its origin o at the nearer pole, which the
    sign of g at the interval midpoint picks, so the distances
    poles_i - lam keep full relative precision however close the root is
    to its pole.  The step is the "middle way" model of LAPACK dlaed4
    (R.-C. Li): the origin pole's term kept exact, a pole at the interval's
    other end fitted to g and g', its zero in the bracket taken in
    cancellation-free form; a step that leaves the bracket is replaced by
    bisection.  A root stops when |g| is below its rounding bound.  Returns
    (origins, offsets, weights): root j is origins[j] + offsets[j], its
    origin pole's value plus tau, and its weight 1/g'(lam) = |v_0|^2 is
    taken at the last evaluation.

    With ``far`` None every pole is summed directly.  Otherwise it is
    (a, b, ref, mid, half, coef) from :func:`_far_field`: poles a..b-1 are
    summed directly and the rest come from the Chebyshev series, F_L + F_R
    added to g, D to g' and F_R - F_L (each side has one sign) to the sum
    of |terms| in the bound.
    """
    m = poles.size
    a, b = (0, m) if far is None else far[:2]
    near, near_zsq = poles[a:b], zsq[a:b]
    # each root starts in its left pole's frame
    o = np.maximum(j - 1, 0)
    lo = ends[j] - poles[o]
    hi = ends[j + 1] - poles[o]
    tau = 0.5 * (lo + hi)
    origins, offsets, weights = np.empty((3, j.size))
    # the (roots x near poles) scratch, reused by every iteration
    buffers = np.empty((2, j.size, b - a))
    act = np.arange(j.size)
    for it in range(_SECULAR_MAX_ITER):
        jj, po, t = j[act], poles[o[act]], tau[act]
        delta, terms = buffers[0, :act.size], buffers[1, :act.size]
        np.subtract(near, po[:, None], out=delta)
        delta -= t[:, None]
        np.divide(near_zsq, delta, out=terms)
        g = (po - head) + t + terms.sum(axis=1)
        np.divide(terms, delta, out=delta)
        dg = 1.0 + delta.sum(axis=1)
        np.abs(terms, out=terms)
        total = terms.sum(axis=1)
        if far is not None:
            ref, mid, half, coef = far[2:]
            left, right, slope = _chebyshev_rows(coef, (((po - ref) + t) - mid) / half)
            g += left + right
            dg += slope
            total += right - left
        bound = 8.0 * _EPS * (np.abs(po - head) + np.abs(t) + total)
        above = g < 0.0  # g increases: the root lies above t
        lo[act] = np.where(above, t, lo[act])
        hi[act] = np.where(above, hi[act], t)
        # converged, or the bracket is down to a few ulps
        done = (np.abs(g) <= bound) | (
            hi[act] - lo[act] <= 4.0 * _EPS * np.maximum(np.abs(lo[act]), np.abs(hi[act])))
        origins[act[done]] = po[done]
        offsets[act[done]] = t[done]
        weights[act[done]] = 1.0 / dg[done]
        keep = ~done
        act, jj, g, dg, t = act[keep], jj[keep], g[keep], dg[keep], t[keep]
        if act.size == 0:
            return origins, offsets, weights
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
        # extreme poles the bound ends[0] or ends[-1] standing in for the line
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
    vector, without forming any eigenvector.  Deflated eigenvalues (a
    negligible coupling, or the repeats of an equal pole) have weight
    exactly 0.

    The m + 1 roots of the secular equation on m poles (after deflation)
    are solved in leaves of max(``_LEAF_MIN``, isqrt(m)) consecutive roots
    (:func:`_secular_leaves`), each leaf in blocks of roots.  A leaf's near
    poles, its roots' own bracketing poles among them, are summed directly
    in every iteration, exactly as in the direct solve.  Its far poles do
    not change between iterations: their sums enter through Chebyshev
    series on the leaf, built once from ``_FAR_NODES`` direct sums
    (:func:`_far_field`).  On spread poles each root meets about three
    leaf widths of near poles and each leaf's tables sum over all m poles
    24 times, so the work is O(m^1.5), against O(m^2) when every pole is
    summed, and the memory is O(N).  When every pole is near its leaf
    (every bath up to 127 poles, and the leaves whose brackets reach past a
    wide Weyl bound) there is no far field, and each root's arithmetic is
    the direct solve's, bit for bit.
    """
    head = float(head)
    poles, zsq, deflated = _deflate(head, np.asarray(arm, dtype=float),
                                    np.asarray(diag, dtype=float))
    plan = _secular_plan(head, poles, zsq, 0)[0]
    origins, offsets, weights = _secular_roots(head, poles, zsq, plan)
    evals = np.concatenate((origins + offsets, deflated))
    order = np.argsort(evals, kind="stable")
    return evals[order], np.concatenate((weights, np.zeros(deflated.size)))[order]


def _secular_roots(head: float, poles: np.ndarray, zsq: np.ndarray, plan):
    """The secular roots of the deflated ``poles``, unsorted, with their origins.

    ``plan`` is the (ends, leaves) of :func:`_secular_plan`, None with no
    pole left, when the one root is the head, offset 0.  Returns
    (origins, offsets, weights) in root order, which is ascending: root j
    is origins[j] + offsets[j], the value of the pole it was tracked from
    plus its offset tau (:func:`_secular_block`), so a root's distance to
    any pole d is (origins[j] - d) + offsets[j] at full relative precision
    however close the root sits to its pole.
    """
    if plan is None:
        return np.array([head]), np.zeros(1), np.ones(1)
    ends, leaves = plan
    m = poles.size
    origins, offsets, weights = np.empty((3, m + 1))
    for j0, j1, a, b in leaves.tolist():
        far = None if b - a == m else _far_field(poles, zsq, ends, j0, j1, a, b)
        rows = max(1, _BLOCK_ELEMENTS // (b - a))
        for start in range(j0, j1, rows):
            j = np.arange(start, min(start + rows, j1))
            origins[j], offsets[j], weights[j] = _secular_block(head, poles, zsq, j, ends, far)
    return origins, offsets, weights


def sector_eigensystem(h: np.ndarray):
    """Dense eigendecomposition of the sector Hamiltonian (LAPACK symmetric solver).

    No CLI path calls it.  It stays as the tests' dense reference, under a
    name the benchmark's tracer wraps until it reads a run report (ROADMAP
    item 2).
    """
    h = np.asarray(h, dtype=float)
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        sym_dev = float(np.max(np.abs(h - h.T)))
        raise np.linalg.LinAlgError(
            f"symmetric eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix "
            f"(max |H|={np.max(np.abs(h)):.3e}, symmetry deviation={sym_dev:.3e}): {exc}"
        ) from exc


def _secular_plan(head: float, poles: np.ndarray, zsq: np.ndarray, points: int):
    """The leaves of the secular solve of the deflated ``poles``, and its cost.

    Returns (plan, work, bytes, largest block).  ``plan`` is the
    (ends, leaves) of :func:`_secular_leaves`, None with no pole left.  The
    work, in secular pairs: per leaf, its roots times its near poles, and
    ``_FAR_NODES`` sums over its far poles at ``_TABLE_ELEMENTS_PER_PAIR``
    elements per pair; then each root meets each of ``points`` amplitude
    terms once, at ``_SUM_PAIRS_PER_PAIR`` terms per pair.  The bytes are
    the largest leaf's block of rows x near poles (two arrays, and
    ``_SECULAR_ROOT_FLOATS`` per row) plus its far tables' block of nodes x
    far poles (two arrays, and the far poles' shifts), as if held at once;
    the block is the larger of the two arrays, in elements.
    """
    work = -(-(poles.size + 1) * points // _SUM_PAIRS_PER_PAIR)
    if poles.size == 0:
        return None, work, 0, 0
    ends, leaves = _secular_leaves(head, poles, zsq)
    j0, j1, a, b = leaves.T
    width = b - a
    far = poles.size - width
    work += (int(np.sum((j1 - j0) * width))
             + -(-_FAR_NODES * int(np.sum(far)) // _TABLE_ELEMENTS_PER_PAIR))
    rows = np.minimum(j1 - j0, np.maximum(1, _BLOCK_ELEMENTS // width))
    nodes = np.minimum(_FAR_NODES, np.maximum(1, _BLOCK_ELEMENTS // np.maximum(far, 1)))
    nbytes = 8 * int(np.max(rows * (2 * width + _SECULAR_ROOT_FLOATS) + (2 * nodes + 1) * far))
    return (ends, leaves), work, nbytes, int(np.max(np.maximum(rows * width, nodes * far)))


def _phase_table(times: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """exp(-i mu_j t) for each t in ``times`` (rows) and each mu_j (columns)."""
    phase = np.multiply.outer(times, -mu)
    table = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)
    return table


def _shipped_measure(spec: SpinBathSpec, grid: TimeGrid, columns: int):
    """The checked spectral measure of e_0 that every central-spin amplitude sums.

    The sector Hamiltonian is E I plus the arrowhead with head
    omega0 - sum g, arm g and poles d_k = omega_k - g_k, where E is the
    aligned energy; (mu_j, w_j) is that arrowhead's spectral measure of
    e_0.  Solving in this frame keeps mu_j to full relative precision: no
    phase of size sum(omega)/2 is formed and cancelled.  The poles are
    deflated and the leaves planned once; the work of the solve and of
    ``columns`` amplitude columns at each of the grid's T times, and the
    bytes of the times, the columns, the per-pole arrays, the solve and the
    phase tables of :func:`_phase_blocks` (with, beside more than one
    column, the coefficient tables of :func:`evolve_sector`, one block's
    product and its per-time phase) go through ``trajectory.check_work``
    before any large allocation, each part counted as if all were held at
    once, so the estimate bounds the peak.  A sum rule |sum_j w_j - 1|
    above 1e-10 raises TraceDriftError.

    Returns (origins, offsets, w) of the roots of weight w_j > 0, in
    ascending order: mu_j = origins[j] + offsets[j] (:func:`_secular_roots`).
    """
    head, diag = spec.omega0 - float(np.sum(spec.g)), spec.omega - spec.g
    poles, zsq, _ = _deflate(head, spec.g, diag)
    roots, points = poles.size + 1, grid.steps + 1
    block = math.isqrt(points)
    heads = -(-points // block)
    plan, work, solve, largest = _secular_plan(head, poles, zsq, points * columns)
    # times, amplitude columns and per-spin arrays; the secular solve's
    # largest leaf (near block and far tables); the heads and tails tables,
    # one tails-sized product and the float phase beside the larger table;
    # numpy's reduction buffer, up to getbufsize() complex elements
    nbytes = (8 * points * (1 + 2 * columns) + 64 * spec.N + _CALL_BYTES + solve
              + (16 * (heads + 2 * block) + 8 * max(heads, block)) * roots
              + 16 * min(np.getbufsize(), max(largest, block * roots)))
    if columns > 1:
        # the gaps, their nonzero mask and the coefficients per (root,
        # spin), one block's product, the complex phase and its argument
        # per time, and the buffer of the phase's broadcast product
        nbytes += (spec.N * (25 * roots + 16 * block) + 32 * points
                   + 16 * min(np.getbufsize(), points * columns))
    check_work(work, nbytes, poles.size, points, "secular poles after deflation")
    origins, offsets, w = _secular_roots(head, poles, zsq, plan)
    drift = abs(float(np.sum(w)) - 1.0)
    if not drift <= _NORM_TOL:
        raise TraceDriftError(drift, 0.0, _NORM_TOL)
    keep = w > 0.0
    return origins[keep], offsets[keep], w[keep]


def _phase_blocks(grid: TimeGrid, mu: np.ndarray, w: np.ndarray):
    """The products w_j exp(-i mu_j t) on ``grid``, a block of times at a time.

    The grid's T times go in blocks of B = isqrt(T): time t_{aB+b} is
    t_{aB} + b dt, so its terms are heads[a] * tails[b] with the tables
    heads[a] = w exp(-i mu t_{aB}) and tails[b] = exp(-i mu b dt), about
    sqrt(T) rows each.  Each time then costs one complex multiply per root,
    no cos or sin; memory is O(sqrt(T) N).  Yields (rows, part), part the
    (len(rows), roots) products at the times ``rows``, in one buffer that
    the next block overwrites.  The blocks depend on the grid alone.
    """
    points = grid.steps + 1
    block = math.isqrt(points)
    heads = _phase_table(grid.times[::block], mu)
    heads *= w
    tails = _phase_table(np.arange(block) * grid.dt, mu)
    part = np.empty_like(tails)
    for start, row in zip(range(0, points, block), heads):
        n = min(block, points - start)
        np.multiply(tails[:n], row, out=part[:n])
        yield slice(start, start + n), part[:n]


def survival_amplitude(spec: SpinBathSpec, grid: TimeGrid) -> np.ndarray:
    """Aligned-frame survival amplitude a(t) = sum_j w_j exp(-i mu_j t) on ``grid``.

    (mu_j, w_j) is the checked measure of :func:`_shipped_measure`, and the
    excitation's amplitude is c_0(t) = exp(-iEt) a(t), E the aligned
    energy.  Each time's sum is the row sum of its block of
    :func:`_phase_blocks`: no BLAS product is used, so it is the same
    whatever the BLAS library or its thread count.
    """
    origins, offsets, w = _shipped_measure(spec, grid, 1)
    amp = np.empty(grid.steps + 1, dtype=complex)
    for rows, part in _phase_blocks(grid, origins + offsets, w):
        part.sum(axis=1, out=amp[rows])
    return amp


@dataclass
class SectorTrajectory:
    """Amplitudes over the N+1 single-excitation basis states, per time
    (kept for the benchmark's tracer: see :func:`evolve_sector`)."""

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
    dev = abs(float(np.vdot(vector, vector).real) - 1.0)
    if not dev <= _NORM_TOL:
        raise NormalizationError(f"initial {what} state must be normalized", dev)
    return vector


def evolve_sector(spec: SpinBathSpec, grid: TimeGrid) -> SectorTrajectory:
    """Sector amplitudes on ``grid`` of the excitation started on the system (e_0).

    They come from the measure (mu_j, w_j) that ``central-exact`` and
    ``fig2`` ship (:func:`_shipped_measure`), so a comparison with the
    brute force checks that solver.  With E the aligned energy and
    d_k = omega_k - g_k, the arrowhead's eigenvector formula gives

        c_k(t) = exp(-iEt) sum_j w_j g_k / (mu_j - d_k) exp(-i mu_j t),  k >= 1.

    Each mu_j - d_k is (origin pole - d_k) + tau_j (:func:`_secular_roots`),
    never a difference of the rounded root, so it keeps full relative
    precision when a weakly coupled root lies within an ulp of its pole (Gu
    & Eisenstat 1995).  Each block of :func:`_phase_blocks` gives c_0 by
    the row sums of :func:`survival_amplitude`, so c_0 has its bits, and
    the c_k by one product with the table g_k / (mu_j - d_k).  Every
    state's norm must stay within 1e-10 of one (NaN included), or
    TraceDriftError is raised.

    The name and :class:`SectorTrajectory` stay because the benchmark's
    tracer wraps ``central_spin.evolve_sector`` in place and reads its
    ``amplitudes``, until it reads a run report (ROADMAP item 2).
    """
    times = grid.times
    origins, offsets, w = _shipped_measure(spec, grid, spec.N + 1)
    gaps = np.subtract.outer(origins, spec.omega - spec.g)
    gaps += offsets[:, None]
    coef = np.zeros(gaps.shape, dtype=complex)
    # only a root on an uncoupled spin's pole can meet it exactly: that
    # spin's amplitude is then 0
    np.divide(spec.g, gaps, out=coef.real, where=gaps != 0.0)
    amps = np.empty((times.size, spec.N + 1), dtype=complex)
    for rows, part in _phase_blocks(grid, origins + offsets, w):
        part.sum(axis=1, out=amps[rows, 0])
        np.matmul(part, coef, out=amps[rows, 1:])
    parts = amps.view(float)
    drift = float(np.max(np.abs(np.einsum("ij,ij->i", parts, parts) - 1.0)))
    if not drift <= _NORM_TOL:
        raise TraceDriftError(drift, float(times[-1]), _NORM_TOL)
    amps *= np.exp(-1j * aligned_eigen_energy(spec) * times)[:, None]
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


def _spin_bits(indices: np.ndarray, n_spins: int) -> np.ndarray:
    """Bit k of each register index (1 = spin k in |1>), one row per index."""
    return (indices[:, None] >> np.arange(n_spins)[None, :]) & 1


def hamiltonian_rows(spec: SpinBathSpec, indices, field_unitary: Optional[np.ndarray] = None):
    """The rows ``indices`` of the 2^(N+1) register Hamiltonian, as triplets.

    Spin k occupies bit k of the basis index (bit set = spin in |1>); the
    system is spin 0.  ``indices`` are sorted register indices, and only
    their rows are built, so the cost follows the rows asked for, not the
    register.  ``field_unitary`` optionally conjugates every single-spin
    field term sigma_z -> R^dag sigma_z R, tilting the energy axis while the
    Heisenberg couplings stay rotation invariant.  Restricted to N <= 12.

    Returns (rows, cols, vals): H[rows[i], cols[i]] = vals[i] (complex) in
    register indices, sorted by row, no pair twice.  Row r holds its
    diagonal first, then each entry r ^ x for the bit masks x of the terms
    that connect r: the flip-flop of the system with bath spin k (bits 0
    and k differ), and with a tilted field the flip of each single spin.  A
    zero coupling is stored as a zero, so the pattern does not depend on
    the values.
    """
    n = spec.N
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to N <= {BRUTE_FORCE_MAX_N}, got {n}")
    idx = np.asarray(indices)
    bits = _spin_bits(idx, n + 1)
    sz = 1.0 - 2.0 * bits  # +1 for |0>, -1 for |1>
    w_all = np.concatenate(([spec.omega0], spec.omega))

    if field_unitary is None:
        field = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    else:
        r = np.asarray(field_unitary, dtype=complex)
        if r.shape != (2, 2) or np.max(np.abs(r.conj().T @ r - np.eye(2))) > 1e-12:
            raise ValueError("field_unitary must be a 2x2 unitary")
        field = r.conj().T @ np.diag([1.0, -1.0]).astype(complex) @ r

    # one column per term: the diagonal, the N flip-flops g_k (s0+ sk- +
    # s0- sk+), and the N+1 field flips when the axis is tilted
    f01 = field[0, 1]
    flips = np.arange(n + 1) if f01 != 0.0 else np.arange(0)
    masks = np.concatenate(([0], 1 | (1 << np.arange(1, n + 1)), 1 << flips))
    vals = np.empty((idx.size, masks.size), dtype=complex)
    # diagonal: field diagonal part + Heisenberg sigma_z sigma_z
    f_diag = np.array([field[0, 0].real, field[1, 1].real])
    diag = 0.5 * (w_all[None, :] * f_diag[bits]).sum(axis=1)
    vals[:, 0] = diag + 0.5 * ((spec.g[None, :] * sz[:, [0]] * sz[:, 1:]).sum(axis=1))
    vals[:, 1:n + 1] = spec.g
    # <0|field|1> = f01 takes spin k from |1> to |0>; its conjugate back
    vals[:, n + 1:] = np.where(bits[:, flips] == 0, 0.5 * w_all[flips] * f01,
                               0.5 * w_all[flips] * np.conj(f01))
    stored = np.ones(vals.shape, dtype=bool)
    stored[:, 1:n + 1] = bits[:, :1] != bits[:, 1:]
    rows = np.repeat(idx, np.count_nonzero(stored, axis=1))
    return rows, (idx[:, None] ^ masks)[stored], vals[stored]


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
    """Brute-force trajectory on the invariant block of the register.

    ``support`` holds the sorted register indices S of the block that
    :func:`brute_force_evolve` propagated, the closure of the initial
    state's support under H's sparsity pattern; every amplitude outside S
    is exactly 0 at every time.  ``amplitudes`` has one column per index
    of S.  The readers below look at S alone, and an index outside it
    reads an exact 0; :meth:`register_states` builds the whole register
    on request.
    """

    spec: SpinBathSpec
    times: np.ndarray
    support: np.ndarray  # shape (|S|,), sorted register indices
    amplitudes: np.ndarray  # shape (len(times), |S|), complex

    def _at(self, indices) -> np.ndarray:
        """Amplitudes at the register ``indices``, per time: 0 outside S."""
        indices = np.asarray(indices)
        at = np.minimum(np.searchsorted(self.support, indices), self.support.size - 1)
        inside = self.support[at] == indices
        out = np.zeros((self.times.size, indices.size), dtype=complex)
        out[:, inside] = self.amplitudes[:, at[inside]]
        return out

    def sz_total(self) -> np.ndarray:
        """Expectation of the conserved total sigma_z, per time point."""
        sz = (1.0 - 2.0 * _spin_bits(self.support, self.spec.N + 1)).sum(axis=1)
        return (np.abs(self.amplitudes) ** 2 * sz[None, :]).sum(axis=1)

    def sector_amplitudes(self) -> np.ndarray:
        """Amplitudes on the N+1 single-excitation basis states."""
        return self._at(sector_indices(self.spec.N))

    def aligned_amplitude(self) -> np.ndarray:
        return self._at([aligned_index(self.spec.N)])[:, 0]

    def register_states(self) -> np.ndarray:
        """The (T, 2^(N+1)) register amplitudes, the block's columns at S.

        Its bytes go through ``trajectory.check_work`` before it is built.
        """
        points, dim = self.times.size, self.spec.dim_full
        check_work(-(-points * dim // _ELEMENTS_PER_PAIR), 16 * points * dim, dim, points,
                   "register amplitudes")
        states = np.zeros((points, dim), dtype=complex)
        states[:, self.support] = self.amplitudes
        return states


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
    """Propagate ``initial`` on the full 2^(N+1) register exactly (N <= 12).

    The propagator runs on the block H_SS, where S is the closure of
    ``initial``'s support under H's stored sparsity pattern.  S starts as
    that support; each level builds the rows of S
    (:func:`hamiltonian_rows`) and takes their columns in, and the last
    level, which adds no state, gives H_SS's triplets, renumbered by
    position in S.  Only rows of S are built: a sector start takes two
    levels, of 1 and N+1 rows.  No stored entry of H connects S to the
    rest, so the whole-register recurrence would keep every vector
    exactly 0 outside S in floating point: the block drops only
    multiplications of zeros.  A stored zero makes S larger, never
    smaller, and nothing about the model is assumed: a sector start gives
    its N+1 states (N+2 with the aligned state), a tilted field or a
    generic vector the whole register, by the same code.

    One Chebyshev expansion (Tal-Ezer & Kosloff 1984) serves the whole
    grid.  With [lo, hi] the Gershgorin bounds of the block's rows, c their
    centre and r their half-width, H^ = (H_SS - c)/r has its spectrum in
    [-1, 1] and

        psi(t) = e^{-ict} sum_k (2 - delta_k0) J_k(rt) (-i)^k T_k(H^) psi(0),

    with the vectors U_k = (-i)^k T_k(H^) psi(0) from the three-term
    recurrence U_{k+1} = -2i H^ U_k + U_{k-1}, each product one
    ``np.add.reduceat`` over the rows of H_SS's triplets.  The series stops
    at the degree K whose Bessel tail at r max|t| is below 1e-17; the
    weights J_k(rt) come from Miller's recurrence in numpy.  Chunks of U_k
    meet blocks of time points in fixed-size real products, so memory is
    the block's states plus a fixed scratch.

    The estimated work, K (48 nnz(H_SS) + points (|S| + 32)) elements plus
    a fixed cost per term and per time point, and the bytes of the block's
    build, 32 (N+1) |S| + 64 nnz(H_SS), of the block's states (with the
    temporaries of :meth:`FullTrajectory.sz_total`), the Bessel table and
    the scratch go through ``trajectory.check_work`` before any weight or
    state is allocated.  A non-unit ``initial`` (NaN included) is refused;
    norm drift beyond BRUTE_FORCE_NORM_ABORT aborts.
    """
    initial = _unit_state(initial, spec.dim_full, "register")
    # S grows by the columns of its rows until they add no state
    support = np.flatnonzero(initial)
    while True:
        rows, cols, vals = hamiltonian_rows(spec, support, field_unitary)
        reached = np.union1d(support, cols)
        if reached.size == support.size:
            break
        support = reached
    dim, size = spec.dim_full, support.size
    # the block's entries, renumbered by position in S
    rows, cols = np.searchsorted(support, rows), np.searchsorted(support, cols)
    initial = initial[support]
    # every row holds its diagonal, so no row's run of entries is empty
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    on_diag = rows == cols
    diag = vals[on_diag].real
    radius = np.add.reduceat(np.abs(vals), starts) - np.abs(diag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    centre, half = 0.5 * (lo + hi), max(0.5 * (hi - lo), _TINY)
    # U_{k+1} = step U_k + U_{k-1}, step = -2i (H_SS - centre) / half
    vals[on_diag] -= centre
    vals *= -2j / half

    points = grid.steps + 1
    order = int(_chebyshev_degrees(half * max(abs(grid.t0), abs(grid.t1))))
    elements = (order * (_ENTRY_WORK * vals.size + points * (size + _BESSEL_WORK)
                         + _CHEBYSHEV_STEP_WORK) + points * _POINT_WORK)
    chunk = min(_CHEBYSHEV_CHUNK, order + 1)
    # the build of the block's rows; numpy's reduction buffer, the
    # Chebyshev vectors and the product scratch; per time point the states,
    # the temporaries of sz_total, the Bessel table and the per-point arrays
    nbytes = (32 * size * (spec.N + 1) + _ENTRY_BYTES * vals.size + _CALL_BYTES
              + 16 * np.getbufsize() + 16 * size * (chunk + min(_CHEBYSHEV_TIMES, points))
              + points * (32 * size + 8 * (order + _MILLER_MARGIN + _POINT_FLOATS)))
    check_work(-(-elements // _ELEMENTS_PER_PAIR), nbytes, order, points,
               f"Chebyshev terms on a block of {size} of {dim} register states")

    times = grid.times
    x = half * np.abs(times)
    degrees = _chebyshev_degrees(x)
    weights = _bessel_table(x, degrees, order + 1)
    weights[1:] *= 2.0
    # J_k(-x) = (-1)^k J_k(x), in place: a masked copy would take K/2 rows
    weights[1::2] *= np.where(times < 0.0, -1.0, 1.0)

    states = np.zeros((times.size, size), dtype=complex)
    vectors = np.empty((chunk, size), dtype=complex)
    part = np.empty((min(_CHEBYSHEV_TIMES, times.size), 2 * size))
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
                continue
            stepped = np.add.reduceat(vals * vectors[j - 1][cols], starts)
            if k0 + j == 1:
                np.multiply(stepped, 0.5, out=vectors[1])
            else:
                np.add(stepped, vectors[j - 2], out=vectors[j])
        for b0 in range(0, times.size, _CHEBYSHEV_TIMES):
            span = slice(b0, b0 + _CHEBYSHEV_TIMES)
            n = min(_CHEBYSHEV_TIMES, times.size - b0)
            np.matmul(weights[k0:k0 + count, span].T, vectors_re[:count], out=part[:n])
            states_re[span] += part[:n]
    states *= np.exp(-1j * centre * times)[:, None]

    norms = np.sqrt(np.einsum("ij,ij->i", states_re, states_re))
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= BRUTE_FORCE_NORM_ABORT:
        raise TraceDriftError(drift, float(grid.t1), BRUTE_FORCE_NORM_ABORT)
    return FullTrajectory(spec, times, support, states)


def first_revival(times: np.ndarray, p0: np.ndarray) -> Optional[tuple[float, float]]:
    """Locate the first revival of the survival probability.

    Returns (time, value) of the first local maximum of ``p0`` that follows
    the first drop below ``REVIVAL_DROP`` and exceeds ``REVIVAL_LEVEL``;
    None when the curve never drops or never revives.  Use a grid of >= 1e4
    points over the window of interest for a stable answer.
    """
    times = np.asarray(times, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    below = np.nonzero(p0 < REVIVAL_DROP)[0]
    if below.size == 0:
        return None
    start = below[0]
    d = np.diff(p0)
    peaks = np.nonzero((d[:-1] > 0) & (d[1:] <= 0))[0] + 1
    peaks = peaks[(peaks > start) & (p0[peaks] > REVIVAL_LEVEL)]
    if peaks.size == 0:
        return None
    return float(times[peaks[0]]), float(p0[peaks[0]])
