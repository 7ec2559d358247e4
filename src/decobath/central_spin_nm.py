"""Non-Markovian master equation for the polarized central-spin problem.

In the bath-polarization frame the second-order time-convolutionless master
equation reads

    d rho/dt = -i [H_lamb(t), rho] + Gamma_d(t) L[sigma_z, rho]
                                   + Gamma_0(t) L[sigma_minus, rho]

with time-dependent rates

    Gamma_d(t) = (sum_k g_k)^2 t,
    Gamma_0(t) = sum_k g_k^2 sin((omega0 - omega_k) t) / (omega0 - omega_k),

and the Lamb-shift Hamiltonian

    H_lamb(t) = (omega_r / 2) sigma_z + Lambda(t) |0><0|,
    omega_r   = omega0 - sum_k g_k,
    Lambda(t) = sum_k g_k^2 (1 - cos((omega0 - omega_k) t)) / (omega0 - omega_k).

The jump operator maps the excited branch |0> onto the stationary branch |1>
(written as a raising operator in conventions that label the occupied level
|1>).  The generator never mixes the population and coherence channels, so
the equation splits into two scalar linear equations,

    rho00' = -2 Gamma_0 rho00,
    rho01' = (-i (omega_r + Lambda) - 4 Gamma_d - Gamma_0) rho01,

whose rate integrals are finite mode sums; rho11 collects what leaves
rho00.  :func:`channel_exponents` forms both integrals in one blocked pass
over (time points) x (modes), whose size ``trajectory.check_work`` bounds
up front.  :func:`integrate_sme` builds the exact solution from them over
a whole array of times t >= 0 after the preparation, and the full 2x2
generator stepped from t = 0 by the generic RK4 integrator
(:func:`_integrate_sme_matrix`, with the rates of :func:`sme_rates`) stays
as its oracle; the two share no code.  The module also carries the
equation's claimed closed-form solution, :func:`sme_analytic`.  Its
population channel is the exact one, while its coherence channel differs in
the dephasing exponent and the Lamb phase.  That gap is deliberately not
patched: :func:`sme_discrepancy_report` returns it as data, a Trajectory of
the two coherence deviations per time and the best-fit dephasing factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .central_spin import RotatedAmplitudes, SpinBathSpec
from .lindblad import dissipator, integrate_master
from .qstate import DensityMatrix2, SIGMA_MINUS, SIGMA_Z
from .trajectory import TimeGrid, Trajectory, check_work, nonnegative_times

__all__ = [
    "SmeRates",
    "sme_rates",
    "channel_exponents",
    "integrate_sme",
    "sme_analytic",
    "sme_discrepancy_report",
]

#: Phases x = delta t below this take the kernels' leading terms, which are
#: exact to rounding there; above it sin^2(x/2) cannot underflow.
_SMALL_PHASE = 1e-100
#: Oracle RK4 step ceiling: max over the grid of Gamma_d times the step.
_GAMMA_D_STEP = 1e-3
#: Mode-time products evaluated per block of time points, so memory stays
#: flat in (time points) x (modes).
_BLOCK_ELEMENTS = 1 << 15
#: Horner coefficients, highest order first, of
#: (x - sin x)/x^3 = sum_k (-1)^k x^(2k)/(2k+3)!; ten terms reach rounding
#: for |x| < 1, where x - sin x itself cancels.
_ARC_SERIES = tuple((-1.0) ** k / math.factorial(2 * k + 3) for k in reversed(range(10)))
_TINY = np.finfo(float).tiny

_PROJ0 = np.diag([1.0, 0.0]).astype(complex)


def _sin_over(delta: np.ndarray, t) -> np.ndarray:
    """sin(delta t)/delta, or its leading term t at a tiny phase; t may be an array."""
    x = delta * t
    out = np.sin(x) / np.where(delta == 0.0, 1.0, delta)
    return np.where(np.abs(x) < _SMALL_PHASE, t, out)


def _versin_over(delta: np.ndarray, t) -> np.ndarray:
    """(1 - cos(delta t))/delta, or its leading term delta t^2/2 at a tiny phase."""
    x = delta * t
    s = np.sin(0.5 * x)
    out = 2.0 * s * s / np.where(delta == 0.0, 1.0, delta)
    return np.where(np.abs(x) < _SMALL_PHASE, 0.5 * x * t, out)


def channel_exponents(spec: SpinBathSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """Decay and Lamb-phase exponents of the two channels at time(s) t.

        gamma_1(t) = 2 sum_k g_k^2 (1 - cos(delta_k t)) / delta_k^2,
        gamma_d(t) = sum_k g_k^2 (delta_k t - sin(delta_k t)) / delta_k^2,

    with delta_k = omega0 - omega_k; gamma_1 = 2 int Gamma_0 and
    gamma_d = int Lambda.  Both sums share one pass over the time array in
    blocks of ``_BLOCK_ELEMENTS`` mode-time products, so memory stays flat in
    (time points) x (modes); a row's sums do not depend on the blocking, so
    any block size gives the same bits.  With x = delta t, gamma_1's term is
    the closed form 2 sin^2(x/2)/delta^2, or its leading term t^2/2 where
    |x| < ``_SMALL_PHASE`` or delta^2 underflows to 0.  gamma_d's x - sin x
    cancels whenever |x| is small, so for |x| < 1 it is x t^2 times the
    series of (x - sin x)/x^3, which also gives exactly 0 at resonance.  A
    scalar ``t`` gives scalars; a negative, NaN or infinite time is
    refused.  The mode-time pairs (50-76 ns each, so one pair of work) and
    the bytes of the per-time and per-mode arrays go through
    ``trajectory.check_work`` before the first block.
    """
    t = nonnegative_times(t)
    flat = t.reshape(-1)
    check_work(flat.size * spec.N, 24 * flat.size + 64 * spec.N, spec.N, flat.size,
               "bath modes")
    gsq = spec.g * spec.g
    delta = spec.omega0 - spec.omega
    dsq = delta * delta
    # a zero here is a resonance or an underflow, whose terms take t^2/2
    vanished = dsq == 0.0
    dsq[vanished] = 1.0
    gamma_1 = np.empty(flat.size)
    gamma_d = np.empty(flat.size)
    rows = max(1, _BLOCK_ELEMENTS // spec.N)
    for start in range(0, flat.size, rows):
        block = slice(start, start + rows)
        tb = flat[block, None]
        x = delta * tb
        s = np.sin(0.5 * x)
        versin = 2.0 * s * s / dsq
        ax = np.abs(x)
        lead = (ax < _SMALL_PHASE) | vanished
        if np.any(lead):
            versin[lead] = np.broadcast_to(0.5 * tb * tb, x.shape)[lead]
        arc = (x - np.sin(x)) / dsq
        near = ax < 1.0
        if np.any(near):
            xn = x[near]
            u = xn * xn
            series = _ARC_SERIES[0]
            for c in _ARC_SERIES[1:]:
                series = series * u + c
            arc[near] = xn * np.broadcast_to(tb * tb, x.shape)[near] * series
        gamma_1[block] = 2.0 * np.sum(gsq * versin, axis=-1)
        gamma_d[block] = np.sum(gsq * arc, axis=-1)
    return gamma_1.reshape(t.shape)[()], gamma_d.reshape(t.shape)[()]


@dataclass(frozen=True)
class SmeRates:
    """Time-dependent rates and Lamb-shift Hamiltonian of the master equation.

    ``Gamma_d(t) = (sum g)^2 t`` exactly (linear in t); all three vanish at
    t = 0, where the Lamb shift reduces to (omega_r/2) sigma_z.
    """

    Gamma_d: Callable[[float], float]
    Gamma_0: Callable[[float], float]
    lamb_shift: Callable[[float], np.ndarray]


def sme_rates(spec: SpinBathSpec) -> SmeRates:
    """Construct the rate functions for a given bath specification.

    A mode whose phase delta_k t is below ``_SMALL_PHASE`` takes the kernels'
    leading terms: a mode at exact resonance contributes g_k^2 t to Gamma_0
    and nothing to the Lamb shift.  For small t, Gamma_0(t) -> t sum_k g_k^2.
    """
    g = spec.g
    delta = spec.omega0 - spec.omega
    gsum = float(np.sum(g))
    omega_r = spec.omega0 - gsum
    gsq = g * g

    h_base = (omega_r / 2.0) * SIGMA_Z

    def gamma_d(t: float) -> float:
        return gsum * gsum * t

    def gamma_0(t: float) -> float:
        return float(np.sum(gsq * _sin_over(delta, t)))

    def lamb_shift(t: float) -> np.ndarray:
        lam = float(np.sum(gsq * _versin_over(delta, t)))
        return h_base + lam * _PROJ0

    return SmeRates(gamma_d, gamma_0, lamb_shift)


def _sme_generator(spec: SpinBathSpec):
    rates = sme_rates(spec)

    def rhs(t: float, rho: np.ndarray) -> np.ndarray:
        h = rates.lamb_shift(t)
        out = -1j * (h @ rho - rho @ h)
        out = out + rates.Gamma_d(t) * dissipator(SIGMA_Z, rho)
        out = out + rates.Gamma_0(t) * dissipator(SIGMA_MINUS, rho)
        return out

    return rhs


def _refine_factor(rates: SmeRates, grid: TimeGrid) -> int:
    """Fine RK4 steps per grid step for the oracle :func:`_integrate_sme_matrix`.

    Keeps max(Gamma_d) * step below ``_GAMMA_D_STEP`` and the step below
    0.05 over the largest rate sampled at eight points of the grid.
    """
    gd_max = abs(rates.Gamma_d(grid.t1))
    sample = np.linspace(grid.dt, grid.t1, 8)
    rate_scale = max(
        abs(float(np.max(np.abs(rates.lamb_shift(t))))) + 4.0 * abs(rates.Gamma_d(t))
        + 2.0 * abs(rates.Gamma_0(t))
        for t in sample
    )
    h_target = min(
        _GAMMA_D_STEP / gd_max if gd_max > 0 else math.inf,
        0.05 / rate_scale if rate_scale > 0 else math.inf,
    )
    return max(1, int(math.ceil(grid.dt / h_target))) if math.isfinite(h_target) else 1


def _integrate_sme_matrix(
    spec: SpinBathSpec, rot: RotatedAmplitudes, grid: TimeGrid, refine: int
) -> np.ndarray:
    """Oracle path: the full 2x2 generator stepped by :func:`integrate_master`.

    Classic RK4 on a grid ``refine`` times finer than ``grid``, one Python
    step at a time, from the prepared state at t = 0, so ``grid`` must
    start there; returns the (T, 2, 2) states at ``grid.times``.
    :func:`_refine_factor` gives the step the checks use.  It shares no
    code with the closed-form channels of :func:`integrate_sme`, which it
    is kept to check.
    """
    if grid.t0 != 0.0:
        raise ValueError(f"the RK4 oracle starts at the preparation, t = 0, not {grid.t0}")
    # |psi><psi| of psi = (beta, alpha), each entry as numpy's outer product forms it
    b, a = rot.beta, rot.alpha
    rho0 = DensityMatrix2.from_parts((b * b.conjugate()).real, (a * a.conjugate()).real,
                                     b * a.conjugate())
    fine = TimeGrid(grid.t0, grid.t1, grid.steps * refine)
    return integrate_master(rho0, _sme_generator(spec), fine)[::refine]


def integrate_sme(spec: SpinBathSpec, rot: RotatedAmplitudes, t) -> DensityMatrix2:
    """Exact solution of the master equation from the rotated state, at time(s) t.

    Times count from the preparation, where the rates start, so each must be
    finite and >= 0.  Both channels integrate in closed form over the whole
    time array,

        rho00 = |beta|^2 exp(-gamma_1),
        rho11 = |alpha|^2 - |beta|^2 expm1(-gamma_1),
        rho01 = beta alpha* exp(-i (omega_r t + gamma_d)
                                - 2 (sum g)^2 t^2 - gamma_1 / 2),

    where gamma_1 = 2 int Gamma_0 and gamma_d = int Lambda come from one
    pass of :func:`channel_exponents`, which refuses a bath and grid over
    its work cap with WorkBudgetError.  rho11 is formed with expm1, not as
    1 - rho00, so it keeps its relative accuracy when it is small; a
    coherence below the smallest normal double is set to 0.  An array ``t``
    gives one batched state with an entry per time, each computed on its own.
    """
    t = nonnegative_times(t)
    gamma_1, gamma_d = channel_exponents(spec, t)
    gsum = float(np.sum(spec.g))
    omega_r = spec.omega0 - gsum
    p_beta = abs(rot.beta) ** 2
    coh = rot.beta * np.conj(rot.alpha) * np.exp(
        -1j * (omega_r * t + gamma_d) - (2.0 * (gsum * t) ** 2 + 0.5 * gamma_1)
    )
    coh = np.where(np.abs(coh) < _TINY, 0.0, coh)
    return DensityMatrix2.from_parts(
        p_beta * np.exp(-gamma_1), abs(rot.alpha) ** 2 - p_beta * np.expm1(-gamma_1), coh
    )


def sme_analytic(spec: SpinBathSpec, rot: RotatedAmplitudes, t) -> DensityMatrix2:
    """The claimed closed-form state at time(s) t.

    Entries are (|beta|^2 G1, alpha* beta G2; c.c., 1 - |beta|^2 G1) with
    G1 = exp(-gamma_1) and G2 = exp(-2 i gamma_d) exp(-(sum g)^2 t^2 / 2),
    the exponents of :func:`channel_exponents`; G1(0) = G2(0) = 1 and
    |G2| = exp(-(sum g)^2 t^2 / 2) exactly.  The form is positive
    semidefinite for nonnegative couplings (then |G2|^2 <= G1);
    construction fails loudly otherwise.  An array ``t`` gives one batched
    state with an entry per time; negative times are refused.
    """
    t = nonnegative_times(t)
    gamma_1, gamma_d = channel_exponents(spec, t)
    gsum = float(np.sum(spec.g))
    p0 = abs(rot.beta) ** 2 * np.exp(-gamma_1)
    g2 = np.exp(-2j * gamma_d) * np.exp(-0.5 * (gsum * t) ** 2)
    return DensityMatrix2.from_parts(p0, 1.0 - p0, np.conj(rot.alpha) * rot.beta * g2)


def sme_discrepancy_report(
    spec: SpinBathSpec, rot: RotatedAmplitudes, t
) -> tuple[Trajectory, float]:
    """Per-time gap between the master equation's solution and the closed form.

    Scores :func:`integrate_sme`'s coherence at the strictly increasing
    times ``t`` against :func:`sme_analytic`'s.  The solved coherence is
    moved to the frame rotating at omega_r before comparison (the closed
    form carries no free phase), so the phase channel isolates the
    Lamb-shift-induced part.  Returns the Trajectory of the columns
    ``cohMagDev`` and ``cohPhaseDev`` (NaN where either coherence is below
    1e-12 |alpha* beta|) and kappa, the least-squares constant such that
    the solved coherence magnitude decays like exp(-kappa (sum g)^2 t^2 / 2):
    the closed form corresponds to kappa = 1, the master equation's
    dephasing dissipator to kappa = 4, and the fitted value also absorbs the
    (smaller) jump-channel damping.  kappa is NaN when no time point has a
    coherence to fit; it is reported as data, never asserted.  The
    population channel has no column: the solved rho00 is the closed form's
    |beta|^2 exp(-gamma_1) by construction, and the RK4 oracle
    (:func:`_integrate_sme_matrix`) is what checks it.  A bath whose closed
    form is not a state (couplings of mixed sign can make it one) is
    refused, as :func:`sme_analytic` refuses it.
    """
    times = nonnegative_times(t)
    gsum = float(np.sum(spec.g))
    omega_r = spec.omega0 - gsum
    coh_int = integrate_sme(spec, rot, times).coherence * np.exp(1j * omega_r * times)
    coh_ana = sme_analytic(spec, rot, times).coherence
    c0 = np.conj(rot.alpha) * rot.beta
    mag_dev = np.abs(np.abs(coh_int) - np.abs(coh_ana))

    floor = 1e-12 * max(abs(c0), 1e-300)
    defined = (np.abs(coh_int) > floor) & (np.abs(coh_ana) > floor)
    phase_dev = np.full(times.shape, np.nan)
    phase_dev[defined] = np.abs(np.angle(coh_int[defined] * np.conj(coh_ana[defined])))

    x = 0.5 * (gsum * times) ** 2
    valid = (times > 0) & (np.abs(coh_int) > floor) & (x > 0)
    if abs(c0) > 0 and np.any(valid):
        y = -np.log(np.abs(coh_int[valid]) / abs(c0))
        kappa = float(np.sum(x[valid] * y) / np.sum(x[valid] ** 2))
    else:
        kappa = math.nan

    return Trajectory(times, {"cohMagDev": mag_dev, "cohPhaseDev": phase_dev}), kappa
