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
the direct integration steps two scalar linear equations,

    rho00' = -2 Gamma_0 rho00,
    rho01' = (-i (omega_r + Lambda) - 4 Gamma_d - Gamma_0) rho01,

with classic RK4, vectorized over the steps; rho11 collects what leaves
rho00.  The module carries both that integration and the equation's claimed
closed-form solution; the two population channels agree to integrator
accuracy, while the coherence channels differ by a constant factor on the
dephasing exponent.  That gap is deliberately not patched:
:func:`sme_discrepancy_report` quantifies it instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .central_spin import RotatedAmplitudes, SpinBathSpec
from .errors import StepBudgetError, TraceDriftError
from .lindblad import TRACE_ABORT, dissipator, integrate_master
from .qstate import DensityMatrix2, SIGMA_MINUS, SIGMA_Z
from .trajectory import RhoTrajectory, TimeGrid, Trajectory

__all__ = [
    "MAX_SME_STEPS",
    "SmeRates",
    "SmeSolution",
    "SmeDiscrepancyReport",
    "sme_rates",
    "integrate_sme",
    "sme_analytic_solution",
    "sme_analytic",
    "sme_discrepancy_report",
]

#: Detunings below this switch to Taylor series of the oscillatory kernels.
_RESONANCE_EPS = 1e-10
#: Internal RK4 step ceiling: max over the grid of Gamma_d times the step.
_GAMMA_D_STEP = 1e-3
#: Largest fine RK4 step count (grid steps times refine factor) a run may take;
#: larger runs are refused before any array is allocated.  On one Xeon core a
#: step costs ~1.4 us for eight modes and ~9 us for a hundred, so the cap is
#: 15-90 s of work (the README's bath under central-sme needs 3.3 M steps).
MAX_SME_STEPS = 10_000_000
#: Mode-time products evaluated per block of fine steps, so memory stays flat
#: however many steps a run takes.
_BLOCK_ELEMENTS = 1 << 13
_TINY = np.finfo(float).tiny

_PROJ0 = np.diag([1.0, 0.0]).astype(complex)


def _sin_over(delta: np.ndarray, t) -> np.ndarray:
    """sin(delta t)/delta with a 3-term series across resonances; t may be an array.

    The series is evaluated only when some detuning is resonant: its x**4
    term costs several times the sine.
    """
    small = np.abs(delta) < _RESONANCE_EPS
    safe = np.where(small, 1.0, delta)
    x = delta * t
    out = np.sin(x) / safe
    if np.any(small):
        series = t * (1.0 - x * x / 6.0 + x**4 / 120.0)
        out = np.where(small, series, out)
    return out


def _versin_over(delta: np.ndarray, t) -> np.ndarray:
    """(1 - cos(delta t))/delta with a 3-term series across resonances; t may be an array."""
    small = np.abs(delta) < _RESONANCE_EPS
    safe = np.where(small, 1.0, delta)
    x = delta * t
    s = np.sin(0.5 * x)
    out = 2.0 * s * s / safe
    if np.any(small):
        series = delta * t * t * 0.5 * (1.0 - x * x / 12.0 + x**4 / 360.0)
        out = np.where(small, series, out)
    return out


def _versin_over_sq(delta: np.ndarray, t) -> np.ndarray:
    """(1 - cos(delta t))/delta^2, series across resonances; t may be an array."""
    small = np.abs(delta) < _RESONANCE_EPS
    safe = np.where(small, 1.0, delta)
    x = delta * t
    series = 0.5 * t * t * (1.0 - x * x / 12.0 + x**4 / 360.0)
    s = np.sin(0.5 * x)
    return np.where(small, series, 2.0 * s * s / (safe * safe))


def _arc_minus_sin_over_sq(delta: np.ndarray, t) -> np.ndarray:
    """(delta t - sin(delta t))/delta^2, series across resonances."""
    small = np.abs(delta) < _RESONANCE_EPS
    safe = np.where(small, 1.0, delta)
    x = delta * t
    series = delta * t**3 / 6.0 * (1.0 - x * x / 20.0 + x**4 / 840.0)
    return np.where(small, series, (x - np.sin(x)) / (safe * safe))


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

    Resonant modes (detuning below 1e-10) are evaluated by series: a mode at
    exact resonance contributes g_k^2 t to Gamma_0 and nothing to the Lamb
    shift.  For small t, Gamma_0(t) -> t sum_k g_k^2.
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

    return rhs, rates


def _refine_factor(rates: SmeRates, grid: TimeGrid) -> int:
    """Fine RK4 steps per grid step.

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


def _rk4_increment(a1: np.ndarray, a2: np.ndarray, a4: np.ndarray, h: float) -> np.ndarray:
    """R - 1 for classic RK4 steps of y' = a(t) y.

    ``a1``, ``a2`` and ``a4`` are the rates at each step's start, midpoint and
    end; one step maps y to R y.
    """
    k2 = a2 * (1.0 + (0.5 * h) * a1)
    k3 = a2 * (1.0 + (0.5 * h) * k2)
    k4 = a4 * (1.0 + h * k3)
    return (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_sme_matrix(
    spec: SpinBathSpec, rot: RotatedAmplitudes, grid: TimeGrid, refine: int
) -> RhoTrajectory:
    """Reference path: the full 2x2 generator stepped by :func:`integrate_master`.

    Same refined grid and RK4 scheme as :func:`integrate_sme`, one Python
    step at a time; kept as the oracle for the channel-wise integration.
    """
    psi = np.array([rot.beta, rot.alpha])
    rho0 = DensityMatrix2(np.outer(psi, psi.conj()))
    fine = integrate_master(rho0, _sme_generator(spec)[0], grid.refined(refine))
    return RhoTrajectory(fine.times[::refine], fine.states[::refine])


def integrate_sme(
    spec: SpinBathSpec, rot: RotatedAmplitudes, grid: TimeGrid
) -> RhoTrajectory:
    """Direct RK4 integration of the master equation from the rotated state.

    The grid must start at t = 0 (the rates are defined from the preparation
    time).  An internal refinement keeps max(Gamma_d) * step below 1e-3 and
    resolves the coherent rotation; the returned trajectory is sampled on the
    requested grid.  Each fine step multiplies rho00 and rho01 by their RK4
    amplification factors, formed from the rates at the step's start,
    midpoint and end; rho11 gains what rho00 loses, and a coherence below
    the smallest normal double is set to 0.  Runs of more than
    ``MAX_SME_STEPS`` fine steps raise :class:`~decobath.errors.StepBudgetError`
    up front; trace drift beyond 1e-6 at any fine step raises
    :class:`~decobath.errors.TraceDriftError`.
    """
    if grid.t0 != 0.0:
        raise ValueError("the master-equation grid must start at t = 0")
    refine = _refine_factor(sme_rates(spec), grid)
    total = grid.steps * refine
    if total > MAX_SME_STEPS:
        raise StepBudgetError(total, refine, MAX_SME_STEPS)

    psi = np.array([rot.beta, rot.alpha])  # (|0>, |1>) components
    rho0 = DensityMatrix2(np.outer(psi, psi.conj())).matrix
    gsq = spec.g * spec.g
    delta = spec.omega0 - spec.omega
    gsum = float(np.sum(spec.g))
    omega_r = spec.omega0 - gsum
    h = grid.t1 / total  # the refined grid's step, as np.linspace computes it

    def channel_rates(t: np.ndarray):
        """Rates a(t) of rho00' = a rho00 and rho01' = a rho01, per time."""
        g0 = np.sum(gsq * _sin_over(delta, t[:, None]), axis=-1)
        lam = np.sum(gsq * _versin_over(delta, t[:, None]), axis=-1)
        gd = gsum * gsum * t
        return -2.0 * g0, -1j * (omega_r + lam) - 4.0 * gd - g0

    states = np.empty((grid.steps + 1, 2, 2), dtype=complex)
    states[0] = rho0
    pop, coh, stat = rho0[0, 0].real, rho0[0, 1], rho0[1, 1].real
    block = max(1, _BLOCK_ELEMENTS // spec.N)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total) + 1)
        t = idx * h  # bit-identical to the refined grid's times
        if idx[-1] == total:
            t[-1] = grid.t1
        pop_at, coh_at = channel_rates(t)
        pop_mid, coh_mid = channel_rates(t[:-1] + 0.5 * h)
        d_pop = _rk4_increment(pop_at[:-1], pop_mid, pop_at[1:], h)
        d_coh = _rk4_increment(coh_at[:-1], coh_mid, coh_at[1:], h)
        pops = np.cumprod(np.concatenate(([pop], 1.0 + d_pop)))
        cohs = np.cumprod(np.concatenate(([coh], 1.0 + d_coh)))[1:]
        # a subnormal coherence times R ~ 1 rounds back to itself and would
        # freeze there; flush it to the zero it is decaying towards
        cohs[np.abs(cohs) < _TINY] = 0.0
        stats = np.cumsum(np.concatenate(([stat], -d_pop * pops[:-1])))[1:]
        pops = pops[1:]
        drift = np.abs(pops + stats - 1.0)
        bad = np.flatnonzero(drift > TRACE_ABORT)
        if bad.size:
            raise TraceDriftError(float(drift[bad[0]]), float(t[bad[0] + 1]))
        kept = idx[1:] % refine == 0
        rows = idx[1:][kept] // refine
        states[rows, 0, 0] = pops[kept]
        states[rows, 1, 1] = stats[kept]
        states[rows, 0, 1] = cohs[kept]
        states[rows, 1, 0] = np.conj(cohs[kept])
        pop, coh, stat = pops[-1], cohs[-1], stats[-1]
    times = np.arange(0, total + 1, refine) * h
    times[-1] = grid.t1
    return RhoTrajectory(times, states)


@dataclass(frozen=True)
class SmeSolution:
    """Closed-form ingredients of the claimed analytic solution.

    ``G1(0) = G2(0) = 1`` and both stay inside the unit disc;
    ``|G2(t)| = exp(-(sum g)^2 t^2 / 2)`` exactly (the phase factor is
    unimodular).  All four callables accept scalars or arrays.
    """

    gamma_1: Callable[[np.ndarray], np.ndarray]
    gamma_d_phase: Callable[[np.ndarray], np.ndarray]
    G1: Callable[[np.ndarray], np.ndarray]
    G2: Callable[[np.ndarray], np.ndarray]


def sme_analytic_solution(spec: SpinBathSpec) -> SmeSolution:
    """Closed-form decay/phase functions, evaluated as finite mode sums.

    gamma_1(t) = 2 sum_k g_k^2 (1 - cos(delta_k t)) / delta_k^2,
    gamma_d(t) = sum_k g_k^2 (delta_k t - sin(delta_k t)) / delta_k^2,
    G1 = exp(-gamma_1),  G2 = exp(-2 i gamma_d) exp(-(sum g)^2 t^2 / 2).
    """
    g = spec.g
    gsq = g * g
    delta = spec.omega0 - spec.omega
    gsum = float(np.sum(g))

    def gamma_1(t):
        t = np.asarray(t, dtype=float)
        return 2.0 * np.sum(gsq * _versin_over_sq(delta, t[..., None]), axis=-1)

    def gamma_d(t):
        t = np.asarray(t, dtype=float)
        return np.sum(gsq * _arc_minus_sin_over_sq(delta, t[..., None]), axis=-1)

    def g1(t):
        return np.exp(-gamma_1(t))

    def g2(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-2j * gamma_d(t)) * np.exp(-0.5 * (gsum * t) ** 2)

    return SmeSolution(gamma_1, gamma_d, g1, g2)


def sme_analytic(
    spec: SpinBathSpec, rot: RotatedAmplitudes, t: float
) -> DensityMatrix2:
    """The claimed closed-form state at time t.

    Entries are (|beta|^2 G1, alpha* beta G2; c.c., 1 - |beta|^2 G1).  The
    form is positive semidefinite for nonnegative couplings (then
    |G2|^2 <= G1); construction fails loudly otherwise.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    sol = sme_analytic_solution(spec)
    p0 = abs(rot.beta) ** 2 * float(sol.G1(t))
    coh = np.conj(rot.alpha) * rot.beta * complex(sol.G2(t))
    return DensityMatrix2.from_parts(p0, 1.0 - p0, coh)


@dataclass
class SmeDiscrepancyReport:
    """Per-time gap between the integrated equation and the closed form.

    The integrated coherence is moved to the frame rotating at omega_r before
    comparison (the closed form carries no free phase), so the phase channel
    isolates the Lamb-shift-induced part.  ``best_fit_dephasing_factor`` is
    the least-squares constant kappa such that the integrated coherence
    magnitude decays like exp(-kappa * (sum g)^2 t^2 / 2): the closed form
    corresponds to kappa = 1, a direct expansion of the dephasing dissipator
    to kappa = 4, and the fitted value also absorbs the (smaller) jump-channel
    damping.  The factor is reported as data, never asserted.
    """

    times: np.ndarray
    population_deviation: np.ndarray
    coherence_magnitude_deviation: np.ndarray
    coherence_phase_deviation: np.ndarray
    best_fit_dephasing_factor: float

    def to_trajectory(self) -> Trajectory:
        return Trajectory(
            self.times,
            {
                "popDev": self.population_deviation,
                "cohMagDev": self.coherence_magnitude_deviation,
                "cohPhaseDev": self.coherence_phase_deviation,
            },
        )

    def summary(self) -> str:
        kappa = self.best_fit_dephasing_factor
        kappa_text = f"{kappa:.3g}" if np.isfinite(kappa) else "n/a"
        return (
            f"population channel max deviation {np.max(self.population_deviation):.3e}; "
            f"coherence magnitude max deviation "
            f"{np.max(self.coherence_magnitude_deviation):.3e}; "
            f"best-fit dephasing factor {kappa_text}"
        )

    def write_csv(self, path) -> None:
        self.to_trajectory().write_csv(path)


def sme_discrepancy_report(
    spec: SpinBathSpec, rot: RotatedAmplitudes, grid: TimeGrid
) -> SmeDiscrepancyReport:
    """Integrate the master equation and score it against the closed form."""
    traj = integrate_sme(spec, rot, grid)
    sol = sme_analytic_solution(spec)
    times = traj.times

    pop_int = traj.states[:, 0, 0].real
    pop_ana = abs(rot.beta) ** 2 * sol.G1(times)
    pop_dev = np.abs(pop_int - pop_ana)

    gsum = float(np.sum(spec.g))
    omega_r = spec.omega0 - gsum
    c0 = np.conj(rot.alpha) * rot.beta
    coh_int = traj.states[:, 0, 1] * np.exp(1j * omega_r * times)
    coh_ana = c0 * sol.G2(times)
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

    return SmeDiscrepancyReport(times, pop_dev, mag_dev, phase_dev, kappa)
