"""Markovian dephasing, the isotropic comparison model, and the RK4 oracle.

The integrator here is deliberately a plain fixed-step classic Runge-Kutta
scheme: deterministic, reproducible trajectories matter more than speed at
2x2 scale, and every analytic solution in the package is cross-checked
against it.  It remains the generic oracle: the central-spin master
equation's production path evaluates the exact solution of its two
decoupled channels, and is tested against :func:`integrate_master`
stepping the full 2x2 generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TraceDriftError
from .qstate import DensityMatrix2, QubitAmplitudes, SIGMA_X, SIGMA_Y, SIGMA_Z
from .trajectory import TimeGrid, nonnegative_times

__all__ = [
    "DephasingParams",
    "dissipator",
    "dephasing_generator",
    "isotropic_generator",
    "evolve_dephasing_markov",
    "evolve_isotropic_markov",
    "integrate_master",
]

#: Trace drift above this aborts an integration run.
TRACE_ABORT = 1e-6

Generator = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DephasingParams:
    """Dephasing rate and optional qubit splitting.

    ``gamma`` is the decay rate of the coherence magnitude: the off-diagonal
    element evolves as ``a b* exp(-i omega0 t) exp(-gamma t)``.  The default
    ``omega0 = 0`` works in the frame where the free phase is absorbed
    (interaction picture); set ``omega0`` to restore the lab-frame phase.
    """

    gamma: float
    omega0: float = 0.0

    def __post_init__(self):
        _check_rate(self.gamma)
        if not np.isfinite(self.omega0):
            raise ValueError("omega0 must be finite")

    @property
    def phase_frequency(self) -> float:
        """|omega0|, the one frequency whose phase omega0 t the coherence takes."""
        return abs(self.omega0)


def _check_rate(gamma: float) -> None:
    if not (gamma >= 0 and np.isfinite(gamma)):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")


def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad superoperator L[O, rho] = 2 O rho O^dag - O^dag O rho - rho O^dag O.

    The result is Hermitian and traceless for Hermitian rho.
    """
    op = np.asarray(op, dtype=complex)
    od = op.conj().T
    odo = od @ op
    return 2.0 * (op @ rho @ od) - odo @ rho - rho @ odo


def dephasing_generator(params: DephasingParams) -> Generator:
    """Right-hand side whose exact solution is :func:`evolve_dephasing_markov`.

    The dissipative part is (gamma/4) L[sigma_z, rho]; because
    L[sigma_z, rho] multiplies the off-diagonal entries by -4, this
    normalization makes the coherence decay at rate exactly ``gamma``.
    """
    gamma, omega0 = params.gamma, params.omega0
    h = (omega0 / 2.0) * SIGMA_Z

    def rhs(t: float, rho: np.ndarray) -> np.ndarray:
        out = (gamma / 4.0) * dissipator(SIGMA_Z, rho)
        if omega0 != 0.0:
            out = out - 1j * (h @ rho - rho @ h)
        return out

    return rhs


def isotropic_generator(gamma: float) -> Generator:
    """Right-hand side (gamma/2) (L[sx] + L[sy] + L[sz]).

    Expanding the three dissipators contracts the whole Bloch vector at rate
    4*gamma, so the solution is rho(t) = I/2 + exp(-4 gamma t) (rho0 - I/2).
    """
    _check_rate(gamma)

    def rhs(t: float, rho: np.ndarray) -> np.ndarray:
        return (gamma / 2.0) * (
            dissipator(SIGMA_X, rho)
            + dissipator(SIGMA_Y, rho)
            + dissipator(SIGMA_Z, rho)
        )

    return rhs


def evolve_dephasing_markov(psi0: QubitAmplitudes, params: DephasingParams, t) -> DensityMatrix2:
    """Closed-form Markovian dephasing of a pure initial state, at time(s) ``t``.

    Populations stay at (|a|^2, |b|^2) for all times; the coherence is
    ``a b* exp(-i omega0 t) exp(-gamma t)``.  For gamma*t >> 1 the state is
    the statistical mixture diag(|a|^2, |b|^2): the measurement fixed point.
    An array ``t`` gives one batched state with an entry per time.
    """
    t = nonnegative_times(t)
    a, b = psi0.a, psi0.b
    coh = a * np.conj(b) * np.exp(-1j * params.omega0 * t) * np.exp(-params.gamma * t)
    return DensityMatrix2.from_parts(abs(a) ** 2, abs(b) ** 2, coh)


def evolve_isotropic_markov(rho0: DensityMatrix2, gamma: float, t) -> DensityMatrix2:
    """Closed-form isotropic decoherence: Bloch vector shrinks by exp(-4 gamma t).

    The maximally mixed state I/2 is the fixed point for every initial state.
    An array ``t`` gives one batched state with an entry per time.
    """
    t = nonnegative_times(t)
    _check_rate(gamma)
    f = np.exp(-4.0 * (gamma * t))  # not (-4 gamma) t: -inf * 0 at gamma = 1e308
    return DensityMatrix2.from_parts(
        0.5 + f * (rho0.rho00 - 0.5),
        0.5 + f * (rho0.rho11 - 0.5),
        f * rho0.coherence,
    )


def _check_generator_contract(rhs: Generator, t0: float, rho0: np.ndarray) -> None:
    d0 = np.asarray(rhs(t0, rho0), dtype=complex)
    if d0.shape != (2, 2):
        raise ValueError(f"generator must return a 2x2 matrix, got shape {d0.shape}")
    tr = abs(np.trace(d0))
    herm = float(np.max(np.abs(d0 - d0.conj().T)))
    scale = max(1.0, float(np.max(np.abs(d0))))
    if tr > 1e-10 * scale:
        raise ValueError(f"generator is not trace-free at rho0 (|trace| {tr:.3e})")
    if herm > 1e-10 * scale:
        raise ValueError(
            f"generator does not preserve Hermiticity at rho0 (deviation {herm:.3e})"
        )


def integrate_master(rho0: DensityMatrix2, rhs: Generator, grid: TimeGrid) -> np.ndarray:
    """Fixed-step 4th-order Runge-Kutta integration of d(rho)/dt = rhs(t, rho).

    Returns the (T, 2, 2) complex stack of states at ``grid.times``.  The
    generator must be trace-free and Hermiticity-preserving (checked at
    the initial state).  Trace drift beyond :data:`TRACE_ABORT`, or a NaN
    trace, at any step aborts with :class:`~decobath.errors.TraceDriftError`.
    """
    rho = rho0.matrix
    _check_generator_contract(rhs, grid.t0, rho)
    times = grid.times
    h = grid.dt
    out = np.empty((times.size, 2, 2), dtype=complex)
    out[0] = rho
    for i in range(grid.steps):
        t = times[i]
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * h, rho + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, rho + (0.5 * h) * k2)
        k4 = rhs(t + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = abs(rho[0, 0].real + rho[1, 1].real - 1.0)
        if not drift <= TRACE_ABORT:
            raise TraceDriftError(drift, times[i + 1], TRACE_ABORT)
        out[i + 1] = rho
    return out
