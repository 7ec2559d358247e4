"""Measurement-as-decoherence models for a single qubit.

Two contrasting bath models are implemented side by side, each with analytic
solutions and independent numerical oracles:

* fixed-axis dephasing by a bosonic bath — Markovian closed form, the
  isotropic three-channel comparison model, and the non-Markovian solution
  for a bath prepared in correlation with the system (:mod:`.lindblad`,
  :mod:`.dephasing_nm`);
* the Heisenberg central-spin model with a polarized spin bath — exact
  single-excitation-sector dynamics, a 2^(N+1) brute-force oracle, and the
  non-Markovian master equation with time-dependent rates
  (:mod:`.central_spin`, :mod:`.central_spin_nm`).

Both share the states of :mod:`.qstate` and the grids of :mod:`.trajectory`;
a measurement's outcome is read off the dynamics, not applied as operators.

:mod:`.cli` turns configs into CSV trajectories; see the README for usage.
"""

from . import central_spin, central_spin_nm, dephasing_nm, lindblad, qstate
from .errors import (
    ConfigError,
    DegenerateParametersError,
    NormalizationError,
    QuadratureError,
    TraceDriftError,
    WorkBudgetError,
)
from .qstate import DensityMatrix2, QubitAmplitudes
from .trajectory import RhoTrajectory, TimeGrid, Trajectory

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "qstate",
    "lindblad",
    "dephasing_nm",
    "central_spin",
    "central_spin_nm",
    "DensityMatrix2",
    "QubitAmplitudes",
    "TimeGrid",
    "Trajectory",
    "RhoTrajectory",
    "NormalizationError",
    "QuadratureError",
    "DegenerateParametersError",
    "TraceDriftError",
    "WorkBudgetError",
    "ConfigError",
]
