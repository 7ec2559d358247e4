"""Qubit states: amplitudes, validated 2x2 density matrices, Pauli matrices.

Spin convention (used by every module in this package)
------------------------------------------------------
Basis ordering is (|0>, |1>) with

    sigma_z |0> = +|0>,   sigma_z |1> = -|1>,
    sigma_plus |1> = |0>,  sigma_minus |0> = |1>,

so ``sigma_plus`` raises toward the higher-energy level of H = (omega0/2) sigma_z
and ``sigma_minus = sigma_plus^dag`` lowers.  Density matrices are indexed the
same way: ``rho[0, 0]`` is the |0> population and ``rho[0, 1] = <0|rho|1>``.

All arithmetic is IEEE double precision; no arbitrary-precision types are used.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError

#: Validation tolerance on analytically constructed states.
ATOL_ANALYTIC = 1e-12
#: Looser tolerance for states produced by numerical integration,
#: where integrator error dominates.
ATOL_INTEGRATED = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS):
    _m.setflags(write=False)
del _m


def unit_pair(x, y, names: tuple[str, str] = ("a", "b")) -> tuple[complex, complex]:
    """(x, y) as complex numbers, refused unless finite with |x|^2 + |y|^2 = 1
    within :data:`ATOL_ANALYTIC` (the norm by hypot, so 1e200 cannot overflow)."""
    x, y = complex(x), complex(y)
    for v in (x, y):
        if not cmath.isfinite(v):
            raise ValueError(f"amplitude must have finite components, got {v!r}")
    norm = math.hypot(x.real, x.imag, y.real, y.imag)
    deviation = abs(norm * norm - 1.0)
    if not deviation <= ATOL_ANALYTIC:
        raise NormalizationError(f"|{names[0]}|^2 + |{names[1]}|^2 must equal 1", deviation)
    return x, y


@dataclass(frozen=True)
class QubitAmplitudes:
    """Normalized amplitudes (a, b) of the pure state a|0> + b|1>."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = unit_pair(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def bloch_z(self) -> float:
        """<sigma_z> = |a|^2 - |b|^2."""
        return abs(self.a) ** 2 - abs(self.b) ** 2


class DensityMatrix2:
    """A validated 2x2 density matrix, or a batch of them validated in one call.

    The one constructor is :meth:`from_parts`: two real populations and the
    complex (0, 1) coherence, so Hermiticity holds exactly by construction
    (``DensityMatrix2(matrix)`` is a TypeError).  Construction checks, for
    every element of a batch,

    * finite parts,
    * unit trace within ``atol``,
    * positive semidefiniteness: populations and determinant above ``-atol``.

    ``atol`` defaults to :data:`ATOL_ANALYTIC`; paths that go through a
    numerical integrator should pass :data:`ATOL_INTEGRATED`.  Scalar parts
    give scalar properties; array parts (e.g. one entry per time point) give
    array properties of their broadcast shape, and :attr:`matrix` then has
    shape ``(..., 2, 2)``.
    """

    __slots__ = ("_p0", "_p1", "_coh")

    @classmethod
    def from_parts(cls, p0, p1, coherence, *, atol: float = ATOL_ANALYTIC) -> "DensityMatrix2":
        """Build from the populations and the (0,1) coherence entry.

        The three parts broadcast against each other; one call validates a
        whole trajectory.
        """
        p0, p1, coherence = np.broadcast_arrays(
            np.asarray(p0, dtype=float), np.asarray(p1, dtype=float),
            np.asarray(coherence, dtype=complex))
        if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
            raise ValueError("populations must be finite")
        if not (np.all(np.isfinite(coherence.real)) and np.all(np.isfinite(coherence.imag))):
            raise ValueError("coherence must have finite components")
        trace_dev = np.abs(p0 + p1 - 1.0)
        if np.any(trace_dev > atol):
            raise ValueError(f"trace must equal 1 (deviation {np.max(trace_dev):.3e})")
        det = p0 * p1 - np.abs(coherence) ** 2
        bad = (p0 < -atol) | (p1 < -atol) | (det < -atol)
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(
                f"matrix is not positive semidefinite "
                f"(populations {p0[i]:.3e}, {p1[i]:.3e}, det {det[i]:.3e})"
            )
        self = object.__new__(cls)
        self._p0, self._p1, self._coh = p0[()], p1[()], coherence[()]
        return self

    @property
    def rho00(self):
        return self._p0

    @property
    def rho11(self):
        return self._p1

    @property
    def coherence(self):
        """The (0, 1) entry <0|rho|1>."""
        return self._coh

    @property
    def matrix(self) -> np.ndarray:
        """A fresh complex array of shape ``(..., 2, 2)``."""
        m = np.empty(np.shape(self._p0) + (2, 2), dtype=complex)
        m[..., 0, 0], m[..., 1, 1] = self._p0, self._p1
        m[..., 0, 1], m[..., 1, 0] = self._coh, np.conj(self._coh)
        return m

    def isclose(self, other: "DensityMatrix2", atol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self._p0 - other._p0) <= atol)
                    and np.all(np.abs(self._p1 - other._p1) <= atol)
                    and np.all(np.abs(self._coh - other._coh) <= atol))

    def __repr__(self) -> str:
        return (f"DensityMatrix2(rho00={self._p0!r}, rho11={self._p1!r}, "
                f"coherence={self._coh!r})")


def density_from_amplitudes(psi: QubitAmplitudes) -> DensityMatrix2:
    """Rank-1 density matrix |psi><psi| of a pure state."""
    a, b = psi.a, psi.b
    return DensityMatrix2.from_parts(abs(a) ** 2, abs(b) ** 2, a * np.conj(b))
