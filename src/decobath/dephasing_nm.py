"""Non-Markovian dephasing with a system-correlated thermal bath.

The reduced state keeps its populations (|a|^2, |b|^2) forever; everything
happens to the coherence, which picks up a phase shift chi(t) and a decay
exponent gamma(t) = gamma_thermal(t) + gamma_corr(t):

    rho01(t) = a b* exp(-i (omega0 t + chi(t))) exp(-gamma(t))

``gamma_thermal`` is the familiar vacuum/thermal dephasing integral;
``gamma_corr`` and ``chi`` exist only because the bath was prepared in a
state that depends on the system (projecting a global thermal state), and
both are driven by the phase-shift integral

    Phi(t) = int_0^inf dw J(w) sin(w t) / w^2 .

Spectral-density normalization: J(w) absorbs the squared-coupling weight, so
a bath of discrete modes corresponds to J(w) = sum_k 4 |g_k|^2 delta(w - w_k)
in the continuum limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import exp1

from .errors import (
    DegenerateParametersError,
    QuadratureError,
    SingularCorrelationError,
)
from .qstate import DensityMatrix2, QubitAmplitudes

__all__ = [
    "SpectralDensity",
    "CorrelatedBathParams",
    "DecoherenceFactors",
    "phi",
    "gamma_thermal",
    "gamma_corr",
    "chi",
    "decoherence_factors",
    "rho_correlated",
    "rho_uncorrelated",
]

# Quadrature targets: relative 1e-9 with a small absolute floor for values
# near zero.  The subdivision limit accommodates integrands with several
# hundred oscillation periods over the truncated support.
_REL_TOL = 1e-9
_ABS_FLOOR = 1e-12
_QUAD_LIMIT = 2500
#: Ohmic support is truncated at this many cutoff widths; the remainder is
#: covered by an analytic exponential-tail bound folded into the error budget.
_OHMIC_SPAN = 50.0


class SpectralDensity:
    """Bath spectral density J(w) on w >= 0.

    Two families are supported:

    * ``ohmic``: J(w) = eta * w * exp(-w / omega_c),
    * ``tabulated``: linear interpolation of sorted (w, J) samples, zero
      outside the sampled range.
    """

    __slots__ = ("family", "eta", "omega_c", "_omega", "_values")

    def __init__(self):
        raise TypeError("use SpectralDensity.ohmic / .tabulated / .from_csv")

    @classmethod
    def ohmic(cls, eta: float, omega_c: float) -> "SpectralDensity":
        if not np.isfinite(eta) or eta < 0:
            raise ValueError(f"eta must be finite and >= 0, got {eta}")
        if not np.isfinite(omega_c) or omega_c <= 0:
            raise ValueError(f"omega_c must be finite and > 0, got {omega_c}")
        self = object.__new__(cls)
        self.family = "ohmic"
        self.eta = float(eta)
        self.omega_c = float(omega_c)
        self._omega = None
        self._values = None
        return self

    @classmethod
    def tabulated(cls, omega, values) -> "SpectralDensity":
        omega = np.asarray(omega, dtype=float)
        values = np.asarray(values, dtype=float)
        if omega.ndim != 1 or omega.shape != values.shape or omega.size < 2:
            raise ValueError("need matching 1-d arrays with at least 2 samples")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated samples must be finite")
        if not np.all(np.diff(omega) > 0):
            raise ValueError("tabulated grid must be strictly increasing in omega")
        if omega[0] < 0:
            raise ValueError("spectral density support must satisfy omega >= 0")
        if np.any(values < 0):
            raise ValueError("J(omega) must be >= 0 on its support")
        if omega[0] == 0.0 and values[0] != 0.0:
            raise ValueError("J must vanish at omega = 0 (integrals diverge otherwise)")
        self = object.__new__(cls)
        self.family = "tabulated"
        self.eta = None
        self.omega_c = None
        self._omega = omega
        self._values = values
        return self

    @classmethod
    def from_csv(cls, path) -> "SpectralDensity":
        """Load a tabulated density from a two-column CSV file (omega, J)."""
        data = np.loadtxt(path, delimiter=",", dtype=float, comments="#")
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (omega, J)")
        return cls.tabulated(data[:, 0], data[:, 1])

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.family == "ohmic":
            out = self.eta * omega * np.exp(-np.clip(omega, 0, None) / self.omega_c)
            return np.where(omega >= 0, out, 0.0)
        return np.interp(omega, self._omega, self._values, left=0.0, right=0.0)

    def ratio(self, w: float) -> float:
        """J(w)/w for scalar w > 0, stable down to subnormal w."""
        if self.family == "ohmic":
            return self.eta * math.exp(-w / self.omega_c)
        return float(np.interp(w, self._omega, self._values, left=0.0, right=0.0)) / w

    # quadrature support ---------------------------------------------------

    def _quad_interval(self):
        if self.family == "ohmic":
            return 0.0, _OHMIC_SPAN * self.omega_c, None
        interior = self._omega[1:-1]
        return self._omega[0], self._omega[-1], (list(interior) if interior.size else None)

    def _tail_bound(self, coth_cap: float) -> float:
        """Bound on the neglected integral above the truncation point.

        Uses |oscillatory factor| <= 2/w^2 * w = 2/w and the exponential
        envelope, giving 2 * eta * coth_cap * E1(span).
        """
        if self.family == "tabulated":
            return 0.0
        return 2.0 * self.eta * coth_cap * float(exp1(_OHMIC_SPAN))


@dataclass(frozen=True)
class CorrelatedBathParams:
    """Parameters of the system-correlated thermal preparation.

    ``beta`` is the inverse temperature; ``math.inf`` is the explicit
    zero-temperature flag (coth -> 1).  ``sigma_z_expect`` is <sigma_z> of the
    system state used in the preparation; :func:`rho_correlated` recomputes it
    from the amplitudes rather than trusting this field.
    """

    J: SpectralDensity
    beta: float
    omega0: float
    sigma_z_expect: float

    def __post_init__(self):
        if math.isnan(self.beta) or self.beta <= 0:
            raise ValueError(f"beta must be > 0 (inf = zero temperature), got {self.beta}")
        if not np.isfinite(self.omega0):
            raise ValueError("omega0 must be finite")
        if not np.isfinite(self.sigma_z_expect) or abs(self.sigma_z_expect) > 1 + 1e-12:
            raise ValueError(f"sigma_z_expect must lie in [-1, 1], got {self.sigma_z_expect}")
        if math.isinf(self.beta) and self.omega0 == 0.0:
            raise DegenerateParametersError(
                "zero temperature with omega0 = 0 leaves the preparation undefined"
            )


def _coth(x: float) -> float:
    """coth(x) for x > 0; series below 1e-4 avoids amplified rounding."""
    if x >= 1e-4:
        return 1.0 / math.tanh(x)
    return 1.0 / x + x / 3.0 - x**3 / 45.0


def _spectral_quad(J: SpectralDensity, f, coth_cap: float) -> float:
    lo, hi, pts = J._quad_interval()
    with warnings.catch_warnings():
        # accuracy is judged from the returned error estimate below
        warnings.simplefilter("ignore", IntegrationWarning)
        val, abserr = quad(f, lo, hi, points=pts, limit=_QUAD_LIMIT,
                           epsabs=1e-13, epsrel=1e-12)
    err = abserr + J._tail_bound(coth_cap)
    if err > _REL_TOL * abs(val) + _ABS_FLOOR:
        raise QuadratureError(
            f"estimated error {err:.3e} exceeds target for value {val:.6e}"
        )
    return val


def phi(t: float, J: SpectralDensity) -> float:
    """Phase-shift integral Phi(t) = int_0^inf dw J(w) sin(w t) / w^2.

    Phi(0) = 0 and the integrand is odd in t.  For the Ohmic family this
    equals eta * arctan(omega_c t).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0

    def f(w: float) -> float:
        if w <= 0.0:
            return 0.0
        # J(w)/w * sin(w t)/w; sin(x)/x is cancellation-free near zero
        return J.ratio(w) * math.sin(w * t) / w

    return _spectral_quad(J, f, coth_cap=1.0)


def gamma_thermal(t: float, J: SpectralDensity, beta: float) -> float:
    """Thermal dephasing exponent int dw J(w) (1 - cos w t)/w^2 coth(beta w / 2).

    ``beta = math.inf`` selects zero temperature (coth -> 1).  The value is
    nonnegative; it is not monotone for oscillatory spectral densities.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if math.isnan(beta) or beta <= 0:
        raise ValueError(f"beta must be > 0 (inf = zero temperature), got {beta}")
    if t == 0.0:
        return 0.0
    zero_temperature = math.isinf(beta)

    def f(w: float) -> float:
        if w <= 0.0:
            return 0.0
        s = math.sin(0.5 * w * t)
        base = J.ratio(w) * 2.0 * s * s / w  # J(w) (1-cos wt)/w^2, cancellation-free
        if zero_temperature:
            return base
        return base * _coth(0.5 * beta * w)

    lo, hi, _ = J._quad_interval()
    cap = 1.0 if zero_temperature else _coth(0.5 * beta * max(hi, 1e-300))
    return _spectral_quad(J, f, coth_cap=cap)


def _bath_weights(beta: float, omega0: float, z: float) -> tuple[float, float]:
    """Stable evaluation of the two correlated-bath coefficients.

    Returns ``(R, c)`` where, with C = cosh(beta omega0 / 2) and
    S = sinh(beta omega0 / 2),

        R = (S - z C) / (C - z S)          (phase-shift slope),
        c = (1 - z^2) / (C - z S)^2        (correlation strength).

    Both are computed from exp(-2|x|) so that no intermediate overflows.
    """
    if z >= 1.0:
        return -1.0, 0.0
    if z <= -1.0:
        return 1.0, 0.0
    x = 0.5 * beta * omega0
    if math.isinf(x):
        return (1.0, 0.0) if x > 0 else (-1.0, 0.0)
    ax = abs(x)
    e = math.exp(-2.0 * ax)
    if x >= 0:
        dhat = 0.5 * ((1.0 - z) + (1.0 + z) * e)
        nhat = 0.5 * ((1.0 - z) - (1.0 + z) * e)
    else:
        dhat = 0.5 * ((1.0 - z) * e + (1.0 + z))
        nhat = 0.5 * ((1.0 - z) * e - (1.0 + z))
    if ax < 700.0 and dhat * math.exp(ax) < 1e-14:
        raise DegenerateParametersError(
            "cosh(beta omega0/2) - <sigma_z> sinh(beta omega0/2) is numerically zero"
        )
    r = nhat / dhat
    # c = (1 - z^2) exp(-2|x|) / dhat^2; underflow of the exponential simply
    # switches the correlation term off, which is the correct limit.
    c = (1.0 - z) * (1.0 + z) * e / (dhat * dhat)
    return r, c


def _gamma_corr_from_phi(phi_t: float, r_c: tuple[float, float]) -> float:
    _, c = r_c
    q = c * math.sin(phi_t) ** 2
    if q >= 1.0:
        raise SingularCorrelationError(
            "correlation term annihilates the coherence (log argument <= 0)"
        )
    return -0.5 * math.log1p(-q)


def _chi_from_phi(phi_t: float, r_c: tuple[float, float]) -> float:
    r, _ = r_c
    principal = math.atan2(r * math.sin(phi_t), math.cos(phi_t))
    if r == 0.0:
        # vanished slope: only the sign of cos Phi survives (0 or pi)
        return principal
    # lift the principal branch by the winding of Phi so chi is continuous
    branch = math.floor((phi_t + math.pi) / (2.0 * math.pi))
    return principal + 2.0 * math.pi * math.copysign(1.0, r) * branch


def gamma_corr(t: float, p: CorrelatedBathParams) -> float:
    """Correlation part of the dephasing exponent.

    gamma_corr = -(1/2) ln[1 - (1 - <sz>^2) sin^2 Phi / (cosh - <sz> sinh)^2]
    with the hyperbolic functions taken at beta*omega0/2.  The value is >= 0
    (the log argument never exceeds 1) and vanishes identically for
    <sigma_z> = +-1.  A log argument at or below zero means the coherence is
    annihilated outright and raises
    :class:`~decobath.errors.SingularCorrelationError`;
    :func:`decoherence_factors` maps that point to gamma_corr = inf, chi = nan
    and an exactly zero coherence.
    """
    weights = _bath_weights(p.beta, p.omega0, p.sigma_z_expect)
    return _gamma_corr_from_phi(phi(t, p.J), weights)


def chi(t: float, p: CorrelatedBathParams) -> float:
    """Correlation-induced phase shift, continuously unwrapped.

    Defined through tan chi = R tan Phi with
    R = (sinh - <sz> cosh)/(cosh - <sz> sinh); the principal branch is lifted
    by the winding number of Phi so that chi is continuous in t, starting from
    chi(0) = 0.  Special values: chi = -Phi at <sz> = +1, chi = +Phi at
    <sz> = -1, and chi = 0 whenever R = 0 (<sz> = tanh(beta omega0/2)).
    """
    weights = _bath_weights(p.beta, p.omega0, p.sigma_z_expect)
    return _chi_from_phi(phi(t, p.J), weights)


@dataclass(frozen=True)
class DecoherenceFactors:
    """The factors entering the correlated-bath coherence, at one time or per time.

    Where the correlation term annihilates the coherence (the log argument
    of gamma_corr reaches zero), ``gamma_corr`` is inf and ``chi`` is nan.
    """

    phi: np.ndarray
    gamma_thermal: np.ndarray
    gamma_corr: np.ndarray
    chi: np.ndarray

    @property
    def gamma_total(self) -> np.ndarray:
        return self.gamma_thermal + self.gamma_corr

    def state(self, psi0: QubitAmplitudes, omega0: float, t) -> DensityMatrix2:
        """Populations (|a|^2, |b|^2) and coherence a b* exp(-i (omega0 t + chi)) exp(-gamma).

        The coherence is exactly 0 where ``gamma_corr`` is inf.
        """
        a, b = psi0.a, psi0.b
        coh = a * np.conj(b) * np.exp(-1j * (omega0 * np.asarray(t) + self.chi)) \
            * np.exp(-self.gamma_total)
        coh = np.where(np.isinf(self.gamma_corr), 0j, coh)
        return DensityMatrix2.from_parts(abs(a) ** 2, abs(b) ** 2, coh)


def decoherence_factors(t, p: CorrelatedBathParams) -> DecoherenceFactors:
    """Phi, gamma_thermal, gamma_corr and chi at time(s) ``t``.

    Each point takes one Phi and one gamma_thermal quadrature; an array ``t``
    gives arrays of its shape.  A point on the singular branch (see
    :func:`gamma_corr`) gets gamma_corr = inf and chi = nan.
    """
    weights = _bath_weights(p.beta, p.omega0, p.sigma_z_expect)
    t = np.asarray(t, dtype=float)
    out = np.empty((t.size, 4))
    # Python floats keep quad's integrands out of numpy scalar arithmetic
    for i, ti in enumerate(t.ravel().tolist()):
        phi_t = phi(ti, p.J)
        try:
            g2, chi_t = _gamma_corr_from_phi(phi_t, weights), _chi_from_phi(phi_t, weights)
        except SingularCorrelationError:
            g2, chi_t = math.inf, math.nan
        out[i] = phi_t, gamma_thermal(ti, p.J, p.beta), g2, chi_t
    return DecoherenceFactors(*out.T.reshape((4,) + t.shape))


def rho_correlated(t, psi0: QubitAmplitudes, p: CorrelatedBathParams) -> DensityMatrix2:
    """Reduced state at time(s) t for the system-correlated bath preparation.

    The populations are (|a|^2, |b|^2) for every t; the coherence is
    a b* exp(-i (omega0 t + chi)) exp(-(gamma_thermal + gamma_corr)), and
    exactly 0 where the correlation term annihilates it.  <sigma_z> is
    recomputed from ``psi0`` (the preparation ties them definitionally),
    overriding ``p.sigma_z_expect``.
    """
    p_eff = replace(p, sigma_z_expect=psi0.bloch_z)
    return decoherence_factors(t, p_eff).state(psi0, p_eff.omega0, t)


def rho_uncorrelated(
    t: float,
    psi0: QubitAmplitudes,
    J: SpectralDensity,
    beta: float,
    omega0: float,
) -> DensityMatrix2:
    """Reference solution for an initially factorized system-bath state.

    Identical structure to :func:`rho_correlated` with chi == 0 and
    gamma_corr == 0: the coherence is a b* exp(-i omega0 t) exp(-gamma_thermal).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    a, b = psi0.a, psi0.b
    g1 = gamma_thermal(t, J, beta)
    coh = a * np.conj(b) * np.exp(-1j * omega0 * t) * math.exp(-g1)
    return DensityMatrix2.from_parts(abs(a) ** 2, abs(b) ** 2, coh)
