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

:func:`decoherence_factors`, :func:`rho_correlated` and
:func:`rho_uncorrelated` evaluate Phi and gamma_thermal for a whole time array
without adaptive quadrature:

* Ohmic J = eta w exp(-w/omega_c): Phi = eta arctan(omega_c t) and, at zero
  temperature, gamma_thermal = (eta/2) ln(1 + omega_c^2 t^2).  Expanding
  coth(beta w/2) = 1 + 2 sum_k exp(-k beta w) (Leggett et al., RMP 59, 1,
  1987) adds 2 eta [ln Gamma(1+x) - Re ln Gamma(1+x+it/beta)] at finite
  temperature, x = 1/(beta omega_c); for t/beta <= (1+x)/8 that difference
  is summed as its Hurwitz-zeta series instead, which has no cancellation.
  ln Gamma(1+x) comes from ``math.lgamma``, the difference from Stirling's
  series after a shift by recurrence, and zeta(2m, 1+x) from an
  Euler-Maclaurin sum.
* Tabulated (piecewise-linear) J = c0 + c1 w on each knot segment: Phi and
  the zero-temperature part of gamma_thermal are exact in Si, Ci and
  Cin(x) = int_0^x (1 - cos u)/u du, with the antiderivatives evaluated at
  every knot and differenced per segment.  Si and Cin are Taylor series up
  to x = 4 and come from rational fits of the auxiliary functions f and g
  above.  The thermal excess
  2 int J n_B (1 - cos w t)/w^2 dw, n_B = 1/(exp(beta w) - 1), is smooth and
  decays exponentially; it is integrated with a fixed 16-point
  Gauss-Legendre rule per panel, checked against an 8-point rule, and a run
  whose error estimate misses the quadrature target raises
  :class:`~decobath.errors.QuadratureError`.  Before any of it, the knot
  and node evaluations and the bytes of the panel arrays go through
  ``trajectory.check_work``, which refuses an oversize run.

The scalar :func:`phi` and :func:`gamma_thermal` keep adaptive ``quad``; they
are the oracles these forms are tested against.

Every closed form runs on numpy and ``math`` alone.  scipy serves only the
adaptive oracles: ``scipy.integrate`` is imported on their first call, and
the quadrature tail bound's E1(50) is a literal.  Importing this module and
running any scenario therefore loads no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParametersError, QuadratureError
from .qstate import DensityMatrix2, QubitAmplitudes, dephased
from .trajectory import check_work, nonnegative_times

__all__ = [
    "SpectralDensity",
    "CorrelatedBathParams",
    "DecoherenceFactors",
    "phi",
    "gamma_thermal",
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
#: The exponential integral E1(_OHMIC_SPAN) of that bound, to the last bit.
_E1_OHMIC_SPAN = 3.783264029550459e-24

#: Work of one (time point, knot) evaluation of the tabulated closed forms
#: in secular pairs of ~40 ns (a quadrature node is about one): 107-112 ns
#: on a 2-core Xeon, :func:`_sici` included, rounded up.  Then the peak bytes
#: per quadrature panel of :func:`_thermal_panels`.
_KNOT_WORK = 4
_PANEL_BYTES = 64
#: Time points are processed in blocks of about this many array elements.
_BLOCK_ELEMENTS = 1 << 12


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the asymptotic roots; unlike
    ``numpy.polynomial.legendre.leggauss`` it needs no LAPACK, whose set-up
    would add ~0.75 MB to every process importing this module.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    step = np.ones(n)
    for _ in range(100):
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)  # P_n'(x)
        if np.max(np.abs(step)) < 1e-15:
            break
        step = p / slope
        x = x - step
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


#: Nodes and weights on [-1, 1] of the 16-point Gauss-Legendre rule for the
#: thermal excess (the first _GL_RULE) followed by the 8-point rule that
#: estimates its error.
_GL_RULE = 16
_GL_NODES, _GL_WEIGHTS = map(np.concatenate, zip(_gauss_legendre(_GL_RULE),
                                                 _gauss_legendre(8)))
#: Widest phase (panel width x max(t, beta)) of one quadrature panel; the
#: 8-point rule is then accurate to ~1e-13 relative.
_PANEL_PHASE = 4.0
#: Si(x) and Cin(x) = int_0^x (1 - cos u)/u du are summed as their Taylor
#: series in x^2 up to here, where 17 terms reach 3e-20; above, Si and Ci come
#: from the auxiliary functions f and g (Abramowitz & Stegun 5.2.8-9).
_SICI_SERIES_MAX = 4.0
#: Columns Si(x)/x and Cin(x)/x^2, as polynomials in x^2 (Horner order).
_SICI_SERIES = np.array([[(-1.0) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)),
                          (-1.0) ** k / ((2 * k + 2) * math.factorial(2 * k + 2))]
                         for k in range(16, -1, -1)])
#: x f(x) and x^2 g(x) for x >= _SICI_SERIES_MAX as ratios of degree-11
#: polynomials in s = 16/x^2 over one common denominator (Horner order;
#: columns: the numerators of x f and x^2 g, then the denominator).
#: Sanathanan-Koerner least-squares fit to 60-digit mpmath values at 300
#: Chebyshev points in s, with both ratios pinned to 1 at s = 0; relative
#: error 4.3e-17 (f) and 1.5e-16 (g) there.
_AUX_RATIONAL = np.array([
    [10.053118967992267, 0.9106020236636838, 44.06334874480443],
    [1722.2385110591329, 710.2854695517493, 3212.086511173117],
    [34790.39875545749, 21179.77765582139, 48228.66250338756],
    [209312.48158565565, 155302.5324340099, 251342.75660539747],
    [511557.77147484093, 426270.56804048456, 568314.5483194208],
    [589853.7999743554, 527975.1134337563, 626893.8681575021],
    [347493.06294542586, 325274.6412013335, 359875.09665161464],
    [108753.77014793863, 104685.17494127297, 110916.32437830714],
    [18216.004169441043, 17840.71656329152, 18409.485925185047],
    [1587.8049799706212, 1571.674606367593, 1595.9639167719176],
    [65.89649441040477, 65.64649441040524, 66.0214944104048],
    [1.0, 1.0, 1.0],
])
#: The Ohmic thermal excess uses its zeta series for t/beta <= (1 + x)/8,
#: where 10 terms reach 64**-10.
_ZETA_SERIES_RADIUS = 0.125
_ZETA_SERIES_TERMS = 10
#: B_2, B_4, ..., B_16 as (numerator, denominator): the Bernoulli numbers of
#: Stirling's series and of the Euler-Maclaurin sum.  The coefficients below
#: divide exact integers once, so each is the double nearest its true value.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
#: zeta(2m, z) sums this many terms, then Euler-Maclaurin's tail with the
#: eight Bernoulli terms: at z + 10 >= 11 the next is below 1e-18 of zeta(2, z).
_EM_TERMS = 10
_EM_S = 2.0 * np.arange(1, _ZETA_SERIES_TERMS + 1)
#: Row j - 1: B_2j/(2j)! s (s+1) ... (s+2j-2) for s = 2m.
_EM_TABLE = np.array([[num * math.prod(range(s, s + 2 * j - 1)) / (den * math.factorial(2 * j))
                       for s in range(2, 2 * _ZETA_SERIES_TERMS + 1, 2)]
                      for j, (num, den) in enumerate(_BERNOULLI, 1)])
#: Stirling's series for ln Gamma(w) is summed at Re w >= 10, where its eight
#: terms B_2k/(2k (2k-1) w^(2k-1)) (Horner order) leave a remainder below 4e-18.
_STIRLING_MIN = 10.0
_STIRLING = tuple(num / (den * 2 * k * (2 * k - 1))
                  for k, (num, den) in reversed(list(enumerate(_BERNOULLI, 1))))
#: Up to this y, the shift of :func:`_lngamma_drop` stays below (1 + y^2)^9.
_SHIFT_Y_MAX = 1e15


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
        data = np.loadtxt(path, delimiter=",", dtype=float, comments="#", ndmin=2)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (omega, J)")
        return cls.tabulated(data[:, 0], data[:, 1])

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.family == "ohmic":
            out = self.eta * omega * np.exp(-np.clip(omega, 0, None) / self.omega_c)
            return np.where(omega >= 0, out, 0.0)
        return np.interp(omega, self._omega, self._values, left=0.0, right=0.0)

    @property
    def phase_frequency(self) -> float:
        """Largest w whose phase w t the closed forms take modulo 2 pi.

        The top knot of a tabulated density (its Si and Ci terms); 0 for the
        Ohmic family, whose arctan and log-Gamma forms take omega_c t whole.
        """
        return 0.0 if self.family == "ohmic" else float(self._omega[-1])

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
        return 2.0 * self.eta * coth_cap * _E1_OHMIC_SPAN


def _check_beta(beta: float) -> None:
    if math.isnan(beta) or beta <= 0:
        raise ValueError(f"beta must be > 0 (inf = zero temperature), got {beta}")


@dataclass(frozen=True)
class CorrelatedBathParams:
    """Bath parameters of the system-correlated thermal preparation.

    ``beta`` is the inverse temperature; ``math.inf`` is the explicit
    zero-temperature flag (coth -> 1).  The preparation also depends on
    <sigma_z> of the system state, which the model functions read from the
    amplitudes they are given.
    """

    J: SpectralDensity
    beta: float
    omega0: float

    def __post_init__(self):
        _check_beta(self.beta)
        if not np.isfinite(self.omega0):
            raise ValueError("omega0 must be finite")
        if math.isinf(self.beta) and self.omega0 == 0.0:
            raise DegenerateParametersError(
                "zero temperature with omega0 = 0 leaves the preparation undefined"
            )

    @property
    def phase_frequency(self) -> float:
        """|omega0| or J's, the larger; 0 without J (a table that failed to load)."""
        return max(abs(self.omega0), self.J.phase_frequency) if self.J is not None else 0.0


def _coth(x: float) -> float:
    """coth(x) for x > 0; series below 1e-4 avoids amplified rounding."""
    if x >= 1e-4:
        return 1.0 / math.tanh(x)
    return 1.0 / x + x / 3.0 - x**3 / 45.0


def _scipy_integrate():
    """``scipy.integrate``, or an ImportError that names the extra installing it."""
    try:
        import scipy.integrate
    except ImportError as exc:
        raise ImportError("the adaptive quadrature oracles phi and gamma_thermal need scipy; "
                          "install it with the 'oracle' extra: pip install 'decobath[oracle]'"
                          ) from exc
    return scipy.integrate


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    The name stays a module attribute only because the bench tracer wraps
    ``dephasing_nm.quad`` in place; it goes once the tracer patches through
    a name table (ROADMAP item 2).
    """
    return _scipy_integrate().quad(*args, **kwargs)


def _spectral_quad(J: SpectralDensity, f, coth_cap: float) -> float:
    IntegrationWarning = _scipy_integrate().IntegrationWarning
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
    equals eta * arctan(omega_c t).  ``t`` must be finite and >= 0.
    """
    t = float(nonnegative_times(t))
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

    ``beta = math.inf`` selects zero temperature (coth -> 1); ``t`` must be
    finite and >= 0.  The value is nonnegative; oscillatory J make it non-monotone.
    """
    t = float(nonnegative_times(t))
    _check_beta(beta)
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


def _hurwitz_zeta_even(z: float) -> np.ndarray:
    """zeta(2m, z) for m = 1 .. _ZETA_SERIES_TERMS at scalar z >= 1.

    Euler-Maclaurin: the first _EM_TERMS terms summed, then at a = z +
    _EM_TERMS the integral a^(1-s)/(s-1), half the next term and the
    Bernoulli corrections of _EM_TABLE times a^(-s-2j+1), smallest first.
    """
    a = z + _EM_TERMS
    j = np.arange(len(_EM_TABLE), 0, -1.0)
    corrections = (a ** (1.0 - 2.0 * j))[:, None] * _EM_TABLE[::-1]
    total = (corrections.sum(axis=0) + 0.5 + a / (_EM_S - 1.0)) * a ** -_EM_S
    head = (z + np.arange(_EM_TERMS - 1, -1, -1.0))[:, None] ** -_EM_S
    for term in head:  # smallest first
        total += term
    return total


def _stirling_tail(w):
    """Sum of B_2k / (2k (2k-1) w^(2k-1)) over Stirling's eight terms."""
    v = 1.0 / w
    v2 = v * v
    acc = _STIRLING[0]
    for c in _STIRLING[1:]:
        acc = acc * v2 + c
    return acc * v


def _lngamma_drop(z: float, y: np.ndarray) -> np.ndarray:
    """ln Gamma(z) - Re ln Gamma(z + iy) for scalar z >= 1 and y >= 0.

    Both are shifted up by n = max(1, ceil(_STIRLING_MIN - z)) with Gamma(w +
    n) = Gamma(w) prod_k (w + k): the shift is one log1p of prod_k (1 + y^2/(z
    + k)^2) - 1, built without cancellation, and the two Stirling series at
    a = z + n are differenced term by term.  Above y = _SHIFT_Y_MAX, where
    that product could overflow, it is math.lgamma(z) minus the Stirling
    series at z + iy, whose -pi y/2 leaves nothing to cancel.
    """
    drop = np.empty(y.shape)
    near = y <= _SHIFT_Y_MAX
    yn = y[near]
    n = max(1, math.ceil(_STIRLING_MIN - z))
    # prod_k (1 + q_k) - 1 = sum_k q_k prod_{j<k} (1 + q_j), all terms positive
    q = np.square(yn / (z + np.arange(n))[:, None])
    shift = q[0] + (q[1:] * np.cumprod(1.0 + q[:-1], axis=0)).sum(axis=0)
    a = z + n
    r = yn / a
    drop[near] = (0.5 * np.log1p(shift) - 0.5 * (a - 0.5) * np.log1p(r * r) + yn * np.arctan(r)
                  + (_stirling_tail(a) - _stirling_tail(a + 1j * yn).real))
    if not near.all():
        yf = y[~near]
        w = z + 1j * yf
        drop[~near] = (math.lgamma(z) - (z - 0.5) * np.log(np.abs(w)) + yf * np.arctan2(yf, z)
                       + z - 0.5 * math.log(2.0 * math.pi) - _stirling_tail(w).real)
    return drop


def _ohmic_factors(t: np.ndarray, J: SpectralDensity, beta: float):
    """Phi and gamma_thermal of the Ohmic family at times t >= 0, in closed form."""
    eta, u = J.eta, J.omega_c * t
    phi_t = eta * np.arctan(u)
    # log1p(u^2)/2 equals ln u to double precision long before u^2 overflows
    g1 = eta * np.where(u < 1e100, 0.5 * np.log1p(np.minimum(u, 1e100) ** 2),
                        np.log(np.maximum(u, 1e100)))
    if math.isinf(beta):
        return phi_t, g1
    # coth = 1 + 2 sum_k exp(-k beta w) turns the excess into
    # eta sum_{k>=1} ln(1 + y^2/(x+k)^2) = 2 eta [lnG(z) - Re lnG(z + iy)],
    # y = t/beta, z = 1 + x; its Taylor series in y^2 has the coefficients
    # (-1)^(m+1) zeta(2m, z)/m and converges for y < z.
    z, y = 1.0 + 1.0 / (beta * J.omega_c), t / beta
    m = np.arange(1, _ZETA_SERIES_TERMS + 1)
    coeffs = (-1.0) ** (m + 1) * _hurwitz_zeta_even(z) / m
    small = y <= _ZETA_SERIES_RADIUS * z
    excess = np.empty(y.shape)
    y_small = y[small]
    excess[small] = y_small ** 2 * np.polynomial.polynomial.polyval(y_small ** 2, coeffs)
    excess[~small] = 2.0 * _lngamma_drop(z, y[~small])
    return phi_t, g1 + eta * excess


def _horner(coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of the result: the columns of ``coeffs`` (highest power first) at ``v``.

    One contiguous row at a time, in place, with scalar coefficients: numpy's
    broadcasting loops took 1.4-1.7x as long on the Si/Ci blocks.
    """
    out = np.empty((coeffs.shape[1], v.size))
    for acc, column in zip(out, coeffs.T.tolist()):
        acc[:] = column[0]
        for c in column[1:]:
            acc *= v
            acc += c
    return out


def _sici(x: np.ndarray, sin_half: np.ndarray, cos_half: np.ndarray):
    """Si(x), Ci(x) and Cin(x) = gamma_E + ln x - Ci(x) for x >= 0.

    ``sin_half`` and ``cos_half`` are sin(x/2) and cos(x/2), which the
    caller has at hand; sin x and cos x are formed from them.  Taylor series
    up to _SICI_SERIES_MAX, then the auxiliary functions f and g, each branch
    on its own elements only.  Si(0) = Cin(0) = 0 and Ci(0) = -inf.
    """
    si, ci, cin = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    small = x <= _SICI_SERIES_MAX
    xs = x[small]
    x2 = xs * xs
    series = _horner(_SICI_SERIES, x2)
    si[small] = xs * series[0]
    cin[small] = cin_small = x2 * series[1]
    with np.errstate(divide="ignore"):
        ci[small] = np.euler_gamma + np.log(xs) - cin_small
    large = ~small
    xl, s, c = x[large], sin_half[large], cos_half[large]
    num_f, num_g, den = _horner(_AUX_RATIONAL, 16.0 / (xl * xl))
    den *= xl
    f = num_f / den
    g = num_g / den / xl
    sin_x, cos_x = 2.0 * s * c, (c - s) * (c + s)
    si[large] = 0.5 * np.pi - (f * cos_x + g * sin_x)
    ci[large] = ci_large = f * sin_x - g * cos_x
    cin[large] = np.euler_gamma + np.log(xl) - ci_large
    return si, ci, cin


def _tabulated_zero_temperature(t: np.ndarray, omega: np.ndarray, c0: np.ndarray,
                                c1: np.ndarray):
    """Phi and the coth -> 1 part of gamma_thermal for piecewise-linear J.

    On a segment [a, b] with J = c0 + c1 w (c0 = 0 on a segment starting at
    w = 0, since J(0) = 0 there):

        Phi:   c1 [Si(wt)] + c0 t [Ci(wt) - sin(wt)/(wt)]
        gamma: c1 [Cin(wt)] + c0 t [Si(wt) - (1 - cos wt)/(wt)]

    each antiderivative [F] differenced between b and a.  Where bt <= 4 the
    Ci difference is formed as ln(b/a) - [Cin], which keeps its precision as
    t -> 0.  Rows are blocks of time points, columns the knots.
    """
    phi_t = np.empty(t.size)
    gamma0 = np.empty(t.size)
    rows = max(1, _BLOCK_ELEMENTS // omega.size)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(omega[1:] / omega[:-1])  # inf on a segment from 0
    live = c0 != 0.0
    for start in range(0, t.size, rows):
        tb = t[start:start + rows, None]
        x = tb * omega
        half = 0.5 * x
        s, c = np.sin(half), np.cos(half)
        si, ci, cin = _sici(x, s, c)
        positive = np.where(x > 0, half, 1.0)
        sinc = np.where(x > 0, s * c / positive, 1.0)  # sin(x)/x
        versin = s * s / positive  # (1 - cos x)/x
        d_si, d_cin = np.diff(si, axis=1), np.diff(cin, axis=1)
        # Ci(0) = -inf and ln(b/0) = inf reach only segments with c0 = 0 and
        # the branch np.where discards
        with np.errstate(invalid="ignore"):
            d_ci = np.where(x[:, 1:] <= _SICI_SERIES_MAX, log_ratio - d_cin,
                            np.diff(ci, axis=1))
            phi_c0 = np.where(live, c0 * (d_ci - np.diff(sinc, axis=1)), 0.0)
            gamma_c0 = np.where(live, c0 * (d_si - np.diff(versin, axis=1)), 0.0)
        tb = tb[:, 0]
        phi_t[start:start + rows] = (c1 * d_si).sum(axis=1) + tb * phi_c0.sum(axis=1)
        gamma0[start:start + rows] = (c1 * d_cin).sum(axis=1) + tb * gamma_c0.sum(axis=1)
    return phi_t, gamma0


def _panel_plan(omega: np.ndarray, scale: float):
    """How the thermal-excess quadrature cuts each knot segment [a, b].

    Returns the number of equal panels per segment, each of phase
    width * scale <= _PANEL_PHASE (scale = max(t_max, beta), the larger of the
    oscillation rate of 1 - cos(w t) and the decay rate of n_B), and the
    segments with 0 < a < b - a together with their doubling counts: those
    are also cut at a, 2a, 4a, ..., so that every panel [p, q] has q <= 2p,
    because J/w^2 has a pole at w = 0 unless J = c1 w (a segment from 0).
    """
    a, b = omega[:-1], omega[1:]
    equal = np.ceil((b - a) * (scale / _PANEL_PHASE))
    graded = np.flatnonzero((a > 0) & (b > 2.0 * a))
    return equal, graded, np.floor(np.log2(b[graded] / a[graded]))


def _thermal_panels(omega: np.ndarray, plan):
    """Left ends, right ends and segment indices of the quadrature panels of
    ``plan``, the cuts :func:`_panel_plan` chose for the knots ``omega``."""
    a, b = omega[:-1], omega[1:]
    equal, graded, doublings = plan
    counts = equal.astype(np.int64)
    counts[graded] = 0
    seg = np.repeat(np.arange(a.size), counts)
    k = np.arange(seg.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = (b - a)[seg] / counts[seg]
    lo = a[seg] + width * k
    hi = np.where(k + 1 == counts[seg], b[seg], a[seg] + width * (k + 1))
    parts = [(lo, hi, seg)]
    for j, n in zip(graded, doublings):
        edges = np.union1d(np.linspace(a[j], b[j], int(equal[j]) + 1),
                           a[j] * 2.0 ** np.arange(1.0, n + 1.0))
        edges = edges[edges <= b[j]]
        parts.append((edges[:-1], edges[1:], np.full(edges.size - 1, j)))
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _tabulated_thermal_excess(t: np.ndarray, omega: np.ndarray, c0, c1, beta: float,
                              gamma0: np.ndarray, plan) -> np.ndarray:
    """2 int J n_B (1 - cos wt)/w^2 dw by fixed Gauss-Legendre panels, cut by ``plan``.

    The 8-point rule on the same panels gives the error estimate; the sum of
    |16-point - 8-point| over panels must stay under the quadrature target
    for the total gamma_thermal = ``gamma0`` + excess at every time.
    """
    lo, hi, seg = _thermal_panels(omega, plan)
    excess = np.zeros(t.size)
    err = np.zeros(t.size)
    chunk = max(1, _BLOCK_ELEMENTS // _GL_NODES.size)
    for first in range(0, lo.size, chunk):
        part = slice(first, first + chunk)
        # nodes w and weights 4 W J(w) n_B(w)/w^2 of both rules on each panel
        half = 0.5 * (hi[part] - lo[part])[:, None]
        w = 0.5 * (hi[part] + lo[part])[:, None] + half * _GL_NODES
        j = c0[seg[part], None] + c1[seg[part], None] * w
        with np.errstate(over="ignore"):  # n_B underflows to 0, as it should
            weights = 4.0 * half * _GL_WEIGHTS * j / (w * w * np.expm1(beta * w))
        half_w = 0.5 * w
        rows = max(1, _BLOCK_ELEMENTS // w.size)
        buf = np.empty((rows,) + w.shape)
        for start in range(0, t.size, rows):
            tb = t[start:start + rows, None, None]
            terms = np.multiply(tb, half_w, out=buf[:tb.shape[0]])
            np.sin(terms, out=terms)
            np.square(terms, out=terms)
            terms *= weights
            rule = terms[..., :_GL_RULE].sum(axis=2)
            excess[start:start + rows] += rule.sum(axis=1)
            err[start:start + rows] += np.abs(rule - terms[..., _GL_RULE:].sum(axis=2)).sum(axis=1)
    gamma = gamma0 + excess
    bad = np.flatnonzero(err > _REL_TOL * np.abs(gamma) + _ABS_FLOOR)
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"estimated error {err[i]:.3e} of the thermal integral exceeds target "
            f"for value {gamma[i]:.6e} at t = {t[i]:.6g}"
        )
    return gamma


def _tabulated_factors(t: np.ndarray, J: SpectralDensity, beta: float):
    """Phi and gamma_thermal of a tabulated J at times t >= 0."""
    omega, values = J._omega, J._values
    c1 = np.diff(values) / np.diff(omega)
    c0 = values[:-1] - c1 * omega[:-1]
    thermal = not math.isinf(beta)
    panels = 0.0
    if thermal:
        plan = _panel_plan(omega, max(float(t.max(initial=0.0)), beta))
        equal, _, doublings = plan
        panels = float(equal.sum() + doublings.sum())
    check_work(t.size * (_KNOT_WORK * omega.size + _GL_NODES.size * panels),
               _PANEL_BYTES * panels, panels, t.size, f"quadrature panels on {omega.size} knots")
    phi_t, gamma_t = _tabulated_zero_temperature(t, omega, c0, c1)
    if thermal:
        gamma_t = _tabulated_thermal_excess(t, omega, c0, c1, beta, gamma_t, plan)
    zero = t == 0.0
    return np.where(zero, 0.0, phi_t), np.where(zero, 0.0, gamma_t)


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


def _gamma_corr_from_phi(phi_t, r_c: tuple[float, float]) -> np.ndarray:
    """gamma_corr = -(1/2) ln(1 - c sin^2 Phi) >= 0, c of :func:`_bath_weights`.

    inf where the log argument is <= 0: the coherence is annihilated outright.
    """
    _, c = r_c
    q = c * np.sin(phi_t) ** 2
    singular = q >= 1.0
    return np.where(singular, np.inf, -0.5 * np.log1p(-np.where(singular, 0.0, q)))


def _chi_from_phi(phi_t, r_c: tuple[float, float]) -> np.ndarray:
    """The phase shift chi, tan chi = R tan Phi, continuous from chi(0) = 0.

    R is that of :func:`_bath_weights`; the principal branch is lifted by the
    winding of Phi.
    """
    r, _ = r_c
    # + 0.0: chi(0) is +0, not the -0 of a negative R
    principal = np.arctan2(r * np.sin(phi_t), np.cos(phi_t)) + 0.0
    if r == 0.0:
        # vanished slope: only the sign of cos Phi survives (0 or pi)
        return principal
    # lift the principal branch by the winding of Phi so chi is continuous
    branch = np.floor((phi_t + math.pi) / (2.0 * math.pi))
    return principal + 2.0 * math.pi * math.copysign(1.0, r) * branch


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


def _spectral_factors(t: np.ndarray, J: SpectralDensity, beta: float):
    """Phi and gamma_thermal, flattened, at checked times ``t`` in closed form."""
    _check_beta(beta)
    factors = _ohmic_factors if J.family == "ohmic" else _tabulated_factors
    return factors(t.ravel(), J, beta)


def decoherence_factors(t, p: CorrelatedBathParams,
                        psi0: QubitAmplitudes) -> DecoherenceFactors:
    """Phi, gamma_thermal, gamma_corr and chi at finite time(s) ``t`` >= 0.

    The bath is prepared from the system state ``psi0``, whose <sigma_z>
    sets gamma_corr and chi.  Phi and gamma_thermal come from the closed
    forms in the module docstring, for the whole time array at once; an
    array ``t`` gives arrays of its shape.  A point where the correlation
    term annihilates the coherence (see :func:`_gamma_corr_from_phi`) gets
    gamma_corr = inf and chi = nan.
    """
    t = nonnegative_times(t)
    phi_t, gamma1 = _spectral_factors(t, p.J, p.beta)
    weights = _bath_weights(p.beta, p.omega0, psi0.bloch_z)
    gamma2 = _gamma_corr_from_phi(phi_t, weights)
    chi_t = np.where(np.isinf(gamma2), np.nan, _chi_from_phi(phi_t, weights))
    return DecoherenceFactors(*(a.reshape(t.shape) for a in (phi_t, gamma1, gamma2, chi_t)))


def rho_correlated(t, psi0: QubitAmplitudes, p: CorrelatedBathParams) -> DensityMatrix2:
    """Reduced state at time(s) t for the system-correlated bath preparation.

    The populations are (|a|^2, |b|^2) for every t; the coherence is
    a b* exp(-i (omega0 t + chi)) exp(-(gamma_thermal + gamma_corr)), and
    exactly 0 where the correlation term annihilates it.  The bath is
    prepared from ``psi0`` itself.
    """
    t = nonnegative_times(t)
    f = decoherence_factors(t, p, psi0)
    return dephased(psi0, p.omega0 * t + f.chi, f.gamma_total)


def rho_uncorrelated(t, psi0: QubitAmplitudes, J: SpectralDensity, beta: float,
                     omega0: float) -> DensityMatrix2:
    """Reference solution for an initially factorized system-bath state.

    Identical structure to :func:`rho_correlated` with chi == 0 and
    gamma_corr == 0: the coherence is a b* exp(-i omega0 t) exp(-gamma_thermal),
    from the same closed forms.  An array ``t`` gives one batched state.  No
    preparation is involved, so beta = inf with omega0 = 0 is allowed.
    """
    t = nonnegative_times(t)
    _, gamma1 = _spectral_factors(t, J, beta)
    return dephased(psi0, omega0 * t, gamma1.reshape(t.shape))
