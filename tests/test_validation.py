"""Each input rule has one home, and every entry point that applies it refuses
NaN, +-inf and an out-of-range value with that rule's message before any
result is returned.

The five rules and their homes: a unit amplitude pair (``qstate.unit_pair``),
a unit state vector (``central_spin._unit_state``), non-negative times
(``trajectory.nonnegative_times``), a rate (``lindblad._check_rate``) and a
positive integer count (``trajectory.positive_count``).  The work rule
(``trajectory.check_work``) refuses a NaN estimate the same way.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decobath import central_spin, central_spin_nm, dephasing_nm, lindblad
from decobath.central_spin import RotatedAmplitudes, SpinBathSpec
from decobath.errors import WorkBudgetError
from decobath.qstate import QubitAmplitudes, density_from_amplitudes
from decobath.trajectory import MAX_BYTES, MAX_WORK, TimeGrid, check_work

NAN, INF = math.nan, math.inf
NONFINITE = [NAN, INF, -INF]

PSI = QubitAmplitudes(0.6, 0.8)
RHO = density_from_amplitudes(PSI)
OHMIC = dephasing_nm.SpectralDensity.ohmic(0.5, 2.0)
CORRELATED = dephasing_nm.CorrelatedBathParams(OHMIC, 2.0, 1.0)
BATH = SpinBathSpec(N=2, g=0.4, omega0=0.6, omega=[0.2, 0.9])
ROT = RotatedAmplitudes(0.8, 0.6)
GRID = TimeGrid(0.0, 1.0, 4)


def no_work(*args, **kwargs):
    raise AssertionError("the model ran before its input was checked")


# --- unit amplitude pair: qstate.unit_pair -------------------------------------

AMPLITUDE_ENTRIES = {
    "QubitAmplitudes": QubitAmplitudes,
    "RotatedAmplitudes": RotatedAmplitudes,
}


@pytest.mark.parametrize("entry", AMPLITUDE_ENTRIES)
@pytest.mark.parametrize("x", [NAN, INF, -INF, complex(0.0, NAN), complex(INF, 0.0)])
def test_amplitude_pair_refuses_nonfinite(entry, x):
    with pytest.raises(ValueError, match="amplitude must have finite components"):
        AMPLITUDE_ENTRIES[entry](x, 1.0)
    with pytest.raises(ValueError, match="amplitude must have finite components"):
        AMPLITUDE_ENTRIES[entry](1.0, x)


@pytest.mark.parametrize("entry, names", [("QubitAmplitudes", r"\|a\|\^2 \+ \|b\|\^2"),
                                          ("RotatedAmplitudes", r"\|alpha\|\^2 \+ \|beta\|\^2")])
@pytest.mark.parametrize("x", [1.0, 1e200])
def test_amplitude_pair_refuses_off_unit_norm(entry, names, x):
    with pytest.raises(ValueError, match=names + " must equal 1"):
        AMPLITUDE_ENTRIES[entry](x, 1.0)


# --- unit state vector: central_spin._unit_state --------------------------------

def brute_force_entry(monkeypatch, initial):
    monkeypatch.setattr(central_spin, "hamiltonian_rows", no_work)
    register = np.zeros(BATH.dim_full, dtype=complex)
    register[:3] = initial
    return central_spin.brute_force_evolve(BATH, register, GRID)


STATE_ENTRIES = {
    "brute_force_evolve": (brute_force_entry, "initial register state must be normalized"),
}


@pytest.mark.parametrize("entry", STATE_ENTRIES)
@pytest.mark.parametrize("x", [*NONFINITE, complex(0.0, NAN), 2.0])
def test_state_vector_refused(monkeypatch, entry, x):
    run, message = STATE_ENTRIES[entry]
    with pytest.raises(ValueError, match=message):
        run(monkeypatch, np.array([x, 0.0, 0.0], dtype=complex))


def test_state_vector_of_wrong_length_refused(monkeypatch):
    monkeypatch.setattr(central_spin, "hamiltonian_rows", no_work)
    with pytest.raises(ValueError, match="initial state must have length 8"):
        central_spin.brute_force_evolve(BATH, np.ones(3), GRID)


# --- non-negative times: trajectory.nonnegative_times ---------------------------

TIME_ENTRIES = {
    "evolve_dephasing_markov": lambda t: lindblad.evolve_dephasing_markov(
        PSI, lindblad.DephasingParams(0.5, 1.0), [0.0, t]),
    "evolve_isotropic_markov": lambda t: lindblad.evolve_isotropic_markov(RHO, 0.5, [0.0, t]),
    "sme_analytic": lambda t: central_spin_nm.sme_analytic(BATH, ROT, [0.0, t]),
    "integrate_sme": lambda t: central_spin_nm.integrate_sme(BATH, ROT, [0.0, t]),
    "sme_discrepancy_report": lambda t: central_spin_nm.sme_discrepancy_report(
        BATH, ROT, [0.0, t]),
    # bound at import, since the test replaces the module attribute with no_work
    "channel_exponents": lambda t, exponents=central_spin_nm.channel_exponents:
        exponents(BATH, [0.0, t]),
    "decoherence_factors": lambda t: dephasing_nm.decoherence_factors(
        [0.0, t], CORRELATED, PSI),
    "rho_correlated": lambda t: dephasing_nm.rho_correlated([0.0, t], PSI, CORRELATED),
    "rho_uncorrelated": lambda t: dephasing_nm.rho_uncorrelated([0.0, t], PSI, OHMIC, 2.0, 1.0),
    "phi": lambda t: dephasing_nm.phi(t, OHMIC),
    "gamma_thermal": lambda t: dephasing_nm.gamma_thermal(t, OHMIC, 2.0),
}


@pytest.mark.parametrize("entry", TIME_ENTRIES)
@pytest.mark.parametrize("t", [*NONFINITE, -1.0])
def test_times_refused(monkeypatch, entry, t):
    monkeypatch.setattr(dephasing_nm, "quad", no_work)
    monkeypatch.setattr(central_spin_nm, "channel_exponents", no_work)
    with pytest.raises(ValueError, match=r"t must be >= 0\b.*got " + re.escape(str(t))):
        TIME_ENTRIES[entry](t)


# --- rate: lindblad._check_rate -------------------------------------------------

RATE_ENTRIES = {
    "DephasingParams": lambda g: lindblad.DephasingParams(g),
    "isotropic_generator": lindblad.isotropic_generator,
    "evolve_isotropic_markov": lambda g: lindblad.evolve_isotropic_markov(RHO, g, [0.0, 1.0]),
}


@pytest.mark.parametrize("entry", RATE_ENTRIES)
@pytest.mark.parametrize("gamma", [*NONFINITE, -0.5])
def test_rate_refused(entry, gamma):
    with pytest.raises(ValueError, match=f"gamma must be finite and >= 0, got {gamma}"):
        RATE_ENTRIES[entry](gamma)


# --- positive integer count: trajectory.positive_count --------------------------

COUNT_ENTRIES = {
    "TimeGrid.steps": (lambda n: TimeGrid(0.0, 1.0, n), "steps"),
    "SpinBathSpec.N": (lambda n: SpinBathSpec(N=n, g=0.4, omega0=0.6, omega=0.2), "N"),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@pytest.mark.parametrize("n", [*NONFINITE, 2.5, 0])
def test_count_refused(entry, n):
    make, name = COUNT_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"{name} must be a positive integer, got {n}"):
        make(n)


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_whole_float_count_accepted(entry):
    make, name = COUNT_ENTRIES[entry]
    value = getattr(make(3.0), name)
    assert value == 3 and type(value) is int


# --- TimeGrid: strictly increasing times, checked without forming them ----------

@pytest.mark.parametrize("t0, t1, steps", [
    (1.0, 1.000000000000001, 1000),   # five ulps of 1 cut a thousand ways
    (0.0, 1e-305, 1000),              # a subnormal step
    (-1e308, 1e308, 10),              # the span overflows
    (0.0, 1.0, 2 ** 60),              # far past any resolution of [0, 1]
    (0.0, 1.0, 10 ** 400),            # an int no float can hold
], ids=["five-ulps", "subnormal-step", "span-overflow", "2**60-steps", "10**400-steps"])
def test_unresolvable_grid_refused(t0, t1, steps):
    with pytest.raises(ValueError, match="would not be strictly increasing"):
        TimeGrid(t0, t1, steps)


ENDPOINTS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(t0=ENDPOINTS, width=st.one_of(st.integers(1, 4000), ENDPOINTS),
       steps=st.integers(1, 200))
def test_accepted_grid_has_increasing_times(t0, width, steps):
    # an integer width means t1 that many ulps above t0: the edge of the rule
    t1 = (float(np.nextafter(t0, math.inf) - t0) * width + t0
          if isinstance(width, int) else t0 + abs(width))
    try:
        grid = TimeGrid(t0, t1, steps)
    except ValueError:
        return
    times = grid.times
    assert times.size == steps + 1
    assert np.all(np.diff(times) > 0.0)


# --- the work rule: trajectory.check_work ---------------------------------------

@pytest.mark.parametrize("work, nbytes, message", [
    (NAN, 0, r"estimated nan element pairs \(3 terms, 5 time points\), above the cap of "
             r"1000000000$"),
    (MAX_WORK + 1, 0, r"estimated 1000000001 element pairs .* cap of 1000000000$"),
    (1, NAN, r"estimated 1 element pairs and nan bytes .* cap of 1073741824 bytes$"),
    (1, MAX_BYTES + 1, r"and 1073741825 bytes .* cap of 1073741824 bytes$"),
])
def test_work_rule_refuses_over_either_cap_and_nan(work, nbytes, message):
    with pytest.raises(WorkBudgetError, match=message) as err:
        check_work(work, nbytes, 3, 5, "terms")
    assert (err.value.size, err.value.points) == (3, 5)


def test_work_rule_admits_a_run_at_both_caps():
    check_work(MAX_WORK, MAX_BYTES, 3, 5, "terms")
