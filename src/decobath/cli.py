"""Configuration parsing, scenario orchestration and CSV emission.

Config grammar
--------------
Flat ``dotted.key = value`` lines; ``#`` starts a comment (whole-line or
trailing); blank lines are ignored.  Values are plain numbers, Python-style
complex literals (``0.6+0.2j``), comma-separated number lists where an array
is expected, or strings.  Every number must be finite; only thermo.beta
takes ``inf`` (zero temperature).

The values are then passed to the constructors of the scenario's model
objects (amplitudes, dephasing or correlated-bath parameters, spectral
density, spin bath, time grid), the one place each range rule is checked.
Unknown keys, missing required keys, malformed values and refusals are all
reported together; a refusal names the lines and keys of the object's
inputs (``config:`` when all of them are defaults).

Scenarios and their keys
------------------------
==================  ===========================================================
scenario            keys (* = required)
==================  ===========================================================
dephase-markov      gamma*, system.a, system.b, bath.omega0, grid.*
dephase-isotropic   gamma*, system.a, system.b, grid.*
dephase-correlated  spectral.family*, thermo.beta*, bath.omega0*, system.a,
                    system.b, spectral.eta and spectral.omega_c (ohmic) or
                    spectral.table (tabulated), grid.*
central-exact       bath.N*, bath.g*, bath.omega*, bath.omega0*,
                    bath.polarization.c, bath.polarization.d, system.a,
                    system.b, grid.*
central-sme         bath.N*, bath.g*, bath.omega*, bath.omega0*,
                    bath.polarization.c, bath.polarization.d, system.a,
                    system.b, grid.*
oracle-compare      oracle.n*, oracle.seed*, grid.*
fig2                bath.N* (50 or 100), grid.*; the bath itself is baked in
==================  ===========================================================

``grid.*`` stands for grid.t0, grid.t1 and grid.steps; every scenario also
takes output.path.  A step too fine for the endpoints to resolve (times not
strictly increasing) is refused with the grid's lines.  The dephase-* and
central-sme models start at the preparation time, so they require
grid.t0 >= 0.  A missing required key, or a key of another scenario or of
the other spectral family, is reported like any other problem.

A run whose largest phase passes 2**53 is refused, since no digit of the
phase modulo 2 pi is left there: Omega max(|grid.t0|, |grid.t1|) > 2**53,
with Omega |bath.omega0| (dephase-markov), that or the top knot of a
tabulated density (dephase-correlated), or |omega0| + max |omega_k| +
2 sum |g_k| for a spin bath (central-*, fig2, oracle-compare's seeded bath).
The refusal names the lines of the grid and frequency keys; its rule,
``trajectory.check_phase``, is the one the model functions apply.

Every run's size is estimated before any large allocation and checked by
one rule, ``trajectory.check_work``: at most ``trajectory.MAX_WORK`` (10**9)
units of work, a secular (root, pole) pair each (about a minute in all on
one Xeon core), and ``trajectory.MAX_BYTES`` (2**30) bytes of arrays held
at once.  The estimates: time points x CSV columns for the render (checked
here, naming grid.steps), a spin bath's per-spin arrays (checked before
they exist, naming bath.N), the secular sums of central-exact and fig2, the
mode sums of central-sme, oracle-compare's Chebyshev terms and states and
its sector comparison, and a tabulated density's knots and quadrature
panels.  A run over either cap exits with code 2, the estimate and the cap
in the message.

Defaults: ``system.a = system.b = 1/sqrt(2)``, ``bath.omega0 = 0`` where
optional, ``bath.polarization = (0, 1)``, ``grid.t0 = 0``, ``grid.t1 = 10``
(5 for fig2), ``grid.steps = 1000`` (20000 for fig2).  Amplitude pairs may be
off unit norm by up to 1e-6 to absorb decimal rounding; they are renormalized
exactly after validation.

CSV columns
-----------
All scenarios emit ``t, rho00, rho11, reCoh, imCoh``; central-exact and fig2
prepend ``P0`` (survival probability); dephase-correlated appends
``gamma, Phi, chi``; oracle-compare emits ``t, ampDev, szDrift``.  Floats
carry 17 significant digits (exact round trip), lines end with LF.

central-exact and central-sme write the system state in the frame of the
bath polarization (c, d): |1>' = c|0> + d|1> is parallel to the bath spins
and |0>' = d*|0> - c*|1> orthogonal to them, so the columns hold
rho' = R rho_lab R^dag with R = [[d, -c], [c*, d*]], and the lab-frame
state is rho_lab = R^dag rho' R.  Row 0 is rho00 = |beta|^2,
rho11 = |alpha|^2 and coherence alpha* beta, where (beta, alpha) = R (a, b)
for system.a = a and system.b = b.  At the default polarization (0, 1),
and in fig2, R is the identity.

oracle-compare prints its verdict (the maximum amplitude deviation, the
threshold, PASS or FAIL) to stderr, so stdout carries only the CSV, which
is written on FAIL too.

Exit codes: 0 success, 2 configuration error (including a phase past 2**53,
a run over the work or byte cap, an Ohmic run at finite temperature whose
1/(beta omega_c) or pi t/beta overflows, and an Ohmic run whose
gamma_thermal overflows or whose Phi passes 2**53 by grid.t1), 3
numerical-quality abort (a trace or sum-rule drift, a secular root that
does not converge, a quadrature error estimate over its target, or an
oracle-compare FAIL) or an output.path that cannot be written.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import central_spin, central_spin_nm, dephasing_nm, lindblad
from .errors import ConfigError, QuadratureError, TraceDriftError
from .qstate import QubitAmplitudes, dephased, density_from_amplitudes
from .trajectory import TimeGrid, Trajectory, check_phase, check_work

_GRID_KEYS = {"grid.t0": float, "grid.t1": float, "grid.steps": int, "output.path": str}
_SYSTEM_KEYS = {"system.a": complex, "system.b": complex}
_BATH_KEYS = {
    "bath.N": int,
    "bath.g": "floats",
    "bath.omega": "floats",
    "bath.omega0": float,
    "bath.polarization.c": complex,
    "bath.polarization.d": complex,
}
_BATH_REQUIRED = ("bath.N", "bath.g", "bath.omega", "bath.omega0")

#: Per scenario: every key it accepts (besides ``scenario``) with its value
#: kind, and the keys it requires.
_SCHEMA = {
    "dephase-markov": (
        {"gamma": float, **_SYSTEM_KEYS, "bath.omega0": float, **_GRID_KEYS}, ("gamma",)),
    "dephase-isotropic": ({"gamma": float, **_SYSTEM_KEYS, **_GRID_KEYS}, ("gamma",)),
    "dephase-correlated": (
        {**_SYSTEM_KEYS, "bath.omega0": float, "spectral.family": str,
         "spectral.eta": float, "spectral.omega_c": float, "spectral.table": str,
         "thermo.beta": float, **_GRID_KEYS},
        ("spectral.family", "thermo.beta", "bath.omega0")),
    "central-exact": ({**_SYSTEM_KEYS, **_BATH_KEYS, **_GRID_KEYS}, _BATH_REQUIRED),
    "central-sme": ({**_SYSTEM_KEYS, **_BATH_KEYS, **_GRID_KEYS}, _BATH_REQUIRED),
    "oracle-compare": ({"oracle.n": int, "oracle.seed": int, **_GRID_KEYS},
                       ("oracle.n", "oracle.seed")),
    "fig2": ({"bath.N": int, **_GRID_KEYS}, ("bath.N",)),
}
SCENARIOS = tuple(_SCHEMA)
_KINDS = {"scenario": str, **{k: v for keys, _ in _SCHEMA.values() for k, v in keys.items()}}

#: The scenarios whose models start from the preparation time, so need
#: grid.t0 >= 0 beyond the grid's own t0 < t1.
_FROM_PREPARATION = ("dephase-markov", "dephase-isotropic", "dephase-correlated",
                     "central-sme")
_POLARIZATION_KEYS = ("bath.polarization.c", "bath.polarization.d")
#: The keys the phase bound is taken from: the grid's ends and each
#: scenario's frequency keys (only those of the scenario at hand are given).
_PHASE_KEYS = ("grid.t0", "grid.t1", *_BATH_REQUIRED, "spectral.table", "oracle.n",
               "oracle.seed")

ORACLE_DEVIATION_THRESHOLD = 1e-10
_AMPLITUDE_NORM_SLACK = 1e-6
#: Default (t0, t1, steps) of every scenario but fig2, and of fig2.
_DEFAULT_GRID = (0.0, 10.0, 1000)
_FIG2_GRID = (0.0, 5.0, 20000)
#: CSV columns of each scenario, t included (see "CSV columns" above).
_CSV_COLUMNS = {"dephase-markov": 5, "dephase-isotropic": 5, "dephase-correlated": 8,
                "central-exact": 6, "central-sme": 5, "oracle-compare": 3, "fig2": 6}
#: Measured cost of one CSV cell.  ``Trajectory.to_csv`` renders blocks of
#: rows and converts each distinct column of a block once: 0.27-0.52 us a
#: cell on every scenario's output at 5e4 points, under 16 secular pairs
#: (~0.64 us).  The bytes bound a whole run's peak, parse to rendered text,
#: per cell: the text twice (its blocks and their join, at most 25 B a
#: cell) beside the trajectory's 8.  Measured at 5e4 and 2e5 points:
#: 28.8-48.1 B on every scenario but oracle-compare, whose peak is its brute
#: force's (its render holds 49.2 B a cell at grid.t1 = 1e-4), and
#: 53.4-55.6 B for random 24-character cells from 4096 points up; below
#: that one block's lists (~150 B a cell of the block, under 0.7 MB) add.
_CELL_WORK = 16
_CELL_BYTES = 60

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class ScenarioConfig:
    """A validated scenario: the model objects :func:`run_scenario` passes on.

    ``psi`` holds the system amplitudes (dephase-* and central-* scenarios);
    ``params`` the :class:`~decobath.lindblad.DephasingParams`
    (dephase-markov, and dephase-isotropic through its ``gamma``) or the
    :class:`~decobath.dephasing_nm.CorrelatedBathParams` (dephase-correlated);
    ``spec`` the spin bath (central-*, fig2, oracle-compare's seeded bath)
    and ``rot`` the rotated amplitudes (central-*, fig2).  A field its
    scenario does not use is None.
    """

    scenario: str
    grid: TimeGrid
    psi: Optional[QubitAmplitudes] = None
    params: Union[lindblad.DephasingParams, dephasing_nm.CorrelatedBathParams, None] = None
    spec: Optional[central_spin.SpinBathSpec] = None
    rot: Optional[central_spin.RotatedAmplitudes] = None
    output_path: Optional[str] = None


def _parse_value(kind, text: str):
    """A value by the grammar of its kind, and whether it is finite."""
    if kind in (str, int):
        return kind(text), True
    if kind is complex:
        value = complex(text.replace(" ", ""))
        return value, cmath.isfinite(value)
    if kind == "floats":
        value = np.array([float(p) for p in text.split(",") if p.strip()], dtype=float)
        return value, bool(np.isfinite(value).all())
    value = float(text)
    return value, math.isfinite(value)


def _unit_pair(x: complex, y: complex, names: str) -> tuple[complex, complex]:
    """(x, y) rescaled to unit norm; refused unless within the decimal-rounding slack.

    The check takes the norm by hypot over the four components, so an
    amplitude like 1e200 is refused rather than overflowing when squared.
    """
    norm = math.hypot(x.real, x.imag, y.real, y.imag)
    if not abs(norm * norm - 1.0) <= _AMPLITUDE_NORM_SLACK:
        raise ValueError(f"{names} must be normalized within 1e-6 "
                         f"(squared norm {norm * norm:.8g})")
    s = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    return x / s, y / s


def _oracle_bath(n: int, seed: int) -> central_spin.SpinBathSpec:
    """The seeded random bath of oracle-compare."""
    rng = np.random.default_rng(seed)
    return central_spin.SpinBathSpec(
        N=n,
        g=rng.uniform(0.5, 2.0, n),
        omega0=rng.uniform(-2.0, 2.0),
        omega=rng.uniform(-2.0, 2.0, n),
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse a config document and build the model objects it describes.

    Each value is read by the grammar of its key's kind; each object is then
    built by its model's constructor, the one place its rules are checked.
    Raises :class:`~decobath.errors.ConfigError` carrying *every* problem
    found, not just the first, each with the lines of the keys involved.
    """
    errors: list[str] = []
    entries: dict[str, tuple[object, int]] = {}  # the keys whose values are valid
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KINDS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        try:
            value, finite = _parse_value(_KINDS[key], value)
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
            continue
        if not finite and not (key == "thermo.beta" and value == math.inf):
            errors.append(f"line {lineno}: {key} must be finite")
            continue
        entries[key] = (value, lineno)

    if "scenario" not in entries:
        raise ConfigError(errors + ["config: missing required key 'scenario'"])
    scenario, scen_line = entries["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(errors + [f"line {scen_line}: unknown scenario {scenario!r} "
                                    f"(choose from {', '.join(SCENARIOS)})"])

    allowed, required = _SCHEMA[scenario]
    for key, (_, lineno) in list(entries.items()):
        if key != "scenario" and key not in allowed:
            errors.append(f"line {lineno}: key {key!r} does not apply to scenario {scenario!r}")
            del entries[key]
    for key in required:
        if key not in seen:
            errors.append(f"config: scenario {scenario!r} requires key {key!r}")

    def get(key, default=None):
        return entries[key][0] if key in entries else default

    def where(keys):
        given = sorted((entries[k][1], k) for k in keys if k in entries)
        return ", ".join(f"line {n}: {k}" for n, k in given) or "config"

    def build(keys, make):
        """``make()``, or None with its refusal prefixed by the lines of ``keys``."""
        try:
            return make()
        except (OSError, ValueError) as exc:
            errors.append(f"{where(keys)}: {exc}")
            return None

    psi = params = spec = rot = None
    if "system.a" in allowed:
        psi = build(_SYSTEM_KEYS, lambda: QubitAmplitudes(*_unit_pair(
            get("system.a", complex(_INV_SQRT2)), get("system.b", complex(_INV_SQRT2)),
            "system.a/system.b")))

    if scenario in ("dephase-markov", "dephase-isotropic") and "gamma" in entries:
        params = build(("gamma", "bath.omega0"), lambda: lindblad.DephasingParams(
            get("gamma"), get("bath.omega0", 0.0)))

    elif scenario == "dephase-correlated":
        family, J = get("spectral.family"), None
        eta, omega_c, table = get("spectral.eta"), get("spectral.omega_c"), get("spectral.table")
        other_family = {"ohmic": ("spectral.table",),
                        "tabulated": ("spectral.eta", "spectral.omega_c")}.get(family, ())
        errors.extend(f"line {entries[key][1]}: key {key!r} does not apply to spectral.family "
                      f"{family!r}" for key in other_family if key in entries)
        if family == "ohmic" and (eta is None or omega_c is None):
            errors.append("config: ohmic spectral density requires "
                          "spectral.eta and spectral.omega_c")
        elif family == "ohmic":
            J = build(("spectral.eta", "spectral.omega_c"),
                      lambda: dephasing_nm.SpectralDensity.ohmic(eta, omega_c))
        elif family == "tabulated" and table is None:
            errors.append("config: tabulated spectral density requires spectral.table")
        elif family == "tabulated":
            J = build(("spectral.table",), lambda: dephasing_nm.SpectralDensity.from_csv(table))
        elif family is not None:
            errors.append(f"line {entries['spectral.family'][1]}: spectral.family must be "
                          f"'ohmic' or 'tabulated', got {family!r}")
        if "thermo.beta" in entries and "bath.omega0" in entries:
            # built even when J failed, so that its own refusals are
            # reported with J's; the config is refused then anyway
            params = build(("thermo.beta", "bath.omega0"),
                           lambda: dephasing_nm.CorrelatedBathParams(
                               J, get("thermo.beta"), get("bath.omega0")))

    elif scenario in ("central-exact", "central-sme"):
        if all(key in entries for key in _BATH_REQUIRED):
            spec = build(_BATH_REQUIRED, lambda: central_spin.SpinBathSpec(
                N=get("bath.N"), g=get("bath.g"), omega0=get("bath.omega0"),
                omega=get("bath.omega")))
        pol = build(_POLARIZATION_KEYS, lambda: QubitAmplitudes(*_unit_pair(
            get("bath.polarization.c", 0j), get("bath.polarization.d", 1 + 0j),
            "bath.polarization.c/.d")))
        if psi and pol:
            rot = central_spin.rotate_to_polarization(psi, pol)

    elif scenario == "fig2" and "bath.N" in entries:
        if get("bath.N") in (50, 100):
            # the preset starts with the whole state in the decaying branch
            spec = central_spin.fig2_spec(get("bath.N"))
            rot = central_spin.RotatedAmplitudes(0.0, 1.0)
        else:
            errors.append(f"line {entries['bath.N'][1]}: the fig2 preset ships N = 50 or N = 100")

    elif scenario == "oracle-compare":
        n, seed = get("oracle.n"), get("oracle.seed")
        if n is not None and not 1 <= n <= central_spin.BRUTE_FORCE_MAX_N:
            errors.append(f"line {entries['oracle.n'][1]}: oracle.n must be in "
                          f"[1, {central_spin.BRUTE_FORCE_MAX_N}]")
            n = None
        if seed is not None and seed < 0:
            errors.append(f"line {entries['oracle.seed'][1]}: oracle.seed must be >= 0")
            seed = None
        if None not in (n, seed):
            spec = _oracle_bath(n, seed)

    grid_keys = ("grid.t0", "grid.t1", "grid.steps")
    defaults = _FIG2_GRID if scenario == "fig2" else _DEFAULT_GRID
    grid = build(grid_keys, lambda: TimeGrid(*map(get, grid_keys, defaults)))
    if scenario in _FROM_PREPARATION and not get("grid.t0", 0.0) >= 0.0:
        errors.append(f"line {entries['grid.t0'][1]}: grid.t0 must be >= 0 for {scenario}")
    if scenario == "dephase-correlated" and grid and params:
        build(("spectral.eta", "spectral.omega_c", "thermo.beta", "grid.t1"),
              lambda: params.check_times(grid.t1))

    # omega bounds the frequencies whose phase omega t the scenario's model forms
    omega = max((m.phase_frequency for m in (params, spec) if m is not None), default=0.0)
    if grid:
        build(_PHASE_KEYS, lambda: check_phase(omega, max(abs(grid.t0), abs(grid.t1))))
        points, columns = grid.steps + 1, _CSV_COLUMNS[scenario]
        build(("grid.steps",), lambda: check_work(points * columns * _CELL_WORK,
                                                  points * columns * _CELL_BYTES,
                                                  columns, points, "CSV columns"))

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenario, grid, psi, params, spec, rot, get("output.path"))


def _rho_columns(rho) -> dict[str, np.ndarray]:
    """The standard columns of a batched density matrix."""
    return {"rho00": rho.rho00, "rho11": rho.rho11,
            "reCoh": rho.coherence.real, "imCoh": rho.coherence.imag}


def run_scenario(cfg: ScenarioConfig) -> Trajectory:
    """Pass a validated config's model objects to the model modules.

    Every model call takes the whole time grid at once.  Output is
    deterministic: the same config always yields a byte-identical CSV
    rendering.
    """
    if cfg.scenario in ("central-exact", "fig2"):
        # the work cap is checked before the time grid is allocated
        amp = central_spin.survival_amplitude(cfg.spec, cfg.grid)
        rho = central_spin.reduced_system_density(cfg.rot, amp)
        return Trajectory(cfg.grid.times, {"P0": np.abs(amp) ** 2, **_rho_columns(rho)})

    if cfg.scenario == "oracle-compare":
        return oracle_compare_trajectory(cfg.spec, cfg.grid)

    times = cfg.grid.times
    if cfg.scenario == "central-sme":
        rho = central_spin_nm.integrate_sme(cfg.spec, cfg.rot, times)
    elif cfg.scenario == "dephase-markov":
        rho = lindblad.evolve_dephasing_markov(cfg.psi, cfg.params, times)
    elif cfg.scenario == "dephase-isotropic":
        rho = lindblad.evolve_isotropic_markov(
            density_from_amplitudes(cfg.psi), cfg.params.gamma, times)
    else:  # dephase-correlated
        f = dephasing_nm.decoherence_factors(times, cfg.params, cfg.psi)
        rho = dephased(cfg.psi, cfg.params.omega0 * times + f.chi, f.gamma_total)
        return Trajectory(times, {**_rho_columns(rho), "gamma": f.gamma_total,
                                  "Phi": f.phi, "chi": f.chi})
    return Trajectory(times, _rho_columns(rho))


def oracle_compare_trajectory(spec: central_spin.SpinBathSpec, grid: TimeGrid) -> Trajectory:
    """Brute force versus the spectral measure the CLI ships, on the bath ``spec``.

    Columns: per-time maximum amplitude deviation over the N+1 sector basis
    states between the brute force and :func:`central_spin.evolve_sector`,
    which takes them from the secular measure of ``central-exact`` and
    ``fig2`` (c_0 has :func:`central_spin.survival_amplitude`'s bits),
    and the drift of the conserved total sigma_z expectation.  The brute
    force's block of states stays alive through the sector evolution and
    the deviations, whose (T, N+1) arrays its estimate does not count, nor
    does the sector evolution's own estimate count the block.  The block
    with three such arrays (the most held at once: the sector amplitudes,
    the brute force's and their difference in the deviations, against the
    one array of amplitudes in the evolution) and four complex values per
    time point goes through the work rule before the sector evolution
    starts, at three secular pairs per (time, state) (45-100 ns measured on
    one Xeon core at N = 1 to 12, a pair 30-50 ns).
    """
    pairs = [(1.0, 0.0)] + [(0.0, 1.0)] * spec.N  # excitation on the system
    full = central_spin.brute_force_evolve(
        spec, central_spin.product_state(pairs), grid
    )
    points, states = grid.steps + 1, spec.N + 1
    check_work(3 * points * states, 16 * points * (full.support.size + 3 * states + 4),
               states, points, "sector states beside the brute force")
    sector = central_spin.evolve_sector(spec, grid)
    amp_dev = np.max(np.abs(full.sector_amplitudes() - sector.amplitudes), axis=1)
    sz = full.sz_total()
    sz_drift = np.abs(sz - sz[0])
    return Trajectory(grid.times, {"ampDev": amp_dev, "szDrift": sz_drift})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decobath",
        description="Decoherence-model trajectories as CSV",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config", help="path to a dotted-key config file")

    p_preset = sub.add_parser("preset", help="run a bundled preset")
    p_preset.add_argument("name", choices=["fig2"])
    p_preset.add_argument("--n", type=int, choices=[50, 100], required=True)
    p_preset.add_argument("--out", required=True)

    p_oracle = sub.add_parser(
        "oracle-compare", help="brute force vs the shipped secular spectral measure"
    )
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, required=True)
    p_oracle.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 2
            cfg = parse_config(text)
        elif args.command == "preset":
            cfg = parse_config(f"scenario = fig2\nbath.N = {args.n}\n")
            cfg.output_path = args.out
        else:  # oracle-compare
            cfg = parse_config(f"scenario = oracle-compare\noracle.n = {args.n}\n"
                               f"oracle.seed = {args.seed}\ngrid.t1 = 5\ngrid.steps = 200\n")
            cfg.output_path = args.out
    except ConfigError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 2

    try:
        traj = run_scenario(cfg)
    except (TraceDriftError, QuadratureError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical quality abort: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = False
    if cfg.scenario == "oracle-compare":
        worst = float(np.max(traj.columns["ampDev"]))
        failed = not worst < ORACLE_DEVIATION_THRESHOLD
        print(
            f"oracle-compare: max amplitude deviation {worst:.3e} "
            f"(threshold {ORACLE_DEVIATION_THRESHOLD:g}) {'FAIL' if failed else 'PASS'}",
            file=sys.stderr,
        )

    if cfg.output_path:
        try:
            traj.write_csv(cfg.output_path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.writelines(traj._csv_blocks())
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
