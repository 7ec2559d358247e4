"""Configuration parsing, scenario orchestration and CSV emission.

Config grammar
--------------
Flat ``dotted.key = value`` lines; ``#`` starts a comment (whole-line or
trailing); blank lines are ignored.  Values are plain numbers, Python-style
complex literals (``0.6+0.2j``), comma-separated number lists where an array
is expected, or strings.  Unknown keys, missing required keys and
out-of-range values are all reported together, each with its line number.

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
                    system.b, grid.* (grid.t0 pinned to 0)
oracle-compare      oracle.n*, oracle.seed*, grid.*
fig2                bath.N* (50 or 100), grid.*; the bath itself is baked in
==================  ===========================================================

``grid.*`` stands for grid.t0, grid.t1 and grid.steps; every scenario also
takes output.path.  A missing required key, or a key of another scenario, is
reported like any other problem.

central-exact and fig2 sum the survival amplitude over the spectral measure
of the sector Hamiltonian (secular roots and weights, then the time grid in
blocks), so memory stays linear in bath.N.  A run whose estimated work
(roots x (poles + time points), counting the poles left after equal
splittings merge) exceeds ``central_spin.MAX_SECTOR_WORK`` (10**9, about a
minute) is refused before any large allocation, with exit code 2 and a
message giving the estimate; a sum-rule violation of the spectral weights,
or a secular root that does not converge, aborts with exit code 3.

central-sme evaluates the exact solution of its two decoupled channels over
the whole grid (finite mode sums in blocks of time points), so its work is
O(time points x bath.N).  A run whose time points x bath.N exceed the same
``central_spin.MAX_SECTOR_WORK`` is refused before its first block, with
exit code 2 and the estimate in the message.

dephase-correlated evaluates its spectral integrals in closed form over the
whole grid.  The thermal part of a tabulated density at finite temperature
is integrated on fixed quadrature panels whose number grows with
``grid.t1``; a run whose time points x (knots + quadrature nodes) exceed
``dephasing_nm.MAX_SPECTRAL_EVALS`` (2**26) is refused before any work, and
one whose quadrature error estimate misses its target is aborted, both with
exit code 3.

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

Exit codes: 0 success, 2 configuration error (including a central-exact or
central-sme run over the work cap), 3 numerical-quality abort (including a
dephase-correlated run over the spectral evaluation cap and a central-exact
or fig2 sum-rule or convergence failure).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import central_spin, central_spin_nm, dephasing_nm, lindblad
from .errors import (
    ConfigError,
    DegenerateParametersError,
    QuadratureError,
    TraceDriftError,
)
from .qstate import QubitAmplitudes, density_from_amplitudes
from .trajectory import TimeGrid, Trajectory

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

ORACLE_DEVIATION_THRESHOLD = 1e-10
_AMPLITUDE_NORM_SLACK = 1e-6
#: Default (t0, t1, steps) of every scenario but fig2, and of fig2.
_DEFAULT_GRID = (0.0, 10.0, 1000)
_FIG2_GRID = (0.0, 5.0, 20000)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class ScenarioConfig:
    """Fully validated scenario parameters."""

    scenario: str
    system_a: complex = complex(_INV_SQRT2)
    system_b: complex = complex(_INV_SQRT2)
    gamma: Optional[float] = None
    bath_n: Optional[int] = None
    bath_g: Optional[np.ndarray] = None
    bath_omega: Optional[np.ndarray] = None
    bath_omega0: float = 0.0
    pol_c: complex = 0.0 + 0.0j
    pol_d: complex = 1.0 + 0.0j
    spectral: Optional[dephasing_nm.SpectralDensity] = None
    thermo_beta: Optional[float] = None
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(*_DEFAULT_GRID))
    output_path: Optional[str] = None
    oracle_n: Optional[int] = None
    oracle_seed: Optional[int] = None


def _parse_scalar(kind, text: str):
    if kind is str:
        return text
    if kind is int:
        value = int(text)
        return value
    if kind is float:
        value = float(text)  # accepts inf for thermo.beta
        if math.isnan(value):
            raise ValueError("nan is not a valid value")
        return value
    if kind is complex:
        value = complex(text.replace(" ", ""))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError("value must be finite")
        return value
    if kind == "floats":
        parts = [p for p in text.split(",") if p.strip()]
        values = np.array([float(p) for p in parts], dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("all list entries must be finite")
        return values
    raise AssertionError(kind)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a config document.

    Raises :class:`~decobath.errors.ConfigError` carrying *every* problem
    found, not just the first.
    """
    errors: list[str] = []
    entries: dict[str, tuple[object, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KINDS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in entries:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            entries[key] = (_parse_scalar(_KINDS[key], value), lineno)
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")

    if "scenario" not in entries:
        errors.append("config: missing required key 'scenario'")
        raise ConfigError(errors)
    scenario, scen_line = entries["scenario"]
    if scenario not in SCENARIOS:
        errors.append(
            f"line {scen_line}: unknown scenario {scenario!r} "
            f"(choose from {', '.join(SCENARIOS)})"
        )
        raise ConfigError(errors)

    allowed, required = _SCHEMA[scenario]
    for key, (_, lineno) in entries.items():
        if key != "scenario" and key not in allowed:
            errors.append(f"line {lineno}: key {key!r} does not apply to scenario {scenario!r}")
    for key in required:
        if key not in entries:
            errors.append(f"config: scenario {scenario!r} requires key {key!r}")

    def get(key, default=None):
        return entries[key][0] if key in entries else default

    def line_of(key):
        return entries[key][1]

    cfg = ScenarioConfig(scenario=scenario)

    if get("gamma") is not None:
        cfg.gamma = get("gamma")
        if cfg.gamma < 0:
            errors.append(f"line {line_of('gamma')}: gamma must be >= 0")
    cfg.bath_omega0 = get("bath.omega0", 0.0)

    a, b = get("system.a", cfg.system_a), get("system.b", cfg.system_b)
    norm = abs(a) ** 2 + abs(b) ** 2
    if abs(norm - 1.0) > _AMPLITUDE_NORM_SLACK or norm == 0.0:
        errors.append(
            "config: system.a/system.b must be normalized within 1e-6 "
            f"(|a|^2+|b|^2 = {norm:.8g})"
        )
    else:
        s = math.sqrt(norm)
        cfg.system_a, cfg.system_b = a / s, b / s

    c, d = get("bath.polarization.c", cfg.pol_c), get("bath.polarization.d", cfg.pol_d)
    norm = abs(c) ** 2 + abs(d) ** 2
    if abs(norm - 1.0) > _AMPLITUDE_NORM_SLACK or norm == 0.0:
        errors.append(
            "config: bath.polarization.c/.d must be normalized within 1e-6 "
            f"(|c|^2+|d|^2 = {norm:.8g})"
        )
    else:
        s = math.sqrt(norm)
        cfg.pol_c, cfg.pol_d = c / s, d / s

    if "bath.N" in entries:
        cfg.bath_n = get("bath.N")
        if cfg.bath_n < 1:
            errors.append(f"line {line_of('bath.N')}: bath.N must be >= 1")
            cfg.bath_n = None
    if scenario == "fig2" and cfg.bath_n is not None and cfg.bath_n not in (50, 100):
        errors.append(f"line {line_of('bath.N')}: the fig2 preset ships N = 50 or N = 100")

    for key, attr in (("bath.g", "bath_g"), ("bath.omega", "bath_omega")):
        if key not in entries:
            continue
        values = get(key)
        if cfg.bath_n is not None and values.size not in (1, cfg.bath_n):
            errors.append(
                f"line {line_of(key)}: {key} needs 1 or bath.N={cfg.bath_n} values, "
                f"got {values.size}"
            )
        else:
            setattr(cfg, attr, values)

    if scenario == "dephase-correlated" and "spectral.family" in entries:
        family = get("spectral.family")
        if family == "ohmic":
            eta, omega_c = get("spectral.eta"), get("spectral.omega_c")
            if eta is None or omega_c is None:
                errors.append("config: ohmic spectral density requires "
                              "spectral.eta and spectral.omega_c")
            elif not math.isfinite(eta) or eta < 0:
                errors.append(f"line {line_of('spectral.eta')}: "
                              "spectral.eta must be finite and >= 0")
            elif not math.isfinite(omega_c) or omega_c <= 0:
                errors.append(f"line {line_of('spectral.omega_c')}: "
                              "spectral.omega_c must be finite and > 0")
            else:
                cfg.spectral = dephasing_nm.SpectralDensity.ohmic(eta, omega_c)
        elif family == "tabulated":
            table = get("spectral.table")
            if table is None:
                errors.append("config: tabulated spectral density requires spectral.table")
            else:
                try:
                    cfg.spectral = dephasing_nm.SpectralDensity.from_csv(table)
                except (OSError, ValueError) as exc:
                    errors.append(f"line {line_of('spectral.table')}: {exc}")
        else:
            errors.append(
                f"line {line_of('spectral.family')}: spectral.family must be "
                f"'ohmic' or 'tabulated', got {family!r}"
            )

    if "thermo.beta" in entries:
        cfg.thermo_beta = get("thermo.beta")
        if cfg.thermo_beta <= 0:
            errors.append(f"line {line_of('thermo.beta')}: thermo.beta must be > 0 "
                          "(inf selects zero temperature)")

    if "oracle.n" in entries:
        cfg.oracle_n = get("oracle.n")
        if not 1 <= cfg.oracle_n <= central_spin.BRUTE_FORCE_MAX_N:
            errors.append(
                f"line {line_of('oracle.n')}: oracle.n must be in "
                f"[1, {central_spin.BRUTE_FORCE_MAX_N}]"
            )
    if "oracle.seed" in entries:
        cfg.oracle_seed = get("oracle.seed")
        if cfg.oracle_seed < 0:
            errors.append(f"line {line_of('oracle.seed')}: oracle.seed must be >= 0")

    default_grid = _FIG2_GRID if scenario == "fig2" else _DEFAULT_GRID
    t0 = get("grid.t0", default_grid[0])
    t1 = get("grid.t1", default_grid[1])
    steps = get("grid.steps", default_grid[2])
    try:
        cfg.grid = TimeGrid(t0, t1, steps)
    except ValueError as exc:
        errors.append(f"config: invalid grid: {exc}")
    if scenario == "central-sme" and t0 != 0.0:
        errors.append("config: central-sme requires grid.t0 = 0")

    cfg.output_path = get("output.path")

    if errors:
        raise ConfigError(errors)
    return cfg


def _spin_bath_from_config(cfg: ScenarioConfig) -> central_spin.SpinBathSpec:
    return central_spin.SpinBathSpec(
        N=cfg.bath_n,
        g=cfg.bath_g,
        omega0=cfg.bath_omega0,
        omega=cfg.bath_omega,
    )


def _rho_columns(rho) -> dict[str, np.ndarray]:
    """The standard columns of a batched density matrix."""
    return {"rho00": rho.rho00, "rho11": rho.rho11,
            "reCoh": rho.coherence.real, "imCoh": rho.coherence.imag}


def run_scenario(cfg: ScenarioConfig) -> Trajectory:
    """Dispatch a validated config into the model modules.

    Every model call takes the whole time grid at once.  Output is
    deterministic: the same config always yields a byte-identical CSV
    rendering.
    """
    psi = QubitAmplitudes(cfg.system_a, cfg.system_b)
    if cfg.scenario in ("central-exact", "fig2"):
        if cfg.scenario == "fig2":
            spec = central_spin.fig2_spec(cfg.bath_n)
            rot = central_spin.rotate_to_polarization(1.0, 0.0, 0.0, 1.0)
        else:
            spec = _spin_bath_from_config(cfg)
            rot = central_spin.rotate_to_polarization(
                psi.a, psi.b, cfg.pol_c, cfg.pol_d
            )
        # the work cap is checked before the time grid is allocated
        amp = central_spin.survival_amplitude(spec, cfg.grid)
        rho = central_spin.reduced_system_density(rot, amp)
        return Trajectory(cfg.grid.times, {"P0": np.abs(amp) ** 2, **_rho_columns(rho)})

    times = cfg.grid.times

    if cfg.scenario == "dephase-markov":
        params = lindblad.DephasingParams(cfg.gamma, cfg.bath_omega0)
        rho = lindblad.evolve_dephasing_markov(psi, params, times)
        return Trajectory(times, _rho_columns(rho))

    if cfg.scenario == "dephase-isotropic":
        rho = lindblad.evolve_isotropic_markov(density_from_amplitudes(psi), cfg.gamma, times)
        return Trajectory(times, _rho_columns(rho))

    if cfg.scenario == "dephase-correlated":
        p = dephasing_nm.CorrelatedBathParams(
            cfg.spectral, cfg.thermo_beta, cfg.bath_omega0, psi.bloch_z
        )
        f = dephasing_nm.decoherence_factors(times, p)
        rho = f.state(psi, p.omega0, times)
        return Trajectory(times, {**_rho_columns(rho), "gamma": f.gamma_total,
                                  "Phi": f.phi, "chi": f.chi})

    if cfg.scenario == "central-sme":
        spec = _spin_bath_from_config(cfg)
        rot = central_spin.rotate_to_polarization(psi.a, psi.b, cfg.pol_c, cfg.pol_d)
        rho = central_spin_nm.integrate_sme(spec, rot, cfg.grid)
        return Trajectory(times, _rho_columns(rho))

    if cfg.scenario == "oracle-compare":
        return oracle_compare_trajectory(cfg.oracle_n, cfg.oracle_seed, cfg.grid)

    raise AssertionError(cfg.scenario)


def oracle_compare_trajectory(n: int, seed: int, grid: TimeGrid) -> Trajectory:
    """Brute-force versus sector evolution on a seeded random bath.

    Columns: per-time maximum amplitude deviation over the N+1 sector basis
    states, and the drift of the conserved total sigma_z expectation.
    """
    rng = np.random.default_rng(seed)
    spec = central_spin.SpinBathSpec(
        N=n,
        g=rng.uniform(0.5, 2.0, n),
        omega0=rng.uniform(-2.0, 2.0),
        omega=rng.uniform(-2.0, 2.0, n),
    )
    pairs = [(1.0, 0.0)] + [(0.0, 1.0)] * n  # excitation on the system
    full = central_spin.brute_force_evolve(
        spec, central_spin.product_state(pairs), grid
    )
    sector = central_spin.evolve_sector(spec, grid=grid)
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
        "oracle-compare", help="brute-force vs sector evolution check"
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
    except (ValueError, DegenerateParametersError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = False
    if cfg.scenario == "oracle-compare":
        worst = float(np.max(traj.columns["ampDev"]))
        failed = not worst < ORACLE_DEVIATION_THRESHOLD
        print(
            f"oracle-compare: max amplitude deviation {worst:.3e} "
            f"(threshold {ORACLE_DEVIATION_THRESHOLD:g}) {'FAIL' if failed else 'PASS'}"
        )

    if cfg.output_path:
        try:
            traj.write_csv(cfg.output_path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    elif not failed:
        sys.stdout.write(traj.to_csv())
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
