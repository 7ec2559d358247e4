import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decobath import central_spin, central_spin_nm, cli, dephasing_nm, trajectory
from decobath.cli import (
    main,
    oracle_compare_trajectory,
    parse_config,
    run_scenario,
)
from decobath.errors import ConfigError, WorkBudgetError
from decobath.lindblad import DephasingParams, evolve_dephasing_markov
from decobath.qstate import DensityMatrix2, QubitAmplitudes
from decobath.trajectory import TimeGrid, Trajectory


MINIMAL_MARKOV = "scenario = dephase-markov\ngamma = 1.0\n"
#: The README's central-spin bath under the master equation, without a grid.
README_SME = (
    "scenario = central-sme\nbath.N = 8\nbath.g = 1.2\n"
    "bath.omega = 0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.2\nbath.omega0 = 0.9\n"
)


class TestParseConfig:
    def test_minimal_markov_accepts_documented_defaults(self):
        cfg = parse_config(MINIMAL_MARKOV)
        assert cfg.scenario == "dephase-markov"
        assert cfg.params == DephasingParams(1.0, 0.0)
        assert cfg.psi.a == pytest.approx(1 / math.sqrt(2))
        assert cfg.grid.t0 == 0.0 and cfg.grid.t1 == 10.0 and cfg.grid.steps == 1000
        assert cfg.output_path is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# full-line comment\n\nscenario = dephase-markov\n"
            "gamma = 2.0  # trailing comment\n"
        )
        assert cfg.params.gamma == 2.0

    def test_bath_n_zero_rejected_with_message(self):
        text = "scenario = central-exact\nbath.N = 0\nbath.g = 1\nbath.omega = 1\nbath.omega0 = 1\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any(m.startswith("line 2: bath.N,") and "N must be a positive integer" in m
                   for m in exc.value.messages)

    def test_all_errors_collected_with_line_numbers(self):
        text = (
            "scenario = dephase-markov\n"
            "gamma = -2\n"
            "bath.N = 0\n"
            "unknown.key = 3\n"
            "grid.steps = zero\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msgs = exc.value.messages
        assert any(m.startswith("line 2:") and "gamma" in m for m in msgs)
        assert any(m.startswith("line 3:") for m in msgs)
        assert any(m.startswith("line 4:") and "unknown key" in m for m in msgs)
        assert any(m.startswith("line 5:") and "grid.steps" in m for m in msgs)
        assert len(msgs) >= 4

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("gamma = 1\n")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("scenario = dephase\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL_MARKOV + "gamma = 2\n")

    def test_fig2_preset_expands_full_parameter_set(self):
        cfg = parse_config("scenario = fig2\nbath.N = 50\n")
        assert cfg.grid.steps == 20000 and cfg.grid.t1 == 5.0
        with pytest.raises(ConfigError, match="50 or N = 100"):
            parse_config("scenario = fig2\nbath.N = 60\n")

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ConfigError, match="normalized"):
            parse_config(MINIMAL_MARKOV + "system.a = 1\nsystem.b = 1\n")

    def test_near_normalized_amplitudes_renormalized(self):
        cfg = parse_config(
            MINIMAL_MARKOV + "system.a = 0.70710678\nsystem.b = 0.70710678\n"
        )
        assert abs(cfg.psi.a) ** 2 + abs(cfg.psi.b) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_complex_values_parsed(self):
        cfg = parse_config(MINIMAL_MARKOV + "system.a = 0.6\nsystem.b = 0.8j\n")
        assert cfg.psi.b == 0.8j

    def test_mode_arrays_checked_against_bath_n(self):
        text = (
            "scenario = central-exact\nbath.N = 3\nbath.g = 1, 2\n"
            "bath.omega = 0.5\nbath.omega0 = 1\n"
        )
        with pytest.raises(ConfigError, match="line 3: bath.g, .*: g needs 1 or N = 3 values"):
            parse_config(text)

    def test_central_sme_runs_from_a_later_start(self, tmp_path, capsys):
        # the rates are defined for every t >= 0 after the preparation
        base = ("scenario = central-sme\nbath.N = 2\nbath.g = 0.1\n"
                "bath.omega = 0.5, 1.0\nbath.omega0 = 1\ngrid.t1 = 2\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(base + "grid.t0 = 1\ngrid.steps = 20\n")
        assert main(["run", str(cfg)]) == 0
        later = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
        whole = run_scenario(parse_config(base + "grid.steps = 40\n"))
        assert later[0, 0] == 1.0 and later.shape == (21, 5)
        rows = np.column_stack([whole.times, *whole.columns.values()])[20:]
        assert np.max(np.abs(later - rows)) < 1e-15

    def test_spectral_family_validation(self):
        base = "scenario = dephase-correlated\nthermo.beta = 2\nbath.omega0 = 1\n"
        with pytest.raises(ConfigError, match="ohmic"):
            parse_config(base + "spectral.family = gaussian\n")
        with pytest.raises(ConfigError, match="spectral.eta"):
            parse_config(base + "spectral.family = ohmic\n")
        with pytest.raises(ConfigError, match="spectral.table"):
            parse_config(base + "spectral.family = tabulated\n")

    def test_tabulated_table_loaded(self, tmp_path):
        table = tmp_path / "J.csv"
        table.write_text("0.5,0.1\n1.0,0.4\n2.0,0.0\n")
        cfg = parse_config(
            "scenario = dephase-correlated\nthermo.beta = 2\nbath.omega0 = 1\n"
            "spectral.family = tabulated\n"
            f"spectral.table = {table}\n"
        )
        assert cfg.params.J(1.0) == pytest.approx(0.4)

    # scenario: (its required keys with values, a key another scenario owns)
    SCHEMA_CASES = {
        "dephase-markov": ({"gamma": "1"}, "oracle.n = 3"),
        "dephase-isotropic": ({"gamma": "1"}, "bath.omega0 = 1"),
        "dephase-correlated": ({"spectral.family": "ohmic", "thermo.beta": "2",
                                "bath.omega0": "1"}, "gamma = 1"),
        "central-exact": ({"bath.N": "2", "bath.g": "0.3", "bath.omega": "0.5",
                           "bath.omega0": "1"}, "thermo.beta = 2"),
        "central-sme": ({"bath.N": "2", "bath.g": "0.3", "bath.omega": "0.5",
                         "bath.omega0": "1"}, "spectral.family = ohmic"),
        "oracle-compare": ({"oracle.n": "3", "oracle.seed": "1"}, "system.a = 1"),
        "fig2": ({"bath.N": "50"}, "bath.g = 1"),
    }

    @pytest.mark.parametrize("scenario", sorted(SCHEMA_CASES))
    def test_schema_required_and_foreign_keys(self, scenario):
        required, foreign = self.SCHEMA_CASES[scenario]
        lines = [f"scenario = {scenario}"] + [f"{k} = {v}" for k, v in required.items()]
        for key in required:
            kept = [ln for ln in lines if not ln.startswith(f"{key} =")]
            with pytest.raises(ConfigError) as exc:
                parse_config("\n".join(kept) + "\n")
            assert f"config: scenario {scenario!r} requires key {key!r}" in exc.value.messages
        foreign_key = foreign.split(" =")[0]
        with pytest.raises(ConfigError) as exc:
            parse_config("\n".join(lines + [foreign]) + "\n")
        assert (f"line {len(lines) + 1}: key {foreign_key!r} does not apply to "
                f"scenario {scenario!r}") in exc.value.messages

    def test_module_docstring_table_matches_schema(self):
        rows, scenario = {}, None
        for line in cli.__doc__.split("Scenarios and their keys")[1].splitlines()[5:]:
            if line.startswith("="):
                break
            if not line.startswith(" "):
                scenario, line = line.split(None, 1)
            rows[scenario] = rows.get(scenario, "") + " " + line
        assert set(rows) == set(cli.SCENARIOS)
        for scenario, text in rows.items():
            words = set(re.findall(r"[a-zA-Z0-9_.]+\*?", text))
            names = {"grid.*" if w.startswith("grid.") else w.rstrip("*") for w in words}
            allowed, required = cli._SCHEMA[scenario]
            keys = {"grid.*" if k.startswith("grid.") else k
                    for k in allowed if k != "output.path"}
            assert names & (set(cli._KINDS) | {"grid.*"}) == keys, scenario
            assert {w[:-1] for w in words if w.endswith("*") and w != "grid.*"} \
                == set(required), scenario

    @pytest.mark.parametrize("key", ["spectral.eta", "spectral.omega_c"])
    def test_infinite_ohmic_parameter_is_a_config_error(self, key, tmp_path, capsys):
        values = {"spectral.eta": "0.5", "spectral.omega_c": "2", key: "inf"}
        text = ("scenario = dephase-correlated\nthermo.beta = 2\nbath.omega0 = 1\n"
                "spectral.family = ohmic\n"
                + "".join(f"{k} = {v}\n" for k, v in values.items()))
        line = 5 + list(values).index(key)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any(m.startswith(f"line {line}: {key} must be finite")
                   for m in exc.value.messages)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        assert f"line {line}: {key} must be finite" in capsys.readouterr().err

    def test_beta_inf_is_zero_temperature(self):
        cfg = parse_config(
            "scenario = dephase-correlated\nthermo.beta = inf\nbath.omega0 = 1\n"
            "spectral.family = ohmic\nspectral.eta = 0.5\nspectral.omega_c = 2\n"
        )
        assert math.isinf(cfg.params.beta)


class TestRunScenario:
    def test_dephase_markov_matches_library_path(self):
        cfg = parse_config(MINIMAL_MARKOV + "grid.t1 = 2\ngrid.steps = 4\n")
        traj = run_scenario(cfg)
        for i, t in enumerate(traj.times):
            rho = evolve_dephasing_markov(cfg.psi, DephasingParams(1.0), t)
            assert traj.columns["reCoh"][i] == rho.coherence.real
            assert traj.columns["rho00"][i] == rho.rho00

    def test_dephase_markov_long_time_converges(self):
        cfg = parse_config(MINIMAL_MARKOV + "grid.t1 = 20\ngrid.steps = 10\n")
        traj = run_scenario(cfg)
        final = math.hypot(traj.columns["reCoh"][-1], traj.columns["imCoh"][-1])
        assert final < 3e-9

    def test_dephase_isotropic_reaches_mixed_state(self):
        cfg = parse_config(
            "scenario = dephase-isotropic\ngamma = 1.0\ngrid.t1 = 20\ngrid.steps = 10\n"
        )
        traj = run_scenario(cfg)
        assert traj.columns["rho00"][-1] == pytest.approx(0.5, abs=1e-6)

    def test_dephase_correlated_columns(self):
        cfg = parse_config(
            "scenario = dephase-correlated\nthermo.beta = 2\nbath.omega0 = 1\n"
            "spectral.family = ohmic\nspectral.eta = 0.5\nspectral.omega_c = 2\n"
            "grid.t1 = 1\ngrid.steps = 5\n"
        )
        traj = run_scenario(cfg)
        assert list(traj.columns) == ["rho00", "rho11", "reCoh", "imCoh",
                                      "gamma", "Phi", "chi"]
        assert traj.columns["gamma"][0] == 0.0
        assert np.all(np.diff(traj.columns["Phi"]) > 0)  # ohmic Phi increases

    def test_fig2_p0_starts_at_one(self):
        cfg = parse_config("scenario = fig2\nbath.N = 50\ngrid.steps = 500\ngrid.t1 = 1\n")
        traj = run_scenario(cfg)
        assert traj.columns["P0"][0] == pytest.approx(1.0, abs=1e-12)
        assert list(traj.columns) == ["P0", "rho00", "rho11", "reCoh", "imCoh"]

    def test_fig2_rho00_is_p0_bit_for_bit(self):
        # the preset starts with the whole state in the decaying branch (beta = 1)
        traj = run_scenario(parse_config("scenario = fig2\nbath.N = 50\n"))
        assert traj.times.size == 20001
        assert np.array_equal(traj.columns["rho00"], traj.columns["P0"])

    def test_central_exact_and_sme_run(self):
        base = (
            "bath.N = 3\nbath.g = 0.2\nbath.omega = 0.5, 1.0, 1.5\n"
            "bath.omega0 = 1\ngrid.t1 = 2\ngrid.steps = 20\n"
        )
        exact = run_scenario(parse_config("scenario = central-exact\n" + base))
        assert abs(exact.columns["P0"][0] - 1.0) < 1e-12
        sme = run_scenario(parse_config("scenario = central-sme\n" + base))
        assert sme.columns["rho00"][0] + sme.columns["rho11"][0] == pytest.approx(1.0)

    def test_central_sme_never_steps_rk4(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("RK4 reached on the central-sme production path")

        # any RK4 path needs the oracle's step rule or the generic integrator
        monkeypatch.setattr(cli.central_spin_nm, "integrate_master", refuse)
        monkeypatch.setattr(cli.central_spin_nm, "_refine_factor", refuse)
        rotation = ("scenario = central-sme\nbath.N = 3\nbath.g = 0.03, 0.02, 0.05\n"
                    "bath.omega = -0.4, 0.8, 2.1\nbath.omega0 = 60\n")
        for text in (README_SME + "grid.t1 = 6\ngrid.steps = 2000\n",
                     rotation + "grid.t1 = 3\ngrid.steps = 60\n"):
            traj = run_scenario(parse_config(text))
            assert np.all(np.isfinite(traj.columns["reCoh"]))

    def test_oracle_compare_deviation_below_threshold(self):
        traj = oracle_compare_trajectory(cli._oracle_bath(6, 42), TimeGrid(0.0, 5.0, 100))
        assert float(np.max(traj.columns["ampDev"])) < 1e-10
        assert float(np.max(traj.columns["szDrift"])) < 1e-10

    @pytest.mark.parametrize("text", [
        MINIMAL_MARKOV + "grid.t1 = 3\ngrid.steps = 30\n",
        "scenario = dephase-isotropic\ngamma = 0.7\ngrid.t1 = 3\ngrid.steps = 30\n",
        "scenario = dephase-correlated\nthermo.beta = 2\nbath.omega0 = 1\n"
        "spectral.family = ohmic\nspectral.eta = 0.5\nspectral.omega_c = 2\n"
        "grid.t1 = 2\ngrid.steps = 10\n",
        "scenario = central-exact\nbath.N = 3\nbath.g = 0.4\n"
        "bath.omega = 0.2, 0.9, 1.4\nbath.omega0 = 0.6\n"
        "grid.t1 = 3\ngrid.steps = 40\n",
        "scenario = central-sme\nbath.N = 3\nbath.g = 0.1\n"
        "bath.omega = 0.2, 0.9, 1.4\nbath.omega0 = 0.6\n"
        "grid.t1 = 2\ngrid.steps = 40\n",
    ])
    def test_every_record_is_a_valid_density_matrix(self, text):
        traj = run_scenario(parse_config(text))
        for i in range(len(traj)):
            DensityMatrix2.from_parts(
                traj.columns["rho00"][i],
                traj.columns["rho11"][i],
                traj.columns["reCoh"][i] + 1j * traj.columns["imCoh"][i],
                atol=1e-9,
            )


    def test_isotropic_gamma_1e308_mixes_at_once(self, tmp_path):
        # gamma t overflows to inf at t > 0; at t = 0 the exponent is 0, not nan
        text = ("scenario = dephase-isotropic\ngamma = 1e308\nsystem.a = 0.6\n"
                "system.b = 0.8j\ngrid.steps = 4\n")
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
        cfg.write_text(text + f"output.path = {out}\n")
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["run", str(cfg)]) == 0
        cols = Trajectory.read_csv(out).columns
        psi = parse_config(text).psi
        assert cols["rho00"][0] == abs(psi.a) ** 2 and cols["rho11"][0] == abs(psi.b) ** 2
        assert cols["reCoh"][0] + 1j * cols["imCoh"][0] == psi.a * np.conj(psi.b)
        for name, value in (("rho00", 0.5), ("rho11", 0.5), ("reCoh", 0.0), ("imCoh", 0.0)):
            assert np.all(cols[name][1:] == value), name


def test_readme_examples_run():
    """Every ini block of README.md is a valid config that runs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        text = "".join(line for line in block.splitlines(keepends=True)
                       if not line.startswith("output.path"))
        cfg = parse_config(text)
        assert len(run_scenario(cfg)) == cfg.grid.steps + 1


_BATH = "bath.N = 2\nbath.g = 0.3\nbath.omega = 0.5, 1\n"
_OHMIC = ("scenario = dephase-correlated\nspectral.family = ohmic\nspectral.eta = 1\n"
          "spectral.omega_c = 5\n")
_MARKOV, _ISOTROPIC = "scenario = dephase-markov\n", "scenario = dephase-isotropic\n"
_EXACT = "scenario = central-exact\n" + _BATH
#: A real negative system.b in each scenario that takes one (a b* is then
#: real with a signed-zero imaginary part), and an Ohmic coherence that
#: underflows to zero: no state may carry a -0 into the CSV.
_NEGATIVE_B = "system.a = 0.95\nsystem.b = -0.31224989991991997\ngrid.t1 = 2\ngrid.steps = 20\n"
_SIGNED_ZERO_CASES = {
    "markov": _MARKOV + "gamma = 0.5\n" + _NEGATIVE_B,
    "isotropic": _ISOTROPIC + "gamma = 0.5\n" + _NEGATIVE_B,
    # <sigma_z> = 0.805 > tanh(beta omega0 / 2): chi's slope R is negative
    "correlated": _OHMIC + "thermo.beta = 2\nbath.omega0 = 0.5\n" + _NEGATIVE_B,
    "exact": _EXACT + "bath.omega0 = 1\n" + _NEGATIVE_B,
    "sme": "scenario = central-sme\n" + _BATH + "bath.omega0 = 1\n" + _NEGATIVE_B,
    "correlated-underflow": ("scenario = dephase-correlated\nspectral.family = ohmic\n"
                             "spectral.eta = 0.7\nspectral.omega_c = 5\nthermo.beta = 2\n"
                             "bath.omega0 = 0.1\ngrid.t1 = 1e16\ngrid.steps = 4\n"),
}


@pytest.mark.parametrize("case", sorted(_SIGNED_ZERO_CASES))
def test_no_cell_is_negative_zero(case, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_SIGNED_ZERO_CASES[case])
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == len(parse_config(_SIGNED_ZERO_CASES[case]).grid.times) + 1
    assert re.search(r"(^|,)-0(,|$)", out, re.M) is None
#: Configs once refused only at run time without a line, or with a traceback,
#: or (exact-t1-1e300) run to numbers with no digit of their phase left:
#: (text, the keys whose lines the refusal must name).
_REFUSALS = {
    "markov-gamma-inf": (_MARKOV + "gamma = inf\n", "gamma"),
    "isotropic-gamma-inf": (_ISOTROPIC + "gamma = inf\n", "gamma"),
    "markov-omega0-inf": (_MARKOV + "gamma = 1\nbath.omega0 = inf\n", "bath.omega0"),
    "exact-omega0-inf": (_EXACT + "bath.omega0 = inf\n", "bath.omega0"),
    "sme-omega0-inf": ("scenario = central-sme\n" + _BATH + "bath.omega0 = inf\n",
                       "bath.omega0"),
    "zero-t-beta": (_OHMIC + "thermo.beta = inf\nbath.omega0 = 0\n", "thermo.beta"),
    "zero-t-omega0": (_OHMIC + "thermo.beta = inf\nbath.omega0 = 0\n", "bath.omega0"),
    "markov-t0": (_MARKOV + "gamma = 1\ngrid.t0 = -1\n", "grid.t0"),
    "isotropic-t0": (_ISOTROPIC + "gamma = 1\ngrid.t0 = -1\n", "grid.t0"),
    "correlated-t0": (_OHMIC + "thermo.beta = 2\nbath.omega0 = 1\ngrid.t0 = -1\n", "grid.t0"),
    "sme-t0": ("scenario = central-sme\n" + _BATH + "bath.omega0 = 1\ngrid.t0 = -1\n",
               "grid.t0"),
    "system-a-1e200": (_MARKOV + "gamma = 1\nsystem.a = 1e200\n", "system.a"),
    "system-b-1e200": (_EXACT + "bath.omega0 = 1\nsystem.b = 1e200\n", "system.b"),
    "polarization-c-1e200": (_EXACT + "bath.omega0 = 1\nbath.polarization.c = 1e200\n",
                             "bath.polarization.c"),
    "polarization-d-1e200": ("scenario = central-sme\n" + _BATH
                             + "bath.omega0 = 1\nbath.polarization.d = 1e200\n",
                             "bath.polarization.d"),
    # the largest phase omega*t passes 2**53
    "oracle-compare-t1-1e300": (
        "scenario = oracle-compare\noracle.n = 1\noracle.seed = 0\n"
        "grid.t0 = -1\ngrid.t1 = 1e300\n", "oracle.n", "oracle.seed", "grid.t0", "grid.t1"),
    "markov-omega0-1e308": (_MARKOV + "gamma = 1\nbath.omega0 = 1e308\n", "bath.omega0"),
    "sme-omega-1e308": ("scenario = central-sme\n" + _BATH.replace("0.5, 1", "1e308, 0.9")
                        + "bath.omega0 = 1\n", "bath.N", "bath.g", "bath.omega",
                        "bath.omega0"),
    "exact-t1-1e300": (_EXACT + "bath.omega0 = 1\ngrid.t1 = 1e300\n",
                       "bath.N", "bath.g", "bath.omega", "bath.omega0", "grid.t1"),
    # the CSV alone would take gigabytes: refused by its estimate, never run
    "markov-steps-2e9": (_MARKOV + "gamma = 1\ngrid.steps = 2000000000\n", "grid.steps"),
    "isotropic-steps-2e9": (_ISOTROPIC + "gamma = 1\ngrid.steps = 2000000000\n",
                            "grid.steps"),
    "correlated-steps-2e9": (_OHMIC + "thermo.beta = 2\nbath.omega0 = 1\n"
                             "grid.steps = 2000000000\n", "grid.steps"),
    "exact-steps-1e7": (_EXACT + "bath.omega0 = 1\ngrid.steps = 10000000\n", "grid.steps"),
    "fig2-steps-1e7": ("scenario = fig2\nbath.N = 50\ngrid.steps = 10000000\n",
                       "grid.steps"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusal_names_the_line_of_its_key(case, tmp_path, capsys):
    """Values that only a model rule refuses (or that once overflowed) exit 2 at once."""
    text, *keys = _REFUSALS[case]
    cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
    cfg.write_text(text + f"output.path = {out}\n")
    started = time.perf_counter()
    assert main(["run", str(cfg)]) == 2
    assert time.perf_counter() - started < 0.5
    err = capsys.readouterr().err.splitlines()
    for key in keys:
        line = next(n for n, ln in enumerate(text.splitlines(), 1) if ln.startswith(f"{key} ="))
        assert any(re.match(rf"error: (line \d+: [\w.]+, )*line {line}: {re.escape(key)}\b", m)
                   for m in err), (key, err)
    assert not out.exists()


#: A typical valid value of each key; the bath has N = 2 modes.
_PLAIN = {"gamma": "0.5", "system.a": "0.70710678", "system.b": "0.70710678j",
          "bath.omega0": "0.9", "bath.N": "2", "bath.g": "0.3", "bath.omega": "0.5, 1.2",
          "bath.polarization.c": "0", "bath.polarization.d": "1",
          "spectral.family": "ohmic", "spectral.eta": "0.7", "spectral.omega_c": "5",
          "thermo.beta": "2", "grid.t0": "0", "grid.t1": "3", "grid.steps": "20",
          "oracle.n": "3", "oracle.seed": "1"}
#: Hard values drawn for every key kind: zeros, units, extremes, non-finite
#: values, a list, a complex number and text.
_SPECIAL = ["0", "-0", "1", "-1", "1e-308", "1e200", "1e308", "inf", "-inf", "nan",
            "0.6, 0.8", "0.6+0.8j", "text"]


def _hard_values(key: str):
    """The hard values of a key's kind, with grid times kept below 2**53 / Omega.

    Large sizes are drawn too: far over the work caps of oracle-compare and
    of a tabulated density (grid.t1 = 1e8), over the CSV caps (grid.steps
    = 10**7 and 2*10**9), and a bath of 10**5 spins.
    """
    if key in ("grid.t0", "grid.t1"):
        return st.sampled_from([v for v in _SPECIAL if v not in ("1e200", "1e308")]
                               + ["20", "1e8"])
    if key == "grid.steps":
        return st.sampled_from(_SPECIAL + ["50", "10000000", "2000000000"])
    if cli._KINDS[key] is int:
        return st.sampled_from(_SPECIAL + ["8", "100000"])
    if key == "spectral.family":
        return st.sampled_from(["tabulated", "text"])
    return st.sampled_from(_SPECIAL)


@st.composite
def _config_texts(draw, table: str) -> str:
    """A scenario's keys: up to three take hard values, the rest typical ones.

    Required keys and grid.steps always appear (most configs then reach
    the model constructors); other keys are left out one time in four.
    """
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    allowed, required = cli._SCHEMA[scenario]
    keys = [key for key in allowed if key != "output.path"]
    hard = draw(st.sets(st.sampled_from(keys), max_size=3))
    lines = [f"scenario = {scenario}"]
    for key in keys:
        if key in hard:
            lines.append(f"{key} = {draw(_hard_values(key))}")
        elif key in required or key == "grid.steps" or draw(st.integers(0, 3)):
            lines.append(f"{key} = {table if key == 'spectral.table' else _PLAIN[key]}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    """A directory holding a valid spectral table, J.csv."""
    return _table(tmp_path_factory.mktemp("configs")).parent


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_config_runs_clean_or_is_refused(data, config_dir):
    """Config texts over the schema either run to a valid CSV or are refused.

    Up to three keys of a drawn scenario take values from a fixed set of
    hard cases of their kind (zeros, units, 1e-308, 1e200, 1e308,
    infinities, nan, a list, a complex number, text), the others typical
    valid values.  A run must exit 0 with finite, unit-trace, positive
    semidefinite states on stdout; a refusal must exit 2 or 3 with
    ``error:`` lines (or oracle-compare's FAIL verdict) on stderr; nothing may
    raise.
    Each example must finish within 2 s, so an oversize run admitted by its
    estimate fails here instead of stalling the suite.
    """
    text = data.draw(_config_texts(str(config_dir / "J.csv")))
    cfg = config_dir / "cfg.txt"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main(["run", str(cfg)])
    assert time.perf_counter() - started < 2.0, text
    if code != 0:
        assert code in (2, 3), (text, code)
        assert err.getvalue().startswith("error: ") or "FAIL" in err.getvalue(), text
        return
    header, *rows = out.getvalue().splitlines()
    names = header.split(",")
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    cols = dict(zip(names, values.T))
    for name in {"t", "P0", "rho00", "rho11", "reCoh", "imCoh", "ampDev"} & set(cols):
        assert np.all(np.isfinite(cols[name])), (text, name)
    if "rho00" in cols:
        DensityMatrix2.from_parts(cols["rho00"], cols["rho11"],
                                  cols["reCoh"] + 1j * cols["imCoh"], atol=1e-9)


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_render_estimate_counts_every_csv_column(scenario):
    """The CSV estimate of parse_config counts the columns each scenario emits."""
    allowed, _ = cli._SCHEMA[scenario]
    text = f"scenario = {scenario}\n" + "".join(
        f"{key} = {_PLAIN[key]}\n" for key in allowed if key in _PLAIN)
    traj = run_scenario(parse_config(text.replace("bath.N = 2\n", "bath.N = 50\n")
                                     if scenario == "fig2" else text))
    assert len(traj.column_names) == cli._CSV_COLUMNS[scenario]


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_no_scenario_runs_dense_eigh(scenario, monkeypatch):
    """Every CLI path, oracle-compare too, runs the one secular solver; dense
    eigh is the tests' reference alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigh on a CLI path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    allowed, _ = cli._SCHEMA[scenario]
    text = f"scenario = {scenario}\n" + "".join(
        f"{key} = {_PLAIN[key]}\n" for key in allowed if key in _PLAIN)
    run_scenario(parse_config(text.replace("bath.N = 2\n", "bath.N = 50\n")
                              if scenario == "fig2" else text))


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_run_peak_stays_within_its_byte_estimates(scenario, monkeypatch):
    """A whole run, config text to CSV text, holds at most the largest byte
    estimate it passes to the work rule, so MAX_BYTES bounds what it holds.

    At 50 001 points the per-point arrays dominate: the CSV estimate must
    cover the render with the trajectory and the model's arrays still
    alive; for oracle-compare the states' estimate is the larger one.
    """
    estimates = []

    def spy(work, nbytes, *args):
        estimates.append(nbytes)
        trajectory.check_work(work, nbytes, *args)

    for module in (cli, central_spin, central_spin_nm, dephasing_nm):
        monkeypatch.setattr(module, "check_work", spy)
    allowed, _ = cli._SCHEMA[scenario]
    plain = {**_PLAIN, "grid.steps": "50000", "bath.N": "50" if scenario == "fig2" else "2"}
    text = f"scenario = {scenario}\n" + "".join(
        f"{key} = {plain[key]}\n" for key in allowed if key in plain)
    # a small run first, so that the modules a scenario imports on first
    # use are not counted as its arrays
    run_scenario(parse_config(text.replace("grid.steps = 50000", "grid.steps = 20")))
    estimates.clear()
    tracemalloc.start()
    try:
        run_scenario(parse_config(text)).to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimates[0] == 50_001 * cli._CSV_COLUMNS[scenario] * cli._CELL_BYTES
    assert peak <= max(estimates), (peak, estimates)


@pytest.mark.parametrize("n", [2, 8])
def test_short_oracle_compare_peak_stays_within_its_byte_estimates(n, monkeypatch):
    """At a short horizon the brute force's Bessel table is a few rows: the
    peak of N = 2 is the brute force's (its CSV render holds less), that of
    N = 8 the sector evolution's beside the brute-force block, and each has
    its own estimate."""
    estimates = []

    def spy(work, nbytes, *args):
        estimates.append(nbytes)
        trajectory.check_work(work, nbytes, *args)

    for module in (cli, central_spin):
        monkeypatch.setattr(module, "check_work", spy)
    text = f"scenario = oracle-compare\noracle.n = {n}\noracle.seed = 1\ngrid.t1 = 1e-4\n"
    run_scenario(parse_config(text + "grid.steps = 20\n"))
    estimates.clear()
    tracemalloc.start()
    try:
        run_scenario(parse_config(text + "grid.steps = 20000\n")).to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(estimates), (peak, estimates)


class TestCsv:
    def test_header_names_every_column_and_17_digits(self, tmp_path):
        traj = Trajectory(np.array([0.0, 1.0]),
                          {"rho00": np.array([1 / 3, 2 / 3])})
        path = tmp_path / "out.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,rho00"
        assert lines[1] == "0,0.33333333333333331"

    def test_roundtrip_identical_floats(self, tmp_path):
        rng = np.random.default_rng(1)
        traj = Trajectory(np.sort(rng.uniform(0, 10, 50)),
                          {"a": rng.normal(size=50), "b": rng.uniform(-1, 1, 50)})
        path = tmp_path / "roundtrip.csv"
        traj.write_csv(path)
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.columns["a"], traj.columns["a"])
        assert np.array_equal(back.columns["b"], traj.columns["b"])

    def test_read_csv_takes_paths_only(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Trajectory.read_csv(tmp_path / "typo.csv")
        with pytest.raises(FileNotFoundError):
            Trajectory.read_csv("t,x\n0,1\n")

    @pytest.mark.parametrize("text, missing", [("", "header"), ("\n \n", "header"),
                                               ("t,rho00\n", "data row"),
                                               ("t,rho00\n\n", "data row")])
    def test_read_csv_without_rows_names_the_file(self, tmp_path, text, missing):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"no CSV {missing} in .*short\\.csv"):
            Trajectory.read_csv(path)

    def test_single_point_trajectory(self):
        traj = Trajectory(np.array([0.5]), {"x": np.array([1.0])})
        text = traj.to_csv()
        assert text == "t,x\n0.5,1\n"

    def test_lf_line_endings(self, tmp_path):
        traj = Trajectory(np.array([0.0, 1.0]), {"x": np.array([1.0, 2.0])})
        path = tmp_path / "lf.csv"
        traj.write_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    @staticmethod
    def _f_string_render(traj):
        """The cell-by-cell render the row formatter replaced, as the reference."""
        lines = [",".join(traj.column_names)]
        cols = [traj.times, *traj.columns.values()]
        for i in range(traj.times.size):
            lines.append(",".join(f"{float(c[i]):.17g}" for c in cols))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("text", [
        MINIMAL_MARKOV + "bath.omega0 = 1.3\ngrid.steps = 300\n",
        "scenario = dephase-isotropic\ngamma = 0.7\ngrid.steps = 300\n",
        # starts on the Ohmic singular point t* = tan(pi/(2 eta))/omega_c:
        # gamma = inf and chi = nan in the first row
        "scenario = dephase-correlated\nthermo.beta = 2\nbath.omega0 = 0\n"
        "spectral.family = ohmic\nspectral.eta = 1.2\nspectral.omega_c = 2\n"
        f"grid.t0 = {math.tan(math.pi / 2.4) / 2.0!r}\ngrid.t1 = 4\ngrid.steps = 50\n",
        "scenario = central-exact\nbath.N = 3\nbath.g = 0.4\n"
        "bath.omega = 0.2, 0.9, 1.4\nbath.omega0 = 0.6\ngrid.t1 = 30\n",
        "scenario = central-sme\nbath.N = 3\nbath.g = 0.1\n"
        "bath.omega = 0.2, 0.9, 1.4\nbath.omega0 = 0.6\ngrid.t1 = 2\ngrid.steps = 40\n",
        "scenario = oracle-compare\noracle.n = 4\noracle.seed = 3\ngrid.steps = 50\n",
        "scenario = fig2\nbath.N = 50\n",
    ])
    def test_render_matches_cell_by_cell_formatting(self, text):
        traj = run_scenario(parse_config(text))
        assert traj.to_csv() == self._f_string_render(traj)
        if "correlated" in text:
            assert "inf" in traj.to_csv() and "nan" in traj.to_csv()

    def test_render_of_special_values(self):
        tiny = np.finfo(float).tiny
        values = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, tiny / 3, -5e-324,
                           tiny, 1e308, -1 / 3])
        traj = Trajectory(np.arange(values.size, dtype=float),
                          {"x": values, "y": values[::-1].copy(),
                           "n": np.arange(values.size)})
        text = traj.to_csv()
        assert text == self._f_string_render(traj)
        assert ",inf," in text and ",nan," in text and "\n3,-0," in text
        assert "4.9406564584124654e-324" in text

    @pytest.mark.parametrize("extra", [-1, 0, 1, trajectory._CSV_BLOCK_ROWS + 1])
    def test_render_at_block_edges(self, extra):
        # block - 1, block, block + 1 and 2 block + 1 rows; a copied column,
        # the same array twice and a zero column repeat inside every block
        rows = trajectory._CSV_BLOCK_ROWS + extra
        rng = np.random.default_rng(rows)
        x = rng.normal(size=rows)
        traj = Trajectory(np.arange(rows) / 7.0,
                          {"x": x, "copy": x.copy(), "same": x, "y": rng.uniform(-1, 1, rows),
                           "zero": np.zeros(rows), "zero2": np.zeros(rows)})
        assert traj.to_csv() == self._f_string_render(traj)

    def test_columns_equal_in_value_but_not_in_bits_keep_their_text(self):
        rows = trajectory._CSV_BLOCK_ROWS + 3
        payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
        nan_a, nan_b = (np.full(rows, bits).view(float) for bits in payloads)
        traj = Trajectory(np.arange(float(rows)),
                          {"pos": np.zeros(rows), "neg": np.full(rows, -0.0),
                           "nan_a": nan_a, "nan_b": nan_b})
        text = traj.to_csv()
        assert text == self._f_string_render(traj)
        assert set(text.splitlines()[1:]) == {f"{i},0,-0,nan,nan" for i in range(rows)}

    def test_constant_int_and_single_row_columns(self):
        rows = trajectory._CSV_BLOCK_ROWS + 1
        traj = Trajectory(np.linspace(0.0, 1.0, rows),
                          {"c": np.full(rows, 1 / 3), "n": np.arange(rows) * 3,
                           "big": np.full(rows, 2**53 + 1)})
        assert traj.to_csv() == self._f_string_render(traj)
        one = Trajectory(np.array([2.5]), {"n": np.array([7]), "x": np.array([-1e-300])})
        assert one.to_csv() == self._f_string_render(one) == "t,n,x\n2.5,7,-1e-300\n"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.sampled_from([1, 2, 3, 17, trajectory._CSV_BLOCK_ROWS,
                                 trajectory._CSV_BLOCK_ROWS + 1]),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_render_of_random_bit_patterns_and_repeats(self, seed, rows, picks):
        """Any float64 bit pattern (NaN payloads, subnormals, -0, inf)
        renders as the cell-by-cell reference, with columns drawn from four
        random ones so that some repeat."""
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2**64, size=(4, rows), dtype=np.uint64, endpoint=False).view(float)
        traj = Trajectory(np.arange(float(rows)), {f"c{j}": pool[k] for j, k in enumerate(picks)})
        assert traj.to_csv() == self._f_string_render(traj)

    def test_render_peak_per_cell(self):
        """to_csv holds its text twice (the blocks and their join) and one
        block's lists: a return to whole-table row lists (~100 B a cell)
        fails."""
        rows, rng = 20_001, np.random.default_rng(5)
        traj = Trajectory(np.linspace(0.0, 1.0, rows), {f"c{j}": rng.normal(size=rows)
                                                         for j in range(5)})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            text = traj.to_csv()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        cells = rows * 6
        assert len(text) < 25 * cells
        assert peak < 52 * cells, peak / cells

    def test_written_file_and_stdout_equal_to_csv_across_blocks(self, tmp_path, capsys):
        steps = 2 * trajectory._CSV_BLOCK_ROWS  # three blocks of rows
        text = MINIMAL_MARKOV + f"bath.omega0 = 1.3\ngrid.steps = {steps}\n"
        expected = run_scenario(parse_config(text)).to_csv()
        assert expected.count("\n") == steps + 2
        out = tmp_path / "blocks.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text + f"output.path = {out}\n")
        assert main(["run", str(cfg)]) == 0
        assert out.read_bytes() == expected.encode()
        cfg.write_text(text)
        capsys.readouterr()
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    def test_population_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Trajectory(np.array([0.0, 1.0]),
                       {"rho00": np.array([0.6, 0.6]),
                        "rho11": np.array([0.5, 0.5])})


class TestMain:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(MINIMAL_MARKOV + f"grid.steps = 5\noutput.path = {out}\n")
        assert main(["run", str(cfg)]) == 0
        assert out.read_text().startswith("t,rho00,rho11,reCoh,imCoh\n")

    def test_run_stdout_when_no_output_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(MINIMAL_MARKOV + "grid.steps = 2\n")
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("t,rho00")

    def test_run_reports_all_config_errors(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("scenario = dephase-markov\ngamma = -1\nnope = 2\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "line 2: gamma: gamma must be finite and >= 0" in err
        assert "unknown key" in err

    def test_run_missing_file(self, capsys):
        assert main(["run", "/nonexistent/cfg.txt"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unresolvable_grid_refused_before_running(self, tmp_path, capsys):
        # five ulps of 1 cut into 1000 steps: the grid refuses it with its
        # three lines, before the model runs or any CSV is written
        out = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = dephase-markov\ngamma = 1\ngrid.t0 = 1\n"
                       "grid.t1 = 1.000000000000001\ngrid.steps = 1000\n"
                       f"output.path = {out}\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "line 3: grid.t0, line 4: grid.t1, line 5: grid.steps: " in err
        assert "strictly increasing" in err
        assert not out.exists()

    def test_python_m_runs_the_module_once(self, tmp_path):
        # the package does not import cli, so runpy finds no half-run copy
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                          os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "dev.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "decobath.cli",
             "oracle-compare", "--n", "2", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("t,ampDev,szDrift\n")

    def test_long_readme_central_sme_completes_fast(self, tmp_path):
        # the README bath run ten times longer: ~3e8 steps at the RK4
        # oracle's step, one mode sum per time point on the exact path
        out = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(README_SME + f"grid.t1 = 60\ngrid.steps = 2000\noutput.path = {out}\n")
        started = time.perf_counter()
        assert main(["run", str(cfg)]) == 0
        assert time.perf_counter() - started < 2.0
        traj = Trajectory.read_csv(out)
        rot = central_spin.rotate_to_polarization(
            QubitAmplitudes(1 / math.sqrt(2), 1 / math.sqrt(2)), QubitAmplitudes(0.0, 1.0))
        delta = 0.9 - np.array([0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.2])
        s = np.sin(0.5 * np.outer(traj.times, delta))
        gamma_1 = np.sum(1.44 * 4.0 * s * s / delta**2, axis=1)
        expected = abs(rot.beta) ** 2 * np.exp(-gamma_1)
        assert np.max(np.abs(traj.columns["rho00"] - expected)) < 1e-14

    def test_oversized_central_exact_refused_fast_with_estimate(
            self, monkeypatch, tmp_path, capsys):
        # 3.5 10^5 distinct splittings: ~1.1 10^9 secular pairs in the
        # two-level solve alone.  The shared solve is made to raise, so a
        # missing or late refusal fails here instead of running.
        def never(*args):
            raise AssertionError("the oversize secular problem was started")

        monkeypatch.setattr(central_spin, "_secular_roots", never)
        n = 350_000
        g, splittings = np.full(n, 0.001), np.linspace(0.5, 1.5, n)
        omega = ", ".join(map(repr, splittings.tolist()))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"scenario = central-exact\nbath.N = {n}\nbath.g = 0.001\n"
            f"bath.omega = {omega}\nbath.omega0 = 1.1\n"
            f"output.path = {tmp_path / 'out.csv'}\n"
        )
        started = time.perf_counter()
        assert main(["run", str(cfg)]) == 2
        assert time.perf_counter() - started < 0.5
        err = capsys.readouterr().err
        head = 1.1 - float(np.sum(g))
        poles, zsq, _ = central_spin._deflate(head, g, splittings - g)
        assert central_spin._secular_plan(head, poles, zsq, 0)[1] > trajectory.MAX_WORK
        work = central_spin._secular_plan(head, poles, zsq, 1001)[1]
        assert f"needs an estimated {work} element pairs" in err
        assert f"{n} secular poles" in err
        assert not (tmp_path / "out.csv").exists()

    def test_oversized_central_sme_refused_fast_with_estimate(self, tmp_path, capsys):
        # 10^5 modes x 10002 times: just over the cap, ~1 min if it ran
        n, points = 100_000, 10_002
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"scenario = central-sme\nbath.N = {n}\nbath.g = 0.001\nbath.omega = 0.8\n"
            f"bath.omega0 = 1.1\ngrid.steps = {points - 1}\n"
            f"output.path = {tmp_path / 'out.csv'}\n"
        )
        started = time.perf_counter()
        assert main(["run", str(cfg)]) == 2
        assert time.perf_counter() - started < 0.5
        err = capsys.readouterr().err
        assert f"needs an estimated {n * points} element pairs ({n} bath modes, " \
               f"{points} time points), above the cap of {trajectory.MAX_WORK}" in err
        assert not (tmp_path / "out.csv").exists()

    def test_oversized_oracle_compare_refused_fast_with_estimate(
            self, monkeypatch, tmp_path, capsys):
        # two bath spins over 10^7 time units: tens of millions of Chebyshev
        # terms on the 3-state block the excitation can reach
        def never(*args):
            raise AssertionError("weights were computed for a refused run")

        monkeypatch.setattr(central_spin, "_bessel_table", never)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = oracle-compare\noracle.n = 2\noracle.seed = 1\n"
                       f"grid.t1 = 1e7\noutput.path = {tmp_path / 'out.csv'}\n")
        started = time.perf_counter()
        assert main(["run", str(cfg)]) == 2
        assert time.perf_counter() - started < 0.5
        err = capsys.readouterr().err
        found = re.search(r"needs an estimated (\d+) element pairs \((\d+) Chebyshev terms "
                          r"on a block of 3 of 8 register states, 1001 time points\), above "
                          r"the cap of " + str(trajectory.MAX_WORK), err)
        assert found, err
        assert int(found[1]) > 10 * trajectory.MAX_WORK and int(found[2]) > 10**7
        assert not (tmp_path / "out.csv").exists()

    def test_oracle_compare_states_over_the_byte_cap_refused_fast(
            self, monkeypatch, tmp_path, capsys):
        # a short horizon keeps the Chebyshev series at ~11 terms, but 10^4
        # states of a whole 8192-state register (a generic start reaches all
        # of it), with sz_total's temporaries, take 2.6 GB
        def never(*args):
            raise AssertionError("weights were computed for a refused run")

        monkeypatch.setattr(central_spin, "_bessel_table", never)
        spec = cli._oracle_bath(12, 42)
        v = np.random.default_rng(12).normal(size=spec.dim_full) + 0j
        v /= np.linalg.norm(v)
        started = time.perf_counter()
        with pytest.raises(WorkBudgetError) as err:
            central_spin.brute_force_evolve(spec, v, TimeGrid(0.0, 0.01, 9999))
        assert time.perf_counter() - started < 0.5
        assert re.search(r"needs an estimated \d+ element pairs and \d+ bytes \(\d+ Chebyshev "
                         r"terms on a block of 8192 of 8192 register states, 10000 time "
                         rf"points\), above the cap of {trajectory.MAX_BYTES} bytes",
                         str(err.value)), err.value
        monkeypatch.undo()
        # oracle-compare's start reaches a 13-state block: the same grid then
        # holds 2 MB of states and runs, well inside the CSV bound too
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = oracle-compare\noracle.n = 12\noracle.seed = 42\n"
                       "grid.t1 = 0.01\ngrid.steps = 9999\n"
                       f"output.path = {tmp_path / 'out.csv'}\n")
        assert main(["run", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().err
        assert len(Trajectory.read_csv(tmp_path / "out.csv").times) == 10_000

    def test_uniform_large_bath_deflates_to_rabi(self, tmp_path):
        # 10^5 identical bath spins deflate to one pole with coupling g sqrt(N)
        n, g, omega, omega0 = 100_000, 0.003, 0.8, 301.0
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "out.csv"
        cfg.write_text(
            f"scenario = central-exact\nbath.N = {n}\nbath.g = {g}\n"
            f"bath.omega = {omega}\nbath.omega0 = {omega0}\n"
            f"system.a = 0.6\nsystem.b = 0.8\noutput.path = {out}\n"
        )
        assert main(["run", str(cfg)]) == 0
        cols = Trajectory.read_csv(out).columns
        t = TimeGrid(0.0, 10.0, 1000).times
        half = 0.5 * ((omega0 - n * g) - (omega - g))
        rabi = math.sqrt(half ** 2 + n * g * g)
        amp = np.exp(-0.5j * ((omega0 - n * g) + (omega - g)) * t) * (
            np.cos(rabi * t) - 1j * (half / rabi) * np.sin(rabi * t))
        # bath along |1>: alpha = b, beta = a
        assert np.max(np.abs(cols["P0"] - np.abs(amp) ** 2)) < 1e-12
        assert np.max(np.abs(cols["reCoh"] + 1j * cols["imCoh"] - 0.8 * 0.6 * amp)) < 1e-12

    @pytest.mark.parametrize("name, value, message", [
        ("_NORM_TOL", -1.0, "trace drift"),
        ("_SECULAR_MAX_ITER", 1, "did not converge"),
    ])
    def test_spectral_quality_aborts_exit_3(self, monkeypatch, tmp_path, capsys,
                                            name, value, message):
        monkeypatch.setattr(central_spin, name, value)
        out = tmp_path / "out.csv"
        assert main(["preset", "fig2", "--n", "50", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical quality abort" in err and message in err
        assert not out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        body = (
            "scenario = central-exact\nbath.N = 4\nbath.g = 0.7\n"
            "bath.omega = 0.1, 0.4, 0.9, 1.6\nbath.omega0 = 0.8\n"
            "grid.t1 = 3\ngrid.steps = 200\n"
        )
        cfg.write_text(body + f"output.path = {out1}\n")
        assert main(["run", str(cfg)]) == 0
        cfg.write_text(body + f"output.path = {out2}\n")
        assert main(["run", str(cfg)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_fig2(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["preset", "fig2", "--n", "50", "--out", str(out)]) == 0
        header = out.read_text().split("\n", 1)[0]
        assert header == "t,P0,rho00,rho11,reCoh,imCoh"

    def test_oracle_compare_pass_line(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = main(["oracle-compare", "--n", "5", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().err
        assert out.exists()

    def test_oracle_compare_checks_the_shipped_secular_solver(self, monkeypatch, tmp_path,
                                                               capsys):
        # every eigenvalue of the shipped measure 1% off in its phases moves
        # what central-exact and fig2 print; oracle-compare's c_0 and c_k are
        # summed from the same blocks
        blocks = central_spin._phase_blocks
        text = README_SME.replace("central-sme", "central-exact")
        p0 = run_scenario(parse_config(text)).columns["P0"]
        monkeypatch.setattr(central_spin, "_phase_blocks",
                            lambda grid, mu, w: blocks(grid, 1.01 * mu, w))
        assert np.max(np.abs(run_scenario(parse_config(text)).columns["P0"] - p0)) > 1e-3
        out = tmp_path / "oracle.csv"
        assert main(["oracle-compare", "--n", "8", "--seed", "42", "--out", str(out)]) == 3
        assert "FAIL" in capsys.readouterr().err
        # the same error in the one secular solve also reaches the
        # eigenvector coefficients g_k / (mu_j - d_k), whose norm check aborts
        monkeypatch.undo()
        solve = central_spin._secular_roots

        def scaled(*args):
            origins, offsets, w = solve(*args)
            return 1.01 * origins, 1.01 * offsets, w

        monkeypatch.setattr(central_spin, "_secular_roots", scaled)
        assert np.max(np.abs(run_scenario(parse_config(text)).columns["P0"] - p0)) > 1e-3
        assert main(["oracle-compare", "--n", "8", "--seed", "42", "--out", str(out)]) == 3
        assert "trace drift" in capsys.readouterr().err
        monkeypatch.undo()
        assert main(["oracle-compare", "--n", "12", "--seed", "42", "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().err
        assert float(np.max(Trajectory.read_csv(out).columns["ampDev"])) <= 1e-13

    def test_fig2_coherence_holds_no_negative_zero(self):
        # fig2 starts with alpha = 0, so its coherence alpha* beta a(t) is 0
        cols = run_scenario(parse_config("scenario = fig2\nbath.N = 50\n")).columns
        for name in ("reCoh", "imCoh"):
            assert not np.any(cols[name]) and not np.any(np.signbit(cols[name]))

    def test_oracle_compare_fail_with_unwritable_out(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "ORACLE_DEVIATION_THRESHOLD", 0.0)
        out = tmp_path / "missing_dir" / "x.csv"
        code = main(["oracle-compare", "--n", "3", "--seed", "7", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "FAIL" in captured.err
        assert "cannot write trajectory" in captured.err

    @pytest.mark.parametrize("threshold, code, verdict", [(1e-10, 0, "PASS"), (0.0, 3, "FAIL")])
    def test_oracle_compare_stdout_is_only_the_csv(self, monkeypatch, tmp_path, capsys,
                                                   threshold, code, verdict):
        # the verdict goes to stderr; the CSV goes to stdout on FAIL too
        monkeypatch.setattr(cli, "ORACLE_DEVIATION_THRESHOLD", threshold)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = oracle-compare\noracle.n = 3\noracle.seed = 7\n"
                       "grid.t1 = 1\ngrid.steps = 20\n")
        assert main(["run", str(cfg)]) == code
        captured = capsys.readouterr()
        assert captured.out.startswith("t,ampDev,szDrift\n")
        rows = np.loadtxt(io.StringIO(captured.out), delimiter=",", skiprows=1)
        assert rows.shape == (21, 3) and np.all(np.isfinite(rows))
        assert captured.err.startswith("oracle-compare: max amplitude deviation")
        assert verdict in captured.err

    def test_oracle_compare_n_bounds(self, capsys):
        assert main(["oracle-compare", "--n", "13", "--seed", "1", "--out", "x.csv"]) == 2
        assert "oracle.n must be in [1, 12]" in capsys.readouterr().err

    def test_oracle_compare_negative_seed_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["oracle-compare", "--n", "3", "--seed", "-1", "--out", str(out)]) == 2
        assert "oracle.seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_compare_subcommand_equals_run(self, tmp_path):
        sub, run = tmp_path / "sub.csv", tmp_path / "run.csv"
        assert main(["oracle-compare", "--n", "4", "--seed", "9", "--out", str(sub)]) == 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = oracle-compare\noracle.n = 4\noracle.seed = 9\n"
                       f"grid.t1 = 5\ngrid.steps = 200\noutput.path = {run}\n")
        assert main(["run", str(cfg)]) == 0
        assert sub.read_bytes() == run.read_bytes()


CORRELATED_BASE = ("scenario = dephase-correlated\nbath.omega0 = 1\n"
                   "system.a = 0.6\nsystem.b = 0.8\n")


def _table(tmp_path, rows="0.05,0\n1.0,0.6\n2.5,0.3\n6.0,0\n"):
    path = tmp_path / "J.csv"
    path.write_text("# omega, J\n" + rows)
    return path


class TestCorrelatedClosedForms:
    """dephase-correlated through the CLI: closed forms, refusals and exit codes."""

    def test_no_adaptive_quadrature_on_the_production_path(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("quad called on the production path")

        monkeypatch.setattr(cli.dephasing_nm, "quad", refuse)
        table = _table(tmp_path)
        texts = [
            "spectral.family = ohmic\nspectral.eta = 0.9\nspectral.omega_c = 5\n"
            "thermo.beta = 2\n",
            "spectral.family = ohmic\nspectral.eta = 0.9\nspectral.omega_c = 5\n"
            "thermo.beta = inf\n",
            f"spectral.family = tabulated\nspectral.table = {table}\nthermo.beta = 2\n",
            f"spectral.family = tabulated\nspectral.table = {table}\nthermo.beta = inf\n",
        ]
        for text in texts:
            traj = run_scenario(parse_config(CORRELATED_BASE + text
                                             + "grid.t1 = 4\ngrid.steps = 50\n"))
            assert np.all(np.isfinite(traj.columns["gamma"]))

    def test_long_ohmic_run_completes(self, tmp_path):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
        cfg.write_text(CORRELATED_BASE + "spectral.family = ohmic\nspectral.eta = 0.7\n"
                       "spectral.omega_c = 5\nthermo.beta = 2\n"
                       f"grid.t1 = 1e7\ngrid.steps = 200\noutput.path = {out}\n")
        assert main(["run", str(cfg)]) == 0
        traj = Trajectory.read_csv(out)
        assert np.allclose(traj.columns["Phi"], 0.7 * np.arctan(5.0 * traj.times),
                           rtol=1e-15, atol=0.0)
        assert np.all(np.diff(traj.columns["gamma"]) > 0)

    def test_oversize_tabulated_thermal_run_exits_2_fast(self, tmp_path, capsys):
        import time

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CORRELATED_BASE + "spectral.family = tabulated\n"
                       f"spectral.table = {_table(tmp_path)}\nthermo.beta = 2\n"
                       f"grid.t1 = 1e7\ngrid.steps = 200\noutput.path = {tmp_path / 'o.csv'}\n")
        started = time.perf_counter()
        assert main(["run", str(cfg)]) == 2
        assert time.perf_counter() - started < 0.5
        assert re.search(r"needs an estimated \S+ element pairs \(\S+ quadrature panels on 4 "
                         rf"knots, 201 time points\), above the cap of {trajectory.MAX_WORK}",
                         capsys.readouterr().err)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("family", ["ohmic", "tabulated"])
    def test_negative_start_time_exits_2(self, family, tmp_path, capsys):
        spectral = ("spectral.eta = 0.7\nspectral.omega_c = 5\n" if family == "ohmic"
                    else f"spectral.table = {_table(tmp_path)}\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CORRELATED_BASE + f"spectral.family = {family}\n" + spectral
                       + "thermo.beta = 2\ngrid.t0 = -1\ngrid.t1 = 1\ngrid.steps = 4\n")
        assert main(["run", str(cfg)]) == 2
        line = 9 if family == "ohmic" else 8
        assert f"line {line}: grid.t0 must be >= 0 for dephase-correlated" \
            in capsys.readouterr().err

    def test_one_row_table_is_a_config_error(self, tmp_path, capsys):
        cfg, table = tmp_path / "cfg.txt", _table(tmp_path, "0.5,0.1\n")
        cfg.write_text(CORRELATED_BASE + "spectral.family = tabulated\n"
                       f"spectral.table = {table}\nthermo.beta = 2\n")
        assert main(["run", str(cfg)]) == 2
        assert "line 6: spectral.table: need matching 1-d arrays with at least 2 samples" \
            in capsys.readouterr().err
