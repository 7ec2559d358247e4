"""Which parts of scipy each path loads, checked in fresh interpreters.

Every scenario runs on numpy alone: the central-spin and Markov scenarios,
oracle-compare's brute force and dephase-correlated's closed forms (Ohmic
and tabulated, at zero and at finite temperature).  Only the adaptive
quadrature oracles need scipy, ``scipy.integrate``, which the ``oracle``
extra installs.  Each check runs in its own subprocess, because this test
process has scipy loaded already.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from decobath import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_BATH = ("bath.N = 3\nbath.g = 0.4\nbath.omega = 0.3, 0.8, 1.4\nbath.omega0 = 0.9\n"
         "system.a = 0.6\nsystem.b = 0.8\ngrid.t1 = 4\ngrid.steps = 100\n")
#: Small runs of the scenarios that need numpy alone.
NUMPY_ONLY = {
    "central-exact": "scenario = central-exact\n" + _BATH,
    "fig2": "scenario = fig2\nbath.N = 50\ngrid.steps = 200\n",
    "central-sme": "scenario = central-sme\n" + _BATH,
    "dephase-markov": "scenario = dephase-markov\ngamma = 0.5\nbath.omega0 = 1.2\n",
    "dephase-isotropic": "scenario = dephase-isotropic\ngamma = 0.5\n",
    "oracle-compare": "scenario = oracle-compare\noracle.n = 4\noracle.seed = 9\n"
                      "grid.t1 = 2\ngrid.steps = 50\n",
}
_CORRELATED = "scenario = dephase-correlated\nbath.omega0 = 1\n"
_OHMIC = "spectral.family = ohmic\nspectral.eta = 0.7\nspectral.omega_c = 5\n"
_GRID = "grid.t1 = 4\ngrid.steps = 50\n"

#: Runs the configs of the JSON object in argv[1] through parse_config and
#: run_scenario, then prints their CSV digests and the scipy modules loaded.
_RUN = """
import hashlib, json, sys
for name in json.loads(sys.argv[2]):
    sys.modules[name] = None  # any import of it now fails
from decobath import cli
digests = {name: hashlib.sha256(cli.run_scenario(cli.parse_config(text)).to_csv().encode())
           .hexdigest() for name, text in json.loads(sys.argv[1]).items()}
print(json.dumps({"digests": digests,
                  "scipy": sorted(m for m, mod in sys.modules.items()
                                  if m.split(".")[0] == "scipy" and mod is not None)}))
"""


def _python(code: str, *args: str, env=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, **(env or {}), "PYTHONPATH": path})


def _run_configs(configs: dict, poisoned=()) -> dict:
    proc = _python(_RUN, json.dumps(configs), json.dumps(list(poisoned)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def correlated(tmp_path_factory):
    """dephase-correlated configs that reach every branch of its closed forms.

    Ohmic at zero temperature, and at beta = 2 from t/beta = 0 to 2 and, in
    ``ohmic-far``, up to t/beta = 5e15, through the one log-Gamma form that
    has no branch on t/beta; tabulated at zero and at finite temperature, on
    a table from w = 0 whose w t falls on both sides of the Si/Ci series'
    x = 4.
    """
    table = tmp_path_factory.mktemp("imports") / "J.csv"
    table.write_text("0,0\n1.0,0.6\n2.5,0.3\n6.0,0\n")
    tabulated = f"spectral.family = tabulated\nspectral.table = {table}\n"
    return {
        "ohmic-zero-t": _CORRELATED + _OHMIC + "thermo.beta = inf\n" + _GRID,
        "ohmic": _CORRELATED + _OHMIC + "thermo.beta = 2\n" + _GRID,
        "ohmic-far": "scenario = dephase-correlated\nbath.omega0 = 0.1\n" + _OHMIC
                     + "thermo.beta = 2\ngrid.t1 = 1e16\ngrid.steps = 4\n",
        "tabulated-zero-t": _CORRELATED + tabulated + "thermo.beta = inf\n" + _GRID,
        "tabulated": _CORRELATED + tabulated + "thermo.beta = 2\n" + _GRID,
    }


def test_cli_import_loads_no_scipy():
    proc = _python("import sys, decobath.cli\n"
                   "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_only_scenarios_load_no_scipy():
    assert _run_configs(NUMPY_ONLY)["scipy"] == []


def test_correlated_runs_load_no_scipy(correlated):
    assert _run_configs(correlated)["scipy"] == []


def test_production_runs_need_no_scipy(correlated):
    """With every scipy module unimportable, the CSV bytes do not change."""
    configs = {**NUMPY_ONLY, **correlated}
    poisoned = _run_configs(configs, poisoned=["scipy"])["digests"]
    for name, text in configs.items():
        csv = cli.run_scenario(cli.parse_config(text)).to_csv().encode()
        assert poisoned[name] == hashlib.sha256(csv).hexdigest(), name


def test_quad_oracle_without_scipy_names_the_extra():
    code = """
import sys
sys.modules["scipy"] = None
from decobath.dephasing_nm import SpectralDensity, phi
try:
    phi(1.0, SpectralDensity.ohmic(0.8, 3.0))
except ImportError as exc:
    print(exc)
else:
    sys.exit("phi ran without scipy")
"""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert "decobath[oracle]" in proc.stdout


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", r).group(0) for r in requirements]

    extras = project["optional-dependencies"]
    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(extras["oracle"])
    assert "scipy" in names(extras["test"])


#: Runs the CLI on argv, then prints the scipy modules loaded as its last line.
_MAIN = """
import json, sys
from decobath.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


def test_oracle_compare_subcommand_from_cold_interpreter(tmp_path):
    """The brute-force oracle needs numpy alone: its Hamiltonian, its
    closure and its Chebyshev steps are numpy triplets and reduceat sums,
    and its Bessel weights come from Miller's recurrence."""
    out = tmp_path / "oracle.csv"
    proc = _python(_MAIN, "oracle-compare", "--n", "4", "--seed", "9", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stderr
    assert out.read_text().startswith("t,ampDev,szDrift\n")
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _assert_same_csv_on_one_and_two_blas_threads(tmp_path, *argv: str) -> None:
    """The CLI writes the same CSV bytes for ``argv`` at 1 and at 2 OpenBLAS threads."""
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}.csv"
        proc = _python(_MAIN, *argv, "--out", str(out), env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_oracle_compare_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The propagator's real matrix products give the same CSV bytes on one
    and on two OpenBLAS threads."""
    _assert_same_csv_on_one_and_two_blas_threads(
        tmp_path, "oracle-compare", "--n", "12", "--seed", "42")


def test_fig2_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The survival amplitude's row sums give the same CSV bytes on one and
    on two OpenBLAS threads."""
    _assert_same_csv_on_one_and_two_blas_threads(tmp_path, "preset", "fig2", "--n", "50")


@pytest.mark.parametrize("first", ["phi", "gamma_thermal"])
def test_quad_oracles_from_cold_interpreter(first):
    """Each quad form works as the first call that touches scipy."""
    code = f"""
import sys
import numpy as np
from decobath.dephasing_nm import (CorrelatedBathParams, SpectralDensity,
                                   decoherence_factors, gamma_thermal, phi)
from decobath.qstate import QubitAmplitudes
J, beta, ts = SpectralDensity.ohmic(0.8, 3.0), 2.0, (0.05, 1.3, 7.0)
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
oracles = {{"phi": lambda t: phi(t, J), "gamma_thermal": lambda t: gamma_thermal(t, J, beta)}}
first = [oracles["{first}"](t) for t in ts]
psi = QubitAmplitudes(0.65 ** 0.5, 0.35 ** 0.5)  # <sigma_z> = 0.3
f = decoherence_factors(np.array(ts), CorrelatedBathParams(J, beta, 0.8), psi)
closed = {{"phi": f.phi, "gamma_thermal": f.gamma_thermal}}
for name, oracle in oracles.items():
    for t, closed_value in zip(ts, closed[name]):
        value = oracle(t)
        assert abs(closed_value - value) <= 1e-9 * abs(value) + 1e-12, (name, t)
assert first == [oracles["{first}"](t) for t in ts]
"""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
