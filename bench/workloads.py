"""Seeded workload generation: every job is a config text plus what its oracle needs.

A workload is a list of jobs run one after another (closed loop, one client).
The seed picks the random baths, amplitudes and the tabulated spectral
density; ``fig2`` and the README ``central-exact`` bath are fixed presets.
The library sees only the generated config texts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

#: The README's central-exact example, minus its output path.
README_CENTRAL_EXACT = """\
scenario = central-exact
bath.N = 8
bath.g = 1.2                 # scalar broadcasts; lists are comma-separated
bath.omega = 0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.2
bath.omega0 = 0.9
bath.polarization.c = 0      # bath spin state c|0> + d|1>
bath.polarization.d = 1
grid.t1 = 6
grid.steps = 2000
"""

#: Bath sizes on either side of central_spin.DENSE_EIGH_LIMIT (sector dim N+1).
LARGE_BATH_DENSE_N = 1500
LARGE_BATH_ARROWHEAD_N = 2500


@dataclass
class Job:
    """One config-to-CSV job and the inputs its independent check needs."""

    name: str
    text: str
    kind: str  # selects the oracle in oracles.py
    params: dict = field(default_factory=dict)
    points: int = 0  # time points in the output


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in np.atleast_1d(values))


def _complex(z: complex) -> str:
    return repr(complex(z)).strip("()")


def _amplitudes(rng, real: bool = False) -> tuple[complex, complex]:
    v = rng.normal(size=2) if real else rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def _grid(t1: float, steps: int) -> str:
    return f"grid.t1 = {t1!r}\ngrid.steps = {steps}\n"


def _bath_job(name, kind, n, g, omega, omega0, a, b, t1, steps, scenario) -> Job:
    text = (
        f"scenario = {scenario}\n"
        f"system.a = {_complex(a)}\nsystem.b = {_complex(b)}\n"
        f"bath.N = {n}\nbath.g = {_floats(g)}\nbath.omega = {_floats(omega)}\n"
        f"bath.omega0 = {float(omega0)!r}\n" + _grid(t1, steps)
    )
    params = dict(n=n, g=np.asarray(g, float), omega=np.asarray(omega, float),
                  omega0=float(omega0), a=a, b=b, t1=t1, steps=steps)
    return Job(name, text, kind, params, steps + 1)


def revival(seed: int, workdir: str) -> list[Job]:
    """fig2 N=50/100 at their default 20001 points, plus the README N=8 bath."""
    jobs = []
    for n in (50, 100):
        # the preset's documented bath; it starts with the excitation on the
        # system (a, b) = (1, 0), which is beta = 1 in the rotated frame
        k = np.arange(1, n + 1)
        params = dict(n=n, g=np.full(n, 4.0), omega=2.0 * (39.0 - 80.0 * k / (n - 1)),
                      omega0=4.0 * (n - 1), a=1.0, b=0.0, t1=5.0, steps=20000)
        jobs.append(Job(f"fig2-{n}", f"scenario = fig2\nbath.N = {n}\n",
                        "exact-dense-ref", params, 20001))
    inv = 1.0 / math.sqrt(2.0)
    params = dict(n=8, g=np.full(8, 1.2),
                  omega=np.array([0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.2]),
                  omega0=0.9, a=inv, b=inv, t1=6.0, steps=2000)
    jobs.append(Job("readme-exact", README_CENTRAL_EXACT, "exact-brute", params, 2001))
    return jobs


def large_bath(seed: int, workdir: str) -> list[Job]:
    """Weak-coupling baths on both eigensolver paths, plus oracle-compare N=12.

    The system splitting sits inside the bath band (omega0 - sum g within the
    spread of omega_k - g_k), so the excitation really decays into the bath.
    """
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for name, n in (("exact-dense", LARGE_BATH_DENSE_N),
                    ("exact-arrowhead", LARGE_BATH_ARROWHEAD_N)):
        g = rng.uniform(0.01, 0.04, n)
        omega = rng.uniform(0.5, 1.5, n)
        omega0 = float(np.sum(g)) + rng.uniform(0.8, 1.2)
        a, b = _amplitudes(rng)
        jobs.append(_bath_job(name, "exact-dense-ref", n, g, omega, omega0, a, b,
                              40.0, 400, "central-exact"))
    # fixed: expm_multiply's cost on the oracle's random bath varies 3.5x
    # from one oracle.seed to another, which would swamp the timing
    oracle_seed = 42
    jobs.append(Job(
        "oracle-12",
        f"scenario = oracle-compare\noracle.n = 12\noracle.seed = {oracle_seed}\n"
        + _grid(5.0, 200),
        "oracle-verdict", points=201,
    ))
    return jobs


def master_eq(seed: int, workdir: str) -> list[Job]:
    """Two central-sme baths (Gamma_d-capped and rotation-capped RK4 step) plus
    the two Markovian closed forms at 1001 points."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    n = 10
    # The RK4 step count follows sum g and omega0, so both are pinned and the
    # seed only reshuffles the couplings, splittings and initial state.
    # Step set by the Gamma_d cap: (sum g)^2 t1 = 2.71 gives refine 136.
    g = rng.uniform(0.05, 0.15, n)
    a, b = _amplitudes(rng)
    jobs.append(_bath_job("sme-gamma-d", "sme-population", n, g * (0.95 / g.sum()),
                          rng.uniform(-0.5, 2.5, n), rng.uniform(0.5, 1.5), a, b,
                          3.0, 60, "central-sme"))
    # Step set by the coherent-rotation cap: omega0 = 60 dominates the rates.
    g = rng.uniform(0.005, 0.015, n)
    a, b = _amplitudes(rng)
    jobs.append(_bath_job("sme-rotation", "sme-population", n, g * (0.1 / g.sum()),
                          rng.uniform(-0.5, 2.5, n), 60.0, a, b,
                          3.0, 60, "central-sme"))
    a, b = _amplitudes(rng)
    gamma, omega0 = rng.uniform(0.2, 2.0), rng.uniform(0.0, 3.0)
    jobs.append(Job(
        "markov",
        f"scenario = dephase-markov\ngamma = {gamma!r}\nsystem.a = {_complex(a)}\n"
        f"system.b = {_complex(b)}\nbath.omega0 = {omega0!r}\n" + _grid(10.0, 1000),
        "markov", dict(gamma=gamma, omega0=omega0, a=a, b=b, t1=10.0, steps=1000), 1001,
    ))
    a, b = _amplitudes(rng)
    gamma = rng.uniform(0.05, 0.5)
    jobs.append(Job(
        "isotropic",
        f"scenario = dephase-isotropic\ngamma = {gamma!r}\nsystem.a = {_complex(a)}\n"
        f"system.b = {_complex(b)}\n" + _grid(10.0, 1000),
        "isotropic", dict(gamma=gamma, a=a, b=b, t1=10.0, steps=1000), 1001,
    ))
    return jobs


def tabulated_density(rng, knots: int = 80) -> tuple[np.ndarray, np.ndarray]:
    """A positive piecewise-linear J(w) on [0.05, 10] that vanishes at both ends.

    The knots are fixed (they are quad's breakpoints, so they set its work);
    the seed picks the heights around an Ohmic-like envelope.
    """
    omega = np.linspace(0.05, 10.0, knots)
    values = omega * np.exp(-omega / 3.0) * rng.uniform(0.5, 1.5, knots)
    values[0] = values[-1] = 0.0
    return omega, values


def correlated(seed: int, workdir: str) -> list[Job]:
    """dephase-correlated with Ohmic beta=2, Ohmic beta=inf and a seeded
    80-knot tabulated J written next to the run's outputs, 201 points each
    (a short pass, so a run holds enough passes for a steady median)."""
    rng = np.random.default_rng([seed, 4])
    jobs = []
    # omega_c and beta set how oscillatory quad's integrands are, so they are
    # fixed; the seed picks the coupling, splitting and initial state
    for name, beta in (("ohmic-beta2", 2.0), ("ohmic-zero-t", math.inf)):
        eta, omega_c = rng.uniform(0.5, 1.5), 5.0
        omega0 = rng.uniform(0.5, 1.5)
        a, b = _amplitudes(rng, real=True)
        jobs.append(Job(
            name,
            f"scenario = dephase-correlated\nsystem.a = {_complex(a)}\n"
            f"system.b = {_complex(b)}\nspectral.family = ohmic\n"
            f"spectral.eta = {eta!r}\nspectral.omega_c = {omega_c!r}\n"
            f"thermo.beta = {beta!r}\nbath.omega0 = {omega0!r}\n" + _grid(4.0, 200),
            "ohmic-phi", dict(family="ohmic", eta=eta, omega_c=omega_c, a=a, b=b,
                              t1=4.0, steps=200), 201,
        ))
    omega, values = tabulated_density(rng)
    path = os.path.join(workdir, f"J-seed{seed}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# omega, J\n")
        fh.writelines(f"{float(w)!r},{float(j)!r}\n" for w, j in zip(omega, values))
    a, b = _amplitudes(rng, real=True)
    beta, omega0 = 2.0, rng.uniform(0.5, 1.5)
    jobs.append(Job(
        "tabulated",
        f"scenario = dephase-correlated\nsystem.a = {_complex(a)}\n"
        f"system.b = {_complex(b)}\nspectral.family = tabulated\n"
        f"spectral.table = {path}\nthermo.beta = {beta!r}\n"
        f"bath.omega0 = {omega0!r}\n" + _grid(4.0, 200),
        "tabulated-phi", dict(family="tabulated", omega=omega, values=values, a=a, b=b,
                              t1=4.0, steps=200), 201,
    ))
    return jobs


#: Tiny jobs that touch the same scenarios, so imports and lazy LAPACK/BLAS
#: initialisation are done before timing (and are what setup_s measures).
_WARM_BATH = "bath.N = 2\nbath.g = 0.3\nbath.omega = 0.5, 0.9\nbath.omega0 = 1.0\n"
WARM = {
    "revival": ["scenario = central-exact\n" + _WARM_BATH + _grid(1.0, 4)],
    "large-bath": ["scenario = central-exact\n" + _WARM_BATH + _grid(1.0, 4),
                   "scenario = oracle-compare\noracle.n = 2\noracle.seed = 1\n"
                   + _grid(1.0, 4)],
    "master-eq": ["scenario = central-sme\n" + _WARM_BATH + _grid(0.1, 2),
                  "scenario = dephase-markov\ngamma = 1\n" + _grid(1.0, 4),
                  "scenario = dephase-isotropic\ngamma = 1\n" + _grid(1.0, 4)],
    "correlated": ["scenario = dephase-correlated\nspectral.family = ohmic\n"
                   "spectral.eta = 1\nspectral.omega_c = 5\nthermo.beta = 2\n"
                   "bath.omega0 = 1\n" + _grid(1.0, 2)],
}

BUILDERS = {
    "revival": revival,
    "large-bath": large_bath,
    "master-eq": master_eq,
    "correlated": correlated,
}
