"""Independent reference checks for every benchmark job, run outside the timing.

Each check rebuilds its reference from the job's generated inputs with plain
numpy/scipy code that shares nothing with the library except the physics:

* ``exact-brute``: dense 2^(N+1) Heisenberg Hamiltonian from Pauli
  Kronecker products, exact propagation and a partial trace (N <= 12);
* ``exact-dense-ref``: the sector arrowhead rebuilt here and diagonalized by
  LAPACK's MRRR driver (``scipy.linalg.eigh(driver="evr")``);
* ``oracle-verdict``: the oracle-compare verdict, max amplitude deviation
  below 1e-10;
* ``sme-population``: the closed-form G1 population within the 2e-6 bound of
  acceptance criterion 08;
* ``markov`` / ``isotropic``: the Markovian closed forms;
* ``ohmic-phi``: Phi = eta arctan(omega_c t);
* ``tabulated-phi``: Phi integrated exactly over each linear segment of J
  with the sine and cosine integrals.

fig2 additionally has to revive later at N = 100 than at N = 50.
"""

from __future__ import annotations

import io

import numpy as np
import scipy.linalg
from scipy.special import sici

#: oracle-compare's own PASS threshold and the sector/brute-force agreement
#: required for N <= 12.
BRUTE_ATOL = 1e-10
#: Sector amplitudes against the MRRR reference.  Seed-state deviations are
#: ~2e-11 on the weak-coupling arrowhead path; 1e-9 leaves room for that
#: solver's known orthogonality loss while still catching a wrong spectrum.
SECTOR_ATOL = 1e-9
#: Acceptance criterion 08's population bound for the integrated master equation.
SME_POPULATION_ATOL = 2e-6
#: Closed-form Markovian states are reproduced to rounding.
CLOSED_FORM_ATOL = 1e-12
#: The spectral quadrature targets 1e-9 relative accuracy; |Phi| stays O(eta).
PHI_ATOL = 1e-8


def read_csv(data: bytes) -> dict[str, np.ndarray]:
    header, _, body = data.partition(b"\n")
    names = header.decode("ascii").split(",")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return {name: table[:, i] for i, name in enumerate(names)}


def _worst(label: str, got, want, atol: float) -> list[str]:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= atol:  # also catches nan
        return [f"{label}: max deviation {dev:.3e} > {atol:g}"]
    return []


def _times(p) -> np.ndarray:
    return np.linspace(0.0, p["t1"], p["steps"] + 1)


def _reduced_columns(cols, rho00, coh, atol, p0=None) -> list[str]:
    problems = _worst("rho00", cols["rho00"], rho00, atol)
    problems += _worst("rho11", cols["rho11"], 1.0 - rho00, atol)
    problems += _worst("coherence", cols["reCoh"] + 1j * cols["imCoh"], coh, atol)
    if p0 is not None:
        problems += _worst("P0", cols["P0"], p0, atol)
    return problems


def _aligned_energy(p) -> float:
    return 0.5 * float(np.sum(p["g"])) - 0.5 * (p["omega0"] + float(np.sum(p["omega"])))


def check_exact_dense_ref(p, cols) -> list[str]:
    """Sector evolution against an MRRR eigendecomposition of the arrowhead."""
    g, omega, omega0 = p["g"], p["omega"], p["omega0"]
    n = g.size
    gsum = float(np.sum(g))
    h = np.zeros((n + 1, n + 1))
    h[0, 1:] = h[1:, 0] = g
    np.fill_diagonal(h, np.concatenate(([omega0 - gsum], omega - g)))
    h -= 0.5 * (omega0 - gsum + float(np.sum(omega))) * np.eye(n + 1)
    evals, evecs = scipy.linalg.eigh(h, driver="evr")
    t = _times(p)
    c0 = np.exp(-1j * np.outer(t, evals)) @ (evecs[0] ** 2)
    # rotated frame for bath polarization (0, 1): alpha = b, beta = a
    alpha, beta = p["b"], p["a"]
    coh = np.conj(alpha) * beta * c0 * np.exp(1j * _aligned_energy(p) * t)
    return _reduced_columns(cols, abs(beta) ** 2 * np.abs(c0) ** 2, coh,
                            SECTOR_ATOL, p0=np.abs(c0) ** 2)


def _pauli_sum(spins: int, ops_by_spin: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with ``ops_by_spin[k]`` on spin k (bit k of the index)."""
    out = np.array([[1.0 + 0.0j]])
    for k in reversed(range(spins)):
        out = np.kron(out, ops_by_spin.get(k, np.eye(2)))
    return out


def check_exact_brute(p, cols) -> list[str]:
    """Reduced system state against full-register propagation (N <= 12).

    H = sum_i (w_i/2) Z_i + sum_k (g_k/2) (X_0 X_k + Y_0 Y_k + Z_0 Z_k) on
    basis states |0> (bit clear) and |1> (bit set); the bath starts in |1...1>.
    """
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    g, omega, omega0 = p["g"], p["omega"], p["omega0"]
    spins = g.size + 1
    fields = np.concatenate(([omega0], omega))
    h = sum(0.5 * w * _pauli_sum(spins, {i: z}) for i, w in enumerate(fields))
    for k in range(1, spins):
        for s in (x, y, z):
            h = h + 0.5 * g[k - 1] * _pauli_sum(spins, {0: s, k: s})
    psi0 = np.zeros(2 ** spins, dtype=complex)
    bath_up = (2 ** spins - 1) & ~1  # every bath bit set, system bit clear
    psi0[bath_up] = p["a"]
    psi0[bath_up | 1] = p["b"]
    evals, evecs = np.linalg.eigh(h)
    t = _times(p)
    states = (np.exp(-1j * np.outer(t, evals)) * (evecs.conj().T @ psi0)) @ evecs.T
    by_sys = states.reshape(t.size, -1, 2)  # system is the lowest bit
    rho00 = np.sum(np.abs(by_sys[:, :, 0]) ** 2, axis=1)
    coh = np.sum(by_sys[:, :, 0] * np.conj(by_sys[:, :, 1]), axis=1)
    p0 = np.abs(states[:, bath_up]) ** 2 / abs(p["a"]) ** 2
    return _reduced_columns(cols, rho00, coh, BRUTE_ATOL, p0=p0)


def check_oracle_verdict(p, cols) -> list[str]:
    worst = float(np.max(cols["ampDev"]))
    if not worst < BRUTE_ATOL:
        return [f"oracle-compare FAIL: max amplitude deviation {worst:.3e}"]
    return []


def check_sme_population(p, cols) -> list[str]:
    """Population channel against |beta|^2 G1(t), G1 = exp(-gamma_1)."""
    t = _times(p)
    delta = p["omega0"] - p["omega"]
    s = np.sin(0.5 * np.outer(t, delta))
    gamma_1 = np.sum(p["g"] ** 2 * 4.0 * s * s / delta**2, axis=1)
    return _worst("rho00 vs |a|^2 G1", cols["rho00"],
                  abs(p["a"]) ** 2 * np.exp(-gamma_1), SME_POPULATION_ATOL)


def check_markov(p, cols) -> list[str]:
    t = _times(p)
    a, b = p["a"], p["b"]
    coh = a * np.conj(b) * np.exp(-1j * p["omega0"] * t - p["gamma"] * t)
    return _reduced_columns(cols, np.full(t.size, abs(a) ** 2), coh, CLOSED_FORM_ATOL)


def check_isotropic(p, cols) -> list[str]:
    t = _times(p)
    a, b = p["a"], p["b"]
    f = np.exp(-4.0 * p["gamma"] * t)
    return _reduced_columns(cols, 0.5 + f * (abs(a) ** 2 - 0.5), f * a * np.conj(b),
                            CLOSED_FORM_ATOL)


def _populations(p, cols) -> list[str]:
    a = abs(p["a"]) ** 2
    return (_worst("rho00", cols["rho00"], a, CLOSED_FORM_ATOL)
            + _worst("rho11", cols["rho11"], 1.0 - a, CLOSED_FORM_ATOL))


def check_ohmic_phi(p, cols) -> list[str]:
    phi = p["eta"] * np.arctan(p["omega_c"] * _times(p))
    return _populations(p, cols) + _worst("Phi", cols["Phi"], phi, PHI_ATOL)


def tabulated_phi(omega: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Phi(t) = int J(w) sin(w t)/w^2 dw for piecewise-linear J, exactly.

    On a segment J = c0 + c1 w, and
    int sin(wt)/w^2 dw = -sin(wt)/w + t Ci(wt),  int sin(wt)/w dw = Si(wt).
    """
    c1 = np.diff(values) / np.diff(omega)
    c0 = values[:-1] - c1 * omega[:-1]
    phi = np.zeros(t.size)
    pos = t > 0
    wt = np.outer(t[pos], omega)
    si, ci = sici(wt)
    inv_sq = -np.sin(wt) / omega + t[pos, None] * ci  # antiderivative of sin/w^2
    prim = c0 * (inv_sq[:, 1:] - inv_sq[:, :-1]) + c1 * (si[:, 1:] - si[:, :-1])
    phi[pos] = prim.sum(axis=1)
    return phi


def check_tabulated_phi(p, cols) -> list[str]:
    phi = tabulated_phi(p["omega"], p["values"], _times(p))
    return _populations(p, cols) + _worst("Phi", cols["Phi"], phi, PHI_ATOL)


CHECKS = {
    "exact-dense-ref": check_exact_dense_ref,
    "exact-brute": check_exact_brute,
    "oracle-verdict": check_oracle_verdict,
    "sme-population": check_sme_population,
    "markov": check_markov,
    "isotropic": check_isotropic,
    "ohmic-phi": check_ohmic_phi,
    "tabulated-phi": check_tabulated_phi,
}


def _first_revival(t, p0, drop=0.1, level=0.5):
    """Time of the first local maximum above ``level`` after P0 first drops below ``drop``."""
    below = np.flatnonzero(p0 < drop)
    if below.size == 0:
        return None
    d = np.diff(p0)
    peaks = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0)) + 1
    peaks = peaks[(peaks > below[0]) & (p0[peaks] > level)]
    return float(t[peaks[0]]) if peaks.size else None


def check_workload(jobs, outputs: dict) -> dict[str, list[str]]:
    """Per-job problems: each job's own oracle plus cross-job conditions.

    ``outputs`` maps job name to its CSV bytes, or None when the job raised.
    """
    problems: dict[str, list[str]] = {}
    columns = {}
    for job in jobs:
        data = outputs.get(job.name)
        if data is None:
            problems[job.name] = ["no output"]
            continue
        columns[job.name] = cols = read_csv(data)
        problems[job.name] = CHECKS[job.kind](job.params, cols)
    fig2 = {job.params["n"]: job.name for job in jobs if job.name.startswith("fig2")}
    if fig2 and all(name in columns for name in fig2.values()):
        when = {n: _first_revival(columns[name]["t"], columns[name]["P0"])
                for n, name in fig2.items()}
        if None in when.values() or not when[100] > when[50]:
            for name in fig2.values():
                problems[name].append(f"fig2 revival order violated: {when}")
    return problems
