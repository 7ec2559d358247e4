"""Spans around the library's public functions, recorded from outside ``src/``.

Each wrapper replaces the name its caller resolves (a module attribute or a
class attribute), so nothing in the library changes and removing the
wrappers restores the original objects.  A span is
``(name, start, end, parent index, job, value)``; spans stay in memory and
are aggregated per pass.  A layer's self time is its span minus its child
spans.  Health figures are computed after the pass from the objects the
wrapped functions returned, so they add nothing to any span.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

from decobath import central_spin, central_spin_nm, cli, dephasing_nm, lindblad
from decobath.qstate import DensityMatrix2
from decobath.trajectory import Trajectory

FAMILIES = ("ohmic", "tabulated")


def _sector_dim(args, kwargs, result):
    return args[0].shape[0]


def _grid_steps(args, kwargs, result):
    return args[2].steps


def _csv_len(args, kwargs, result):
    return len(result)  # the CSV is ASCII, so characters are bytes


class Tracer:
    """Installs span-recording wrappers; ``job`` tags every span recorded."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.job = None
        #: when set, results of the functions marked ``keep`` are retained
        #: for the health figures
        self.keep = False
        self.kept: list = []
        self._undo: list = []

    # recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _exit(self, idx, parent, name, start, value=None):
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.job, value)

    def _wrap(self, name, fn, value=None, keep=False):
        def wrapper(*args, **kwargs):
            idx, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(idx, parent, name, start)
                raise
            self._exit(idx, parent, name, start,
                       None if value is None else value(args, kwargs, result))
            if keep and self.keep:
                self.kept.append((name, self.job, result))
            return result

        return wrapper

    def _wrap_quad(self, fn):
        """dephasing_nm.quad: counts integrand evaluations, keeps the error estimate."""
        def wrapper(f, *args, **kwargs):
            evals = [0]

            def counted(*x):
                evals[0] += 1
                return f(*x)

            idx, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(counted, *args, **kwargs)
            except BaseException:
                self._exit(idx, parent, "dephasing_nm.quad", start)
                raise
            self._exit(idx, parent, "dephasing_nm.quad", start, (evals[0], result[1]))
            return result

        return wrapper

    # patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        w = self._wrap
        for owner, attr, name, value, keep in (
            (cli, "parse_config", "cli.parse_config", None, False),
            (cli, "run_scenario", "cli.run_scenario", None, False),
            (central_spin, "build_sector_hamiltonian",
             "central_spin.build_sector_hamiltonian", None, False),
            (central_spin, "sector_eigensystem", "central_spin.sector_eigensystem",
             _sector_dim, True),
            (central_spin, "arrowhead_eigensystem",
             "central_spin.arrowhead_eigensystem", None, False),
            (central_spin, "evolve_sector", "central_spin.evolve_sector", None, True),
            (central_spin, "reduced_system_density",
             "central_spin.reduced_system_density", None, False),
            (central_spin, "brute_force_evolve", "central_spin.brute_force_evolve",
             None, False),
            (central_spin_nm, "integrate_sme", "central_spin_nm.integrate_sme",
             None, False),
            # central_spin_nm imported integrate_master by name: patch that name
            (central_spin_nm, "integrate_master", "lindblad.integrate_master",
             _grid_steps, True),
            (lindblad, "evolve_dephasing_markov", "lindblad.evolve_markov", None, False),
            (lindblad, "evolve_isotropic_markov", "lindblad.evolve_markov", None, False),
            (Trajectory, "to_csv", "trajectory.to_csv", _csv_len, False),
        ):
            self._patch(owner, attr, w(name, getattr(owner, attr), value, keep))
        from_parts = DensityMatrix2.__dict__["from_parts"].__func__
        self._patch(DensityMatrix2, "from_parts",
                    classmethod(w("qstate.from_parts", from_parts)))
        self._patch(dephasing_nm, "quad", self._wrap_quad(dephasing_nm.quad))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans, jobs) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    own = dur - child

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    family_of = {job.name: job.params.get("family") for job in jobs}

    def pick(name, family=None):
        idx = by_name.get(name, [])
        if family is None:
            return idx
        return [i for i in idx if family_of.get(spans[i][4]) == family]

    def total(name, family=None):
        return float(dur[pick(name, family)].sum())

    def self_total(name):
        return float(own[pick(name)].sum())

    def calls(name):
        return len(pick(name))

    def values(name):
        return [spans[i][5] for i in pick(name)]

    m = {
        "cli.parse_config.s": total("cli.parse_config"),
        "cli.run_scenario.self_s": self_total("cli.run_scenario"),
        "qstate.from_parts.calls": calls("qstate.from_parts"),
        "qstate.from_parts.s": total("qstate.from_parts"),
        "central_spin.build_sector_hamiltonian.s":
            total("central_spin.build_sector_hamiltonian"),
        "central_spin.sector_eigensystem.s": total("central_spin.sector_eigensystem"),
        "central_spin.sector_eigensystem.n":
            max(values("central_spin.sector_eigensystem"), default=0),
        "central_spin.sector_eigensystem.arrowhead":
            calls("central_spin.arrowhead_eigensystem"),
        "central_spin.evolve_sector.self_s": self_total("central_spin.evolve_sector"),
        "central_spin.reduced_system_density.s":
            total("central_spin.reduced_system_density"),
        "central_spin.reduced_system_density.calls":
            calls("central_spin.reduced_system_density"),
        "central_spin.brute_force_evolve.s": total("central_spin.brute_force_evolve"),
        "central_spin_nm.integrate_sme.self_s": self_total("central_spin_nm.integrate_sme"),
        "lindblad.integrate_master.s": total("lindblad.integrate_master"),
        "lindblad.rk4_steps": sum(values("lindblad.integrate_master")),
        "lindblad.evolve_markov.calls": calls("lindblad.evolve_markov"),
        "trajectory.to_csv.s": total("trajectory.to_csv"),
        "trajectory.csv_bytes": sum(values("trajectory.to_csv")),
    }
    m["central_spin.sector_eigensystem.dense"] = (
        calls("central_spin.sector_eigensystem")
        - m["central_spin.sector_eigensystem.arrowhead"])
    steps = m["lindblad.rk4_steps"]
    m["lindblad.us_per_step"] = 1e6 * m["lindblad.integrate_master.s"] / steps if steps else 0.0
    for family in FAMILIES:
        key = f"dephasing_nm.quad.{family}"
        idx = pick("dephasing_nm.quad", family)
        points = sum(job.points for job in jobs if job.params.get("family") == family)
        m[f"{key}.calls"] = len(idx)
        m[f"{key}.s"] = float(dur[idx].sum())
        m[f"{key}.integrand_evals"] = sum(spans[i][5][0] for i in idx)
        m[f"{key}.ms_per_point"] = 1e3 * m[f"{key}.s"] / points if points else 0.0
    m["health.quad_abserr_max"] = max(
        (float(v[1]) for v in values("dephasing_nm.quad")), default=0.0)
    return m


def health(kept, jobs) -> dict[str, float]:
    """Numerical-health figures from the objects the wrapped functions returned."""
    steps = {job.name: job.params.get("steps") for job in jobs}
    out = {"health.eig_orth_residual": 0.0, "health.sector_norm_drift": 0.0,
           "health.sme_refine_max": 0.0, "health.sme_trace_drift_max": 0.0}

    def worst(key, value):
        out[key] = max(out[key], float(value))

    for name, job, result in kept:
        if name == "central_spin.sector_eigensystem":
            vecs = result[1]
            gram = vecs.T @ vecs
            gram[np.diag_indices_from(gram)] -= 1.0
            worst("health.eig_orth_residual", np.max(np.abs(gram)))
        elif name == "central_spin.evolve_sector":
            norms = np.sum(np.abs(result.amplitudes) ** 2, axis=1)
            worst("health.sector_norm_drift", np.max(np.abs(norms - 1.0)))
        elif name == "lindblad.integrate_master":
            states = result.states
            trace = states[:, 0, 0].real + states[:, 1, 1].real
            worst("health.sme_trace_drift_max", np.max(np.abs(trace - 1.0)))
            if steps.get(job):
                worst("health.sme_refine_max", (len(result.times) - 1) / steps[job])
    return out


def medians(per_pass: list[dict]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def write_spans(path, spans) -> None:
    """One JSON object per span, times in seconds from the pass start."""
    t0 = min((s[1] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                                 "parent": s[3], "job": s[4]}) + "\n")
