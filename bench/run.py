#!/usr/bin/env python3
"""decobath benchmark: config text to CSV bytes, one workload per process.

Run from the repository root::

    python3 bench/run.py --workload revival --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each job goes through the public API the way the CLI does:
``cli.parse_config`` on the config text, ``cli.run_scenario``, then
``Trajectory.to_csv`` encoded to bytes.  A pass runs every job of the
workload once, one after another (closed loop, one client); passes repeat
until ``--seconds`` have elapsed (at least three).  BLAS is pinned to
``BLAS_THREADS`` threads and all timed load comes from this one process.

``--trace 0`` prints the end-to-end metrics: the median pass ``wall_s`` and
``cpu_s``, this process's ``peak_rss_mb``, and ``setup_s``, the median
time of fresh interpreters that import decobath and run the workload's tiny
warm-up jobs (lazy LAPACK/BLAS set-up included).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see tracing.py),
tracing overhead and numerical-health figures.  Either way every job is
checked after the timing against an independent reference (oracles.py),
and each pass's CSV bytes must equal the first pass's.  The last stdout
line is the JSON result; an ``env`` line before it records the machine,
library versions, BLAS threads, source revision and seed.

The Tier-1 test suite's ~94 s is not a workload: two thirds of it is the
same RK4 loop that ``master-eq`` times, and the rest is test fixtures and
oracle code, not a user-facing path from config to CSV.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"  # relative to ROOT, the working directory

MIN_PASSES = 3
SETUP_RUNS = 5


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(workload: str) -> list[float]:
    """Cold-start times: fresh interpreter to decobath imported and warmed up."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return times


def run_pass(cli, jobs, tracer=None):
    """One closed-loop pass; returns wall, CPU, CSV bytes and errors per job."""
    outputs, errors = {}, {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        try:
            data = cli.run_scenario(cli.parse_config(job.text)).to_csv().encode("ascii")
        except Exception as exc:  # a failed job is counted; the run goes on
            data = None
            errors[job.name] = f"{type(exc).__name__}: {exc}"
        outputs[job.name] = data
    return time.perf_counter() - wall0, time.process_time() - cpu0, outputs, errors


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    digest = hashlib.sha256()
    for path in sorted((SRC / "decobath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    jobs = workloads.BUILDERS[args.workload](args.seed, str(OUT))
    setup = measure_setup(args.workload)

    from decobath import cli

    for text in workloads.WARM[args.workload]:
        cli.run_scenario(cli.parse_config(text)).to_csv()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes = []  # (traced, wall, cpu, digests, errors)
    first = None
    layer_passes, traced_spans = [], None
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline \
            or (tracer is not None and len(passes) % 2):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.keep = not layer_passes
        try:
            wall, cpu, outputs, errors = run_pass(cli, jobs, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        if traced:
            spans = tracer.take()
            layer_passes.append(tracing.aggregate(spans, jobs))
            if traced_spans is None:
                traced_spans = spans
        digests = {name: data and hashlib.sha256(data).hexdigest()
                   for name, data in outputs.items()}
        if first is None:
            first = outputs
        passes.append((traced, wall, cpu, digests, errors))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracles

    problems = oracles.check_workload(jobs, first)
    reference = passes[0][3]
    failures = []
    for index, (traced, _, _, digests, errors) in enumerate(passes):
        for job in jobs:
            why = []
            if job.name in errors:
                why.append(errors[job.name])
            elif digests[job.name] != reference[job.name]:
                why.append("CSV bytes differ from the first pass"
                           + (" (traced pass)" if traced else ""))
            why += problems[job.name]
            if why:
                failures.append(f"pass {index} {job.name}: {'; '.join(why)}")

    untraced = [p for p in passes if not p[0]]
    units = declared_units(args.trace)
    result = {
        "passes": len(untraced),
        "jobs": len(jobs),
        "attempted": len(passes) * len(jobs),
        "failed": len(failures),
        "failures": failures,
        "setup_runs": setup,
        "wall_runs": [p[1] for p in untraced],
    }
    if tracer is None:
        result["metrics"] = {
            "wall_s": statistics.median(p[1] for p in untraced),
            "cpu_s": statistics.median(p[2] for p in untraced),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
    else:
        traced_walls = [p[1] for p in passes if p[0]]
        layers = tracing.medians(layer_passes)
        layers.update(tracing.health(tracer.kept, jobs))
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(result["wall_runs"]))
        result["metrics"] = layers
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(spans_path, traced_spans)
        result["spans_file"] = str(spans_path)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    result["metrics"] = {key: result["metrics"][key] for key in units}
    result["units"] = units
    return result


def report(args, env, result) -> None:
    """Human-readable lines, then the env record, then the JSON result last."""
    rate = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} timed passes x {result['jobs']} jobs; "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for key, value in result["metrics"].items():
        print(f"  {key:<44} {value:>14.6g} {result['units'][key]}")
    print(f"  {'error_rate':<44} {rate:>14.6g} 1")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": result["units"][key]}
                    for key, value in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in its own fresh process; one summary table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            summary["metrics"][f"{workload}.{key}"] = metric
        rows.append((workload, last))
    columns = list(declared_units(0)) if not args.trace else []
    print(f"\n{'workload':<12} " + " ".join(f"{k:>16}" for k in (*columns, "error_rate")))
    for workload, last in rows:
        cells = [f"{last['metrics'][k]['value']:>12.4f} {last['metrics'][k]['unit']:<3}"
                 for k in columns]
        cells.append(f"{last['failed'] / last['attempted']:>14.4f} 1")
        print(f"{workload:<12} " + " ".join(cells))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.BUILDERS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decobath" / "__init__.py").is_file():
        print(f"error: no decobath sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import decobath

    if Path(decobath.__file__).resolve().parent != (SRC / "decobath").resolve():
        print(f"error: imported decobath from {decobath.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(args)
    result = run_workload(args)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    report(args, env, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
