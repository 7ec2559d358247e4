"""Tier-1 guard for the benchmark's tracer.

``bench/tracing.py`` wraps library names by module or class attribute; a
rename in the library would otherwise surface only when the benchmark runs
with ``--trace 1``.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

# plain imports: a library rename that breaks the tracer must fail, not skip
import tracing  # noqa: E402
import workloads  # noqa: E402

from decobath import central_spin, cli  # noqa: E402
from decobath.qstate import DensityMatrix2  # noqa: E402


def test_tracer_installs_records_and_removes():
    originals = (cli.run_scenario, central_spin.reduced_system_density,
                 DensityMatrix2.__dict__["from_parts"])
    text = workloads.WARM["revival"][0]
    job = workloads.Job("tiny", text, "exact-brute", {}, 5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = job.name
        csv = cli.run_scenario(cli.parse_config(text)).to_csv()
    finally:
        tracer.remove()
    assert (cli.run_scenario, central_spin.reduced_system_density,
            DensityMatrix2.__dict__["from_parts"]) == originals
    assert csv == cli.run_scenario(cli.parse_config(text)).to_csv()

    metrics = tracing.aggregate(tracer.take(), [job])
    assert metrics["central_spin.reduced_system_density.calls"] == 1
    assert metrics["qstate.from_parts.calls"] == 1
    assert metrics["trajectory.csv_bytes"] == len(csv)
    metrics.update(tracing.health([], [job]))
    metrics["trace.overhead_s"] = 0.0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
