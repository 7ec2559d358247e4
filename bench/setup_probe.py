"""Cold-start probe for setup_s: import decobath, run a workload's warm-up jobs, exit.

Usage: python3 bench/setup_probe.py <workload>   (from the repository root)
"""

import sys
from pathlib import Path

bench = Path(__file__).resolve().parent
sys.path.insert(0, str(bench.parent / "src"))

from decobath import cli  # noqa: E402

sys.path.insert(1, str(bench))
from workloads import WARM  # noqa: E402

for text in WARM[sys.argv[1]]:
    cli.run_scenario(cli.parse_config(text)).to_csv()
