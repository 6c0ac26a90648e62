"""Set-up probe: a fresh process that gets one workload ready to run.

    python3 perfbench/probe.py WORKLOAD SEED

Imports the package, builds the workload's seeded inputs up to the first
op, prints ``ready`` and exits. ``run.py`` times it from spawn to that
line, which is the ``setup_s`` metric.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]()
next(workload.specs(int(sys.argv[2])))
print("ready", flush=True)
