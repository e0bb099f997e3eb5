"""Set-up time of one workload in this fresh interpreter: importing bdns
(through the benchmark's workload module), parsing the run config with
config.parse_config and building the initial state.  Prints the seconds.

    python3 benchmarks/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

t0 = time.perf_counter()
import workloads  # noqa: E402 - the import is what is being timed

w = workloads.WORKLOADS[sys.argv[1]]
w.setup(w.inputs(int(sys.argv[2])))
print(time.perf_counter() - t0)
