"""Host-speed and simulated-cost benchmark of the TwinDrivers model.

Four workloads, end-to-end metrics per workload, and a per-layer
host-time table from a separate traced run. See ``README.md``; run with
``python -m benchmarks.perf run --seed 0``.
"""

import json
import os

#: The benchmark's contract: workload names, metric names, units,
#: directions and regression bounds.
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "BENCHMARK.json")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)
