"""Run one workload once and print its result as JSON on the last line.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload tx_mtu --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer table. The workload runs in a child process; the exit code is
non-zero if it fails or any correctness check does.
"""

import os
import sys

if __name__ == "__main__":
    # import the package from the repository root, not this directory
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from benchmarks.perf.cli import contract_main
    sys.exit(contract_main(sys.argv[1:]))
