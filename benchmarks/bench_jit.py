"""Superblock JIT: bit-identical simulated cycles on the fast paths.

Not a paper figure — this gates the ISSUE 8 trace-JIT contract on the
figure 5/6 fast paths (domU-twin tx and rx): the **simulated**
per-category cycle movement over the measured window is bit-identical
with ``jit`` on and off, and the JIT actually compiles and enters
superblocks there. The cycle metrics are deterministic and gated
tightly against ``benchmarks/baselines/jit.json``.

Host speed is not measured here: ``python -m benchmarks.perf`` measures
it end to end, with repeated calibrated runs.
"""

import pytest

from repro.configs import build

from .common import header, report

WARMUP = 192      # deep enough that every hot head compiles before the
PACKETS = 384     # measured window opens (threshold 16, rx included)


def _run_direction(direction, jit):
    system = build("domU-twin", n_nics=1, jit=jit)
    op = (system.transmit_packets if direction == "tx"
          else system.receive_packets)
    done = op(WARMUP)
    if done < WARMUP:
        raise RuntimeError(f"only {done}/{WARMUP} warmup packets flowed")
    snap = system.machine.account.snapshot()
    done = op(PACKETS)
    if done < PACKETS:
        raise RuntimeError(f"only {done}/{PACKETS} packets flowed")
    moved = system.machine.account.delta_since(snap)
    return moved, system.machine.cpu.jit_stats()


def run_jit_comparison():
    """direction -> (cycles off, cycles on, jit stats)."""
    results = {}
    for direction in ("tx", "rx"):
        off_cycles, _ = _run_direction(direction, jit=False)
        on_cycles, stats = _run_direction(direction, jit=True)
        results[direction] = (off_cycles, on_cycles, stats)
    return results


@pytest.mark.benchmark(group="jit")
def test_jit_cycles(benchmark):
    results = benchmark.pedantic(run_jit_comparison, rounds=1, iterations=1)
    lines = list(header("Superblock JIT: simulated cycles per packet",
                        paper_col="jit off", meas_col="jit on"))
    metrics, obs = {}, {}
    for direction, (off_cycles, on_cycles, stats) in results.items():
        off_total = sum(off_cycles.values()) / PACKETS
        on_total = sum(on_cycles.values()) / PACKETS
        lines.append(f"  {'domU-twin ' + direction:34s} "
                     f"{off_total:>10.1f}   {on_total:>10.1f}"
                     f"   ({stats['entries']} superblock entries)")
        metrics[f"{direction}_cycles_per_packet"] = off_total
        for category, cycles in sorted(off_cycles.items()):
            if cycles:
                metrics[f"{direction}_cycles_{category}"] = cycles
        obs[f"{direction}_jit_compiles"] = stats["compiles"]
        obs[f"{direction}_jit_superblocks"] = stats["superblocks"]
        obs[f"{direction}_jit_entries"] = stats["entries"]
    lines.append("")
    lines.append("  simulated cycles: bit-identical in both modes "
                 "(asserted)")
    report("jit", lines, metrics=metrics,
           config={"config": "domU-twin", "packets": PACKETS,
                   "warmup": WARMUP, "nics": 1},
           obs=obs)

    for direction, (off_cycles, on_cycles, stats) in results.items():
        assert off_cycles == on_cycles, (
            f"{direction}: simulated cycles diverged between "
            f"interpreter and JIT: {off_cycles} vs {on_cycles}")
        assert stats["compiles"] >= 1
        assert stats["entries"] > 0
