"""Self-test of the benchmark: every workload at its smallest size.

Run with ``pytest benchmarks/perf`` (it sits outside the tier-1
``testpaths``). Each workload runs once untraced and once traced, in
child processes, with a one-window simulated prefix and two set-up
builds.
"""

import pytest

from benchmarks.perf import load_benchmark
from benchmarks.perf.cli import run_child
from benchmarks.perf.compare import verdict

#: Wrappers each workload must fire. One that never fires means its
#: layer is reached through a reference captured before the wrapper was
#: installed, and the per-layer table silently misattributes that time.
COMMON = {"cpu.call_function", "svm.handle_miss",
          "svm.hyp.__svm_slow_path", "support.direct",
          "support.hyp.dma_map_single", "twin.nic_irq", "xen.dispatch_irq",
          "xen.run_softirqs", "nic.mmio_write"}
TX = {"paravirt.transmit", "xen.hypercall", "twin.guest_transmit",
      "support.hyp.dev_kfree_skb_any"}
RX = {"nic.receive", "support.hyp.netdev_alloc_skb",
      "support.hyp.netif_rx", "twin.hypervisor_netif_rx", "twin.flush_rx",
      "xen.deliver_coalesced_virq", "paravirt.deliver_batch"}
EXPECTED = {
    "tx_mtu": COMMON | TX,
    "rx_mtu": COMMON | RX,
    "scale64_small": COMMON | RX | {
        "sched.run", "sched.run_quantum", "paravirt.transmit_batch",
        "twin.guest_transmit_batch", "xen.switch_to"},
    "handover_churn": COMMON | TX | RX | {
        "handover.swap_binary", "verifier.verify_program",
        "twin.replay_frozen_tx", "twin.retry_deferred_interrupts"},
}


def declared(kind):
    return [m["name"] for m in load_benchmark()[kind]]


@pytest.mark.parametrize("base, new, better, expected", [
    ([100, 101, 99, 100, 100], [100, 100, 101, 99, 100], "higher",
     "within bound"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "lower", "better"),
    ([100, 140, 70, 100, 120], [100, 60, 130, 90, 110], "lower",
     "unresolved"),
    ([100, 101, 99, 100, 100], [120, 60, 130, 140, 70], "lower",
     "unresolved"),
])
def test_compare_verdicts(base, new, better, expected):
    assert verdict(base, new, better, bound=0.10) == expected


def test_workloads_match_benchmark_json():
    assert sorted(EXPECTED) == sorted(
        w["name"] for w in load_benchmark()["workloads"])


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_untraced(workload):
    result = run_child(workload, seed=1, seconds=0, trace=False, quick=True)
    assert result is not None, "child failed"
    assert all(result["checks"].values()), result["checks"]
    assert list(result["metrics"]) == declared("end_to_end")
    assert result["failed"] == 0
    for name, m in result["metrics"].items():
        assert m["value"] > 0, f"{name} reads 0"


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced(workload):
    result = run_child(workload, seed=1, seconds=0, trace=True, quick=True)
    assert result is not None, "child failed"
    checks = result["checks"]
    assert checks.pop("traced_sim_identical"), \
        "wrappers changed the simulated statistics"
    assert all(checks.values()), checks
    assert list(result["metrics"]) == declared("per_layer")
    assert result["failed"] == 0
    calls = result["extra"]["layer_calls"]
    silent = sorted(name for name in EXPECTED[workload]
                    if not calls.get(name))
    assert not silent, f"wrappers that never fired: {silent}"
    shares = {k: m["value"] for k, m in result["metrics"].items()
              if k.endswith(".self_share")}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["bench.self_share"] <= 0.10
