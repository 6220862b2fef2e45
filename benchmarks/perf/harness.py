"""One benchmark run of one workload, in the current process.

``run_workload`` is what each child process executes. It builds the
configuration several times (``setup_s``), drives the op stream through
measured windows (``host_pps``), reads the simulated statistics off a
fixed prefix of those windows (so they do not depend on host speed), and
checks that every packet is accounted for. With ``trace`` it measures
an untraced system and then a fresh system with every layer wrapped in
spans, checks that both simulate exactly the same thing, and reports the
per-layer table instead of the end-to-end metrics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
from contextlib import nullcontext
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

from . import load_benchmark
from .layers import LAYERS, SETUP_LAYERS, SpanRecorder, install_layers, \
    module_spans
from .workloads import WORKLOADS, Workload

TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "traces")

#: Host-time metrics are normalized to a calibration rate of CALIB_REF
#: million iterations per second of a fixed pure-Python loop: a window's
#: packet rate is multiplied, and a build time divided, by
#: ``CALIB_REF / measured rate``. The host's speed drifts within a
#: second, so the loop runs in CALIB_SLICES short slices spread evenly
#: between each window's ops (and around each build), and a window is
#: normalized by the rate of its own slices.
CALIB_REF = 5.0
CALIB_SLICES = 16
CALIB_SLICE_ITERS = 10_000
#: Fresh builds per run; ``setup_s`` is their median. Each is timed
#: between BUILD_SLICES calibration slices before and after it.
SETUP_BUILDS = 9
BUILD_SLICES = 8
#: Generator ops whose spans go into the Chrome trace.
TRACED_OPS = 64


def _calib_loop(n: int) -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = i & 1023
        acc = (acc * 31 + table.get(k, i)) & 0xFFFFFFFF
        table[k] = acc
    return acc


def calib_slice() -> int:
    """Nanoseconds one calibration slice takes right now."""
    t0 = perf_counter_ns()
    _calib_loop(CALIB_SLICE_ITERS)
    return perf_counter_ns() - t0


def calib_mops(slices_ns: int, slices: int) -> float:
    return slices * CALIB_SLICE_ITERS / slices_ns * 1e3


def quantile(samples: List[int], q: float) -> int:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- simulated statistics ----------------------------------------------------


def sim_counters(wl: Workload) -> Dict:
    """Every simulated counter the metrics are computed from."""
    sut = wl.sut
    machine, twin = sut.machine, sut.twin
    registry = machine.obs.registry
    rx_batch = registry.histogram("twin.rx_batch_size")
    tx_batch = registry.histogram("twin.tx_batch_size")
    jit = machine.cpu.jit_stats()
    return {
        "cycles": machine.account.cycles,
        "completed": wl.ledger.completed,
        "insns": machine.cpu.executed,
        "jit_entries": jit["entries"],
        "jit_compiles": jit["compiles"],
        "stlb_miss": twin.svm.misses,
        "stlb_hit": twin.svm.hits,
        "support_calls": sum(twin.hyp_support.calls.values()),
        "rx_batches": (rx_batch.count, rx_batch.total),
        "tx_batches": (tx_batch.count, tx_batch.total),
        "hypercalls": registry.counter("xen.hypercall").value,
        "virqs": (registry.counter("xen.virq").value
                  + registry.counter("xen.virq_coalesced").value),
        "softirqs": registry.counter("xen.softirq").value,
        "quanta": sut.xen.scheduler.quanta,
        "steals": sut.xen.scheduler.steals,
        "nic_irqs": sum(nic.stats.interrupts for nic in machine.nics),
        "swaps": len(wl.handover.history) if wl.handover else 0,
    }


def sim_metrics(wl: Workload, before: Dict, after: Dict,
                latencies: List[int]) -> Dict:
    """Deterministic metrics of the simulated prefix ``before..after``:
    the end-to-end ones and the per-layer counts (dotted names)."""
    pkts = after["completed"] - before["completed"]
    cyc = {c: after["cycles"][c] - before["cycles"][c]
           for c in after["cycles"]}

    def per_pkt(key):
        return _ratio(after[key] - before[key], pkts)

    def batch_mean(key):
        (c0, t0), (c1, t1) = before[key], after[key]
        return _ratio(t1 - t0, c1 - c0)

    misses = after["stlb_miss"] - before["stlb_miss"]
    hits = after["stlb_hit"] - before["stlb_hit"]
    reports = (wl.handover.history[before["swaps"]:after["swaps"]]
               if wl.handover else [])
    replayed = [r.replayed_irqs + r.replayed_tx + r.carried_parked
                for r in reports]
    return {
        "sim_cyc_per_pkt": _ratio(sum(cyc.values()), pkts),
        "sim_lat_p50_cyc": quantile(latencies, 0.50),
        "sim_lat_p99_cyc": quantile(latencies, 0.99),
        "sim_lat_samples": len(latencies),
        "sim_packets": pkts,
        "cpu.insns_per_pkt": per_pkt("insns"),
        "jit.entries_per_pkt": per_pkt("jit_entries"),
        "jit.compiles": after["jit_compiles"],
        "svm.stlb_miss_ratio": _ratio(misses, misses + hits),
        "svm.misses_per_pkt": per_pkt("stlb_miss"),
        "support.calls_per_pkt": per_pkt("support_calls"),
        "twin.rx_batch_mean": batch_mean("rx_batches"),
        "twin.tx_batch_mean": batch_mean("tx_batches"),
        "xen.hypercalls_per_pkt": per_pkt("hypercalls"),
        "xen.virqs_per_pkt": per_pkt("virqs"),
        "xen.softirqs_per_pkt": per_pkt("softirqs"),
        "sched.quanta_per_pkt": per_pkt("quanta"),
        "sched.steals_per_pkt": per_pkt("steals"),
        "nic.irqs_per_pkt": per_pkt("nic_irqs"),
        "handover.window_cyc_max": max(
            (r.window_cycles for r in reports), default=0),
        "handover.replayed_per_swap": _ratio(sum(replayed), len(replayed)),
        **{f"cyc.{c}_per_pkt": _ratio(v, pkts) for c, v in cyc.items()},
    }


def fingerprint(wl: Workload) -> Dict:
    """The whole simulated state a same-seed build must reproduce."""
    machine = wl.sut.machine
    return {"registry": machine.obs.registry.snapshot(),
            "cycles": machine.account.cycles,
            "wire": machine.wire.tx_count,
            "ledger": (wl.ledger.attempted, wl.ledger.completed)}


# -- measurement -------------------------------------------------------------


class Phase:
    """One built system driven through warm-up and measured windows."""

    def __init__(self, cls, sut, seed: int,
                 rec: Optional[SpanRecorder] = None):
        self.wl: Workload = cls(sut, seed)
        self.rec = rec
        if rec is not None:
            install_layers(rec, sut, self.wl.handover)
        #: (packets completed, host seconds, calibration Mops) per window
        self.windows: List[Tuple[int, float, float]] = []
        self.sim: Dict = {}
        #: wrapper calls over the simulated prefix (traced phases)
        self.prefix_calls: Dict[str, int] = {}
        #: host time inside the windows, and each entry's self time there
        self.window_ns = 0
        self.entry_ns: Dict[str, int] = {}
        self._next_op = 0

    def warm_up(self) -> None:
        for i in range(self.wl.warmup_ops):
            self.wl.op(i)
        self._next_op = self.wl.warmup_ops

    def _run_ops(self, lo: int, hi: int) -> None:
        op, rec = self.wl.op, self.rec
        if rec is None:
            for i in range(lo, hi):
                op(i)
            return
        for i in range(lo, hi):
            # spans of the first TRACED_OPS measured ops go to the trace
            rec.op = i - self._first_measured
            rec.recording = rec.op < TRACED_OPS
            op(i)

    def measure(self, seconds: float, sim_windows: int) -> None:
        """Run whole windows until ``seconds`` have passed and at least
        ``sim_windows`` windows (the simulated prefix) are done."""
        wl, rec = self.wl, self.rec
        before = sim_counters(wl)
        calls_before = dict(rec.calls) if rec else {}
        self_before = dict(rec.self_ns) if rec else {}
        wl.ledger.latencies = latencies = []
        self._first_measured = self._next_op
        begin = perf_counter()
        while True:
            done = wl.ledger.completed
            first = self._next_op
            work_ns = slices_ns = 0
            for k in range(CALIB_SLICES):
                slices_ns += calib_slice()
                lo = first + wl.window_ops * k // CALIB_SLICES
                hi = first + wl.window_ops * (k + 1) // CALIB_SLICES
                t0 = perf_counter_ns()
                self._run_ops(lo, hi)
                work_ns += perf_counter_ns() - t0
            self._next_op = first + wl.window_ops
            self.window_ns += work_ns
            self.windows.append((wl.ledger.completed - done, work_ns / 1e9,
                                 calib_mops(slices_ns, CALIB_SLICES)))
            if len(self.windows) == sim_windows:
                self.sim = sim_metrics(wl, before, sim_counters(wl),
                                       latencies)
                wl.ledger.latencies = None
                if rec:
                    self.prefix_calls = {k: v - calls_before.get(k, 0)
                                         for k, v in rec.calls.items()}
            if (len(self.windows) >= sim_windows
                    and perf_counter() - begin >= seconds):
                break
        if rec:
            rec.recording = False
            self.entry_ns = {k: v - self_before.get(k, 0)
                             for k, v in rec.self_ns.items()}

    def host_pps(self) -> Dict[str, float]:
        return {
            "host_pps": statistics.median(
                p / s * CALIB_REF / c for p, s, c in self.windows),
            "host_pps_raw": statistics.median(
                p / s for p, s, _ in self.windows),
            "host.calib_mops": statistics.median(
                c for _, _, c in self.windows),
        }

    def settle(self) -> Dict[str, bool]:
        """Drain everything still held, check that every packet is
        accounted for exactly once, and release the system."""
        wl = self.wl
        wl.drain()
        led, twin = wl.ledger, wl.sut.twin
        self.attempted, self.completed = led.attempted, led.completed
        self.pool_outstanding = len(twin.hyp_support.pool.outstanding)
        checks = {
            "tx_conserved": led.tx_attempted == led.tx_done + led.tx_busy,
            "rx_conserved": led.rx_attempted == led.rx_done + led.rx_dropped,
            "nothing_held": twin.rx_backlog == 0 and led.in_flight() == 0,
            "bytes_match": led.mismatches == 0,
            "no_demux_drops": twin.rx_dropped_no_guest == 0,
            "pool_balanced": twin.hyp_support.pool.balanced,
        }
        self.wl = None
        return checks


def _timed_build(cls):
    """One fresh build between calibration slices; returns (system, raw
    nanoseconds, normalized seconds)."""
    gc.collect()
    slices_ns = sum(calib_slice() for _ in range(BUILD_SLICES))
    t0 = perf_counter_ns()
    sut = cls.build()
    ns = perf_counter_ns() - t0
    slices_ns += sum(calib_slice() for _ in range(BUILD_SLICES))
    mops = calib_mops(slices_ns, 2 * BUILD_SLICES)
    return sut, ns, ns / 1e9 * mops / CALIB_REF


def _timed_builds(cls, n: int):
    """``n`` fresh builds; returns (normalized seconds of each, raw
    nanoseconds of all, the last system)."""
    times, raw_ns, sut = [], 0, None
    for _ in range(n):
        sut = None          # free the previous system before timing
        sut, ns, seconds = _timed_build(cls)
        raw_ns += ns
        times.append(seconds)
    return times, raw_ns, sut


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Dict:
    """Run one workload once and return its result document. ``quick``
    (the self-test) shortens the simulated prefix to one window and the
    set-up to two builds."""
    cls = WORKLOADS[name]
    sim_windows = 1 if quick else cls.sim_windows
    builds = 2 if quick else SETUP_BUILDS

    # the first build of the process is the cold one; after warm-up its
    # state is the reference every same-seed build must reproduce
    sut, _, cold_s = _timed_build(cls)
    cold = Phase(cls, sut, seed)
    del sut
    cold.warm_up()
    reference = fingerprint(cold.wl)
    settled = [cold.settle()]

    setup_rec = SpanRecorder()
    with module_spans(setup_rec, setup=True) if trace else nullcontext():
        setup_times, build_ns, sut = _timed_builds(cls, builds)

    main = Phase(cls, sut, seed)
    del sut
    main.warm_up()
    identical = fingerprint(main.wl) == reference
    main.measure(seconds / 2 if trace else seconds, sim_windows)
    settled.append(main.settle())
    phases = [cold, main]
    values = {"setup_s": statistics.median(setup_times),
              **main.host_pps(), **main.sim}

    if trace:
        gc.collect()
        rec = SpanRecorder()
        traced = Phase(cls, cls.build(), seed, rec)
        with module_spans(rec, setup=False):
            traced.warm_up()
            traced.measure(seconds / 2, sim_windows)
        settled.append(traced.settle())
        phases.append(traced)
        values.update(layer_metrics(main, traced))
        for layer in SETUP_LAYERS:
            values[f"setup.{layer}_share"] = _ratio(
                setup_rec.self_ns.get(f"setup.{layer}", 0), build_ns)
        values["setup.cold_s"] = cold_s
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"{name}-seed{seed}.json"),
                  "w") as fh:
            json.dump(rec.chrome_trace(), fh)
    else:
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(p.attempted for p in phases)
    completed = sum(p.completed for p in phases)
    checks = {k: all(s[k] for s in settled) for k in settled[0]}
    # the workloads are chosen so that no packet fails: a refused or
    # dropped one is a failed run, not only a lower delivered_frac
    checks["no_failures"] = attempted == completed
    checks["same_seed_builds_identical"] = identical
    if trace:
        checks["traced_sim_identical"] = traced.sim == main.sim
    values["delivered_frac"] = _ratio(completed, attempted)
    values["fail_frac"] = _ratio(attempted - completed, attempted)
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": attempted,
              "failed": attempted - completed, "checks": checks}
    result.update(emit(values, "per_layer" if trace else "end_to_end"))
    result["extra"]["window_pps"] = [p / s for p, s, _ in main.windows]
    result["extra"]["setup_s_all"] = setup_times
    if trace:
        result["extra"]["layer_calls"] = traced.prefix_calls
    return result


def layer_metrics(untraced: Phase, traced: Phase) -> Dict[str, float]:
    """Self-time shares from the traced phase's windows, wrapper call
    counts over its simulated prefix, and the exact per-layer counts of
    the untraced phase's simulated prefix."""
    total = traced.window_ns
    by_layer: Dict[str, int] = {}
    for entry, ns in traced.entry_ns.items():
        layer = entry.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0) + ns
    by_layer["bench"] = total - sum(by_layer.values())
    out = {f"{layer}.self_share": _ratio(by_layer.get(layer, 0), total)
           for layer in LAYERS}
    out["obs.trace_overhead_frac"] = 1 - _ratio(
        traced.host_pps()["host_pps"], untraced.host_pps()["host_pps"])
    out["cpu.calls_per_pkt"] = _ratio(
        traced.prefix_calls.get("cpu.call_function", 0),
        traced.sim["sim_packets"])
    out["support.pool_outstanding_end"] = untraced.pool_outstanding
    out.update({k: v for k, v in untraced.sim.items() if "." in k})
    return out


def emit(values: Dict, kind: str) -> Dict:
    """Split ``values`` into the metrics ``BENCHMARK.json`` declares for
    ``kind`` (with their units) and everything else."""
    declared = load_benchmark()[kind]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"{kind} metrics not computed: {missing}")
    names = {m["name"] for m in declared}
    return {
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
        "extra": {k: v for k, v in values.items() if k not in names},
    }
