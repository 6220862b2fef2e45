"""Cycle accounts and throughput arithmetic."""

import pytest

from repro.machine import Machine
from repro.metrics import (
    CycleAccount,
    PacketProfile,
    ThroughputResult,
    improvement_factor,
    throughput_from_cycles,
)


class TestCycleAccount:
    def test_charge_and_total(self):
        acct = CycleAccount()
        acct.charge("Xen", 100)
        acct.charge("e1000", 50)
        assert acct.total == 150
        assert acct.cycles["Xen"] == 100

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            CycleAccount().charge("userspace", 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CycleAccount().charge("Xen", -1)

    def test_snapshot_delta(self):
        acct = CycleAccount()
        acct.charge("dom0", 10)
        snap = acct.snapshot()
        acct.charge("dom0", 5)
        acct.charge("domU", 7)
        delta = acct.delta_since(snap)
        assert delta == {"dom0": 5, "domU": 7, "Xen": 0, "e1000": 0}

    def test_merge(self):
        a, b = CycleAccount(), CycleAccount()
        a.charge("Xen", 1)
        b.charge("Xen", 2)
        a.count("pkts", 3)
        b.count("pkts", 4)
        merged = a.merged(b)
        assert merged.cycles["Xen"] == 3
        assert merged.events["pkts"] == 7

    def test_reset(self):
        acct = CycleAccount()
        acct.charge("Xen", 5)
        acct.reset()
        assert acct.total == 0

    def test_reset_clears_events_too(self):
        acct = CycleAccount()
        acct.count("pkts", 9)
        acct.reset()
        assert acct.events == {}
        acct.count("pkts", 1)
        assert acct.events == {"pkts": 1}

    def test_reset_preserves_hot_path_counters(self):
        # hot paths cache Counter objects: reset must zero them in place,
        # not replace them, or later charges would vanish
        acct = CycleAccount()
        acct.charge("Xen", 5)
        acct.reset()
        acct.charge("Xen", 2)
        assert acct.cycles["Xen"] == 2

    def test_merge_does_not_mutate_inputs(self):
        a, b = CycleAccount(), CycleAccount()
        a.charge("Xen", 1)
        b.charge("dom0", 2)
        merged = a.merged(b)
        merged.charge("Xen", 100)
        assert a.cycles["Xen"] == 1
        assert b.cycles["dom0"] == 2

    def test_merge_with_empty(self):
        a = CycleAccount()
        a.charge("e1000", 3)
        a.count("irqs", 2)
        merged = a.merged(CycleAccount())
        assert merged.cycles["e1000"] == 3
        assert merged.events == {"irqs": 2}

    def test_delta_since_empty_snapshot(self):
        acct = CycleAccount()
        acct.charge("domU", 4)
        delta = acct.delta_since({})
        assert delta == {"dom0": 0, "domU": 4, "Xen": 0, "e1000": 0}

    def test_shared_registry_isolated_namespaces(self):
        # a machine-shared registry: reset() must only touch the
        # account's own cycles./event. namespaces
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        other = registry.counter("svm.hyp-stlb.miss")
        other.value = 7
        acct = CycleAccount(registry=registry)
        acct.charge("Xen", 3)
        acct.reset()
        assert other.value == 7
        assert acct.total == 0

    def test_events_roundtrip(self):
        acct = CycleAccount()
        acct.count("tx")
        acct.count("tx", 2)
        assert acct.events == {"tx": 3}


class TestChargeShadow:
    """``CycleAccount.shadowed``: the one test for a shadow of ``charge``
    (the interpreter charges item by item while it holds)."""

    def test_fresh_account(self):
        assert not CycleAccount().shadowed

    def test_profiler_enabled_then_disabled(self):
        m = Machine()
        m.obs.profiler.enable()
        assert m.account.shadowed
        m.obs.profiler.disable()
        assert not m.account.shadowed

    def test_plain_function(self):
        acct = CycleAccount()
        acct.charge = lambda category, cycles: None
        assert acct.shadowed
        del acct.charge
        assert not acct.shadowed

    def test_another_accounts_bound_charge(self):
        acct, other = CycleAccount(), CycleAccount()
        acct.charge = other.charge
        assert acct.shadowed
        del acct.charge
        acct.charge = acct.charge       # its own bound method: no shadow
        assert not acct.shadowed


class TestPacketProfile:
    def test_per_packet(self):
        p = PacketProfile(config="x", direction="tx", packets=10,
                          cycles={"Xen": 1000, "e1000": 500})
        assert p.per_packet["Xen"] == 100
        assert p.total_per_packet == 150

    def test_zero_packets(self):
        p = PacketProfile(config="x", direction="tx", packets=0, cycles={})
        assert p.total_per_packet == 0


class TestThroughput:
    def test_cpu_bound(self):
        # 30000 cycles/packet @3GHz = 100k pps = 1200 Mb/s < line rate
        r = throughput_from_cycles("t", "tx", 30_000)
        assert r.throughput_mbps == pytest.approx(1200, rel=0.01)
        assert r.cpu_utilization == 1.0

    def test_line_bound(self):
        # 1000 cycles/packet: CPU could do 36 Gb/s, line caps at 4690
        r = throughput_from_cycles("t", "tx", 1000)
        assert r.throughput_mbps == pytest.approx(4690, rel=0.01)
        assert r.cpu_utilization < 0.2

    def test_cpu_scaled_units(self):
        r = throughput_from_cycles("t", "tx", 5903)
        # the paper's native Linux case: line-limited at ~77% CPU
        assert r.cpu_utilization == pytest.approx(0.769, abs=0.02)
        assert r.cpu_scaled_mbps > r.throughput_mbps

    def test_improvement_factor(self):
        fast = throughput_from_cycles("a", "tx", 10_000)
        slow = throughput_from_cycles("b", "tx", 24_000)
        assert improvement_factor(fast, slow) == pytest.approx(2.4, rel=0.01)

    def test_single_nic_cap(self):
        r = throughput_from_cycles("t", "tx", 1000, nics=1)
        assert r.throughput_mbps == pytest.approx(938, rel=0.01)

    def test_invalid_cycles(self):
        with pytest.raises(ValueError):
            throughput_from_cycles("t", "tx", 0)
