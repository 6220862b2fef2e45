"""Credit scheduler: vCPU run queues, determinism, stealing, refill."""

import pytest

from repro.machine import Machine
from repro.xen import CREDIT_REFILL, Hypervisor


def make_smp(vcpus=2, guests=4):
    m = Machine()
    xen = Hypervisor(m, vcpus=vcpus)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    doms = [xen.create_domain(f"g{i}") for i in range(guests)]
    return m, xen, dom0, doms


class TestVCpus:
    def test_vcpus_requires_at_least_one(self):
        with pytest.raises(ValueError):
            Hypervisor(Machine(), vcpus=0)

    def test_default_is_single_vcpu(self):
        xen = Hypervisor(Machine())
        assert len(xen.vcpus) == 1

    def test_dom0_pins_to_vcpu0(self):
        m, xen, dom0, doms = make_smp()
        assert dom0.vcpu is xen.vcpus[0]

    def test_guests_spread_round_robin(self):
        m, xen, dom0, doms = make_smp(vcpus=2, guests=4)
        assert [d.vcpu.id for d in doms] == [0, 1, 0, 1]

    def test_current_is_per_vcpu(self):
        m, xen, dom0, doms = make_smp()
        xen.switch_to(doms[0])
        assert xen.vcpus[0].current is doms[0]
        xen.activate_vcpu(xen.vcpus[1])
        assert xen.current is None  # vCPU 1 never ran anything
        xen.switch_to(doms[1])
        xen.activate_vcpu(xen.vcpus[0])
        assert xen.current is doms[0]  # vCPU 0's world intact

    def test_activate_vcpu_restores_address_space(self):
        m, xen, dom0, doms = make_smp()
        xen.switch_to(doms[0])
        xen.activate_vcpu(xen.vcpus[1])
        xen.switch_to(doms[1])
        assert m.cpu.address_space is doms[1].aspace
        xen.activate_vcpu(xen.vcpus[0])
        assert m.cpu.address_space is doms[0].aspace


class TestScheduling:
    def test_one_quantum_runs_one_work_item(self):
        m, xen, dom0, doms = make_smp()
        ran = []
        xen.scheduler.queue_work(doms[0], lambda: ran.append("a"))
        xen.scheduler.queue_work(doms[0], lambda: ran.append("b"))
        assert xen.scheduler.run_quantum(doms[0].vcpu)
        assert ran == ["a"]
        assert xen.scheduler.run_quantum(doms[0].vcpu)
        assert ran == ["a", "b"]

    def test_idle_vcpu_runs_nothing(self):
        m, xen, dom0, doms = make_smp()
        assert not xen.scheduler.run_quantum(xen.vcpus[0])

    def test_pick_prefers_most_credits(self):
        m, xen, dom0, doms = make_smp(vcpus=1, guests=2)
        ran = []
        xen.scheduler.queue_work(doms[0], lambda: ran.append("g0"))
        xen.scheduler.queue_work(doms[1], lambda: ran.append("g1"))
        doms[1].credits += 1000
        xen.scheduler.run_quantum(xen.vcpus[0])
        assert ran == ["g1"]

    def test_tie_breaks_by_least_recently_scheduled_then_domid(self):
        m, xen, dom0, doms = make_smp(vcpus=1, guests=2)
        ran = []
        doms[0].credits = doms[1].credits = 500
        # never-scheduled tie: lowest domid first
        xen.scheduler.queue_work(doms[1], lambda: ran.append("g1"))
        xen.scheduler.queue_work(doms[0], lambda: ran.append("g0"))
        xen.scheduler.run_quantum(xen.vcpus[0])
        assert ran == ["g0"]
        # g0 just ran, so at equal credits g1 is least recently scheduled
        doms[0].credits = doms[1].credits = 500
        xen.scheduler.queue_work(doms[0], lambda: ran.append("g0"))
        xen.scheduler.run_quantum(xen.vcpus[0])
        assert ran == ["g0", "g1"]

    def test_credits_debited_by_consumed_cycles(self):
        m, xen, dom0, doms = make_smp()
        xen.scheduler.queue_work(
            doms[0], lambda: m.account.charge("domU", 12345))
        before = doms[0].credits
        xen.scheduler.run_quantum(doms[0].vcpu)
        consumed = before - doms[0].credits
        # the debit covers the guest work plus the Xen overhead the
        # quantum itself charged (pick, switch, tick)
        assert consumed >= 12345
        assert consumed < 12345 + 10_000

    def test_refill_when_all_runnable_exhausted(self):
        m, xen, dom0, doms = make_smp(vcpus=1, guests=2)
        for d in doms:
            xen.scheduler.queue_work(d, lambda: None)
            d.credits = -100
        xen.scheduler.run_quantum(xen.vcpus[0])
        assert xen.scheduler.refills >= 1
        assert all(d.credits > 0 or not d.run_work for d in doms)

    def test_work_stealing_migrates_domain(self):
        m, xen, dom0, doms = make_smp(vcpus=2, guests=2)
        # both guests queue work, but land them all on vCPU 0's queue
        victim, thief = xen.vcpus[0], xen.vcpus[1]
        for d in doms:
            if d.vcpu is not victim:
                d.vcpu.runq.remove(d)
                victim.runq.append(d)
                d.vcpu = victim
            xen.scheduler.queue_work(d, lambda: None)
        assert xen.scheduler.run_quantum(thief)
        assert xen.scheduler.steals == 1
        stolen = [d for d in doms if d.vcpu is thief]
        assert len(stolen) == 1

    def test_steal_charges_xen(self):
        m, xen, dom0, doms = make_smp(vcpus=2, guests=1)
        guest = doms[0]
        assert guest.vcpu is xen.vcpus[0]
        xen.scheduler.queue_work(guest, lambda: None)
        before = m.account.cycles["Xen"]
        xen.scheduler.run_quantum(xen.vcpus[1])
        delta = m.account.cycles["Xen"] - before
        assert delta >= xen.costs.sched_steal

    def test_run_drains_all_work(self):
        m, xen, dom0, doms = make_smp(vcpus=2, guests=4)
        ran = []
        for i, d in enumerate(doms):
            for j in range(3):
                xen.scheduler.queue_work(
                    d, lambda i=i, j=j: ran.append((i, j)))
        quanta = xen.scheduler.run()
        assert quanta == 12
        assert len(ran) == 12
        # per-domain order preserved
        for i in range(4):
            assert [j for (g, j) in ran if g == i] == [0, 1, 2]

    def test_schedule_is_deterministic(self):
        def trace():
            m, xen, dom0, doms = make_smp(vcpus=2, guests=4)
            ran = []
            for i, d in enumerate(doms):
                for j in range(4):
                    xen.scheduler.queue_work(
                        d, lambda i=i: ran.append(i))
            xen.scheduler.run()
            return ran, dict(m.account.cycles)

        first, second = trace(), trace()
        assert first == second

    def test_refill_amount_is_credit_refill(self):
        m, xen, dom0, doms = make_smp(vcpus=1, guests=1)
        doms[0].credits = 0
        xen.scheduler.queue_work(doms[0], lambda: None)
        xen.scheduler._maybe_refill()
        assert doms[0].credits == CREDIT_REFILL
