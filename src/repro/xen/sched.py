"""SMP: virtual CPUs and the credit scheduler (Xen's sched_credit, simplified).

The simulator executes on one host thread, so SMP is modeled the way the
rest of the machine is modeled: *which* vCPU the simulated pCPU is
currently standing in for is explicit state (:class:`VCpu`), and the
scheduler interleaves vCPU quanta deterministically. Everything that used
to be global hypervisor state but is per-CPU on real Xen — the current
domain, the softirq queue, the driver-invocation depth — lives on the
:class:`VCpu` so the scale benchmarks exercise the same sharding a real
SMP port would need.

Credit scheduling (Xen's ``sched_credit``, simplified but faithful in
shape):

* every domain holds a signed credit balance; running debits it by the
  cycles the domain *actually consumed* during its quantum, read off the
  machine-wide :class:`~repro.metrics.cycles.CycleAccount` — there is no
  second clock;
* each vCPU owns a run queue; domains are assigned round-robin at
  creation (dom0 pins to vCPU 0, like Xen's dom0 affinity default);
* a vCPU picks the runnable domain with the most credits; ties break by
  a deterministic round-robin rule (least-recently-scheduled first, then
  lowest domid) so two identical runs produce bit-identical schedules;
* an idle vCPU steals the highest-credit runnable domain from the first
  loaded peer (scan order ``id+1, id+2, ...`` mod N — deterministic);
* when every runnable domain is out of credits, all domains are refilled
  at once (the 30 ms credit tick, collapsed to an instant).

Scheduler work is charged to ``Xen`` from the calibrated cost table
(``sched_pick`` / ``sched_credit_tick`` / ``sched_steal``), so the scale
benchmark's per-packet Xen cycles include realistic scheduling overhead —
amortized over the packets a quantum moves, which is exactly the property
``bench_scale.py`` asserts stays flat from 1 to 256 guests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .domain import Domain
    from .hypervisor import Hypervisor

#: Cycles of service granted to every domain at each credit refill.
CREDIT_REFILL = 300_000

#: Upper bound on softirqs drained per :meth:`Hypervisor.run_softirqs`
#: call — a softirq storm (a handler that re-raises itself forever) must
#: surface as an error, not an infinite loop.
SOFTIRQ_DRAIN_LIMIT = 4096


class SoftirqStorm(RuntimeError):
    """run_softirqs exceeded its bounded-iterations guard."""

    pass


class VCpu:
    """One virtual CPU: the per-CPU hypervisor state that was global
    before the SMP port — current domain, softirq queue, driver depth —
    plus this vCPU's run queue."""

    def __init__(self, cpu_id: int, xen: "Hypervisor"):
        self.id = cpu_id
        self.xen = xen
        #: the domain whose address space this vCPU last ran.
        self.current: Optional["Domain"] = None
        #: deferred softirq-context callbacks raised on this vCPU.
        self.softirqs: List[Callable[[], None]] = []
        #: >0 while a hypervisor-driver invocation is in flight here.
        self.driver_depth = 0
        #: re-entrancy latch for :meth:`Hypervisor.run_softirqs`.
        self.in_softirq = False
        #: domains assigned to this vCPU's run queue.
        self.runq: List["Domain"] = []

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<VCpu {self.id} current="
                f"{self.current.name if self.current else None} "
                f"runq={[d.name for d in self.runq]}>")


class CreditScheduler:
    """Per-vCPU run queues with credit accounting and work stealing."""

    def __init__(self, xen: "Hypervisor", vcpus: List[VCpu]):
        self.xen = xen
        self.vcpus = vcpus
        #: monotonically increasing schedule sequence — the deterministic
        #: round-robin tie-break (least-recently-scheduled wins a tie).
        self._seq = 0
        #: round-robin cursor for assigning new domains to vCPUs.
        self._assign_rr = 0
        self.quanta = 0
        self.steals = 0
        self.refills = 0

    # -- assignment ----------------------------------------------------------

    def assign(self, domain: "Domain", vcpu: Optional[VCpu] = None):
        """Place ``domain`` on a run queue. dom0 pins to vCPU 0; guests
        spread round-robin unless an explicit ``vcpu`` is given."""
        if vcpu is None:
            if domain.is_dom0:
                vcpu = self.vcpus[0]
            else:
                vcpu = self.vcpus[self._assign_rr % len(self.vcpus)]
                self._assign_rr += 1
        domain.vcpu = vcpu
        domain.credits = CREDIT_REFILL
        vcpu.runq.append(domain)

    def queue_work(self, domain: "Domain", fn: Callable[[], None]):
        """Enqueue a unit of guest work (one quantum runs one unit)."""
        domain.run_work.append(fn)

    @staticmethod
    def runnable(domain: "Domain") -> bool:
        return bool(domain.run_work) or bool(domain.pending_ports)

    # -- selection -----------------------------------------------------------

    @staticmethod
    def _key(domain: "Domain"):
        # max credits first; among equals, the least recently scheduled;
        # among those, the lowest domid — all total orders, so the pick
        # is deterministic.
        return (-domain.credits, domain.sched_seq, domain.domid)

    def _pick_from(self, runq: List["Domain"]) -> Optional["Domain"]:
        best = None
        for domain in runq:
            if not self.runnable(domain):
                continue
            if best is None or self._key(domain) < self._key(best):
                best = domain
        return best

    def _steal(self, vcpu: VCpu) -> Optional["Domain"]:
        """Idle vCPU: migrate the best runnable domain from the first
        peer that has one (deterministic scan order)."""
        n = len(self.vcpus)
        for k in range(1, n):
            victim = self.vcpus[(vcpu.id + k) % n]
            domain = self._pick_from(victim.runq)
            if domain is None:
                continue
            victim.runq.remove(domain)
            vcpu.runq.append(domain)
            domain.vcpu = vcpu
            self.steals += 1
            self.xen.charge_xen(self.xen.costs.sched_steal,
                                phase="xen:sched_steal")
            self.xen.machine.obs.registry.counter(
                f"sched.vcpu{vcpu.id}.steals").value += 1
            return domain
        return None

    # -- the run loop --------------------------------------------------------

    def run_quantum(self, vcpu: VCpu) -> bool:
        """Run one quantum on ``vcpu``: pick (or steal) a runnable
        domain, switch to it, deliver its pending events, run one work
        unit, drain softirqs, and debit the cycles it consumed from its
        credits. Returns False when the vCPU found nothing to run."""
        xen = self.xen
        xen.activate_vcpu(vcpu)
        domain = self._pick_from(vcpu.runq)
        if domain is None:
            domain = self._steal(vcpu)
        if domain is None:
            return False
        xen.charge_xen(xen.costs.sched_pick, phase="xen:sched_pick")
        self._seq += 1
        domain.sched_seq = self._seq
        account = xen.machine.account
        start = account.total
        xen.switch_to(domain)
        xen.schedule_domain(domain)
        if domain.run_work:
            fn = domain.run_work.pop(0)
            fn()
        xen.run_softirqs()
        # credit accounting: debit what the quantum actually consumed,
        # straight off the machine-wide cycle account.
        xen.charge_xen(xen.costs.sched_credit_tick, phase="xen:sched_tick")
        domain.credits -= account.total - start
        self.quanta += 1
        self.xen.machine.obs.registry.counter(
            f"sched.vcpu{vcpu.id}.quanta").value += 1
        self._maybe_refill()
        return True

    def idle(self) -> bool:
        """True when no vCPU has runnable work, queued softirqs, or an
        in-flight driver invocation — the quiescence predicate a planned
        handover checks before freezing the instance."""
        for vcpu in self.vcpus:
            if vcpu.softirqs or vcpu.driver_depth:
                return False
            if any(self.runnable(d) for d in vcpu.runq):
                return False
        return True

    def _maybe_refill(self):
        runnable = [d for v in self.vcpus for d in v.runq
                    if self.runnable(d)]
        if runnable and all(d.credits <= 0 for d in runnable):
            for vcpu in self.vcpus:
                for domain in vcpu.runq:
                    domain.credits += CREDIT_REFILL
            self.refills += 1

    def run(self, max_quanta: int = 1_000_000) -> int:
        """Round-robin the vCPUs until no vCPU can find runnable work
        (or the quantum budget runs out). Returns quanta executed."""
        ran = 0
        while ran < max_quanta:
            progressed = False
            for vcpu in self.vcpus:
                if ran >= max_quanta:
                    break
                if self.run_quantum(vcpu):
                    progressed = True
                    ran += 1
            if not progressed:
                break
        return ran
