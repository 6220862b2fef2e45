"""Upcalls: synchronous cross-address-space calls into dom0 (paper §4.2).

Driver calls to support routines the hypervisor does not implement are
bound to *stub* natives created here. A stub:

1. saves the call parameters and switches to the upcall stack (modelled;
   charged as part of the stub cost),
2. performs a synchronous domain switch to dom0 and delivers a
   synchronous virtual interrupt on the registered upcall port,
3. the dom0 upcall handler re-creates the call environment (the heap is
   shared — single data instance; the register/stack parameters are
   identical because the stub leaves the hypervisor stack in place and
   dom0 reads the parameters from it) and invokes the dom0 support
   routine,
4. the routine's return value travels back through a "return hypercall"
   and another domain switch.

The cycle cost is the mechanism costs (two domain switches, event
delivery, return hypercall) plus a calibrated cache-pollution residual so
one upcall per driver invocation costs ``UPCALL_ROUND_TRIP`` — which is
what collapses throughput in figure 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..machine.cpu import Cpu, NativeRoutine
from ..obs.events import SPAN_UPCALL_PREFIX, UPCALL_ABORT
from ..obs.metrics import Counter
from ..osmodel.kernel import Kernel
from ..xen.hypervisor import HYP_UPCALL_STACK_BASE, Hypervisor


class UpcallAborted(Exception):
    """An in-flight upcall could not complete (the synchronous virtual
    interrupt was not deliverable, or the frame stack was unwound by
    recovery): the driver invocation must be aborted."""

    def __init__(self, name: str, why: str):
        super().__init__(f"upcall {name!r} aborted: {why}")
        self.name = name
        self.why = why


class UpcallFrame:
    """One in-flight upcall: saved call environment plus result slot."""

    __slots__ = ("name", "routine", "cpu", "result", "delivered")

    def __init__(self, name: str, routine: NativeRoutine, cpu: Cpu):
        self.name = name
        self.routine = routine
        self.cpu = cpu
        self.result: Optional[int] = None
        self.delivered = False


class UpcallManager:
    """Builds upcall stubs and runs the dom0 side of each upcall."""

    def __init__(self, xen: Hypervisor, dom0_kernel: Kernel):
        self.xen = xen
        self.machine = xen.machine
        self.dom0_kernel = dom0_kernel
        registry = self.machine.obs.registry
        self._tracer = self.machine.obs.tracer
        self._c_upcalls = registry.counter("upcall.calls")
        self._c_aborts = registry.counter("upcall.aborts")
        self._c_by_name: Dict[str, Counter] = {}
        self._invocation_upcalled = False
        #: in-flight upcall frames, outermost first (nested upcalls — a
        #: dom0 handler re-entering the driver — push on top).
        self._frames: List[UpcallFrame] = []
        #: stub natives are cached by routine name so a driver reload
        #: re-binds the same stubs instead of leaking new natives.
        self._stubs: Dict[str, int] = {}
        #: dom0 registers a handler on this port to receive upcalls.
        self.port = dom0_kernel.domain.bind_event_channel(self._dom0_handler)
        costs = xen.costs
        mechanics = (
            2 * costs.domain_switch
            + costs.event_channel_send
            + costs.virq_delivery
            + costs.hypercall            # the 'return' hypercall
        )
        #: residual charged so stub + mechanics == UPCALL_ROUND_TRIP.
        self.cache_residual = max(
            0, costs.upcall_round_trip - mechanics - costs.upcall_stub
        )

    # -- counter views (registry-backed) ----------------------------------------

    @property
    def upcalls(self) -> int:
        return self._c_upcalls.value

    @property
    def calls_by_name(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._c_by_name.items()
                if c.value}

    # -- per-invocation bookkeeping (figure 10 first-upcall extra) --------------

    def new_invocation(self):
        self._invocation_upcalled = False

    @property
    def in_flight(self) -> int:
        """Upcall frames currently on the stack (0 in steady state)."""
        return len(self._frames)

    # -- abort / unwind (fault containment) -------------------------------------

    def abort_unwind(self) -> int:
        """Drop every in-flight frame (recovery quarantining the driver).
        Returns the number of frames unwound."""
        count = len(self._frames)
        if count:
            self._c_aborts.value += count
            self._tracer.emit(UPCALL_ABORT, frames=count,
                              names=[f.name for f in self._frames])
            self._frames.clear()
        return count

    # -- the dom0 side ------------------------------------------------------------

    def _dom0_handler(self, port: int):
        """Runs in dom0 context: recover parameters from the topmost
        undelivered frame, invoke the routine, save the return value for
        the 'return hypercall'."""
        frame = None
        for candidate in reversed(self._frames):
            if not candidate.delivered:
                frame = candidate
                break
        if frame is None:
            return                       # stale queued event: ignore
        frame.delivered = True
        result = frame.routine.fn(frame.cpu)
        frame.result = 0 if result is None else result

    # -- stub factory ----------------------------------------------------------------

    def make_stub(self, name: str, dom0_native_addr: int) -> int:
        """Create (or return the cached) hypervisor stub for an
        unimplemented support routine; returns its native address."""
        cached = self._stubs.get(name)
        if cached is not None:
            return cached
        dom0_routine = self.machine.natives.by_addr[dom0_native_addr]
        costs = self.xen.costs
        counter = self.machine.obs.registry.counter(f"upcall.{name}")
        self._c_by_name[name] = counter
        tracer = self._tracer
        span_name = SPAN_UPCALL_PREFIX + name

        def stub(cpu: Cpu):
            self._c_upcalls.value += 1
            counter.value += 1
            with tracer.span(span_name):
                # stub bookkeeping: save parameters, switch stacks
                cpu.charge_raw(costs.upcall_stub, "Xen")
                if not self._invocation_upcalled:
                    self._invocation_upcalled = True
                    cpu.charge_raw(costs.upcall_first_extra, "Xen")
                cpu.charge_raw(self.cache_residual, "Xen")
                # synchronous virtual interrupt into dom0 (switches
                # domains, runs the handler under dom0 accounting,
                # switches back). Each call gets its own frame so nested
                # upcalls (a dom0 handler re-entering the driver) cannot
                # clobber outer state.
                frame = UpcallFrame(name, dom0_routine, cpu)
                self._frames.append(frame)
                try:
                    self.xen.send_event(self.dom0_kernel.domain, self.port,
                                        synchronous=True)
                    if not frame.delivered:
                        # dom0 has virtual interrupts masked: the
                        # synchronous delivery was queued, so the call
                        # environment on the upcall stack will never be
                        # consumed. Unwind cleanly.
                        self._c_aborts.value += 1
                        tracer.emit(UPCALL_ABORT, frames=1, names=[name])
                        raise UpcallAborted(name, "synchronous delivery "
                                            "blocked (virq masked)")
                    # 'return' hypercall back into the hypervisor
                    self.xen.hypercall(f"upcall-return:{name}")
                    return frame.result
                finally:
                    if frame in self._frames:
                        self._frames.remove(frame)

        addr = self.machine.register_native(f"upcall.{name}", stub)
        self._stubs[name] = addr
        return addr
