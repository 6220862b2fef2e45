"""Host-time spans around each layer's public entry points.

The benchmark never edits the simulator: it measures a layer from outside
by replacing that layer's entry points (instance attributes, native
routine bodies, module functions) with timing wrappers. Every wrapper
pushes a frame on one stack, so a span's *self* time is its duration
minus the time its child spans cover, and the time no span covers is the
benchmark's own (``bench``).

Wrappers must be installed before warm-up: a layer reached through a
reference captured earlier (a registered handler, a bound method stored
in a list) would otherwise bypass its wrapper. ``SpanRecorder.calls``
records how often each wrapper fired so the self-test can catch that.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core import loader as loader_mod
from repro.core import twin as twin_mod
from repro.analysis import verifier as verifier_mod

#: Layers of the per-layer table, in report order. ``bench`` is the
#: time spent in no wrapped layer (generator, packet ledger, gaps).
LAYERS = ("cpu", "svm", "support", "twin", "xen", "sched", "nic",
          "paravirt", "handover", "verifier", "bench")

#: Setup phases timed across the fresh builds of a configuration.
SETUP_LAYERS = ("rewriter", "verifier", "loader")


class SpanRecorder:
    """Aggregates wrapper spans into per-entry self time and call counts.

    While ``recording`` is set, every span is also kept as
    ``(id, parent id, name, start ns, end ns, op)`` for the Chrome trace;
    span 0 is the root (the benchmark's own frame)."""

    def __init__(self):
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self.recording = False
        self.op = 0
        self._next_id = 1
        # frames are [child ns, span id]; the root frame never pops
        self._stack: List[List[int]] = [[0, 0]]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``."""
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)
        rec = self

        def span(*args, **kwargs):
            frame = [0, 0]
            if rec.recording:
                frame[1] = rec._next_id
                rec._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                self_ns[name] += dur - frame[0]
                calls[name] += 1
                if frame[1]:
                    rec.spans.append((frame[1], parent[1], name, start, end,
                                      rec.op))

        return span

    def wrap_attr(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (looked up at call time by its callers)
        with a wrapped copy."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def chrome_trace(self) -> Dict:
        """The recorded spans as a Chrome ``trace_event`` document."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(s[3] for s in self.spans)
        events = [{
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
            "pid": 0, "tid": 0,
            "args": {"id": sid, "parent": parent, "op": op},
        } for sid, parent, name, start, end, op in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def install_layers(rec: SpanRecorder, sut, handover=None) -> None:
    """Wrap the public entry points of every layer of a built system."""
    machine, xen, twin = sut.machine, sut.xen, sut.twin

    rec.wrap_attr(machine.cpu, "call_function", "cpu.call_function")

    # native routine bodies are looked up at call time, by the
    # interpreter and by compiled superblocks alike
    natives = machine.natives.by_addr
    for addr in twin.hyp_runtime.imports.values():
        routine = natives[addr]
        routine.fn = rec.wrap("svm." + routine.name, routine.fn)
    for svm in (twin.svm, twin.identity_svm):
        rec.wrap_attr(svm, "handle_miss", "svm.handle_miss")
    support = twin.hyp_support
    for addr in support.addresses.values():
        routine = natives[addr]
        routine.fn = rec.wrap("support." + routine.name, routine.fn)
    # the twin glue's own Python-level support calls
    for attr in ("netdev_alloc_skb", "dev_kfree_skb_any"):
        rec.wrap_attr(support, attr, "support.direct")

    for attr in ("guest_transmit", "guest_transmit_batch",
                 "hypervisor_netif_rx", "flush_rx",
                 "retry_deferred_interrupts", "replay_frozen_tx"):
        rec.wrap_attr(twin, attr, "twin." + attr)
    # the NIC lines were bound to the twin's handler at attach time
    handler = rec.wrap("twin.nic_irq", twin._handle_nic_irq)
    for irq in twin.nics_by_irq:
        xen.register_irq_handler(irq, handler)

    for attr in ("hypercall", "deliver_coalesced_virq", "raise_softirq",
                 "run_softirqs", "drain_all_softirqs", "switch_to",
                 "schedule_domain"):
        rec.wrap_attr(xen, attr, "xen." + attr)
    machine.intc.set_dispatcher(rec.wrap("xen.dispatch_irq",
                                         machine.intc.dispatcher))

    for attr in ("run", "run_quantum"):
        rec.wrap_attr(xen.scheduler, attr, "sched." + attr)

    for nic in machine.nics:
        for attr in ("receive", "mmio_read", "mmio_write",
                     "flush_interrupts"):
            rec.wrap_attr(nic, attr, "nic." + attr)

    for dev in sut.extras["devices"]:
        for attr in ("transmit", "transmit_batch", "deliver_batch"):
            rec.wrap_attr(dev, attr, "paravirt." + attr)

    if handover is not None:
        rec.wrap_attr(handover, "swap_binary", "handover.swap_binary")


@contextlib.contextmanager
def module_spans(rec: SpanRecorder, *, setup: bool) -> Iterator[None]:
    """Wrap the module-level entry points: the verifier always, and with
    ``setup`` the rewriter and the hypervisor loader too (spans named
    ``setup.<phase>``). Originals are restored on exit."""
    targets = [(verifier_mod, "verify_program",
                "setup.verifier" if setup else "verifier.verify_program")]
    if setup:
        targets += [(twin_mod, "rewrite_driver", "setup.rewriter"),
                    (loader_mod.HypervisorLoader, "load", "setup.loader")]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, name in targets:
            rec.wrap_attr(obj, attr, name)
        yield
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)
