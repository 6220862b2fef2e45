"""Event taxonomy for the xentrace-style tracer.

Every record in the trace ring carries one of these kinds. They mirror
the boundaries the paper's evaluation cares about: the stlb (§4.1), the
upcall machinery (§4.2), the hypervisor support routines (§4.3), the
hypervisor substrate (switches, hypercalls, virtual interrupts), the NIC
device model, and the per-packet paths themselves.

Span begin/end records (``span.begin`` / ``span.end``) are emitted by
the tracer itself; the span *name* (``packet.tx``, ``upcall:<routine>``,
``irq``...) travels in the record's args.
"""

from __future__ import annotations

# -- stlb / SVM (§4.1) ------------------------------------------------------
SVM_HIT = "svm.hit"              # explicit stlb lookup answered from the table
SVM_MISS = "svm.miss"            # __svm_slow_path entered
SVM_FILL = "svm.fill"            # slow path wrote a table entry
SVM_FLUSH = "svm.flush"          # whole-table invalidation
SVM_FAULT = "svm.fault"          # protection fault: access outside dom0
SVM_INVALIDATE = "svm.invalidate"  # page (or full) mapping teardown

# -- hypervisor substrate ---------------------------------------------------
HYPERCALL = "xen.hypercall"
DOMAIN_SWITCH = "xen.switch"
EVENT_SEND = "xen.event_send"
VIRQ = "xen.virq"                # virtual interrupt delivered into a domain
VIRQ_COALESCED = "xen.virq_coalesced"  # one virq covering a packet batch
SOFTIRQ = "xen.softirq"          # softirq scheduled

# -- support routines (§4.3) ------------------------------------------------
SUPPORT_CALL = "support.call"

# -- CPU boundary -----------------------------------------------------------
NATIVE_CALL = "cpu.native_call"  # driver code crossed into a native routine

# -- NIC device model -------------------------------------------------------
NIC_IRQ = "nic.irq"
NIC_TX = "nic.tx"                # a frame left through the tx ring
NIC_RX = "nic.rx"                # a frame landed in the rx ring
NIC_DESC = "nic.desc"            # descriptor write-back (DMA)
NIC_DMA_FAULT = "nic.dma_fault"  # the IOMMU refused a transfer

# -- packet path ------------------------------------------------------------
PACKET_RX_DEMUX = "packet.rx.demux"   # hypervisor netif_rx MAC demux
DRIVER_ABORT = "driver.abort"         # the hypervisor driver was killed

# -- fault containment & recovery -------------------------------------------
RECOVERY_QUARANTINE = "recovery.quarantine"  # faulting twin torn down
RECOVERY_DEGRADED = "recovery.degraded"      # op served on the dom0 path
RECOVERY_RELOAD = "recovery.reload"          # re-verify + reload attempt
RECOVERY_BREAKER = "recovery.breaker"        # crash-loop breaker opened
UPCALL_ABORT = "upcall.abort"                # in-flight upcall frames unwound

# -- spans (emitted by the tracer) ------------------------------------------
SPAN_BEGIN = "span.begin"
SPAN_END = "span.end"

#: span names used by the instrumentation
SPAN_PACKET_TX = "packet.tx"
SPAN_PACKET_RX = "packet.rx"
SPAN_IRQ = "irq"
SPAN_UPCALL_PREFIX = "upcall:"
SPAN_RECOVERY = "recovery"
