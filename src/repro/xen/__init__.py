"""Xen-like hypervisor substrate: domains, events, grants, cost model."""

from .costs import (
    CostModel,
    MULTI_NIC_EFFICIENCY,
    OVERLOAD_EFFICIENCY,
    REQRESP_PACKET_FACTOR,
    SUPPORT_ROUTINE_COSTS,
    VIRT_APP_FACTOR,
)
from .domain import Domain
from .granttable import GrantDoubleUnmap, GrantEntry, GrantError, GrantTable
from .sched import (
    CREDIT_REFILL,
    SOFTIRQ_DRAIN_LIMIT,
    CreditScheduler,
    SoftirqStorm,
    VCpu,
)
from .hypervisor import (
    HYP_STACK_BASE,
    HYP_STACK_PAGES,
    HYP_UPCALL_STACK_BASE,
    TWIN_LAYOUTS,
    Hypervisor,
)

__all__ = [
    "CREDIT_REFILL",
    "CostModel",
    "CreditScheduler",
    "Domain",
    "GrantDoubleUnmap",
    "GrantEntry",
    "GrantError",
    "GrantTable",
    "HYP_STACK_BASE",
    "HYP_STACK_PAGES",
    "HYP_UPCALL_STACK_BASE",
    "Hypervisor",
    "MULTI_NIC_EFFICIENCY",
    "OVERLOAD_EFFICIENCY",
    "REQRESP_PACKET_FACTOR",
    "SOFTIRQ_DRAIN_LIMIT",
    "SoftirqStorm",
    "SUPPORT_ROUTINE_COSTS",
    "TWIN_LAYOUTS",
    "VCpu",
    "VIRT_APP_FACTOR",
]
