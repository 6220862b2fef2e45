"""Cycle accounting in the paper's four profile categories.

Figures 7 and 8 of the paper break per-packet CPU cost into four
categories: ``dom0`` (driver-domain / native kernel), ``domU`` (guest
kernel), ``Xen`` (hypervisor) and ``e1000`` (the driver itself). Every
cycle charged anywhere in the simulator lands in exactly one of these
buckets, so the profile benchmarks can print the same stacked bars.

Since the observability PR, :class:`CycleAccount` is a thin view over a
:class:`~repro.obs.metrics.MetricsRegistry`: each category is the
registry counter ``cycles.<category>`` and each free-form event is
``event.<name>``. A machine's account shares the machine-wide registry
(``machine.obs.registry``), so the figure 7/8 numbers and the trace
exporters read the same stream; a standalone ``CycleAccount()`` gets a
private registry and behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..obs.metrics import MetricsRegistry

#: The paper's profile categories (figure 7/8 legend order).
CATEGORIES = ("dom0", "domU", "Xen", "e1000")

#: Registry namespaces owned by the account.
CYCLES_PREFIX = "cycles."
EVENTS_PREFIX = "event."


class CycleAccount:
    """Accumulates cycles per category plus free-form event counters,
    backed by registry counters."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        # hot path: pre-resolved counter objects, one dict lookup + int add
        self._cycles = {
            c: self.registry.counter(CYCLES_PREFIX + c) for c in CATEGORIES
        }

    def charge(self, category: str, cycles: int):
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        try:
            self._cycles[category].value += cycles
        except KeyError:
            raise KeyError(f"unknown cycle category {category!r}") from None

    @property
    def shadowed(self) -> bool:
        """True unless ``charge`` resolves to this class's method bound
        to this account: a profiler, a fault-injection hook, a plain
        function or another account's bound ``charge`` stored on the
        instance all count. Code that adds charges up before charging
        them (the interpreter) must charge item by item while this
        holds, so the shadow sees every item."""
        charge = self.charge
        return (getattr(charge, "__self__", None) is not self
                or charge.__func__ is not CycleAccount.charge)

    def count(self, event: str, n: int = 1):
        self.registry.counter(EVENTS_PREFIX + event).value += n

    @property
    def cycles(self) -> Dict[str, int]:
        return {c: counter.value for c, counter in self._cycles.items()}

    @property
    def events(self) -> Dict[str, int]:
        plen = len(EVENTS_PREFIX)
        return {
            name[plen:]: value
            for name, value in self.registry.counters_snapshot(
                EVENTS_PREFIX).items()
            if value
        }

    @property
    def total(self) -> int:
        return (self._cycles["dom0"].value + self._cycles["domU"].value
                + self._cycles["Xen"].value + self._cycles["e1000"].value)

    def merged(self, other: "CycleAccount") -> "CycleAccount":
        out = CycleAccount()
        for c in CATEGORIES:
            out._cycles[c].value = self._cycles[c].value + other._cycles[c].value
        mine, theirs = self.events, other.events
        for k in set(mine) | set(theirs):
            out.count(k, mine.get(k, 0) + theirs.get(k, 0))
        return out

    def snapshot(self) -> Dict[str, int]:
        return self.cycles

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        return {c: self._cycles[c].value - snapshot.get(c, 0)
                for c in CATEGORIES}

    def reset(self):
        """Zero the account's namespaces (cycles + events) only; other
        counters in a shared registry are untouched."""
        self.registry.reset(CYCLES_PREFIX)
        self.registry.reset(EVENTS_PREFIX)

    def __repr__(self):  # pragma: no cover - debugging aid
        parts = ", ".join(f"{c}={v}" for c, v in self.cycles.items() if v)
        return f"CycleAccount({parts})"


@dataclass
class PacketProfile:
    """Per-packet cycle breakdown — one stacked bar of figure 7/8."""

    config: str
    direction: str                     # "tx" | "rx"
    packets: int
    cycles: Dict[str, int] = field(default_factory=dict)
    #: non-cycle registry counter movement over the measured batch
    #: (stlb misses, support calls, upcalls, ...), per packet batch.
    counters: Dict[str, int] = field(default_factory=dict)
    #: full cycle-attribution profile (``repro-profile/v1``) when the
    #: measurement ran with the profiler enabled; its per-category sums
    #: are asserted bit-equal to ``cycles`` at capture time.
    attribution: Optional[Dict] = None

    @property
    def per_packet(self) -> Dict[str, float]:
        if self.packets == 0:
            return {c: 0.0 for c in CATEGORIES}
        return {c: self.cycles.get(c, 0) / self.packets for c in CATEGORIES}

    @property
    def total_per_packet(self) -> float:
        return sum(self.per_packet.values())

    def format_row(self) -> str:
        pp = self.per_packet
        cells = "  ".join(f"{c}={pp[c]:8.0f}" for c in CATEGORIES)
        return (f"{self.config:12s} {self.direction:2s}  {cells}  "
                f"total={self.total_per_packet:8.0f}")


def format_profile_table(profiles: Iterable[PacketProfile],
                         title: str) -> str:
    lines = [title, "-" * len(title)]
    lines.extend(p.format_row() for p in profiles)
    return "\n".join(lines)
