"""Forward abstract interpretation over rewritten driver binaries.

An eBPF-verifier-style value-tracking analysis on top of the generic
:func:`repro.analysis.dataflow.solve_forward` worklist solver. Per
register it tracks one of four abstract values (encoded as plain tuples
— the analysis runs on every driver load, so allocation discipline
matters):

* ``("T",)`` — top: any 32-bit value.
* ``("I", lo, hi)`` — an unsigned interval, ``0 <= lo <= hi < 2**32``.
* ``("S", base, lo, hi)`` — a *symbolic* value: ``env(base) + d`` for
  some ``d`` in ``[lo, hi]``, where ``base`` names a definition point
  (``("def", index, reg)`` or ``("entry", index, reg)``) and ``env``
  binds each base to the concrete value the register held the last time
  that definition executed.
* ``("X", origin, lo, hi)`` — a *translated* pointer: the result of the
  stlb fast path (``origin = ("site", lea_index)``) or of the
  ``__svm_translate`` helper (``origin = ("xlate", index)``), plus a
  constant delta in ``[lo, hi]``. ``origin is None`` means "some
  translation result" (the join of two different origins) — provenance
  is retained, the specific mapping is not.

Soundness hinges on two rules:

* **Def-point sweep** — when definition point ``i`` re-executes it
  rebinds its base, so every *stale* occurrence of that base elsewhere
  in the state (another register, a spill slot, an availability fact)
  is demoted. Without this, loop-carried copies of an old iteration's
  value would be claimed equal to the new one.
* **Spill-slot transparency** — the rewriter's ``__svm_spillN``
  save/restore traffic is tracked as state (a restore returns the saved
  abstract value; a first restore memoizes a fresh base into the slot),
  so a site whose base register was spilled does not lose its identity.
  Slots are killed at every call that is not a register-preserving SVM
  helper: an internal callee may spill over them.

On top of the fixpoint the module derives per-site **elision proofs**
(:class:`ProofAnnotation`): fast-path site ``S`` is elidable when some
earlier site ``A`` over the same symbolic base is *available* at ``S``'s
``lea`` — meaning every path from ``A``'s check to ``S`` re-executes
neither ``A``'s address definition nor any state-clobbering call — and
``S``'s constant address delta keeps the access inside ``A``'s 2-page
SVM pair mapping (``0 <= delta`` and ``delta + size <= PAGE_SIZE``, so
even a worst-case in-page offset of 4095 stays below the 8192-byte pair
bound). The loader may then replace ``S``'s ten-instruction check with a
single load of ``A``'s saved translation (see
:func:`repro.core.rewriter.apply_elision`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.rewriter import (
    CALL_XLATE_SYMBOL,
    SLOW_PATH_SYMBOL,
    STACK_FAULT_SYMBOL,
    TRANSLATE_SYMBOL,
)
from ..isa.cfg import ControlFlowGraph
from ..isa.instructions import Instruction
from ..isa.operands import Imm, Label, Mem, Reg
from ..isa.program import Program
from ..isa.registers import GPRS
from .dataflow import solve_forward
from .patterns import (
    _SPILL_PREFIX,
    SvmSite,
    TranslatePoint,
    find_fastpath_sites,
    find_translate_points,
    is_spill_restore,
    is_spill_save,
)

PAGE_SIZE = 4096

M32 = 0xFFFFFFFF
_U32 = 1 << 32
_OFF_MIN = -(1 << 31)
_OFF_MAX = (1 << 31) - 1

TOP = ("T",)

_RI = {name: i for i, name in enumerate(GPRS)}
_NREGS = len(GPRS)

#: The toy ABI's callee-saved registers. The value tracking models
#: internal calls as preserving these (a call redefines only eax, ecx and
#: edx), as the rewriter's liveness analysis does; register-keyed
#: availability facts inherit the same contract, additionally guarded by
#: a per-callee summary of which fast-path sites the callee can
#: transitively re-execute (re-executing the anchor site rebinds its
#: stored translation).
_CALLEE_SAVED = frozenset(("ebx", "esi", "edi", "ebp"))

#: runtime helpers that preserve all registers, spill slots, and every
#: installed SVM mapping (the slow path and translate helpers only ever
#: *add* mappings; eviction of an stlb entry does not unmap its pair)
_KEEP_CALLS = frozenset(
    (SLOW_PATH_SYMBOL, TRANSLATE_SYMBOL, CALL_XLATE_SYMBOL,
     STACK_FAULT_SYMBOL)
)

#: Imported support natives audited against the three ways a call can
#: invalidate availability facts or tracked spill slots: they do not
#: write the driver's runtime-data slots (those live in hypervisor data
#: pages no dom0 or guest mapping they operate through can reach), they
#: never unmap an SVM page pair (mappings are only ever added; stlb
#: *entry* eviction leaves the pair mapped), and they never synchronously
#: re-enter the driver binary (IRQ handlers and timers fire later, on a
#: clean stack). A call to one of these therefore only clobbers the ABI
#: scratch registers. ``memcpy_support``/``memset_support`` are excluded:
#: they write caller-chosen destinations. The audit applies to the
#: *import* — a binary that defines a label with one of these names gets
#: the pessimistic treatment for calls to it.
AUDITED_IMPORTS = frozenset((
    "netdev_alloc_skb", "dev_kfree_skb_any", "netif_rx",
    "dma_map_single", "dma_map_page", "dma_unmap_single", "dma_unmap_page",
    "spin_trylock", "spin_unlock_irqrestore", "eth_type_trans",
    "kmalloc", "kfree", "dma_alloc_coherent", "dma_free_coherent",
    "alloc_etherdev", "register_netdev", "unregister_netdev", "free_netdev",
    "netif_start_queue", "netif_stop_queue", "netif_wake_queue",
    "netif_queue_stopped", "netif_carrier_on", "netif_carrier_off",
    "ioremap", "iounmap",
    "pci_enable_device", "pci_disable_device", "pci_set_master",
    "pci_request_regions", "pci_release_regions",
    "request_irq", "free_irq",
    "spin_lock_init", "spin_lock_irqsave",
    "init_timer", "mod_timer", "del_timer_sync", "msleep", "udelay",
    "skb_reserve", "skb_put", "skb_headroom", "printk",
    "mii_check_link", "ethtool_op_get_link", "capable",
    "copy_from_user", "copy_to_user",
))


def _signed32(value: int) -> int:
    value &= M32
    return value if value < (1 << 31) else value - _U32


# ---------------------------------------------------------------------------
# value lattice
# ---------------------------------------------------------------------------


def join_value(a, b):
    """Least upper bound of two abstract values."""
    if a == b:
        return a
    ka, kb = a[0], b[0]
    if ka == "T" or kb == "T":
        return TOP
    if ka == "I" and kb == "I":
        return ("I", min(a[1], b[1]), max(a[2], b[2]))
    if ka == "S" and kb == "S" and a[1] == b[1]:
        return ("S", a[1], min(a[2], b[2]), max(a[3], b[3]))
    if ka == "X" and kb == "X":
        origin = a[1] if a[1] == b[1] else None
        return ("X", origin, min(a[2], b[2]), max(a[3], b[3]))
    return TOP


def widen_value(old, new):
    """Widening: keep the kind and base, give up on the bounds."""
    joined = join_value(old, new)
    kind = joined[0]
    if kind == "I":
        return TOP
    if kind in ("S", "X"):
        return (kind, joined[1], _OFF_MIN, _OFF_MAX)
    return joined


def value_shift(value, lo: int, hi: int):
    """Add a constant range [lo, hi] to an abstract value."""
    kind = value[0]
    if kind == "I":
        nl, nh = value[1] + lo, value[2] + hi
        if nl < 0 or nh > M32:
            return TOP
        return ("I", nl, nh)
    if kind in ("S", "X"):
        nl, nh = value[2] + lo, value[3] + hi
        if nl < _OFF_MIN or nh > _OFF_MAX:
            return (kind, value[1], _OFF_MIN, _OFF_MAX)
        return (kind, value[1], nl, nh)
    return TOP


def value_contains(value, concrete: int, env: Dict) -> bool:
    """Does ``value`` contain the concrete 32-bit ``concrete`` under the
    base environment ``env``? (The soundness property the test suite
    checks against real executions.)"""
    concrete &= M32
    kind = value[0]
    if kind == "T":
        return True
    if kind == "I":
        return value[1] <= concrete <= value[2]
    if kind in ("S", "X"):
        if value[1] not in env:
            return True     # base never bound on this execution: vacuous
        delta = _signed32(concrete - env[value[1]])
        return value[2] <= delta <= value[3]
    return False


# ---------------------------------------------------------------------------
# state: (regs 8-tuple, availability facts, spill-slot contents)
# ---------------------------------------------------------------------------

_EMPTY_AVAIL = frozenset()


def entry_state(entry_index: int):
    regs = tuple(("S", ("entry", entry_index, name), 0, 0) for name in GPRS)
    return (regs, _EMPTY_AVAIL, ())


def join_state(a, b):
    if a == b:
        return a
    regs = tuple(join_value(x, y) for x, y in zip(a[0], b[0]))
    avail = a[1] & b[1]
    if a[2] == b[2]:
        slots = a[2]
    else:
        bs = dict(b[2])
        merged = []
        for key, value in a[2]:
            other = bs.get(key)
            if other is None:
                continue
            joined = join_value(value, other)
            if joined != TOP:
                merged.append((key, joined))
        slots = tuple(merged)
    return (regs, avail, slots)


def widen_state(old, new):
    regs = tuple(widen_value(x, y) for x, y in zip(old[0], new[0]))
    avail = old[1] & new[1]
    ns = dict(new[2])
    slots = []
    for key, value in old[2]:
        other = ns.get(key)
        if other is None:
            continue
        widened = widen_value(value, other)
        if widened != TOP:
            slots.append((key, widened))
    return (regs, avail, tuple(slots))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofAnnotation:
    """Site ``site_lea`` is statically proven to access memory inside the
    2-page SVM pair mapping installed by anchor site ``anchor_lea``; the
    loader may replace its stlb re-check with ``anchor + delta``."""

    site_lea: int       # lea index of the proven (elidable) site
    access: int         # index of its translated access
    anchor_lea: int     # lea index of the anchor site (stays materialized)
    delta: int          # constant byte offset from the anchor's address
    size: int           # access width in bytes
    #: optional scaled-index component: when set, the proven address is
    #: ``anchor + delta + index*scale`` with the index register's interval
    #: already folded into the in-pair bound, and the elided access keeps
    #: the index in its addressing mode
    index: Optional[str] = None
    scale: int = 1


@dataclass
class AbsintResult:
    """Fixpoint states plus everything the new verifier passes consume."""

    in_states: List                         # per-instruction state or None
    sites: List[SvmSite]
    translate_points: Dict[int, TranslatePoint]
    proofs: List[ProofAnnotation] = field(default_factory=list)
    #: sites whose in-bounds proof exists, before anchor-conflict
    #: resolution (the coverage metric); superset of {p.site_lea}
    proven_leas: Set[int] = field(default_factory=set)
    #: True when an unroutable control-flow construct (an indirect jmp)
    #: forced the analysis to renounce all proofs
    proofs_suppressed: bool = False

    def reg_value(self, index: int, reg: str):
        state = self.in_states[index]
        if state is None:
            return TOP
        return state[0][_RI[reg]]


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------


class _Analyzer:
    def __init__(self, program: Program, sites: Sequence[SvmSite],
                 translate_points: Dict[int, TranslatePoint],
                 cfg: Optional[ControlFlowGraph] = None):
        self.program = program
        self.sites = list(sites)
        self.translate_points = translate_points
        self.cfg = cfg or ControlFlowGraph(program)
        self.site_by_lea = {site.lea: site for site in self.sites}
        self.site_by_xor = {site.lea + 8: site for site in self.sites}
        self.label_at = frozenset(program.labels.values())
        self.call_reach = self._call_summaries()
        self.ops = [self._classify(i, ins)
                    for i, ins in enumerate(program.instructions)]
        self.fact_kills = self._fact_kills()

    # -- call summaries -----------------------------------------------------

    def _call_summaries(self):
        """Per internal callee entry: the set of fast-path site leas the
        call can transitively re-execute (re-executing an anchor rebinds
        its stored translation), or ``None`` when an indirect call inside
        the callee makes the set unbounded."""
        program, cfg = self.program, self.cfg
        n = len(program.instructions)
        entries = set()
        for ins in program.instructions:
            if ins.is_call and not ins.indirect and ins.operands \
                    and isinstance(ins.operands[0], Label):
                name = ins.operands[0].name
                if name in _KEEP_CALLS:
                    continue
                target = program.labels.get(name)
                if target is not None and target < n:
                    entries.add(target)
        info = {}
        for e in entries:
            leas, callees, poisoned = set(), set(), False
            for start in cfg.reachable_from([e]):
                block = cfg.blocks[start]
                for i in range(block.start, block.end):
                    ins = program.instructions[i]
                    if i in self.site_by_lea:
                        leas.add(i)
                    if ins.is_call:
                        if ins.indirect:
                            poisoned = True
                        elif ins.operands \
                                and isinstance(ins.operands[0], Label):
                            name = ins.operands[0].name
                            if name not in _KEEP_CALLS:
                                t = program.labels.get(name)
                                if t is not None and t < n:
                                    callees.add(t)
            info[e] = [leas, callees, poisoned]
        changed = True
        while changed:
            changed = False
            for rec in info.values():
                for callee in rec[1]:
                    crec = info[callee]
                    if crec[2] and not rec[2]:
                        rec[2] = True
                        changed = True
                    if not crec[0] <= rec[0]:
                        rec[0] |= crec[0]
                        changed = True
        return {e: (None if rec[2] else frozenset(rec[0]))
                for e, rec in info.items()}

    def _fact_kills(self):
        """Per instruction: the register-keyed availability facts its
        register writes retire ("nop" ops, KEEP calls included, retire
        none), one frozenset shared by every instruction that writes the
        same registers. They are drawn from every register-keyed fact the
        transfer can generate: each site's own (``site_lea``), and the
        copies of its unindexed ones that a spill restore can carry into
        any register it restores (``spill_load``)."""
        site_facts = [op[4] for op in self.ops
                      if op[0] == "site_lea" and op[4] is not None]
        restored = {GPRS[op[2]] for op in self.ops if op[0] == "spill_load"}
        on: Dict[str, Set] = {reg: set() for reg in GPRS}
        for fact in site_facts:
            lea, key, disp = fact
            on[key[1]].add(fact)
            if key[2] is not None:
                on[key[2]].add(fact)
            else:
                for reg in restored:
                    on[reg].add((lea, ("reg", reg, None, 1), disp))
        by_written: Dict[frozenset, frozenset] = {}
        kills = []
        for op, ins in zip(self.ops, self.program.instructions):
            written = frozenset() if op[0] == "nop" \
                else ins.registers_written()
            facts = by_written.get(written)
            if facts is None:
                facts = by_written[written] = frozenset().union(
                    *(on[reg] for reg in written))
            kills.append(facts)
        return kills

    # -- static per-instruction classification ------------------------------

    def _classify(self, i: int, ins: Instruction):
        m = ins.mnemonic
        site = self.site_by_lea.get(i)
        if site is not None:
            mem, dest = ins.operands
            reg_fact = None
            if mem.symbol is None and mem.base is not None \
                    and mem.base != dest.parent \
                    and (mem.index is None or mem.index != dest.parent):
                # register-keyed fact: checked address = current(base)
                # [+ current(index)*scale] + disp (sound even when the
                # registers' abstract values are unknown)
                reg_fact = (site.lea,
                            ("reg", mem.base, mem.index,
                             mem.scale if mem.index is not None else 1),
                            _signed32(mem.disp))
            return ("site_lea", site, _RI[dest.parent], mem, reg_fact)
        xsite = self.site_by_xor.get(i)
        if xsite is not None:
            return ("site_xor", xsite, _RI[ins.operands[1].parent])
        point = self.translate_points.get(i)
        if point is not None:
            return ("xlate", _RI[point.dest])

        # hostile writes into spill-slot memory that are not the
        # rewriter's save idiom invalidate the tracked contents
        if ins.memory_access_kind() in ("write", "rw") and not is_spill_save(ins):
            mem = ins.memory_operand()
            if mem is not None and mem.symbol is not None \
                    and mem.symbol.startswith(_SPILL_PREFIX):
                key = mem.symbol if mem.base is None and mem.index is None \
                    else None
                return ("spill_clobber", key,
                        tuple(_RI[r] for r in ins.registers_written()))

        if is_spill_save(ins):
            return ("spill_save", _RI[ins.operands[0].parent],
                    ins.operands[1].symbol)
        if is_spill_restore(ins):
            return ("spill_load", ins.operands[0].symbol,
                    _RI[ins.operands[1].parent])

        if ins.is_call:
            target = None
            if not ins.indirect and ins.operands \
                    and isinstance(ins.operands[0], Label):
                target = ins.operands[0].name
            if target in _KEEP_CALLS:
                return ("nop",)
            internal = target is not None and target in self.program.labels
            if target in AUDITED_IMPORTS and not internal:
                return ("call_audited", i)
            if ins.indirect or target is None:
                reached = None          # control may land anywhere
            elif internal:
                reached = self.call_reach.get(self.program.labels[target])
            else:
                # non-audited import (memcpy_support and friends): runs no
                # driver code, so no anchor can be re-executed, but it may
                # write slots or arbitrary caller-chosen memory
                reached = _EMPTY_AVAIL
            return ("call", i, reached)
        if m == "ret":
            return ("esp_shift", 4, i)
        if m in ("push", "pushf"):
            return ("esp_shift", -4, i)
        if m == "popf":
            return ("esp_shift", 4, i)
        if m == "pop":
            dst = ins.dst
            if isinstance(dst, Reg):
                return ("pop", _RI[dst.parent], i)
            return ("esp_shift", 4, i)

        if m == "lea":
            return ("lea", ins.operands[0], _RI[ins.operands[1].parent])

        if m == "mov":
            src, dst = ins.operands
            if isinstance(dst, Reg):
                if ins.size < 4:
                    return ("fresh", (_RI[dst.parent],))
                if isinstance(src, Reg):
                    kind = "clamp" if self._is_clamp(i, ins) else "mov_rr"
                    return (kind, _RI[src.parent], _RI[dst.parent])
                if isinstance(src, Imm) and src.symbol is None:
                    return ("mov_iv", ("I", src.value & M32, src.value & M32),
                            _RI[dst.parent])
                return ("fresh", (_RI[dst.parent],))
            return ("nop",)
        if m in ("movzb", "movzw"):
            if isinstance(ins.dst, Reg):
                bound = 0xFF if m == "movzb" else 0xFFFF
                return ("mov_iv", ("I", 0, bound), _RI[ins.dst.parent])
            return ("nop",)

        if m in ("add", "sub", "inc", "dec"):
            dst = ins.dst
            if not isinstance(dst, Reg):
                return ("nop",)
            d = _RI[dst.parent]
            if m in ("inc", "dec"):
                return ("shift", d, 1 if m == "inc" else -1)
            src = ins.src
            if isinstance(src, Imm) and src.symbol is None:
                sv = _signed32(src.value)
                return ("shift", d, sv if m == "add" else -sv)
            if isinstance(src, Reg):
                return ("addsub_rr", _RI[src.parent], d,
                        1 if m == "add" else -1)
            return ("fresh", (d,))
        if m == "and":
            dst = ins.dst
            if isinstance(dst, Reg):
                src = ins.src
                if isinstance(src, Imm) and src.symbol is None:
                    return ("mov_iv", ("I", 0, src.value & M32),
                            _RI[dst.parent])
                return ("fresh", (_RI[dst.parent],))
            return ("nop",)
        if m == "xor":
            src, dst = ins.src, ins.dst
            if isinstance(dst, Reg):
                if isinstance(src, Reg) and src.parent == dst.parent \
                        and ins.size == 4:
                    return ("mov_iv", ("I", 0, 0), _RI[dst.parent])
                return ("fresh", (_RI[dst.parent],))
            return ("nop",)
        if m in ("shl", "shr", "sar"):
            dst = ins.dst
            if isinstance(dst, Reg):
                src = ins.src
                if m != "sar" and isinstance(src, Imm) and src.symbol is None \
                        and 0 <= src.value < 32:
                    return ("shiftop", m, src.value, _RI[dst.parent])
                return ("fresh", (_RI[dst.parent],))
            return ("nop",)
        if m == "xchg":
            ops = ins.operands
            if len(ops) == 2 and isinstance(ops[0], Reg) \
                    and isinstance(ops[1], Reg) and ins.size == 4:
                return ("xchg", _RI[ops[0].parent], _RI[ops[1].parent])
            written = tuple(_RI[r] for r in ins.registers_written())
            return ("fresh", written) if written else ("nop",)

        written = tuple(_RI[r] for r in ins.registers_written())
        if written:
            return ("fresh", written)
        return ("nop",)

    def _is_clamp(self, i: int, ins: Instruction) -> bool:
        """Is the ``movl %s, %r`` at ``i`` the tail of the unsigned-min
        clamp ``cmpl %s, %r; jbe L; movl %s, %r; L:`` (the rewriter's
        chunk-count clamp), with no label on the ``jbe`` or the ``mov``
        that would let control reach the ``mov`` without the compare?"""
        if i < 2 or i - 1 in self.label_at or i in self.label_at:
            return False
        cmp, jbe = self.program.instructions[i - 2:i]
        src, dst = ins.operands
        return (cmp.mnemonic == "cmp" and cmp.size == 4
                and cmp.operands == ins.operands
                and src.name == src.parent and dst.name == dst.parent
                and src.parent != dst.parent
                and jbe.mnemonic == "jbe"
                and isinstance(jbe.operands[0], Label)
                and self.program.labels.get(jbe.operands[0].name) == i + 1)

    # -- transfer helpers ---------------------------------------------------

    def _fresh(self, i: int, state, targets):
        """Redefine ``targets`` with fresh def-point bases, sweeping every
        stale occurrence of those bases out of the rest of the state."""
        regs, avail, slots = state
        bases = frozenset(("def", i, GPRS[t]) for t in targets)
        regs = list(regs)
        for j in range(_NREGS):
            v = regs[j]
            if v[0] in ("S", "X") and v[1] in bases:
                regs[j] = TOP
        for t in targets:
            regs[t] = ("S", ("def", i, GPRS[t]), 0, 0)
        if slots and any(v[0] in ("S", "X") and v[1] in bases
                         for _, v in slots):
            slots = tuple((k, v) for k, v in slots
                          if not (v[0] in ("S", "X") and v[1] in bases))
        if avail and any(f[1] in bases for f in avail):
            avail = frozenset(f for f in avail if f[1] not in bases)
        return (tuple(regs), avail, slots)

    @staticmethod
    def _sweep_origin(regs, slots, origin):
        """Demote stale copies of translated-pointer ``origin`` before it
        is rebound by a re-executing site xor / translate point."""
        if any(v[0] == "X" and v[1] == origin for v in regs):
            regs = [TOP if (v[0] == "X" and v[1] == origin) else v
                    for v in regs]
        if slots and any(v[0] == "X" and v[1] == origin for _, v in slots):
            slots = tuple((k, v) for k, v in slots
                          if not (v[0] == "X" and v[1] == origin))
        return regs, slots

    def eval_mem(self, regs, mem: Mem):
        """Abstract value of a memory operand's effective address."""
        if mem.symbol is not None:
            # a bare symbol reference is a link-time constant: a perfectly
            # good (never-rebound) symbolic base for anchoring
            if mem.base is None and mem.index is None:
                disp = _signed32(mem.disp)
                return ("S", ("sym", mem.symbol), disp, disp)
            return TOP
        if mem.base is not None:
            value = regs[_RI[mem.base]]
        else:
            value = ("I", 0, 0)
        disp = _signed32(mem.disp)
        if disp:
            value = value_shift(value, disp, disp)
        if mem.index is not None:
            iv = regs[_RI[mem.index]]
            if iv[0] != "I":
                return TOP
            value = value_shift(value, iv[1] * mem.scale, iv[2] * mem.scale)
        return value

    def addr_parts(self, regs, mem: Mem):
        """Decompose an effective address as ``env(base) + const +
        index*scale`` with an exactly-known constant part and the variable
        part carried by the operand's own index register (whose abstract
        value must be an interval). Returns ``(base, const, index, scale,
        ilo, ihi)`` or ``None``."""
        if mem.symbol is not None:
            if mem.base is None and mem.index is None:
                disp = _signed32(mem.disp)
                return (("sym", mem.symbol), disp, None, 1, 0, 0)
            return None
        if mem.base is None:
            return None
        bv = regs[_RI[mem.base]]
        if bv[0] != "S" or bv[2] != bv[3]:
            return None
        const = bv[2] + _signed32(mem.disp)
        if mem.index is None:
            return (bv[1], const, None, 1, 0, 0)
        iv = regs[_RI[mem.index]]
        if iv[0] != "I":
            return None
        return (bv[1], const, mem.index, mem.scale, iv[1], iv[2])

    # -- the transfer function ----------------------------------------------

    def transfer(self, i: int, state):
        op = self.ops[i]
        kind = op[0]
        if kind == "nop":
            return state
        regs, avail, slots = state

        # register-keyed facts assert "this register is unchanged since
        # site A's check": any write to the register retires them
        kills = self.fact_kills[i]
        if avail and kills and not avail.isdisjoint(kills):
            avail = avail - kills
            state = (regs, avail, slots)

        if kind == "mov_rr":
            value = regs[op[1]]
            if regs[op[2]] == value:
                return state
            regs = list(regs)
            regs[op[2]] = value
            return (tuple(regs), avail, slots)

        if kind == "clamp":
            # the mov runs only when the jbe fell through (%r > %s,
            # unsigned), so it lowers %r: an interval %r keeps its upper
            # bound, met with whatever interval the copy already has
            value, bound = regs[op[1]], regs[op[2]]
            if bound[0] == "I":
                hi = bound[2]
                if value[0] == "I" and value[1] <= hi:
                    value = ("I", value[1], min(value[2], hi))
                else:
                    value = ("I", 0, hi)
            regs = list(regs)
            regs[op[2]] = value
            return (tuple(regs), avail, slots)

        if kind == "mov_iv":
            if regs[op[2]] == op[1]:
                return state
            regs = list(regs)
            regs[op[2]] = op[1]
            return (tuple(regs), avail, slots)

        if kind == "shift":
            d = op[1]
            value = value_shift(regs[d], op[2], op[2])
            if value == TOP:
                return self._fresh(i, state, (d,))
            regs = list(regs)
            regs[d] = value
            return (tuple(regs), avail, slots)

        if kind == "fresh":
            return self._fresh(i, state, op[1])

        if kind == "site_lea":
            site, d, mem = op[1], op[2], op[3]
            addr = self.eval_mem(regs, mem)
            if avail and any(f[0] == site.lea for f in avail):
                avail = frozenset(f for f in avail if f[0] != site.lea)
            gen = []
            if addr[0] == "S" and addr[2] == addr[3]:
                gen.append((site.lea, addr[1], addr[2]))
            if op[4] is not None:
                gen.append(op[4])
            if gen:
                avail = avail | frozenset(gen)
            if addr == TOP:
                return self._fresh(i, (regs, avail, slots), (d,))
            regs = list(regs)
            regs[d] = addr
            return (tuple(regs), avail, slots)

        if kind == "lea":
            addr = self.eval_mem(regs, op[1])
            if addr == TOP:
                return self._fresh(i, state, (op[2],))
            regs = list(regs)
            regs[op[2]] = addr
            return (tuple(regs), avail, slots)

        if kind == "site_xor":
            site, r2 = op[1], op[2]
            origin = ("site", site.lea)
            regs, slots = self._sweep_origin(regs, slots, origin)
            regs = list(regs)
            regs[r2] = ("X", origin, 0, 0)
            return (tuple(regs), avail, slots)

        if kind == "xlate":
            origin = ("xlate", i)
            regs, slots = self._sweep_origin(regs, slots, origin)
            regs = list(regs)
            regs[op[1]] = ("X", origin, 0, 0)
            return (tuple(regs), avail, slots)

        if kind == "call":
            # Non-helper call: the toy ABI lets the callee clobber
            # eax/ecx/edx; it may also spill over the tracked slots and
            # rebind any definition point it contains, so slots and
            # base-keyed facts do not survive. Register-keyed facts on
            # callee-saved registers do — the same preservation contract
            # the value tracking already relies on — provided the callee
            # cannot transitively re-execute the fact's anchor site
            # (op[2] is the summary; None means unbounded).
            reached = op[2]
            if avail and reached is not None:
                avail = frozenset(
                    f for f in avail
                    if f[1][0] == "reg" and f[1][1] in _CALLEE_SAVED
                    and (f[1][2] is None or f[1][2] in _CALLEE_SAVED)
                    and f[0] not in reached)
            else:
                avail = _EMPTY_AVAIL
            state = (regs, avail, ())
            return self._fresh(op[1], state, (_RI["eax"], _RI["ecx"],
                                              _RI["edx"]))

        if kind == "call_audited":
            # audited imported native (see AUDITED_IMPORTS): ABI scratch
            # clobber only — facts and slots survive
            return self._fresh(op[1], state, (_RI["eax"], _RI["ecx"],
                                              _RI["edx"]))

        if kind == "esp_shift":
            esp = _RI["esp"]
            value = value_shift(regs[esp], op[1], op[1])
            if value == TOP:
                return self._fresh(op[2], state, (esp,))
            regs = list(regs)
            regs[esp] = value
            return (tuple(regs), avail, slots)

        if kind == "pop":
            d, pop_i = op[1], op[2]
            esp = _RI["esp"]
            if d == esp:
                return self._fresh(pop_i, state, (esp,))
            regs = list(regs)
            regs[esp] = value_shift(regs[esp], 4, 4)
            return self._fresh(pop_i, (tuple(regs), avail, slots), (d,))

        if kind == "addsub_rr":
            s, d, sign = op[1], op[2], op[3]
            sv, dv = regs[s], regs[d]
            if sv[0] == "I":
                lo, hi = ((sv[1], sv[2]) if sign > 0 else (-sv[2], -sv[1]))
                value = value_shift(dv, lo, hi)
            elif sign > 0 and dv[0] == "I":
                value = value_shift(sv, dv[1], dv[2])
            else:
                value = TOP
            if value == TOP:
                return self._fresh(i, state, (d,))
            regs = list(regs)
            regs[d] = value
            return (tuple(regs), avail, slots)

        if kind == "shiftop":
            m, amount, d = op[1], op[2], op[3]
            v = regs[d]
            if v[0] == "I":
                if m == "shr":
                    value = ("I", v[1] >> amount, v[2] >> amount)
                else:                                  # shl
                    lo, hi = v[1] << amount, v[2] << amount
                    value = ("I", lo, hi) if hi <= M32 else TOP
            else:
                value = TOP
            if value == TOP:
                return self._fresh(i, state, (d,))
            regs = list(regs)
            regs[d] = value
            return (tuple(regs), avail, slots)

        if kind == "spill_save":
            s, key = op[1], op[2]
            value = regs[s]
            new = tuple(sorted(
                [(k, v) for k, v in slots if k != key] + [(key, value)]))
            # register-keyed facts follow the value into the slot: the
            # fact's checked address is now reachable from the slot too
            if avail:
                src = GPRS[s]
                twins = frozenset(
                    (f[0], ("slot", key), f[2]) for f in avail
                    if f[1] == ("reg", src, None, 1))
                avail = frozenset(
                    f for f in avail if f[1] != ("slot", key)) | twins
            return (regs, avail, new)

        if kind == "spill_load":
            key, d = op[1], op[2]
            # a slot-keyed fact rides the restore back into the register
            # (the prologue above already retired the stale reg facts)
            if avail:
                twins = frozenset(
                    (f[0], ("reg", GPRS[d], None, 1), f[2]) for f in avail
                    if f[1] == ("slot", key))
                if twins:
                    avail = avail | twins
            for k, v in slots:
                if k == key:
                    if regs[d] == v and avail == state[1]:
                        return state
                    regs = list(regs)
                    regs[d] = v
                    return (tuple(regs), avail, slots)
            # first restore from an untracked slot: memoize a fresh base
            # so later restores of the same (unwritten) slot share it
            state = self._fresh(i, (regs, avail, slots), (d,))
            regs, avail, slots = state
            new = tuple(sorted(list(slots) + [(key, regs[d])]))
            return (regs, avail, new)

        if kind == "spill_clobber":
            key, written = op[1], op[2]
            if key is None:
                slots = ()
                if avail:
                    avail = frozenset(f for f in avail
                                      if f[1][0] != "slot")
            else:
                slots = tuple((k, v) for k, v in slots if k != key)
                if avail:
                    avail = frozenset(f for f in avail
                                      if f[1] != ("slot", key))
            state = (regs, avail, slots)
            return self._fresh(i, state, written) if written else state

        if kind == "xchg":
            a, b = op[1], op[2]
            regs = list(regs)
            regs[a], regs[b] = regs[b], regs[a]
            return (tuple(regs), avail, slots)

        raise AssertionError(f"unhandled op {op!r}")     # pragma: no cover


# ---------------------------------------------------------------------------
# analysis driver + proof derivation
# ---------------------------------------------------------------------------


def analyze_program(program: Program,
                    sites: Optional[Sequence[SvmSite]] = None,
                    translate_points: Optional[Dict[int, TranslatePoint]] = None,
                    entries: Optional[Sequence[int]] = None,
                    cfg: Optional[ControlFlowGraph] = None) -> AbsintResult:
    """Run the abstract interpretation and derive elision proofs.

    ``entries`` are entry instruction indices (exported symbols plus
    direct call targets, as in the verifier); each is seeded with a
    fully-symbolic register file.
    """
    if sites is None:
        sites = find_fastpath_sites(program)
    if translate_points is None:
        translate_points = find_translate_points(program)
    if entries is None:
        entries = [index for index in program.labels.values()
                   if index < len(program.instructions)]
    analyzer = _Analyzer(program, sites, translate_points, cfg=cfg)
    in_states = solve_forward(
        program,
        entries=entries,
        entry_state=entry_state,
        transfer=analyzer.transfer,
        join=join_state,
        widen=widen_state,
        cfg=analyzer.cfg,
    )
    result = AbsintResult(in_states=in_states, sites=list(sites),
                          translate_points=translate_points)

    # An indirect jmp makes the CFG's successor sets conservative in a way
    # the fact lattice cannot absorb (control may materialize at any label
    # with any history), so proofs are renounced wholesale. The rewriter
    # never emits one; hostile binaries simply get no elision.
    if any(ins.mnemonic == "jmp" and ins.indirect
           for ins in program.instructions):
        result.proofs_suppressed = True
        return result

    by_lea = {site.lea: site for site in sites}
    proofs: List[ProofAnnotation] = []
    for site in sorted(sites, key=lambda s: s.lea):
        state = in_states[site.lea]
        if state is None:
            continue
        regs, avail, _ = state
        mem = site.mem
        size = max(1, program.instructions[site.access].size)
        parts = analyzer.addr_parts(regs, mem)
        bare = mem.symbol is None and mem.base is not None
        idx_iv = None
        if bare and mem.index is not None:
            iv = regs[_RI[mem.index]]
            if iv[0] == "I":
                idx_iv = (iv[1], iv[2])
        # each candidate is (delta, span_lo, span_hi, index, scale): the
        # access address is anchor + delta [+ index*scale], and the whole
        # span [span_lo, span_hi] must fit the forward pair window
        best = None                       # (anchor_lea, delta, index, scale)
        for fact in avail:
            if fact[0] == site.lea or fact[0] not in by_lea:
                continue
            key = fact[1]
            if key[0] == "slot":
                continue
            if key[0] == "reg":
                if not bare or mem.base != key[1]:
                    continue
                delta = _signed32(mem.disp) - fact[2]
                if key[2] is not None:
                    # indexed fact: the index term cancels when the site
                    # uses the identical index expression
                    if mem.index != key[2] or mem.scale != key[3]:
                        continue
                    cand = (delta, delta, delta, None, 1)
                elif mem.index is None:
                    cand = (delta, delta, delta, None, 1)
                elif idx_iv is not None:
                    cand = (delta, delta + mem.scale * idx_iv[0],
                            delta + mem.scale * idx_iv[1],
                            mem.index, mem.scale)
                else:
                    continue
            else:
                if parts is None or key != parts[0]:
                    continue
                _, const, pidx, pscale, ilo, ihi = parts
                delta = const - fact[2]
                cand = (delta, delta + pscale * ilo, delta + pscale * ihi,
                        pidx, pscale)
            delta, lo, hi, pindex, pscale = cand
            if 0 <= lo and hi + size <= PAGE_SIZE:
                if best is None or fact[0] < best[0]:
                    best = (fact[0], delta, pindex, pscale)
        if best is not None:
            proofs.append(ProofAnnotation(
                site_lea=site.lea, access=site.access, anchor_lea=best[0],
                delta=best[1], size=size, index=best[2], scale=best[3]))
    result.proven_leas = {p.site_lea for p in proofs}

    # anchor-conflict resolution: a site used as an anchor must keep its
    # full fast path materialized (it is what stores the translation), so
    # its own elision proof is dropped; iterate to a fixpoint.
    while True:
        anchors = {p.anchor_lea for p in proofs}
        kept = [p for p in proofs if p.site_lea not in anchors]
        if len(kept) == len(proofs):
            break
        proofs = kept
    result.proofs = proofs
    return result


# ---------------------------------------------------------------------------
# the range and provenance passes
# ---------------------------------------------------------------------------


def _site_by_lea(result: AbsintResult) -> Dict[int, SvmSite]:
    cached = getattr(result, "_by_lea", None)
    if cached is None:
        cached = {site.lea: site for site in result.sites}
        result._by_lea = cached
    return cached


def translated_address(result: AbsintResult, index: int,
                       mem: Mem) -> bool:
    """True when the effective address of ``mem`` at ``index`` is provably
    a translated pointer (possibly offset). The svm pass delegates such
    accesses to the range pass instead of reporting a generic miss."""
    state = result.in_states[index]
    if state is None or mem.symbol is not None or mem.base is None:
        return False
    return _addr_value(result, state, mem)[0] == "X"


def range_pass(program: Program, report, result: AbsintResult,
               sanctioned: Set[int]):
    """Prove translated-pointer accesses stay inside their 2-page SVM
    pair mapping. Sanctioned fast-path accesses get elision proofs (the
    positive side); unsanctioned accesses whose address is a translated
    pointer walked by a constant offset are flagged when the offset can
    leave the pair window (the hostile side — the svm pass delegates
    these instead of reporting a generic miss)."""
    stats = report.pass_stats("range")
    stats["sites_total"] = len(result.sites)
    stats["sites_proven"] = len(result.proven_leas)
    stats["sites_elided"] = len(result.proofs)
    checked = 0
    for i, ins in enumerate(program.instructions):
        if i in sanctioned or ins.is_string:
            continue
        if ins.memory_access_kind() is None:
            continue
        mem = ins.memory_operand()
        if mem is None or mem.symbol is not None or mem.is_stack_relative:
            continue
        state = result.in_states[i]
        if state is None:
            continue
        addr = _addr_value(result, state, mem)
        if addr[0] != "X":
            continue
        checked += 1
        size = max(1, ins.size)
        lo, hi = addr[2], addr[3]
        if lo < 0:
            report.add("range", i,
                       f"translated-pointer access {ins.format()!r} may "
                       f"underflow its SVM mapping (offset as low as {lo})",
                       key="range.underflow")
        elif hi + size > PAGE_SIZE:
            report.add("range", i,
                       f"translated-pointer access {ins.format()!r} may "
                       f"cross its 2-page SVM mapping (offset up to "
                       f"{hi} + {size})",
                       key="range.cross_page")
    stats["translated_offset_accesses"] = checked


def _addr_value(result: AbsintResult, state, mem: Mem):
    regs = state[0]
    if mem.symbol is not None or mem.base is None:
        return TOP
    value = regs[_RI[mem.base]]
    disp = _signed32(mem.disp)
    if disp:
        value = value_shift(value, disp, disp)
    if mem.index is not None:
        iv = regs[_RI[mem.index]]
        if iv[0] != "I":
            return TOP
        value = value_shift(value, iv[1] * mem.scale, iv[2] * mem.scale)
    return value


# ---------------------------------------------------------------------------
# the provenance pass
# ---------------------------------------------------------------------------

def provenance_pass(program: Program, report, result: AbsintResult,
                    sanctioned: Set[int]):
    """Catch hostile flows the pattern matcher cannot see: translated
    pointers laundered into guest-visible memory, arithmetic that forges
    dom0 addresses from them, and translation results fed back through
    the translation machinery."""
    stats = report.pass_stats("provenance")
    flagged = 0

    def is_x(index: int, reg: str) -> bool:
        return result.reg_value(index, reg)[0] == "X"

    for i, ins in enumerate(program.instructions):
        state = result.in_states[i]
        if state is None:
            continue

        # -- leak: a translated (hypervisor) pointer stored to memory the
        # guest can read back. Stack and spill-slot stores stay private.
        if ins.memory_access_kind() in ("write", "rw") \
                and ins.mnemonic == "mov":
            mem = ins.memory_operand()
            src = ins.operands[0]
            if (mem is not None and mem is ins.dst
                    and not mem.is_stack_relative
                    and not (mem.symbol is not None
                             and mem.symbol.startswith(_SPILL_PREFIX))
                    and isinstance(src, Reg) and is_x(i, src.parent)):
                report.add("provenance", i,
                           f"translated pointer %{src.parent} leaks to "
                           f"driver-reachable memory: {ins.format()!r}",
                           key="provenance.leak")
                flagged += 1
                continue

        # -- forge: non-walk arithmetic on a translated pointer
        if ins.mnemonic in ("and", "or", "xor", "imul", "shl", "shr",
                            "sar", "neg", "not"):
            if i in sanctioned:
                continue
            touched = [r for r in ins.registers_read() | ins.registers_written()
                       if is_x(i, r)]
            if ins.mnemonic == "xor" and isinstance(ins.src, Reg) \
                    and isinstance(ins.dst, Reg) \
                    and ins.src.parent == ins.dst.parent:
                touched = []            # self-xor only clears the register
            if touched:
                report.add("provenance", i,
                           f"address-forging arithmetic on translated "
                           f"pointer %{touched[0]}: {ins.format()!r}",
                           key="provenance.forge")
                flagged += 1
                continue
        if ins.mnemonic in ("add", "sub") and isinstance(ins.dst, Reg) \
                and isinstance(ins.src, Reg):
            sx = is_x(i, ins.src.parent)
            dx = is_x(i, ins.dst.parent)
            if sx or dx:
                # the only benign forms walk a translated pointer by a
                # bounded interval; everything else (pointer-pointer
                # arithmetic, subtracting a translation, adding an
                # unbounded value) forges or reveals dom0 addresses
                other = ins.dst.parent if sx else ins.src.parent
                walk = (not (sx and dx)
                        and result.reg_value(i, other)[0] == "I"
                        and not (ins.mnemonic == "sub" and sx))
                if not walk:
                    report.add("provenance", i,
                               f"address-forging arithmetic on translated "
                               f"pointer: {ins.format()!r}",
                               key="provenance.forge")
                    flagged += 1
                    continue

        # -- retranslate: a translation result fed back through the stlb
        # machinery (a second mapping forged from a hypervisor address)
        point = result.translate_points.get(i)
        if point is not None:
            push_index = i - 3
            if push_index >= 0 and is_x(push_index, point.source):
                report.add("provenance", i,
                           f"already-translated pointer %{point.source} "
                           f"passed to {TRANSLATE_SYMBOL}",
                           key="provenance.retranslate")
                flagged += 1
                continue
        site = _site_by_lea(result).get(i)
        if site is not None:
            addr = _addr_value(result, state, site.mem) \
                if site.mem.symbol is None else TOP
            if addr[0] == "X":
                report.add("provenance", i,
                           "already-translated pointer fed back through "
                           "an stlb fast-path check",
                           key="provenance.retranslate")
                flagged += 1

    stats["flagged"] = flagged
