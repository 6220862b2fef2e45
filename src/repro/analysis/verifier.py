"""Static verification of rewritten driver binaries.

Seven passes over a rewritten :class:`~repro.isa.program.Program`, in the
spirit of the eBPF verifier — the hypervisor proves the binary safe to run
instead of trusting the rewriter that produced it:

* **svm** — SVM completeness: every memory access is stack-relative with a
  constant offset, targets an ``__svm_*`` runtime slot under the read/write
  policy, is the translated output of a recognized fast-path / stack-check
  sequence, or goes through a pointer the value tracking
  (:mod:`repro.analysis.absint`) holds as a translation result (an ``X``
  value): a string op's pointer registers must each hold one unwalked,
  a ``rep`` op's count ``%ecx`` must cover at most one page of elements,
  and any other access through one is left to the range pass.
* **flow** — control-flow containment: direct branches stay inside the
  program, indirect calls/jumps are routed through ``__stlb_call_xlate``,
  and no label lets execution enter the middle of an instrumentation
  sequence (which would bypass the check that makes it safe).
* **stack** — abstract interpretation of the stack pointer per function:
  push/pop balance at every ``ret``, agreeing depths at joins, a bounded
  frame, no untracked writes to ``esp``, and (with ``protect_stack``) no
  stores that leak the stack pointer into driver-reachable memory.
* **clobber** — the rewriter's liveness analysis
  (:class:`~repro.isa.liveness.LivenessAnalysis`, condition codes
  included), re-run on the *rewritten* binary, cross-checks the
  rewriter's scratch-register and ``pushf`` choices: a scratch register
  the sequence does not restore must be dead afterwards, and the
  condition codes must not be live across an unwrapped sequence.
* **range** — value-tracking abstract interpretation
  (:mod:`repro.analysis.absint`): proves per-site that a translated
  pointer's constant-offset accesses stay inside their 2-page SVM pair
  mapping (emitting elision :class:`~repro.analysis.absint.ProofAnnotation`
  records on the report), and flags translated-pointer walks that can
  leave the window.
* **provenance** — hostile flows the pattern matcher cannot see:
  translated pointers laundered into guest-reachable memory, arithmetic
  that forges dom0 addresses, translation results fed back through the
  translation machinery.
* **locks** — lockset/reentrancy discipline as SMP groundwork:
  acquire/release balance on every control-flow path, checked trylock
  results, and no may-block support call while a spinlock is held. (The
  bounded SVM helpers are exempt — the slow path runs under driver locks
  by construction; "blocking" means the routines that can sleep or
  re-enter the scheduler.)

The verifier never executes the binary and never raises on violations; it
returns a :class:`VerifyReport` whose findings carry precise instruction
indices. With ``annotations`` from :class:`~repro.core.rewriter.RewriteStats`
it additionally cross-checks each annotation against an independently
matched site ("annotated" mode); without them it runs exactly the same
safety passes on the bare binary ("hostile" mode).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.rewriter import (
    CALL_XLATE_SYMBOL,
    RET_SLOT_SYMBOL,
    STACK_FAULT_SYMBOL,
    STACK_HI_SYMBOL,
    STACK_LO_SYMBOL,
    STLB_SYMBOL,
    SiteAnnotation,
)
from ..isa.cfg import ControlFlowGraph
from ..isa.instructions import (
    STRING_IMPLICIT_READS,
    STRING_IMPLICIT_WRITES,
    Instruction,
)
from ..isa.liveness import FLAGS, LivenessAnalysis
from ..isa.operands import Imm, Label, Reg
from ..isa.program import Program
from .absint import (
    PAGE_SIZE,
    AbsintResult,
    analyze_program,
    provenance_pass,
    range_pass,
    translated_address,
)
from .patterns import (
    _SPILL_PREFIX,
    SvmSite,
    StackCheckSite,
    TranslatePoint,
    find_fastpath_sites,
    find_stack_check_sites,
    find_translate_points,
    is_routed_indirect,
    is_spill_restore,
    is_spill_save,
)
from .report import VerifyReport

#: Runtime data slots the driver may read but never write.
READ_ONLY_SLOTS = (RET_SLOT_SYMBOL, STACK_LO_SYMBOL, STACK_HI_SYMBOL)

#: Largest stack frame (bytes below function-entry esp) the verifier
#: accepts; the hypervisor's per-instance driver stack is small.
FRAME_LIMIT = 4096


def _direct_call_target(ins: Instruction) -> Optional[str]:
    if ins.is_call and not ins.indirect and ins.operands \
            and isinstance(ins.operands[0], Label):
        return ins.operands[0].name
    return None


def _function_entries(program: Program) -> List[Tuple[str, int]]:
    """Entry points for per-function analyses: exported symbols plus every
    defined direct call target."""
    n = len(program.instructions)
    entries: Dict[int, str] = {}
    for name in program.globals_:
        index = program.labels.get(name)
        if index is not None and index < n:
            entries.setdefault(index, name)
    for ins in program.instructions:
        target = _direct_call_target(ins)
        if target is not None:
            index = program.labels.get(target)
            if index is not None and index < n:
                entries.setdefault(index, target)
    return sorted(((name, index) for index, name in entries.items()),
                  key=lambda e: e[1])


# ---------------------------------------------------------------------------
# Pass 1: SVM completeness
# ---------------------------------------------------------------------------


def _sanctioned_indices(program: Program, sites: List[SvmSite],
                        stack_sites: List[StackCheckSite],
                        translate_points: Dict[int, TranslatePoint],
                        routed: Set[int]) -> Set[int]:
    """Instruction indices inside recognized instrumentation sequences —
    their accesses are what the sequences exist to perform."""
    sanctioned: Set[int] = set()
    for site in sites:
        sanctioned.update(range(site.start, site.end + 1))
        slow = program.labels[site.slow_label]
        sanctioned.update(range(slow, slow + 4))
    for site in stack_sites:
        sanctioned.update(range(site.start, site.end + 1))
        sanctioned.add(program.labels[site.fault_label])
    sanctioned.update(translate_points)
    sanctioned.update(routed)
    return sanctioned


def _unwalked_translation(value) -> bool:
    """Is the absint register ``value`` a translation result itself, not a
    pointer walked from one? String ops need this of their pointers: the
    range pass, which bounds walks, skips them. Code no entry reaches
    reads as top, so nothing in it is accepted."""
    return value[0] == "X" and value[2] == value[3] == 0


def _page_bounded(count, size: int) -> bool:
    """Is the absint value of a ``rep`` op's element count (%ecx) an
    interval that covers at most one page of elements? Each pointer
    being an unwalked translation into the first page of its 2-page pair
    mapping, the op then stays inside that mapping (the rewriter clamps
    every chunk's count to the bytes left in the page)."""
    return count[0] == "I" and count[2] * size <= PAGE_SIZE


def _svm_pass(program: Program, report: VerifyReport, protect_stack: bool,
              sites: List[SvmSite], stack_sites: List[StackCheckSite],
              translate_points: Dict[int, TranslatePoint],
              routed: Set[int], sanctioned: Set[int],
              absres: AbsintResult):
    stats = report.pass_stats("svm")
    stats["fast_path_sites"] = len(sites)
    stats["stack_check_sites"] = len(stack_sites)
    stats["translate_points"] = len(translate_points)
    stats["routed_indirects"] = len(routed)

    for i, ins in enumerate(program.instructions):
        if ins.is_string:
            needed = set(STRING_IMPLICIT_READS[ins.mnemonic])
            needed |= set(STRING_IMPLICIT_WRITES[ins.mnemonic])
            needed -= {"eax"}  # data register, not a pointer
            missing = sorted(r for r in needed if not _unwalked_translation(
                absres.reg_value(i, r)))
            if missing:
                report.add("svm", i,
                           f"string op {ins.format()!r} runs with "
                           f"untranslated pointer(s) "
                           f"{', '.join('%' + r for r in missing)}")
            count = absres.reg_value(i, "ecx")
            bounded = ins.prefix is None or _page_bounded(count, ins.size)
            if not bounded:
                limit = ("unbounded" if count[0] != "I"
                         else f"up to {count[2]} elements")
                report.add("svm", i,
                           f"string op {ins.format()!r} runs with count "
                           f"%ecx {limit}: more than "
                           f"{PAGE_SIZE // ins.size} can leave the SVM "
                           f"pair mapping",
                           key="svm.string_count")
            if not missing and bounded:
                stats["string_accesses"] = stats.get("string_accesses", 0) + 1
            continue
        if ins.memory_access_kind() is None or i in sanctioned:
            continue
        mem = ins.memory_operand()
        kind = ins.memory_access_kind()
        if mem.symbol is not None:
            if mem.base is not None or mem.index is not None:
                report.add("svm", i,
                           f"indexed access to runtime symbol "
                           f"{mem.symbol!r} outside an SVM sequence")
            elif mem.symbol.startswith(_SPILL_PREFIX):
                stats["spill_accesses"] = stats.get("spill_accesses", 0) + 1
            elif mem.symbol in READ_ONLY_SLOTS:
                if kind == "read":
                    stats["slot_reads"] = stats.get("slot_reads", 0) + 1
                else:
                    report.add("svm", i,
                               f"write to read-only runtime slot "
                               f"{mem.symbol!r}")
            elif mem.symbol == STLB_SYMBOL:
                report.add("svm", i,
                           "direct stlb access outside an SVM sequence")
            else:
                report.add("svm", i,
                           f"access to unknown symbol {mem.symbol!r} "
                           f"does not go through the stlb")
            continue
        if mem.is_stack_relative:
            if mem.index is None:
                stats["stack_constant_accesses"] = (
                    stats.get("stack_constant_accesses", 0) + 1)
            elif protect_stack:
                report.add("svm", i,
                           f"variable-offset stack access "
                           f"{mem.format()!r} lacks a bounds check")
            else:
                stats["stack_variable_accesses"] = (
                    stats.get("stack_variable_accesses", 0) + 1)
            continue
        if translated_address(absres, i, mem):
            # provably a translated pointer, possibly walked by an offset:
            # the range pass decides whether it can leave the SVM pair window
            stats["range_delegated"] = stats.get("range_delegated", 0) + 1
            continue
        report.add("svm", i,
                   f"memory access {ins.format()!r} does not go through "
                   f"the stlb")


# ---------------------------------------------------------------------------
# Pass 2: control-flow containment
# ---------------------------------------------------------------------------


def _flow_pass(program: Program, report: VerifyReport,
               sites: List[SvmSite], stack_sites: List[StackCheckSite],
               translate_points: Dict[int, TranslatePoint],
               routed: Set[int]):
    stats = report.pass_stats("flow")
    n = len(program.instructions)
    label_at: Dict[int, List[str]] = {}
    for name, index in program.labels.items():
        label_at.setdefault(index, []).append(name)

    for i, ins in enumerate(program.instructions):
        if ins.indirect:
            if i in routed:
                continue
            report.add("flow", i,
                       f"indirect {ins.mnemonic} not routed through "
                       f"{CALL_XLATE_SYMBOL}")
        elif ins.is_jump:
            op = ins.operands[0] if ins.operands else None
            target = program.labels.get(op.name) \
                if isinstance(op, Label) else None
            if target is None or target >= n:
                report.add("flow", i,
                           f"branch target "
                           f"{op.format() if op is not None else '?'} "
                           f"is outside the program")
            else:
                stats["direct_branches"] = stats.get("direct_branches", 0) + 1
        elif ins.is_call:
            target = _direct_call_target(ins)
            if target is None:
                report.add("flow", i, "call without a label target")
            elif target in program.labels:
                stats["internal_calls"] = stats.get("internal_calls", 0) + 1
            else:
                stats["imported_calls"] = stats.get("imported_calls", 0) + 1

    def check_no_entry(first: int, last: int, what: str,
                       allowed: Dict[int, str]):
        """No label may land in [first, last] except the allowed ones —
        a branch into the middle of ``what`` would bypass its check."""
        for index in range(first, last + 1):
            for name in label_at.get(index, ()):
                if allowed.get(index) == name:
                    continue
                report.add("flow", index,
                           f"label {name!r} lands inside {what}")

    for site in sites:
        check_no_entry(site.start + 1, site.end, "an SVM fast-path sequence",
                       {site.lea: site.retry_label})
        slow = program.labels[site.slow_label]
        check_no_entry(slow + 1, slow + 3, "an SVM slow-path block", {})
    for site in stack_sites:
        check_no_entry(site.start + 1, site.end,
                       "a stack bounds-check sequence", {})
    for point in translate_points.values():
        check_no_entry(point.index - 2, point.index,
                       "a translate helper sequence", {})
    for index in sorted(routed):
        check_no_entry(index - 2, index,
                       "an indirect-transfer routing sequence", {})


# ---------------------------------------------------------------------------
# Pass 3: stack discipline
# ---------------------------------------------------------------------------


def _esp_effect(ins: Instruction) -> Optional[int]:
    """Static esp delta (positive = stack grows) for the simple cases;
    None when the instruction needs bespoke handling."""
    if ins.mnemonic in ("push", "pushf"):
        return 4
    if ins.mnemonic in ("pop", "popf"):
        return -4
    return None


def _walk_function(program: Program, report: VerifyReport, name: str,
                   entry: int, protect_stack: bool) -> int:
    """Abstract-interpret one function: esp tracked as a byte delta below
    entry esp, ebp as either unknown or an esp snapshot. Returns the
    largest frame depth seen."""
    ins_list = program.instructions
    n = len(ins_list)
    seen: Dict[int, Tuple[int, Optional[int]]] = {}
    reported: Set[str] = set()
    max_depth = 0

    def complain(index: int, key: str, message: str):
        if key not in reported:
            reported.add(key)
            report.add("stack", index, f"{message} (function {name!r})")

    work: List[Tuple[int, int, Optional[int]]] = [(entry, 0, None)]
    while work:
        i, delta, ebp = work.pop()
        while True:
            if i >= n:
                complain(n - 1 if n else 0, "fall-off",
                         "execution falls off the end of the program")
                break
            if i in seen:
                prev_delta, prev_ebp = seen[i]
                if prev_delta != delta:
                    complain(i, f"join:{i}",
                             f"inconsistent stack depth at join "
                             f"({prev_delta} vs {delta} bytes)")
                break
            seen[i] = (delta, ebp)
            ins = ins_list[i]
            effect = _esp_effect(ins)
            if effect is not None:
                delta += effect
                if ins.mnemonic == "pop" and isinstance(ins.dst, Reg):
                    if ins.dst.parent == "esp":
                        complain(i, f"esp:{i}", "pop into esp loses tracking")
                        break
                    if ins.dst.parent == "ebp":
                        ebp = None
            elif ins.mnemonic == "mov" and isinstance(ins.dst, Reg):
                if ins.dst.parent == "esp":
                    if isinstance(ins.src, Reg) and ins.src.parent == "ebp" \
                            and ebp is not None:
                        delta = ebp
                    elif isinstance(ins.src, Reg) and ins.src.parent == "esp":
                        pass
                    else:
                        complain(i, f"esp:{i}",
                                 f"untracked write to esp: {ins.format()!r}")
                        break
                elif ins.dst.parent == "ebp":
                    ebp = delta if (isinstance(ins.src, Reg)
                                    and ins.src.parent == "esp") else None
            elif ins.mnemonic in ("add", "sub") and isinstance(ins.dst, Reg) \
                    and ins.dst.parent == "esp":
                if isinstance(ins.src, Imm) and ins.src.symbol is None:
                    delta += ins.src.value if ins.mnemonic == "sub" \
                        else -ins.src.value
                else:
                    complain(i, f"esp:{i}",
                             f"non-constant esp adjustment: {ins.format()!r}")
                    break
            elif "esp" in ins.registers_written() and not ins.is_call \
                    and not ins.is_return:
                complain(i, f"esp:{i}",
                         f"untracked write to esp: {ins.format()!r}")
                break
            elif ins.is_call:
                if _direct_call_target(ins) == STACK_FAULT_SYMBOL:
                    break  # noreturn: driver aborted
            elif ins.is_return:
                if delta != 0:
                    complain(i, f"ret:{i}",
                             f"unbalanced stack at ret "
                             f"({delta} bytes left on the frame)")
                break
            elif ins.mnemonic == "jmp":
                if ins.indirect:
                    break  # routed transfer; flow pass enforces routing
                target = program.labels.get(ins.operands[0].name)
                if target is None or target >= n:
                    break  # flow pass reports it
                i = target
                continue
            elif ins.is_conditional:
                target = program.labels.get(ins.operands[0].name)
                if target is not None and target < n:
                    work.append((target, delta, ebp))
            if delta < 0:
                complain(i, f"under:{i}",
                         f"stack underflow ({-delta} bytes above the frame)")
                break
            if delta > FRAME_LIMIT:
                complain(i, "frame",
                         f"frame exceeds the {FRAME_LIMIT}-byte bound")
                break
            max_depth = max(max_depth, delta)
            i += 1
    return max_depth


def _stack_pass(program: Program, report: VerifyReport, protect_stack: bool,
                entries: Sequence[Tuple[str, int]]):
    stats = report.pass_stats("stack")
    stats["functions"] = len(entries)
    max_depth = 0
    for name, entry in entries:
        max_depth = max(max_depth,
                        _walk_function(program, report, name, entry,
                                       protect_stack))
    stats["max_frame_bytes"] = max_depth

    if protect_stack:
        # A store of esp/ebp through a translated (driver-reachable)
        # pointer would leak the hypervisor stack location to the guest.
        for i, ins in enumerate(program.instructions):
            if ins.memory_access_kind() not in ("write", "rw"):
                continue
            mem = ins.memory_operand()
            if mem is None or mem.is_stack_relative:
                continue
            src = ins.operands[0]
            if isinstance(src, Reg) and src.parent in ("esp", "ebp"):
                report.add("stack", i,
                           f"stack pointer escapes to driver memory: "
                           f"{ins.format()!r}")


# ---------------------------------------------------------------------------
# Pass 4: clobber / flags safety
# ---------------------------------------------------------------------------


class _SpillTransparentLiveness(LivenessAnalysis):
    """Liveness on the rewritten binary with spill save/restore pairs
    modelled as transparent: ``mov %r, __svm_spillN`` does not *use* the
    value (it stashes it) and ``mov __svm_spillN, %r`` does not *define*
    it (it brings the same value back), so a register's liveness flows
    through the pair unchanged. Without this, a later site's spill-saves
    would make dead registers look live after an earlier site.

    Limitation: a slot restored into a *different* register than it was
    saved from is not tracked (the rewriter never does this; in hostile
    mode it can at worst hide a clobber diagnostic, never an isolation
    violation)."""

    def _gen_kill(self, index):
        ins = self.program.instructions[index]
        if is_spill_save(ins) or is_spill_restore(ins):
            return 0, 0
        return super()._gen_kill(index)


def _clobber_pass(program: Program, report: VerifyReport,
                  sites: List[SvmSite], stack_sites: List[StackCheckSite],
                  cfg: ControlFlowGraph):
    stats = report.pass_stats("clobber")
    liveness = _SpillTransparentLiveness(program, cfg)

    def check_site(regs, restored, access_index, end, flags_wrapped):
        access = program.instructions[access_index]
        clobbered = set(regs) - set(restored) - set(access.registers_written())
        leaked = sorted(clobbered & liveness.live_out[end])
        for reg in leaked:
            report.add("clobber", end,
                       f"scratch register %{reg} is live after the "
                       f"instrumentation sequence but is not restored")
        if not flags_wrapped and not access.writes_flags \
                and FLAGS in liveness.live_out[end]:
            report.add("clobber", end,
                       "condition codes are live across an unwrapped "
                       "instrumentation sequence")
        stats["sites_checked"] = stats.get("sites_checked", 0) + 1

    for site in sites:
        check_site(site.regs, site.restored, site.access, site.end,
                   site.flags_wrapped)
    for site in stack_sites:
        check_site((site.reg,), site.restored, site.access, site.end,
                   site.flags_wrapped)


# ---------------------------------------------------------------------------
# Pass 7: lock / reentrancy discipline
# ---------------------------------------------------------------------------

#: Support routines that may sleep, wait, or re-enter the scheduler —
#: never legal while a spinlock is held. The bounded SVM helpers and the
#: non-blocking netdev/DMA fast-path calls are deliberately absent: the
#: shipped drivers (like their Linux ancestors) complete tx work,
#: including the SVM slow path, under the ring lock.
BLOCKING_CALLS = frozenset((
    "msleep", "spin_lock_irqsave", "del_timer_sync", "request_irq",
    "kmalloc", "dma_alloc_coherent", "copy_from_user", "copy_to_user",
))

_TRYLOCK = "spin_trylock"
_UNLOCK = "spin_unlock_irqrestore"
_BLOCKING_ACQUIRE = "spin_lock_irqsave"


def _match_trylock_check(program: Program, call_index: int
                         ) -> Optional[Tuple[int, bool]]:
    """Match the canonical checked-trylock shape right after ``call
    spin_trylock``::

        addl $4, %esp
        testl %eax, %eax        (or cmpl $0, %eax)
        je/jz not_acquired      (or jne/jnz acquired)

    Returns ``(jcc_index, taken_edge_is_held)`` or ``None`` when the
    result is not checked in this recognizable form."""
    ins_list = program.instructions
    if call_index + 3 >= len(ins_list):
        return None
    cleanup = ins_list[call_index + 1]
    if not (cleanup.mnemonic == "add" and isinstance(cleanup.dst, Reg)
            and cleanup.dst.parent == "esp"
            and isinstance(cleanup.src, Imm) and cleanup.src.symbol is None
            and cleanup.src.value == 4):
        return None
    test = ins_list[call_index + 2]
    test_ok = (
        (test.mnemonic == "test" and len(test.operands) == 2
         and all(isinstance(op, Reg) and op.parent == "eax"
                 for op in test.operands))
        or (test.mnemonic == "cmp" and len(test.operands) == 2
            and isinstance(test.operands[0], Imm)
            and test.operands[0].symbol is None
            and test.operands[0].value == 0
            and isinstance(test.operands[1], Reg)
            and test.operands[1].parent == "eax"))
    if not test_ok:
        return None
    jcc = ins_list[call_index + 3]
    if not jcc.is_conditional or not isinstance(jcc.operands[0], Label):
        return None
    if jcc.mnemonic in ("je", "jz"):
        return call_index + 3, False    # taken: eax == 0, lock NOT acquired
    if jcc.mnemonic in ("jne", "jnz"):
        return call_index + 3, True
    return None


def _walk_locks(program: Program, report: VerifyReport, name: str,
                entry: int) -> int:
    """DFS one function with the held-lock set as abstract state (a tuple
    of acquire-site indices, most recent last). Returns the number of
    acquire sites walked."""
    ins_list = program.instructions
    n = len(ins_list)
    seen: Dict[int, Tuple[int, ...]] = {}
    reported: Set[str] = set()
    acquires = 0

    def complain(index: int, key: str, dedup: str, message: str):
        if dedup not in reported:
            reported.add(dedup)
            report.add("locks", index, f"{message} (function {name!r})",
                       key=key)

    work: List[Tuple[int, Tuple[int, ...]]] = [(entry, ())]
    while work:
        i, held = work.pop()
        while True:
            if i >= n:
                break                   # stack pass reports the fall-off
            if i in seen:
                if seen[i] != held:
                    complain(i, "locks.inconsistent", f"join:{i}",
                             f"inconsistent lockset at join "
                             f"({len(seen[i])} vs {len(held)} lock(s) held)")
                break
            seen[i] = held
            ins = ins_list[i]
            if ins.is_call:
                target = _direct_call_target(ins)
                if target == _TRYLOCK:
                    acquires += 1
                    match = _match_trylock_check(program, i)
                    if match is None:
                        complain(i, "locks.unchecked_trylock", f"try:{i}",
                                 "spin_trylock result is not checked "
                                 "before proceeding")
                        i += 1          # analyzed as not acquired
                        continue
                    jcc_index, taken_is_held = match
                    jcc = ins_list[jcc_index]
                    target_index = program.labels.get(jcc.operands[0].name)
                    # the cleanup/test/jcc triple belongs to the idiom;
                    # record it under the pre-branch lockset
                    for j in range(i + 1, jcc_index + 1):
                        seen.setdefault(j, held)
                    token = i
                    if target_index is not None and target_index < n:
                        work.append((target_index,
                                     held + (token,) if taken_is_held
                                     else held))
                    held = held if taken_is_held else held + (token,)
                    i = jcc_index + 1
                    continue
                if target == _UNLOCK:
                    if held:
                        held = held[:-1]
                    else:
                        complain(i, "locks.release_unheld", f"rel:{i}",
                                 f"{_UNLOCK} with no lock held")
                elif target == _BLOCKING_ACQUIRE:
                    acquires += 1
                    if held:
                        complain(i, "locks.blocking_call", f"blk:{i}",
                                 f"blocking acquire {target!r} while "
                                 f"{len(held)} spinlock(s) held")
                    held = held + (i,)
                elif target in BLOCKING_CALLS and held:
                    complain(i, "locks.blocking_call", f"blk:{i}",
                             f"call to may-block routine {target!r} while "
                             f"{len(held)} spinlock(s) held")
                elif target == STACK_FAULT_SYMBOL:
                    break               # noreturn: driver aborted
            elif ins.is_return:
                if held:
                    complain(i, "locks.held_at_return", f"ret:{i}",
                             f"{len(held)} spinlock(s) still held at ret")
                break
            elif ins.mnemonic == "jmp":
                if ins.indirect:
                    break               # routed transfer; flow pass enforces
                target_index = program.labels.get(ins.operands[0].name)
                if target_index is None or target_index >= n:
                    break               # flow pass reports it
                i = target_index
                continue
            elif ins.is_conditional:
                target_index = program.labels.get(ins.operands[0].name)
                if target_index is not None and target_index < n:
                    work.append((target_index, held))
            i += 1
    return acquires


def _locks_pass(program: Program, report: VerifyReport,
                entries: Sequence[Tuple[str, int]]):
    stats = report.pass_stats("locks")
    stats["functions"] = len(entries)
    acquires = 0
    for name, entry in entries:
        acquires += _walk_locks(program, report, name, entry)
    stats["acquires_walked"] = acquires


# ---------------------------------------------------------------------------
# Annotation cross-checking (annotated mode only)
# ---------------------------------------------------------------------------


def _annotation_pass(program: Program, report: VerifyReport,
                     annotations: Sequence[SiteAnnotation],
                     sites: List[SvmSite],
                     stack_sites: List[StackCheckSite],
                     translate_points: Dict[int, TranslatePoint],
                     routed: Set[int]):
    stats = report.pass_stats("annot")
    stats["annotations"] = len(annotations)
    fast_by_start = {site.start: site for site in sites}
    stack_by_start = {site.start: site for site in stack_sites}

    def mismatch(ann: SiteAnnotation, why: str):
        report.add("annot", ann.start,
                   f"{ann.kind} annotation for input instruction "
                   f"{ann.input_index} does not match the binary: {why}")

    for ann in annotations:
        if ann.kind == "memory":
            site = fast_by_start.get(ann.start)
            if site is None or site.end + 1 != ann.end:
                mismatch(ann, "no fast-path sequence at its range")
            elif set(site.regs) != set(ann.scratch):
                mismatch(ann, f"scratch registers differ "
                              f"({sorted(site.regs)} matched)")
            elif site.flags_wrapped != ann.flags_wrapped \
                    or set(site.spilled) != set(ann.spilled):
                mismatch(ann, "spill/flags wrapping differs")
        elif ann.kind == "stack_checked":
            site = stack_by_start.get(ann.start)
            if site is None or site.end + 1 != ann.end:
                mismatch(ann, "no bounds-check sequence at its range")
        elif ann.kind == "indirect":
            last = ann.end - 1
            if last not in routed:
                mismatch(ann, "final transfer is not routed")
            elif ann.scratch and fast_by_start.get(ann.start) is None:
                mismatch(ann, "no fast-path sequence for the pointer load")
        elif ann.kind in ("string_single", "string_loop"):
            has_translate = any(ann.start <= p < ann.end
                                for p in translate_points)
            has_string = any(program.instructions[i].is_string
                             for i in range(ann.start,
                                            min(ann.end,
                                                len(program.instructions))))
            if not has_translate or not has_string:
                mismatch(ann, "no translate helper or string op in range")
        else:
            mismatch(ann, f"unknown site kind {ann.kind!r}")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def verify_program(program: Program,
                   annotations: Optional[Sequence[SiteAnnotation]] = None,
                   protect_stack: bool = False,
                   name: Optional[str] = None) -> VerifyReport:
    """Statically verify a rewritten driver binary.

    ``annotations`` (from :class:`RewriteStats`) switches on annotated
    mode: the same safety passes run, plus a cross-check of every
    annotation against an independently matched sequence. Pass ``None``
    for hostile mode — the binary is verified with no rewriter metadata.
    """
    report = VerifyReport(
        program_name=name or program.name,
        mode="hostile" if annotations is None else "annotated",
        instructions=len(program.instructions),
    )
    sites = find_fastpath_sites(program)
    stack_sites = find_stack_check_sites(program)
    translate_points = find_translate_points(program)
    routed = {
        i for i, ins in enumerate(program.instructions)
        if ins.indirect and is_routed_indirect(program, i)
    }
    entries = _function_entries(program)
    sanctioned = _sanctioned_indices(program, sites, stack_sites,
                                     translate_points, routed)
    cfg = ControlFlowGraph(program)
    absres = analyze_program(program, sites=sites,
                             translate_points=translate_points,
                             entries=[index for _, index in entries],
                             cfg=cfg)

    _svm_pass(program, report, protect_stack, sites, stack_sites,
              translate_points, routed, sanctioned, absres)
    _flow_pass(program, report, sites, stack_sites, translate_points, routed)
    _stack_pass(program, report, protect_stack, entries)
    _clobber_pass(program, report, sites, stack_sites, cfg)
    range_pass(program, report, absres, sanctioned)
    provenance_pass(program, report, absres, sanctioned)
    _locks_pass(program, report, entries)
    if annotations is not None:
        _annotation_pass(program, report, annotations, sites, stack_sites,
                         translate_points, routed)
    report.proofs = list(absres.proofs)
    return report
