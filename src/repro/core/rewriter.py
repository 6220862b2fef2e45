"""The assembler-level rewriting tool (paper §5.1).

Takes the VM driver program and produces the hypervisor driver program:

* every non-stack memory reference is replaced by the 10-instruction SVM
  fast path of figure 4 (tag compare against the ``__stlb`` hash table,
  XOR translation), with a per-site slow-path block appended at the end of
  the program that calls ``__svm_slow_path`` and retries;
* scratch registers come from a liveness analysis (footnote 3); when no
  dead register is available the rewriter spills to ``__svm_spillN`` slots
  in hypervisor data;
* the same liveness analysis tracks the condition codes: if they are live
  across a rewritten instruction that does not itself set them, the
  translation sequence is wrapped in ``pushf``/``popf``;
* string instructions (§5.1.1) become loops that process page-bounded
  chunks, translating the source/destination pointer(s) each iteration
  (via the ``__svm_translate`` helper, which consults the same stlb) —
  including the early-exit flag semantics of ``repe``/``repne``;
* indirect calls and jumps (§5.1.2) are routed through
  ``__stlb_call_xlate``, which maps VM-driver code addresses to hypervisor
  driver addresses (a constant offset, because the same rewritten binary
  is used for both instances) and dom0 support-routine addresses to their
  hypervisor bindings.

The output program is a normal :class:`~repro.isa.program.Program`; run
over an *identity* stlb it behaves exactly like the input (that is how
the VM instance runs, and how the semantic-equivalence tests work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.liveness import FLAGS, LivenessAnalysis
from ..isa.operands import Imm, Label, Mem, Reg
from ..isa.program import Program
from ..isa.registers import ALLOCATABLE

#: Symbols the rewritten code references; the loaders resolve them
#: per-instance (hypervisor stlb vs dom0 identity stlb).
STLB_SYMBOL = "__stlb"
SLOW_PATH_SYMBOL = "__svm_slow_path"
TRANSLATE_SYMBOL = "__svm_translate"
CALL_XLATE_SYMBOL = "__stlb_call_xlate"
RET_SLOT_SYMBOL = "__svm_ret"
SPILL_SYMBOL = "__svm_spill{}"
N_SPILL_SLOTS = 4
#: §4.5.1 stack protection (optional): bounds of the driver stack and the
#: fault handler for variable-offset stack accesses.
STACK_LO_SYMBOL = "__svm_stack_lo"
STACK_HI_SYMBOL = "__svm_stack_hi"
STACK_FAULT_SYMBOL = "__svm_stack_fault"
#: Per-anchor translation slots for proof-based check elision (see
#: :func:`apply_elision`): anchor site ``K`` stores its freshly checked
#: translated pointer here, elided sites reload it instead of re-running
#: the ten-instruction stlb check. Allocated per-binary by the loader.
ANCHOR_SYMBOL = "__svm_anchor{}"

RUNTIME_DATA_SYMBOLS = (
    (STLB_SYMBOL, 4096 * 8),
    (RET_SLOT_SYMBOL, 4),
    (SPILL_SYMBOL.format(0), 4),
    (SPILL_SYMBOL.format(1), 4),
    (SPILL_SYMBOL.format(2), 4),
    (SPILL_SYMBOL.format(3), 4),
    (STACK_LO_SYMBOL, 4),
    (STACK_HI_SYMBOL, 4),
)
RUNTIME_IMPORTS = (SLOW_PATH_SYMBOL, TRANSLATE_SYMBOL, CALL_XLATE_SYMBOL)


class UnsupportedInstruction(Exception):
    """The rewriter cannot soundly transform this instruction."""

    pass


@dataclass(frozen=True)
class SiteAnnotation:
    """Machine-readable record of one rewritten site.

    The static verifier (:mod:`repro.analysis`) consumes these to check the
    rewriter's work *exactly* (which instruction range realises which input
    instruction, with which scratch registers) rather than heuristically.
    The verifier also runs without them ("hostile" mode); annotations only
    add cross-checks.
    """

    #: 'memory' | 'string_single' | 'string_loop' | 'indirect' |
    #: 'stack_checked'
    kind: str
    #: index of the source instruction in the input program
    input_index: int
    #: [start, end) instruction range in the output program's main body
    #: (per-site slow-path tail blocks are located via their labels)
    start: int
    end: int
    #: scratch registers picked by the liveness analysis (footnote 3)
    scratch: Tuple[str, ...] = ()
    #: scratch registers that had to be spilled to ``__svm_spillN`` slots
    spilled: Tuple[str, ...] = ()
    #: whether the site is wrapped in ``pushf``/``popf``
    flags_wrapped: bool = False


@dataclass
class RewriteStats:
    """What the rewriter did — the §4.1 static numbers."""

    input_instructions: int = 0
    output_instructions: int = 0
    memory_rewritten: int = 0
    string_rewritten: int = 0
    indirect_rewritten: int = 0
    spills: int = 0
    flag_saves: int = 0
    #: §4.5.1: stack accesses proven safe statically (constant offset)
    stack_verified: int = 0
    #: §4.5.1: variable-offset stack accesses given runtime bounds checks
    stack_checked: int = 0
    #: per-category site counts (the §4.1 ablation breakdown the static
    #: verifier independently re-derives): keys are the SiteAnnotation
    #: kinds plus 'flags_wrapped_sites' and 'spill_slot_sites'.
    site_categories: Dict[str, int] = field(default_factory=dict)
    #: machine-readable per-site records for the static verifier
    annotations: List[SiteAnnotation] = field(default_factory=list)

    def note_site(self, annotation: SiteAnnotation):
        self.annotations.append(annotation)
        self.site_categories[annotation.kind] = (
            self.site_categories.get(annotation.kind, 0) + 1)
        if annotation.flags_wrapped:
            self.site_categories["flags_wrapped_sites"] = (
                self.site_categories.get("flags_wrapped_sites", 0) + 1)
        if annotation.spilled:
            self.site_categories["spill_slot_sites"] = (
                self.site_categories.get("spill_slot_sites", 0) + 1)

    @property
    def memory_fraction(self) -> float:
        """Fraction of input instructions that reference memory (the paper
        measures ~25% for network drivers)."""
        if self.input_instructions == 0:
            return 0.0
        return (self.memory_rewritten + self.string_rewritten
                + self.indirect_rewritten) / self.input_instructions

    @property
    def expansion_factor(self) -> float:
        if self.input_instructions == 0:
            return 1.0
        return self.output_instructions / self.input_instructions


def _spilled(saves: List[Instruction]) -> Tuple[str, ...]:
    """The registers a list of spill-save instructions preserves."""
    return tuple(s.operands[0].name for s in saves)


class Rewriter:
    """The assembler-level rewriting tool: SVM, strings, indirect calls."""

    def __init__(self, protect_stack: bool = False,
                 stlb_entries: int = 4096):
        """``protect_stack`` enables the §4.5.1 extension: variable-offset
        stack-relative accesses get runtime bounds checks against the
        driver-stack window (constant offsets are statically verified).
        ``stlb_entries`` sizes the hash table the emitted fast path
        indexes (power of two; the paper's table has 4096 entries)."""
        if stlb_entries & (stlb_entries - 1):
            raise ValueError("stlb_entries must be a power of two")
        self.protect_stack = protect_stack
        self.stlb_entries = stlb_entries
        self._counter = 0

    # ------------------------------------------------------------------ utils

    def _fresh(self, tag: str) -> str:
        self._counter += 1
        return f".Lsvm{self._counter}_{tag}"

    @staticmethod
    def _uses_registers(ins: Instruction) -> set:
        used = set(ins.registers_read()) | set(ins.registers_written())
        mem = ins.memory_operand()
        if mem is not None:
            used.update(mem.registers())
        # call clobber set is not a real "use"
        if ins.is_call:
            used -= {"eax", "ecx", "edx"} - set(
                op.parent for op in ins.operands if isinstance(op, Reg)
            )
        return used

    def _scratch(self, liveness: LivenessAnalysis, index: int,
                 ins: Instruction, k: int,
                 stats: RewriteStats) -> Tuple[List[str], List[Instruction],
                                               List[Instruction]]:
        """Pick ``k`` scratch registers; spill victims when too few are
        dead. Returns (registers, save-instrs, restore-instrs)."""
        free = list(liveness.free_registers_at(index))
        used = self._uses_registers(ins)
        free = [r for r in free if r not in used]
        regs = free[:k]
        saves: List[Instruction] = []
        restores: List[Instruction] = []
        if len(regs) < k:
            victims = [r for r in ALLOCATABLE
                       if r not in used and r not in regs]
            needed = k - len(regs)
            if needed > len(victims) or needed > N_SPILL_SLOTS:
                raise UnsupportedInstruction(
                    f"cannot find {k} scratch registers for "
                    f"{ins.format()!r}"
                )
            for slot, victim in enumerate(victims[:needed]):
                stats.spills += 1
                spill = Mem(symbol=SPILL_SYMBOL.format(slot))
                saves.append(Instruction("mov", (Reg(victim), spill)))
                restores.append(Instruction("mov", (spill, Reg(victim))))
                regs.append(victim)
        return regs, saves, restores

    # ------------------------------------------------------- SVM fast path

    def _emit_svm_sequence(self, mem: Mem, r1: str, r2: str, r3: str,
                           retry: str, slow: str) -> List[Instruction]:
        """The paper's figure-4 sequence; ``retry`` labels its first
        instruction, ``jne slow`` transfers to the slow-path block."""
        stlb = Mem(symbol=STLB_SYMBOL, base=r1)
        stlb4 = Mem(symbol=STLB_SYMBOL, disp=4, base=r1)
        # index mask: low log2(entries) bits of the page number; the entry
        # is 8 bytes, so the byte offset is (vaddr & mask) >> 9 for the
        # paper's 4096-entry table (mask 0x00FFF000).
        index_mask = (self.stlb_entries - 1) << 12
        return [
            Instruction("lea", (mem, Reg(r1))),                 # 1
            Instruction("mov", (Reg(r1), Reg(r2))),             # 2
            Instruction("and", (Imm(0xFFFFF000), Reg(r1))),     # 3
            Instruction("mov", (Reg(r1), Reg(r3))),             # 4
            Instruction("and", (Imm(index_mask), Reg(r1))),     # 5
            Instruction("shr", (Imm(9), Reg(r1))),              # 6
            Instruction("cmp", (stlb, Reg(r3))),                # 7
            Instruction("jne", (Label(slow),)),                 # 8
            Instruction("xor", (stlb4, Reg(r2))),               # 9
        ]

    def _slow_block(self, slow: str, retry: str, r2: str) -> List[Instruction]:
        return [
            Instruction("push", (Reg(r2),)),
            Instruction("call", (Label(SLOW_PATH_SYMBOL),)),
            Instruction("add", (Imm(4), Reg("esp"))),
            Instruction("jmp", (Label(retry),)),
        ]

    def _rewrite_memory(self, ins: Instruction, index: int,
                        liveness: LivenessAnalysis, flags_live: bool,
                        out: "_Emitter", stats: RewriteStats):
        mem = ins.memory_operand()
        regs, saves, restores = self._scratch(liveness, index, ins, 3, stats)
        r1, r2, r3 = regs
        retry = self._fresh("retry")
        slow = self._fresh("slow")
        for save in saves:
            out.emit(save)
        if flags_live:
            stats.flag_saves += 1
            out.emit(Instruction("pushf", ()))
        out.label(retry)
        for seq in self._emit_svm_sequence(mem, r1, r2, r3, retry, slow):
            out.emit(seq)
        translated = Mem(base=r2)
        new_ops = tuple(translated if op is mem else op
                        for op in ins.operands)
        out.emit(ins.replaced(operands=new_ops))
        for restore in restores:
            out.emit(restore)
        if flags_live:
            out.emit(Instruction("popf", ()))
        out.tail_block(slow, self._slow_block(slow, retry, r2))
        stats.memory_rewritten += 1
        return ("memory", tuple(regs), _spilled(saves), flags_live)

    # ------------------------------------------------------- stack checks

    def _rewrite_stack_checked(self, ins: Instruction, index: int,
                               liveness: LivenessAnalysis, flags_live: bool,
                               out: "_Emitter", stats: RewriteStats):
        """§4.5.1: a stack access whose offset is computed at runtime — a
        buffer-overflow candidate. Bounds-check the effective address
        against the driver stack window; out-of-range aborts the driver."""
        mem = ins.memory_operand()
        regs, saves, restores = self._scratch(liveness, index, ins, 1, stats)
        r1 = regs[0]
        fault = self._fresh("sfault")
        for save in saves:
            out.emit(save)
        if flags_live:
            stats.flag_saves += 1
            out.emit(Instruction("pushf", ()))
        out.emit(Instruction("lea", (mem, Reg(r1))))
        out.emit(Instruction("cmp", (Mem(symbol=STACK_LO_SYMBOL), Reg(r1))))
        out.emit(Instruction("jb", (Label(fault),)))
        out.emit(Instruction("cmp", (Mem(symbol=STACK_HI_SYMBOL), Reg(r1))))
        out.emit(Instruction("jae", (Label(fault),)))
        out.emit(ins)
        for restore in restores:
            out.emit(restore)
        if flags_live:
            out.emit(Instruction("popf", ()))
        out.tail_block(fault, [
            Instruction("call", (Label(STACK_FAULT_SYMBOL),)),
        ])
        stats.stack_checked += 1
        return ("stack_checked", tuple(regs), _spilled(saves), flags_live)

    # ------------------------------------------------------- indirect calls

    def _rewrite_indirect(self, ins: Instruction, index: int,
                          liveness: LivenessAnalysis, flags_live: bool,
                          out: "_Emitter", stats: RewriteStats):
        target = ins.operands[0]
        ret_slot = Mem(symbol=RET_SLOT_SYMBOL)
        regs: Tuple[str, ...] = ()
        saves = []
        if isinstance(target, Mem) and not target.is_stack_relative:
            # Load the function pointer through SVM first.
            regs, saves, restores = self._scratch(
                liveness, index, ins, 3, stats
            )
            r1, r2, r3 = regs
            retry = self._fresh("retry")
            slow = self._fresh("slow")
            for save in saves:
                out.emit(save)
            out.label(retry)
            for seq in self._emit_svm_sequence(target, r1, r2, r3, retry, slow):
                out.emit(seq)
            out.emit(Instruction("push", (Mem(base=r2),)))
            for restore in restores:
                out.emit(restore)
            out.tail_block(slow, self._slow_block(slow, retry, r2))
        else:
            # register target (or stack-relative pointer): push it directly
            out.emit(Instruction("push", (target,)))
        out.emit(Instruction("call", (Label(CALL_XLATE_SYMBOL),)))
        out.emit(Instruction("add", (Imm(4), Reg("esp"))))
        out.emit(ins.replaced(operands=(ret_slot,), indirect=True))
        stats.indirect_rewritten += 1
        return ("indirect", tuple(regs), _spilled(saves), False)

    # ------------------------------------------------------- string ops

    def _rewrite_string(self, ins: Instruction, index: int,
                        liveness: LivenessAnalysis, flags_live: bool,
                        out: "_Emitter", stats: RewriteStats):
        stats.string_rewritten += 1
        uses_esi = ins.mnemonic in ("movs", "lods", "cmps")
        uses_edi = ins.mnemonic in ("movs", "stos", "cmps", "scas")
        size = ins.size
        shift = {1: 0, 2: 1, 4: 2}[size]
        sets_flags = ins.mnemonic in ("cmps", "scas")

        if ins.prefix is None:
            return self._rewrite_string_single(ins, index, liveness,
                                               flags_live, out, stats,
                                               uses_esi, uses_edi, size,
                                               sets_flags)

        regs, saves, restores = self._scratch(liveness, index, ins, 3, stats)
        r1, r2, r3 = regs
        top = self._fresh("top")
        done = self._fresh("done")
        done_pop = self._fresh("donep")

        wrap_flags = flags_live and not sets_flags
        for save in saves:
            out.emit(save)
        if wrap_flags:
            stats.flag_saves += 1
            out.emit(Instruction("pushf", ()))

        out.label(top)
        out.emit(Instruction("test", (Reg("ecx"), Reg("ecx"))))
        out.emit(Instruction("je", (Label(done),)))
        # r1 = min bytes-to-page-end over used pointers (default: full page)
        out.emit(Instruction("mov", (Imm(0x1000), Reg(r1))))
        for used, pointer in ((uses_esi, "esi"), (uses_edi, "edi")):
            if not used:
                continue
            skip = self._fresh("pg")
            out.emit(Instruction("mov", (Reg(pointer), Reg(r2))))
            out.emit(Instruction("neg", (Reg(r2),)))
            out.emit(Instruction("and", (Imm(0xFFF), Reg(r2))))
            out.emit(Instruction("je", (Label(skip),)))      # aligned: full pg
            out.emit(Instruction("cmp", (Reg(r2), Reg(r1))))
            out.emit(Instruction("jbe", (Label(skip),)))
            out.emit(Instruction("mov", (Reg(r2), Reg(r1))))
            out.label(skip)
        if shift:
            out.emit(Instruction("shr", (Imm(shift), Reg(r1))))
        # zero-element chunk (pointer within `size` of the page end):
        # process one straddling element — pair-mapping makes it safe.
        nonzero = self._fresh("nz")
        out.emit(Instruction("test", (Reg(r1), Reg(r1))))
        out.emit(Instruction("jne", (Label(nonzero),)))
        out.emit(Instruction("mov", (Imm(1), Reg(r1))))
        out.label(nonzero)
        clamp = self._fresh("clamp")
        out.emit(Instruction("cmp", (Reg("ecx"), Reg(r1))))
        out.emit(Instruction("jbe", (Label(clamp),)))
        out.emit(Instruction("mov", (Reg("ecx"), Reg(r1))))
        out.label(clamp)
        # translate the pointers for this chunk
        if uses_esi:
            self._emit_translate(out, "esi", r2)
        if uses_edi:
            self._emit_translate(out, "edi", r3)
        # swap in translated pointers and the chunk count
        out.emit(Instruction("push", (Reg("ecx"),)))
        if uses_esi:
            out.emit(Instruction("push", (Reg("esi"),)))
        if uses_edi:
            out.emit(Instruction("push", (Reg("edi"),)))
        if uses_esi:
            out.emit(Instruction("mov", (Reg(r2), Reg("esi"))))
        if uses_edi:
            out.emit(Instruction("mov", (Reg(r3), Reg("edi"))))
        out.emit(Instruction("mov", (Reg(r1), Reg("ecx"))))
        out.emit(ins.replaced(line=0))
        out.emit(Instruction("mov", (Reg("ecx"), Reg(r2))))   # remaining
        # restore the originals first (mov/pop preserve the chunk's flags),
        # THEN save the flags for the repe/repne decision
        if uses_edi:
            out.emit(Instruction("pop", (Reg("edi"),)))
        if uses_esi:
            out.emit(Instruction("pop", (Reg("esi"),)))
        out.emit(Instruction("pop", (Reg("ecx"),)))
        if sets_flags:
            out.emit(Instruction("pushf", ()))                # chunk flags
        # consumed = chunk - remaining; advance originals
        out.emit(Instruction("sub", (Reg(r2), Reg(r1))))
        out.emit(Instruction("mov", (Reg(r1), Reg(r3))))
        if shift:
            out.emit(Instruction("shl", (Imm(shift), Reg(r3))))
        if uses_esi:
            out.emit(Instruction("add", (Reg(r3), Reg("esi"))))
        if uses_edi:
            out.emit(Instruction("add", (Reg(r3), Reg("edi"))))
        out.emit(Instruction("sub", (Reg(r1), Reg("ecx"))))
        if sets_flags:
            # restore the chunk-final compare flags, then decide
            out.emit(Instruction("popf", ()))
            if ins.prefix == "repe":
                out.emit(Instruction("jne", (Label(done),)))
            elif ins.prefix == "repne":
                out.emit(Instruction("je", (Label(done),)))
            # exhausted? preserve compare flags across the test
            out.emit(Instruction("pushf", ()))
            out.emit(Instruction("test", (Reg("ecx"), Reg("ecx"))))
            out.emit(Instruction("je", (Label(done_pop),)))
            out.emit(Instruction("popf", ()))
            out.emit(Instruction("jmp", (Label(top),)))
            out.label(done_pop)
            out.emit(Instruction("popf", ()))
        else:
            out.emit(Instruction("jmp", (Label(top),)))
        out.label(done)
        if wrap_flags:
            out.emit(Instruction("popf", ()))
        for restore in restores:
            out.emit(restore)
        return ("string_loop", tuple(regs), _spilled(saves), wrap_flags)

    def _rewrite_string_single(self, ins, index, liveness, flags_live,
                               out, stats, uses_esi, uses_edi, size,
                               sets_flags):
        """Unprefixed string op: translate, run one element, re-advance the
        original pointers (the op advanced the translated copies)."""
        regs, saves, restores = self._scratch(liveness, index, ins, 2, stats)
        r1, r2 = regs
        wrap_flags = flags_live and not sets_flags
        for save in saves:
            out.emit(save)
        if wrap_flags:
            stats.flag_saves += 1
            out.emit(Instruction("pushf", ()))
        if uses_esi:
            self._emit_translate(out, "esi", r1)
        if uses_edi:
            self._emit_translate(out, "edi", r2)
        if uses_esi:
            out.emit(Instruction("push", (Reg("esi"),)))
            out.emit(Instruction("mov", (Reg(r1), Reg("esi"))))
        if uses_edi:
            out.emit(Instruction("push", (Reg("edi"),)))
            out.emit(Instruction("mov", (Reg(r2), Reg("edi"))))
        out.emit(ins.replaced(line=0))
        if uses_edi:
            out.emit(Instruction("pop", (Reg("edi"),)))
        if uses_esi:
            out.emit(Instruction("pop", (Reg("esi"),)))
        if sets_flags:
            out.emit(Instruction("pushf", ()))
        if uses_esi:
            out.emit(Instruction("add", (Imm(size), Reg("esi"))))
        if uses_edi:
            out.emit(Instruction("add", (Imm(size), Reg("edi"))))
        if sets_flags:
            out.emit(Instruction("popf", ()))
        if wrap_flags:
            out.emit(Instruction("popf", ()))
        for restore in restores:
            out.emit(restore)
        return ("string_single", tuple(regs), _spilled(saves), wrap_flags)

    def _emit_translate(self, out: "_Emitter", pointer: str, dest: str):
        """Translate ``pointer`` through the stlb into ``dest`` via the
        register-preserving helper (result via the ``__svm_ret`` slot)."""
        out.emit(Instruction("push", (Reg(pointer),)))
        out.emit(Instruction("call", (Label(TRANSLATE_SYMBOL),)))
        out.emit(Instruction("add", (Imm(4), Reg("esp"))))
        out.emit(Instruction("mov", (Mem(symbol=RET_SLOT_SYMBOL), Reg(dest))))

    # ------------------------------------------------------- driver loop

    def rewrite(self, program: Program) -> Tuple[Program, RewriteStats]:
        for ins in program.instructions:
            if ins.mnemonic == "std":
                raise UnsupportedInstruction(
                    "backward (std) string operations are not supported"
                )
        stats = RewriteStats(input_instructions=len(program.instructions))
        liveness = LivenessAnalysis(program)
        out = _Emitter()

        label_positions: Dict[int, List[str]] = {}
        for label, idx in program.labels.items():
            label_positions.setdefault(idx, []).append(label)

        for index, ins in enumerate(program.instructions):
            for label in label_positions.get(index, ()):
                out.label(label)
            mem = ins.memory_operand()
            flags_live = (FLAGS in liveness.live_out[index]
                          and not ins.writes_flags)
            site_start = len(out.instructions)
            site = None
            if ins.is_string:
                site = self._rewrite_string(ins, index, liveness,
                                            flags_live, out, stats)
            elif ins.indirect:
                site = self._rewrite_indirect(ins, index, liveness,
                                              flags_live, out, stats)
            elif (
                mem is not None
                and ins.mnemonic != "lea"
                and not mem.is_stack_relative
            ):
                site = self._rewrite_memory(ins, index, liveness,
                                            flags_live, out, stats)
            elif (
                self.protect_stack
                and mem is not None
                and ins.mnemonic != "lea"
                and mem.is_stack_relative
            ):
                if mem.index is None:
                    # constant offset from esp/ebp: statically verifiable
                    stats.stack_verified += 1
                    out.emit(ins)
                else:
                    site = self._rewrite_stack_checked(ins, index, liveness,
                                                       flags_live, out, stats)
            else:
                out.emit(ins)
            if site is not None:
                kind, scratch, spilled, wrapped = site
                stats.note_site(SiteAnnotation(
                    kind=kind, input_index=index, start=site_start,
                    end=len(out.instructions), scratch=scratch,
                    spilled=spilled, flags_wrapped=wrapped,
                ))
        for label in label_positions.get(len(program.instructions), ()):
            out.label(label)
        out.flush_tails()

        rewritten = Program(
            instructions=out.instructions,
            labels=out.labels,
            globals_=program.globals_,
            comm=dict(program.comm),
            name=f"{program.name}.twin",
        )
        stats.output_instructions = len(rewritten.instructions)
        return rewritten, stats


class _Emitter:
    """Accumulates the output instruction stream, labels, and the slow-path
    blocks that are appended after the main body (so the fast path is
    fall-through, like the paper's figure 4)."""

    def __init__(self):
        self.instructions: List[Instruction] = []
        self.labels: Dict[str, int] = {}
        self._tails: List[Tuple[str, List[Instruction]]] = []

    def emit(self, ins: Instruction):
        self.instructions.append(ins)

    def label(self, name: str):
        if name in self.labels:
            raise ValueError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)

    def tail_block(self, label: str, instructions: List[Instruction]):
        self._tails.append((label, instructions))

    def flush_tails(self):
        for label, block in self._tails:
            self.label(label)
            for ins in block:
                self.emit(ins)
        self._tails = []


def rewrite_driver(program: Program,
                   protect_stack: bool = False,
                   stlb_entries: int = 4096
                   ) -> Tuple[Program, RewriteStats]:
    """Convenience: rewrite ``program`` with a fresh :class:`Rewriter`."""
    return Rewriter(protect_stack=protect_stack,
                    stlb_entries=stlb_entries).rewrite(program)


# ---------------------------------------------------------------------------
# Proof-based check elision (prove-then-elide)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElisionResult:
    """What :func:`apply_elision` did to one verified binary."""

    sites_elided: int = 0
    anchors: int = 0
    #: data symbols the loader must allocate per instance: ((name, size),)
    anchor_symbols: Tuple[Tuple[str, int], ...] = ()
    #: output-program indices of the ``mov __svm_anchorK, r2`` replacements
    #: (runtime elision accounting hooks onto these: each execution is one
    #: stlb check the proof made unnecessary)
    elided_indices: Tuple[int, ...] = ()
    #: output-program indices of the ``mov r2, __svm_anchorK`` stores
    #: inserted into the anchor sites
    anchor_indices: Tuple[int, ...] = ()


def _elision_r2(program: Program, lea: int) -> str:
    """The site's translated-pointer register, read off the figure-4 xor
    (``xor __stlb+4(r1), r2``) — validating the shape on the way."""
    n = len(program.instructions)
    if lea + 9 >= n or program.instructions[lea].mnemonic != "lea":
        raise ValueError(f"no fast-path site at instruction {lea}")
    xor = program.instructions[lea + 8]
    mem = xor.memory_operand()
    if xor.mnemonic != "xor" or mem is None or mem.symbol != STLB_SYMBOL \
            or not isinstance(xor.operands[1], Reg):
        raise ValueError(f"no fast-path xor at instruction {lea + 8}")
    return xor.operands[1].parent


def apply_elision(program: Program, proofs) -> Tuple[Program, ElisionResult]:
    """Consume the verifier's :class:`~repro.analysis.absint.ProofAnnotation`
    list: replace each proven site's ten-instruction stlb check with a
    single reload of its anchor's stored translation, and make each anchor
    site store its freshly checked pointer.

    The transformation is justified by the proofs, so it must run on the
    **already verified** binary — the output intentionally contains bare
    translated accesses the verifier would reject. An elided site becomes::

        mov  __svm_anchorK, r2          # the anchor's checked translation
        <access Mem(base=r2, index, scale, disp=delta)>

    and its anchor grows one store between the xor and its access::

        xor  __stlb+4(r1), r2
        mov  r2, __svm_anchorK          # publish for the elided sites
        <original access (r2)>

    Spill saves/restores and ``pushf``/``popf`` wrapping are kept (the
    replacement clobbers a subset of what the original did, and writes no
    flags); the retry label is remapped to the replacement, leaving the
    per-site slow-path tail block as unreachable dead code."""
    anchor_prefix = ANCHOR_SYMBOL.format("")
    for label in program.labels:
        if label.startswith(anchor_prefix):
            raise ValueError(f"binary already defines {label!r}")
    for ins in program.instructions:
        for op in ins.operands:
            sym = getattr(op, "symbol", None) or getattr(op, "name", None)
            if isinstance(sym, str) and sym.startswith(anchor_prefix):
                raise ValueError(
                    f"binary already references {sym!r}: refusing to elide")

    proofs = sorted(proofs, key=lambda p: p.site_lea)
    by_site: Dict[int, object] = {}
    for p in proofs:
        if p.site_lea in by_site:
            raise ValueError(f"duplicate proof for site {p.site_lea}")
        if p.access != p.site_lea + 9:
            raise ValueError(f"proof access {p.access} does not follow "
                             f"site {p.site_lea}")
        by_site[p.site_lea] = p
    anchor_leas = sorted({p.anchor_lea for p in proofs})
    if any(lea in by_site for lea in anchor_leas):
        raise ValueError("a site cannot be both elided and an anchor")
    anchor_ids = {lea: k for k, lea in enumerate(anchor_leas)}
    r2_of = {lea: _elision_r2(program, lea)
             for lea in list(by_site) + anchor_leas}

    skip_owner: Dict[int, int] = {}
    for p in proofs:
        for j in range(p.site_lea + 1, p.site_lea + 9):
            skip_owner[j] = p.site_lea
    access_proof = {p.access: p for p in proofs}
    store_after = {lea + 8: lea for lea in anchor_leas}

    new_ins: List[Instruction] = []
    index_map: Dict[int, int] = {}
    repl_start: Dict[int, int] = {}
    elided_indices: List[int] = []
    anchor_indices: List[int] = []
    for i, ins in enumerate(program.instructions):
        owner = skip_owner.get(i)
        if owner is not None:
            index_map[i] = repl_start[owner]
            continue
        index_map[i] = len(new_ins)
        p = by_site.get(i)
        if p is not None:
            repl_start[i] = len(new_ins)
            elided_indices.append(len(new_ins))
            sym = ANCHOR_SYMBOL.format(anchor_ids[p.anchor_lea])
            new_ins.append(Instruction(
                "mov", (Mem(symbol=sym), Reg(r2_of[i]))))
            continue
        p = access_proof.get(i)
        if p is not None:
            r2 = r2_of[p.site_lea]
            translated = Mem(base=r2, index=p.index,
                             scale=p.scale if p.index is not None else 1,
                             disp=p.delta)
            new_ops = tuple(
                translated if (isinstance(op, Mem) and op.symbol is None
                               and op.base == r2 and op.index is None)
                else op
                for op in ins.operands)
            if translated not in new_ops:
                raise ValueError(
                    f"access at {i} does not use the site's translated "
                    f"pointer %{r2}")
            new_ins.append(ins.replaced(operands=new_ops))
        else:
            new_ins.append(ins)
        anchor = store_after.get(i)
        if anchor is not None:
            anchor_indices.append(len(new_ins))
            sym = ANCHOR_SYMBOL.format(anchor_ids[anchor])
            new_ins.append(Instruction(
                "mov", (Reg(r2_of[anchor]), Mem(symbol=sym))))
    index_map[len(program.instructions)] = len(new_ins)

    elided = Program(
        instructions=new_ins,
        labels={label: index_map[i] for label, i in program.labels.items()},
        globals_=program.globals_,
        comm=dict(program.comm),
        name=f"{program.name}.elided",
    )
    result = ElisionResult(
        sites_elided=len(proofs),
        anchors=len(anchor_leas),
        anchor_symbols=tuple((ANCHOR_SYMBOL.format(k), 4)
                             for k in range(len(anchor_leas))),
        elided_indices=tuple(elided_indices),
        anchor_indices=tuple(anchor_indices),
    )
    return elided, result
