"""Trace-JIT: superblock compilation for the twin interpreter.

The interpreter runs each instruction as a compiled handler closure,
a straight-line run of them per dispatch. This module is the next rung
on the same ladder, the one the dynamic-translation literature (QEMU's
TCG, the software-only passthrough line of work) climbs after
per-instruction caching: *superblocks*. ``Cpu._run_loop`` counts the
jumps to each run head; when one gets hot, the trace starting there
is compiled into a single straight-line Python function —
operand thunks fused into expressions, per-instruction
``account.charge`` calls batched into one accumulated charge, the
loop's program lookup and handler calls paid once per entry instead of
once per run. The 10-instruction SVM fast path (and its proof-elided
anchor-reload form) inlines like any other run of straight-line code,
which is the point: that sequence dominates the twin driver's dynamic
instruction count.

Correctness contract (the part worth reading twice):

* **Cycle accounting is bit-identical.** The interpreter charges each
  cost item from ``cpu.scaled``, every cost rounded on its own
  (``int(round(c * cycle_scale))``), so batching sums those
  *per-charge rounded* values, never rounds the sum. Every constant is
  taken from the same table at compile time; data-dependent costs
  (a RAM page's price, read from its page-cache entry, and MMIO)
  replicate the interpreter's exact decision procedure. The loop
  settles what it owes before it enters a superblock, and the
  accumulator is flushed before anything that can observe the clock —
  native routines (the tracer timestamps spans with ``account.total``)
  and MMIO dispatch (device models emit events) — and a ``finally``
  flush covers faults, so totals and ordering across observable
  boundaries match the interpreter exactly.
* **Side exits are precise.** Before any operation that can fault or
  escape (memory access, native call, delegated handler), the emitted
  code materializes ``cpu.eip`` (the faulting instruction's
  fall-through, exactly what the interpreter leaves there) and
  ``cpu.executed``. Registers and flags are always architectural —
  superblocks write them in interpreter order, never cache them.
* **Superblocks never run under a charge shadow.** ``Cpu._run_loop``
  enters one only while it defers its charges (no shadow) and at the
  ``cycle_scale`` it was compiled for; otherwise it runs the head's run.
* **Invalidation.** Superblocks cache on the ``LoadedProgram`` keyed by
  the ``CodeRegistry`` epoch (reload/recovery/re-verification bumps it,
  exactly like the handler tables) and by the program's
  instrument generation (hooks registered after warm-up must fire).
  Both are also re-checked after any mid-trace native call, because a
  native can reload programs or install shadows.

Trace shape: straight-line through fall-throughs and followed direct
jumps; conditional branches are predicted not-taken and compile to a
guarded side exit; a branch back to the trace head turns the whole
trace into a capped loop (the common ``while`` shape of the driver's
copy and descriptor-ring loops); indirect branches, traps, unresolved
symbols and instrumented control flow end the trace *before* the
instruction so the interpreter executes it from an architecturally
clean state, and a trace ends where another superblock begins. The
loop counts the head a trace exits to, so what follows an exit is
promoted in turn.

Only the forms the rewritten drivers contain are emitted as code
(:func:`_inline`): 32-bit ``mov``/``lea``/ALU/``inc``/``dec``/``neg``
and stack operations on full registers, ``movzb``/``movzw`` loads,
shifts by an immediate into a register, and direct control flow.
Every other instruction (string ops, instrumented sites, sub-register
and 8/16-bit operands, ``movsx``, ``xchg``, ``imul``, ``not``,
``sar``, shifts by ``%cl`` or into memory, ``pushf``/``popf``,
``cld``/``std``/``nop``/``sti``/``cli``) runs its interpreter handler
inside the trace (:meth:`_Emitter.delegate`), so the handlers remain
the one implementation of those forms.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..isa.instructions import FLOW, Instruction
from ..isa.operands import Imm, Mem, Reg
from ..isa.registers import GPRS
from .memory import PACK_U32, UNPACK_U16, UNPACK_U32

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

#: growth caps: instructions per trace, and loop iterations a compiled
#: back-edge may take before returning to ``Cpu._run_loop`` (which
#: re-checks the call budget).
MAX_TRACE_INSTRS = 512
LOOP_CAP = 1024

#: little-endian accessors baked into every superblock namespace for the
#: inline RAM fast path (one page-cache ``get`` + one struct call).
_MEM_HELPERS = {
    "u2": UNPACK_U16,
    "u4": UNPACK_U32,
    "p4": PACK_U32,
}

#: hoists of the current address space's read and write page caches
#: (the ones ``Cpu.read_mem``/``write_mem`` serve from and fill)
_PAGE_CACHES = ("rp = cpu.address_space.read_pages.get",
                "wp = cpu.address_space.write_pages.get")

_FULL_REGS = frozenset(GPRS)
#: what a memory operand's base and index may be in emitted code
_ADDRESS_REGS = _FULL_REGS | {None}

#: the mnemonics a superblock emits as code: every one the rewritten
#: drivers contain (``tests/machine/test_jit.py`` holds them to it)
_INLINE = frozenset(FLOW | {
    "mov", "movzb", "movzw", "lea", "add", "sub", "and", "or", "xor",
    "cmp", "test", "inc", "dec", "neg", "shl", "shr", "push", "pop"})


def _inline(instr: Instruction) -> bool:
    """Whether a superblock emits ``instr`` as code rather than running
    its handler: a mnemonic of ``_INLINE`` at 32 bits (``movzb``/
    ``movzw`` read 8/16 bits of memory), naming only full registers,
    base and index included, and shifting a register by an immediate.
    Control flow is always emitted: a handler that moves ``eip`` cannot
    run mid-trace."""
    m = instr.mnemonic
    if m not in _INLINE:
        return False
    if instr.is_control_flow:
        return True
    if m in ("movzb", "movzw"):
        if not isinstance(instr.src, Mem):
            return False
    elif instr.size != 4:
        return False
    if m in ("shl", "shr") and not (isinstance(instr.src, Imm)
                                    and isinstance(instr.dst, Reg)):
        return False
    for op in instr.operands:
        if isinstance(op, Reg) and op.name not in _FULL_REGS:
            return False
        if isinstance(op, Mem) and not {op.base, op.index} <= _ADDRESS_REGS:
            return False
    return True


#: condition expressions over the hoisted flags dict ``f`` — same truth
#: tables as the interpreter's jcc handlers.
_COND_EXPR = {
    "je": "f['zf']", "jz": "f['zf']",
    "jne": "not f['zf']", "jnz": "not f['zf']",
    "jl": "f['sf'] != f['of']",
    "jge": "f['sf'] == f['of']",
    "jle": "f['zf'] or f['sf'] != f['of']",
    "jg": "not f['zf'] and f['sf'] == f['of']",
    "jb": "f['cf']",
    "jae": "not f['cf']",
    "jbe": "f['cf'] or f['zf']",
    "ja": "not (f['cf'] or f['zf'])",
    "js": "f['sf']",
    "jns": "not f['sf']",
}


class Superblock:
    """One compiled trace: entry point plus the metadata ``Cpu._run_loop``
    needs to decide whether it may run."""

    __slots__ = ("fn", "head", "scale", "n_instrs", "source", "entries")

    def __init__(self, fn, head: int, scale: float, n_instrs: int,
                 source: str):
        self.fn = fn
        self.head = head
        self.scale = scale
        self.n_instrs = n_instrs
        self.source = source
        self.entries = 0

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<superblock @{self.head:#010x} {self.n_instrs} instrs "
                f"{self.entries} entries>")


class JitState:
    """Per-LoadedProgram JIT state: arrival counters keyed by run-head
    address, compiled superblocks, and the registry epoch they are
    valid for. ``False`` in ``superblocks`` blacklists a head whose
    trace could not be compiled."""

    __slots__ = ("epoch", "counts", "superblocks")

    def __init__(self, epoch: int):
        self.counts: Dict[int, int] = {}
        self.superblocks: Dict[int, object] = {}
        self.epoch = epoch

    def reset(self, epoch: int):
        self.counts.clear()
        self.superblocks.clear()
        self.epoch = epoch


class _Unsupported(Exception):
    """Raised by the emitter to end the trace before an instruction."""


class _Emitter:
    """Generates the superblock's Python source for one trace."""

    def __init__(self, cpu, loaded, head_index: int):
        self.cpu = cpu
        self.loaded = loaded
        self.head_index = head_index
        self.head_addr = loaded.addrs[head_index]
        #: the CPU's pre-scaled cost table: the interpreter charges these
        #: exact values, so batching them keeps the totals bit-identical
        self.scaled = cpu.scaled
        self.lines: List[str] = []
        self.ns: Dict[str, object] = {}
        #: compile-time-constant scaled cycles not yet materialized
        self.buf = 0
        #: the runtime accumulator ``acc`` may be non-zero
        self.acc_dirty = False
        #: instructions consumed but not yet added to ``cpu.executed``
        self.pending = 0
        #: compile-time knowledge of ``cpu.eip`` on the main path
        self.cur_eip: Optional[int] = self.head_addr
        self.tmp = 0
        self.uses_mem = False
        self.uses_natives = False
        self.has_backedge = False
        self.n_instrs = 0

    # -- infrastructure ------------------------------------------------------

    def emit(self, text: str, ind: int = 0):
        self.lines.append("    " * ind + text)

    def temp(self, prefix: str = "t") -> str:
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    def bake(self, prefix: str, obj) -> str:
        name = f"{prefix}{len(self.ns)}"
        self.ns[name] = obj
        return name

    def sync(self, next_addr: int):
        """Materialize eip/executed/buffered charges before a
        potentially-faulting or observing operation."""
        if self.buf:
            self.emit(f"acc += {self.buf}")
            self.buf = 0
            self.acc_dirty = True
        if self.cur_eip != next_addr:
            self.emit(f"cpu.eip = {next_addr}")
            self.cur_eip = next_addr
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}")
            self.pending = 0

    def flush(self):
        """Push the accumulator into the account (before anything that
        observes the simulated clock)."""
        if self.buf and not self.acc_dirty:
            self.emit(f"charge(cat, {self.buf})")
            self.buf = 0
            return
        if self.buf:
            self.emit(f"acc += {self.buf}")
            self.buf = 0
            self.acc_dirty = True
        if self.acc_dirty:
            self.emit("charge(cat, acc)")
            self.emit("acc = 0")
            self.acc_dirty = False

    def emit_side_exit(self, eip_expr: str, ind: int):
        """Exit code inside a conditional branch: materialize state and
        return (the ``finally`` flush drains ``acc``). Compile-time
        state is untouched — the fall-through path continues."""
        if self.buf:
            self.emit(f"acc += {self.buf}", ind)
        self.emit(f"cpu.eip = {eip_expr}", ind)
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}", ind)
        self.emit("return", ind)

    def end_trace(self, eip_expr: str):
        """Unconditional trace end on the main path."""
        if self.buf:
            self.emit(f"acc += {self.buf}")
            self.buf = 0
        self.emit(f"cpu.eip = {eip_expr}")
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}")
            self.pending = 0
        self.emit("return")

    def rehoist(self, ind: int = 0):
        """Re-read the page caches after anything that can run model
        code (a native, a hook, an MMIO dispatch): an upcall may have
        switched ``cpu.address_space``. A remap needs nothing here, since
        it edits the caches in place. Forces the memory hoists on: later
        memory ops in the trace depend on the re-read even when none
        were emitted yet."""
        self.uses_mem = True
        for line in _PAGE_CACHES:
            self.emit(line, ind)

    def native_guard(self, next_addr: int):
        """After a mid-trace native call or delegated handler: bail to
        ``Cpu._run_loop`` unless the world still matches what the rest
        of the trace was compiled against."""
        self.emit(
            f"if (cpu.eip != {next_addr} or cpu.code.epoch != ep0 "
            f"or L._igen != ig0 or cpu._category[-1] != cat "
            f"or cpu.world_token != wt0 or acct.shadowed):")
        self.emit("return", 1)
        self.rehoist()
        self.cur_eip = next_addr

    # -- operand expressions -------------------------------------------------

    # Every register an emitted instruction names is a full one
    # (``_inline``), read as ``r['name']`` and written 32 bits wide.

    def ea_expr(self, mem: Mem) -> str:
        parts = []
        if mem.base is not None:
            parts.append(f"r['{mem.base}']")
        if mem.index is not None:
            idx = f"r['{mem.index}']"
            parts.append(f"{idx} * {mem.scale}" if mem.scale != 1 else idx)
        if mem.disp or not parts:
            parts.append(str(mem.disp))
        if len(parts) == 1 and mem.base is None and mem.index is None:
            return str(mem.disp & MASK32)
        return f"({' + '.join(parts)}) & {MASK32}"

    # -- memory --------------------------------------------------------------

    def emit_cost(self, entry: str, va: str, ind: int) -> str:
        """Unpack the page-cache ``entry`` of a hit and add its page's
        RAM price to the accumulator (``cpu._ram_price`` of ``va`` when
        a hot range edge falls inside the page); returns the frame."""
        frame = self.temp("fr")
        c = self.temp("c")
        self.emit(f"{frame}, {c} = {entry}", ind)
        self.emit(f"if {c} is None:", ind)
        self.emit(f"{c} = price({va})", ind + 1)
        self.emit(f"acc += {c}", ind)
        self.acc_dirty = True
        return frame

    def emit_miss(self, call: str, ind: int):
        """The other branch of an inline access: the interpreter's own
        ``read_mem``/``write_mem``, which translates (PageFault,
        ProtectionFault), prices, fills the page cache and reaches MMIO
        or ``BusError``. The accumulator is drained first, because a
        device observes the clock, and the caches are re-read after,
        because a device may re-enter the kernel model."""
        self.emit("charge(cat, acc)", ind)
        self.emit("acc = 0", ind)
        self.emit(call, ind)
        self.rehoist(ind)
        self.acc_dirty = True        # branches disagree; finally covers it

    def mem_read(self, ea: str, size: int, next_addr: int) -> str:
        """Inline ``Cpu.read_mem`` of ``size`` bytes (1 and 2 for
        ``movzb``/``movzw``); returns the value variable. A hit in the
        address space's read page cache inside one page is priced and
        unpacked here; anything else is :meth:`emit_miss`."""
        self.uses_mem = True
        self.sync(next_addr)
        va = self.temp("va")
        v = self.temp("v")
        d = self.temp("d")
        self.emit(f"{va} = {ea}")
        self.emit(f"{d} = rp({va} >> 12)")
        self.emit(f"if {d} is not None and ({va} & 4095) <= {4096 - size}:")
        frame = self.emit_cost(d, va, 1)
        if size == 1:
            self.emit(f"{v} = {frame}[{va} & 4095]", 1)
        else:
            un = "u2" if size == 2 else "u4"
            self.emit(f"{v} = {un}({frame}, {va} & 4095)[0]", 1)
        self.emit("else:")
        self.emit_miss(f"{v} = rm({va}, {size})", 1)
        return v

    def mem_write(self, ea: str, value: str, next_addr: int):
        """Inline a 32-bit ``Cpu.write_mem`` over the write page cache,
        which holds writable mappings only, mirroring :meth:`mem_read`."""
        self.uses_mem = True
        self.sync(next_addr)
        va = self.temp("va")
        d = self.temp("d")
        self.emit(f"{va} = {ea}")
        self.emit(f"{d} = wp({va} >> 12)")
        self.emit(f"if {d} is not None and ({va} & 4095) <= 4092:")
        frame = self.emit_cost(d, va, 1)
        self.emit(f"p4({frame}, {va} & 4095, ({value}) & {MASK32})", 1)
        self.emit("else:")
        self.emit_miss(f"wm({va}, 4, {value})", 1)

    # -- operand read/write (mirrors the PR 4 thunks) ------------------------

    def read_operand(self, op, next_addr: int) -> str:
        if isinstance(op, Imm):
            return str(op.value & MASK32)
        if isinstance(op, Reg):
            return f"r['{op.name}']"
        if isinstance(op, Mem):
            return self.mem_read(self.ea_expr(op), 4, next_addr)
        raise _Unsupported(f"unreadable operand {op!r}")

    def as_var(self, expr: str) -> str:
        """Bind an expression to a temp when it will be used twice."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        v = self.temp()
        self.emit(f"{v} = {expr}")
        return v

    def write_operand(self, op, value: str, next_addr: int):
        if isinstance(op, Reg):
            self.emit(f"r['{op.name}'] = ({value}) & {MASK32}")
        elif isinstance(op, Mem):
            self.mem_write(self.ea_expr(op), value, next_addr)
        else:
            raise _Unsupported(f"unwritable operand {op!r}")

    # -- flags ---------------------------------------------------------------

    def emit_zsf(self, r: str):
        self.emit(f"f['zf'] = {r} == 0")
        self.emit(f"f['sf'] = ({r} & {SIGN32}) != 0")

    def emit_flags_add(self, a: str, b: str, set_cf: bool = True) -> str:
        s = self.temp("s")
        rv = self.temp("x")
        self.emit(f"{s} = {a} + {b}")
        self.emit(f"{rv} = {s} & {MASK32}")
        if set_cf:
            self.emit(f"f['cf'] = {s} > {MASK32}")
        self.emit(
            f"f['of'] = ((~({a} ^ {b})) & ({a} ^ {rv}) & {SIGN32}) != 0")
        self.emit_zsf(rv)
        return rv

    def emit_flags_sub(self, a: str, b: str, set_cf: bool = True) -> str:
        rv = self.temp("x")
        self.emit(f"{rv} = ({a} - {b}) & {MASK32}")
        if set_cf:
            self.emit(f"f['cf'] = {a} < {b}")
        self.emit(f"f['of'] = (({a} ^ {b}) & ({a} ^ {rv}) & {SIGN32}) != 0")
        self.emit_zsf(rv)
        return rv

    def emit_flags_logic(self, expr: str) -> str:
        rv = self.temp("x")
        self.emit(f"{rv} = {expr}")
        self.emit("f['cf'] = False")
        self.emit("f['of'] = False")
        self.emit_zsf(rv)
        return rv

    # -- per-instruction emission --------------------------------------------

    def emit_instruction(self, index: int) -> Optional[int]:
        """Emit one instruction; returns the next trace index, or None
        when the trace ends here. Raises _Unsupported to end the trace
        *before* this instruction."""
        loaded = self.loaded
        instr: Instruction = loaded.program.instructions[index]
        m = instr.mnemonic
        next_addr = loaded.next_addrs[index]
        next_index = index + 1

        # forms that always end the trace before executing (``build``
        # also rolls back whatever a rejected instruction emitted)
        if m in ("int3", "ud2", "hlt"):
            raise _Unsupported("trap")
        if instr.is_control_flow and instr.indirect:
            raise _Unsupported("indirect branch")
        for op in instr.operands:
            if isinstance(op, (Mem, Imm)) and op.symbol is not None:
                raise _Unsupported("unresolved symbol")
        instrumented = index in loaded.instrument
        if instrumented and instr.is_control_flow:
            raise _Unsupported("instrumented control flow")

        self.pending += 1
        self.n_instrs += 1
        self.buf += self.scaled.alu

        if instrumented or not _inline(instr):
            return self.delegate(index, next_addr, next_index)

        if m == "mov":
            v = self.read_operand(instr.src, next_addr)
            self.write_operand(instr.dst, v, next_addr)
            return next_index
        if m in ("movzb", "movzw"):
            v = self.mem_read(self.ea_expr(instr.src), instr.size, next_addr)
            self.write_operand(instr.dst, v, next_addr)
            return next_index
        if m == "lea":
            if not isinstance(instr.src, Mem):
                raise _Unsupported("lea from non-memory operand")
            self.write_operand(instr.dst, self.ea_expr(instr.src), next_addr)
            return next_index

        if m in ("add", "sub", "and", "or", "xor", "cmp", "test"):
            a = self.as_var(self.read_operand(instr.dst, next_addr))
            b = self.as_var(self.read_operand(instr.src, next_addr))
            if m == "add":
                rv = self.emit_flags_add(a, b)
            elif m in ("sub", "cmp"):
                rv = self.emit_flags_sub(a, b)
            elif m in ("and", "test"):
                rv = self.emit_flags_logic(f"{a} & {b}")
            elif m == "or":
                rv = self.emit_flags_logic(f"{a} | {b}")
            else:
                rv = self.emit_flags_logic(f"{a} ^ {b}")
            if m not in ("cmp", "test"):
                self.write_operand(instr.dst, rv, next_addr)
            return next_index

        if m in ("shl", "shr"):
            # the count is a constant: a zero count changes nothing, as
            # in the interpreter's handler
            count = instr.src.value & 31
            if count:
                v = self.as_var(self.read_operand(instr.dst, next_addr))
                rv = self.temp("x")
                if m == "shl":
                    self.emit(f"{rv} = {v} << {count}")
                    self.emit(f"f['cf'] = ({rv} & {1 << 32}) != 0")
                    self.emit(f"{rv} &= {MASK32}")
                else:
                    self.emit(f"f['cf'] = (({v} >> {count - 1}) & 1) != 0")
                    self.emit(f"{rv} = {v} >> {count}")
                self.emit("f['of'] = False")
                self.emit_zsf(rv)
                self.write_operand(instr.dst, rv, next_addr)
            return next_index

        if m in ("inc", "dec", "neg"):
            v = self.as_var(self.read_operand(instr.dst, next_addr))
            if m == "inc":
                # inc/dec preserve CF: the interpreter saves/restores it
                # around _flags_add, net effect is "don't touch cf"
                rv = self.emit_flags_add(v, "1", set_cf=False)
            elif m == "dec":
                rv = self.emit_flags_sub(v, "1", set_cf=False)
            else:
                rv = self.emit_flags_sub("0", v)
            self.write_operand(instr.dst, rv, next_addr)
            return next_index

        if m == "push":
            v = self.as_var(self.read_operand(instr.src, next_addr))
            self.emit_push(v, next_addr)
            return next_index
        if m == "pop":
            v = self.emit_pop(next_addr)
            self.write_operand(instr.dst, v, next_addr)
            return next_index
        if m == "call":
            self.buf += self.scaled.call
            target = loaded.targets.get(index)
            if target is None:
                raise _Unsupported("call without resolved target")
            routine = self.cpu.natives.by_addr.get(target)
            self.sync(next_addr)
            self.emit_push(str(next_addr), next_addr)
            if routine is None:
                # transfer into interpreted code: the callee's head gets
                # its own superblock, so end the trace here
                self.end_trace(str(target))
                return None
            self.uses_natives = True
            name = self.bake("N", routine)
            self.flush()
            self.emit(f"cpu._invoke_native({name})")
            self.native_guard(next_addr)
            return next_index
        if m == "ret":
            self.buf += self.scaled.ret
            v = self.emit_pop(next_addr)
            self.end_trace(v)
            return None
        if m == "jmp":
            target = loaded.targets.get(index)
            if target is None:
                raise _Unsupported("jmp without resolved target")
            routine = self.cpu.natives.by_addr.get(target)
            if routine is not None:
                # tail call: return address is the caller's, already on
                # the stack; eip after the native is unknowable here
                self.uses_natives = True
                name = self.bake("N", routine)
                self.sync(next_addr)
                self.flush()
                self.emit(f"cpu._invoke_native({name})")
                self.emit("return")
                return None
            if target == self.head_addr:
                self.emit_backedge(None)
                return None
            t_index = loaded.addr_to_index.get(target)
            if t_index is None:
                self.end_trace(str(target))
                return None
            self.cur_eip = None
            return t_index
        # a conditional jump
        target = loaded.targets.get(index)
        if target is None:
            raise _Unsupported("jcc without resolved target")
        cond = _COND_EXPR[m]
        if target == self.head_addr:
            self.emit_backedge(cond)
            self.cur_eip = None
            return next_index
        self.emit(f"if {cond}:")
        self.emit_side_exit(str(target), 1)
        self.cur_eip = None
        return next_index

    # -- composite helpers ---------------------------------------------------

    def emit_push(self, value: str, next_addr: int):
        sp = self.temp("sp")
        self.emit(f"{sp} = (r['esp'] - 4) & {MASK32}")
        self.emit(f"r['esp'] = {sp}")
        self.mem_write(sp, value, next_addr)

    def emit_pop(self, next_addr: int) -> str:
        v = self.mem_read("r['esp']", 4, next_addr)
        self.emit(f"r['esp'] = (r['esp'] + 4) & {MASK32}")
        return v

    def delegate(self, index: int, next_addr: int, next_index: int) -> int:
        """Run one instruction through its compiled handler: the
        emitter's one fallback, for an instrumented site and for every
        form outside the inline set (:func:`_inline`), string ops
        included. ``emit_instruction`` has counted the instruction and
        added its ``alu``, which a handler does not charge, to the
        accumulator; sync and flush so the handler sees exactly the
        state ``Cpu._run_loop`` gives it: the instruction counted,
        ``eip`` on its fall-through and the account exact. A handler
        that does not compile ends the trace before the instruction, as
        it ends a run, so the loop raises the error there."""
        from .cpu import _handler_for    # deferred: avoids module cycle
        handler = self.loaded.handlers[index]
        if handler is None:
            try:
                handler = _handler_for(self.loaded, index)
            except Exception as exc:
                raise _Unsupported("handler does not compile") from exc
        self.sync(next_addr)
        self.flush()
        name = self.bake("H", handler)
        self.emit(f"{name}(cpu)")
        if index in self.loaded.instrument:
            # hooks are arbitrary code: re-validate the world
            self.native_guard(next_addr)
        else:
            # the handler may touch MMIO and re-enter model code
            self.rehoist()
        return next_index

    def emit_backedge(self, cond: Optional[str]):
        """Branch back to the trace head: compile the trace as a capped
        loop. Loop-top invariant: eip/executed/acc fully materialized."""
        self.has_backedge = True
        ind = 0
        if cond is not None:
            self.emit(f"if {cond}:")
            ind = 1
        if self.buf:
            self.emit(f"acc += {self.buf}", ind)
            if cond is None:
                self.buf = 0
        self.emit(f"cpu.eip = {self.head_addr}", ind)
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}", ind)
            if cond is None:
                self.pending = 0
        self.emit("charge(cat, acc)", ind)
        self.emit("acc = 0", ind)
        self.emit("it -= 1", ind)
        self.emit("if it == 0:", ind)
        self.emit("return", ind + 1)
        self.emit("continue", ind)
        if cond is None:
            self.acc_dirty = False

    # -- trace construction --------------------------------------------------

    def build(self) -> Optional[str]:
        """Walk the trace from the head, emitting each instruction.
        Returns the superblock source, or None if no progress could be
        compiled."""
        loaded = self.loaded
        n = len(loaded.program.instructions)
        index = self.head_index
        visited = set()
        compiled = loaded._jit.superblocks
        while True:
            if index is None:
                break
            if index >= n:
                # fell off the end of the program: the interpreter
                # faults there
                self.end_trace(str(loaded.end))
                break
            if index in visited or (visited and compiled.get(
                    loaded.addrs[index])):
                # rejoined an already-emitted address (jmp into the
                # trace body) or reached another superblock's head: exit
                # there rather than compile that code a second time
                self.end_trace(str(loaded.addrs[index]))
                break
            if self.n_instrs >= MAX_TRACE_INSTRS:
                self.end_trace(str(loaded.addrs[index]))
                break
            visited.add(index)
            mark = (len(self.lines), self.buf, self.pending,
                    self.n_instrs, self.cur_eip, self.acc_dirty)
            try:
                index = self.emit_instruction(index)
            except _Unsupported:
                # roll back anything the rejected instruction emitted,
                # then end the trace just before it
                (n_lines, self.buf, self.pending, self.n_instrs,
                 self.cur_eip, self.acc_dirty) = mark
                del self.lines[n_lines:]
                if self.n_instrs == 0:
                    return None
                self.end_trace(str(loaded.addrs[index]))
                break
        if self.n_instrs == 0:
            return None
        return self.render()

    def render(self) -> str:
        body = self.lines
        prologue = [
            "r = cpu.regs",
            "f = cpu.flags",
            "charge = cpu.account.charge",
            "cat = cpu._category[-1]",
            "acc = 0",
        ]
        if self.uses_mem:
            prologue += [*_PAGE_CACHES,
                         "rm = cpu.read_mem",
                         "wm = cpu.write_mem",
                         "price = cpu._ram_price"]
        if self.uses_natives or self.ns:
            prologue += [
                "acct = cpu.account",
                "ep0 = cpu.code.epoch",
                "ig0 = L._igen",
                "wt0 = cpu.world_token",
            ]
        if self.has_backedge:
            body = ([f"it = {LOOP_CAP}", "while 1:"]
                    + ["    " + line for line in body])
        out = ["def __sb__(cpu):"]
        out += ["    " + line for line in prologue]
        out.append("    try:")
        out += ["        " + line for line in body]
        # every trace path ends in return/continue; this is unreachable
        # but keeps the block syntactically closed for empty loop tails
        out.append("        return")
        out.append("    finally:")
        out.append("        if acc:")
        out.append("            charge(cat, acc)")
        return "\n".join(out) + "\n"


def compile_superblock(cpu, loaded, head_addr: int) -> Optional[Superblock]:
    """Compile the trace starting at ``head_addr``; None if the head's
    first instruction is not compilable (``Cpu._run_loop`` blacklists
    the head)."""
    head_index = loaded.addr_to_index[head_addr]
    emitter = _Emitter(cpu, loaded, head_index)
    source = emitter.build()
    if source is None:
        return None
    emitter.ns["L"] = loaded
    emitter.ns.update(_MEM_HELPERS)
    code = compile(source, f"<sb {loaded.name}@{head_addr:#x}>", "exec")
    exec(code, emitter.ns)
    return Superblock(emitter.ns["__sb__"], head_addr, cpu.cycle_scale,
                      emitter.n_instrs, source)
