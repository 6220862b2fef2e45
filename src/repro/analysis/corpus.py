"""Negative corpus: broken driver binaries the verifier must reject.

Each entry is a small program that *looks* like rewriter output but
violates exactly one safety property — the regression suite proves the
verifier rejects every class, and the fault-injection example uses them
to demonstrate load-time refusal. The entries are deliberately built
through the normal assembler (or raw instructions where the assembler
itself would refuse) so they exercise the verifier, not the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa import Imm, Instruction, Label, Mem, Program, Reg, assemble

#: shared tail for hand-written fast-path sites
_SLOW_BLOCK = """
{slow}:
    push {r2}
    call __svm_slow_path
    addl $4, %esp
    jmp {retry}
"""


def _fastpath(retry: str, slow: str, mem: str, r1: str, r2: str, r3: str,
              access: str) -> str:
    """A syntactically valid figure-4 fast-path site (text form)."""
    return f"""
{retry}:
    leal {mem}, {r1}
    movl {r1}, {r2}
    andl $0xFFFFF000, {r1}
    movl {r1}, {r3}
    andl $0x00FFF000, {r1}
    shrl $9, {r1}
    cmpl __stlb({r1}), {r3}
    jne {slow}
    xorl __stlb+4({r1}), {r2}
    {access}
"""


@dataclass(frozen=True)
class CorpusEntry:
    """One broken binary plus the pass expected to reject it."""

    name: str
    description: str
    program: Program
    expect_pass: str            # pass name that must produce the finding
    protect_stack: bool = False
    #: exact finding key the pass must emit (None = any finding from the
    #: pass). The semantic passes (range/provenance/locks) always pin the
    #: key: these binaries are clean to every syntactic check, so the test
    #: must prove the *right* property caught them.
    expect_key: Optional[str] = None


def _uninstrumented_store() -> CorpusEntry:
    program = assemble("""
    .globl corpus_entry
corpus_entry:
    movl %eax, (%ebx)
    ret
""", name="corpus.uninstrumented_store")
    return CorpusEntry(
        name="uninstrumented_store",
        description="a raw store that bypasses the stlb entirely",
        program=program,
        expect_pass="svm",
    )


def _unbalanced_stack() -> CorpusEntry:
    program = assemble("""
    .globl corpus_entry
corpus_entry:
    push %eax
    push %ebx
    pop %ebx
    ret
""", name="corpus.unbalanced_stack")
    return CorpusEntry(
        name="unbalanced_stack",
        description="returns with 4 bytes still pushed on the frame",
        program=program,
        expect_pass="stack",
    )


def _raw_indirect_call() -> CorpusEntry:
    program = assemble("""
    .globl corpus_entry
corpus_entry:
    call *%eax
    ret
""", name="corpus.raw_indirect_call")
    return CorpusEntry(
        name="raw_indirect_call",
        description="indirect call not routed through __stlb_call_xlate",
        program=program,
        expect_pass="flow",
    )


def _wrong_scratch() -> CorpusEntry:
    # A well-formed fast-path site whose scratch register %esi carries a
    # live value that the sequence clobbers and never restores.
    text = """
    .globl corpus_entry
corpus_entry:
    push %ebp
    movl %esp, %ebp
    movl $5, %esi
""" + _fastpath("Lretry", "Lslow", "(%eax)", "%esi", "%ebx", "%ecx",
                "movl (%ebx), %edx") + """
    movl %esi, -4(%ebp)
    movl $0, %ebx
    pop %ebp
    ret
""" + _SLOW_BLOCK.format(slow="Lslow", r2="%ebx", retry="Lretry")
    program = assemble(text, name="corpus.wrong_scratch")
    return CorpusEntry(
        name="wrong_scratch",
        description="fast-path scratch register clobbers a live value",
        program=program,
        expect_pass="clobber",
    )


def _missing_flags_save() -> CorpusEntry:
    # Condition codes set before the site are consumed after it, but the
    # sequence (whose cmp overwrites them) is not pushf/popf-wrapped.
    text = """
    .globl corpus_entry
corpus_entry:
    cmpl $1, %edx
""" + _fastpath("Lretry", "Lslow", "(%edi)", "%eax", "%ecx", "%ebx",
                "movl (%ecx), %esi") + """
    je Lequal
    movl $0, %esi
Lequal:
    movl $0, %eax
    movl $0, %ebx
    movl $0, %esi
    ret
""" + _SLOW_BLOCK.format(slow="Lslow", r2="%ecx", retry="Lretry")
    program = assemble(text, name="corpus.missing_flags_save")
    return CorpusEntry(
        name="missing_flags_save",
        description="live condition codes cross an unwrapped SVM sequence",
        program=program,
        expect_pass="clobber",
    )


def _esp_escape() -> CorpusEntry:
    # The translated access itself stores the stack pointer into
    # driver-reachable memory — rejected when protect_stack is on.
    text = """
    .globl corpus_entry
corpus_entry:
""" + _fastpath("Lretry", "Lslow", "(%edi)", "%eax", "%ecx", "%ebx",
                "movl %esp, (%ecx)") + """
    movl $0, %eax
    movl $0, %ebx
    ret
""" + _SLOW_BLOCK.format(slow="Lslow", r2="%ecx", retry="Lretry")
    program = assemble(text, name="corpus.esp_escape")
    return CorpusEntry(
        name="esp_escape",
        description="stores the stack pointer through a translated pointer",
        program=program,
        expect_pass="stack",
        protect_stack=True,
    )


def _stlb_corruption() -> CorpusEntry:
    program = assemble("""
    .globl corpus_entry
corpus_entry:
    movl %eax, __stlb+4
    ret
""", name="corpus.stlb_corruption")
    return CorpusEntry(
        name="stlb_corruption",
        description="writes the stlb outside a recognized SVM sequence",
        program=program,
        expect_pass="svm",
    )


def _branch_outside() -> CorpusEntry:
    # The assembler refuses undefined branch targets, so this one is
    # built from raw instructions — exactly what a hostile or corrupted
    # binary handed to the loader could contain.
    program = Program(
        instructions=[
            Instruction("jmp", (Label("nowhere"),)),
            Instruction("ret", ()),
        ],
        labels={"corpus_entry": 0},
        globals_=("corpus_entry",),
        name="corpus.branch_outside",
    )
    return CorpusEntry(
        name="branch_outside",
        description="direct branch to a target outside the program",
        program=program,
        expect_pass="flow",
    )


# ---------------------------------------------------------------------------
# Semantically hostile binaries: every syntactic pass accepts these — the
# fast-path sites are shape-perfect, the stack balances, control flow is
# clean. Only the semantic rules (range / provenance / locks, and the svm
# pass's string-count bound on absint's values) can prove them unsafe.
# ---------------------------------------------------------------------------


#: a legitimate translate point (the shape the rewriter emits for string
#: ops): translates the pointer in ``src`` and leaves the result in ``dst``
_TRANSLATE_POINT = """
    push {src}
    call __svm_translate
    addl $4, %esp
    movl __svm_ret, {dst}
"""


def _cross_page_walk() -> CorpusEntry:
    # A legitimately translated pointer walked past the checked two-page
    # window: 4093 + 4 bytes crosses out of the mapped pair.
    text = """
    .globl corpus_entry
corpus_entry:
""" + _TRANSLATE_POINT.format(src="%edi", dst="%ecx") + """
    movl 4093(%ecx), %eax
    ret
"""
    return CorpusEntry(
        name="cross_page_walk",
        description="translated access strides past the checked page pair",
        program=assemble(text, name="corpus.cross_page_walk"),
        expect_pass="range",
        expect_key="range.cross_page",
    )


def _negative_walk() -> CorpusEntry:
    # Walking *backwards* from a translated pointer: the pair mapping
    # only guarantees the two pages forward of the checked page.
    text = """
    .globl corpus_entry
corpus_entry:
""" + _TRANSLATE_POINT.format(src="%edi", dst="%ecx") + """
    movl -4(%ecx), %eax
    ret
"""
    return CorpusEntry(
        name="negative_walk",
        description="translated access walks below the checked page",
        program=assemble(text, name="corpus.negative_walk"),
        expect_pass="range",
        expect_key="range.underflow",
    )


def _unbounded_string_count() -> CorpusEntry:
    # Both pointers of the string op are translations, but its count is
    # not clamped to a page: 100000 bytes from one translation run far
    # past the 8192-byte pair window it maps.
    text = """
    .globl corpus_entry
corpus_entry:
""" + _TRANSLATE_POINT.format(src="%edi", dst="%edi") + """
    movl $100000, %ecx
    rep stosb
    ret
"""
    return CorpusEntry(
        name="unbounded_string_count",
        description="rep string op whose count outruns its translation",
        program=assemble(text, name="corpus.unbounded_string_count"),
        expect_pass="svm",
        expect_key="svm.string_count",
    )


def _laundered_pointer() -> CorpusEntry:
    # Stores one translated (hypervisor-window) pointer through another
    # into driver data, where dom0 could read it back — leaking the
    # hypervisor mapping.
    text = """
    .globl corpus_entry
corpus_entry:
""" + _TRANSLATE_POINT.format(src="%edi", dst="%ecx") \
        + _TRANSLATE_POINT.format(src="%esi", dst="%edx") + """
    movl %ecx, (%edx)
    ret
"""
    return CorpusEntry(
        name="laundered_pointer",
        description="stores a translated pointer into driver-visible memory",
        program=assemble(text, name="corpus.laundered_pointer"),
        expect_pass="provenance",
        expect_key="provenance.leak",
    )


def _forged_arithmetic() -> CorpusEntry:
    # Non-walk arithmetic on a translated pointer: shifting it forges a
    # new hypervisor-window address the stlb never checked.
    text = """
    .globl corpus_entry
corpus_entry:
""" + _TRANSLATE_POINT.format(src="%edi", dst="%ecx") + """
    shll $1, %ecx
    ret
"""
    return CorpusEntry(
        name="forged_arithmetic",
        description="shifts a translated pointer to forge a new address",
        program=assemble(text, name="corpus.forged_arithmetic"),
        expect_pass="provenance",
        expect_key="provenance.forge",
    )


def _retranslate() -> CorpusEntry:
    # Feeding an already-translated pointer back through __svm_translate:
    # the double translation lands outside anything that was checked.
    text = """
    .globl corpus_entry
corpus_entry:
""" + _TRANSLATE_POINT.format(src="%edi", dst="%ecx") \
        + _TRANSLATE_POINT.format(src="%ecx", dst="%eax") + """
    ret
"""
    return CorpusEntry(
        name="retranslate",
        description="passes a translated pointer back into __svm_translate",
        program=assemble(text, name="corpus.retranslate"),
        expect_pass="provenance",
        expect_key="provenance.retranslate",
    )


def _lock_held_at_return() -> CorpusEntry:
    # Properly checked trylock, but the acquired path returns to the
    # hypervisor still holding the dom0 lock.
    text = """
    .globl corpus_entry
corpus_entry:
    pushl $0
    call spin_trylock
    addl $4, %esp
    testl %eax, %eax
    jne Lheld
    ret
Lheld:
    ret
"""
    return CorpusEntry(
        name="lock_held_at_return",
        description="returns to the hypervisor still holding a dom0 lock",
        program=assemble(text, name="corpus.lock_held_at_return"),
        expect_pass="locks",
        expect_key="locks.held_at_return",
    )


def _release_unheld() -> CorpusEntry:
    text = """
    .globl corpus_entry
corpus_entry:
    pushl $0
    call spin_unlock_irqrestore
    addl $4, %esp
    ret
"""
    return CorpusEntry(
        name="release_unheld",
        description="releases a lock no path ever acquired",
        program=assemble(text, name="corpus.release_unheld"),
        expect_pass="locks",
        expect_key="locks.release_unheld",
    )


def _blocking_under_lock() -> CorpusEntry:
    # Checked trylock and a matching release — but the critical section
    # calls a may-sleep routine while holding the spinlock.
    text = """
    .globl corpus_entry
corpus_entry:
    pushl $0
    call spin_trylock
    addl $4, %esp
    testl %eax, %eax
    je Lout
    pushl $10
    call msleep
    addl $4, %esp
    pushl $0
    call spin_unlock_irqrestore
    addl $4, %esp
Lout:
    ret
"""
    return CorpusEntry(
        name="blocking_under_lock",
        description="calls a may-sleep routine while holding a spinlock",
        program=assemble(text, name="corpus.blocking_under_lock"),
        expect_pass="locks",
        expect_key="locks.blocking_call",
    )


def _unchecked_trylock() -> CorpusEntry:
    text = """
    .globl corpus_entry
corpus_entry:
    pushl $0
    call spin_trylock
    addl $4, %esp
    ret
"""
    return CorpusEntry(
        name="unchecked_trylock",
        description="ignores the trylock result entirely",
        program=assemble(text, name="corpus.unchecked_trylock"),
        expect_pass="locks",
        expect_key="locks.unchecked_trylock",
    )


def build_negative_corpus() -> List[CorpusEntry]:
    """All violation classes, at least one entry each."""
    return [
        _uninstrumented_store(),
        _unbalanced_stack(),
        _raw_indirect_call(),
        _wrong_scratch(),
        _missing_flags_save(),
        _esp_escape(),
        _stlb_corruption(),
        _branch_outside(),
        _cross_page_walk(),
        _negative_walk(),
        _unbounded_string_count(),
        _laundered_pointer(),
        _forged_arithmetic(),
        _retranslate(),
        _lock_held_at_return(),
        _release_unheld(),
        _blocking_under_lock(),
        _unchecked_trylock(),
    ]
