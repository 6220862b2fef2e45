"""Assembler parsing: operands, directives, labels, sizes, errors."""

import pytest

from repro.isa import AssemblerError, Imm, Label, Mem, Reg, assemble
from repro.isa.assembler import Assembler


def one(text, constants=None):
    program = assemble(text, constants=constants)
    assert len(program.instructions) == 1
    return program.instructions[0]


class TestOperandParsing:
    def test_immediate_decimal(self):
        ins = one("movl $42, %eax")
        assert ins.operands[0] == Imm(42)

    def test_immediate_hex(self):
        ins = one("movl $0xff00, %eax")
        assert ins.operands[0] == Imm(0xFF00)

    def test_immediate_negative(self):
        ins = one("addl $-8, %esp")
        assert ins.operands[0] == Imm(-8)

    def test_immediate_symbol(self):
        ins = one("movl $handler, %eax")
        assert ins.operands[0] == Imm(0, symbol="handler")

    def test_immediate_symbol_plus_offset(self):
        ins = one("movl $handler+8, %eax")
        assert ins.operands[0] == Imm(8, symbol="handler")

    def test_register(self):
        ins = one("movl %eax, %ebx")
        assert ins.operands == (Reg("eax"), Reg("ebx"))

    def test_mem_base_only(self):
        ins = one("movl (%eax), %ebx")
        assert ins.operands[0] == Mem(base="eax")

    def test_mem_disp_base(self):
        ins = one("movl 12(%eax), %ebx")
        assert ins.operands[0] == Mem(disp=12, base="eax")

    def test_mem_negative_disp(self):
        ins = one("movl -4(%ebp), %eax")
        assert ins.operands[0] == Mem(disp=-4, base="ebp")

    def test_mem_base_index_scale(self):
        ins = one("movl 8(%eax,%ecx,4), %ebx")
        assert ins.operands[0] == Mem(disp=8, base="eax", index="ecx",
                                      scale=4)

    def test_mem_index_default_scale(self):
        ins = one("movl (%eax,%ecx), %ebx")
        assert ins.operands[0] == Mem(base="eax", index="ecx", scale=1)

    def test_mem_absolute_symbol(self):
        ins = one("movl counter, %eax")
        assert ins.operands[0] == Mem(symbol="counter")

    def test_mem_symbol_with_base(self):
        ins = one("movl table(%ecx), %eax")
        assert ins.operands[0] == Mem(symbol="table", base="ecx")

    def test_mem_symbol_plus_disp(self):
        ins = one("movl table+4(%ecx), %eax")
        assert ins.operands[0] == Mem(symbol="table", disp=4, base="ecx")

    def test_constant_folding(self):
        ins = one("movl FIELD(%eax), %ebx", constants={"FIELD": 24})
        assert ins.operands[0] == Mem(disp=24, base="eax")

    def test_constant_in_immediate(self):
        ins = one("cmpl $SIZE, %eax", constants={"SIZE": 64})
        assert ins.operands[0] == Imm(64)

    def test_constant_sum(self):
        ins = one("movl $A+B, %eax", constants={"A": 3, "B": 4})
        assert ins.operands[0] == Imm(7)

    def test_unknown_register_rejected(self):
        with pytest.raises(AssemblerError):
            one("movl %foo, %eax")


class TestMnemonics:
    def test_size_suffixes(self):
        assert one("movb $1, %al").size == 1
        assert one("movw $1, %ax").size == 2
        assert one("movl $1, %eax").size == 4

    def test_movzbl_source_width(self):
        ins = one("movzbl (%eax), %ebx")
        assert ins.mnemonic == "movzb"
        assert ins.size == 1

    def test_movzwl_source_width(self):
        ins = one("movzwl (%eax), %ebx")
        assert ins.mnemonic == "movzw"
        assert ins.size == 2

    def test_string_with_prefix(self):
        ins = one("rep movsl")
        assert ins.mnemonic == "movs"
        assert ins.prefix == "rep"
        assert ins.size == 4

    def test_repe_normalised(self):
        assert one("repz cmpsb").prefix == "repe"
        assert one("repnz scasb").prefix == "repne"

    def test_string_requires_suffix(self):
        with pytest.raises(AssemblerError):
            one("rep movs")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            one("frobl %eax, %ebx")

    def test_suffix_on_jump_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jmpl out\nout: nop")

    def test_indirect_call_register(self):
        ins = one("call *%eax")
        assert ins.indirect
        assert ins.operands == (Reg("eax"),)

    def test_indirect_call_memory(self):
        ins = one("call *8(%esi)")
        assert ins.indirect
        assert ins.operands[0] == Mem(disp=8, base="esi")

    def test_direct_call_is_label(self):
        program = assemble("call helper\nhelper: ret")
        assert program.instructions[0].operands == (Label("helper"),)


class TestArity:
    @pytest.mark.parametrize("text", [
        "movl %eax",
        "addl %eax",
        "pushl %eax, %ebx",
        "ret %eax",
        "incl",
        "cmpl %eax",
    ])
    def test_wrong_arity_rejected(self, text):
        with pytest.raises(AssemblerError):
            one(text)

    def test_two_memory_operands_rejected(self):
        with pytest.raises(AssemblerError):
            one("movl (%eax), (%ebx)")


class TestLabelsAndDirectives:
    def test_label_indexing(self):
        program = assemble("nop\nfoo:\nnop\nbar: nop")
        assert program.labels == {"foo": 1, "bar": 2}

    def test_trailing_label(self):
        program = assemble("nop\nend:")
        assert program.labels["end"] == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a: nop\na: nop")

    def test_undefined_jump_target_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jmp nowhere")

    def test_call_to_import_allowed(self):
        program = assemble("call external_fn\nret")
        assert "external_fn" in program.imports()

    def test_globl(self):
        program = assemble(".globl f\nf: ret")
        assert program.globals_ == ("f",)

    def test_comm(self):
        program = assemble(".comm stats, 16\nret")
        assert program.comm == {"stats": 16}

    def test_comm_with_constant_size(self):
        program = assemble(".comm buf, N", constants={"N": 128})
        assert program.comm == {"buf": 128}

    def test_comments_stripped(self):
        program = assemble("nop  # comment\nnop ; other\n# full line\n")
        assert len(program.instructions) == 2

    def test_unsupported_directive(self):
        with pytest.raises(AssemblerError):
            assemble(".data")

    def test_dot_local_labels(self):
        program = assemble(".Lloop: jmp .Lloop")
        assert ".Lloop" in program.labels


class TestRoundTrip:
    def test_to_text_reassembles(self):
        source = """
.globl f
.comm counter, 4
f:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %eax
    incl counter
    cmpl $0, %eax
    je out
    rep movsl
    movsxb (%eax), %ecx
    movsxw %ax, %edx
    movsxb %cl, %esi
    movsxw 2(%ebx), %edi
    movzbl (%eax), %ecx
    movzwl 4(%ebx), %edx
    call *%eax
out:
    ret
"""
        program = assemble(source)
        text = program.to_text()
        again = assemble(text)
        # compare the decoded fields, not format(): a mnemonic that
        # formats without its width formats the same on both sides
        assert [(i.mnemonic, i.size, i.operands)
                for i in again.instructions] == \
               [(i.mnemonic, i.size, i.operands)
                for i in program.instructions]
        assert again.labels == program.labels
        assert again.comm == program.comm
