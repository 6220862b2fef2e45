"""Abstract interpretation: soundness against concrete execution,
elision coverage floors, and deterministic report ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_program, value_contains, verify_program
from repro.analysis.absint import TOP, _Analyzer
from repro.analysis.corpus import _SLOW_BLOCK, _fastpath
from repro.analysis.report import Finding, VerifyReport
from repro.analysis.verifier import _function_entries
from repro.core.rewriter import rewrite_driver
from repro.drivers import DRIVER_SPECS
from repro.isa import assemble
from repro.isa.encoder import decode_program, encode_program
from repro.isa.registers import GPRS
from repro.machine import AddressSpace, Machine

STACK_TOP = 0xC0104000

# ---------------------------------------------------------------------------
# random program generation: register/immediate ALU + moves + forward
# conditional branches + the chunk-count clamp — the fragment the
# abstract domain models exactly
# ---------------------------------------------------------------------------

#: esp/ebp excluded: the generated code must leave the call stack intact
_REGS = ["eax", "ecx", "edx", "ebx", "esi", "edi"]
_ALU = ["addl", "subl", "andl", "orl", "xorl"]
_UNARY = ["incl", "decl", "negl", "notl"]
_JCC = ["je", "jne", "jl", "jg", "jle", "jge", "jb", "ja", "js", "jns"]

_imm = st.integers(-(2 ** 31), 2 ** 31 - 1)

_instr = st.one_of(
    st.tuples(st.just("movimm"), st.sampled_from(_REGS), _imm),
    st.tuples(st.just("movreg"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(_ALU), st.sampled_from(_REGS), _imm),
    st.tuples(st.just("alureg"), st.sampled_from(_ALU),
              st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(["shll", "shrl", "sarl"]),
              st.sampled_from(_REGS), st.integers(0, 31)),
    st.tuples(st.sampled_from(_UNARY), st.sampled_from(_REGS)),
    # the rewriter's unsigned-min clamp on an and-bounded register,
    # optionally with a second way into its mov (a branch on unrelated
    # flags), which must leave the register unrefined
    st.tuples(st.just("clamp"), st.sampled_from(_REGS),
              st.sampled_from(_REGS),
              st.one_of(st.integers(0, 0x2000), st.integers(0, 2 ** 32 - 1)),
              st.one_of(st.none(), st.tuples(st.sampled_from(_JCC),
                                             st.sampled_from(_REGS), _imm))),
)

_block = st.lists(_instr, min_size=1, max_size=4)

#: (blocks, branches): branches[i] guards the fall-through from block i
#: with a compare and a *forward* conditional jump (None = plain flow)
_programs = st.tuples(
    st.lists(_block, min_size=2, max_size=4),
    st.lists(st.one_of(
        st.none(),
        st.tuples(st.sampled_from(_JCC), st.sampled_from(_REGS), _imm),
    ), min_size=3, max_size=3),
    st.data(),
)


def _render(op, tag: str) -> str:
    kind = op[0]
    if kind == "clamp":
        _, r, s, mask, entry = op
        lines = [f"    andl ${mask}, %{r}"]
        if entry is not None:
            jcc, reg, imm = entry
            lines += [f"    cmpl ${imm}, %{reg}", f"    {jcc} M{tag}"]
        lines += [f"    cmpl %{s}, %{r}", f"    jbe C{tag}"]
        if entry is not None:
            lines.append(f"M{tag}:")
        lines += [f"    movl %{s}, %{r}", f"C{tag}:"]
        return "\n".join(lines)
    if kind == "movimm":
        return f"    movl ${op[2]}, %{op[1]}"
    if kind == "movreg":
        return f"    movl %{op[1]}, %{op[2]}"
    if kind == "alureg":
        return f"    {op[1]} %{op[2]}, %{op[3]}"
    if kind in _UNARY:
        return f"    {kind} %{op[1]}"
    if kind in ("shll", "shrl", "sarl"):
        return f"    {kind} ${op[2]}, %{op[1]}"
    return f"    {kind} ${op[2]}, %{op[1]}"


def _build_source(blocks, branches, data) -> str:
    lines = [".globl f", "f:"]
    n = len(blocks)
    for i, block in enumerate(blocks):
        if i:
            lines.append(f"L{i}:")
        lines.extend(_render(op, f"{i}_{j}") for j, op in enumerate(block))
        branch = branches[i] if i < len(branches) else None
        if branch is not None and i + 1 < n:
            # only forward targets: the CFG stays loop-free, so the
            # concrete run always terminates
            target = data.draw(st.integers(i + 1, n - 1),
                               label=f"target{i}")
            jcc, reg, imm = branch
            lines.append(f"    cmpl ${imm}, %{reg}")
            lines.append(f"    {jcc} L{target}")
    lines.append("    ret")
    return "\n".join(lines) + "\n"


def _trace_concrete(program):
    """Run ``program`` on the interpreter, recording each executed
    instruction index and the register file *before* it runs."""
    m = Machine()
    space = AddressSpace("test", m.phys, m.hypervisor_table)
    space.map_new_pages(0xC0100000, 4)
    m.cpu.address_space = space
    loaded = m.load_program(program, 0x08000000, extern={}, name="prop")
    trace = []

    def make_hook(index):
        def hook(cpu):
            trace.append((index, {r: cpu.get_reg(r) for r in GPRS}))
        return hook

    for index in range(len(program.instructions)):
        loaded.instrument[index] = make_hook(index)
    m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
    return trace


class TestSoundnessProperty:
    """Every concrete register value is contained in the abstract value:
    random encoder-round-tripped programs are executed on the real
    interpreter and checked state-by-state against the analysis."""

    @settings(max_examples=300, deadline=None)
    @given(_programs)
    def test_concrete_execution_contained(self, generated):
        blocks, branches, data = generated
        source = _build_source(blocks, branches, data)
        program = assemble(source, name="prop")
        # the paper's pipeline disassembles real binaries: round-trip
        # through the object format so the analyzed program is the
        # decoder's output, not the assembler's
        program = decode_program(encode_program(program),
                                 labels=program.labels,
                                 name=program.name)
        result = analyze_program(program, entries=[0])
        trace = _trace_concrete(program)
        assert trace, "program did not execute"

        env = {}
        writes = {
            i: ins.registers_written()
            for i, ins in enumerate(program.instructions)
        }
        prev = None
        for index, regs in trace:
            if prev is not None:
                for reg in writes[prev]:
                    env[("def", prev, reg)] = regs[reg]
            else:
                for reg in GPRS:
                    env[("entry", 0, reg)] = regs[reg]
            state = result.in_states[index]
            assert state is not None, \
                f"analysis thinks instruction {index} is unreachable"
            for pos, reg in enumerate(GPRS):
                value = state[0][pos]
                assert value_contains(value, regs[reg], env), (
                    f"@{index} {program.instructions[index].format()}: "
                    f"%{reg}={regs[reg]:#x} not in {value}\n{source}")
            prev = index


class TestClampRefinement:
    """``cmpl %s, %r; jbe L; movl %s, %r; L:`` runs the mov only when %r
    is the larger (unsigned), so %r leaves it no larger than before."""

    @staticmethod
    def _eax_at_ret(before="", second_way_in=None):
        """eax at the ``ret`` after a clamp of eax = 4096 by ecx;
        ``second_way_in`` labels the ``jbe`` or the ``mov`` as the target
        of an earlier branch on unrelated flags."""
        lines = [".globl f", "f:", "    movl $4096, %eax", before]
        if second_way_in:
            lines += ["    cmpl $0, %edx", "    je M"]
        lines += ["    cmpl %ecx, %eax"]
        lines += ["M:"] if second_way_in == "jbe" else []
        lines += ["    jbe L"]
        lines += ["M:"] if second_way_in == "mov" else []
        lines += ["    movl %ecx, %eax", "L:", "    ret"]
        program = assemble("\n".join(lines) + "\n")
        result = analyze_program(program, entries=[0])
        return result.reg_value(len(program.instructions) - 1, "eax")

    def test_clamp_keeps_the_upper_bound(self):
        # without the rule: 4096 joined with a copy of the entry ecx
        assert self._eax_at_ret() == ("I", 0, 4096)

    @pytest.mark.parametrize("where", ["mov", "jbe"])
    def test_second_way_in_leaves_the_register_unrefined(self, where):
        assert self._eax_at_ret(second_way_in=where) == TOP

    @pytest.mark.parametrize("before, want", [
        ("    movl $7, %ecx", ("I", 7, 4096)),
        ("    andl $0xFFFF, %ecx", ("I", 0, 4096)),
        ("    movl $9000, %ecx", ("I", 0, 4096)),
    ])
    def test_bound_meets_the_copied_interval(self, before, want):
        assert self._eax_at_ret(before=before) == want


class TestFactKills:
    """A register write retires exactly the register-keyed availability
    facts in its precomputed kill set, so that set must hold every such
    fact the fixpoint can carry that depends on a register it writes."""

    @pytest.mark.parametrize("name", sorted(DRIVER_SPECS))
    @pytest.mark.parametrize("protect_stack", [False, True])
    def test_every_register_keyed_fact_is_killable(self, name,
                                                   protect_stack):
        program = DRIVER_SPECS[name].build_program()
        rewritten, _ = rewrite_driver(program, protect_stack=protect_stack)
        entries = [index for _, index in _function_entries(rewritten)]
        result = analyze_program(rewritten, entries=entries)
        analyzer = _Analyzer(rewritten, result.sites,
                             result.translate_points)
        writers = {reg: [i for i, (op, ins) in enumerate(
                             zip(analyzer.ops, rewritten.instructions))
                         if op[0] != "nop" and reg in ins.registers_written()]
                   for reg in GPRS}
        facts = {f for state in result.in_states if state is not None
                 for f in state[1] if f[1][0] == "reg"}
        assert facts
        for fact in facts:
            for reg in {fact[1][1], fact[1][2]} - {None}:
                for i in writers[reg]:
                    assert fact in analyzer.fact_kills[i], (fact, i)

    @pytest.mark.parametrize("clobber, proven", [("", True),
                                                 ("movl $0, %esi", False)])
    def test_restored_copy_dies_with_its_register(self, clobber, proven):
        """A spill restore into another register carries site A's fact
        to that register; a later write to it must retire the copy, or
        site B, through the rewritten register, would be proven in A's
        window."""
        program = assemble("""
    .globl f
f:
""" + _fastpath("LretryA", "LslowA", "(%ebx)", "%eax", "%ecx", "%edx",
                "movl (%ecx), %edi") + f"""
    movl %ebx, __svm_spill0
    movl __svm_spill0, %esi
    {clobber}
""" + _fastpath("LretryB", "LslowB", "4(%esi)", "%eax", "%ecx", "%edx",
                "movl (%ecx), %edi") + """
    ret
""" + _SLOW_BLOCK.format(slow="LslowA", r2="%ecx", retry="LretryA")
            + _SLOW_BLOCK.format(slow="LslowB", r2="%ecx", retry="LretryB"))
        result = analyze_program(program, entries=[0])
        site_a, site_b = sorted(result.sites, key=lambda s: s.lea)
        assert [(p.site_lea, p.anchor_lea, p.delta)
                for p in result.proofs] \
            == ([(site_b.lea, site_a.lea, 4)] if proven else [])


class TestElisionCoverage:
    """Acceptance floor: >=60% of each driver's SVM fast-path sites are
    proven elidable by the range pass (annotated mode, both drivers)."""

    @pytest.mark.parametrize("name", sorted(DRIVER_SPECS))
    def test_driver_coverage_floor(self, name):
        program = DRIVER_SPECS[name].build_program()
        rewritten, stats = rewrite_driver(program)
        report = verify_program(rewritten, annotations=stats.annotations,
                                name=name)
        assert report.ok, report.format()
        rng = report.stats["range"]
        assert rng["sites_total"] > 0
        coverage = rng["sites_proven"] / rng["sites_total"]
        assert coverage >= 0.60, (
            f"{name}: only {rng['sites_proven']}/{rng['sites_total']} "
            f"({coverage:.0%}) fast-path sites proven")
        assert len(report.proofs) == rng["sites_elided"]


class TestReportOrdering:
    def test_sorted_findings_deterministic(self):
        """Findings sort by (index, passname, key, message) regardless of
        the order passes emitted them."""
        report = VerifyReport(program_name="p", mode="hostile")
        report.add("svm", 9, "zz")
        report.add("flow", 2, "a call", key="flow.call")
        report.add("clobber", 2, "b clobber")
        report.add("range", 2, "walk", key="range.cross_page")
        report.add("svm", 0, "first")
        ordered = report.sorted_findings()
        assert [(f.index, f.passname) for f in ordered] == [
            (0, "svm"), (2, "clobber"), (2, "flow"), (2, "range"),
            (9, "svm"),
        ]
        # stable under shuffling: sorting the reversed list agrees
        report.findings.reverse()
        assert report.sorted_findings() == ordered

    def test_driver_report_orders_by_instruction(self):
        """A real hostile-mode report keeps index-major order."""
        program = assemble("""
    .globl corpus_entry
corpus_entry:
    movl %eax, (%ebx)
    movl %ecx, (%edx)
    ret
""", name="two_findings")
        report = verify_program(program)
        ordered = report.sorted_findings()
        assert len(ordered) >= 2
        indexes = [f.index for f in ordered]
        assert indexes == sorted(indexes)
