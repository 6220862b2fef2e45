"""The static verifier: both shipped drivers verify clean, every corpus
class is rejected with a precise diagnostic, and the annotation
cross-check catches tampered metadata."""

import dataclasses

import pytest

from repro.analysis import (
    build_negative_corpus,
    find_fastpath_sites,
    find_stack_check_sites,
    find_translate_points,
    verify_program,
)
from repro.core import rewrite_driver
from repro.drivers import DRIVER_SPECS
from repro.isa import assemble


def rewrite(text, protect_stack=False):
    return rewrite_driver(assemble(text), protect_stack=protect_stack)


class TestDriversVerifyClean:
    @pytest.mark.parametrize("name", sorted(DRIVER_SPECS))
    def test_annotated_mode_zero_findings(self, name):
        program = DRIVER_SPECS[name].build_program()
        rewritten, stats = rewrite_driver(program)
        report = verify_program(rewritten, annotations=stats.annotations)
        assert report.mode == "annotated"
        assert report.findings == []
        assert report.ok

    @pytest.mark.parametrize("name", sorted(DRIVER_SPECS))
    def test_hostile_mode_zero_findings(self, name):
        # no rewriter metadata at all: the binary must stand on its own
        program = DRIVER_SPECS[name].build_program()
        rewritten, _ = rewrite_driver(program)
        report = verify_program(rewritten)
        assert report.mode == "hostile"
        assert report.findings == []

    def test_every_memory_site_accounted_for(self):
        program = DRIVER_SPECS["e1000"].build_program()
        rewritten, stats = rewrite_driver(program)
        report = verify_program(rewritten, annotations=stats.annotations)
        svm = report.stats["svm"]
        assert svm["fast_path_sites"] >= stats.memory_rewritten
        assert svm["routed_indirects"] == stats.indirect_rewritten
        assert svm["fast_path_sites"] > 100     # the driver is not trivial

    def test_protect_stack_drivers_still_clean(self):
        program = DRIVER_SPECS["e1000"].build_program()
        rewritten, stats = rewrite_driver(program, protect_stack=True)
        report = verify_program(rewritten, annotations=stats.annotations,
                                protect_stack=True)
        assert report.findings == []


class TestNegativeCorpus:
    @pytest.mark.parametrize("entry", build_negative_corpus(),
                             ids=lambda e: e.name)
    def test_rejected_by_expected_pass(self, entry):
        report = verify_program(entry.program,
                                protect_stack=entry.protect_stack)
        assert not report.ok, entry.name
        assert any(f.passname == entry.expect_pass for f in report.errors), \
            report.format()

    @pytest.mark.parametrize("entry", build_negative_corpus(),
                             ids=lambda e: e.name)
    def test_diagnostics_are_instruction_indexed(self, entry):
        report = verify_program(entry.program,
                                protect_stack=entry.protect_stack)
        for finding in report.errors:
            assert 0 <= finding.index < len(entry.program.instructions)
            assert f"@{finding.index}" in finding.format()

    def test_corpus_covers_all_seven_classes(self):
        corpus = build_negative_corpus()
        assert len(corpus) >= 14
        # syntactic (PR 1) plus the semantic abstract-interpretation passes
        assert {e.expect_pass for e in corpus} == {
            "svm", "flow", "stack", "clobber",
            "range", "provenance", "locks",
        }

    @pytest.mark.parametrize(
        "entry",
        [e for e in build_negative_corpus() if e.expect_key is not None],
        ids=lambda e: e.name)
    def test_semantic_entries_rejected_with_exact_key(self, entry):
        """The semantic corpus binaries are clean to every syntactic
        pass; only the expected range/provenance/locks property — with
        the exact finding key — may reject them."""
        report = verify_program(entry.program,
                                protect_stack=entry.protect_stack)
        assert not report.ok, entry.name
        assert any(f.key == entry.expect_key for f in report.errors), \
            report.format()
        assert {f.passname for f in report.errors} == {entry.expect_pass}, \
            report.format()


class TestPatternMatchers:
    def test_fastpath_sites_found_with_wrapping(self):
        out, stats = rewrite("""
.globl f
f:
    cmpl $1, %eax
    movl (%ebx), %ecx
    je t
t:  ret
""")
        (site,) = find_fastpath_sites(out)
        assert site.flags_wrapped               # flags live across the site
        assert len(set(site.regs)) == 3
        assert out.instructions[site.access].memory_operand().base == \
            site.regs[1]

    def test_spilled_site_extends_over_saves(self):
        out, stats = rewrite(".globl f\nf: movl (%ebx), %eax\nret")
        assert stats.spills == 1
        (site,) = find_fastpath_sites(out)
        assert site.spilled and site.restored
        assert site.start < site.lea            # the save precedes the lea

    def test_stack_check_site_matched(self):
        out, stats = rewrite("""
.globl f
f:
    movl %eax, -16(%ebp,%ecx,4)
    ret
""", protect_stack=True)
        (site,) = find_stack_check_sites(out)
        assert out.instructions[site.access].memory_operand().index == "ecx"

    def test_translate_points_in_string_loop(self):
        out, _ = rewrite(".globl f\nf: rep movsl\nret")
        points = find_translate_points(out)
        assert len(points) == 2                 # esi and edi
        assert {p.source for p in points.values()} == {"esi", "edi"}

    def test_string_pointers_proved_translated(self):
        out, _ = rewrite(".globl f\nf: rep movsl\nret")
        report = verify_program(out)
        assert report.ok
        assert report.stats["svm"]["string_accesses"] == 1

    @pytest.mark.parametrize("between, ok", [
        ("nop", True),
        ("movl %edi, %ecx\nmovl %ecx, %edi", True),     # copies keep it
        ("addl $8, %edi", False),       # a walk: the range pass skips strings
    ])
    def test_string_pointer_must_be_an_unwalked_translation(self, between,
                                                            ok):
        program = assemble(f"""
.globl f
f:
    pushl %edi
    call __svm_translate
    addl $4, %esp
    movl __svm_ret, %edi
    {between}
    stosl
    ret
""")
        report = verify_program(program)
        assert report.ok == ok
        if not ok:
            (finding,) = report.errors
            assert finding.passname == "svm" and "%edi" in finding.message


    @pytest.mark.parametrize("count, ok", [
        ("movl $1024, %ecx", True),             # 1024 longs: one page
        ("movl $1025, %ecx", False),
        ("andl $0x3FF, %ecx", True),
        ("nop", False),                         # the caller's count
        # the rewriter's clamp: ecx = min(ecx, eax) with eax <= 1024
        ("movl $1024, %eax\ncmpl %ecx, %eax\njbe L\nmovl %ecx, %eax\n"
         "L:\nmovl %eax, %ecx", True),
    ])
    def test_rep_count_must_stay_within_a_page(self, count, ok):
        program = assemble(f"""
.globl f
f:
    pushl %edi
    call __svm_translate
    addl $4, %esp
    movl __svm_ret, %edi
    {count}
    rep stosl
    ret
""")
        report = verify_program(program)
        assert report.ok == ok, report.format()
        assert report.stats["svm"].get("string_accesses", 0) == int(ok)
        if not ok:
            (finding,) = report.errors
            assert finding.key == "svm.string_count"


class TestAnnotationCrossCheck:
    def _rewritten(self):
        return rewrite(".globl f\nf: pushl %esi\nmovl (%ebx), %eax\n"
                       "popl %esi\nret")

    def test_clean_annotations_accepted(self):
        out, stats = self._rewritten()
        report = verify_program(out, annotations=stats.annotations)
        assert report.ok

    def test_tampered_scratch_rejected(self):
        out, stats = self._rewritten()
        (ann,) = stats.annotations
        forged = dataclasses.replace(ann, scratch=("esi", "edi", "ebx"))
        report = verify_program(out, annotations=[forged])
        assert any(f.passname == "annot" for f in report.errors)

    def test_shifted_range_rejected(self):
        out, stats = self._rewritten()
        (ann,) = stats.annotations
        forged = dataclasses.replace(ann, start=ann.start + 1,
                                     end=ann.end + 1)
        report = verify_program(out, annotations=[forged])
        assert any(f.passname == "annot" for f in report.errors)

    def test_unknown_kind_rejected(self):
        out, stats = self._rewritten()
        (ann,) = stats.annotations
        forged = dataclasses.replace(ann, kind="mystery")
        report = verify_program(out, annotations=[forged])
        assert any(f.passname == "annot" for f in report.errors)


class TestReportFormat:
    def test_reject_report_lists_findings(self):
        entry = build_negative_corpus()[0]
        report = verify_program(entry.program)
        text = report.format()
        assert "REJECT" in text
        assert "[svm]" in text

    def test_pass_report_has_stats(self):
        out, stats = rewrite(".globl f\nf: pushl %esi\nmovl (%ebx), %eax\n"
                             "popl %esi\nret")
        text = verify_program(out, annotations=stats.annotations).format()
        assert "PASS" in text and "fast_path_sites=1" in text
