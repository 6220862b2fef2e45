"""Pinned verifier verdicts: every finding, proof annotation and rewritten
byte the static verifier and the rewriter produce for the shipped drivers
and the negative corpus, held fixed while their analyses are reshaped.

For e1000 and rtl8139, with ``protect_stack`` off and on, in annotated
and hostile mode, ``pinned_verdicts.json`` holds the sorted findings
(pass, index, key, message), the elision proof annotations, and the
sha256 of the text of the rewritten binary and of the elided binary. For
each negative-corpus entry it holds the sorted findings. Pass statistics
are deliberately not pinned: they describe how a verdict was reached,
not the verdict.

The fixture is only rewritten on purpose, when a change is meant to move
a verdict: ``PYTHONPATH=src python -m tests.analysis.test_pinned_verdicts``.
"""

import hashlib
import json
import os

import pytest

from repro.analysis import build_negative_corpus, verify_program
from repro.core.rewriter import apply_elision, rewrite_driver
from repro.drivers import DRIVER_SPECS

FIXTURE = os.path.join(os.path.dirname(__file__), "pinned_verdicts.json")

DRIVER_CASES = [f"{driver}/{stack}/{mode}"
                for driver in ("e1000", "rtl8139")
                for stack in ("plain", "protect_stack")
                for mode in ("annotated", "hostile")]


def _findings(report):
    return [[f.passname, f.index, f.key, f.message]
            for f in report.sorted_findings()]


def _sha256(program) -> str:
    return hashlib.sha256(program.to_text().encode()).hexdigest()


def driver_verdict(case: str) -> dict:
    driver, stack, mode = case.split("/")
    protect_stack = stack == "protect_stack"
    program = DRIVER_SPECS[driver].build_program()
    rewritten, stats = rewrite_driver(program, protect_stack=protect_stack)
    annotations = stats.annotations if mode == "annotated" else None
    report = verify_program(rewritten, annotations=annotations,
                            protect_stack=protect_stack)
    elided, _ = apply_elision(rewritten, report.proofs)
    return {
        "findings": _findings(report),
        "proofs": [repr(p) for p in report.proofs],
        "rewritten_sha256": _sha256(rewritten),
        "elided_sha256": _sha256(elided),
    }


def corpus_verdicts() -> dict:
    return {entry.name: _findings(verify_program(
                entry.program, protect_stack=entry.protect_stack))
            for entry in build_negative_corpus()}


def observe() -> dict:
    return {"drivers": {case: driver_verdict(case) for case in DRIVER_CASES},
            "corpus": corpus_verdicts()}


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", DRIVER_CASES)
def test_driver_verdict_matches_fixture(case, pinned):
    got, want = driver_verdict(case), pinned["drivers"][case]
    assert got["findings"] == want["findings"]
    assert got["proofs"] == want["proofs"]
    assert got["rewritten_sha256"] == want["rewritten_sha256"]
    assert got["elided_sha256"] == want["elided_sha256"]


def test_corpus_verdicts_match_fixture(pinned):
    got = corpus_verdicts()
    assert sorted(got) == sorted(pinned["corpus"])
    for name in sorted(got):
        assert got[name] == pinned["corpus"][name], name


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    with open(FIXTURE, "w") as fh:
        json.dump(observe(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
