"""Pinned observability outputs: six fixed runs whose profile stacks and
trace records must stay byte-identical while the code that marks layers
(spans, profile phases, trace guards) is reshaped.

Each run builds a configuration, sends 8 tx and 8 rx packets with
nothing observed, then 8 tx and 8 rx packets with the tracer and the
profiler on. ``pinned_outputs.json`` holds, per run, the profile's
collapsed stacks (cycles and counts) and a sha256 of the canonical trace
(events plus spans), stored with its per-kind and per-span-name counts
so a failure says what moved.

The fixture is only rewritten on purpose, when a change is meant to move
these outputs: ``PYTHONPATH=src python -m tests.obs.test_pinned_outputs``.
"""

import hashlib
import json
import os
from collections import Counter

import pytest

from repro.configs import build, build_domU_twin, build_scale
from repro.obs.prof import collapsed_stacks

FIXTURE = os.path.join(os.path.dirname(__file__), "pinned_outputs.json")
PACKETS = 8


RUNS = {
    "domU-twin": lambda: build("domU-twin", n_nics=1),
    "domU-2nic": lambda: build("domU", n_nics=2),
    "linux": lambda: build("linux"),
    "scale": lambda: build_scale(n_guests=4, vcpus=2, num_queues=2,
                                 n_nics=2),
    "domU-twin-upcalls": lambda: build_domU_twin(n_nics=1, n_upcalls=2),
    # one svm fault armed after warm-up: abort, quarantine, degraded
    # traffic and reload all land in the observed window
    "domU-twin-fault": lambda: build("domU-twin", n_nics=1),
}


def _traffic(system):
    system.transmit_packets(PACKETS)
    system.receive_packets(PACKETS)


def observe(run: str) -> dict:
    """Run ``run`` and return its pinned outputs."""
    system = RUNS[run]()
    _traffic(system)
    if run == "domU-twin-fault":
        system.twin.svm.inject_fault()
    obs = system.machine.obs
    obs.profiler.reset()
    obs.profiler.enable()
    obs.enable_tracing()
    try:
        _traffic(system)
    finally:
        obs.disable_tracing()
        obs.profiler.disable()
    trace = obs.snapshot()
    canonical = json.dumps({"events": trace["events"],
                            "spans": trace["spans"]},
                           sort_keys=True, separators=(",", ":"))
    return {
        "profile": collapsed_stacks(obs.profiler.snapshot()),
        "trace": {
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "kinds": dict(sorted(Counter(
                e["kind"] for e in trace["events"]).items())),
            "spans": dict(sorted(Counter(
                s["name"] for s in trace["spans"]).items())),
        },
    }


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_fixture(run, pinned):
    got, want = observe(run), pinned[run]
    assert got["trace"]["kinds"] == want["trace"]["kinds"]
    assert got["trace"]["spans"] == want["trace"]["spans"]
    assert got["trace"]["sha256"] == want["trace"]["sha256"]
    assert got["profile"] == want["profile"]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    with open(FIXTURE, "w") as fh:
        json.dump({run: observe(run) for run in sorted(RUNS)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
