"""Exporters and the ``python -m repro.obs`` CLI: trace files, per-packet
span reconstruction, Chrome trace_event output."""

import json

import pytest

from repro.configs import build
from repro.obs import TRACE_SCHEMA, chrome_trace, load_trace, render_spans
from repro.obs.__main__ import main as obs_main
from repro.obs.prof import call_tree, load_profile


@pytest.fixture(scope="module")
def tx_trace(tmp_path_factory):
    """One traced domU-twin transmit run, saved to disk."""
    path = tmp_path_factory.mktemp("obs") / "tx.json"
    system = build("domU-twin", n_nics=1)
    system.transmit_packets(8)              # warm up untraced
    system.machine.obs.enable_tracing()
    system.transmit_packets(2)
    system.machine.obs.disable_tracing()
    system.machine.obs.save(str(path), meta={
        "config": "domU-twin", "direction": "tx", "packets": 2,
        "cpu_hz": system.machine.cpu_hz,
    })
    return str(path)


class TestTraceFile:
    def test_schema_and_sections(self, tx_trace):
        doc = load_trace(tx_trace)
        assert doc["schema"] == TRACE_SCHEMA
        for key in ("meta", "counters", "histograms", "events", "spans"):
            assert key in doc
        assert doc["meta"]["config"] == "domU-twin"

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_trace(str(bad))

    def test_packet_tx_span_reconstruction(self, tx_trace):
        """Acceptance: one netperf tx packet is reconstructable as a
        single correlated span containing its stlb lookups, support
        calls and NIC descriptor writes."""
        doc = load_trace(tx_trace)
        tx_spans = [s for s in doc["spans"] if s["name"] == "packet.tx"]
        assert len(tx_spans) == 2
        span = tx_spans[-1]
        assert span["t1"] is not None and span["t1"] >= span["t0"]
        correlated = [e for e in doc["events"] if e["span"] == span["id"]]
        kinds = {e["kind"] for e in correlated}
        assert "svm.hit" in kinds            # stlb lookups
        assert "support.call" in kinds       # Table-1 support calls
        assert "nic.desc" in kinds           # NIC descriptor write-back
        assert "nic.tx" in kinds             # the frame left the device
        # events stay inside the span's time window
        assert all(span["t0"] <= e["ts"] <= span["t1"] for e in correlated)

    def test_render_spans_text(self, tx_trace):
        doc = load_trace(tx_trace)
        text = render_spans(doc, name="packet.tx", limit=1)
        assert "packet.tx" in text
        assert "svm.hit" in text
        assert "nic.tx" in text


class TestChromeExport:
    def test_chrome_trace_shape(self, tx_trace):
        doc = load_trace(tx_trace)
        out = chrome_trace(doc)
        evs = out["traceEvents"]
        assert evs[0]["ph"] == "M"           # process_name metadata
        xs = [e for e in evs if e["ph"] == "X"]
        assert any(e["name"] == "packet.tx" for e in xs)
        assert all(e["dur"] > 0 for e in xs)
        instants = [e for e in evs if e["ph"] == "i"]
        assert instants and all("span" in e["args"] for e in instants)
        # span.begin/end bookkeeping records must not leak into the export
        assert all(e["name"] not in ("span.begin", "span.end")
                   for e in evs)
        # timestamps are microseconds: cycles * 1e6 / cpu_hz
        cycles0 = min(s["t0"] for s in doc["spans"])
        us0 = min(e["ts"] for e in xs)
        assert us0 == pytest.approx(cycles0 * 1e6 / doc["meta"]["cpu_hz"])

    def test_chrome_json_serializable(self, tx_trace):
        out = chrome_trace(load_trace(tx_trace))
        json.dumps(out)                      # must not raise


class TestCli:
    def test_record_summary_render_chrome(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = obs_main(["record", "--config", "domU-twin", "--packets", "2",
                       "--warmup", "8", "-o", str(trace)])
        assert rc == 0 and trace.exists()
        assert obs_main(["summary", str(trace)]) == 0
        assert obs_main(["render", str(trace), "--span", "packet.tx"]) == 0
        chrome = tmp_path / "t.chrome.json"
        assert obs_main(["chrome", str(trace), "-o", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "packet.tx" in out
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_render_a_span_nested_under_an_irq(self, tmp_path, capsys):
        trace = tmp_path / "rx.json"
        assert obs_main(["record", "--config", "domU-twin", "--direction",
                         "rx", "--packets", "2", "--warmup", "8",
                         "-o", str(trace)]) == 0
        capsys.readouterr()
        assert obs_main(["render", str(trace), "--span", "packet.rx",
                         "--no-events"]) == 0
        out = capsys.readouterr().out
        assert out.count("▶ packet.rx") == 2
        assert "irq" not in out          # the enclosing span is not shown

    def test_tail(self, tx_trace, capsys):
        assert obs_main(["tail", tx_trace, "-n", "4"]) == 0
        assert "trace ring tail" in capsys.readouterr().out

    def test_a_count_of_zero_shows_nothing(self, tx_trace, capsys):
        assert obs_main(["tail", tx_trace, "-n", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ring tail (last 0 of ")
        assert out.count("\n") == 1
        assert render_spans(load_trace(tx_trace), limit=0) == ""

    @pytest.mark.parametrize("argv", [
        ["tail", "TRACE", "-n", "-1"],
        ["render", "TRACE", "--limit", "-1"],
        ["prof", "diff", "TRACE", "TRACE", "--limit", "-2"],
    ])
    def test_negative_counts_are_rejected(self, tx_trace, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            obs_main([tx_trace if arg == "TRACE" else arg for arg in argv])
        assert exc.value.code == 2
        assert "must be 0 or more" in capsys.readouterr().err


class TestProfileFlameChart:
    """``prof flame --chrome``: a profile has no timeline, so the call
    tree is laid out as a flame chart, children side by side inside
    their parent."""

    def test_one_complete_event_per_frame_inside_its_parent(self, tmp_path):
        prof = tmp_path / "tx.prof.json"
        assert obs_main(["prof", "record", "--config", "domU-twin",
                         "--packets", "16", "--warmup", "8",
                         "-o", str(prof)]) == 0
        chrome = tmp_path / "tx.chrome.json"
        assert obs_main(["prof", "flame", str(prof), "--chrome",
                         "-o", str(chrome)]) == 0
        events = [e for e in json.loads(chrome.read_text())["traceEvents"]
                  if e["ph"] == "X"]

        # every call-tree frame with its parent's index, depth first and
        # widest child first, as the chart lays them out
        frames = []

        def walk(node, parent):
            for child in sorted(node["children"].values(),
                                key=lambda c: (-c["total"], c["name"])):
                frames.append((child, parent))
                walk(child, len(frames) - 1)

        walk(call_tree(load_profile(str(prof))), None)
        assert [e["name"] for e in events] == [f["name"] for f, _ in frames]

        cycles_per_us = 3_000_000_000 / 1e6

        def interval(event):
            return (round(event["ts"] * cycles_per_us),
                    round((event["ts"] + event["dur"]) * cycles_per_us))

        for event, (frame, parent) in zip(events, frames):
            assert event["dur"] == pytest.approx(frame["total"]
                                                 / cycles_per_us)
            if parent is not None:
                start, end = interval(event)
                outer_start, outer_end = interval(events[parent])
                assert outer_start <= start <= end <= outer_end
