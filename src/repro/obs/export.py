"""Exporters: JSON snapshot, text dashboard, Chrome ``trace_event``.

A *trace file* is one JSON document::

    {"schema": "repro-trace/v1", "meta": {...},
     "counters": {...}, "histograms": {...},
     "events": [...], "spans": [...]}

written by :meth:`repro.obs.Obs.save` and consumed by the
``python -m repro.obs`` CLI. The Chrome exporter produces the
``trace_event`` JSON-object format loadable in ``chrome://tracing`` /
Perfetto: spans become complete ("X") events, point records become
instants ("i"), timestamps are virtual cycles converted to microseconds
at the machine's clock rate.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

TRACE_SCHEMA = "repro-trace/v1"
#: fallback clock for traces without meta (the paper's 3.0 GHz Xeon)
DEFAULT_CPU_HZ = 3_000_000_000


def load_trace(path: str) -> Dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: not a {TRACE_SCHEMA} trace (schema={doc.get('schema')!r})"
        )
    return doc


# ---------------------------------------------------------------------------
# text dashboard
# ---------------------------------------------------------------------------

def render_dashboard(doc: Dict) -> str:
    """Counters + histogram summaries as a terminal table."""
    lines: List[str] = []
    meta = doc.get("meta") or {}
    title = "observability dashboard"
    if meta.get("config"):
        title += f" — {meta['config']}"
    lines += [title, "=" * len(title)]
    counters = doc.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("counters")
        width = max(len(k) for k in counters)
        for name, value in sorted(counters.items()):
            if value:
                lines.append(f"  {name:<{width}}  {value:>12}")
    hists = doc.get("histograms") or {}
    if hists:
        lines.append("")
        lines.append("histograms (cycles)")
        for name, h in sorted(hists.items()):
            if h.get("count"):
                lines.append(
                    f"  {name}: n={h['count']} mean={h['mean']:.0f} "
                    f"min={h['min']} p50~{h['p50']} p99~{h['p99']} "
                    f"max={h['max']}"
                )
    events = doc.get("events") or []
    lines.append("")
    lines.append(f"trace ring: {len(events)} records, "
                 f"{len(doc.get('spans') or [])} completed spans, "
                 f"{(doc.get('meta') or {}).get('dropped', 0)} overwritten")
    return "\n".join(lines)


def format_event(ev: Dict) -> str:
    args = " ".join(
        f"{k}={_fmt_val(v)}" for k, v in (ev.get("args") or {}).items()
    )
    span = f" span={ev['span']}" if ev.get("span") else ""
    return f"[{ev['ts']:>10}] #{ev['seq']:<6} {ev['kind']:<16}{span} {args}"


def _fmt_val(v) -> str:
    if isinstance(v, int) and v > 0xFFFF:
        return f"{v:#x}"
    return str(v)


def render_tail(events: List[Dict], n: int = 16,
                title: str = "trace ring tail") -> str:
    """The crash-forensics view: the last ``n`` ring records (none for
    ``n <= 0``)."""
    chosen = events[max(len(events) - n, 0):]
    lines = [f"{title} (last {len(chosen)} of {len(events)} records)"]
    lines += ["  " + format_event(ev) for ev in chosen]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# span rendering (per-packet reconstruction)
# ---------------------------------------------------------------------------

def _span_children(spans: List[Dict]) -> Dict[int, List[Dict]]:
    children: Dict[int, List[Dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return children


def _subtree_ids(root: Dict, children: Dict[int, List[Dict]]) -> List[int]:
    ids = [root["id"]]
    queue = [root["id"]]
    while queue:
        for s in children.get(queue.pop(), ()):
            ids.append(s["id"])
            queue.append(s["id"])
    return ids


def render_span(doc: Dict, root: Dict, show_events: bool = True) -> str:
    """One span subtree as an indented timeline — the reconstruction of
    a single packet's path through the stack."""
    spans = doc.get("spans") or []
    events = doc.get("events") or []
    children = _span_children(spans)
    ids = set(_subtree_ids(root, children))
    depth_of = {root["id"]: 0}
    rows = []  # (t0, kind, text)

    def walk(span: Dict, depth: int):
        dur = (span["t1"] - span["t0"]) if span.get("t1") is not None else 0
        rows.append((span["t0"], 0, span["id"],
                     "  " * depth + f"▶ {span['name']} "
                     f"[span {span['id']}] +{dur} cyc "
                     + " ".join(f"{k}={_fmt_val(v)}"
                                for k, v in (span.get("args") or {}).items())))
        for child in sorted(children.get(span["id"], ()),
                            key=lambda s: s["t0"]):
            depth_of[child["id"]] = depth + 1
            walk(child, depth + 1)

    walk(root, 0)
    if show_events:
        for ev in events:
            if ev.get("span") in ids and ev["kind"] not in ("span.begin",
                                                            "span.end"):
                depth = depth_of.get(ev["span"], 0) + 1
                args = " ".join(f"{k}={_fmt_val(v)}"
                                for k, v in (ev.get("args") or {}).items())
                rows.append((ev["ts"], 1, ev["seq"],
                             "  " * depth + f"· {ev['kind']} {args}"))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    base = root["t0"]
    return "\n".join(f"{r[0] - base:>8} {r[3]}" for r in rows)


def render_spans(doc: Dict, name: Optional[str] = None,
                 limit: int = 4, show_events: bool = True) -> str:
    """Render up to ``limit`` spans, the newest: top-level ones, or every
    span named ``name`` wherever it nests (``packet.rx`` sits under an
    ``irq``); none for ``limit <= 0``."""
    spans = doc.get("spans") or []
    roots = [s for s in spans
             if (s["parent"] == 0 if name is None else s["name"] == name)]
    if not roots:
        return (f"no completed spans"
                + (f" named {name!r}" if name else "")
                + " in this trace")
    out = []
    for root in roots[max(len(roots) - limit, 0):]:
        out.append(render_span(doc, root, show_events=show_events))
        out.append("")
    return "\n".join(out).rstrip()


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def chrome_trace(doc: Dict) -> Dict:
    """Convert a trace file to the Chrome ``trace_event`` JSON-object
    format (catapult / chrome://tracing / Perfetto)."""
    meta = doc.get("meta") or {}
    cpu_hz = meta.get("cpu_hz") or DEFAULT_CPU_HZ
    us_per_cycle = 1e6 / cpu_hz
    pid = 1
    trace_events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": meta.get("config", "repro")},
    }]
    for s in doc.get("spans") or []:
        t1 = s["t1"] if s.get("t1") is not None else s["t0"]
        trace_events.append({
            "name": s["name"], "ph": "X", "pid": pid, "tid": 1,
            "ts": s["t0"] * us_per_cycle,
            "dur": max(0.001, (t1 - s["t0"]) * us_per_cycle),
            "args": dict(s.get("args") or {}, span=s["id"],
                         parent=s["parent"]),
        })
    for ev in doc.get("events") or []:
        if ev["kind"] in ("span.begin", "span.end"):
            continue
        trace_events.append({
            "name": ev["kind"], "ph": "i", "pid": pid, "tid": 1,
            "ts": ev["ts"] * us_per_cycle, "s": "t",
            "args": dict(ev.get("args") or {}, span=ev.get("span", 0)),
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": doc.get("schema"),
                      "cpu_hz": cpu_hz,
                      **{k: v for k, v in meta.items() if k != "cpu_hz"}},
    }
