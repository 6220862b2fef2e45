"""``python -m repro.obs`` — record and render traces, profiles, health.

Subcommands:

* ``record``  — build a configuration, run packets with tracing on, and
  save a trace file (the quickest way to get something to look at);
* ``summary`` — the counters/histograms dashboard of a saved trace;
* ``render``  — reconstruct spans (e.g. one transmit packet end-to-end);
* ``tail``    — the last N ring records (crash forensics view);
* ``chrome``  — convert to Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto;
* ``prof record|report|flame|diff`` — the cycle-attribution profiler:
  capture a ``repro-profile/v1`` document, print its call tree /
  collapsed stacks, render a flamegraph SVG or Chrome flame chart, or
  diff two profiles stack by stack;
* ``health``  — run a workload under the watchdog and save the health
  snapshots.

Examples::

    python -m repro.obs record --config domU-twin --packets 4 -o t.json
    python -m repro.obs render t.json --span packet.tx
    python -m repro.obs prof record --config domU-twin -o prof.json
    python -m repro.obs prof flame prof.json -o prof.svg
    python -m repro.obs prof diff base.json new.json
    python -m repro.obs health --config domU-twin -o health.json
"""

from __future__ import annotations

import argparse
import json
import sys

from .export import (
    chrome_trace,
    load_trace,
    render_dashboard,
    render_spans,
    render_tail,
)


def _cmd_record(args) -> int:
    from ..configs import build

    system = build(args.config, n_nics=args.nics)
    op = (system.transmit_packets if args.direction == "tx"
          else system.receive_packets)
    # warm up with tracing off: steady state, like the profile runs
    op(args.warmup)
    system.machine.obs.enable_tracing()
    done = op(args.packets)
    system.machine.obs.disable_tracing()
    meta = {
        "config": args.config,
        "direction": args.direction,
        "packets": done,
        "warmup": args.warmup,
        "nics": args.nics,
        "cpu_hz": system.machine.cpu_hz,
    }
    system.machine.obs.save(args.output, meta=meta)
    print(f"recorded {done} {args.direction} packets on {args.config} "
          f"-> {args.output}")
    return 0


def _cmd_summary(args) -> int:
    print(render_dashboard(load_trace(args.trace)))
    return 0


def _cmd_render(args) -> int:
    doc = load_trace(args.trace)
    print(render_spans(doc, name=args.span, limit=args.limit,
                       show_events=not args.no_events))
    return 0


def _cmd_tail(args) -> int:
    doc = load_trace(args.trace)
    print(render_tail(doc.get("events") or [], n=args.n))
    return 0


def _cmd_chrome(args) -> int:
    doc = load_trace(args.trace)
    out = chrome_trace(doc)
    with open(args.output, "w") as fh:
        json.dump(out, fh)
    print(f"wrote {len(out['traceEvents'])} trace_event records "
          f"-> {args.output}")
    return 0


# -- profiler ----------------------------------------------------------------


def _cmd_prof_record(args) -> int:
    from ..workloads.profile import profile_config

    kwargs = {"elide": True} if args.elide else {}
    profile = profile_config(args.config, args.direction,
                             packets=args.packets, warmup=args.warmup,
                             n_nics=args.nics, profiled=True, **kwargs)
    doc = profile.attribution
    doc["meta"]["title"] = f"{args.config} {args.direction}"
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=1)
    cats = ", ".join(f"{c}={v}" for c, v in sorted(doc["categories"].items())
                     if v)
    print(f"profiled {args.packets} {args.direction} packets on "
          f"{args.config}: {doc['total']} cycles ({cats})\n"
          f"{len(doc['samples'])} samples -> {args.output}")
    return 0


def _cmd_prof_report(args) -> int:
    from .prof import format_collapsed, format_tree, load_profile

    doc = load_profile(args.profile)
    if args.collapsed:
        print(format_collapsed(doc))
    else:
        print(format_tree(doc, min_share=args.min_share))
    return 0


def _cmd_prof_flame(args) -> int:
    from .flame import chrome_trace_profile, flamegraph_svg
    from .prof import load_profile

    doc = load_profile(args.profile)
    if args.chrome:
        out = chrome_trace_profile(doc)
        with open(args.output, "w") as fh:
            json.dump(out, fh)
        print(f"wrote {len(out['traceEvents'])} flame-chart events "
              f"-> {args.output}")
    else:
        svg = flamegraph_svg(doc, title=args.title or "")
        with open(args.output, "w") as fh:
            fh.write(svg)
        print(f"wrote flamegraph ({len(svg)} bytes) -> {args.output}")
    return 0


def _cmd_prof_diff(args) -> int:
    from .prof import format_diff, load_profile

    print(format_diff(load_profile(args.before), load_profile(args.after),
                      limit=args.limit))
    return 0


# -- health ------------------------------------------------------------------


def _cmd_health(args) -> int:
    from ..configs import build
    from .health import HealthMonitor

    system = build(args.config, n_nics=args.nics)
    monitor = HealthMonitor(system.machine, twin=system.twin,
                            virq_defer_slo=args.virq_slo)
    op = (system.transmit_packets if args.direction == "tx"
          else system.receive_packets)
    remaining = args.packets
    while remaining > 0:
        chunk = min(args.probe_every, remaining)
        op(chunk)
        remaining -= chunk
        monitor.probe()
    doc = monitor.save(args.output)
    status = "ok" if doc["ok"] else f"NOT ok (worst {doc['worst_severity']})"
    print(f"{doc['probes']} probes, {doc['findings']} findings, {status} "
          f"-> {args.output}")
    return 0 if doc["ok"] else 1


def _count(text: str) -> int:
    """An argparse type: a record or span count, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="record and render observability traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run a workload with tracing on")
    rec.add_argument("--config", default="domU-twin",
                     choices=("linux", "dom0", "domU", "domU-twin"))
    rec.add_argument("--direction", default="tx", choices=("tx", "rx"))
    rec.add_argument("--packets", type=int, default=4)
    rec.add_argument("--warmup", type=int, default=32)
    rec.add_argument("--nics", type=int, default=1)
    rec.add_argument("-o", "--output", default="trace.json")
    rec.set_defaults(fn=_cmd_record)

    summ = sub.add_parser("summary", help="counters/histograms dashboard")
    summ.add_argument("trace")
    summ.set_defaults(fn=_cmd_summary)

    ren = sub.add_parser("render", help="reconstruct spans from a trace")
    ren.add_argument("trace")
    ren.add_argument("--span", default=None,
                     help="only spans with this name (e.g. packet.tx)")
    ren.add_argument("--limit", type=_count, default=4,
                     help="render at most N spans (newest)")
    ren.add_argument("--no-events", action="store_true",
                     help="span skeleton only, hide correlated records")
    ren.set_defaults(fn=_cmd_render)

    tail = sub.add_parser("tail", help="last N trace-ring records")
    tail.add_argument("trace")
    tail.add_argument("-n", type=_count, default=16)
    tail.set_defaults(fn=_cmd_tail)

    chrome = sub.add_parser("chrome", help="export Chrome trace_event JSON")
    chrome.add_argument("trace")
    chrome.add_argument("-o", "--output", default="trace.chrome.json")
    chrome.set_defaults(fn=_cmd_chrome)

    prof = sub.add_parser("prof", help="cycle-attribution profiler")
    prof_sub = prof.add_subparsers(dest="prof_command", required=True)

    prec = prof_sub.add_parser("record",
                               help="profile a workload (repro-profile/v1)")
    prec.add_argument("--config", default="domU-twin",
                      choices=("linux", "dom0", "domU", "domU-twin"))
    prec.add_argument("--direction", default="tx", choices=("tx", "rx"))
    prec.add_argument("--packets", type=int, default=256)
    prec.add_argument("--warmup", type=int, default=64)
    prec.add_argument("--nics", type=int, default=1)
    prec.add_argument("--elide", action="store_true",
                      help="domU-twin only: proof-based check elision")
    prec.add_argument("-o", "--output", default="profile.json")
    prec.set_defaults(fn=_cmd_prof_record)

    prep = prof_sub.add_parser("report", help="call tree / folded stacks")
    prep.add_argument("profile")
    prep.add_argument("--collapsed", action="store_true",
                      help="folded flamegraph lines instead of the tree")
    prep.add_argument("--min-share", type=float, default=0.002,
                      help="prune tree frames below this share of total")
    prep.set_defaults(fn=_cmd_prof_report)

    pfl = prof_sub.add_parser("flame", help="flamegraph SVG or flame chart")
    pfl.add_argument("profile")
    pfl.add_argument("-o", "--output", default="profile.svg")
    pfl.add_argument("--title", default=None)
    pfl.add_argument("--chrome", action="store_true",
                     help="Chrome trace_event flame chart instead of SVG")
    pfl.set_defaults(fn=_cmd_prof_flame)

    pdf = prof_sub.add_parser("diff", help="stack-by-stack profile diff")
    pdf.add_argument("before")
    pdf.add_argument("after")
    pdf.add_argument("--limit", type=_count, default=30)
    pdf.set_defaults(fn=_cmd_prof_diff)

    health = sub.add_parser("health",
                            help="run a workload under the watchdog")
    health.add_argument("--config", default="domU-twin",
                        choices=("linux", "dom0", "domU", "domU-twin"))
    health.add_argument("--direction", default="tx", choices=("tx", "rx"))
    health.add_argument("--packets", type=int, default=128)
    health.add_argument("--probe-every", type=int, default=32)
    health.add_argument("--nics", type=int, default=1)
    health.add_argument("--virq-slo", type=int, default=200_000)
    health.add_argument("-o", "--output", default="health.json")
    health.set_defaults(fn=_cmd_health)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:               # e.g. piped into `head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
