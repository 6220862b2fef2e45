"""Self-contained profile exporters: flamegraph SVG and Chrome trace.

No third-party dependencies: the SVG is generated directly from the
call tree (widths proportional to total cycles, one row per stack
depth, deterministic layer colors) and the Chrome export lays the call
tree out as spans by a depth-first walk with cumulative offsets, so a
profile — which has no timeline — still renders as a flame chart in
``chrome://tracing`` / Perfetto through the trace exporter.
"""

from __future__ import annotations

from typing import Dict, List

from .export import chrome_trace
from .prof import call_tree

#: Fill colors by profile category (figure 7/8 legend order); frames
#: deeper in a stack inherit their root category's hue.
LAYER_COLORS = {
    "dom0": (87, 148, 87),      # green: driver-domain / native kernel
    "domU": (87, 116, 180),     # blue: guest kernel
    "Xen": (196, 146, 64),      # amber: hypervisor
    "e1000": (185, 84, 84),     # red: the driver binary itself
}
_DEFAULT_COLOR = (130, 130, 130)

_ROW_H = 17
_MIN_W = 0.4          # px: drop boxes narrower than this
_FONT = "monospace"


def _color(layer: str, name: str) -> str:
    r, g, b = LAYER_COLORS.get(layer, _DEFAULT_COLOR)
    # deterministic per-frame jitter so adjacent boxes are discernible
    salt = sum(ord(c) for c in name) % 32
    return f"rgb({min(255, r + salt)},{min(255, g + salt)},{min(255, b + salt)})"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def flamegraph_svg(doc: Dict, title: str = "", width: int = 1200) -> str:
    """Render the profile as a flamegraph SVG string (root at the
    bottom, like the classic tool)."""
    root = call_tree(doc)
    total = root["total"]
    title = title or doc.get("meta", {}).get("title", "cycle profile")

    def depth_of(node) -> int:
        kids = node["children"].values()
        return 1 + max((depth_of(k) for k in kids), default=0)

    depth = depth_of(root)
    height = (depth + 2) * _ROW_H + 24
    scale = (width - 20) / total if total else 0.0
    boxes: List[str] = []

    def emit(node, x: float, level: int, layer: str):
        w = node["total"] * scale
        if w < _MIN_W:
            return
        y = height - (level + 2) * _ROW_H
        name = node["name"]
        pct = 100.0 * node["total"] / total if total else 0.0
        label = name if w > 8 * len(name) * 0.7 else (
            name[: max(0, int(w / 7)) - 1] + "…" if w > 21 else "")
        boxes.append(
            f'<g><title>{_escape(name)}: {node["total"]} cycles '
            f'({pct:.2f}%), self={node["self"]}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{max(w, _MIN_W):.2f}" '
            f'height="{_ROW_H - 1}" fill="{_color(layer, name)}" '
            f'rx="1"/>'
            + (f'<text x="{x + 2:.2f}" y="{y + 12}" font-size="11" '
               f'font-family="{_FONT}">{_escape(label)}</text>'
               if label else "")
            + "</g>"
        )
        cx = x
        for child in sorted(node["children"].values(),
                            key=lambda c: (-c["total"], c["name"])):
            emit(child, cx, level + 1,
                 layer if level > 0 else child["name"])
            cx += child["total"] * scale

    # the root row spans everything; children of root are the layers
    emit(root, 10.0, 0, "")
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="{_FONT}">'
        f'<rect width="100%" height="100%" fill="#fdfdfd"/>'
        f'<text x="{width / 2:.0f}" y="16" text-anchor="middle" '
        f'font-size="13">{_escape(title)} — {total} cycles</text>'
    )
    return head + "".join(boxes) + "</svg>"


def chrome_trace_profile(doc: Dict) -> Dict:
    """Render the profile as a Chrome ``trace_event`` flame chart: a DFS
    over the call tree lays each frame out as a span of its total
    cycles, starting where its previous sibling ended, and
    :func:`~repro.obs.export.chrome_trace` emits the spans."""
    spans: List[Dict] = []

    def walk(node, start: int, parent: int):
        for child in sorted(node["children"].values(),
                            key=lambda c: (-c["total"], c["name"])):
            spans.append({"id": len(spans) + 1, "parent": parent,
                          "name": child["name"],
                          "t0": start, "t1": start + child["total"],
                          "args": {"cycles": child["total"],
                                   "self_cycles": child["self"]}})
            walk(child, start, len(spans))
            start += child["total"]

    root = call_tree(doc)
    walk(root, 0, 0)
    return chrome_trace({
        "schema": doc.get("schema"),
        "meta": dict(doc.get("meta", {}), total_cycles=root["total"]),
        "spans": spans,
    })
