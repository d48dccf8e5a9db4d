"""The SVG renderer as it stood before the per-render number memo.

Kept verbatim as a differential oracle: every number goes through
``f"{x:g}"`` where it is written, every id and text through
``saxutils.escape``, and every line through ``_Svg.add``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple
from xml.sax.saxutils import escape

from hagent import model as m


class MissingLayout(Exception):
    """Raised only for models with no flow nodes at all."""


ROLE_CODES = {m.MANAGER: "m", m.WORKER: "w"}
REFLECTION_CODES = {
    m.ReflectionKind.SELF: "s",
    m.ReflectionKind.CROSS: "c",
    m.ReflectionKind.HUMAN: "h",
}
COLLABORATION_CODES = {
    m.CollaborationMode.COMPETITION: "c",
    m.CollaborationMode.DEBATE: "d",
    m.CollaborationMode.ROLE: "r",
    m.CollaborationMode.VOTING: "v",
}
MERGE_CODES = {
    m.MergeStrategy.VOTING_MAJORITY: "v-ma",
    m.MergeStrategy.VOTING_ABSOLUTE: "v-a",
    m.MergeStrategy.VOTING_MINORITY: "v-mi",
    m.MergeStrategy.ROLE_LEADER_DRIVEN: "r-l",
    m.MergeStrategy.ROLE_COMPOSED: "r-c",
    m.MergeStrategy.COMPETITION_FASTEST: "c-f",
    m.MergeStrategy.COMPETITION_MOST_COMPLETE: "c-mc",
}


def role_code(role: str) -> str:
    # custom roles are worker-equivalent in the closed letter vocabulary
    return ROLE_CODES.get(role, "w")


LANE_HEIGHT = 130
LANE_HEADER = 150
POOL_GAP = 40
RANK_STEP = 170
LEFT_MARGIN = 40
TASK_W, TASK_H = 110, 60
GATE_R = 24  # half-diagonal of the diamond
EVENT_R = 18

_STYLE = """\
    .shape { fill: #ffffff; stroke: #333333; stroke-width: 1.5; }
    .lane-box { fill: #fafafa; stroke: #888888; }
    .pool-box { fill: none; stroke: #444444; stroke-width: 2; }
    .label { font-family: Helvetica, sans-serif; font-size: 12px; text-anchor: middle; fill: #222; }
    .code { font-family: Helvetica, sans-serif; font-size: 11px; font-weight: bold; text-anchor: middle; fill: #111; }
    .trust { font-family: Helvetica, sans-serif; font-size: 10px; text-anchor: middle; fill: #555; }
    .flow { fill: none; stroke: #555555; stroke-width: 1.2; marker-end: url(#arrow); }
    .msgflow { fill: none; stroke: #555555; stroke-width: 1.2; stroke-dasharray: 6 4; marker-end: url(#arrow); }
    .agent { fill: none; stroke: #0a6; stroke-width: 1.4; }"""

# fixed robot-head glyph used as the agent marker, referenced via <use>
_AGENT_GLYPH = """\
    <g id="agent-marker" class="agent">
      <rect x="-7" y="-5" width="14" height="11" rx="2"/>
      <circle cx="-3" cy="0" r="1.4"/>
      <circle cx="3" cy="0" r="1.4"/>
      <line x1="0" y1="-5" x2="0" y2="-9"/>
      <circle cx="0" cy="-10" r="1.4"/>
    </g>"""


def _ranks(pool: m.Pool) -> Dict[str, int]:
    """Left-to-right rank per node: longest path from the sources."""
    succ = {n.id: [] for n in pool.nodes}
    indeg = {n.id: 0 for n in pool.nodes}
    for flow in pool.flows:
        succ[flow.source_id].append(flow.target_id)
        indeg[flow.target_id] += 1
    rank = {n.id: 0 for n in pool.nodes}
    # ready nodes leave in id order; a sorted list is already a heap
    queue = sorted(n for n, d in indeg.items() if d == 0)
    remaining = dict(indeg)
    while queue:
        node = heapq.heappop(queue)
        for s in succ[node]:
            rank[s] = max(rank[s], rank[node] + 1)
            remaining[s] -= 1
            if remaining[s] == 0:
                heapq.heappush(queue, s)
    # nodes on cycles never reach indegree 0; rank them after their
    # lowest-ranked predecessor deterministically
    for node in sorted(remaining):
        if remaining[node] > 0:
            rank[node] = max(rank[node], 1)
    return rank


class _Svg:
    def __init__(self):
        self.body: List[str] = []

    def add(self, line: str):
        self.body.append("  " + line)


def _escape_attr(value: str) -> str:
    """``value`` escaped for a double-quoted attribute: escape() plus '"'."""
    return escape(value, {'"': "&quot;"})


def _use_agent(svg, x, y):
    svg.add(f'<use href="#agent-marker" x="{x:g}" y="{y:g}"/>')


def _code_text(svg, x, y, code, element_id):
    svg.add(
        f'<text class="code" x="{x:g}" y="{y:g}" '
        f'data-hagent-code="{_escape_attr(code)}" '
        f'data-element-id="{_escape_attr(element_id)}">{escape(code)}</text>'
    )


def render_svg(
    model: m.ProcessModel,
    layout: Optional[Dict[str, Tuple[float, float, float, float]]] = None,
) -> bytes:
    """Render the model to SVG 1.1 bytes; layout hints override auto-layout."""
    layout = layout or {}
    if not any(True for _ in model.iter_nodes()):
        raise MissingLayout("model has no flow nodes to lay out")

    # geometry: pools stacked vertically, horizontal lanes inside
    geom: Dict[str, Tuple[float, float, float, float]] = {}  # id -> x,y,w,h (center)
    pool_boxes = []
    lane_boxes = []
    y_cursor = 20.0
    max_x = 0.0
    for pool in model.pools:
        ranks = _ranks(pool)
        pool_top = y_cursor
        for lane in pool.lanes:
            lane_top = y_cursor
            cy = lane_top + LANE_HEIGHT / 2
            for node_id in lane.node_ids:
                node = model.index[node_id]
                if node_id in layout:
                    geom[node_id] = tuple(layout[node_id])
                else:
                    cx = LEFT_MARGIN + LANE_HEADER + ranks[node_id] * RANK_STEP
                    if isinstance(node, (m.Task, m.SubProcess)):
                        geom[node_id] = (cx, cy, TASK_W, TASK_H)
                    elif isinstance(node, m.Gateway):
                        geom[node_id] = (cx, cy, 2 * GATE_R, 2 * GATE_R)
                    else:
                        geom[node_id] = (cx, cy, 2 * EVENT_R, 2 * EVENT_R)
                max_x = max(max_x, geom[node_id][0] + geom[node_id][2])
            lane_boxes.append((lane, pool, lane_top))
            y_cursor += LANE_HEIGHT
        pool_boxes.append((pool, pool_top, y_cursor - pool_top))
        y_cursor += POOL_GAP
    width = max(max_x + 60, LEFT_MARGIN + LANE_HEADER + 200)
    height = y_cursor

    svg = _Svg()
    for pool, top, h in pool_boxes:
        svg.add(
            f'<rect class="pool-box" data-element-id="{_escape_attr(pool.id)}" '
            f'x="{LEFT_MARGIN:g}" y="{top:g}" width="{width - LEFT_MARGIN - 20:g}" '
            f'height="{h:g}"/>'
        )
        label = pool.name or pool.id
        if pool.multi_instance:
            label += " (multi)"
        svg.add(
            f'<text class="label" x="{LEFT_MARGIN + 14:g}" y="{top + h / 2:g}" '
            f'transform="rotate(-90 {LEFT_MARGIN + 14:g},{top + h / 2:g})">'
            f"{escape(label)}</text>"
        )

    for lane, pool, top in lane_boxes:
        svg.add(
            f'<rect class="lane-box" data-element-id="{_escape_attr(lane.id)}" '
            f'x="{LEFT_MARGIN + 28:g}" y="{top:g}" '
            f'width="{width - LEFT_MARGIN - 48:g}" height="{LANE_HEIGHT:g}"/>'
        )
        name_x = LEFT_MARGIN + 90
        name_y = top + 28
        svg.add(
            f'<text class="label" x="{name_x:g}" y="{name_y:g}">'
            f"{escape(lane.name or lane.id)}</text>"
        )
        if lane.agentic is not None:
            # horizontal lane: trust after the name, agent marker right of
            # that, role letter below the marker
            trust_x = name_x + 48
            if lane.agentic.trust is not None:
                svg.add(
                    f'<text class="trust" x="{trust_x:g}" y="{name_y:g}" '
                    f'data-element-id="{_escape_attr(lane.id)}">'
                    f"{lane.agentic.trust.value}%</text>"
                )
            marker_x = trust_x + 30
            _use_agent(svg, marker_x, name_y - 4)
            _code_text(svg, marker_x, name_y + 16, role_code(lane.agentic.role), lane.id)

    # sequence flows
    for pool in model.pools:
        for flow in pool.flows:
            x1, y1, _, _ = geom[flow.source_id]
            x2, y2, w2, _ = geom[flow.target_id]
            svg.add(
                f'<line class="flow" data-element-id="{_escape_attr(flow.id)}" '
                f'x1="{x1:g}" y1="{y1:g}" x2="{x2 - w2 / 2 - 2:g}" y2="{y2:g}"/>'
            )
            if flow.condition is not None:
                mx, my = (x1 + x2) / 2, (y1 + y2) / 2 - 6
                svg.add(
                    f'<text class="trust" x="{mx:g}" y="{my:g}">'
                    f"{escape(flow.condition)}</text>"
                )

    # message flows (drawn between node centers, dashed)
    for flow in model.message_flows:
        x1, y1, _, _ = geom[flow.source_id]
        x2, y2, _, _ = geom[flow.target_id]
        svg.add(
            f'<line class="msgflow" data-element-id="{_escape_attr(flow.id)}" '
            f'x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}"/>'
        )
        if flow.agentic is not None:
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            # agent marker above the flow, strategy code below it
            _use_agent(svg, mx, my - 18)
            if flow.agentic.collaboration is not None:
                code = COLLABORATION_CODES[flow.agentic.collaboration]
            else:
                code = MERGE_CODES[flow.agentic.merge]
            _code_text(svg, mx, my + 20, code, flow.id)

    # nodes
    for pool in model.pools:
        for node in pool.nodes:
            cx, cy, w, h = geom[node.id]
            eid = _escape_attr(node.id)
            if isinstance(node, m.StartEvent):
                svg.add(
                    f'<circle class="shape" data-element-id="{eid}" '
                    f'cx="{cx:g}" cy="{cy:g}" r="{EVENT_R:g}"/>'
                )
            elif isinstance(node, m.EndEvent):
                svg.add(
                    f'<circle class="shape" data-element-id="{eid}" '
                    f'cx="{cx:g}" cy="{cy:g}" r="{EVENT_R:g}" stroke-width="3"/>'
                )
            elif isinstance(node, (m.Task, m.SubProcess)):
                svg.add(
                    f'<rect class="shape" data-element-id="{eid}" '
                    f'x="{cx - w / 2:g}" y="{cy - h / 2:g}" width="{w:g}" '
                    f'height="{h:g}" rx="8"/>'
                )
                if isinstance(node, m.SubProcess):
                    svg.add(
                        f'<rect class="shape" x="{cx - 6:g}" y="{cy + h / 2 - 12:g}" '
                        'width="12" height="8"/>'
                    )
                if isinstance(node, m.Task) and node.agentic is not None:
                    _use_agent(svg, cx - w / 2 + 12, cy - h / 2 + 12)
                    if node.agentic.trust is not None:
                        svg.add(
                            f'<text class="trust" x="{cx + w / 2 - 16:g}" '
                            f'y="{cy - h / 2 + 12:g}" data-element-id="{eid}">'
                            f"{node.agentic.trust.value}%</text>"
                        )
                    if node.agentic.reflection is not None:
                        code = REFLECTION_CODES[node.agentic.reflection.kind]
                        _code_text(svg, cx, cy + h / 2 - 4, code, node.id)
            elif isinstance(node, m.Gateway):
                pts = (
                    f"{cx:g},{cy - GATE_R:g} {cx + GATE_R:g},{cy:g} "
                    f"{cx:g},{cy + GATE_R:g} {cx - GATE_R:g},{cy:g}"
                )
                svg.add(
                    f'<polygon class="shape" data-element-id="{eid}" points="{pts}"/>'
                )
                inner = {"exclusive": "x", "parallel": "+", "inclusive": "o", "complex": "*"}
                svg.add(
                    f'<text class="label" x="{cx:g}" y="{cy + 4:g}">'
                    f"{inner[node.kind.value]}</text>"
                )
                if node.agentic is not None:
                    _use_agent(svg, cx - GATE_R - 8, cy - GATE_R + 2)
                    if node.agentic.trust is not None:
                        svg.add(
                            f'<text class="trust" x="{cx:g}" y="{cy - GATE_R - 6:g}" '
                            f'data-element-id="{eid}">{node.agentic.trust.value}%</text>'
                        )
                    if node.agentic.collaboration is not None:
                        code = COLLABORATION_CODES[node.agentic.collaboration]
                    else:
                        code = MERGE_CODES[node.agentic.merge]
                    _code_text(svg, cx + GATE_R + 10, cy + GATE_R + 8, code, node.id)
            if not isinstance(node, m.Gateway):
                label_y = cy + h / 2 + 14
                if node.name:
                    svg.add(
                        f'<text class="label" x="{cx:g}" y="{label_y:g}">'
                        f"{escape(node.name)}</text>"
                    )
            elif node.name:
                svg.add(
                    f'<text class="label" x="{cx:g}" y="{cy - GATE_R - 16:g}">'
                    f"{escape(node.name)}</text>"
                )

    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        "  <style>",
        _STYLE,
        "  </style>",
        "  <defs>",
        '    <marker id="arrow" viewBox="0 -5 10 10" refX="9" refY="0" '
        'markerWidth="7" markerHeight="7" orient="auto">'
        '<path d="M0,-5L10,0L0,5" fill="#555"/></marker>',
        _AGENT_GLYPH,
        "  </defs>",
    ]
    return ("\n".join(header + svg.body + ["</svg>"]) + "\n").encode("utf-8")
