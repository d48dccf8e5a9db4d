"""SVG rendering of the agentic notation on top of base BPMN shapes.

Extended elements keep the base BPMN geometry; the extension only adds
an agent glyph plus letter-code markers.  Every letter-code marker
carries ``data-hagent-code`` so tests can assert placement without pixel
comparison, and every shape carries ``data-element-id``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

from hagent import model as m


class MissingLayout(Exception):
    """Raised only for models with no flow nodes at all."""


class BadLayout(ValueError):
    """Raised by ``check_layout``, and so by ``render_svg``, for bad layout hints."""


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


class _Numbers(dict):
    """Number -> ``format(v, "g")``, its text in the SVG, made once per render.

    Equal keys share one entry: equal ints and floats, all ``render_svg``
    writes, read the same, but for zero, never kept (``0.0`` and ``-0.0``
    read ``0`` and ``-0``)."""

    def __missing__(self, value):
        text = format(value, "g")
        if value:
            self[value] = text
        return text


def _finite_number(value) -> bool:
    try:  # bools are ints to Python but not numbers here
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int with no float
        return False


def check_layout(layout) -> Dict[str, Tuple[float, float, float, float]]:
    """Node id -> (x, y, width, height) as floats, from a dict that maps each
    id to a list or tuple of four finite ints or floats (bools are not
    numbers here); ``BadLayout`` for anything else."""
    if not isinstance(layout, dict):
        raise BadLayout("expected a JSON object mapping node ids to [x, y, width, height]")
    for node_id, box in layout.items():
        four = isinstance(box, (list, tuple)) and len(box) == 4
        if not (four and all(map(_finite_number, box))):
            raise BadLayout(f"hint {node_id!r} is not a list of four finite numbers")
    return {node_id: tuple(map(float, box)) for node_id, box in layout.items()}


def _escape_attr(value: str) -> str:
    """``value`` escaped for a double-quoted attribute: escape() plus '"';
    a value with nothing to escape is returned as it is."""
    if "&" in value or "<" in value or ">" in value or '"' in value:
        return escape(value, {'"': "&quot;"})
    return value


def _escape_text(text: str) -> str:
    """``escape(text)``, returning a text with nothing to escape as it is
    (unlike the XML writer, a carriage return is written as it is)."""
    if "&" in text or "<" in text or ">" in text:
        return escape(text)
    return text


def _use_agent(add, n, x, y):
    add(f'  <use href="#agent-marker" x="{n[x]}" y="{n[y]}"/>')


def _code_text(add, n, x, y, code, eid):
    # ``code`` is a fixed letter code and ``eid`` an escaped element id
    add(
        f'  <text class="code" x="{n[x]}" y="{n[y]}" '
        f'data-hagent-code="{code}" data-element-id="{eid}">{code}</text>'
    )


_GATEWAY_GLYPHS = {"exclusive": "x", "parallel": "+", "inclusive": "o", "complex": "*"}


def render_svg(
    model: m.ProcessModel,
    layout: Optional[Dict[str, Sequence[float]]] = None,
) -> bytes:
    """Render the model to SVG 1.1 bytes; layout hints override auto-layout."""
    layout = {} if layout is None else check_layout(layout)
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
                    geom[node_id] = layout[node_id]
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

    # each number as text: n[v] is f"{v:g}"
    n = _Numbers()
    body: List[str] = []
    add = body.append
    for pool, top, h in pool_boxes:
        add(
            f'  <rect class="pool-box" data-element-id="{_escape_attr(pool.id)}" '
            f'x="{n[LEFT_MARGIN]}" y="{n[top]}" width="{n[width - LEFT_MARGIN - 20]}" '
            f'height="{n[h]}"/>'
        )
        label = pool.name or pool.id
        if pool.multi_instance:
            label += " (multi)"
        add(
            f'  <text class="label" x="{n[LEFT_MARGIN + 14]}" y="{n[top + h / 2]}" '
            f'transform="rotate(-90 {n[LEFT_MARGIN + 14]},{n[top + h / 2]})">'
            f"{_escape_text(label)}</text>"
        )

    for lane, pool, top in lane_boxes:
        eid = _escape_attr(lane.id)
        add(
            f'  <rect class="lane-box" data-element-id="{eid}" '
            f'x="{n[LEFT_MARGIN + 28]}" y="{n[top]}" '
            f'width="{n[width - LEFT_MARGIN - 48]}" height="{n[LANE_HEIGHT]}"/>'
        )
        name_x = LEFT_MARGIN + 90
        name_y = top + 28
        add(
            f'  <text class="label" x="{n[name_x]}" y="{n[name_y]}">'
            f"{_escape_text(lane.name or lane.id)}</text>"
        )
        if lane.agentic is not None:
            # horizontal lane: trust after the name, agent marker right of
            # that, role letter below the marker
            trust_x = name_x + 48
            if lane.agentic.trust is not None:
                add(
                    f'  <text class="trust" x="{n[trust_x]}" y="{n[name_y]}" '
                    f'data-element-id="{eid}">'
                    f"{lane.agentic.trust.value}%</text>"
                )
            marker_x = trust_x + 30
            _use_agent(add, n, marker_x, name_y - 4)
            _code_text(add, n, marker_x, name_y + 16, role_code(lane.agentic.role), eid)

    # sequence flows
    for pool in model.pools:
        for flow in pool.flows:
            x1, y1, _, _ = geom[flow.source_id]
            x2, y2, w2, _ = geom[flow.target_id]
            add(
                f'  <line class="flow" data-element-id="{_escape_attr(flow.id)}" '
                f'x1="{n[x1]}" y1="{n[y1]}" x2="{n[x2 - w2 / 2 - 2]}" y2="{n[y2]}"/>'
            )
            if flow.condition is not None:
                mx, my = (x1 + x2) / 2, (y1 + y2) / 2 - 6
                add(
                    f'  <text class="trust" x="{n[mx]}" y="{n[my]}">'
                    f"{_escape_text(flow.condition)}</text>"
                )

    # message flows (drawn between node centers, dashed)
    for flow in model.message_flows:
        x1, y1, _, _ = geom[flow.source_id]
        x2, y2, _, _ = geom[flow.target_id]
        eid = _escape_attr(flow.id)
        add(
            f'  <line class="msgflow" data-element-id="{eid}" '
            f'x1="{n[x1]}" y1="{n[y1]}" x2="{n[x2]}" y2="{n[y2]}"/>'
        )
        if flow.agentic is not None:
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            # agent marker above the flow, strategy code below it
            _use_agent(add, n, mx, my - 18)
            if flow.agentic.collaboration is not None:
                code = COLLABORATION_CODES[flow.agentic.collaboration]
            else:
                code = MERGE_CODES[flow.agentic.merge]
            _code_text(add, n, mx, my + 20, code, eid)

    # nodes
    for pool in model.pools:
        for node in pool.nodes:
            cx, cy, w, h = geom[node.id]
            eid = _escape_attr(node.id)
            if isinstance(node, m.StartEvent):
                add(
                    f'  <circle class="shape" data-element-id="{eid}" '
                    f'cx="{n[cx]}" cy="{n[cy]}" r="{n[EVENT_R]}"/>'
                )
            elif isinstance(node, m.EndEvent):
                add(
                    f'  <circle class="shape" data-element-id="{eid}" '
                    f'cx="{n[cx]}" cy="{n[cy]}" r="{n[EVENT_R]}" stroke-width="3"/>'
                )
            elif isinstance(node, (m.Task, m.SubProcess)):
                add(
                    f'  <rect class="shape" data-element-id="{eid}" '
                    f'x="{n[cx - w / 2]}" y="{n[cy - h / 2]}" width="{n[w]}" '
                    f'height="{n[h]}" rx="8"/>'
                )
                if isinstance(node, m.SubProcess):
                    add(
                        f'  <rect class="shape" x="{n[cx - 6]}" y="{n[cy + h / 2 - 12]}" '
                        'width="12" height="8"/>'
                    )
                if isinstance(node, m.Task) and node.agentic is not None:
                    _use_agent(add, n, cx - w / 2 + 12, cy - h / 2 + 12)
                    if node.agentic.trust is not None:
                        add(
                            f'  <text class="trust" x="{n[cx + w / 2 - 16]}" '
                            f'y="{n[cy - h / 2 + 12]}" data-element-id="{eid}">'
                            f"{node.agentic.trust.value}%</text>"
                        )
                    if node.agentic.reflection is not None:
                        code = REFLECTION_CODES[node.agentic.reflection.kind]
                        _code_text(add, n, cx, cy + h / 2 - 4, code, eid)
            elif isinstance(node, m.Gateway):
                pts = (
                    f"{n[cx]},{n[cy - GATE_R]} {n[cx + GATE_R]},{n[cy]} "
                    f"{n[cx]},{n[cy + GATE_R]} {n[cx - GATE_R]},{n[cy]}"
                )
                add(
                    f'  <polygon class="shape" data-element-id="{eid}" points="{pts}"/>'
                )
                add(
                    f'  <text class="label" x="{n[cx]}" y="{n[cy + 4]}">'
                    f"{_GATEWAY_GLYPHS[node.kind.value]}</text>"
                )
                if node.agentic is not None:
                    _use_agent(add, n, cx - GATE_R - 8, cy - GATE_R + 2)
                    if node.agentic.trust is not None:
                        add(
                            f'  <text class="trust" x="{n[cx]}" y="{n[cy - GATE_R - 6]}" '
                            f'data-element-id="{eid}">{node.agentic.trust.value}%</text>'
                        )
                    if node.agentic.collaboration is not None:
                        code = COLLABORATION_CODES[node.agentic.collaboration]
                    else:
                        code = MERGE_CODES[node.agentic.merge]
                    _code_text(add, n, cx + GATE_R + 10, cy + GATE_R + 8, code, eid)
            if not isinstance(node, m.Gateway):
                label_y = cy + h / 2 + 14
                if node.name:
                    add(
                        f'  <text class="label" x="{n[cx]}" y="{n[label_y]}">'
                        f"{_escape_text(node.name)}</text>"
                    )
            elif node.name:
                add(
                    f'  <text class="label" x="{n[cx]}" y="{n[cy - GATE_R - 16]}">'
                    f"{_escape_text(node.name)}</text>"
                )

    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{n[width]}" height="{n[height]}" '
        f'viewBox="0 0 {n[width]} {n[height]}">',
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
    return ("\n".join(header + body + ["</svg>"]) + "\n").encode("utf-8")
