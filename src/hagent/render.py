"""SVG rendering of the agentic notation on top of base BPMN shapes.

Extended elements keep the base BPMN geometry; the extension only adds
an agent glyph plus letter-code markers.  Every letter-code marker
carries ``data-hagent-code`` so tests can assert placement without pixel
comparison, and every shape carries ``data-element-id``.
"""

from __future__ import annotations

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
_FIRST_COLUMN = LEFT_MARGIN + LANE_HEADER  # x of the rank-0 node centres

# width and height of a node that has no layout hint, by class
_SIZES = {m.Task: (TASK_W, TASK_H), m.SubProcess: (TASK_W, TASK_H), m.Gateway: (2 * GATE_R,) * 2,
          m.StartEvent: (2 * EVENT_R,) * 2, m.EndEvent: (2 * EVENT_R,) * 2}

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


def _ranks(*pools: m.Pool) -> Dict[str, int]:
    """Left-to-right rank per node of the pools: the longest path from the
    sources.  No flow crosses pools, so pools ranked together rank as each
    alone.

    A node becomes ready once all its predecessors are ranked; the ranks do
    not depend on the order in which ready nodes are taken, so a list used
    as a stack serves.  A node on or behind a cycle never becomes ready and
    gets ``max(1, 1 + the highest rank among its ready predecessors)``."""
    rank = dict.fromkeys([node.id for pool in pools for node in pool.nodes], 0)
    waiting = rank.copy()  # predecessors not yet ranked
    succ: Dict[str, List[str]] = {}
    for pool in pools:
        for flow in pool.flows:
            waiting[flow.target_id] += 1
            if flow.source_id in succ:
                succ[flow.source_id].append(flow.target_id)
            else:
                succ[flow.source_id] = [flow.target_id]
    ready = [node for node, count in waiting.items() if not count]
    while ready:
        node = ready.pop()
        if node in succ:
            next_rank = rank[node] + 1
            for s in succ[node]:
                if rank[s] < next_rank:
                    rank[s] = next_rank
                waiting[s] -= 1
                if not waiting[s]:
                    ready.append(s)
    for node, count in waiting.items():
        if count and not rank[node]:
            rank[node] = 1
    return rank


# the text of a number in the SVG: format(v, "g"), which "%g" % v equals
# for every int and float
_text = "%g".__mod__


class _Texts(dict):
    """(centre, size) -> the texts of the coordinates ``self.place`` derives
    from them, made once per render.  Equal keys share one entry: equal ints
    and floats read the same, but for zero (``0.0`` and ``-0.0`` read ``0``
    and ``-0``), so a key holding a zero is never kept."""

    def __init__(self, place):
        self.place = place

    def __missing__(self, key):
        texts = tuple(map(_text, self.place(*key)))
        if key[0] and key[1]:
            self[key] = texts
        return texts


def _task_columns(cx, w):
    # left edge, width, agent marker, trust score, centre, where flows enter
    left = cx - w / 2
    return left, w, left + 12, cx + w / 2 - 16, cx, left - 2


def _task_rows(cy, h):
    # top edge, height, agent marker and trust score, reflection code,
    # label, centre
    top, bottom = cy - h / 2, cy + h / 2
    return top, h, top + 12, bottom - 4, bottom + 14, cy


def _gateway_columns(cx, w):
    # centre, right and left corners, agent marker, code, where flows enter
    return cx, cx + GATE_R, cx - GATE_R, cx - GATE_R - 8, cx + GATE_R + 10, cx - w / 2 - 2


def _gateway_rows(cy, h):
    # centre, top and bottom corners, kind glyph, agent marker, trust score,
    # code, label
    top, bottom = cy - GATE_R, cy + GATE_R
    return cy, top, bottom, cy + 4, top + 2, top - 6, bottom + 8, top - 16


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


def _use_agent(add, x, y):
    add(f'  <use href="#agent-marker" x="{x}" y="{y}"/>')


def _code_text(add, x, y, code, eid):
    # ``x`` and ``y`` are texts, ``code`` a fixed letter code and ``eid`` an
    # escaped element id
    add(
        f'  <text class="code" x="{x}" y="{y}" '
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

    # element ids are written as they are unless one of them needs escaping
    ids = "".join(model.index)
    plain_ids = not any(c in ids for c in '&<>"')
    columns, rows = _Texts(_task_columns), _Texts(_task_rows)
    gateway_columns, gateway_rows = _Texts(_gateway_columns), _Texts(_gateway_rows)
    pools = []  # (pool, top, height)
    lanes = []  # (lane, top)
    flows: List[str] = []
    nodes: List[str] = []
    add = nodes.append
    # node id -> (cx, cy, cx text, cy text, text of the x where flows enter)
    ends: Dict[str, tuple] = {}
    # pools stacked vertically, horizontal lanes inside; each pool is laid
    # out and drawn in one pass over its nodes
    y_cursor = 20.0
    max_x = 0.0
    ranks = _ranks(*model.pools)
    for pool in model.pools:
        centre_y = {}  # lane id -> y of its centre line
        pools.append((pool, y_cursor, len(pool.lanes) * LANE_HEIGHT))
        for lane in pool.lanes:
            lanes.append((lane, y_cursor))
            centre_y[lane.id] = y_cursor + LANE_HEIGHT / 2
            y_cursor += LANE_HEIGHT
        y_cursor += POOL_GAP
        for node in pool.nodes:
            cls = node.__class__
            box = layout.get(node.id)
            if box is None:
                cx = _FIRST_COLUMN + ranks[node.id] * RANK_STEP
                cy = centre_y[node.lane_id]
                w, h = _SIZES[cls]
            else:
                cx, cy, w, h = box
            if cx + w > max_x:
                max_x = cx + w
            eid = node.id if plain_ids else _escape_attr(node.id)
            if cls is m.Task or cls is m.SubProcess:
                left, w_text, marker_x, trust_x, x, entry = columns[cx, w]
                top, h_text, marker_y, code_y, label_y, y = rows[cy, h]
                add(
                    f'  <rect class="shape" data-element-id="{eid}" '
                    f'x="{left}" y="{top}" width="{w_text}" height="{h_text}" rx="8"/>'
                )
                if cls is m.SubProcess:
                    add(
                        f'  <rect class="shape" x="{_text(cx - 6)}" y="{_text(cy + h / 2 - 12)}" '
                        'width="12" height="8"/>'
                    )
                elif node.agentic is not None:
                    agentic = node.agentic
                    _use_agent(add, marker_x, marker_y)
                    if agentic.trust is not None:
                        add(
                            f'  <text class="trust" x="{trust_x}" y="{marker_y}" '
                            f'data-element-id="{eid}">{agentic.trust.value}%</text>'
                        )
                    if agentic.reflection is not None:
                        code = REFLECTION_CODES[agentic.reflection.kind]
                        _code_text(add, x, code_y, code, eid)
            elif cls is m.Gateway:
                x, right, left, marker_x, code_x, entry = gateway_columns[cx, w]
                y, top, bottom, glyph_y, marker_y, trust_y, code_y, label_y = gateway_rows[cy, h]
                add(
                    f'  <polygon class="shape" data-element-id="{eid}" '
                    f'points="{x},{top} {right},{y} {x},{bottom} {left},{y}"/>'
                )
                add(
                    f'  <text class="label" x="{x}" y="{glyph_y}">'
                    f"{_GATEWAY_GLYPHS[node.kind.value]}</text>"
                )
                agentic = node.agentic
                if agentic is not None:
                    _use_agent(add, marker_x, marker_y)
                    if agentic.trust is not None:
                        add(
                            f'  <text class="trust" x="{x}" y="{trust_y}" '
                            f'data-element-id="{eid}">{agentic.trust.value}%</text>'
                        )
                    if agentic.collaboration is not None:
                        code = COLLABORATION_CODES[agentic.collaboration]
                    else:
                        code = MERGE_CODES[agentic.merge]
                    _code_text(add, code_x, code_y, code, eid)
            else:  # a start or an end event
                x, y, entry = _text(cx), _text(cy), _text(cx - w / 2 - 2)
                end = ' stroke-width="3"' if cls is m.EndEvent else ""
                add(
                    f'  <circle class="shape" data-element-id="{eid}" '
                    f'cx="{x}" cy="{y}" r="{_text(EVENT_R)}"{end}/>'
                )
                label_y = _text(cy + h / 2 + 14)
            if node.name:
                add(f'  <text class="label" x="{x}" y="{label_y}">{_escape_text(node.name)}</text>')
            ends[node.id] = (cx, cy, x, y, entry)
        # both ends of a sequence flow are nodes of its pool
        for flow in pool.flows:
            x1, y1, x1_text, y1_text, _ = ends[flow.source_id]
            x2, y2, _, y2_text, entry = ends[flow.target_id]
            eid = flow.id if plain_ids else _escape_attr(flow.id)
            flows.append(
                f'  <line class="flow" data-element-id="{eid}" '
                f'x1="{x1_text}" y1="{y1_text}" x2="{entry}" y2="{y2_text}"/>'
            )
            if flow.condition is not None:
                mx, my = _text((x1 + x2) / 2), _text((y1 + y2) / 2 - 6)
                flows.append(
                    f'  <text class="trust" x="{mx}" y="{my}">{_escape_text(flow.condition)}</text>'
                )
    width = max(max_x + 60, _FIRST_COLUMN + 200)
    height = y_cursor

    # message flows (drawn between node centers, dashed)
    add = flows.append
    for flow in model.message_flows:
        x1, y1, x1_text, y1_text, _ = ends[flow.source_id]
        x2, y2, x2_text, y2_text, _ = ends[flow.target_id]
        eid = flow.id if plain_ids else _escape_attr(flow.id)
        add(
            f'  <line class="msgflow" data-element-id="{eid}" '
            f'x1="{x1_text}" y1="{y1_text}" x2="{x2_text}" y2="{y2_text}"/>'
        )
        if flow.agentic is not None:
            mx, my = _text((x1 + x2) / 2), (y1 + y2) / 2
            # agent marker above the flow, strategy code below it
            _use_agent(add, mx, _text(my - 18))
            if flow.agentic.collaboration is not None:
                code = COLLABORATION_CODES[flow.agentic.collaboration]
            else:
                code = MERGE_CODES[flow.agentic.merge]
            _code_text(add, mx, _text(my + 20), code, eid)

    # pool and lane boxes span the final width
    body: List[str] = []
    add = body.append
    pool_x, pool_w = _text(LEFT_MARGIN), _text(width - LEFT_MARGIN - 20)
    label_x = _text(LEFT_MARGIN + 14)
    for pool, top, h in pools:
        label = pool.name or pool.id
        if pool.multi_instance:
            label += " (multi)"
        eid = pool.id if plain_ids else _escape_attr(pool.id)
        label_y = _text(top + h / 2)
        add(
            f'  <rect class="pool-box" data-element-id="{eid}" '
            f'x="{pool_x}" y="{_text(top)}" width="{pool_w}" height="{_text(h)}"/>'
        )
        add(
            f'  <text class="label" x="{label_x}" y="{label_y}" '
            f'transform="rotate(-90 {label_x},{label_y})">{_escape_text(label)}</text>'
        )
    # horizontal lane: name, trust after it, agent marker right of that and
    # role letter below the marker; a lane's y texts are its own
    lane_x, lane_h = _text(LEFT_MARGIN + 28), _text(LANE_HEIGHT)
    lane_w = _text(width - LEFT_MARGIN - 48)
    name_x, trust_x, marker_x = (_text(LEFT_MARGIN + dx) for dx in (90, 90 + 48, 90 + 48 + 30))
    for lane, top in lanes:
        eid = lane.id if plain_ids else _escape_attr(lane.id)
        name_y = top + 28
        name_y_text = _text(name_y)
        add(
            f'  <rect class="lane-box" data-element-id="{eid}" '
            f'x="{lane_x}" y="{_text(top)}" width="{lane_w}" height="{lane_h}"/>'
        )
        add(
            f'  <text class="label" x="{name_x}" y="{name_y_text}">'
            f"{_escape_text(lane.name or lane.id)}</text>"
        )
        if lane.agentic is not None:
            if lane.agentic.trust is not None:
                add(
                    f'  <text class="trust" x="{trust_x}" y="{name_y_text}" '
                    f'data-element-id="{eid}">{lane.agentic.trust.value}%</text>'
                )
            _use_agent(add, marker_x, _text(name_y - 4))
            _code_text(add, marker_x, _text(name_y + 16), role_code(lane.agentic.role), eid)

    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_text(width)}" height="{_text(height)}" '
        f'viewBox="0 0 {_text(width)} {_text(height)}">',
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
    return ("\n".join(header + body + flows + nodes + ["</svg>"]) + "\n").encode("utf-8")
