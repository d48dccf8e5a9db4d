"""The XML reader and writer as they stood before the qualified-tag walk.

Kept verbatim as a differential oracle: ``_ns``/``_tag`` string splitting
on every element, one ``findall`` per node for ``extensionElements``, a
``_Writer`` per node and ``quoteattr`` on every attribute value.  The
result and diagnostic types are shared with :mod:`hagent.xmlio`, so the
two readers' results compare equal directly.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import List, Optional, Tuple
from xml.sax.saxutils import escape, quoteattr

from hagent import model as m
from hagent.xmlio import (
    BPMN_NS,
    HAGENT_NS,
    Diagnostic,
    ParseResult,
    Severity,
    _err,
    _warn,
)
def _tag(elem) -> str:
    return elem.tag.rsplit("}", 1)[-1]


def _ns(elem) -> str:
    return elem.tag[1:].split("}", 1)[0] if elem.tag.startswith("{") else ""


_NODE_TAGS = {
    "startEvent",
    "endEvent",
    "task",
    "subProcess",
    "exclusiveGateway",
    "inclusiveGateway",
    "parallelGateway",
    "complexGateway",
}
_GATEWAY_KINDS = {
    "exclusiveGateway": m.GatewayKind.EXCLUSIVE,
    "inclusiveGateway": m.GatewayKind.INCLUSIVE,
    "parallelGateway": m.GatewayKind.PARALLEL,
    "complexGateway": m.GatewayKind.COMPLEX,
}
_SUPPORTED_PROCESS_TAGS = _NODE_TAGS | {
    "laneSet",
    "sequenceFlow",
    "textAnnotation",
    "association",
    "group",
    "dataObject",
}

_COLLAB_TOKENS = {
    "competition": m.CollaborationMode.COMPETITION,
    "debate": m.CollaborationMode.DEBATE,
    "role": m.CollaborationMode.ROLE,
    "voting": m.CollaborationMode.VOTING,
}
_MERGE_TOKENS = {s.value: s for s in m.MergeStrategy}
_REFLECTION_TOKENS = {
    "self": m.ReflectionKind.SELF,
    "cross": m.ReflectionKind.CROSS,
    "human": m.ReflectionKind.HUMAN,
}
# the lexical space of xsd:integer, with XML whitespace around it
_XSD_INTEGER = re.compile(r"[ \t\r\n]*[+-]?[0-9]+[ \t\r\n]*")


class _Abort(Exception):
    """Internal: element-level parse failure already recorded."""


class _Parser:
    def __init__(self):
        self.diagnostics: List[Diagnostic] = []
        self.seen_ids: dict = {}

    # -- small helpers ------------------------------------------------------

    def error(self, code, element_id, message):
        self.diagnostics.append(_err(code, element_id, message))

    def warning(self, code, element_id, message):
        self.diagnostics.append(_warn(code, element_id, message))

    def require_id(self, elem, owner="element") -> str:
        elem_id = elem.get("id")
        if not elem_id:
            self.error("E-REF", None, f"{owner} <{_tag(elem)}> lacks an id")
            raise _Abort()
        if elem_id in self.seen_ids:
            self.error("E-DUP-ID", elem_id, f"duplicate element id {elem_id!r}")
            raise _Abort()
        self.seen_ids[elem_id] = True
        return elem_id

    def parse_trust(self, raw: str, element_id) -> Optional[m.TrustScore]:
        if not _XSD_INTEGER.fullmatch(raw):
            self.error(
                "E-EXT", element_id, f"trustScore {raw!r} is not an integer"
            )
            return None
        value = int(raw)
        try:
            return m.mk_trust_score(value)
        except m.OutOfRange:
            self.error(
                "E-TRUST-RANGE",
                element_id,
                f"trustScore {value} outside 0..100",
            )
            return None

    def check_attrs(self, elem, element_id, allowed) -> bool:
        ok = True
        for attr in elem.attrib:
            if attr not in allowed:
                self.error(
                    "E-EXT",
                    element_id,
                    f"unknown attribute {attr!r} on <hagent:{_tag(elem)}>",
                )
                ok = False
        return ok

    # -- extension elements -------------------------------------------------

    def split_extensions(self, elem, element_id):
        """Return (hagent extension elements, opaque foreign fragments)."""
        hagent, foreign = [], []
        for ext in elem.findall(f"{{{BPMN_NS}}}extensionElements"):
            for child in ext:
                if _ns(child) == HAGENT_NS:
                    hagent.append(child)
                else:
                    foreign.append(
                        ET.tostring(child, encoding="unicode").strip()
                    )
        return hagent, tuple(foreign)

    def parse_profile(self, elem, element_id) -> Optional[m.AgentProfile]:
        if not self.check_attrs(elem, element_id, {"role", "trustScore"}):
            return None
        role = elem.get("role")
        if not role:
            self.error("E-EXT", element_id, "agentProfile requires a role")
            return None
        trust = None
        if "trustScore" in elem.attrib:
            trust = self.parse_trust(elem.get("trustScore"), element_id)
            if trust is None:
                return None
        return m.AgentProfile(role=role, trust=trust)

    def parse_reflection(self, elem, element_id) -> Optional[m.ReflectionMode]:
        if not self.check_attrs(
            elem, element_id, {"mode", "maxRounds", "reviewers", "human"}
        ):
            return None
        mode = elem.get("mode")
        if mode not in _REFLECTION_TOKENS:
            self.error(
                "E-EXT", element_id, f"unknown reflection mode {mode!r}"
            )
            return None
        kind = _REFLECTION_TOKENS[mode]
        max_rounds = 3  # default when absent: no termination bound is standard
        if "maxRounds" in elem.attrib:
            try:
                max_rounds = int(elem.get("maxRounds"))
            except ValueError:
                max_rounds = 0
            if max_rounds < 1:
                self.error(
                    "E-EXT",
                    element_id,
                    f"maxRounds {elem.get('maxRounds')!r} must be a positive integer",
                )
                return None
        reviewers: Tuple[str, ...] = ()
        if elem.get("reviewers"):
            reviewers = tuple(
                part.strip()
                for part in elem.get("reviewers").split(",")
                if part.strip()
            )
        human = elem.get("human")
        if kind is m.ReflectionKind.CROSS and not reviewers:
            self.error(
                "E-EXT", element_id, "cross reflection requires reviewers"
            )
            return None
        if kind is m.ReflectionKind.HUMAN and not human:
            self.error(
                "E-EXT", element_id, "human reflection requires a human lane"
            )
            return None
        return m.ReflectionMode(
            kind=kind,
            max_rounds=max_rounds,
            reviewer_lane_ids=reviewers,
            human_lane_id=human,
        )

    def parse_collab_ext(self, elems, element_id, kind=None):
        """Collaboration/merge extension of a gateway of the given ``kind``,
        or of a message flow when ``kind`` is None."""
        host = "message flow" if kind is None else "gateway"
        collaboration = merge = trust = None
        for elem in elems:
            tag = _tag(elem)
            if tag == "collaboration":
                if not self.check_attrs(elem, element_id, {"mode"}):
                    return None
                mode = elem.get("mode")
                if mode not in _COLLAB_TOKENS:
                    self.error(
                        "E-EXT", element_id, f"unknown collaboration mode {mode!r}"
                    )
                    return None
                collaboration = _COLLAB_TOKENS[mode]
            elif tag == "merge":
                if not self.check_attrs(elem, element_id, {"strategy"}):
                    return None
                strategy = elem.get("strategy")
                if strategy not in _MERGE_TOKENS:
                    self.error(
                        "E-EXT", element_id, f"unknown merge strategy {strategy!r}"
                    )
                    return None
                merge = _MERGE_TOKENS[strategy]
            elif tag == "uncertainty":
                if not self.check_attrs(elem, element_id, {"trustScore"}):
                    return None
                trust = self.parse_trust(elem.get("trustScore", ""), element_id)
                if trust is None:
                    return None
            else:
                self.error(
                    "E-EXT", element_id, f"unexpected <hagent:{tag}> on {host}"
                )
                return None
        if (collaboration is None) == (merge is None):
            if kind is None:
                message = "agentic message flow requires exactly one of collaboration/merge"
            elif collaboration is None:
                message = "agentic gateway requires a collaboration or merge element"
            else:
                message = "gateway cannot carry both collaboration and merge"
            self.error("E-EXT", element_id, message)
            return None
        if kind in (m.GatewayKind.EXCLUSIVE, m.GatewayKind.COMPLEX):
            self.error(
                "E-XOR-AGENTIC",
                element_id,
                f"agentic extension not allowed on {kind.value} gateway",
            )
            return None
        opens = collaboration is not None
        if kind is None:
            info = m.AgenticMessageFlowInfo
            direction = (
                m.MessageFlowDirection.OUTGOING
                if opens
                else m.MessageFlowDirection.INCOMING
            )
        else:
            info = m.AgenticGatewayInfo
            direction = (
                m.GatewayDirection.DIVERGING if opens else m.GatewayDirection.MERGING
            )
        return info(
            direction=direction,
            collaboration=collaboration,
            merge=merge,
            trust=trust,
        )

    def parse_task_ext(self, elems, element_id) -> Optional[m.AgenticTaskInfo]:
        reflection = trust = None
        for elem in elems:
            tag = _tag(elem)
            if tag == "reflection":
                reflection = self.parse_reflection(elem, element_id)
                if reflection is None:
                    return None
            elif tag == "uncertainty":
                if not self.check_attrs(elem, element_id, {"trustScore"}):
                    return None
                trust = self.parse_trust(elem.get("trustScore", ""), element_id)
                if trust is None:
                    return None
            else:
                self.error(
                    "E-EXT", element_id, f"unexpected <hagent:{tag}> on task"
                )
                return None
        return m.AgenticTaskInfo(reflection=reflection, trust=trust)

    # -- processes ----------------------------------------------------------

    def parse_process(self, proc, pool_id, pool_name, multi_instance) -> Optional[m.Pool]:
        lanes: List[m.Lane] = []
        nodes: List[m.FlowNode] = []
        flows: List[m.SequenceFlow] = []
        artifacts: List[m.Artifact] = []
        opaque: List[str] = []
        node_lane: dict = {}

        for lane_set in proc.findall(f"{{{BPMN_NS}}}laneSet"):
            for lane_elem in lane_set.findall(f"{{{BPMN_NS}}}lane"):
                try:
                    lane_id = self.require_id(lane_elem, "lane")
                except _Abort:
                    continue
                hagent, foreign = self.split_extensions(lane_elem, lane_id)
                profile = None
                for ext in hagent:
                    if _tag(ext) == "agentProfile":
                        profile = self.parse_profile(ext, lane_id)
                    else:
                        self.error(
                            "E-EXT",
                            lane_id,
                            f"unexpected <hagent:{_tag(ext)}> on lane",
                        )
                node_ids = []
                for ref in lane_elem.findall(f"{{{BPMN_NS}}}flowNodeRef"):
                    node_id = (ref.text or "").strip()
                    if node_id:
                        node_ids.append(node_id)
                        node_lane[node_id] = lane_id
                lanes.append(
                    m.Lane(
                        id=lane_id,
                        name=lane_elem.get("name", ""),
                        node_ids=tuple(node_ids),
                        agentic=profile,
                        foreign_ext=foreign,
                    )
                )

        for elem in proc:
            if _ns(elem) != BPMN_NS:
                opaque.append(ET.tostring(elem, encoding="unicode").strip())
                continue
            tag = _tag(elem)
            if tag == "laneSet":
                continue
            if tag not in _SUPPORTED_PROCESS_TAGS:
                self.warning(
                    "W-UNSUPPORTED",
                    elem.get("id"),
                    f"unsupported element <bpmn:{tag}> preserved opaquely",
                )
                opaque.append(ET.tostring(elem, encoding="unicode").strip())
                continue
            try:
                elem_id = self.require_id(elem, tag)
            except _Abort:
                continue
            if tag in _NODE_TAGS:
                lane_id = node_lane.get(elem_id)
                if lane_id is None:
                    self.error(
                        "E-REF", elem_id, f"node {elem_id!r} is in no lane"
                    )
                    continue
                hagent, foreign = self.split_extensions(elem, elem_id)
                name = elem.get("name", "")
                if tag == "startEvent":
                    node: m.FlowNode = m.StartEvent(
                        elem_id, lane_id, name, foreign
                    )
                    self._reject_ext(hagent, elem_id, tag)
                elif tag == "endEvent":
                    node = m.EndEvent(elem_id, lane_id, name, foreign)
                    self._reject_ext(hagent, elem_id, tag)
                elif tag == "task":
                    agentic = None
                    if hagent:
                        agentic = self.parse_task_ext(hagent, elem_id)
                        if agentic is None:
                            continue
                    node = m.Task(elem_id, lane_id, name, foreign, agentic)
                elif tag == "subProcess":
                    node = m.SubProcess(elem_id, lane_id, name, foreign)
                    self._reject_ext(hagent, elem_id, tag)
                else:
                    kind = _GATEWAY_KINDS[tag]
                    agentic = None
                    if hagent:
                        agentic = self.parse_collab_ext(hagent, elem_id, kind)
                        if agentic is None:
                            continue
                    node = m.Gateway(
                        elem_id, lane_id, name, foreign, kind, agentic
                    )
                nodes.append(node)
            elif tag == "sequenceFlow":
                condition = None
                cond_elem = elem.find(f"{{{BPMN_NS}}}conditionExpression")
                if cond_elem is not None:
                    condition = (cond_elem.text or "").strip() or None
                flows.append(
                    m.SequenceFlow(
                        id=elem_id,
                        source_id=elem.get("sourceRef", ""),
                        target_id=elem.get("targetRef", ""),
                        condition=condition,
                    )
                )
            elif tag == "textAnnotation":
                text_elem = elem.find(f"{{{BPMN_NS}}}text")
                text = (text_elem.text or "") if text_elem is not None else ""
                artifacts.append(m.Annotation(elem_id, text))
            elif tag == "association":
                artifacts.append(
                    m.Association(
                        elem_id,
                        elem.get("sourceRef", ""),
                        elem.get("targetRef", ""),
                    )
                )
            elif tag == "group":
                artifacts.append(m.Group(elem_id, elem.get("name", "")))
            elif tag == "dataObject":
                artifacts.append(m.DataObject(elem_id, elem.get("name", "")))

        return m.Pool(
            id=pool_id,
            name=pool_name,
            lanes=tuple(lanes),
            nodes=tuple(nodes),
            flows=tuple(flows),
            artifacts=tuple(artifacts),
            multi_instance=multi_instance,
            opaque_elements=tuple(opaque),
        )

    def _reject_ext(self, hagent, elem_id, tag):
        for ext in hagent:
            self.error(
                "E-EXT",
                elem_id,
                f"<hagent:{_tag(ext)}> not allowed on <bpmn:{tag}>",
            )


def parse_model(document) -> ParseResult:
    """Parse BPMN XML bytes into a model; total, never raises."""
    parser = _Parser()
    if isinstance(document, str):
        document = document.encode("utf-8")
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        parser.error("E-XML", None, f"malformed XML: {exc}")
        return ParseResult(None, parser.diagnostics)
    if root.tag != f"{{{BPMN_NS}}}definitions":
        parser.error(
            "E-XML", None, f"root element is <{_tag(root)}>, expected definitions"
        )
        return ParseResult(None, parser.diagnostics)

    model_id = root.get("id") or "definitions"
    processes = {
        p.get("id"): p for p in root.findall(f"{{{BPMN_NS}}}process")
    }

    pools: List[m.Pool] = []
    message_flows: List[m.MessageFlow] = []
    opaque_top: List[str] = []
    used_processes = set()

    collaborations = root.findall(f"{{{BPMN_NS}}}collaboration")
    for collab in collaborations:
        for part in collab.findall(f"{{{BPMN_NS}}}participant"):
            try:
                pool_id = parser.require_id(part, "participant")
            except _Abort:
                continue
            proc_ref = part.get("processRef")
            proc = processes.get(proc_ref)
            if proc is None:
                parser.error(
                    "E-REF", pool_id, f"participant references unknown process {proc_ref!r}"
                )
                continue
            used_processes.add(proc_ref)
            multi = (
                part.find(f"{{{BPMN_NS}}}participantMultiplicity") is not None
            )
            pool = parser.parse_process(
                proc, pool_id, part.get("name", ""), multi
            )
            if pool is not None:
                pools.append(pool)
        for flow_elem in collab.findall(f"{{{BPMN_NS}}}messageFlow"):
            try:
                flow_id = parser.require_id(flow_elem, "messageFlow")
            except _Abort:
                continue
            hagent, foreign = parser.split_extensions(flow_elem, flow_id)
            agentic = None
            if hagent:
                agentic = parser.parse_collab_ext(hagent, flow_id)
                if agentic is None:
                    continue
            message_flows.append(
                m.MessageFlow(
                    id=flow_id,
                    source_id=flow_elem.get("sourceRef", ""),
                    target_id=flow_elem.get("targetRef", ""),
                    agentic=agentic,
                    foreign_ext=foreign,
                )
            )

    # processes not referenced by any participant stand as their own pools
    for proc_id, proc in processes.items():
        if proc_id in used_processes:
            continue
        if proc_id is None:
            parser.error("E-REF", None, "process lacks an id")
            continue
        pool = parser.parse_process(proc, proc_id, proc.get("name", ""), False)
        if pool is not None:
            pools.append(pool)

    for elem in root:
        tag_ns = _ns(elem)
        if tag_ns == BPMN_NS and _tag(elem) in ("process", "collaboration"):
            continue
        if tag_ns == BPMN_NS:
            parser.warning(
                "W-UNSUPPORTED",
                elem.get("id"),
                f"unsupported element <bpmn:{_tag(elem)}> preserved opaquely",
            )
        opaque_top.append(ET.tostring(elem, encoding="unicode").strip())

    if parser.diagnostics and any(
        d.severity is Severity.ERROR for d in parser.diagnostics
    ):
        return ParseResult(None, parser.diagnostics)

    try:
        model = m.ProcessModel(
            id=model_id,
            pools=tuple(pools),
            message_flows=tuple(message_flows),
            opaque_elements=tuple(opaque_top),
        )
    except m.DuplicateId as exc:
        parser.error("E-DUP-ID", None, str(exc))
        return ParseResult(None, parser.diagnostics)
    except m.ModelError as exc:
        parser.error("E-REF", None, str(exc))
        return ParseResult(None, parser.diagnostics)
    return ParseResult(model, parser.diagnostics)


# -- serialization ----------------------------------------------------------


def _attr(name, value) -> str:
    return f" {name}={quoteattr(value)}"


class _Writer:
    def __init__(self):
        self.lines: List[str] = []

    def line(self, depth, text):
        self.lines.append("  " * depth + text)

    def raw_block(self, depth, fragment):
        for frag_line in fragment.splitlines():
            self.lines.append("  " * depth + frag_line)


def _write_extensions(w, depth, ext_lines, foreign):
    if not ext_lines and not foreign:
        return
    w.line(depth, "<bpmn:extensionElements>")
    for ext in ext_lines:
        w.line(depth + 1, ext)
    for frag in foreign:
        w.raw_block(depth + 1, frag)
    w.line(depth, "</bpmn:extensionElements>")


def _trust_attr(trust) -> str:
    return _attr("trustScore", str(trust.value)) if trust else ""


def _gateway_ext_lines(info) -> List[str]:
    lines = []
    if info.collaboration is not None:
        lines.append(
            f"<hagent:collaboration{_attr('mode', info.collaboration.value)}/>"
        )
    if info.merge is not None:
        lines.append(f"<hagent:merge{_attr('strategy', info.merge.value)}/>")
    if info.trust is not None:
        lines.append(f"<hagent:uncertainty{_trust_attr(info.trust)}/>")
    return lines


def serialize_model(model: m.ProcessModel) -> bytes:
    """Serialize a model to canonical, byte-deterministic BPMN XML."""
    w = _Writer()
    w.line(0, '<?xml version="1.0" encoding="UTF-8"?>')
    w.line(
        0,
        f'<bpmn:definitions xmlns:bpmn="{BPMN_NS}" '
        f'xmlns:hagent="{HAGENT_NS}"{_attr("id", model.id)}>',
    )
    w.line(1, f'<bpmn:collaboration{_attr("id", model.id + "-collab")}>')
    for pool in model.pools:
        open_tag = (
            f"<bpmn:participant{_attr('id', pool.id)}"
            f"{_attr('name', pool.name)}{_attr('processRef', pool.id + '-process')}"
        )
        if pool.multi_instance:
            w.line(2, open_tag + ">")
            w.line(3, "<bpmn:participantMultiplicity/>")
            w.line(2, "</bpmn:participant>")
        else:
            w.line(2, open_tag + "/>")
    for flow in model.message_flows:
        open_tag = (
            f"<bpmn:messageFlow{_attr('id', flow.id)}"
            f"{_attr('sourceRef', flow.source_id)}{_attr('targetRef', flow.target_id)}"
        )
        ext_lines = _gateway_ext_lines(flow.agentic) if flow.agentic else []
        if ext_lines or flow.foreign_ext:
            w.line(2, open_tag + ">")
            _write_extensions(w, 3, ext_lines, flow.foreign_ext)
            w.line(2, "</bpmn:messageFlow>")
        else:
            w.line(2, open_tag + "/>")
    w.line(1, "</bpmn:collaboration>")

    for pool in model.pools:
        w.line(1, f'<bpmn:process{_attr("id", pool.id + "-process")}>')
        w.line(2, f'<bpmn:laneSet{_attr("id", pool.id + "-lanes")}>')
        for lane in pool.lanes:
            w.line(3, f"<bpmn:lane{_attr('id', lane.id)}{_attr('name', lane.name)}>")
            ext_lines = []
            if lane.agentic is not None:
                ext_lines.append(
                    f"<hagent:agentProfile{_attr('role', lane.agentic.role)}"
                    f"{_trust_attr(lane.agentic.trust)}/>"
                )
            _write_extensions(w, 4, ext_lines, lane.foreign_ext)
            for node_id in lane.node_ids:
                w.line(4, f"<bpmn:flowNodeRef>{escape(node_id)}</bpmn:flowNodeRef>")
            w.line(3, "</bpmn:lane>")
        w.line(2, "</bpmn:laneSet>")

        for node in pool.nodes:
            w.lines.extend(_node_lines(node))
        for flow in pool.flows:
            open_tag = (
                f"<bpmn:sequenceFlow{_attr('id', flow.id)}"
                f"{_attr('sourceRef', flow.source_id)}{_attr('targetRef', flow.target_id)}"
            )
            if flow.condition is not None:
                w.line(2, open_tag + ">")
                w.line(
                    3,
                    f"<bpmn:conditionExpression>{escape(flow.condition)}"
                    "</bpmn:conditionExpression>",
                )
                w.line(2, "</bpmn:sequenceFlow>")
            else:
                w.line(2, open_tag + "/>")
        for artifact in pool.artifacts:
            if isinstance(artifact, m.Annotation):
                w.line(2, f"<bpmn:textAnnotation{_attr('id', artifact.id)}>")
                w.line(3, f"<bpmn:text>{escape(artifact.text)}</bpmn:text>")
                w.line(2, "</bpmn:textAnnotation>")
            elif isinstance(artifact, m.Association):
                w.line(
                    2,
                    f"<bpmn:association{_attr('id', artifact.id)}"
                    f"{_attr('sourceRef', artifact.source_id)}"
                    f"{_attr('targetRef', artifact.target_id)}/>",
                )
            elif isinstance(artifact, m.Group):
                w.line(
                    2,
                    f"<bpmn:group{_attr('id', artifact.id)}{_attr('name', artifact.name)}/>",
                )
            elif isinstance(artifact, m.DataObject):
                w.line(
                    2,
                    f"<bpmn:dataObject{_attr('id', artifact.id)}{_attr('name', artifact.name)}/>",
                )
        for frag in pool.opaque_elements:
            w.raw_block(2, frag)
        w.line(1, "</bpmn:process>")

    for frag in model.opaque_elements:
        w.raw_block(1, frag)
    w.line(0, "</bpmn:definitions>")
    return ("\n".join(w.lines) + "\n").encode("utf-8")


def _node_lines(node: m.FlowNode) -> List[str]:
    w = _Writer()
    if isinstance(node, m.StartEvent):
        tag = "startEvent"
    elif isinstance(node, m.EndEvent):
        tag = "endEvent"
    elif isinstance(node, m.Task):
        tag = "task"
    elif isinstance(node, m.SubProcess):
        tag = "subProcess"
    elif isinstance(node, m.Gateway):
        tag = node.kind.value + "Gateway"
    else:  # pragma: no cover
        raise TypeError(f"unknown node type {type(node)!r}")
    open_tag = f"<bpmn:{tag}{_attr('id', node.id)}"
    if node.name:
        open_tag += _attr("name", node.name)

    ext_lines: List[str] = []
    if isinstance(node, m.Task) and node.agentic is not None:
        info = node.agentic
        if info.reflection is not None:
            refl = info.reflection
            attrs = _attr("mode", refl.kind.value)
            attrs += _attr("maxRounds", str(refl.max_rounds))
            if refl.reviewer_lane_ids:
                attrs += _attr("reviewers", ",".join(refl.reviewer_lane_ids))
            if refl.human_lane_id:
                attrs += _attr("human", refl.human_lane_id)
            ext_lines.append(f"<hagent:reflection{attrs}/>")
        if info.trust is not None:
            ext_lines.append(f"<hagent:uncertainty{_trust_attr(info.trust)}/>")
    elif isinstance(node, m.Gateway) and node.agentic is not None:
        ext_lines.extend(_gateway_ext_lines(node.agentic))

    if ext_lines or node.foreign_ext:
        w.line(2, open_tag + ">")
        _write_extensions(w, 3, ext_lines, node.foreign_ext)
        w.line(2, f"</bpmn:{tag}>")
    else:
        w.line(2, open_tag + "/>")
    return w.lines

