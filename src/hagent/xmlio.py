"""Reader/writer for the BPMN 2.0 XML subset carrying the hagent extension.

Parsing never raises: every failure becomes a coded :class:`Diagnostic`.
Serialization is canonical (elements sorted by id) and byte-deterministic,
so ``parse(serialize(m))`` reproduces an equal model.  Foreign-namespace
extension fragments and unsupported standard elements are preserved as
opaque blobs and survive round-trips.
"""

from __future__ import annotations

import enum
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import List, Optional, Tuple
from xml.sax.saxutils import escape, quoteattr

from hagent import model as m

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
HAGENT_NS = "urn:hagent:bpmn-extension:1.0"


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    element_id: Optional[str]
    message: str


@dataclass
class ParseResult:
    model: Optional[m.ProcessModel]
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]


def _err(code, element_id, message):
    return Diagnostic(Severity.ERROR, code, element_id, message)


def _warn(code, element_id, message):
    return Diagnostic(Severity.WARNING, code, element_id, message)


def _tag(elem) -> str:
    return elem.tag.rsplit("}", 1)[-1]


# Element names as ElementTree spells them, "{namespace}local", so that the
# reader dispatches on ``elem.tag`` as it is and tests a namespace with one
# ``startswith`` (expat refuses a namespace name holding "}", the separator).
# ``_tag`` only serves messages.
_BPMN = f"{{{BPMN_NS}}}"
_HAGENT = f"{{{HAGENT_NS}}}"
_DEFINITIONS = _BPMN + "definitions"
_PROCESS = _BPMN + "process"
_COLLABORATION = _BPMN + "collaboration"
_PARTICIPANT = _BPMN + "participant"
_PARTICIPANT_MULTIPLICITY = _BPMN + "participantMultiplicity"
_MESSAGE_FLOW = _BPMN + "messageFlow"
_LANE_SET = _BPMN + "laneSet"
_LANE = _BPMN + "lane"
_FLOW_NODE_REF = _BPMN + "flowNodeRef"
_EXTENSION_ELEMENTS = _BPMN + "extensionElements"
_CONDITION_EXPRESSION = _BPMN + "conditionExpression"
_TEXT = _BPMN + "text"
_TASK = _BPMN + "task"
_SEQUENCE_FLOW = _BPMN + "sequenceFlow"
_TEXT_ANNOTATION = _BPMN + "textAnnotation"
_ASSOCIATION = _BPMN + "association"
_GROUP = _BPMN + "group"
_DATA_OBJECT = _BPMN + "dataObject"
_AGENT_PROFILE = _HAGENT + "agentProfile"

_PLAIN_NODES = {
    "startEvent": m.StartEvent,
    "endEvent": m.EndEvent,
    "subProcess": m.SubProcess,
}
_GATEWAY_KINDS = {
    "exclusiveGateway": m.GatewayKind.EXCLUSIVE,
    "inclusiveGateway": m.GatewayKind.INCLUSIVE,
    "parallelGateway": m.GatewayKind.PARALLEL,
    "complexGateway": m.GatewayKind.COMPLEX,
}
# qualified tag -> local name of a process child that has a reader
_PROCESS_TAGS = {
    _BPMN + local: local
    for local in (
        *_PLAIN_NODES,
        "task",
        *_GATEWAY_KINDS,
        "sequenceFlow",
        "textAnnotation",
        "association",
        "group",
        "dataObject",
    )
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
        try:
            value = int(raw) if _XSD_INTEGER.fullmatch(raw) else None
        except ValueError:  # more digits than int() converts
            value = None
        if value is None:
            self.error(
                "E-EXT", element_id, f"trustScore {raw!r} is not an integer"
            )
            return None
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

    def split_extensions(self, elem):
        """Return (hagent extension elements, opaque foreign fragments)."""
        if not len(elem):
            return (), ()
        hagent, foreign = [], []
        for ext in elem:
            if ext.tag == _EXTENSION_ELEMENTS:
                for child in ext:
                    if child.tag.startswith(_HAGENT):
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
        raw = elem.get("maxRounds")
        if raw is not None:
            # xsd:positiveInteger: the xsd:integer form, then > 0
            try:
                max_rounds = int(raw) if _XSD_INTEGER.fullmatch(raw) else 0
            except ValueError:  # more digits than int() converts
                max_rounds = 0
            if max_rounds < 1:
                self.error(
                    "E-EXT",
                    element_id,
                    f"maxRounds {raw!r} must be a positive integer",
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

    def parse_uncertainty(self, elem, element_id) -> Optional[m.TrustScore]:
        if not self.check_attrs(elem, element_id, {"trustScore"}):
            return None
        return self.parse_trust(elem.get("trustScore", ""), element_id)

    def parse_collaboration(self, elem, element_id):
        if not self.check_attrs(elem, element_id, {"mode"}):
            return None
        mode = elem.get("mode")
        if mode not in _COLLAB_TOKENS:
            self.error(
                "E-EXT", element_id, f"unknown collaboration mode {mode!r}"
            )
            return None
        return _COLLAB_TOKENS[mode]

    def parse_merge(self, elem, element_id):
        if not self.check_attrs(elem, element_id, {"strategy"}):
            return None
        strategy = elem.get("strategy")
        if strategy not in _MERGE_TOKENS:
            self.error(
                "E-EXT", element_id, f"unknown merge strategy {strategy!r}"
            )
            return None
        return _MERGE_TOKENS[strategy]

    def parse_collab_ext(self, elems, element_id, kind=None):
        """Collaboration/merge extension of a gateway of the given ``kind``,
        or of a message flow when ``kind`` is None."""
        host = "message flow" if kind is None else "gateway"
        collaboration = merge = trust = None
        for elem in elems:
            local, read = _extension(elem)
            if local not in ("collaboration", "merge", "uncertainty"):
                self.error(
                    "E-EXT", element_id, f"unexpected <hagent:{local}> on {host}"
                )
                return None
            value = read(self, elem, element_id)
            if value is None:
                return None
            if local == "collaboration":
                collaboration = value
            elif local == "merge":
                merge = value
            else:
                trust = value
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
            local, read = _extension(elem)
            if local not in ("reflection", "uncertainty"):
                self.error(
                    "E-EXT", element_id, f"unexpected <hagent:{local}> on task"
                )
                return None
            value = read(self, elem, element_id)
            if value is None:
                return None
            if local == "reflection":
                reflection = value
            else:
                trust = value
        return m.AgenticTaskInfo(reflection=reflection, trust=trust)

    # -- processes ----------------------------------------------------------

    def parse_process(self, proc, pool_id, pool_name, multi_instance) -> Optional[m.Pool]:
        lanes: List[m.Lane] = []
        nodes: List[m.FlowNode] = []
        flows: List[m.SequenceFlow] = []
        artifacts: List[m.Artifact] = []
        opaque: List[str] = []
        node_lane: dict = {}

        for lane_set in proc.findall(_LANE_SET):
            for lane_elem in lane_set.findall(_LANE):
                try:
                    lane_id = self.require_id(lane_elem, "lane")
                except _Abort:
                    continue
                hagent, foreign = self.split_extensions(lane_elem)
                profile = None
                for ext in hagent:
                    if ext.tag == _AGENT_PROFILE:
                        profile = self.parse_profile(ext, lane_id)
                    else:
                        self.error(
                            "E-EXT",
                            lane_id,
                            f"unexpected <hagent:{_tag(ext)}> on lane",
                        )
                node_ids = []
                for ref in lane_elem.findall(_FLOW_NODE_REF):
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
            tag = elem.tag
            if tag == _LANE_SET:
                continue
            local = _PROCESS_TAGS.get(tag)
            if local is None:
                if tag.startswith(_BPMN):
                    self.warning(
                        "W-UNSUPPORTED",
                        elem.get("id"),
                        f"unsupported element <bpmn:{_tag(elem)}> preserved opaquely",
                    )
                opaque.append(ET.tostring(elem, encoding="unicode").strip())
                continue
            try:
                elem_id = self.require_id(elem, local)
            except _Abort:
                continue
            if tag == _SEQUENCE_FLOW:
                condition = None
                cond_elem = elem.find(_CONDITION_EXPRESSION)
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
            elif tag == _TEXT_ANNOTATION:
                text_elem = elem.find(_TEXT)
                text = (text_elem.text or "") if text_elem is not None else ""
                artifacts.append(m.Annotation(elem_id, text))
            elif tag == _ASSOCIATION:
                artifacts.append(
                    m.Association(
                        elem_id,
                        elem.get("sourceRef", ""),
                        elem.get("targetRef", ""),
                    )
                )
            elif tag == _GROUP:
                artifacts.append(m.Group(elem_id, elem.get("name", "")))
            elif tag == _DATA_OBJECT:
                artifacts.append(m.DataObject(elem_id, elem.get("name", "")))
            else:  # a flow node
                lane_id = node_lane.get(elem_id)
                if lane_id is None:
                    self.error(
                        "E-REF", elem_id, f"node {elem_id!r} is in no lane"
                    )
                    continue
                hagent, foreign = self.split_extensions(elem)
                name = elem.get("name", "")
                if tag == _TASK:
                    agentic = None
                    if hagent:
                        agentic = self.parse_task_ext(hagent, elem_id)
                        if agentic is None:
                            continue
                    node: m.FlowNode = m.Task(elem_id, lane_id, name, foreign, agentic)
                elif local in _GATEWAY_KINDS:
                    kind = _GATEWAY_KINDS[local]
                    agentic = None
                    if hagent:
                        agentic = self.parse_collab_ext(hagent, elem_id, kind)
                        if agentic is None:
                            continue
                    node = m.Gateway(elem_id, lane_id, name, foreign, kind, agentic)
                else:
                    node = _PLAIN_NODES[local](elem_id, lane_id, name, foreign)
                    self._reject_ext(hagent, elem_id, local)
                nodes.append(node)

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


# qualified tag -> (local name, decoder) of a hagent extension element
_EXTENSIONS = {
    _HAGENT + local: (local, read)
    for local, read in {
        "agentProfile": _Parser.parse_profile,
        "reflection": _Parser.parse_reflection,
        "uncertainty": _Parser.parse_uncertainty,
        "collaboration": _Parser.parse_collaboration,
        "merge": _Parser.parse_merge,
    }.items()
}


def _extension(elem):
    """(local name, decoder or None) of a hagent extension element."""
    return _EXTENSIONS.get(elem.tag) or (_tag(elem), None)


def parse_model(document) -> ParseResult:
    """Parse BPMN XML bytes into a model; total, never raises."""
    parser = _Parser()
    if isinstance(document, str):
        document = document.encode("utf-8")
    try:
        root = ET.fromstring(document)
    except (ET.ParseError, LookupError, ValueError) as exc:
        # LookupError and ValueError: an encoding in the XML declaration
        # that Python does not know or expat cannot use
        parser.error("E-XML", None, f"malformed XML: {exc}")
        return ParseResult(None, parser.diagnostics)
    if root.tag != _DEFINITIONS:
        parser.error(
            "E-XML", None, f"root element is <{_tag(root)}>, expected definitions"
        )
        return ParseResult(None, parser.diagnostics)

    model_id = root.get("id") or "definitions"
    processes = {p.get("id"): p for p in root.findall(_PROCESS)}

    pools: List[m.Pool] = []
    message_flows: List[m.MessageFlow] = []
    opaque_top: List[str] = []
    used_processes = set()

    collaborations = root.findall(_COLLABORATION)
    for collab in collaborations:
        for part in collab.findall(_PARTICIPANT):
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
            multi = part.find(_PARTICIPANT_MULTIPLICITY) is not None
            pool = parser.parse_process(
                proc, pool_id, part.get("name", ""), multi
            )
            if pool is not None:
                pools.append(pool)
        for flow_elem in collab.findall(_MESSAGE_FLOW):
            try:
                flow_id = parser.require_id(flow_elem, "messageFlow")
            except _Abort:
                continue
            hagent, foreign = parser.split_extensions(flow_elem)
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
        if elem.tag == _PROCESS or elem.tag == _COLLABORATION:
            continue
        if elem.tag.startswith(_BPMN):
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


def quote_attr(value: str) -> str:
    """``quoteattr(value)``, with a fast path for plain values.

    A value that holds none of ``& < > " \\n \\r \\t`` is returned between
    double quotes as it is, which is what ``quoteattr`` returns for it.
    """
    if (
        "&" in value
        or "<" in value
        or ">" in value
        or '"' in value
        or "\n" in value
        or "\r" in value
        or "\t" in value
    ):
        return quoteattr(value)
    return f'"{value}"'


def _write_raw(lines, indent, fragment):
    for frag_line in fragment.splitlines():
        lines.append(indent + frag_line)


def _write_extensions(lines, indent, ext_lines, foreign):
    if not ext_lines and not foreign:
        return
    lines.append(indent + "<bpmn:extensionElements>")
    inner = indent + "  "
    for ext in ext_lines:
        lines.append(inner + ext)
    for frag in foreign:
        _write_raw(lines, inner, frag)
    lines.append(indent + "</bpmn:extensionElements>")


def _trust_attr(trust) -> str:
    return f" trustScore={quote_attr(str(trust.value))}" if trust else ""


def _gateway_ext_lines(info) -> List[str]:
    lines = []
    if info.collaboration is not None:
        lines.append(
            f"<hagent:collaboration mode={quote_attr(info.collaboration.value)}/>"
        )
    if info.merge is not None:
        lines.append(f"<hagent:merge strategy={quote_attr(info.merge.value)}/>")
    if info.trust is not None:
        lines.append(f"<hagent:uncertainty{_trust_attr(info.trust)}/>")
    return lines


def serialize_model(model: m.ProcessModel) -> bytes:
    """Serialize a model to canonical, byte-deterministic BPMN XML."""
    q = quote_attr
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<bpmn:definitions xmlns:bpmn="{BPMN_NS}" '
        f'xmlns:hagent="{HAGENT_NS}" id={q(model.id)}>',
        f"  <bpmn:collaboration id={q(model.id + '-collab')}>",
    ]
    add = lines.append
    for pool in model.pools:
        open_tag = (
            f"    <bpmn:participant id={q(pool.id)} name={q(pool.name)} "
            f"processRef={q(pool.id + '-process')}"
        )
        if pool.multi_instance:
            add(open_tag + ">")
            add("      <bpmn:participantMultiplicity/>")
            add("    </bpmn:participant>")
        else:
            add(open_tag + "/>")
    for flow in model.message_flows:
        open_tag = (
            f"    <bpmn:messageFlow id={q(flow.id)} "
            f"sourceRef={q(flow.source_id)} targetRef={q(flow.target_id)}"
        )
        ext_lines = _gateway_ext_lines(flow.agentic) if flow.agentic else []
        if ext_lines or flow.foreign_ext:
            add(open_tag + ">")
            _write_extensions(lines, "      ", ext_lines, flow.foreign_ext)
            add("    </bpmn:messageFlow>")
        else:
            add(open_tag + "/>")
    add("  </bpmn:collaboration>")

    for pool in model.pools:
        add(f"  <bpmn:process id={q(pool.id + '-process')}>")
        add(f"    <bpmn:laneSet id={q(pool.id + '-lanes')}>")
        for lane in pool.lanes:
            add(f"      <bpmn:lane id={q(lane.id)} name={q(lane.name)}>")
            ext_lines = []
            if lane.agentic is not None:
                ext_lines.append(
                    f"<hagent:agentProfile role={q(lane.agentic.role)}"
                    f"{_trust_attr(lane.agentic.trust)}/>"
                )
            _write_extensions(lines, "        ", ext_lines, lane.foreign_ext)
            for node_id in lane.node_ids:
                add(f"        <bpmn:flowNodeRef>{escape(node_id)}</bpmn:flowNodeRef>")
            add("      </bpmn:lane>")
        add("    </bpmn:laneSet>")

        for node in pool.nodes:
            _write_node(lines, node)
        for flow in pool.flows:
            open_tag = (
                f"    <bpmn:sequenceFlow id={q(flow.id)} "
                f"sourceRef={q(flow.source_id)} targetRef={q(flow.target_id)}"
            )
            if flow.condition is not None:
                add(open_tag + ">")
                add(
                    f"      <bpmn:conditionExpression>{escape(flow.condition)}"
                    "</bpmn:conditionExpression>"
                )
                add("    </bpmn:sequenceFlow>")
            else:
                add(open_tag + "/>")
        for artifact in pool.artifacts:
            if isinstance(artifact, m.Annotation):
                add(f"    <bpmn:textAnnotation id={q(artifact.id)}>")
                add(f"      <bpmn:text>{escape(artifact.text)}</bpmn:text>")
                add("    </bpmn:textAnnotation>")
            elif isinstance(artifact, m.Association):
                add(
                    f"    <bpmn:association id={q(artifact.id)} "
                    f"sourceRef={q(artifact.source_id)} "
                    f"targetRef={q(artifact.target_id)}/>"
                )
            elif isinstance(artifact, m.Group):
                add(f"    <bpmn:group id={q(artifact.id)} name={q(artifact.name)}/>")
            elif isinstance(artifact, m.DataObject):
                add(
                    f"    <bpmn:dataObject id={q(artifact.id)} name={q(artifact.name)}/>"
                )
        for frag in pool.opaque_elements:
            _write_raw(lines, "    ", frag)
        add("  </bpmn:process>")

    for frag in model.opaque_elements:
        _write_raw(lines, "  ", frag)
    add("</bpmn:definitions>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_node(lines, node: m.FlowNode):
    """Append the lines of one flow node to ``lines``."""
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
    open_tag = f"    <bpmn:{tag} id={quote_attr(node.id)}"
    if node.name:
        open_tag += f" name={quote_attr(node.name)}"

    ext_lines: List[str] = []
    if isinstance(node, m.Task) and node.agentic is not None:
        info = node.agentic
        if info.reflection is not None:
            refl = info.reflection
            attrs = f" mode={quote_attr(refl.kind.value)}"
            attrs += f" maxRounds={quote_attr(str(refl.max_rounds))}"
            if refl.reviewer_lane_ids:
                attrs += f" reviewers={quote_attr(','.join(refl.reviewer_lane_ids))}"
            if refl.human_lane_id:
                attrs += f" human={quote_attr(refl.human_lane_id)}"
            ext_lines.append(f"<hagent:reflection{attrs}/>")
        if info.trust is not None:
            ext_lines.append(f"<hagent:uncertainty{_trust_attr(info.trust)}/>")
    elif isinstance(node, m.Gateway) and node.agentic is not None:
        ext_lines = _gateway_ext_lines(node.agentic)

    if ext_lines or node.foreign_ext:
        lines.append(open_tag + ">")
        _write_extensions(lines, "      ", ext_lines, node.foreign_ext)
        lines.append(f"    </bpmn:{tag}>")
    else:
        lines.append(open_tag + "/>")


# -- extension-definition schema -------------------------------------------

_EXTENSION_SCHEMA = f"""<?xml version="1.0" encoding="UTF-8"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:hagent="{HAGENT_NS}"
    targetNamespace="{HAGENT_NS}"
    elementFormDefault="qualified"
    attributeFormDefault="unqualified">

  <xsd:simpleType name="tTrustScore">
    <xsd:restriction base="xsd:integer">
      <xsd:minInclusive value="0"/>
      <xsd:maxInclusive value="100"/>
    </xsd:restriction>
  </xsd:simpleType>

  <!-- manager/worker plus free-text custom roles -->
  <xsd:simpleType name="tRole">
    <xsd:restriction base="xsd:string">
      <xsd:minLength value="1"/>
    </xsd:restriction>
  </xsd:simpleType>

  <xsd:simpleType name="tReflectionMode">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="self"/>
      <xsd:enumeration value="cross"/>
      <xsd:enumeration value="human"/>
    </xsd:restriction>
  </xsd:simpleType>

  <xsd:simpleType name="tCollaborationMode">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="competition"/>
      <xsd:enumeration value="debate"/>
      <xsd:enumeration value="role"/>
      <xsd:enumeration value="voting"/>
    </xsd:restriction>
  </xsd:simpleType>

  <xsd:simpleType name="tMergeStrategy">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="voting.majority"/>
      <xsd:enumeration value="voting.absolute"/>
      <xsd:enumeration value="voting.minority"/>
      <xsd:enumeration value="role.leaderDriven"/>
      <xsd:enumeration value="role.composed"/>
      <xsd:enumeration value="competition.fastest"/>
      <xsd:enumeration value="competition.mostComplete"/>
    </xsd:restriction>
  </xsd:simpleType>

  <!-- AgenticLane stereotype -->
  <xsd:element name="agentProfile">
    <xsd:complexType>
      <xsd:attribute name="role" type="hagent:tRole" use="required"/>
      <xsd:attribute name="trustScore" type="hagent:tTrustScore" use="optional"/>
    </xsd:complexType>
  </xsd:element>

  <!-- AgenticTask stereotype -->
  <xsd:element name="reflection">
    <xsd:complexType>
      <xsd:attribute name="mode" type="hagent:tReflectionMode" use="required"/>
      <xsd:attribute name="maxRounds" type="xsd:positiveInteger" use="optional"/>
      <xsd:attribute name="reviewers" type="xsd:string" use="optional"/>
      <xsd:attribute name="human" type="xsd:string" use="optional"/>
    </xsd:complexType>
  </xsd:element>

  <xsd:element name="uncertainty">
    <xsd:complexType>
      <xsd:attribute name="trustScore" type="hagent:tTrustScore" use="required"/>
    </xsd:complexType>
  </xsd:element>

  <!-- AgenticOR / AgenticAND / AgenticMessageFlow stereotypes -->
  <xsd:element name="collaboration">
    <xsd:complexType>
      <xsd:attribute name="mode" type="hagent:tCollaborationMode" use="required"/>
    </xsd:complexType>
  </xsd:element>

  <xsd:element name="merge">
    <xsd:complexType>
      <xsd:attribute name="strategy" type="hagent:tMergeStrategy" use="required"/>
    </xsd:complexType>
  </xsd:element>

</xsd:schema>
"""


def export_extension_schema() -> bytes:
    """Extension-definition XML Schema for the hagent vocabulary (static)."""
    return _EXTENSION_SCHEMA.encode("utf-8")
