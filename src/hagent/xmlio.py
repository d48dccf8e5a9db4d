"""Reader/writer for the BPMN 2.0 XML subset carrying the hagent extension.

Parsing never raises: every failure becomes a coded :class:`Diagnostic`.
Serialization is canonical (elements sorted by id) and byte-deterministic,
so ``parse(serialize(m))`` reproduces an equal model.  Foreign-namespace
extension fragments and unsupported standard elements are preserved as
opaque blobs and survive round-trips.
"""

from __future__ import annotations

import contextlib
import enum
import gc
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple
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

# the reader builds its records with their makers (see model._maker)
_make_pool = m._MAKERS[m.Pool]
_make_lane = m._MAKERS[m.Lane]
_make_sequence_flow = m._MAKERS[m.SequenceFlow]
_make_message_flow = m._MAKERS[m.MessageFlow]
_make_task = m._MAKERS[m.Task]
_make_gateway = m._MAKERS[m.Gateway]
_make_task_info = m._MAKERS[m.AgenticTaskInfo]
_PLAIN_NODES = {
    tag: m._MAKERS[cls]
    for cls, tag in m.NODE_TAGS.items()
    if cls is not m.Task and cls is not m.Gateway
}
_GATEWAY_KINDS = {kind.value + "Gateway": kind for kind in m.GatewayKind}
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


def _escape_text(text: str) -> str:
    """``text`` for element content: ``escape(text)`` with a carriage
    return written ``&#13;``, which XML's end-of-line handling would
    otherwise read back as a line feed.  A text that holds none of
    ``& < > \\r`` is returned as it is."""
    if "&" in text or "<" in text or ">" in text or "\r" in text:
        return escape(text, {"\r": "&#13;"})
    return text


# the lexical space of xsd:integer, with XML whitespace around it
_XSD_INTEGER = re.compile(r"[ \t\r\n]*[+-]?[0-9]+[ \t\r\n]*")


# -- the extension vocabulary ------------------------------------------------
#
# ``_VOCABULARY`` describes every hagent element once: the reader decodes,
# the writer encodes and ``export_extension_schema`` declares each element
# by its row.


class _Lexical(NamedTuple):
    """An attribute's lexical type.  ``read`` maps its text (None when
    absent) to a value, or to None outside the type, for which ``problem``
    gives the (code, message) unless the type has no ``problem``; ``write``
    maps a value to quoted text, or to None to leave the attribute out."""

    xsd: Optional[str]  # None for an enumeration, named after its attribute
    read: Callable
    problem: Optional[Callable]
    write: Callable
    members: Tuple[str, ...] = ()  # an enumeration's values


def _integer(low, high, make=int):
    """Reads xsd:integer text in low..high as ``make(value)``, other text
    as None.  The canonical text of a value in range from 0 to 100 is read
    by one look-up."""
    canonical = {str(v): make(v) for v in range(max(low, 0), min(high, 100) + 1)}

    def read(raw):
        value = canonical.get(raw)
        if value is not None:
            return value
        if raw is None or not _XSD_INTEGER.fullmatch(raw):
            return None
        try:
            value = int(raw)
        except ValueError:  # more digits than int() converts
            return None
        return make(value) if low <= value <= high else None

    return read


_read_integer = _integer(-math.inf, math.inf)


def _trust_problem(local, name, raw):
    value = _read_integer(raw)
    if value is None:  # an absent trustScore reads as empty text
        return "E-EXT", f"{name} {raw or ''!r} is not an integer"
    return "E-TRUST-RANGE", f"{name} {value} outside 0..100"


def _enum(cls) -> _Lexical:
    return _Lexical(
        None,
        {member.value: member for member in cls}.get,
        lambda local, name, raw: ("E-EXT", f"unknown {local} {name} {raw!r}"),
        {member: quote_attr(member.value) for member in cls}.get,
        tuple(member.value for member in cls),
    )


# an integer's text needs no escaping; scores come from the model's table
_TRUST = _Lexical(
    "hagent:tTrustScore",
    _integer(0, 100, m.TRUST_SCORES.__getitem__),
    _trust_problem,
    lambda trust: f'"{trust.value}"',
)
_POSITIVE = _Lexical(
    "xsd:positiveInteger",
    _integer(1, math.inf),
    lambda local, name, raw: ("E-EXT", f"{name} {raw!r} must be a positive integer"),
    lambda number: f'"{number}"',
)
_ROLE = _Lexical(  # non-empty text
    "hagent:tRole",
    lambda raw: raw or None,
    lambda local, name, raw: ("E-EXT", f"{local} requires a {name}"),
    quote_attr,
)
_IDS = _Lexical(  # comma-separated ids; blank ones are dropped
    "xsd:string",
    lambda raw: tuple(filter(None, map(str.strip, raw.split(",")))),
    None,
    lambda ids: quote_attr(",".join(ids)) if ids else None,
)
_OPTIONAL_TEXT = _Lexical(  # empty text reads as absent
    "xsd:string",
    lambda raw: raw or None,
    None,
    lambda text: quote_attr(text) if text else None,
)


class _Attr(NamedTuple):
    name: str
    lexical: _Lexical
    required: bool = False
    default: object = None  # the value when absent
    field: Optional[str] = None  # of the element's model class


@dataclass(eq=False)
class _Element:
    """A hagent element: the host field it fills and its attributes, from
    which the maker of the record class ``build`` makes its value (without
    ``build``, the element's value is its one attribute's).  ``check``
    gives the message of a rule across attributes that the value breaks."""

    local: str
    field: str
    attrs: Tuple[_Attr, ...]
    build: Optional[type] = None
    check: Optional[Callable] = None
    comment: Optional[str] = None  # in the schema

    def __post_init__(self):
        self.make = None
        if self.build is not None:  # made from the attributes in field order
            assert [a.field for a in self.attrs] == [f.name for f in fields(self.build)]
            self.make = m._MAKERS[self.build]
        self.open = "<hagent:" + self.local
        self.names = frozenset(a.name for a in self.attrs)
        # the attributes as the reader and the writer walk them
        self.reads = tuple(
            (i, a.name, a.lexical.read, a.lexical.problem, a.required)
            for i, a in enumerate(self.attrs)
        )
        self.defaults = tuple(a.default for a in self.attrs)
        self.writes = tuple(
            (f" {a.name}=", a.lexical.write, a.field) for a in self.attrs
        )


def _reflection_problem(refl):
    if refl.kind is m.ReflectionKind.CROSS and not refl.reviewer_lane_ids:
        return "cross reflection requires reviewers"
    if refl.kind is m.ReflectionKind.HUMAN and not refl.human_lane_id:
        return "human reflection requires a human lane"
    return None


_VOCABULARY = (
    _Element(
        "agentProfile",
        "agentic",
        (
            _Attr("role", _ROLE, required=True, field="role"),
            _Attr("trustScore", _TRUST, field="trust"),
        ),
        build=m.AgentProfile,
        comment="AgenticLane stereotype",
    ),
    _Element(
        "reflection",
        "reflection",
        (
            _Attr("mode", _enum(m.ReflectionKind), required=True, field="kind"),
            # no termination bound is standard
            _Attr("maxRounds", _POSITIVE, default=3, field="max_rounds"),
            _Attr("reviewers", _IDS, default=(), field="reviewer_lane_ids"),
            _Attr("human", _OPTIONAL_TEXT, field="human_lane_id"),
        ),
        build=m.ReflectionMode,
        check=_reflection_problem,
        comment="AgenticTask stereotype",
    ),
    _Element("uncertainty", "trust", (_Attr("trustScore", _TRUST, required=True),)),
    _Element(
        "collaboration",
        "collaboration",
        (_Attr("mode", _enum(m.CollaborationMode), required=True),),
        comment="AgenticOR / AgenticAND / AgenticMessageFlow stereotypes",
    ),
    _Element(
        "merge", "merge", (_Attr("strategy", _enum(m.MergeStrategy), required=True),)
    ),
)


_ROWS = {_HAGENT + row.local: row for row in _VOCABULARY}  # by qualified tag


def _host(*locals_):
    """The rows of the elements a host takes, in writing order."""
    return tuple(_ROWS[_HAGENT + local] for local in locals_)


# the value of every element whose one attribute is an enumeration, or a
# trust score in canonical text, as a clean decode gives it: each parse
# starts from these
_DECODED = {
    (row, (attr.name, text)): attr.lexical.read(text)
    for row in _VOCABULARY
    if row.build is None
    for attr in row.attrs
    for text in attr.lexical.members or map(str, range(101))
}
# every marker without a trust score, made once by its checking constructor
_MARKERS = {
    value: m.AgenticRegionInfo(direction, **{field: value})
    for direction, field, values in (
        (m.GatewayDirection.DIVERGING, "collaboration", m.CollaborationMode),
        (m.GatewayDirection.MERGING, "merge", m.MergeStrategy),
    )
    for value in values
}

_LANE_EXT = _host("agentProfile")
_TASK_EXT = _host("reflection", "uncertainty")
_COLLAB_EXT = _host("collaboration", "merge", "uncertainty")
_NO_EXTENSIONS = ({}, ())  # of a host without children; never written to


class _Parser:
    def __init__(self):
        self.diagnostics: List[Diagnostic] = []
        self.seen_ids: dict = {}
        # (row, *attribute items) -> the value of a clean decode; records
        # are immutable, so equal elements on any hosts share one value
        self.decoded: dict = _DECODED.copy()

    # -- small helpers ------------------------------------------------------

    def error(self, code, element_id, message):
        self.diagnostics.append(_err(code, element_id, message))

    def warning(self, code, element_id, message):
        self.diagnostics.append(_warn(code, element_id, message))

    def require_id(self, elem, owner="element") -> Optional[str]:
        """The id of ``elem``, now taken, or None after reporting that it
        lacks one or repeats one."""
        elem_id = elem.get("id")
        if not elem_id:
            self.error("E-REF", None, f"{owner} <{_tag(elem)}> lacks an id")
            return None
        if elem_id in self.seen_ids:
            self.error("E-DUP-ID", elem_id, f"duplicate element id {elem_id!r}")
            return None
        self.seen_ids[elem_id] = True
        return elem_id

    def keep_opaque(self, elem, element_id, fragments):
        """Append ``elem`` to ``fragments`` as an opaque fragment, or report
        E-XML on the enclosing element when it nests too deeply to write."""
        try:
            fragments.append(ET.tostring(elem, encoding="unicode").strip())
        except RecursionError:  # ElementTree writes one level per call
            message = f"<{_tag(elem)}> is nested too deeply to preserve"
            self.error("E-XML", element_id, message)

    def keep_unsupported(self, elem, element_id, fragments):
        """Keep an element the reader does not model, warning when it is
        standard BPMN."""
        if elem.tag.startswith(_BPMN):
            message = f"unsupported element <bpmn:{_tag(elem)}> preserved opaquely"
            self.warning("W-UNSUPPORTED", elem.get("id"), message)
        self.keep_opaque(elem, element_id, fragments)

    # -- extension elements -------------------------------------------------

    def read_extensions(self, elem, element_id, rows, unexpected, every=False):
        """The extension block of ``elem`` as (host field -> value of its
        hagent elements, opaque foreign fragments).  A hagent element whose
        row is not in ``rows`` is reported with the ``unexpected`` message,
        which formats its local name.  The fields are None after the first
        problem, unless ``every``: then every element is decoded, and each
        problem reported.  Foreign fragments are reported first."""
        hagent, foreign = [], []
        for ext in elem:
            if ext.tag == _EXTENSION_ELEMENTS:
                for child in ext:
                    if child.tag.startswith(_HAGENT):
                        hagent.append(child)
                    else:
                        self.keep_opaque(child, element_id, foreign)
        foreign = tuple(foreign)
        fields = {}
        for child in hagent:
            row = _ROWS.get(child.tag)
            if row in rows:
                value = fields[row.field] = self.decode(row, child, element_id)
            else:
                self.error("E-EXT", element_id, unexpected.format(_tag(child)))
                value = None
            if value is None and not every:
                return None, foreign
        return fields, foreign

    def decode(self, row, elem, element_id):
        """The value of a hagent element by its row, or None after reporting
        every unknown attribute or else the first attribute that is wrong.
        A clean decode reports nothing, so it is made once per distinct
        element; a failed one is made again, to report on each element."""
        attrib = elem.attrib
        key = (row, *attrib.items())
        value = self.decoded.get(key)
        if value is None:
            value = self._decode(row, attrib, element_id)
            if value is not None:
                self.decoded[key] = value
        return value

    def _decode(self, row, attrib, element_id):
        if not row.names.issuperset(attrib):
            for name in attrib:
                if name not in row.names:
                    message = f"unknown attribute {name!r} on <hagent:{row.local}>"
                    self.error("E-EXT", element_id, message)
            return None
        values = [*row.defaults]
        for i, name, read, problem, required in row.reads:
            raw = attrib.get(name)
            if raw is None and not required:
                continue  # the default stands
            value = read(raw)
            if value is None and problem is not None:
                code, message = problem(row.local, name, raw)
                self.error(code, element_id, message)
                return None
            values[i] = value
        if row.make is None:
            return values[0]
        value = row.make(*values)
        if row.check is not None:
            message = row.check(value)
            if message is not None:
                self.error("E-EXT", element_id, message)
                return None
        return value

    def parse_collab_ext(self, fields, element_id, kind=None):
        """The marker of the decoded collaboration/merge extension ``fields``
        of a gateway of the given ``kind``, or of a message flow when
        ``kind`` is None; None after reporting a problem."""
        opens = "collaboration" in fields
        if opens == ("merge" in fields):
            if kind is None:
                message = "agentic message flow requires exactly one of collaboration/merge"
            elif not opens:
                message = "agentic gateway requires a collaboration or merge element"
            else:
                message = "gateway cannot carry both collaboration and merge"
            self.error("E-EXT", element_id, message)
            return None
        if kind in (m.GatewayKind.EXCLUSIVE, m.GatewayKind.COMPLEX):
            message = f"agentic extension not allowed on {kind.value} gateway"
            self.error("E-XOR-AGENTIC", element_id, message)
            return None
        if len(fields) == 1:  # no trust score
            (value,) = fields.values()
            return _MARKERS[value]
        direction = m.GatewayDirection.DIVERGING if opens else m.GatewayDirection.MERGING
        return m.AgenticRegionInfo(direction=direction, **fields)

    # -- processes ----------------------------------------------------------

    def parse_process(self, proc, pool_id, pool_name, multi_instance) -> Optional[m.Pool]:
        lanes: List[m.Lane] = []
        nodes: List[m.FlowNode] = []
        flows: List[m.SequenceFlow] = []
        artifacts: List[m.Artifact] = []
        opaque: List[str] = []
        node_lane: dict = {}
        # the clean path takes an id inline; require_id reports a bad one
        seen_ids = self.seen_ids

        for lane_set in proc.findall(_LANE_SET):
            for lane_elem in lane_set.findall(_LANE):
                lane_id = lane_elem.get("id")
                if not lane_id or lane_id in seen_ids:
                    self.require_id(lane_elem, "lane")
                    continue
                seen_ids[lane_id] = True
                fields, foreign = self.read_extensions(
                    lane_elem, lane_id, _LANE_EXT, "unexpected <hagent:{}> on lane", every=True
                )
                node_ids = []
                for ref in lane_elem.findall(_FLOW_NODE_REF):
                    node_id = (ref.text or "").strip()
                    if node_id:
                        node_ids.append(node_id)
                        node_lane[node_id] = lane_id
                lanes.append(
                    _make_lane(
                        lane_id, lane_elem.get("name", ""), tuple(node_ids),
                        fields.get("agentic"), foreign,
                    )
                )

        for elem in proc:
            tag = elem.tag
            if tag == _LANE_SET:
                continue
            local = _PROCESS_TAGS.get(tag)
            if local is None:
                self.keep_unsupported(elem, proc.get("id"), opaque)
                continue
            elem_id = elem.get("id")
            if not elem_id or elem_id in seen_ids:
                self.require_id(elem, local)
                continue
            seen_ids[elem_id] = True
            if tag == _SEQUENCE_FLOW:
                condition = None
                if len(elem):
                    cond_elem = elem.find(_CONDITION_EXPRESSION)
                    if cond_elem is not None:
                        condition = (cond_elem.text or "").strip() or None
                flows.append(
                    _make_sequence_flow(
                        elem_id, elem.get("sourceRef", ""), elem.get("targetRef", ""), condition
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
                fields, foreign = _NO_EXTENSIONS
                if len(elem):
                    if tag == _TASK:
                        rows, unexpected = _TASK_EXT, "unexpected <hagent:{}> on task"
                    elif local in _GATEWAY_KINDS:
                        rows, unexpected = _COLLAB_EXT, "unexpected <hagent:{}> on gateway"
                    else:
                        rows, unexpected = (), f"<hagent:{{}}> not allowed on <bpmn:{local}>"
                    # a plain node takes no hagent element, and each one is reported
                    fields, foreign = self.read_extensions(
                        elem, elem_id, rows, unexpected, every=not rows
                    )
                    if fields is None:
                        continue
                name = elem.get("name", "")
                if tag == _TASK:
                    agentic = None
                    if fields:
                        agentic = _make_task_info(
                            fields.get("reflection"), fields.get("trust")
                        )
                    node: m.FlowNode = _make_task(elem_id, lane_id, name, foreign, agentic)
                elif local in _GATEWAY_KINDS:
                    kind = _GATEWAY_KINDS[local]
                    agentic = None
                    if fields:
                        agentic = self.parse_collab_ext(fields, elem_id, kind)
                        if agentic is None:
                            continue
                    node = _make_gateway(elem_id, lane_id, name, foreign, kind, agentic)
                else:
                    node = _PLAIN_NODES[local](elem_id, lane_id, name, foreign)
                nodes.append(node)

        return _make_pool(
            pool_id, pool_name, tuple(lanes), tuple(nodes), tuple(flows),
            tuple(artifacts), multi_instance, tuple(opaque),
        )


@contextlib.contextmanager
def paused_gc():
    """Pause the cyclic garbage collector for the block.

    A stage builds thousands of records (the element tree, the model, its
    analyses) that hold no reference cycle and go by reference counting, so
    a collection while they are built finds nothing.  The switch is
    process-wide; the outermost block puts back the state it found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@paused_gc()
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
            pool_id = parser.require_id(part, "participant")
            if pool_id is None:
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
            flow_id = parser.require_id(flow_elem, "messageFlow")
            if flow_id is None:
                continue
            fields, foreign = parser.read_extensions(
                flow_elem, flow_id, _COLLAB_EXT, "unexpected <hagent:{}> on message flow"
            )
            if fields is None:
                continue
            agentic = None
            if fields:
                agentic = parser.parse_collab_ext(fields, flow_id)
                if agentic is None:
                    continue
            message_flows.append(
                _make_message_flow(
                    flow_id, flow_elem.get("sourceRef", ""), flow_elem.get("targetRef", ""),
                    agentic, foreign,
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
        parser.keep_unsupported(elem, root.get("id"), opaque_top)

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
    object.__setattr__(model, "parsed", True)
    return ParseResult(model, parser.diagnostics)


# -- serialization ----------------------------------------------------------


def _write_raw(lines, indent, fragment):
    for frag_line in fragment.splitlines():
        lines.append(indent + frag_line)


def _write_extensions(lines, indent, ext_lines, foreign):
    """The extensionElements block; ``ext_lines`` come indented one level
    deeper than ``indent``."""
    if not ext_lines and not foreign:
        return
    lines.append(indent + "<bpmn:extensionElements>")
    lines.extend(ext_lines)
    for frag in foreign:
        _write_raw(lines, indent + "  ", frag)
    lines.append(indent + "</bpmn:extensionElements>")


def _ext_lines(rows, host, indent) -> List[str]:
    """The hagent elements, one indented line each, of the fields of
    ``host`` that the rows fill and that are set."""
    lines = []
    for row in rows:
        value = getattr(host, row.field)
        if value is not None:
            line = indent + row.open
            for prefix, write, field in row.writes:
                text = value if field is None else getattr(value, field)
                if text is not None:
                    text = write(text)
                    if text is not None:
                        line += prefix + text
            lines.append(line + "/>")
    return lines


@paused_gc()
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
        ext_lines = (
            _ext_lines(_COLLAB_EXT, flow.agentic, "        ") if flow.agentic else []
        )
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
            ext_lines = _ext_lines(_LANE_EXT, lane, "          ")
            _write_extensions(lines, "        ", ext_lines, lane.foreign_ext)
            for node_id in lane.node_ids:
                add(f"        <bpmn:flowNodeRef>{_escape_text(node_id)}</bpmn:flowNodeRef>")
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
                    f"      <bpmn:conditionExpression>{_escape_text(flow.condition)}"
                    "</bpmn:conditionExpression>"
                )
                add("    </bpmn:sequenceFlow>")
            else:
                add(open_tag + "/>")
        for artifact in pool.artifacts:
            if isinstance(artifact, m.Annotation):
                add(f"    <bpmn:textAnnotation id={q(artifact.id)}>")
                add(f"      <bpmn:text>{_escape_text(artifact.text)}</bpmn:text>")
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


def written_texts(model: m.ProcessModel) -> Iterator[Tuple[str, Iterable, Iterable[str]]]:
    """Every text ``serialize_model`` writes into the document but opaque
    fragments, as ``(field, elements, texts)``: the n-th text is held by the
    n-th element (the model holds its own id).  A reference is written as
    the id of the element it names, so of the references only a reflection's
    lane ids, which need name no lane, are listed.  The elements of the
    reviewer lane ids are built only when read."""
    index = model.index
    yield "id", (model,), (model.id,)
    yield "id", index.values(), index.keys()
    pools = model.pools
    lanes = [ln for pool in pools for ln in pool.lanes]
    nodes = [node for pool in pools for node in pool.nodes]
    artifacts = [a for pool in pools for a in pool.artifacts]
    named = [*pools, *lanes, *nodes]
    named += [a for a in artifacts if isinstance(a, (m.Group, m.DataObject))]
    yield "name", named, [e.name for e in named]
    profiled = [ln for ln in lanes if ln.agentic is not None]
    yield "role", profiled, [ln.agentic.role for ln in profiled]
    conditional = [f for pool in pools for f in pool.flows if f.condition is not None]
    yield "condition", conditional, [f.condition for f in conditional]
    notes = [a for a in artifacts if isinstance(a, m.Annotation)]
    yield "text", notes, [a.text for a in notes]
    reflecting = [
        n for n in nodes
        if isinstance(n, m.Task) and n.agentic is not None and n.agentic.reflection is not None
    ]
    yield (
        "reviewer lane id",
        (n for n in reflecting for _ in n.agentic.reflection.reviewer_lane_ids),
        [i for n in reflecting for i in n.agentic.reflection.reviewer_lane_ids],
    )
    humans = [n for n in reflecting if n.agentic.reflection.human_lane_id is not None]
    yield "human lane id", humans, [n.agentic.reflection.human_lane_id for n in humans]


def _write_node(lines, node: m.FlowNode):
    """Append the lines of one flow node to ``lines``."""
    tag = m.NODE_TAGS[node.__class__]  # a model holds no other node class
    if node.__class__ is m.Gateway:
        tag = node.kind.value + tag
    open_tag = f"    <bpmn:{tag} id={quote_attr(node.id)}"
    if node.name:
        open_tag += f" name={quote_attr(node.name)}"

    ext_lines: List[str] = []
    if isinstance(node, m.Task) and node.agentic is not None:
        ext_lines = _ext_lines(_TASK_EXT, node.agentic, "        ")
    elif isinstance(node, m.Gateway) and node.agentic is not None:
        ext_lines = _ext_lines(_COLLAB_EXT, node.agentic, "        ")

    if ext_lines or node.foreign_ext:
        lines.append(open_tag + ">")
        _write_extensions(lines, "      ", ext_lines, node.foreign_ext)
        lines.append(f"    </bpmn:{tag}>")
    else:
        lines.append(open_tag + "/>")


# -- extension-definition schema -------------------------------------------

_SCHEMA_HEADER = f"""<?xml version="1.0" encoding="UTF-8"?>
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
"""


def _enum_type(row, attr) -> str:
    """An enumeration is named after its element and attribute."""
    return f"t{row.local[0].upper()}{row.local[1:]}{attr.name.capitalize()}"


def export_extension_schema() -> bytes:
    """Extension-definition XML Schema, declared from ``_VOCABULARY``."""
    lines = [_SCHEMA_HEADER]
    for row in _VOCABULARY:
        for attr in row.attrs:
            if attr.lexical.members:
                lines.append(f'  <xsd:simpleType name="{_enum_type(row, attr)}">')
                lines.append('    <xsd:restriction base="xsd:string">')
                for value in attr.lexical.members:
                    lines.append(f"      <xsd:enumeration value={quote_attr(value)}/>")
                lines += ["    </xsd:restriction>", "  </xsd:simpleType>", ""]
    for row in _VOCABULARY:
        if row.comment is not None:
            lines.append(f"  <!-- {row.comment} -->")
        lines += [f'  <xsd:element name="{row.local}">', "    <xsd:complexType>"]
        for attr in row.attrs:
            xsd = attr.lexical.xsd or "hagent:" + _enum_type(row, attr)
            use = "required" if attr.required else "optional"
            lines.append(
                f'      <xsd:attribute name="{attr.name}" type="{xsd}" use="{use}"/>'
            )
        lines += ["    </xsd:complexType>", "  </xsd:element>", ""]
    lines.append("</xsd:schema>\n")
    return "\n".join(lines).encode("utf-8")
