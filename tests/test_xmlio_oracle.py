"""The XML reader and writer against the ones they replaced, and byte pins.

``old_xmlio`` keeps the reader and writer as they were before the
qualified-tag walk and the quoting fast path.  Mutated copies of the
fixture must give the same model, the same diagnostics (code, element id,
message, order) and the same serialized bytes from both.  The pins hold
the fixtures' XML, SVG and the extension schema to the bytes they had
before.
"""

import hashlib
import re
import xml.etree.ElementTree as ET
from dataclasses import replace
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import old_xmlio
from hagent import model as m
from hagent.render import MissingLayout, render_svg
from hagent.simulate import ScenarioPolicy, SimulationError, load_scenario, run_simulation
from hagent.validate import CATALOG, validate_model
from hagent.xmlio import (
    BPMN_NS,
    HAGENT_NS,
    Severity,
    export_extension_schema,
    parse_model,
    quote_attr,
    serialize_model,
)

from builders import rename_node
from conftest import FIXTURES

FIXTURE_BYTES = (FIXTURES / "bug-triage.bpmn").read_bytes()
SCENARIO = load_scenario((FIXTURES / "bug-triage.scn.yaml").read_bytes())


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# -- byte pins ---------------------------------------------------------------

PINS = {
    "bug-triage": (
        "0b5f73daa21c49afb396efb3f48f5b0f9dae9296fb83711ecaaf7bbba6540341",
        "8e6720ab4bb69477b004dbcb92a84052f5bd54c4b3f9047a83ae166ee57083e5",
    ),
    "broken-no-manager": (
        "bfef74d506765cc4bc6abb040982df8f58642c214445d3d2e392e4e8d4ad9b71",
        "9be2f7bd58fc7631c6903978a0eb3c9b8ed7af65675b36f19ba53ba1ab3a942d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_fixture_xml_and_svg_bytes_are_pinned(name):
    model = parse_model((FIXTURES / f"{name}.bpmn").read_bytes()).model
    xml_sha, svg_sha = PINS[name]
    assert sha256(serialize_model(model)) == xml_sha
    assert sha256(render_svg(model)) == svg_sha


def test_extension_schema_bytes_are_pinned():
    assert (
        sha256(export_extension_schema())
        == "90b551c466749398dc0fee7fa1331120c817788674e4cb3ca60a2dcfb7fc7891"
    )


# -- the reader against the old one --------------------------------------------

_XSD_INTEGER = re.compile(r"[ \t\r\n]*[+-]?[0-9]+[ \t\r\n]*")


def _elements(document):
    try:
        return ET.fromstring(document).iter()
    except (ET.ParseError, LookupError, ValueError):
        return ()


def _loose_max_rounds(document):
    """Whether some maxRounds is an int() literal outside xsd:integer, which
    the old reader took and the new one rejects."""
    for elem in _elements(document):
        raw = elem.get("maxRounds")
        if raw is not None and not _XSD_INTEGER.fullmatch(raw):
            try:
                int(raw)
            except ValueError:
                continue
            return True
    return False


def _empty_human(document):
    """Whether some human is empty, which the old reader kept as "" and the
    new one reads as absent (both write it as absent)."""
    return any(elem.get("human") == "" for elem in _elements(document))


def assert_readers_agree(document):
    new = parse_model(document)
    try:
        old = old_xmlio.parse_model(document)
    except (LookupError, ValueError) as exc:
        # the old reader let an unusable declared encoding escape
        assert new.model is None
        assert [(d.code, d.element_id, d.message) for d in new.diagnostics] == [
            ("E-XML", None, f"malformed XML: {exc}")
        ]
        return
    if _loose_max_rounds(document):
        return
    assert new.diagnostics == old.diagnostics
    if not _empty_human(document):
        assert new.model == old.model
    if new.model is not None:
        assert serialize_model(new.model) == old_xmlio.serialize_model(old.model)


def _fragment(body, lane_ext=""):
    """The fixture with ``body`` appended to its process."""
    text = FIXTURE_BYTES.decode("utf-8")
    text = text.replace("</bpmn:process>", f"{body}\n  </bpmn:process>")
    if lane_ext:
        text = text.replace(
            '<bpmn:lane id="lane-user" name="User">',
            f'<bpmn:lane id="lane-user" name="User">{lane_ext}',
        )
    return text.encode("utf-8")


EXT = "<bpmn:extensionElements>{}</bpmn:extensionElements>"


def _replace(old, new):
    assert old in FIXTURE_BYTES
    return FIXTURE_BYTES.replace(old, new, 1)


CORPUS = {
    "fixture": FIXTURE_BYTES,
    # expat refuses "}" (ElementTree's separator) inside a namespace name
    "brace-in-namespace": _fragment(f'<o:task xmlns:o="{BPMN_NS}}}x" id="t-o"/>'),
    "hagent-element-in-another-namespace": _fragment(
        "", lane_ext=EXT.format('<o:agentProfile xmlns:o="urn:o" role="worker"/>')
    ),
    "unknown-hagent-element-on-lane": _fragment(
        "", lane_ext=EXT.format('<hagent:reflection mode="self"/>')
    ),
    "foreign-extension": _fragment(
        "", lane_ext=EXT.format('<x:color xmlns:x="urn:x" v="1"><x:a/></x:color>')
    ),
    "two-extension-blocks": _fragment(
        "",
        lane_ext=EXT.format('<hagent:agentProfile role="worker"/>')
        + EXT.format('<hagent:agentProfile role="manager" trustScore="7"/>'),
    ),
    "artifacts-and-unsupported": _fragment(
        '<bpmn:textAnnotation id="ta"><bpmn:text>a &amp; b</bpmn:text></bpmn:textAnnotation>'
        '<bpmn:association id="as" sourceRef="ta" targetRef="start-bug"/>'
        '<bpmn:group id="g" name="G"/><bpmn:dataObject id="d"/>'
        '<bpmn:callActivity id="ca"/><x:foo xmlns:x="urn:x"/>'
        '<bpmn:task name="no id"/><bpmn:group id="g"/>'
    ),
    "repeated-decodes-then-a-bad-one": _fragment(
        "",
        lane_ext=EXT.format('<hagent:agentProfile role="manager" trustScore="90" extra="1"/>'),
    ),
    "a-bad-element-on-two-lanes": _fragment(
        "",
        lane_ext=EXT.format('<hagent:agentProfile role="worker" trustScore="x"/>'),
    ).replace(
        b'<bpmn:lane id="lane-maintainer" name="Maintainer">',
        b'<bpmn:lane id="lane-maintainer" name="Maintainer">'
        + EXT.format('<hagent:agentProfile role="worker" trustScore="x"/>').encode(),
    ),
    "reflection-on-gateway": _replace(
        b'<hagent:collaboration mode="role"/>',
        b'<hagent:collaboration mode="role"/><hagent:reflection mode="self"/>',
    ),
    "trust-on-gateway": _replace(
        b'<hagent:merge strategy="role.leaderDriven"/>',
        b'<hagent:uncertainty trustScore="40"/><hagent:merge strategy="role.leaderDriven"/>',
    ),
    "merge-on-task": _replace(
        b'<hagent:uncertainty trustScore="80"/>',
        b'<hagent:uncertainty trustScore="80"/><hagent:merge strategy="voting.majority"/>',
    ),
    "extension-on-start-event": _replace(
        b'<bpmn:startEvent id="start-bug" name="Bug observed"/>',
        b'<bpmn:startEvent id="start-bug">' + EXT.format(
            '<hagent:uncertainty trustScore="1"/><hagent:foo/>'
        ).encode() + b"</bpmn:startEvent>",
    ),
    "agentic-exclusive-gateway": _replace(
        b'<bpmn:exclusiveGateway id="gw-validity" name="Valid bug?"/>',
        b'<bpmn:exclusiveGateway id="gw-validity">'
        + EXT.format('<hagent:collaboration mode="voting"/>').encode()
        + b"</bpmn:exclusiveGateway>",
    ),
    "message-flows": _replace(
        b"</bpmn:collaboration>",
        b'<bpmn:messageFlow id="mf-1" sourceRef="task-resolve" targetRef="start-bug">'
        + EXT.format(
            '<hagent:collaboration mode="debate"/><hagent:uncertainty trustScore="3"/>'
        ).encode()
        + b'</bpmn:messageFlow><bpmn:messageFlow id="mf-2" sourceRef="a" targetRef="b">'
        + EXT.format(
            '<hagent:collaboration mode="debate"/><hagent:merge strategy="role.composed"/>'
        ).encode()
        + b"</bpmn:messageFlow></bpmn:collaboration>",
    ),
    # absent required attributes, read as they always were
    "uncertainty-without-trust": _replace(
        b'<hagent:uncertainty trustScore="80"/>', b"<hagent:uncertainty/>"
    ),
    "collaboration-without-mode": _replace(
        b'<hagent:collaboration mode="role"/>', b"<hagent:collaboration/>"
    ),
    "merge-without-strategy": _replace(
        b'<hagent:merge strategy="role.leaderDriven"/>', b"<hagent:merge/>"
    ),
    "reflection-without-mode": _replace(
        b'<hagent:reflection mode="self" maxRounds="3"/>',
        b'<hagent:reflection maxRounds="0"/>',
    ),
    "empty-role": _replace(b'role="manager"', b'role=""'),
    "two-unknown-attributes": _replace(
        b'<hagent:uncertainty trustScore="80"/>',
        b'<hagent:uncertainty a="1" trustScore="80" b="2"/>',
    ),
    "lane-with-two-unexpected-elements-and-no-role": _fragment(
        "",
        lane_ext=EXT.format(
            '<hagent:merge strategy="voting.majority"/><hagent:agentProfile/>'
            '<hagent:foo/>'
        ),
    ),
    "cross-reflection-with-blank-reviewers": _replace(
        b'<hagent:reflection mode="self" maxRounds="3"/>',
        b'<hagent:reflection mode="cross" reviewers=" , "/>',
    ),
    "empty-human": _replace(
        b'<hagent:reflection mode="self" maxRounds="3"/>',
        b'<hagent:reflection mode="self" human=""/>',
    ),
    # a trust text read from the table of scores ("0" to "100") or by value
    **{
        f"trust-text-{name}": _replace(b'trustScore="90"', f'trustScore="{text}"'.encode())
        .replace(b'trustScore="80"', f'trustScore="{text}"'.encode())
        for name, text in [
            ("0", "0"), ("100", "100"), ("blanks", " 42 "), ("plus-zeros", "+042"),
            ("minus-zero", "-0"), ("underscore", "1_0"), ("arabic-indic", "\u0664\u0662"),
            ("trailing-blank", "100 "), ("101", "101"),
        ]
    },
    "unknown-encoding": FIXTURE_BYTES.replace(b"UTF-8", b"UTF-9", 1),
    "multi-byte-encoding": FIXTURE_BYTES.replace(b"UTF-8", b"utf-32", 1),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_readers_agree_on_the_corpus(name):
    assert_readers_agree(CORPUS[name])


# Tokens to insert: markup of every kind the reader handles, attributes,
# odd namespaces and declarations, and bytes that break well-formedness.
ELEMENT_TOKENS = [
    b'<bpmn:task id="t-new"/>',
    b'<bpmn:subProcess id="sp"/>',
    b'<bpmn:inclusiveGateway id="ig"/>',
    b'<bpmn:complexGateway id="cg"/>',
    b'<bpmn:textAnnotation id="ta"><bpmn:text>x</bpmn:text></bpmn:textAnnotation>',
    b'<bpmn:association id="as" sourceRef="start-bug" targetRef="ta"/>',
    b'<bpmn:group id="g"/>',
    b'<bpmn:dataObject id="d" name="D"/>',
    b'<bpmn:callActivity id="u"/>',
    b"<bpmn:participantMultiplicity/>",
    b'<bpmn:messageFlow id="mf" sourceRef="task-resolve" targetRef="start-bug"/>',
    b'<bpmn:flowNodeRef>t-new</bpmn:flowNodeRef>',
    b"<bpmn:extensionElements>",
    b"</bpmn:extensionElements>",
    b'<hagent:merge strategy="voting.majority"/>',
    b'<hagent:collaboration mode="voting"/>',
    b'<hagent:uncertainty trustScore="5"/>',
    b'<hagent:reflection mode="cross" reviewers="lane-user, lane-coder-a"/>',
    b'<hagent:reflection mode="human" human="lane-user" maxRounds="2"/>',
    b'<hagent:agentProfile role="worker"/>',
    b'<x:foo xmlns:x="urn:x"><x:bar/></x:foo>',
    b"<!-- c -->",
    b"<?pi x?>",
]
ATTRIBUTE_TOKENS = [
    b' id="start-bug"',
    b' id=""',
    b' name="a &amp; &quot;b&quot;"',
    b' name="tab&#9;nl&#10;"',
    b' trustScore="x"',
    b' trustScore="101"',
    # integer texts that are not canonical: read by value, not from the table
    b' trustScore=" 42 "',
    b' trustScore="+042"',
    b' trustScore="-0"',
    b' trustScore="1_0"',
    ' trustScore="\u0664\u0662"'.encode(),
    b' trustScore="100 "',
    b' maxRounds="0"',
    b' maxRounds=" +2 "',
    b' mode="debate"',
    b' strategy="role.composed"',
    b' reviewers=""',
    b' processRef="nowhere"',
    b' foo="1"',
    f' xmlns:bpmn="{BPMN_NS}}}x"'.encode(),
    f' xmlns:hagent="{HAGENT_NS}}}y"'.encode(),
    b' xmlns:hagent="urn:other"',
]
RAW_TOKENS = [
    b"<", b">", b"/", b'"', b"&", b"}", b"=", b" ", b"\n", b"\xff", b"\x00",
    b'<?xml version="1.0" encoding="UTF-9"?>',
    b'<?xml version="1.0" encoding="utf-32"?>',
]


def _offsets(data, pattern):
    return [match.start() for match in re.finditer(pattern, data)]


STRUCTURED_OPS = [
    "insert-element", "insert-attribute", "delete-element", "delete-attribute",
    "splice-line",
]
BLIND_OPS = ["delete-bytes", "insert-raw", "splice-bytes"]


@st.composite
def mutated_fixtures(draw):
    """The fixture after 1-3 mutations: byte deletions, token insertions and
    splices, each either blind or on markup boundaries (so that a fair share
    of the results is still well-formed)."""
    data = bytes(FIXTURE_BYTES)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(3 * STRUCTURED_OPS + BLIND_OPS))
        if op == "delete-bytes":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + data[at + draw(st.integers(1, 24)):]
        elif op in ("delete-element", "delete-attribute"):
            pattern = rb"<[^<>/]*/>" if op == "delete-element" else rb' [\w:]+="[^"]*"'
            spans = [match.span() for match in re.finditer(pattern, data)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                data = data[:start] + data[end:]
        elif op.startswith("insert"):
            if op == "insert-element":
                token = draw(st.sampled_from(ELEMENT_TOKENS))
                places = [at + 1 for at in _offsets(data, rb">")]
            elif op == "insert-attribute":
                token = draw(st.sampled_from(ATTRIBUTE_TOKENS))
                places = _offsets(data, rb" (?:id|role|mode|strategy|trustScore)=")
            else:
                token = draw(st.sampled_from(RAW_TOKENS))
                places = []
            at = draw(st.sampled_from(places)) if places else draw(
                st.integers(0, len(data))
            )
            data = data[:at] + token + data[at:]
        else:
            if op == "splice-bytes":
                start = draw(st.integers(0, len(data)))
                piece = data[start:start + draw(st.integers(1, 200))]
                at = draw(st.integers(0, len(data)))
            else:  # copy a whole line (often a whole element) to a line start
                lines = data.splitlines(keepends=True)
                piece = draw(st.sampled_from(lines)) if lines else b""
                starts = [0] + [at + 1 for at in _offsets(data, rb"\n")]
                at = draw(st.sampled_from(starts))
            data = data[:at] + piece + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_readers_agree_on_mutated_fixtures(document):
    assert_readers_agree(document)


# the hagent elements of a host, by the host's tag: sets that both readers
# take, then sets that both refuse, in few enough variants that equal
# elements meet on several hosts of one document
_COLLAB_SETS = [
    '<hagent:collaboration mode="role"/>',
    '<hagent:merge strategy="role.leaderDriven"/>',
    '<hagent:collaboration mode="role"/><hagent:uncertainty trustScore="40"/>',
]
_REPEATED = {
    b"lane": (
        ['<hagent:agentProfile role="worker" trustScore="70"/>',
         '<hagent:agentProfile trustScore="70" role="worker"/>',
         '<hagent:agentProfile role="manager"/>'],
        ['<hagent:agentProfile role="" trustScore="7"/>',
         '<hagent:agentProfile role="worker" trustScore="x"/>',
         '<hagent:agentProfile role="worker" extra="1"/>'],
    ),
    b"task": (
        ['<hagent:uncertainty trustScore="80"/>',
         '<hagent:reflection mode="self" maxRounds="3"/>',
         '<hagent:reflection mode="self" maxRounds="3"/><hagent:uncertainty trustScore="80"/>',
         '<hagent:reflection mode="cross" reviewers="lane-coder-a, lane-coder-b"/>',
         '<hagent:reflection mode="human" human="lane-user"/>'],
        ['<hagent:uncertainty trustScore="101"/>',
         '<hagent:reflection mode="cross"/>',
         '<hagent:reflection mode="self" maxRounds="0"/>',
         '<hagent:merge strategy="role.composed"/>'],
    ),
    b"parallelGateway": (
        _COLLAB_SETS,
        ['<hagent:collaboration mode="chat"/>',
         '<hagent:merge strategy="voting.majority" x="1"/>',
         '<hagent:uncertainty trustScore="40"/>',
         '<hagent:agentProfile role="worker"/>'],
    ),
    b"exclusiveGateway": ([], _COLLAB_SETS),  # E-XOR-AGENTIC
    # the one pool's tasks: a message flow between them is refused
    b"messageFlow": ([], _COLLAB_SETS),
}
# the fixture without its extensions, and the elements that may host them
_BARE_FIXTURE = re.sub(
    rb"\s*<bpmn:extensionElements>.*?</bpmn:extensionElements>", b"", FIXTURE_BYTES,
    flags=re.S,
)
_HOST = re.compile(rb'<bpmn:(lane|task|\w+Gateway|messageFlow) id="[^"]*"[^>]*?(/?)>')


@st.composite
def repeated_extensions(draw):
    """The fixture with the hagent elements of every lane, task and gateway
    drawn anew from ``_REPEATED``; in one document of three, hosts may also
    draw refused elements and two message flows are added."""
    refused = draw(st.integers(0, 2)) == 0

    def host(match):
        tag, empty = match.groups()
        clean, bad = _REPEATED[tag]
        ext = draw(st.sampled_from([""] + clean + (bad if refused else [])))
        if not ext:
            return match.group()
        opened = match.group()[:-2] + b">" if empty else match.group()
        closed = b"</bpmn:" + tag + b">" if empty else b""
        return opened + EXT.format(ext).encode() + closed

    document = _BARE_FIXTURE
    if refused:
        flows = b"".join(
            b'<bpmn:messageFlow id="mf-%d" sourceRef="task-resolve" targetRef="start-bug"/>'
            % i for i in range(2)
        )
        document = document.replace(
            b"</bpmn:collaboration>", flows + b"</bpmn:collaboration>"
        )
    return _HOST.sub(host, document)


@settings(max_examples=200, deadline=None)
@given(repeated_extensions())
def test_readers_agree_on_repeated_extension_elements(document):
    assert_readers_agree(document)


# -- the whole pipeline on mutated documents ----------------------------------


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_validate_skips_only_what_the_reader_checked(document):
    # a replace()d copy is not marked as parsed, so it is tested in full
    model = parse_model(document).model
    if model is None:
        return
    copy = replace(model)
    assert model.parsed and not copy.parsed
    assert validate_model(model) == validate_model(copy)


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_pipeline_is_total_on_mutated_fixtures(document):
    model = parse_model(document).model
    if model is None:
        return
    validate_model(model)
    try:
        render_svg(model)
    except MissingLayout:
        pass
    for scenario in (ScenarioPolicy(), SCENARIO):
        try:
            run_simulation(model, scenario)
        except SimulationError:
            pass


# -- the writer against the old one --------------------------------------------

_text = st.text(
    alphabet=st.sampled_from(list("ab -_'\"&<>\n\r\té中")), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_text, min_size=4, max_size=4), st.integers(0, 100))
def test_writers_agree_on_names_that_need_quoting(names, trust):
    model = parse_model(FIXTURE_BYTES).model
    pool = model.pools[0]
    lanes = tuple(replace(ln, name=names[0]) for ln in pool.lanes)
    nodes = tuple(replace(n, name=names[1]) for n in pool.nodes)
    lanes = lanes[:1] + (
        replace(
            lanes[1],
            agentic=m.AgentProfile(role=names[2] or "worker", trust=m.TrustScore(trust)),
        ),
    ) + lanes[2:]
    pool = replace(pool, name=names[3], lanes=lanes, nodes=nodes)
    model = replace(model, pools=(pool,))
    assert serialize_model(model) == old_xmlio.serialize_model(model)


_trust = st.one_of(st.none(), st.integers(-3, 103).map(m.TrustScore))
_profile = st.one_of(st.none(), st.builds(m.AgentProfile, role=_text, trust=_trust))


def _task_infos(lane_ref):
    reflection = st.builds(
        m.ReflectionMode,
        kind=st.sampled_from(m.ReflectionKind),
        max_rounds=st.integers(0, 5),
        reviewer_lane_ids=st.lists(lane_ref, max_size=3).map(tuple),
        human_lane_id=st.one_of(st.none(), st.just(""), lane_ref),
    )
    return st.one_of(
        st.none(),
        st.builds(
            m.AgenticTaskInfo, reflection=st.one_of(st.none(), reflection), trust=_trust
        ),
    )


@st.composite
def extension_variants(draw, lane_ref=_text, kept_lanes=()):
    """The fixture with every lane profile (but those of ``kept_lanes``),
    every task's agentic info and every agentic gateway's trust drawn anew;
    reflections name lanes drawn from ``lane_ref``."""
    model = parse_model(FIXTURE_BYTES).model
    pool = model.pools[0]
    lanes = tuple(
        ln if ln.id in kept_lanes else replace(ln, agentic=draw(_profile))
        for ln in pool.lanes
    )
    task_info = _task_infos(lane_ref)
    nodes = []
    for node in pool.nodes:
        if isinstance(node, m.Task):
            node = replace(node, agentic=draw(task_info))
        elif isinstance(node, m.Gateway) and node.agentic is not None:
            node = replace(node, agentic=replace(node.agentic, trust=draw(_trust)))
        nodes.append(node)
    pool = replace(pool, lanes=lanes, nodes=tuple(nodes))
    return replace(model, pools=(pool,))


@settings(max_examples=150, deadline=None)
@given(extension_variants())
def test_writers_agree_on_extension_variants(model):
    assert serialize_model(model) == old_xmlio.serialize_model(model)


# the fixture's lane ids, or text; the manager lane keeps its profile, so
# that the region has its decider and a share of the drawn models is valid
_LANE_IDS = tuple(ln.id for ln in parse_model(FIXTURE_BYTES).model.pools[0].lanes)


@settings(max_examples=150, deadline=None)
@given(
    extension_variants(
        lane_ref=st.one_of(st.sampled_from(_LANE_IDS), _text), kept_lanes={"lane-reviewer"}
    )
)
def test_models_that_validate_round_trip(model):
    if any(d.severity is Severity.ERROR for d in validate_model(model)):
        return
    assert parse_model(serialize_model(model)).model == model


# characters XML 1.0 cannot carry, a lone surrogate among them
_NOT_XML = ["\x00", "\x01", "\x0b", "\x1f", "\ufffe", "\uffff", "\ud800"]
# white space the reader strips from a condition and a flowNodeRef: XML's
# four characters and a no-break space
_SPACE = [" ", "\t", "\n", "\r", "\xa0"]
_raw_text = st.text(alphabet=st.sampled_from(list("ab -&<\r中") + _NOT_XML), min_size=1, max_size=4)
# the reader strips a condition and reads an empty one as none
_condition = st.text(alphabet=st.sampled_from(list("ab=&<") + _SPACE + _NOT_XML), max_size=4)
_margin = st.text(alphabet=st.sampled_from(_SPACE), max_size=2)


@st.composite
def text_variants(draw):
    """The fixture or one of its ``extension_variants`` with one name, role,
    reflection lane or condition drawn anew, from text that may hold a
    character XML 1.0 cannot carry, a condition that may be empty or have
    white space at an end; then, it may be, a node id that is empty or has
    white space or a carriage return in it, and an annotation with text
    drawn the same way."""
    model = draw(
        st.one_of(
            st.just(parse_model(FIXTURE_BYTES).model),
            extension_variants(
                lane_ref=st.one_of(st.sampled_from(_LANE_IDS), _text),
                kept_lanes={"lane-reviewer"},
            ),
        )
    )
    pool = model.pools[0]
    conditional = [f for f in pool.flows if f.condition is not None]
    old = draw(st.sampled_from([pool, *pool.lanes, *pool.nodes, *conditional]))
    text = draw(_raw_text)
    refl = getattr(getattr(old, "agentic", None), "reflection", None)
    if isinstance(old, m.SequenceFlow):
        new = replace(old, condition=draw(_condition))
    elif isinstance(old, m.Lane) and old.agentic is not None and draw(st.booleans()):
        new = replace(old, agentic=replace(old.agentic, role=text))
    elif refl is not None and draw(st.booleans()):
        if refl.kind is m.ReflectionKind.HUMAN:
            refl = replace(refl, human_lane_id=text)
        else:
            refl = replace(refl, reviewer_lane_ids=(text,))
        new = replace(old, agentic=replace(old.agentic, reflection=refl))
    else:
        new = replace(old, name=text)
    if old is pool:
        pool = new
    else:
        pool = replace(
            pool,
            **{
                part: tuple(new if e is old else e for e in getattr(pool, part))
                for part in ("lanes", "nodes", "flows")
            },
        )
    if draw(st.booleans()):
        pool = replace(pool, artifacts=(m.Annotation("note-1", draw(_raw_text)),))
    model = replace(model, pools=(pool,))
    if draw(st.booleans()):
        node_id = draw(st.sampled_from([n.id for n in pool.nodes]))
        middle = draw(st.sampled_from(["", "\r", " "]))
        new_id = draw(_margin) + node_id[:2] + middle + node_id[2:] + draw(_margin)
        model = rename_node(model, node_id, draw(st.sampled_from([new_id, ""])))
    return model


@settings(max_examples=150, deadline=None)
@given(text_variants())
@example(rename_node(parse_model(FIXTURE_BYTES).model, "task-report-bug", ""))
@example(replace(parse_model(FIXTURE_BYTES).model, id=""))
def test_models_with_raw_text_that_validate_round_trip(model):
    errors = {d.code for d in validate_model(model) if d.severity is Severity.ERROR}
    try:
        back = parse_model(serialize_model(model)).model
    except UnicodeEncodeError:  # the writer cannot encode a lone surrogate
        back = None
    # the converse too: a model that does not read back equal gets an error,
    # and one that no rule of the catalog gives
    assert bool(errors - {rule.code for rule in CATALOG}) == (back != model)
    if errors:
        return
    assert back == model
    assert render_svg(model).startswith(b"<?xml")


# -- models built from records, not read from XML ---------------------------------

def _mostly(common, rare):
    """``common`` nine times in ten, ``rare`` the tenth."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


# a name, a lane reference or a condition may hold a character XML 1.0
# cannot carry, one time in ten
_names = _mostly(st.sampled_from(["", "a", "Review é", "x & y"]), _raw_text)
_region_infos = st.one_of(
    st.none(),
    st.builds(
        m.AgenticRegionInfo,
        direction=st.just(m.GatewayDirection.DIVERGING),
        collaboration=st.sampled_from(m.CollaborationMode),
        trust=_trust,
    ),
    st.builds(
        m.AgenticRegionInfo,
        direction=st.just(m.GatewayDirection.MERGING),
        merge=st.sampled_from(m.MergeStrategy),
        trust=_trust,
    ),
)


@st.composite
def built_models(draw):
    """The arguments of a ``ProcessModel`` built from records: one or two
    pools of nodes of any class (the bare ``FlowNode`` too), named with
    texts that may hold characters XML 1.0 cannot carry, with agentic
    infos, sequence flows in a pool and message flows between pools; now
    and then an id that is empty or taken, or a lane that misses one of its
    nodes."""
    pools, nodes_by_pool = [], []
    lane_ids = [f"lane-{p}{k}" for p in range(2) for k in range(2)]
    lane_ref = _mostly(st.sampled_from(lane_ids), _raw_text)
    for p in range(draw(st.integers(1, 2))):
        lanes = lane_ids[2 * p: 2 * p + draw(st.integers(1, 2))]
        nodes = []
        for i in range(draw(st.integers(1, 5))):
            cls = draw(st.sampled_from([m.FlowNode, *list(m.NODE_TAGS) * 3]))
            node_id = draw(st.sampled_from([f"n-{p}{i}"] * 12 + ["n-00", ""]))
            extra = {}
            if cls is m.Task:
                extra["agentic"] = draw(_task_infos(lane_ref))
            elif cls is m.Gateway:
                extra = {"kind": draw(st.sampled_from(m.GatewayKind)), "agentic": draw(_region_infos)}
            nodes.append(cls(node_id, draw(st.sampled_from(lanes)), draw(_names), **extra))
        # no flow leaves an end event or enters a start event
        sources = [node.id for node in nodes if node.__class__ is not m.EndEvent]
        targets = [node.id for node in nodes if node.__class__ is not m.StartEvent]
        pairs = st.tuples(st.sampled_from(sources), st.sampled_from(targets))
        flows = [
            m.SequenceFlow(f"f-{p}{j}", a, b, draw(_mostly(st.sampled_from([None, "x > 1"]), _condition)))
            for j, (a, b) in enumerate(draw(st.lists(pairs, max_size=4)) if sources and targets else ())
        ]
        lanes = [
            m.Lane(
                lane_id,
                draw(_names),
                tuple(node.id for node in nodes if node.lane_id == lane_id)[draw(st.sampled_from([0] * 9 + [1])):],
                draw(_profile),
            )
            for lane_id in lanes
        ]
        pools.append(m.Pool(f"pool-{p}", draw(_names), tuple(lanes), tuple(nodes), tuple(flows)))
        nodes_by_pool.append(nodes)
    message_flows = []
    if len(nodes_by_pool) == 2:
        ends = [st.sampled_from([node.id for node in nodes]) for nodes in nodes_by_pool]
        pairs = st.tuples(*ends) | st.tuples(*reversed(ends))
        message_flows = [
            m.MessageFlow(f"mf-{j}", a, b, draw(_region_infos))
            for j, (a, b) in enumerate(draw(st.lists(pairs, max_size=3)))
        ]
    model_id = draw(st.sampled_from(["model-1"] * 8 + ["", "m\x01"]))
    return {"id": model_id, "pools": tuple(pools), "message_flows": tuple(message_flows)}


@settings(max_examples=300, deadline=None)
@given(built_models())
def test_built_models_are_refused_or_validated(parts):
    # construction refuses the model with a ModelError, or validate_model
    # returns its diagnostics; a model with no error among them reads back
    # equal
    try:
        model = m.ProcessModel(**parts)
    except m.ModelError:
        return
    diagnostics = validate_model(model)
    assert isinstance(diagnostics, list)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return
    assert parse_model(serialize_model(model)).model == model


@pytest.mark.parametrize(
    "value",
    ["plain-id", "", "it's", 'say "hi"', "a & b", "<x>", "tab\there", "cr\rlf\n",
     "both ' and \""],
)
def test_quote_attr_matches_quoteattr(value):
    assert quote_attr(value) == quoteattr(value)

