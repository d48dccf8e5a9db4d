import dataclasses
import enum
import gc
import xml.etree.ElementTree as ET
from unittest import mock

import pytest

from hagent import model as m
from hagent.xmlio import (
    BPMN_NS,
    HAGENT_NS,
    Severity,
    export_extension_schema,
    parse_model,
    paused_gc,
    serialize_model,
    written_texts,
)

from builders import lane, linear_model, one_pool_model, region_model, two_pool_message_model
from conftest import FIXTURES

FIXTURE = FIXTURES / "bug-triage.bpmn"


def parse_ok(document):
    result = parse_model(document)
    assert result.model is not None, result.diagnostics
    assert not result.errors
    return result


def codes(result):
    return sorted(d.code for d in result.diagnostics)


def doc(body):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<bpmn:definitions xmlns:bpmn="{BPMN_NS}" '
        f'xmlns:hagent="{HAGENT_NS}" id="doc">\n'
        f"{body}\n</bpmn:definitions>"
    )


MINIMAL_PROCESS = """
<bpmn:process id="p1">
  <bpmn:laneSet id="p1-lanes">
    <bpmn:lane id="lane-a" name="A">
      {lane_ext}
      <bpmn:flowNodeRef>n-start</bpmn:flowNodeRef>
      <bpmn:flowNodeRef>t-1</bpmn:flowNodeRef>
      <bpmn:flowNodeRef>n-end</bpmn:flowNodeRef>
    </bpmn:lane>
  </bpmn:laneSet>
  <bpmn:startEvent id="n-start"/>
  <bpmn:task id="t-1" name="Work">{task_ext}</bpmn:task>
  <bpmn:endEvent id="n-end"/>
  <bpmn:sequenceFlow id="f-01" sourceRef="n-start" targetRef="t-1"/>
  <bpmn:sequenceFlow id="f-02" sourceRef="t-1" targetRef="n-end"/>
</bpmn:process>
"""


def minimal(lane_ext="", task_ext=""):
    return doc(MINIMAL_PROCESS.format(lane_ext=lane_ext, task_ext=task_ext))


# -- extension mapping -------------------------------------------------------


def test_agent_profile_on_lane():
    result = parse_ok(
        minimal(
            lane_ext=(
                "<bpmn:extensionElements>"
                '<hagent:agentProfile role="manager" trustScore="90"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    lane_obj = result.model.index["lane-a"]
    assert lane_obj.agentic == m.AgentProfile("manager", m.TrustScore(90))


def test_profile_without_trust():
    result = parse_ok(
        minimal(
            lane_ext=(
                "<bpmn:extensionElements>"
                '<hagent:agentProfile role="critic"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model.index["lane-a"].agentic == m.AgentProfile("critic", None)


def test_reflection_and_uncertainty_on_task():
    result = parse_ok(
        minimal(
            task_ext=(
                "<bpmn:extensionElements>"
                '<hagent:reflection mode="cross" maxRounds="5" reviewers="lane-a"/>'
                '<hagent:uncertainty trustScore="65"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    task = result.model.index["t-1"]
    assert task.agentic.trust == m.TrustScore(65)
    refl = task.agentic.reflection
    assert refl.kind is m.ReflectionKind.CROSS
    assert refl.max_rounds == 5
    assert refl.reviewer_lane_ids == ("lane-a",)


def test_reflection_max_rounds_defaults_to_three():
    result = parse_ok(
        minimal(
            task_ext=(
                "<bpmn:extensionElements>"
                '<hagent:reflection mode="self"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model.index["t-1"].agentic.reflection.max_rounds == 3


def max_rounds_result(raw):
    return parse_model(
        minimal(
            task_ext=(
                "<bpmn:extensionElements>"
                f'<hagent:reflection mode="self" maxRounds="{raw}"/>'
                "</bpmn:extensionElements>"
            )
        )
    )


@pytest.mark.parametrize(
    "raw, value", [("5", 5), (" +3 ", 3), ("007", 7)], ids=["plain", "plus-spaces", "leading-zeros"]
)
def test_max_rounds_accepts_positive_integers(raw, value):
    result = max_rounds_result(raw)
    assert not result.diagnostics
    assert result.model.index["t-1"].agentic.reflection.max_rounds == value


@pytest.mark.parametrize(
    "raw",
    ["1_0", "\u0664", "\uff15", "0", "-1", "1.0", "9" * 5000],
    ids=["underscore", "arabic-indic", "fullwidth", "zero", "negative", "decimal",
         "over-int-digit-limit"],
)
def test_max_rounds_rejects_what_positive_integer_rejects(raw):
    result = max_rounds_result(raw)
    assert result.model is None
    assert [(d.code, d.element_id, d.message) for d in result.diagnostics] == [
        ("E-EXT", "t-1", f"maxRounds {raw!r} must be a positive integer")
    ]


def test_human_reflection_requires_lane_ref():
    result = parse_model(
        minimal(
            task_ext=(
                "<bpmn:extensionElements>"
                '<hagent:reflection mode="human"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model is None
    assert codes(result) == ["E-EXT"]


def test_cross_reflection_requires_reviewers():
    result = parse_model(
        minimal(
            task_ext=(
                "<bpmn:extensionElements>"
                '<hagent:reflection mode="cross"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model is None
    assert codes(result) == ["E-EXT"]


def test_empty_human_reads_as_absent():
    result = parse_ok(
        minimal(
            task_ext=(
                "<bpmn:extensionElements>"
                '<hagent:reflection mode="self" human=""/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    reflection = result.model.index["t-1"].agentic.reflection
    assert reflection.human_lane_id is None
    assert_round_trip(result.model)


def test_human_reflection_with_empty_human_requires_lane_ref():
    result = parse_model(
        minimal(
            task_ext=(
                "<bpmn:extensionElements>"
                '<hagent:reflection mode="human" human=""/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model is None
    assert [(d.code, d.element_id, d.message) for d in result.diagnostics] == [
        ("E-EXT", "t-1", "human reflection requires a human lane")
    ]


def test_gateway_collaboration_and_merge():
    model = parse_ok(FIXTURE.read_bytes()).model
    div = model.index["gw-collab-open"]
    assert div.kind is m.GatewayKind.PARALLEL
    assert div.agentic.direction is m.GatewayDirection.DIVERGING
    assert div.agentic.collaboration is m.CollaborationMode.ROLE
    mrg = model.index["gw-collab-merge"]
    assert mrg.agentic.direction is m.GatewayDirection.MERGING
    assert mrg.agentic.merge is m.MergeStrategy.ROLE_LEADER_DRIVEN


def test_condition_expression_preserved():
    model = parse_ok(FIXTURE.read_bytes()).model
    assert model.index["flow-04"].condition == 'label == "valid"'
    assert model.index["flow-05"].condition is None


def test_participant_multiplicity_maps_to_multi_instance():
    body = (
        '<bpmn:collaboration id="c1">'
        '<bpmn:participant id="pool-x" name="X" processRef="p1">'
        "<bpmn:participantMultiplicity/>"
        "</bpmn:participant>"
        "</bpmn:collaboration>"
        + MINIMAL_PROCESS.format(lane_ext="", task_ext="")
    )
    result = parse_ok(doc(body))
    assert result.model.pools[0].id == "pool-x"
    assert result.model.pools[0].multi_instance is True


# -- parse diagnostics -------------------------------------------------------


def test_malformed_xml():
    result = parse_model(b"<bpmn:definitions")
    assert result.model is None
    assert codes(result) == ["E-XML"]


@pytest.mark.parametrize(
    "encoding, message",
    [
        ("UTF-9", "unknown encoding: UTF-9"),
        ("rot13", "'rot13' is not a text encoding; use codecs.decode() to handle arbitrary codecs"),
        ("utf-32", "multi-byte encodings are not supported"),
    ],
)
def test_unusable_declared_encoding(encoding, message):
    result = parse_model(minimal().replace("UTF-8", encoding, 1))
    assert result.model is None
    assert [(d.code, d.element_id, d.message) for d in result.diagnostics] == [
        ("E-XML", None, f"malformed XML: {message}")
    ]


def test_wrong_root_element():
    result = parse_model(b"<nope/>")
    assert result.model is None
    assert codes(result) == ["E-XML"]


def test_duplicate_id():
    bad = minimal().replace('id="f-02"', 'id="f-01"')
    result = parse_model(bad)
    assert result.model is None
    assert "E-DUP-ID" in codes(result)


def test_dangling_sequence_flow():
    bad = minimal().replace('targetRef="n-end"', 'targetRef="missing"')
    result = parse_model(bad)
    assert result.model is None
    assert "E-REF" in codes(result)


def test_node_in_no_lane():
    bad = minimal().replace("<bpmn:flowNodeRef>t-1</bpmn:flowNodeRef>", "")
    result = parse_model(bad)
    assert result.model is None
    assert "E-REF" in codes(result)


def test_trust_out_of_range():
    result = parse_model(
        minimal(
            lane_ext=(
                "<bpmn:extensionElements>"
                '<hagent:agentProfile role="worker" trustScore="150"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model is None
    assert codes(result) == ["E-TRUST-RANGE"]


def test_non_integer_trust():
    result = parse_model(
        minimal(
            lane_ext=(
                "<bpmn:extensionElements>"
                '<hagent:agentProfile role="worker" trustScore="high"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model is None
    assert codes(result) == ["E-EXT"]


def lane_trust_result(raw):
    return parse_model(
        minimal(
            lane_ext=(
                "<bpmn:extensionElements>"
                f'<hagent:agentProfile role="worker" trustScore="{raw}"/>'
                "</bpmn:extensionElements>"
            )
        )
    )


@pytest.mark.parametrize(
    "raw, value",
    [("42", 42), ("+42", 42), ("-0", 0), ("007", 7), (" 42 ", 42), ("&#9;42&#13;&#10;", 42)],
    ids=["plain", "plus", "minus-zero", "leading-zeros", "spaces", "tab-cr-lf"],
)
def test_trust_accepts_xsd_integers(raw, value):
    result = lane_trust_result(raw)
    assert not result.diagnostics
    assert result.model.index["lane-a"].agentic.trust == m.TrustScore(value)


@pytest.mark.parametrize(
    "raw",
    ["4_2", "\u0664\u0662", "42.0", "", " ", "4 2", "0x2a", "&#160;42", "+-4", "\uff14\uff12",
     "9" * 5000, "0" * 5000 + "1"],
    ids=["underscore", "arabic-indic", "decimal", "empty", "blank", "inner-space",
         "hex", "nbsp", "two-signs", "fullwidth", "past-int-digit-limit",
         "zeros-past-int-digit-limit"],
)
def test_trust_rejects_what_xsd_integer_rejects(raw):
    result = lane_trust_result(raw)
    assert result.model is None
    assert codes(result) == ["E-EXT"]
    assert "is not an integer" in result.diagnostics[0].message


def test_unknown_merge_strategy():
    body = MINIMAL_PROCESS.format(lane_ext="", task_ext="").replace(
        '<bpmn:task id="t-1" name="Work"></bpmn:task>',
        '<bpmn:parallelGateway id="t-1">'
        "<bpmn:extensionElements>"
        '<hagent:merge strategy="voting.plurality"/>'
        "</bpmn:extensionElements>"
        "</bpmn:parallelGateway>",
    )
    result = parse_model(doc(body))
    assert result.model is None
    assert codes(result) == ["E-EXT"]


def test_unknown_hagent_attribute():
    result = parse_model(
        minimal(
            lane_ext=(
                "<bpmn:extensionElements>"
                '<hagent:agentProfile role="worker" trustscore="70"/>'
                "</bpmn:extensionElements>"
            )
        )
    )
    assert result.model is None
    assert codes(result) == ["E-EXT"]


def test_agentic_exclusive_gateway_rejected_at_parse():
    body = MINIMAL_PROCESS.format(lane_ext="", task_ext="").replace(
        '<bpmn:task id="t-1" name="Work"></bpmn:task>',
        '<bpmn:exclusiveGateway id="t-1">'
        "<bpmn:extensionElements>"
        '<hagent:collaboration mode="voting"/>'
        "</bpmn:extensionElements>"
        "</bpmn:exclusiveGateway>",
    )
    result = parse_model(doc(body))
    assert result.model is None
    assert codes(result) == ["E-XOR-AGENTIC"]


def test_unsupported_element_preserved_with_warning():
    body = MINIMAL_PROCESS.format(lane_ext="", task_ext="").replace(
        "<bpmn:endEvent", '<bpmn:userTask id="u-1"/><bpmn:endEvent'
    )
    result = parse_model(doc(body))
    assert result.model is not None
    assert codes(result) == ["W-UNSUPPORTED"]
    assert result.diagnostics[0].severity is Severity.WARNING
    assert any("userTask" in frag for frag in result.model.pools[0].opaque_elements)
    # the blob survives a serialize/parse cycle
    again = parse_model(serialize_model(result.model))
    assert any("userTask" in frag for frag in again.model.pools[0].opaque_elements)


DEPTH = 3000


def nested(tag, namespace=""):
    return f"<{tag}{namespace}>" + f"<{tag}>" * (DEPTH - 1) + f"</{tag}>" * DEPTH


DEEP_DOCUMENTS = {
    "foreign-extension": (
        minimal(
            task_ext="<bpmn:extensionElements>"
            + nested("x:a", ' xmlns:x="urn:x"')
            + "</bpmn:extensionElements>"
        ),
        "t-1",
        "a",
    ),
    "unsupported-process-element": (
        minimal().replace(
            '<bpmn:endEvent id="n-end"/>',
            '<bpmn:endEvent id="n-end"/>' + nested("bpmn:foo"),
        ),
        "p1",
        "foo",
    ),
    "unsupported-top-level-element": (
        doc(MINIMAL_PROCESS.format(lane_ext="", task_ext="") + nested("bpmn:foo")),
        "doc",
        "foo",
    ),
}


@pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
def test_opaque_content_nested_too_deeply_is_a_diagnostic(name):
    document, element_id, local = DEEP_DOCUMENTS[name]
    result = parse_model(document)
    assert result.model is None
    assert [(d.code, d.element_id, d.message) for d in result.errors] == [
        ("E-XML", element_id, f"<{local}> is nested too deeply to preserve")
    ]


# -- round-trips -------------------------------------------------------------


def assert_round_trip(model):
    data = serialize_model(model)
    assert serialize_model(model) == data  # byte-deterministic
    result = parse_model(data)
    assert not result.errors, result.diagnostics
    assert result.model == model
    assert serialize_model(result.model) == data


def test_round_trip_fixture():
    model = parse_ok(FIXTURE.read_bytes()).model
    assert_round_trip(model)


def test_round_trip_linear():
    assert_round_trip(linear_model())


def test_round_trip_regions():
    for strategy in m.MergeStrategy:
        assert_round_trip(region_model(merge=strategy))


def test_round_trip_message_flows():
    assert_round_trip(two_pool_message_model())
    assert_round_trip(two_pool_message_model(remote_multi=True))


def test_round_trip_foreign_blob():
    blob = '<ns0:meta xmlns:ns0="urn:example:x" note="keep me" />'
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "t-1", "n-end"])],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a", "Do work", foreign_ext=(blob,)),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "n-end"),
        ],
    )
    data = serialize_model(model)
    assert blob.encode() in data  # emitted verbatim
    assert_round_trip(model)


def test_round_trip_artifacts():
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "gw-c", "n-end", "t-1"])],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a"),
            m.Gateway("gw-c", "lane-a", kind=m.GatewayKind.COMPLEX),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "gw-c"),
            m.SequenceFlow("f-03", "gw-c", "n-end"),
        ],
        artifacts=[
            m.Annotation("ann-1", 'pick by majority & "consensus"'),
            m.Association("as-1", "ann-1", "gw-c"),
            m.Group("grp-1", "Review scope"),
            m.DataObject("do-1", "Patch"),
        ],
    )
    assert_round_trip(model)


def artifact_model():
    """Every artifact kind, a condition and both reflections that name lanes."""
    return one_pool_model(
        lanes=[lane("lane-a", ["n-start", "gw-c", "n-end", "t-1", "t-2"], role="worker")],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a", agentic=m.AgenticTaskInfo(
                m.ReflectionMode(m.ReflectionKind.CROSS, reviewer_lane_ids=("lane-a", "lane-b")))),
            m.Task("t-2", "lane-a", agentic=m.AgenticTaskInfo(
                m.ReflectionMode(m.ReflectionKind.HUMAN, human_lane_id="lane-c"))),
            m.Gateway("gw-c", "lane-a", kind=m.GatewayKind.COMPLEX),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "t-2"),
            m.SequenceFlow("f-03", "t-2", "gw-c"),
            m.SequenceFlow("f-04", "gw-c", "n-end", condition="x > 1"),
        ],
        artifacts=[
            m.Annotation("ann-1", "a note"),
            m.Association("as-1", "ann-1", "gw-c"),
            m.Group("grp-1", "Review scope"),
            m.DataObject("do-1", "Patch"),
        ],
    )


# fields that name another element, or hold opaque fragments, not text of their own
_NOT_OWN_TEXT = {"lane_id", "source_id", "target_id", "node_ids", "foreign_ext", "opaque_elements"}


def own_texts(value, elements):
    """Every str of a model element's fields and of the values it holds
    that are not elements themselves, references and fragments aside."""
    for f in dataclasses.fields(value):
        held = getattr(value, f.name)
        if f.name in _NOT_OWN_TEXT or isinstance(held, enum.Enum) or id(held) in elements:
            continue
        if isinstance(held, str):
            yield held
        elif isinstance(held, tuple):
            yield from (x for x in held if isinstance(x, str))
        elif dataclasses.is_dataclass(held):
            yield from own_texts(held, elements)


@pytest.mark.parametrize(
    "build",
    [lambda: parse_ok(FIXTURE.read_bytes()).model, artifact_model, two_pool_message_model],
    ids=["fixture", "artifacts", "message-flows"],
)
def test_written_texts_are_every_text_of_the_model(build):
    # so a text field the model gains is not missed by validate_model's E-XML
    model = build()
    elements = [model, *model.index.values()]
    written = {
        (id(e), text) for _, owners, texts in written_texts(model) for e, text in zip(owners, texts)
    }
    held = {(id(e), text) for e in elements for text in own_texts(e, set(map(id, elements)))}
    assert written == held


def test_empty_model_has_no_extension_elements():
    data = serialize_model(linear_model())
    assert b"<hagent:" not in data


def test_escaping_of_special_characters():
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "t-1", "n-end"], name='A & B <"C">')],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a", "Fix <save> & retry"),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1", condition='label == "a < b"'),
            m.SequenceFlow("f-02", "t-1", "n-end"),
        ],
    )
    assert_round_trip(model)


# -- extension schema --------------------------------------------------------

XSD = "http://www.w3.org/2001/XMLSchema"


def _schema_root():
    return ET.fromstring(export_extension_schema())


def test_schema_is_deterministic_and_well_formed():
    assert export_extension_schema() == export_extension_schema()
    root = _schema_root()
    assert root.get("targetNamespace") == HAGENT_NS


def _enums(root, type_name):
    for st in root.findall(f"{{{XSD}}}simpleType"):
        if st.get("name") == type_name:
            return [
                e.get("value")
                for e in st.find(f"{{{XSD}}}restriction").findall(
                    f"{{{XSD}}}enumeration"
                )
            ]
    raise AssertionError(f"no simpleType {type_name}")


def test_schema_literal_sets():
    root = _schema_root()
    assert _enums(root, "tMergeStrategy") == [s.value for s in m.MergeStrategy]
    assert _enums(root, "tCollaborationMode") == [
        c.value for c in m.CollaborationMode
    ]
    assert _enums(root, "tReflectionMode") == [r.value for r in m.ReflectionKind]


def test_schema_declares_all_extension_elements():
    root = _schema_root()
    names = {e.get("name") for e in root.findall(f"{{{XSD}}}element")}
    assert names == {"agentProfile", "reflection", "uncertainty", "collaboration", "merge"}


# -- the cyclic collector ------------------------------------------------------


@pytest.mark.parametrize(
    "document",
    [FIXTURE.read_bytes(), b"<bpmn:definitions", FIXTURE.read_text(encoding="utf-8")],
    ids=["valid", "malformed", "text"],
)
def test_parse_model_pauses_the_collector_and_restores_it(document, collector):
    seen = []
    fromstring = ET.fromstring

    def parse(data):
        seen.append(gc.isenabled())
        return fromstring(data)

    with mock.patch.object(ET, "fromstring", parse):
        parse_model(document)
    assert seen == [False]
    assert gc.isenabled() is collector


def test_nested_pauses_hold_until_the_outermost_one_ends(collector):
    with paused_gc():
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
        parse_model(FIXTURE.read_bytes())
        assert not gc.isenabled()
    assert gc.isenabled() is collector


def test_a_pause_ends_when_its_block_raises(collector):
    with pytest.raises(RuntimeError):
        with paused_gc():
            raise RuntimeError("bug")
    assert gc.isenabled() is collector
