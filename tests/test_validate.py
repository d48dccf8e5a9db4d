import pickle
import random
from dataclasses import replace

import pytest

from hagent import model as m
from hagent import validate
from hagent.simulate import load_scenario, run_simulation
from hagent.validate import CATALOG, render_diagnostics, validate_model
from hagent.xmlio import Severity, parse_model, serialize_model

from builders import (
    lane,
    linear_model,
    one_pool_model,
    region_model,
    rename_node,
    replace_lane,
    replace_node,
    two_pool_message_model,
)
from conftest import FIXTURES, bench_gen


def codes(model):
    return [d.code for d in validate_model(model)]


# -- per-rule trigger and one-edit clear -------------------------------------


def test_clean_models_yield_nothing():
    assert codes(linear_model()) == []
    assert codes(region_model()) == []


def test_e_pair():
    model = region_model(agentic_merge=False)
    assert codes(model) == ["E-PAIR"]
    fixed = replace_node(
        model,
        "gw-mrg",
        replace(
            model.index["gw-mrg"],
            agentic=m.AgenticGatewayInfo(
                direction=m.GatewayDirection.MERGING,
                merge=m.MergeStrategy.ROLE_LEADER_DRIVEN,
            ),
        ),
    )
    assert codes(fixed) == []


def test_e_mgr():
    model = region_model(hub_role=m.WORKER)
    assert codes(model) == ["E-MGR"]
    fixed = replace_lane(
        model, "lane-hub", agentic=m.AgentProfile(m.MANAGER, m.TrustScore(90))
    )
    assert codes(fixed) == []


def test_e_mgr_debate_needs_manager_too():
    model = region_model(
        collab=m.CollaborationMode.DEBATE,
        merge=m.MergeStrategy.VOTING_MAJORITY,
        hub_role=m.WORKER,
    )
    assert codes(model) == ["E-MGR"]
    assert codes(region_model(collab=m.CollaborationMode.DEBATE, merge=m.MergeStrategy.VOTING_MAJORITY)) == []


def test_e_mgr_custom_roles_are_worker_equivalent():
    assert codes(region_model(hub_role="moderator")) == ["E-MGR"]


def test_e_mgr_manager_on_branch_lane_suffices():
    model = region_model(hub_role=m.WORKER)
    fixed = replace_lane(
        model, "lane-b1", agentic=m.AgentProfile(m.MANAGER, m.TrustScore(70))
    )
    assert codes(fixed) == []


def test_e_xor_agentic():
    # an agentic merging gateway on an exclusive shape; no pairing involved
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "t-1", "gw-x", "n-end"], role=m.WORKER, trust_value=60)],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a"),
            m.Gateway(
                "gw-x",
                "lane-a",
                kind=m.GatewayKind.EXCLUSIVE,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.MERGING,
                    merge=m.MergeStrategy.COMPETITION_FASTEST,
                ),
            ),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "gw-x"),
            m.SequenceFlow("f-03", "gw-x", "n-end"),
        ],
    )
    # a reader code: the model's XML reads back refused, on the gateway
    assert [(d.code, d.element_id) for d in validate_model(model)] == [("E-XOR-AGENTIC", "gw-x")]
    fixed = replace_node(
        model, "gw-x", replace(model.index["gw-x"], kind=m.GatewayKind.PARALLEL)
    )
    assert codes(fixed) == []


def test_e_trust_range():
    model = region_model(branch_trusts=(150, 85))
    assert [(d.code, d.element_id) for d in validate_model(model)] == [("E-TRUST-RANGE", "lane-b1")]
    fixed = replace_lane(
        model, "lane-b1", agentic=m.AgentProfile(m.WORKER, m.TrustScore(70))
    )
    assert codes(fixed) == []


def test_e_trust_range_on_task_uncertainty():
    model = linear_model()
    model = replace_node(
        model,
        "t-1",
        replace(model.index["t-1"], agentic=m.AgenticTaskInfo(trust=m.TrustScore(-5))),
    )
    assert [(d.code, d.element_id) for d in validate_model(model)] == [("E-TRUST-RANGE", "t-1")]


def test_e_refl_ref():
    model = one_pool_model(
        lanes=[
            lane("lane-a", ["n-start", "t-1", "n-end"], role=m.WORKER, trust_value=60),
            lane("lane-b", [], name="Reviewer"),
        ],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task(
                "t-1",
                "lane-a",
                agentic=m.AgenticTaskInfo(
                    reflection=m.ReflectionMode(
                        kind=m.ReflectionKind.CROSS,
                        reviewer_lane_ids=("lane-b",),
                    )
                ),
            ),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "n-end"),
        ],
    )
    assert codes(model) == ["E-REFL-REF"]
    fixed = replace_lane(
        model, "lane-b", agentic=m.AgentProfile(m.WORKER, m.TrustScore(80))
    )
    assert codes(fixed) == []


def test_e_refl_ref_human_lane_must_be_non_agentic():
    model = region_model()
    model = replace_node(
        model,
        "t-b1",
        replace(
            model.index["t-b1"],
            agentic=m.AgenticTaskInfo(
                reflection=m.ReflectionMode(
                    kind=m.ReflectionKind.HUMAN, human_lane_id="lane-b2"
                )
            ),
        ),
    )
    assert codes(model) == ["E-REFL-REF"]
    fixed = replace_lane(model, "lane-b2", agentic=None)
    assert codes(fixed) == []


def _self_reflection(**fields):
    return m.AgenticTaskInfo(
        reflection=m.ReflectionMode(kind=m.ReflectionKind.SELF, **fields)
    )


@pytest.mark.parametrize(
    "lane_profile, task_info, code, element_id, message",
    [
        (m.AgentProfile(role=""), None, "E-EXT", "lane-a", "agentProfile requires a role"),
        (None, _self_reflection(max_rounds=0), "E-EXT", "t-1",
         "maxRounds '0' must be a positive integer"),
        (None, m.AgenticTaskInfo(), "E-XML", "t-1",
         "agentic AgenticTaskInfo(reflection=None, trust=None) reads back as None"),
        (None, m.AgenticTaskInfo(reflection=m.ReflectionMode(kind=m.ReflectionKind.CROSS)),
         "E-EXT", "t-1", "cross reflection requires reviewers"),
        (None, _self_reflection(reviewer_lane_ids=(" lane-a",)), "E-XML", "t-1",
         "agentic.reflection.reviewer_lane_ids (' lane-a',) reads back as ('lane-a',)"),
        (None, _self_reflection(reviewer_lane_ids=("a,b",)), "E-XML", "t-1",
         "agentic.reflection.reviewer_lane_ids ('a,b',) reads back as ('a', 'b')"),
        (None, _self_reflection(human_lane_id=""), "E-XML", "t-1",
         "agentic.reflection.human_lane_id '' reads back as None"),
    ],
    ids=["empty-role", "zero-rounds", "empty-task-info", "cross-without-reviewers",
         "spaced-reviewer", "comma-in-reviewer", "empty-human"],
)
def test_e_ext_on_values_the_xml_form_cannot_carry(
    lane_profile, task_info, code, element_id, message
):
    # the reader refuses the document serialize_model writes (E-EXT, in its
    # words), or reads it back as another model (E-XML, naming the field)
    model = replace_lane(linear_model(), "lane-a", agentic=lane_profile)
    model = replace_node(model, "t-1", replace(model.index["t-1"], agentic=task_info))
    errors = [
        (d.code, d.element_id, d.message)
        for d in validate_model(model)
        if d.severity is Severity.ERROR
    ]
    assert errors == [(code, element_id, message)]
    back = parse_model(serialize_model(model))
    assert back.model != model
    if back.model is None:
        assert [(d.code, d.element_id, d.message) for d in back.errors] == errors


def _with_pool(model, **changes):
    return replace(model, pools=(replace(model.pools[0], **changes),))


def _with_flow(model, **changes):
    first, *rest = model.pools[0].flows
    return _with_pool(model, flows=(replace(first, **changes), *rest))


def _reflecting(model, **fields):
    return replace_node(model, "t-1", replace(model.index["t-1"], agentic=_self_reflection(**fields)))


@pytest.mark.parametrize(
    "edit, element_id, field, text, char",
    [
        (lambda mdl: replace_lane(mdl, "lane-a", agentic=m.AgentProfile(role="a\x01b")),
         "lane-a", "role", "a\x01b", "\x01"),
        (lambda mdl: replace_node(mdl, "t-1", m.Task("t-1", "lane-a", "x\x0by")),
         "t-1", "name", "x\x0by", "\x0b"),
        (lambda mdl: replace(mdl, id="model\x00"), None, "id", "model\x00", "\x00"),
        (lambda mdl: _with_pool(mdl, name="pool\ufffe"), "pool-1", "name", "pool\ufffe", "\ufffe"),
        (lambda mdl: replace_lane(mdl, "lane-a", name="\uffff"), "lane-a", "name", "\uffff", "\uffff"),
        (lambda mdl: _with_flow(mdl, id="f-\x1f"), "f-\x1f", "id", "f-\x1f", "\x1f"),
        (lambda mdl: _with_flow(mdl, condition="ok\x08"), "f-01", "condition", "ok\x08", "\x08"),
        (lambda mdl: _with_pool(mdl, artifacts=(m.Annotation("note-1", "\ud800"),)),
         "note-1", "text", "\ud800", "\ud800"),
        (lambda mdl: _with_pool(mdl, artifacts=(m.DataObject("data-1", "d\x0c"),)),
         "data-1", "name", "d\x0c", "\x0c"),
        (lambda mdl: _reflecting(mdl, reviewer_lane_ids=("lane\x02",)),
         "t-1", "reviewer lane id", "lane\x02", "\x02"),
        (lambda mdl: _reflecting(mdl, human_lane_id="lane\x03"),
         "t-1", "human lane id", "lane\x03", "\x03"),
    ],
    ids=["role", "task-name", "model-id", "pool-name", "lane-name", "flow-id",
         "condition", "annotation-text", "data-object-name", "reviewer", "human-lane"],
)
def test_e_xml_on_characters_xml_cannot_carry(edit, element_id, field, text, char):
    model = edit(linear_model())
    errors = [
        (d.code, d.element_id, d.message)
        for d in validate_model(model)
        if d.severity is Severity.ERROR
    ]
    assert errors == [
        ("E-XML", element_id, f"{field} {text!r} holds {char!r}, which XML 1.0 cannot carry")
    ]
    # the writer cannot encode a lone surrogate; any other such character
    # makes a document parse_model refuses
    try:
        document = serialize_model(model)
    except UnicodeEncodeError:
        assert char == "\ud800"
    else:
        assert parse_model(document).model is None


def test_e_xml_names_each_character_once():
    model = replace_node(linear_model(), "t-1", m.Task("t-1", "lane-a", "\x01a\x02\x01"))
    assert [d.message for d in validate_model(model)] == [
        "name '\\x01a\\x02\\x01' holds '\\x01', which XML 1.0 cannot carry",
        "name '\\x01a\\x02\\x01' holds '\\x02', which XML 1.0 cannot carry",
    ]


@pytest.mark.parametrize(
    "edit, code, element_id, message",
    [
        (lambda mdl: _with_flow(mdl, condition=""), "E-XML", "f-01",
         "condition '' reads back as None"),
        (lambda mdl: _with_flow(mdl, condition=" a"), "E-XML", "f-01",
         "condition ' a' reads back as 'a'"),
        (lambda mdl: _with_flow(mdl, condition="a\r\n"), "E-XML", "f-01",
         "condition 'a\\r\\n' reads back as 'a'"),
        (lambda mdl: _with_flow(mdl, condition="\u00a0a"), "E-XML", "f-01",
         "condition '\\xa0a' reads back as 'a'"),
        # the reader strips the id it reads from a flowNodeRef
        (lambda mdl: rename_node(mdl, "n-start", " s"), "E-REF", " s",
         "node ' s' is in no lane"),
        (lambda mdl: rename_node(mdl, "t-1", "t-1\t"), "E-REF", "t-1\t",
         "node 't-1\\t' is in no lane"),
    ],
    ids=["empty-condition", "leading-space", "trailing-crlf", "nbsp", "node-id", "node-id-tab"],
)
def test_e_xml_on_texts_the_reader_does_not_keep(edit, code, element_id, message):
    model = edit(linear_model())
    assert [(d.code, d.element_id, d.message) for d in validate_model(model)] == [
        (code, element_id, message)
    ]
    # without the diagnostic the model would not come back as it went out
    back = parse_model(serialize_model(model)).model
    assert back != model


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda mdl: rename_node(mdl, "t-1", ""), "task <task> lacks an id"),
        (lambda mdl: _with_flow(mdl, id=""), "sequenceFlow <sequenceFlow> lacks an id"),
    ],
    ids=["task", "flow"],
)
def test_e_ref_on_an_empty_id(edit, message):
    # serialize_model writes id="", and the reader refuses it in these words
    model = edit(linear_model())
    expected = [("E-REF", None, message)]
    assert [(d.code, d.element_id, d.message) for d in validate_model(model)] == expected
    back = parse_model(serialize_model(model))
    assert back.model is None
    assert [(d.code, d.element_id, d.message) for d in back.diagnostics] == expected


def test_e_xml_on_an_empty_model_id():
    # the reader takes a definitions element without an id for one called
    # "definitions", so the model comes back under another id
    model = replace(linear_model(), id="")
    assert [(d.code, d.element_id, d.message) for d in validate_model(model)] == [
        ("E-XML", None, "id '' reads back as 'definitions'")
    ]
    back = parse_model(serialize_model(model))
    assert back.diagnostics == [] and back.model.id == "definitions"


@pytest.mark.parametrize(
    "edit",
    [
        lambda mdl: _with_flow(mdl, condition="a\rb"),
        lambda mdl: _with_flow(mdl, condition="a\r\n\tb"),
        lambda mdl: _with_pool(mdl, artifacts=(m.Annotation("note-1", "x\ry\r"),)),
        lambda mdl: rename_node(mdl, "t-1", "t\r1"),
        lambda mdl: rename_node(mdl, "t-1", "t 1"),
    ],
    ids=["condition", "condition-crlf", "annotation", "node-id", "node-id-space"],
)
def test_texts_with_carriage_returns_round_trip(edit):
    model = edit(linear_model())
    assert validate_model(model) == []
    assert parse_model(serialize_model(model)).model == model


def test_opaque_fragments_are_read_back_too():
    def holding(fragment):
        model = linear_model()
        return replace_node(model, "t-1", replace(model.index["t-1"], foreign_ext=(fragment,)))

    # the reader keeps a fragment as ElementTree writes it
    kept = '<ns0:a xmlns:ns0="urn:x" />'
    assert validate_model(holding(kept)) == []
    written = "<x:a xmlns:x='urn:x'/>"
    assert [(d.code, d.element_id, d.message) for d in validate_model(holding(written))] == [
        ("E-XML", "t-1", f"foreign_ext ({written!r},) reads back as ({kept!r},)")
    ]
    broken = validate_model(holding("<a>"))
    assert [(d.code, d.element_id) for d in broken] == [("E-XML", None)]
    assert broken[0].message.startswith("malformed XML: ")


@pytest.mark.parametrize("name", ["bug-triage", "broken-no-manager"])
def test_parsed_models_skip_only_checks_the_reader_made(name):
    model = parse_model((FIXTURES / f"{name}.bpmn").read_bytes()).model
    copy = replace(model)
    assert model.parsed and not copy.parsed and copy == model
    assert validate_model(model) == validate_model(copy)
    # a copy holding what the reader would have refused is tested in full
    lane_id = model.pools[0].lanes[0].id
    bad = replace_lane(model, lane_id, name="a\x01")
    assert not bad.parsed
    assert ("E-XML", lane_id) in {(d.code, d.element_id) for d in validate_model(bad)}


def _deck_documents():
    """One small model of each benchmark workload, as XML."""
    gen = bench_gen()
    return {
        "region-chain": gen.region_chain("region-chain", random.Random(1), 4).xml,
        "delegation": gen.delegation("delegation", random.Random(1), 8).xml,
        "lint-invalid": gen.lint_invalid(
            "lint-invalid", random.Random(1), 60, ["E-MGR", "W-UNSUPPORTED"]
        ).xml,
    }


_PARSED_DOCUMENTS = {
    **{name: (FIXTURES / f"{name}.bpmn").read_bytes() for name in ("bug-triage", "broken-no-manager")},
    **_deck_documents(),
}


@pytest.fixture
def read_backs(monkeypatch):
    """The models validate_model writes out to read back, one entry per write."""
    written = []
    original = validate.serialize_model

    def counting(model):
        written.append(model)
        return original(model)

    monkeypatch.setattr(validate, "serialize_model", counting)
    return written


@pytest.mark.parametrize("name", sorted(_PARSED_DOCUMENTS))
def test_only_built_models_are_read_back(name, read_backs):
    # every command validates parsed models, which never pay for the round trip
    model = parse_model(_PARSED_DOCUMENTS[name]).model
    assert model is not None and model.parsed
    diagnostics = validate_model(model)
    assert read_backs == []
    copy = replace(model)
    assert validate_model(copy) == diagnostics
    assert validate_model(copy) == diagnostics  # computed once per model
    assert [id(written) for written in read_backs] == [id(copy)]


def test_e_msg_dir():
    model = two_pool_message_model(remote_agentic=False)
    assert codes(model) == ["E-MSG-DIR", "E-MSG-DIR"]
    fixed = replace_lane(
        model, "lane-remote", agentic=m.AgentProfile(m.WORKER, m.TrustScore(75))
    )
    assert codes(fixed) == []


def test_e_vote_arity():
    model = region_model(
        collab=m.CollaborationMode.VOTING,
        merge=m.MergeStrategy.VOTING_MAJORITY,
        branch_count=1,
    )
    assert codes(model) == ["E-VOTE-ARITY"]
    fixed = replace_node(
        model,
        "gw-mrg",
        replace(
            model.index["gw-mrg"],
            agentic=m.AgenticGatewayInfo(
                direction=m.GatewayDirection.MERGING,
                merge=m.MergeStrategy.COMPETITION_FASTEST,
            ),
        ),
    )
    assert codes(fixed) == []
    assert (
        codes(
            region_model(
                collab=m.CollaborationMode.VOTING,
                merge=m.MergeStrategy.VOTING_MAJORITY,
                branch_count=2,
            )
        )
        == []
    )


def test_w_annot_strategy():
    def build(text):
        return one_pool_model(
            lanes=[lane("lane-a", ["n-start", "gw-c", "n-end"])],
            nodes=[
                m.StartEvent("n-start", "lane-a"),
                m.Gateway("gw-c", "lane-a", kind=m.GatewayKind.COMPLEX),
                m.EndEvent("n-end", "lane-a"),
            ],
            flows=[
                m.SequenceFlow("f-01", "n-start", "gw-c"),
                m.SequenceFlow("f-02", "gw-c", "n-end"),
            ],
            artifacts=[
                m.Annotation("ann-1", text),
                m.Association("as-1", "ann-1", "gw-c"),
            ],
        )

    noisy = build("pick the winner by majority voting")
    assert codes(noisy) == ["W-ANNOT-STRATEGY"]
    assert validate_model(noisy)[0].severity is Severity.WARNING
    assert codes(build("see appendix for details")) == []


def test_w_no_trust():
    model = region_model(branch_trusts=(None, 85))
    assert codes(model) == ["W-NO-TRUST"]
    fixed = replace_lane(
        model, "lane-b1", agentic=m.AgentProfile(m.WORKER, m.TrustScore(70))
    )
    assert codes(fixed) == []


# -- global behavior ---------------------------------------------------------


def test_fixture_is_clean():
    model = parse_model((FIXTURES / "bug-triage.bpmn").read_bytes()).model
    assert codes(model) == []


def test_broken_fixture_reports_single_e_mgr():
    model = parse_model((FIXTURES / "broken-no-manager.bpmn").read_bytes()).model
    diags = validate_model(model)
    assert [(d.code, d.element_id) for d in diags] == [("E-MGR", "gw-collab-merge")]


def test_output_is_deterministic_and_sorted():
    model = region_model(hub_role=m.WORKER, branch_trusts=(150, None))
    first = validate_model(model)
    assert first == validate_model(model)
    assert [d.code for d in first] == sorted(d.code for d in first)


def test_removing_merge_adds_exactly_one_e_pair():
    model = parse_model((FIXTURES / "bug-triage.bpmn").read_bytes()).model
    before = {(d.code, d.element_id) for d in validate_model(model)}
    stripped = replace_node(
        model, "gw-collab-merge", replace(model.index["gw-collab-merge"], agentic=None)
    )
    after = {(d.code, d.element_id) for d in validate_model(stripped)}
    assert after - before == {("E-PAIR", "gw-collab-open")}
    assert before - after == set()


def test_catalog_codes_unique_and_stable():
    rule_codes = [r.code for r in CATALOG]
    assert len(rule_codes) == len(set(rule_codes))
    assert rule_codes == [
        "E-PAIR",
        "E-MGR",
        "E-REFL-REF",
        "E-MSG-DIR",
        "E-VOTE-ARITY",
        "W-ANNOT-STRATEGY",
        "W-NO-TRUST",
    ]


def test_render_diagnostics_format():
    model = region_model(hub_role=m.WORKER)
    text = render_diagnostics(validate_model(model))
    assert text.startswith("E-MGR gw-mrg: ")


# -- one validation per model ------------------------------------------------


@pytest.fixture
def catalog_runs(monkeypatch):
    """The models the rule catalog runs over, one entry per run."""
    runs = []
    first = validate.CATALOG[0]

    def check(model):
        runs.append(model)
        return first.check(model)

    monkeypatch.setattr(validate, "CATALOG", [first._replace(check=check), *validate.CATALOG[1:]])
    return runs


def _broken():
    return parse_model((FIXTURES / "broken-no-manager.bpmn").read_bytes()).model


def test_each_call_returns_a_new_list_of_the_diagnostics(catalog_runs):
    model = _broken()
    first, second = validate_model(model), validate_model(model)
    assert first == second and first is not second
    first.clear()
    assert validate_model(model) == second != []
    assert catalog_runs == [model]


def test_a_replace_copy_is_validated_afresh(catalog_runs):
    model = _broken()
    copy = replace(model)
    assert validate_model(model) == validate_model(copy)
    assert [id(run) for run in catalog_runs] == [id(model), id(copy)]


@pytest.mark.parametrize("validated", [False, True], ids=["fresh", "validated"])
def test_a_pickled_model_gives_the_same_diagnostics(validated):
    model = _broken()
    if validated:
        validate_model(model)
    copy = pickle.loads(pickle.dumps(model))
    assert validate_model(copy) == validate_model(_broken()) != []


def test_simulation_after_validation_runs_the_catalog_once(catalog_runs):
    model = parse_model((FIXTURES / "bug-triage.bpmn").read_bytes()).model
    scenario = load_scenario((FIXTURES / "bug-triage.scn.yaml").read_bytes())
    assert validate_model(model) == []
    assert run_simulation(model, scenario).events
    assert catalog_runs == [model]
