import copy
import dataclasses
import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hagent import model as m
from hagent import scenario
from hagent import simulate as sim
from hagent.validate import validate_model
from hagent.xmlio import parse_model, serialize_model

from builders import (
    lane,
    linear_model,
    one_pool_model,
    region_model,
    replace_node,
    two_pool_message_model,
)
from conftest import FIXTURES, bench_gen

FIXTURE = FIXTURES / "bug-triage.bpmn"


def fixture_model():
    result = parse_model(FIXTURE.read_bytes())
    assert result.model is not None, result.diagnostics
    return result.model


# -- trust scores -----------------------------------------------------------


def test_mk_trust_score_bounds():
    assert m.mk_trust_score(0).value == 0
    assert m.mk_trust_score(100).value == 100
    with pytest.raises(m.OutOfRange):
        m.mk_trust_score(-1)
    with pytest.raises(m.OutOfRange):
        m.mk_trust_score(101)


def test_raw_trust_score_is_unchecked():
    # programmatic models may carry invalid scores; the validator flags them
    assert m.TrustScore(150).value == 150


# -- record classes and their makers ----------------------------------------

# hashable values of every kind a record field holds, and some it does not
_field_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.text(max_size=2), max_size=2).map(tuple),
    st.sampled_from(m.GatewayKind),
    st.builds(m.TrustScore, st.integers(-5, 105)),
    st.builds(m.AgentProfile, st.text(max_size=3)),
)


# every maker: the model's, the simulation's events' and the scenario's
_MAKERS = {**m._MAKERS, **sim._MAKERS, sim.CandidateOutput: scenario._make_output}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_MAKERS, key=lambda cls: cls.__name__)), st.data())
def test_makers_build_what_the_constructors_build(cls, data):
    values = [data.draw(_field_values, label=f.name) for f in fields(cls) if f.init]
    made, built = _MAKERS[cls](*values), cls(*values)
    assert type(made) is type(built) is cls
    assert made == built
    assert hash(made) == hash(built)
    assert repr(made) == repr(built)


# a value each scalar kind of a scenario row reads, written as the reader's
# one match takes it: decimal, or double-quoted text with no escape
_ONE_LINE_VALUES = {
    scenario._text: st.text(st.characters(blacklist_characters='"\\'), max_size=4),
    scenario._scalar: st.text(st.characters(blacklist_characters='"\\'), max_size=4),
    scenario._trust: st.integers(0, 100),
    scenario._int: st.integers(-(10**20), 10**20),
    scenario._optional_int: st.integers(-(10**20), 10**20),
}
_RECORDS = [scenario._OUTPUT, scenario._TASK, scenario._LANE, scenario._SCENARIO]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RECORDS), st.data())
def test_the_scenario_decoders_make_what_the_constructors_build(record, data):
    # each record's generated decoder makes, from the groups of its one
    # match, what record.build(**fields) builds from the same fields
    rows = data.draw(st.permutations([r for r in record.rows.values() if r.kind in _ONE_LINE_VALUES]))
    values = {
        row: data.draw(_ONE_LINE_VALUES[row.kind], label=row.key)
        for row in rows
        if row.field in record.required or data.draw(st.booleans(), label=f"{row.key}?")
    }
    text = "{" + ", ".join(
        f"{row.key}: {value}" if type(value) is int else f'{row.key}: "{value}"'
        for row, value in values.items()
    ) + "}"
    match = record.line(text)
    assert match is not None, text
    made = record.decode(*match.groups())
    built = record.build(**{row.field: row.kind(v, row, "") for row, v in values.items()})
    assert type(made) is type(built) is record.build
    assert (made, repr(made)) == (built, repr(built))
    if record is scenario._OUTPUT:
        assert hash(made) == hash(built)


def test_every_trace_event_and_output_has_a_maker():
    events = {c for c in vars(sim).values() if isinstance(c, type) and issubclass(c, sim.TraceEvent)}
    assert set(_MAKERS) >= events - {sim.TraceEvent} | {sim.CandidateOutput}


_SLOTTED = sorted(
    {
        c
        for module in (m, sim, scenario)
        for c in vars(module).values()
        if is_dataclass(c) and "__slots__" in vars(c)
    },
    key=lambda cls: cls.__name__,
)


def test_events_and_outputs_are_slotted_records():
    assert set(_SLOTTED) >= set(sim._MAKERS) | {sim.TraceEvent, sim.CandidateOutput}


@pytest.mark.parametrize("cls", _SLOTTED, ids=[cls.__name__ for cls in _SLOTTED])
def test_slotted_records_refuse_any_attribute_change(cls):
    record = object.__new__(cls)
    for name in (fields(cls)[0].name, "not_a_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


def _records(value):
    """Every dataclass instance reachable from ``value`` through fields and
    tuples."""
    out, stack = [], [value]
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            stack.extend(value)
        elif is_dataclass(value) and not isinstance(value, type):
            out.append(value)
            stack.extend(getattr(value, f.name) for f in fields(value))
    return out


@pytest.mark.parametrize("name", ["bug-triage", "broken-no-manager"])
def test_parsed_records_have_no_instance_dict(name):
    # a record built by filling its __dict__ would be larger and slower to
    # read; only the model keeps one, for cached_property and weak references
    model = parse_model((FIXTURES / f"{name}.bpmn").read_bytes()).model
    records = _records(model)
    assert records[0] is model and hasattr(model, "__dict__")
    assert {type(r) for r in records} >= {m.Pool, m.Lane, m.Task, m.Gateway, m.AgentProfile}
    assert [r for r in records[1:] if hasattr(r, "__dict__")] == []
    # slotted records still pickle, copy and replace as they did
    assert pickle.loads(pickle.dumps(model)) == model
    assert copy.deepcopy(model) == model
    task = next(r for r in records if type(r) is m.Task)
    assert replace(task, name="x") == m.Task(task.id, task.lane_id, "x", task.foreign_ext, task.agentic)


def _fixture_trace_records():
    model = fixture_model()
    policy = scenario.load_scenario((FIXTURES / "bug-triage.scn.yaml").read_bytes())
    return sim.run_simulation(model, policy).events


def test_trace_records_have_no_instance_dict():
    events = _fixture_trace_records()
    records = [r for r in _records(tuple(events)) if not isinstance(r, m.TrustScore)]
    assert {type(r) for r in records} == {
        sim.TokenEnter, sim.TokenEnd, sim.TaskDone, sim.ReflectionRound,
        sim.RegionOpen, sim.CandidateSet, sim.MergeDecision, sim.CandidateOutput,
    }
    assert [r for r in records if hasattr(r, "__dict__")] == []
    # slotted events still pickle, copy and replace as they did
    assert pickle.loads(pickle.dumps(events)) == events
    assert copy.deepcopy(events) == events
    for record in records:
        assert replace(record) == record
    done = next(e for e in events if type(e) is sim.TaskDone)
    out = done.output
    assert replace(out, label="x") == sim.CandidateOutput(
        "x", out.payload, out.confidence, out.producer_lane_id, out.latency_ms, out.completeness
    )
    assert replace(done, element_id="x") == sim.TaskDone("x", out, done.effective_trust)
    assert replace(done, element_id="x").kind == "TaskDone"


def test_trace_event_fields_keep_their_order():
    assert [f.name for f in fields(sim.TaskDone)] == ["kind", "element_id", "output", "effective_trust"]
    assert sim.TokenEnter("n").kind == "TokenEnter"
    with pytest.raises(TypeError):
        sim.TokenEnter("TokenEnd", "n")


def test_normalizing_a_delegation_block_replaces_no_record(monkeypatch):
    # ProcessModel puts pools and lanes in id order; it makes the sorted
    # copies with their makers, not with dataclasses.replace
    gen = bench_gen()
    calls = []

    def counted(record, **changes):
        calls.append(type(record).__name__)
        return replace(record, **changes)

    monkeypatch.setattr(dataclasses, "replace", counted)
    monkeypatch.setattr(m, "replace", counted, raising=False)
    cases = gen.build_deck("delegation", 7)[: gen.BLOCK_SIZE["delegation"]]
    models = [parse_model(case.xml).model for case in cases]
    assert None not in models
    assert calls == []


# -- structural invariants ---------------------------------------------------


def test_duplicate_ids_rejected():
    with pytest.raises(m.DuplicateId):
        one_pool_model(
            lanes=[lane("lane-a", ["x", "x"])],
            nodes=[m.StartEvent("x", "lane-a"), m.EndEvent("x", "lane-a")],
            flows=[],
        )


@pytest.mark.parametrize("reused", ["lane", "node"])
def test_model_id_is_reserved(reused):
    lane_id = "model-1" if reused == "lane" else "lane-a"
    node_id = "model-1" if reused == "node" else "n-start"
    with pytest.raises(m.DuplicateId):
        one_pool_model(
            lanes=[lane(lane_id, [node_id])],
            nodes=[m.StartEvent(node_id, lane_id)],
            flows=[],
            model_id="model-1",
        )


@pytest.mark.parametrize(
    "node_id, flow_id", [("model-1", "lane-a"), ("lane-a", "model-1")],
    ids=["model-id-first", "lane-id-first"],
)
def test_duplicate_id_names_the_first_one_met(node_id, flow_id):
    # ids are met pool by pool (the pool, its lanes, nodes, flows and
    # artifacts), then message flows; the model's own id is taken first
    with pytest.raises(m.DuplicateId) as raised:
        one_pool_model(
            lanes=[lane("lane-a", ["n-start", node_id])],
            nodes=[m.StartEvent("n-start", "lane-a"), m.EndEvent(node_id, "lane-a")],
            flows=[m.SequenceFlow(flow_id, "n-start", node_id)],
            model_id="model-1",
        )
    assert str(raised.value) == f"duplicate element id {node_id!r}"


def test_a_model_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        model = fixture_model()
        m.analyze_regions(model)
        validate_model(model)
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


def test_dangling_flow_rejected():
    with pytest.raises(m.DanglingReference):
        one_pool_model(
            lanes=[lane("lane-a", ["n-start"])],
            nodes=[m.StartEvent("n-start", "lane-a")],
            flows=[m.SequenceFlow("f-01", "n-start", "nowhere")],
        )


def test_node_outside_any_lane_rejected():
    with pytest.raises(m.InvariantViolation):
        one_pool_model(
            lanes=[lane("lane-a", ["n-start"])],
            nodes=[m.StartEvent("n-start", "lane-a"), m.EndEvent("n-end", "lane-a")],
            flows=[],
        )


def test_end_event_with_outgoing_flow_rejected():
    with pytest.raises(m.InvariantViolation):
        one_pool_model(
            lanes=[lane("lane-a", ["n-end", "t-1"])],
            nodes=[m.EndEvent("n-end", "lane-a"), m.Task("t-1", "lane-a")],
            flows=[m.SequenceFlow("f-01", "n-end", "t-1")],
        )


def test_message_flow_must_cross_pools():
    with pytest.raises(m.InvariantViolation):
        model = linear_model()
        m.ProcessModel(
            id="model-bad",
            pools=model.pools,
            message_flows=(m.MessageFlow("mf-1", "n-start", "t-1"),),
        )


def test_normalization_makes_order_irrelevant():
    a = linear_model()
    b = one_pool_model(
        lanes=[lane("lane-a", ["t-1", "n-end", "n-start"])],
        nodes=[
            m.EndEvent("n-end", "lane-a"),
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a", "Do work"),
        ],
        flows=[
            m.SequenceFlow("f-02", "t-1", "n-end"),
            m.SequenceFlow("f-01", "n-start", "t-1"),
        ],
    )
    assert a == b


def _two_lane_pool(**reversed_parts):
    """A canonical two-lane pool, with the named parts given in reverse."""
    parts = dict(
        lanes=(lane("lane-a", ["n-start", "t-1"]), lane("lane-b", ["n-end"])),
        nodes=(
            m.EndEvent("n-end", "lane-b"),
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a"),
        ),
        flows=(
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "n-end"),
        ),
        artifacts=(m.Group("g-1"), m.Group("g-2")),
    )
    for name in reversed_parts:
        if name == "node_ids":
            first = parts["lanes"][0]
            parts["lanes"] = (
                replace(first, node_ids=first.node_ids[::-1]),
            ) + parts["lanes"][1:]
        else:
            parts[name] = parts[name][::-1]
    return m.Pool(id="pool-1", **parts)


@pytest.mark.parametrize("part", ["lanes", "node_ids", "nodes", "flows", "artifacts"])
def test_normalization_sorts_each_part_on_its_own(part):
    canonical = m.ProcessModel(id="model-1", pools=(_two_lane_pool(),))
    shuffled = m.ProcessModel(id="model-1", pools=(_two_lane_pool(**{part: True}),))
    assert shuffled == canonical
    assert shuffled.pools[0].lanes[0].node_ids == ("n-start", "t-1")
    assert [ln.id for ln in shuffled.pools[0].lanes] == ["lane-a", "lane-b"]


def test_normalization_keeps_a_canonical_pool_as_it_is():
    pool = _two_lane_pool()
    model = m.ProcessModel(id="model-1", pools=(pool,))
    assert model.pools[0] is pool


def test_queries():
    model = linear_model()
    assert model.pool_of("t-1").id == "pool-1"
    assert model.lane_of("t-1").id == "lane-a"
    assert [f.id for f in model.outgoing("n-start")] == ["f-01"]
    assert [f.id for f in model.incoming("n-end")] == ["f-02"]


def _built_message_model():
    script = {
        task: sim.ScriptedBehavior(outputs=[sim.CandidateOutput(label=task)])
        for task in ("t-ask", "t-work", "t-refine", "t-use")
    }
    return two_pool_message_model(), sim.ScenarioPolicy(per_task=script)


def _delegation_model():
    case = bench_gen().build_deck("delegation", 7)[0]
    return parse_model(case.xml).model, sim.load_scenario(case.scenario)


@pytest.mark.parametrize("make", [_built_message_model, _delegation_model], ids=["built", "delegation"])
def test_pool_of_needs_no_flow_adjacency(make):
    model, scenario = make()
    assert model.message_flows
    validate_model(model)  # looks up the pool of each message-flow end
    assert "_adjacency" not in model.__dict__
    sim.run_simulation(model, scenario)  # walks the sequence flows
    assert "_adjacency" in model.__dict__
    with pytest.raises(m.DanglingReference, match="no pool contains node 'no-such-node'"):
        model.pool_of("no-such-node")
    with pytest.raises(m.DanglingReference):
        model.pool_of(model.pools[0].lanes[0].id)  # a lane is no node
    answers = {node.id: model.pool_of(node.id) for node in model.iter_nodes()}
    assert all(node in answers[node.id].nodes for node in model.iter_nodes())
    for copied in (replace(model), pickle.loads(pickle.dumps(model))):
        assert {node.id: copied.pool_of(node.id) for node in copied.iter_nodes()} == answers
        # the copy answers with its own pools
        own = {id(pool) for pool in copied.pools}
        assert all(id(copied.pool_of(node_id)) in own for node_id in answers)


def test_a_node_class_the_writer_has_no_element_for_is_refused():
    # validate_model reads a built model back through its XML, which has
    # no element for a bare FlowNode, nor for a subclass of a node class
    @m._record
    class Milestone(m.Task):
        pass

    with pytest.raises(m.InvariantViolation, match="'t-1' is a FlowNode, which has no BPMN element"):
        replace_node(linear_model(), "t-1", m.FlowNode("t-1", "lane-a"))
    with pytest.raises(m.InvariantViolation, match="'t-1' is a Milestone"):
        replace_node(linear_model(), "t-1", Milestone("t-1", "lane-a"))
    # a class it has an element for, in the middle of a chain, reads back
    for cls in (m.Task, m.SubProcess, m.Gateway):
        model = replace_node(linear_model(), "t-1", cls("t-1", "lane-a"))
        assert parse_model(serialize_model(model)).model == model


# -- region matching ---------------------------------------------------------


def _oracle_region(model, pool, div_id):
    """Independent region oracle via exhaustive simple-path enumeration."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(n.id for n in pool.nodes)
    g.add_edges_from((f.source_id, f.target_id) for f in pool.flows)
    sinks = [n for n in g.nodes if g.out_degree(n) == 0]

    def merging_gateways(path):
        return [
            n
            for n in path[1:]
            if isinstance(model.index[n], m.Gateway)
            and model.index[n].agentic is not None
            and model.index[n].agentic.direction is m.GatewayDirection.MERGING
        ]

    first_hits = set()
    for sink in sinks:
        for path in nx.all_simple_paths(g, div_id, sink):
            hits = merging_gateways(path)
            first_hits.add(hits[0] if hits else None)
    assert len(first_hits) == 1 and None not in first_hits
    merge_id = first_hits.pop()
    branches = set()
    for succ in g.successors(div_id):
        for path in nx.all_simple_paths(g, succ, merge_id):
            if div_id not in path:
                branches.add((div_id,) + tuple(path))
    return merge_id, branches


def test_find_merge_matches_fixture():
    model = fixture_model()
    region = m.find_merge_for(model, "gw-collab-open")
    assert region.merging_gateway_id == "gw-collab-merge"
    assert region.branches == (
        ("gw-collab-open", "task-propose-a", "gw-collab-merge"),
        ("gw-collab-open", "task-propose-b", "gw-collab-merge"),
    )
    assert region.participant_lane_ids == frozenset(
        {"lane-reviewer", "lane-coder-a", "lane-coder-b"}
    )


def test_find_merge_agrees_with_path_oracle():
    model = fixture_model()
    pool = model.pool_of("gw-collab-open")
    merge_id, branches = _oracle_region(model, pool, "gw-collab-open")
    region = m.find_merge_for(model, "gw-collab-open")
    assert region.merging_gateway_id == merge_id
    assert set(region.branches) == branches


def test_find_merge_oracle_on_generated_regions():
    for count in (1, 2, 3):
        model = region_model(branch_count=count)
        pool = model.pools[0]
        merge_id, branches = _oracle_region(model, pool, "gw-div")
        region = m.find_merge_for(model, "gw-div")
        assert region.merging_gateway_id == merge_id
        assert set(region.branches) == branches
        assert len(region.branches) == count


def test_nearest_merge_wins_over_later_one():
    # two merging gateways in a chain; the nearer one must be picked
    model = one_pool_model(
        lanes=[
            lane(
                "lane-a",
                ["n-start", "gw-div", "t-1", "t-2", "gw-m1", "gw-m2", "n-end"],
                role=m.MANAGER,
                trust_value=80,
            )
        ],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Gateway(
                "gw-div",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.DIVERGING,
                    collaboration=m.CollaborationMode.COMPETITION,
                ),
            ),
            m.Task("t-1", "lane-a"),
            m.Task("t-2", "lane-a"),
            m.Gateway(
                "gw-m1",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.MERGING,
                    merge=m.MergeStrategy.COMPETITION_FASTEST,
                ),
            ),
            m.Gateway(
                "gw-m2",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.MERGING,
                    merge=m.MergeStrategy.COMPETITION_FASTEST,
                ),
            ),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "gw-div"),
            m.SequenceFlow("f-02", "gw-div", "t-1"),
            m.SequenceFlow("f-03", "gw-div", "t-2"),
            m.SequenceFlow("f-04", "t-1", "gw-m1"),
            m.SequenceFlow("f-05", "t-2", "gw-m1"),
            m.SequenceFlow("f-06", "gw-m1", "gw-m2"),
            m.SequenceFlow("f-07", "gw-m2", "n-end"),
        ],
    )
    region = m.find_merge_for(model, "gw-div")
    assert region.merging_gateway_id == "gw-m1"


def test_degenerate_region_with_direct_edges():
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "gw-div", "gw-mrg", "n-end"], role=m.WORKER, trust_value=50)],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Gateway(
                "gw-div",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.DIVERGING,
                    collaboration=m.CollaborationMode.COMPETITION,
                ),
            ),
            m.Gateway(
                "gw-mrg",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.MERGING,
                    merge=m.MergeStrategy.COMPETITION_FASTEST,
                ),
            ),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "gw-div"),
            m.SequenceFlow("f-02", "gw-div", "gw-mrg"),
            m.SequenceFlow("f-03", "gw-div", "gw-mrg"),
            m.SequenceFlow("f-04", "gw-mrg", "n-end"),
        ],
    )
    region = m.find_merge_for(model, "gw-div")
    assert region.branches == (
        ("gw-div", "gw-mrg"),
        ("gw-div", "gw-mrg"),
    )


def test_no_matching_merge_on_plain_join():
    model = region_model(agentic_merge=False)
    with pytest.raises(m.NoMatchingMerge):
        m.find_merge_for(model, "gw-div")


def test_not_a_diverging_gateway():
    model = region_model()
    with pytest.raises(m.NoMatchingMerge):
        m.find_merge_for(model, "gw-mrg")
    with pytest.raises(m.NoMatchingMerge):
        m.find_merge_for(model, "t-seed")


def test_malformed_region_diamond_branch():
    # a diamond inside one branch yields two simple paths for one entry edge
    model = one_pool_model(
        lanes=[
            lane(
                "lane-a",
                [
                    "n-start",
                    "gw-div",
                    "gw-inner",
                    "t-1",
                    "t-2",
                    "gw-join",
                    "t-3",
                    "gw-mrg",
                    "n-end",
                ],
                role=m.WORKER,
                trust_value=50,
            )
        ],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Gateway(
                "gw-div",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.DIVERGING,
                    collaboration=m.CollaborationMode.COMPETITION,
                ),
            ),
            m.Gateway("gw-inner", "lane-a", kind=m.GatewayKind.PARALLEL),
            m.Task("t-1", "lane-a"),
            m.Task("t-2", "lane-a"),
            m.Gateway("gw-join", "lane-a", kind=m.GatewayKind.PARALLEL),
            m.Task("t-3", "lane-a"),
            m.Gateway(
                "gw-mrg",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.MERGING,
                    merge=m.MergeStrategy.COMPETITION_FASTEST,
                ),
            ),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "gw-div"),
            m.SequenceFlow("f-02", "gw-div", "gw-inner"),
            m.SequenceFlow("f-03", "gw-inner", "t-1"),
            m.SequenceFlow("f-04", "gw-inner", "t-2"),
            m.SequenceFlow("f-05", "t-1", "gw-join"),
            m.SequenceFlow("f-06", "t-2", "gw-join"),
            m.SequenceFlow("f-07", "gw-join", "gw-mrg"),
            m.SequenceFlow("f-08", "gw-div", "t-3"),
            m.SequenceFlow("f-09", "t-3", "gw-mrg"),
            m.SequenceFlow("f-10", "gw-mrg", "n-end"),
        ],
    )
    with pytest.raises(m.MalformedRegion):
        m.find_merge_for(model, "gw-div")


def test_malformed_region_external_entry():
    # a branch task fed from outside the region
    model = one_pool_model(
        lanes=[
            lane(
                "lane-a",
                ["n-start", "gw-pre", "t-side", "gw-div", "t-1", "t-2", "gw-mrg", "n-end"],
                role=m.WORKER,
                trust_value=50,
            )
        ],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Gateway("gw-pre", "lane-a", kind=m.GatewayKind.PARALLEL),
            m.Task("t-side", "lane-a"),
            m.Gateway(
                "gw-div",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.DIVERGING,
                    collaboration=m.CollaborationMode.COMPETITION,
                ),
            ),
            m.Task("t-1", "lane-a"),
            m.Task("t-2", "lane-a"),
            m.Gateway(
                "gw-mrg",
                "lane-a",
                kind=m.GatewayKind.PARALLEL,
                agentic=m.AgenticGatewayInfo(
                    direction=m.GatewayDirection.MERGING,
                    merge=m.MergeStrategy.COMPETITION_FASTEST,
                ),
            ),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "gw-pre"),
            m.SequenceFlow("f-02", "gw-pre", "gw-div"),
            m.SequenceFlow("f-03", "gw-pre", "t-side"),
            m.SequenceFlow("f-04", "t-side", "t-1"),
            m.SequenceFlow("f-05", "gw-div", "t-1"),
            m.SequenceFlow("f-06", "gw-div", "t-2"),
            m.SequenceFlow("f-07", "t-1", "gw-mrg"),
            m.SequenceFlow("f-08", "t-2", "gw-mrg"),
            m.SequenceFlow("f-09", "gw-mrg", "n-end"),
        ],
    )
    with pytest.raises(m.MalformedRegion):
        m.find_merge_for(model, "gw-div")


def test_region_roles_mark_non_agentic_lanes_human():
    model = fixture_model()
    region = m.find_merge_for(model, "gw-collab-open")
    assert m.region_roles(model, region) == {
        "lane-coder-a": "worker",
        "lane-coder-b": "worker",
        "lane-reviewer": "manager",
    }
    custom = region_model(hub_role="moderator")
    roles = m.region_roles(custom, m.find_merge_for(custom, "gw-div"))
    assert roles["lane-hub"] == "moderator"
    assert roles["lane-b1"] == "worker"


def test_agentic_gateway_info_exactly_one_of():
    with pytest.raises(m.InvariantViolation):
        m.AgenticGatewayInfo(direction=m.GatewayDirection.DIVERGING)
    with pytest.raises(m.InvariantViolation):
        m.AgenticGatewayInfo(
            direction=m.GatewayDirection.DIVERGING,
            collaboration=m.CollaborationMode.ROLE,
            merge=m.MergeStrategy.ROLE_COMPOSED,
        )
    with pytest.raises(m.InvariantViolation):
        m.AgenticGatewayInfo(direction=m.GatewayDirection.MERGING)


def test_agentic_message_flow_info_exactly_one_of():
    with pytest.raises(m.InvariantViolation):
        m.AgenticMessageFlowInfo(direction=m.MessageFlowDirection.OUTGOING)
    with pytest.raises(m.InvariantViolation):
        m.AgenticMessageFlowInfo(direction=m.MessageFlowDirection.INCOMING)
