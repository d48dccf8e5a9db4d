"""Region analysis is computed once per model and shared by every caller.

These tests gate on work counters (calls to the post-dominator analysis),
not on wall time, so they cannot flake.
"""

import dataclasses

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hagent import model as m
from hagent.cli import EXIT_OK, main
from hagent.validate import validate_model
from hagent.xmlio import Diagnostic, Severity, serialize_model

import old_matcher
from builders import lane, one_pool_model, region_model, replace_node


def two_region_chain():
    """start -> t-0 -> [div-1: 2 branches] -> mrg-1 -> [div-2: 2 branches] -> mrg-2 -> end."""
    hub = ["n-start", "t-0", "n-end"]
    nodes = [
        m.StartEvent("n-start", "lane-hub"),
        m.Task("t-0", "lane-hub", "Seed"),
        m.EndEvent("n-end", "lane-hub"),
    ]
    flows = [m.SequenceFlow("f-00", "n-start", "t-0")]
    lanes = []
    previous = "t-0"
    for r in (1, 2):
        div, mrg = f"div-{r}", f"mrg-{r}"
        hub += [div, mrg]
        nodes += [
            m.Gateway(div, "lane-hub", kind=m.GatewayKind.PARALLEL,
                      agentic=m.AgenticGatewayInfo(
                          direction=m.GatewayDirection.DIVERGING,
                          collaboration=m.CollaborationMode.COMPETITION)),
            m.Gateway(mrg, "lane-hub", kind=m.GatewayKind.PARALLEL,
                      agentic=m.AgenticGatewayInfo(
                          direction=m.GatewayDirection.MERGING,
                          merge=m.MergeStrategy.COMPETITION_FASTEST)),
        ]
        flows.append(m.SequenceFlow(f"f-{r}0", previous, div))
        for b in (1, 2):
            task = f"t-{r}{b}"
            lanes.append(lane(f"lane-{r}{b}", [task], role=m.WORKER, trust_value=80))
            nodes.append(m.Task(task, f"lane-{r}{b}", task))
            flows += [
                m.SequenceFlow(f"f-{r}{b}a", div, task),
                m.SequenceFlow(f"f-{r}{b}b", task, mrg),
            ]
        previous = mrg
    flows.append(m.SequenceFlow("f-99", previous, "n-end"))
    lanes.append(lane("lane-hub", hub, role=m.MANAGER, trust_value=90))
    return one_pool_model(lanes, nodes, flows)


SCENARIO = """
tasks:
  t-0: {outputs: [{label: seed}]}
  t-11: {outputs: [{label: a}], latencyMs: 10}
  t-12: {outputs: [{label: b}], latencyMs: 20}
  t-21: {outputs: [{label: c}], latencyMs: 30}
  t-22: {outputs: [{label: d}], latencyMs: 5}
"""


@pytest.fixture
def post_dominator_calls(monkeypatch):
    calls = []
    original = m._post_dominators

    def counting(model, pool):
        calls.append(pool.id)
        return original(model, pool)

    monkeypatch.setattr(m, "_post_dominators", counting)
    return calls


_COMMANDS = {
    "validate": ["validate"],
    "simulate": ["simulate", "--scenario", "{scn}", "--trace", "{out}"],
    "render": ["render", "-o", "{out}"],
}


def _commands(tmp_path, capsys):
    """A runner of each command on the two-region chain, written to a file."""
    bpmn, scn, out = tmp_path / "m.bpmn", tmp_path / "m.scn.yaml", tmp_path / "out"
    bpmn.write_bytes(serialize_model(two_region_chain()))
    scn.write_text(SCENARIO)

    def run(command):
        argv = _COMMANDS[command]
        args = [argv[0], str(bpmn)] + [a.format(scn=scn, out=out) for a in argv[1:]]
        assert main(args) == EXIT_OK, capsys.readouterr()

    return run


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_analyzes_the_pool_once(command, tmp_path, post_dominator_calls, capsys):
    _commands(tmp_path, capsys)(command)
    assert post_dominator_calls == ["pool-1"]


@pytest.mark.parametrize(
    "first, then",
    [(a, b) for a in _COMMANDS for b in _COMMANDS if a != b],
)
def test_a_second_command_on_the_same_bytes_reuses_the_model(
    first, then, tmp_path, post_dominator_calls, cli_parses, capsys
):
    # the model cli parsed for the first command comes back for the second,
    # with its analyses: no parse and no post-dominator analysis
    run = _commands(tmp_path, capsys)
    run(first)
    assert (len(cli_parses), post_dominator_calls) == (1, ["pool-1"])
    cli_parses.clear()
    post_dominator_calls.clear()
    run(then)
    assert (cli_parses, post_dominator_calls) == ([], [])


def test_analysis_is_memoized_per_model(post_dominator_calls):
    model = two_region_chain()
    regions = m.analyze_regions(model)
    assert sorted(regions) == ["div-1", "div-2"]
    assert m.analyze_regions(model) is regions
    assert m.find_merge_for(model, "div-2") is regions["div-2"]
    assert validate_model(model) == []
    assert post_dominator_calls == ["pool-1"]


def test_failed_pairing_raises_a_fresh_error_each_time():
    model = region_model(agentic_merge=False)
    cached = m.analyze_regions(model)["gw-div"]
    assert isinstance(cached, m.NoMatchingMerge)
    assert cached.__traceback__ is None
    raised = []
    for _ in range(2):
        with pytest.raises(m.ModelError) as info:
            m.find_merge_for(model, "gw-div")
        raised.append(info.value)
    assert [type(e) for e in raised] == [m.NoMatchingMerge, m.NoMatchingMerge]
    assert str(raised[0]) == str(raised[1]) == str(cached)
    assert raised[0] is not raised[1] and cached.__traceback__ is None


def test_replaced_copy_does_not_share_the_analysis():
    model = region_model()
    assert not isinstance(m.analyze_regions(model)["gw-div"], m.ModelError)
    plain_merge = m.Gateway("gw-mrg", "lane-hub", "Merge", kind=m.GatewayKind.PARALLEL)
    broken = replace_node(model, "gw-mrg", plain_merge)
    assert [d.code for d in validate_model(broken)] == ["E-PAIR"]
    assert validate_model(model) == []


# -- matching by immediate post-dominators -------------------------------------


def branch_region(tasks=(), gateways=(), edges=()):
    """start -> gw-div -> {t-other | the given branch} -> gw-mrg -> end.

    The branch's tasks and plain parallel gateways sit in one worker lane;
    ``edges`` are its (source, target) flows, including the ones that
    leave gw-div and enter gw-mrg.
    """
    hub = ["n-start", "gw-div", "t-other", "gw-mrg", "n-end"]
    nodes = [
        m.StartEvent("n-start", "lane-hub"),
        m.Gateway("gw-div", "lane-hub", kind=m.GatewayKind.PARALLEL,
                  agentic=m.AgenticGatewayInfo(
                      direction=m.GatewayDirection.DIVERGING,
                      collaboration=m.CollaborationMode.COMPETITION)),
        m.Task("t-other", "lane-hub"),
        m.Gateway("gw-mrg", "lane-hub", kind=m.GatewayKind.PARALLEL,
                  agentic=m.AgenticGatewayInfo(
                      direction=m.GatewayDirection.MERGING,
                      merge=m.MergeStrategy.COMPETITION_FASTEST)),
        m.EndEvent("n-end", "lane-hub"),
    ]
    nodes += [m.Task(t, "lane-w") for t in tasks]
    nodes += [m.Gateway(g, "lane-w", kind=m.GatewayKind.PARALLEL) for g in gateways]
    pairs = [("n-start", "gw-div"), ("gw-div", "t-other"), ("t-other", "gw-mrg"),
             ("gw-mrg", "n-end")] + list(edges)
    flows = [m.SequenceFlow(f"f-{i:05d}", s, t) for i, (s, t) in enumerate(pairs)]
    lanes = [
        lane("lane-hub", hub, role=m.MANAGER, trust_value=90),
        lane("lane-w", list(tasks) + list(gateways), role=m.WORKER, trust_value=80),
    ]
    return one_pool_model(lanes, nodes, flows)


class CountingDict(dict):
    """A dict that counts its lookups, to bound work without a clock."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def counted_adjacency(model):
    adj = CountingDict(m._build_adjacency(model))
    model.__dict__["_adjacency"] = adj  # where functools.cached_property looks
    return adj


def size(model):
    pool = model.pools[0]
    return len(pool.nodes) + len(pool.flows)


def test_a_long_branch_validates_clean():
    tasks = [f"t-{i:04d}" for i in range(1200)]
    edges = list(zip(["gw-div"] + tasks, tasks + ["gw-mrg"]))
    model = branch_region(tasks=tasks, edges=edges)
    adj = counted_adjacency(model)
    assert validate_model(model) == []
    region = m.analyze_regions(model)["gw-div"]
    assert region.branches[1] == ("gw-div", *tasks, "gw-mrg")
    assert adj.lookups <= 10 * size(model)


@pytest.mark.parametrize(
    "edges",
    [
        [("gw-div", "t-1"), ("t-1", "t-2"), ("t-2", "t-1"), ("t-2", "gw-mrg")],
        [("gw-div", "t-1"), ("t-1", "t-2"), ("t-2", "gw-div"), ("t-2", "gw-mrg")],
        [("gw-div", "t-1"), ("t-1", "t-2"), ("t-2", "gw-mrg"), ("gw-mrg", "t-2")],
    ],
    ids=["inside-branch", "to-diverging-gateway", "from-merge"],
)
def test_a_back_edge_in_a_branch_is_malformed(edges):
    model = branch_region(tasks=["t-1", "t-2"], edges=edges)
    assert isinstance(m.analyze_regions(model)["gw-div"], m.MalformedRegion)
    diags = validate_model(model)
    assert [(d.code, d.element_id) for d in diags] == [("E-PAIR", "gw-div")]
    assert "'f-00004'" in diags[0].message  # the branch's entry flow


def test_diamonds_on_a_branch_are_rejected_in_linear_work():
    gateways, tasks, edges = [], [], []
    previous = "gw-div"
    for i in range(16):
        fork, join, a, b = f"g-fork-{i:02d}", f"g-join-{i:02d}", f"t-a{i:02d}", f"t-b{i:02d}"
        gateways += [fork, join]
        tasks += [a, b]
        edges += [(previous, fork), (fork, a), (fork, b), (a, join), (b, join)]
        previous = join
    edges.append((previous, "gw-mrg"))
    model = branch_region(tasks=tasks, gateways=gateways, edges=edges)
    adj = counted_adjacency(model)
    diags = validate_model(model)
    assert [(d.code, d.element_id) for d in diags] == [("E-PAIR", "gw-div")]
    assert "'g-fork-00'" in diags[0].message
    assert adj.lookups <= 10 * size(model)


def test_a_gateway_that_reaches_no_exit_has_no_merge():
    # both branches end in a loop, so nothing the gateway reaches can exit
    model = branch_region(
        tasks=["t-1", "t-2"],
        edges=[("gw-div", "t-1"), ("t-1", "t-2"), ("t-2", "t-1")],
    )
    loop = replace_flow(model, "f-00002", m.SequenceFlow("f-00002", "t-other", "t-1"))
    assert isinstance(m.analyze_regions(loop)["gw-div"], m.NoMatchingMerge)
    assert "gw-div" not in m._post_dominators(loop, loop.pools[0])


@pytest.mark.parametrize(
    "model, error, message",
    [
        (
            region_model(agentic_merge=False),
            m.NoMatchingMerge,
            "no agentic merging gateway post-dominates 'gw-div'",
        ),
        (
            branch_region(
                tasks=["t-1", "t-2"],
                edges=[("gw-div", "t-1"), ("t-1", "t-2"), ("t-2", "t-1"), ("t-2", "gw-mrg")],
            ),
            m.MalformedRegion,
            "branch through flow 'f-00004' is not a chain at 't-1': "
            "branch nodes need one flow in and one flow out",
        ),
    ],
    ids=["no-matching-merge", "malformed-region"],
)
def test_e_pair_message_is_the_region_error(model, error, message):
    assert isinstance(m.analyze_regions(model)["gw-div"], error)
    assert validate_model(model) == [
        Diagnostic(Severity.ERROR, "E-PAIR", "gw-div", message)
    ]


def replace_flow(model, flow_id, new_flow):
    pool = model.pools[0]
    flows = tuple(new_flow if f.id == flow_id else f for f in pool.flows)
    return dataclasses.replace(model, pools=(dataclasses.replace(pool, flows=flows),))


# -- random graphs: networkx and the old matcher as oracles -------------------


_trust = st.one_of(st.none(), st.integers(-5, 105).map(m.TrustScore))


@st.composite
def random_graphs(draw, annotated=False):
    """One pool of tasks and gateways joined by random flows.

    Self-loops and parallel flows are allowed; nodes without outgoing
    flows are the exits.  Agentic gateways carry a voting marker.  With
    ``annotated``, nodes sit in one to three lanes that may carry an agent
    profile, tasks may carry a reflection and a trust score, gateways are
    of any kind and markers of any mode, and lane references may dangle.
    """
    n = draw(st.integers(2, 9))
    kinds = draw(st.lists(st.sampled_from(["task", "plain", "div", "mrg"]),
                          min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    ids = [f"n-{i}" for i in range(n)]
    flows = [m.SequenceFlow(f"f-{j:02d}", ids[s], ids[t]) for j, (s, t) in enumerate(pairs)]
    if not annotated:
        agentic = {
            "div": m.AgenticGatewayInfo(direction=m.GatewayDirection.DIVERGING,
                                        collaboration=m.CollaborationMode.VOTING),
            "mrg": m.AgenticGatewayInfo(direction=m.GatewayDirection.MERGING,
                                        merge=m.MergeStrategy.VOTING_MAJORITY),
        }
        nodes = [
            m.Task(i, "lane-a") if k == "task"
            else m.Gateway(i, "lane-a", kind=m.GatewayKind.PARALLEL, agentic=agentic.get(k))
            for i, k in zip(ids, kinds)
        ]
        return one_pool_model([lane("lane-a", ids)], nodes, flows)

    lane_ids = ["lane-a", "lane-b", "lane-c"][: draw(st.integers(1, 3))]
    lane_ref = st.sampled_from(lane_ids + ["lane-x"])
    reflection = st.builds(
        m.ReflectionMode,
        kind=st.sampled_from(m.ReflectionKind),
        max_rounds=st.integers(0, 4),
        reviewer_lane_ids=st.lists(lane_ref, max_size=2).map(tuple),
        human_lane_id=st.one_of(st.none(), lane_ref),
    )
    task_info = st.one_of(st.none(), st.builds(
        m.AgenticTaskInfo, reflection=st.one_of(st.none(), reflection), trust=_trust))
    marker = {
        "div": st.builds(m.AgenticGatewayInfo, direction=st.just(m.GatewayDirection.DIVERGING),
                         collaboration=st.sampled_from(m.CollaborationMode), trust=_trust),
        "mrg": st.builds(m.AgenticGatewayInfo, direction=st.just(m.GatewayDirection.MERGING),
                         merge=st.sampled_from(m.MergeStrategy), trust=_trust),
        "plain": st.none(),
    }
    homes = [draw(st.sampled_from(lane_ids)) for _ in ids]
    nodes = [
        m.Task(i, home, agentic=draw(task_info)) if k == "task"
        else m.Gateway(i, home, kind=draw(st.sampled_from(m.GatewayKind)),
                       agentic=draw(marker[k]))
        for i, home, k in zip(ids, homes, kinds)
    ]
    role = st.sampled_from([m.MANAGER, m.WORKER, "critic"])
    profile = st.one_of(st.none(), st.builds(m.AgentProfile, role=role, trust=_trust))
    lanes = [
        m.Lane(lane_id, lane_id, tuple(i for i, home in zip(ids, homes) if home == lane_id),
               agentic=draw(profile))
        for lane_id in lane_ids
    ]
    return one_pool_model(lanes, nodes, flows)


def networkx_ipdom(model):
    g = nx.DiGraph()
    g.add_node("EXIT")
    for node in model.pools[0].nodes:
        g.add_node(node.id)
        if not model.outgoing(node.id):
            g.add_edge("EXIT", node.id)
        for flow in model.incoming(node.id):
            g.add_edge(node.id, flow.source_id)
    return nx.immediate_dominators(g, "EXIT")


def task_graph(n, edges):
    """One pool of tasks n-0 .. n-<n-1> joined by flows (source, target)."""
    ids = [f"n-{i}" for i in range(n)]
    flows = [m.SequenceFlow(f"f-{j:02d}", ids[s], ids[t]) for j, (s, t) in enumerate(edges)]
    return one_pool_model([lane("lane-a", ids)], [m.Task(i, "lane-a") for i in ids], flows)


@settings(max_examples=400, deadline=None)
@given(random_graphs())
# acyclic with a diamond: one pass is exact
@example(task_graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]))
# a cycle that reaches an exit: iterated to the fixpoint
@example(task_graph(4, [(0, 1), (1, 2), (2, 1), (2, 3)]))
# a cycle that reaches no exit: its nodes have no post-dominator
@example(task_graph(4, [(0, 1), (1, 2), (2, 1), (0, 3)]))
def test_immediate_post_dominators_agree_with_networkx(model):
    ipdom = m._post_dominators(model, model.pools[0])
    assert ipdom.pop(m._EXIT) is m._EXIT
    named = {n: "EXIT" if d is m._EXIT else d for n, d in ipdom.items()}
    assert named == {n: d for n, d in networkx_ipdom(model).items() if n != "EXIT"}


def loops_through_a_branch(model, region):
    """True when a cycle of flows between region nodes passes a branch node."""
    inside = {n for b in region.branches for n in b}
    g = nx.DiGraph()
    g.add_edges_from((f.source_id, f.target_id) for f in model.pools[0].flows
                     if f.source_id in inside and f.target_id in inside)
    branch_nodes = {n for b in region.branches for n in b[1:-1]}
    return any(
        len(scc) > 1 or g.has_edge(n, n)
        for scc in nx.strongly_connected_components(g)
        for n in scc & branch_nodes
    )


def reaches_an_exit(model, node_id):
    g = nx.DiGraph()
    g.add_edges_from((f.source_id, f.target_id) for f in model.pools[0].flows)
    g.add_node(node_id)
    return any(not model.outgoing(n) for n in nx.descendants(g, node_id) | {node_id})


@settings(max_examples=400, deadline=None)
@given(random_graphs())
def test_matcher_agrees_with_the_path_enumerating_one(model):
    pool = model.pools[0]
    postdom = old_matcher._post_dominators(model, pool)
    for gw_id, new in m.analyze_regions(model).items():
        if not reaches_an_exit(model, gw_id):  # change (c)
            assert isinstance(new, m.NoMatchingMerge)
            continue
        try:
            old = old_matcher._match_region(model, postdom, gw_id)
        except m.ModelError as exc:
            old = exc
        if isinstance(old, m.ModelError):
            assert type(new) is type(old), (gw_id, old, new)
        elif isinstance(new, m.MalformedRegion):  # change (b): back edges
            assert loops_through_a_branch(model, old), (gw_id, old, new)
        else:
            assert new == old


@settings(max_examples=75, deadline=None)
@given(random_graphs(annotated=True))
def test_validate_is_total_and_linear_on_random_graphs(model):
    adj = counted_adjacency(model)
    diagnostics = validate_model(model)
    assert all(isinstance(d, Diagnostic) for d in diagnostics)
    assert adj.lookups <= 10 * size(model)
