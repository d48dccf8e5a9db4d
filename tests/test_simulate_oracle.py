"""The simulator against the one it replaced, on drawn multi-pool models.

``old_simulate`` keeps the simulator as it was before message-flow regions
were matched once per model and both forms of collaboration region ran
through one executor.  Drawn models mix gateway regions (inclusive entry
conditions included) with message-flow pairs: unmatched flows,
multi-instance pools, remote chains with back edges and forks, incoming
flows that leave a node off the chain, and chains with no task.  Both
simulators must write the same trace, warnings included, or raise the same
error class with the same message; the new simulator's warnings about a
message flow from a node inside a collaboration region, which the old one
never looked up, are taken out first.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import old_simulate
from hagent import model as m
from hagent import simulate as sim

LABELS = ("a", "b")
ROLES = (m.MANAGER, m.WORKER, "analyst", None)


def _agentic(direction, draw, **marker):
    trust = draw(st.one_of(st.none(), st.integers(0, 100)))
    return m.AgenticRegionInfo(direction, trust=None if trust is None else m.TrustScore(trust), **marker)


def _outgoing_info(draw):
    return _agentic(m.GatewayDirection.DIVERGING, draw, collaboration=draw(st.sampled_from(m.CollaborationMode)))


# leader-driven and voting merges read the picks and votes, so they come up
# more often than the others
STRATEGIES = (*m.MergeStrategy, m.MergeStrategy.ROLE_LEADER_DRIVEN, m.MergeStrategy.ROLE_LEADER_DRIVEN,
              m.MergeStrategy.VOTING_MAJORITY)


def _incoming_info(draw):
    return _agentic(m.GatewayDirection.MERGING, draw, merge=draw(st.sampled_from(STRATEGIES)))


class _Pool:
    """A pool being drawn: its lanes' roles, nodes and sequence flows."""

    def __init__(self, pool_id, roles):
        self.id = pool_id
        self.lane_ids = [f"lane-{pool_id[5:]}{i}" for i in range(len(roles))]
        self.roles = roles
        self.nodes = []
        self.flows = []

    def add(self, node):
        self.nodes.append(node)
        return node.id

    def flow(self, source, target, condition=None):
        self.flows.append(m.SequenceFlow(f"f-{self.id[5:]}{len(self.flows):02d}", source, target, condition))

    def build(self, multi_instance):
        lanes = tuple(
            m.Lane(
                lane_id,
                node_ids=tuple(n.id for n in self.nodes if n.lane_id == lane_id),
                agentic=None if role is None else m.AgentProfile(role, m.TrustScore(50 + 10 * i)),
            )
            for i, (lane_id, role) in enumerate(zip(self.lane_ids, self.roles))
        )
        return m.Pool(self.id, lanes=lanes, nodes=tuple(self.nodes), flows=tuple(self.flows),
                      multi_instance=multi_instance)


def _branch_node(draw, pool, node_id):
    cls = draw(st.sampled_from((m.Task,) * 5 + (m.SubProcess,)))
    return pool.add(cls(node_id, draw(st.sampled_from(pool.lane_ids))))


def _home_pool(draw):
    """A chain from start to end of tasks, subprocesses and gateway regions;
    a task may hand its token over to nothing, which cuts the chain."""
    pool = _Pool("pool-h", [m.MANAGER, draw(st.sampled_from(ROLES)), m.WORKER])
    prev = pool.add(m.StartEvent("h-start", pool.lane_ids[0]))
    for i in range(draw(st.integers(1, 4))):
        segment = draw(st.sampled_from(("task", "task", "handoff", "region")))
        if segment == "region":
            kind = draw(st.sampled_from((m.GatewayKind.PARALLEL, m.GatewayKind.INCLUSIVE)))
            div = pool.add(m.Gateway(f"h-g{i}-div", draw(st.sampled_from(pool.lane_ids)), kind=kind,
                                     agentic=_outgoing_info(draw)))
            merge = pool.add(m.Gateway(f"h-g{i}-mrg", draw(st.sampled_from(pool.lane_ids)), kind=kind,
                                       agentic=_incoming_info(draw)))
            if prev is not None:
                pool.flow(prev, div)
            voting = pool.nodes[-1].agentic.merge in m.VOTING_STRATEGIES
            for b in range(draw(st.integers(2 if voting else 1, 3))):
                condition = None
                if kind is m.GatewayKind.INCLUSIVE:
                    condition = draw(st.sampled_from((None, None, 'label == "a"', "b", 'label == "x"')))
                node = div
                for j in range(draw(st.sampled_from((0, 1, 1, 1, 1, 1, 1, 2, 2, 2)))):
                    nxt = _branch_node(draw, pool, f"h-g{i}-b{b}n{j}")
                    pool.flow(node, nxt, condition if node == div else None)
                    node = nxt
                pool.flow(node, merge, condition if node == div else None)
            prev = merge
        else:
            task = pool.add(m.Task(f"h-t{i}", draw(st.sampled_from(pool.lane_ids))))
            if prev is not None:
                pool.flow(prev, task)
            prev = None if segment == "handoff" else task
    end = pool.add(m.EndEvent("h-end", pool.lane_ids[0]))
    if prev is not None:
        pool.flow(prev, end)
    return pool


def _remote_pool(draw, r):
    """A chain of one to four nodes, perhaps with a back edge or a fork, and
    a task off the chain."""
    roles = [draw(st.sampled_from(ROLES[:3])), draw(st.sampled_from(ROLES))]
    if draw(st.integers(0, 9)) == 0:  # no agentic lane: validation refuses the model
        roles[0] = None
    pool = _Pool(f"pool-r{r}", roles)
    chain = []
    for j in range(draw(st.integers(1, 4))):
        cls = draw(st.sampled_from((m.Task,) * 4 + (m.SubProcess, m.Gateway)))
        chain.append(pool.add(cls(f"r{r}-n{j}", draw(st.sampled_from(pool.lane_ids)))))
    for source, target in zip(chain, chain[1:]):
        pool.flow(source, target)
    extra = draw(st.sampled_from((None, None, None, "back", "fork")))
    if extra is not None and len(chain) > 1:
        j = draw(st.integers(0, len(chain) - 2))
        k = draw(st.integers(0, j) if extra == "back" else st.integers(j + 1, len(chain) - 1))
        pool.flow(chain[-1] if extra == "back" else chain[j], chain[k])
    pool.add(m.Task(f"r{r}-x", pool.lane_ids[-1]))
    return pool


def _scenario(rnd, pools):
    """Outputs, votes and picks drawn by ``rnd``: most tasks scripted, some
    with spare outputs."""

    def maybe(value):
        return value if rnd.random() < 0.5 else None

    def output():
        confidence = maybe(rnd.randint(0, 100))
        return sim.CandidateOutput(
            rnd.choice(LABELS), "", None if confidence is None else m.TrustScore(confidence), None,
            maybe(rnd.randint(0, 300)), maybe(rnd.randint(0, 100)),
        )

    per_task = {
        node.id: sim.ScriptedBehavior(
            outputs=[output() for _ in range(rnd.randint(1, 3))],
            vote=maybe(rnd.choice(LABELS)),
            latency_ms=maybe(rnd.randint(0, 300)),
            completeness=maybe(rnd.randint(0, 100)),
        )
        for pool in pools
        for node in pool.nodes
        if node.__class__ is m.Task and rnd.random() < 0.95
    }
    per_lane = {
        lane_id: sim.LaneScript(vote=maybe(rnd.choice(LABELS)), manager_pick=maybe(rnd.choice(LABELS)))
        for pool in pools
        for lane_id in pool.lane_ids
        if rnd.random() < 0.7
    }
    return sim.ScenarioPolicy(per_task=per_task, per_lane=per_lane)


@st.composite
def delegations(draw):
    """A home pool that delegates to one to three remote pools, and a
    scenario for it."""
    home = _home_pool(draw)
    remotes = [_remote_pool(draw, r) for r in range(draw(st.integers(1, 3)))]
    home_nodes = [n.id for n in home.nodes]
    remote_nodes = [n.id for pool in remotes for n in pool.nodes]
    starts = [pool.nodes[0].id for pool in remotes]  # where the chains start
    flows = []  # (source, target, agentic)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(home_nodes) - 2))  # not the end event
        target = draw(st.sampled_from(starts * 3 + remote_nodes))
        flows.append((home_nodes[i], target, _outgoing_info(draw)))
        if draw(st.integers(0, 3)):  # an incoming flow from the same pool, mostly downstream
            pool = next(p for p in remotes if target in {n.id for n in p.nodes})
            last = pool.nodes[-2].id  # the chain's last node; the pool's last is off the chain
            source = draw(st.sampled_from([last] * 4 + [n.id for n in pool.nodes]))
            back = draw(st.sampled_from(home_nodes[i + 1:] * 3 + home_nodes[: i + 1]))
            flows.append((source, back, _incoming_info(draw)))
    for _ in range(draw(st.integers(0, 1))):
        flows.append((draw(st.sampled_from(remote_nodes)), draw(st.sampled_from(home_nodes)),
                      _incoming_info(draw)))
    if draw(st.booleans()):
        flows.append((draw(st.sampled_from(home_nodes)), draw(st.sampled_from(remote_nodes)), None))
    # ids in drawn order, so that which flow comes first by id varies
    ids = draw(st.lists(st.integers(10, 99), min_size=len(flows), max_size=len(flows), unique=True))
    flows = [m.MessageFlow(f"mf-{i}", *flow) for i, flow in zip(ids, flows)]
    multi = st.sampled_from((False,) * 9 + (True,))
    model = m.ProcessModel(
        "model-drawn",
        pools=(home.build(draw(multi)), *(pool.build(draw(multi)) for pool in remotes)),
        message_flows=tuple(flows),
    )
    return model, _scenario(random.Random(draw(st.integers(0, 2**32))), [home, *remotes])


def _outcome(simulator, model, scenario):
    # a back flow upstream of its sender loops until the step budget ends the
    # run; a small budget ends it sooner, and both simulators read it
    try:
        with mock.patch.object(simulator, "STEP_BUDGET", 200):
            return simulator.format_trace(simulator.run_simulation(model, scenario))
    except Exception as exc:  # each simulator has its own error classes
        return type(exc).__name__, str(exc)


def _in_region_warnings(model):
    """The warning lines the simulator writes, and the old one did not, for
    the agentic message flows from nodes inside a collaboration region: a
    gateway region's branch or a message-flow region's remote chain."""
    message_regions = model._message_regions
    inside = {node for region in m.analyze_regions(model).values()
              for path in region.branches for node in path[1:-1]}
    inside.update(node for _, region in message_regions.values() if region for node in region.chain)
    lines = set()
    for node in inside & message_regions.keys():
        warnings, region = message_regions[node]
        lines.update(warnings)
        if region is not None:
            lines.add(f"W-MULTIPOOL {region.outgoing.id}: message flow from inside a collaboration"
                      " region is not executed")
    return {f"#\twarning\t{line}" for line in lines}


def _without_new_warnings(trace, old, model):
    """``trace`` without the in-region warning lines that ``old`` lacks."""
    new_lines = _in_region_warnings(model)
    old_lines = old.splitlines()
    kept = []
    for line in trace.splitlines():
        if line in new_lines and old_lines[len(kept):len(kept) + 1] != [line]:
            continue
        kept.append(line)
    return "\n".join(kept) + "\n"


@settings(max_examples=300, deadline=None)
@given(delegations())
def test_simulator_agrees_with_the_old_one_on_multi_pool_models(drawn):
    model, scenario = drawn
    new, old = _outcome(sim, model, scenario), _outcome(old_simulate, model, scenario)
    if isinstance(new, str) and isinstance(old, str):
        new = _without_new_warnings(new, old, model)
    assert new == old
