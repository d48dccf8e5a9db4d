"""Programmatic model builders shared across the test suite."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from hagent import model as m


def trust(value: Optional[int]):
    return m.TrustScore(value) if value is not None else None


def lane(lane_id, node_ids=(), role=None, trust_value=None, name=None):
    agentic = None
    if role is not None:
        agentic = m.AgentProfile(role=role, trust=trust(trust_value))
    return m.Lane(
        id=lane_id,
        name=name if name is not None else lane_id,
        node_ids=tuple(node_ids),
        agentic=agentic,
    )


def one_pool_model(lanes, nodes, flows, artifacts=(), pool_id="pool-1", model_id="model-1"):
    pool = m.Pool(
        id=pool_id,
        name=pool_id,
        lanes=tuple(lanes),
        nodes=tuple(nodes),
        flows=tuple(flows),
        artifacts=tuple(artifacts),
    )
    return m.ProcessModel(id=model_id, pools=(pool,))


def replace_node(model, node_id, new_node):
    pool = model.pool_of(node_id)
    nodes = tuple(new_node if n.id == node_id else n for n in pool.nodes)
    pools = tuple(
        replace(p, nodes=nodes) if p.id == pool.id else p for p in model.pools
    )
    return replace(model, pools=pools)


def replace_lane(model, lane_id, **changes):
    pools = []
    for pool in model.pools:
        lanes = tuple(
            replace(l, **changes) if l.id == lane_id else l for l in pool.lanes
        )
        pools.append(replace(pool, lanes=lanes))
    return replace(model, pools=tuple(pools))


def rename_node(model, old_id, new_id):
    """``model`` with node ``old_id`` called ``new_id``, in its lane and flows too."""
    def ref(node_id):
        return new_id if node_id == old_id else node_id

    pools = tuple(
        replace(
            pool,
            lanes=tuple(replace(ln, node_ids=tuple(map(ref, ln.node_ids))) for ln in pool.lanes),
            nodes=tuple(replace(n, id=ref(n.id)) for n in pool.nodes),
            flows=tuple(
                replace(f, source_id=ref(f.source_id), target_id=ref(f.target_id))
                for f in pool.flows
            ),
        )
        for pool in model.pools
    )
    return replace(model, pools=pools)


def linear_model():
    """start -> task -> end in a single human lane."""
    return one_pool_model(
        lanes=[lane("lane-a", ["n-start", "t-1", "n-end"])],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a", "Do work"),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "n-end"),
        ],
    )


def region_model(
    collab=m.CollaborationMode.ROLE,
    merge=m.MergeStrategy.ROLE_LEADER_DRIVEN,
    branch_count=2,
    gateway_kind=m.GatewayKind.PARALLEL,
    hub_role=m.MANAGER,
    hub_trust=90,
    branch_trusts: Sequence[Optional[int]] = (70, 85, 60),
    agentic_merge=True,
    entry_conditions: Optional[Sequence[Optional[str]]] = None,
    merge_kind=None,
    diverging_kind=None,
):
    """start -> seed task -> diverging gw -> N branch tasks -> merging gw -> end.

    The gateways sit in an agentic hub lane; each branch task has its own
    agentic worker lane.
    """
    hub_nodes = ["n-start", "t-seed", "gw-div", "gw-mrg", "n-end"]
    lanes = [lane("lane-hub", hub_nodes, role=hub_role, trust_value=hub_trust)]
    nodes = [
        m.StartEvent("n-start", "lane-hub"),
        m.Task("t-seed", "lane-hub", "Seed"),
        m.Gateway(
            "gw-div",
            "lane-hub",
            "Diverge",
            kind=diverging_kind or gateway_kind,
            agentic=m.AgenticGatewayInfo(
                direction=m.GatewayDirection.DIVERGING, collaboration=collab
            ),
        ),
        m.Gateway(
            "gw-mrg",
            "lane-hub",
            "Merge",
            kind=merge_kind or gateway_kind,
            agentic=m.AgenticGatewayInfo(
                direction=m.GatewayDirection.MERGING, merge=merge
            )
            if agentic_merge
            else None,
        ),
        m.EndEvent("n-end", "lane-hub"),
    ]
    flows = [
        m.SequenceFlow("f-01", "n-start", "t-seed"),
        m.SequenceFlow("f-02", "t-seed", "gw-div"),
        m.SequenceFlow("f-98", "gw-mrg", "n-end"),
    ]
    for i in range(branch_count):
        task_id = f"t-b{i + 1}"
        lane_id = f"lane-b{i + 1}"
        trust_value = branch_trusts[i % len(branch_trusts)]
        lanes.append(lane(lane_id, [task_id], role=m.WORKER, trust_value=trust_value))
        nodes.append(m.Task(task_id, lane_id, f"Branch {i + 1}"))
        condition = entry_conditions[i] if entry_conditions else None
        flows.append(
            m.SequenceFlow(f"f-e{i + 1}", "gw-div", task_id, condition=condition)
        )
        flows.append(m.SequenceFlow(f"f-x{i + 1}", task_id, "gw-mrg"))
    return one_pool_model(lanes, nodes, flows)


def region_scenario_tasks():
    """ScriptedBehavior-friendly raw outputs for region_model tasks."""
    from hagent.simulate import CandidateOutput, ScriptedBehavior

    return {
        "t-seed": ScriptedBehavior(outputs=[CandidateOutput("seed")]),
        "t-b1": ScriptedBehavior(
            outputs=[CandidateOutput("alpha", "a", m.TrustScore(70))],
            latency_ms=120,
            completeness=40,
        ),
        "t-b2": ScriptedBehavior(
            outputs=[CandidateOutput("beta", "b", m.TrustScore(85))],
            latency_ms=80,
            completeness=90,
        ),
        "t-b3": ScriptedBehavior(
            outputs=[CandidateOutput("gamma", "c", m.TrustScore(60))],
            latency_ms=200,
            completeness=95,
        ),
    }


def two_pool_message_model(
    remote_agentic=True,
    remote_multi=False,
    out_mode=m.CollaborationMode.COMPETITION,
    in_strategy=m.MergeStrategy.COMPETITION_FASTEST,
):
    """Pool A delegates to pool B over an agentic message-flow pair."""
    pool_a = m.Pool(
        id="pool-a",
        name="Requesters",
        lanes=(lane("lane-req", ["n-start", "t-ask", "t-use", "n-end"]),),
        nodes=(
            m.StartEvent("n-start", "lane-req"),
            m.Task("t-ask", "lane-req", "Ask"),
            m.Task("t-use", "lane-req", "Use result"),
            m.EndEvent("n-end", "lane-req"),
        ),
        flows=(
            m.SequenceFlow("f-01", "n-start", "t-ask"),
            m.SequenceFlow("f-02", "t-use", "n-end"),
        ),
    )
    pool_b = m.Pool(
        id="pool-b",
        name="Agents",
        lanes=(
            lane(
                "lane-remote",
                ["t-work", "t-refine"],
                role=m.WORKER if remote_agentic else None,
                trust_value=75 if remote_agentic else None,
            ),
        ),
        nodes=(
            m.Task("t-work", "lane-remote", "Work"),
            m.Task("t-refine", "lane-remote", "Refine"),
        ),
        flows=(m.SequenceFlow("f-10", "t-work", "t-refine"),),
        multi_instance=remote_multi,
    )
    return m.ProcessModel(
        id="model-msg",
        pools=(pool_a, pool_b),
        message_flows=(
            m.MessageFlow(
                "mf-out",
                "t-ask",
                "t-work",
                agentic=m.AgenticMessageFlowInfo(
                    direction=m.MessageFlowDirection.OUTGOING,
                    collaboration=out_mode,
                ),
            ),
            m.MessageFlow(
                "mf-in",
                "t-refine",
                "t-use",
                agentic=m.AgenticMessageFlowInfo(
                    direction=m.MessageFlowDirection.INCOMING,
                    merge=in_strategy,
                ),
            ),
        ),
    )
