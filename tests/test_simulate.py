import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hagent
import old_scenario
from hagent import model as m
from hagent import scenario
from hagent import simulate as sim
from hagent.xmlio import parse_model

from builders import (
    lane,
    linear_model,
    one_pool_model,
    region_model,
    replace_lane,
    region_scenario_tasks,
    two_pool_message_model,
)
from conftest import FIXTURES, bench_gen


def out(label, conf=None, lat=None, comp=None, payload=""):
    return sim.CandidateOutput(
        label=label,
        payload=payload,
        confidence=m.TrustScore(conf) if conf is not None else None,
        latency_ms=lat,
        completeness=comp,
    )


# -- trust propagation -------------------------------------------------------


def test_propagate_trust_examples():
    t = m.TrustScore
    assert sim.propagate_trust(t(90), t(80), t(60)) == t(60)
    assert sim.propagate_trust(t(50), None, None) == t(50)
    assert sim.propagate_trust(None, None, None) == t(100)


@settings(max_examples=200)
@given(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 100)),
        st.one_of(st.none(), st.integers(0, 100)),
        st.one_of(st.none(), st.integers(0, 100)),
    )
)
def test_propagate_trust_properties(values):
    wrapped = [m.TrustScore(v) if v is not None else None for v in values]
    result = sim.propagate_trust(*wrapped).value
    present = [v for v in values if v is not None]
    for v in present:
        assert result <= v
    assert result == (min(present) if present else 100)
    # order of arguments never matters
    assert sim.propagate_trust(wrapped[2], wrapped[0], wrapped[1]).value == result
    # a score in range is the shared one
    assert sim.propagate_trust(*wrapped) is m.TRUST_SCORES[result]


@settings(max_examples=200)
@given(
    st.lists(st.one_of(st.none(), st.integers(-300, 400)), min_size=3, max_size=3),
    st.sampled_from([-1, 101, 150, -50]),
)
def test_propagate_trust_out_of_range(values, outside):
    # built models may carry any score; validate_model reports it, and the
    # trace shows the value as it is
    values[0] = outside
    wrapped = [m.TrustScore(v) if v is not None else None for v in values]
    result = sim.propagate_trust(*wrapped)
    least = min(v for v in values if v is not None)
    assert type(result) is m.TrustScore and result == m.TrustScore(least)
    if not 0 <= least <= 100:
        assert result not in m.TRUST_SCORES
    assert sim.propagate_trust(m.TrustScore(True), None, None).value is True


# -- merge strategies --------------------------------------------------------

ABC = [out("A", 70, 120, 40), out("B", 85, 80, 90), out("C", 60, 200, 95)]


def test_voting_majority():
    winner, rationale = sim.apply_merge_strategy(
        m.MergeStrategy.VOTING_MAJORITY, ABC, votes={"L1": "A", "L2": "A", "L3": "B"}
    )
    assert winner.label == "A"
    assert "2/3" in rationale


def test_voting_majority_tie_breaks_on_confidence():
    winner, _ = sim.apply_merge_strategy(
        m.MergeStrategy.VOTING_MAJORITY, ABC, votes={"L1": "A", "L2": "B"}
    )
    assert winner.label == "B"  # confidence 85 beats 70


def test_voting_absolute_met_and_fallback():
    winner, rationale = sim.apply_merge_strategy(
        m.MergeStrategy.VOTING_ABSOLUTE, ABC, votes={"L1": "A", "L2": "A", "L3": "B"}
    )
    assert winner.label == "A" and "absolute majority" in rationale
    winner, rationale = sim.apply_merge_strategy(
        m.MergeStrategy.VOTING_ABSOLUTE, ABC, votes={"L1": "A", "L2": "B"}
    )
    assert winner.label == "B" and "fell back" in rationale


def test_voting_minority():
    winner, _ = sim.apply_merge_strategy(
        m.MergeStrategy.VOTING_MINORITY, ABC, votes={"L1": "A", "L2": "A", "L3": "B"}
    )
    assert winner.label == "B"


def test_voting_requires_votes():
    with pytest.raises(sim.VotesMissing):
        sim.apply_merge_strategy(m.MergeStrategy.VOTING_MAJORITY, ABC, votes=None)


def test_leader_driven():
    winner, rationale = sim.apply_merge_strategy(
        m.MergeStrategy.ROLE_LEADER_DRIVEN, ABC, manager_pick="C"
    )
    assert winner.label == "C" and "leader pick" in rationale
    with pytest.raises(sim.ManagerPickMissing):
        sim.apply_merge_strategy(m.MergeStrategy.ROLE_LEADER_DRIVEN, ABC)
    with pytest.raises(sim.ManagerPickMissing):
        sim.apply_merge_strategy(
            m.MergeStrategy.ROLE_LEADER_DRIVEN, ABC, manager_pick="Z"
        )


def test_composed():
    parts = [out("A", 70, payload="one;"), out("B", payload="two")]
    winner, _ = sim.apply_merge_strategy(m.MergeStrategy.ROLE_COMPOSED, parts)
    assert winner.label == "composed"
    assert winner.payload == "one;two"
    assert winner.confidence == m.TrustScore(70)


def test_competition_strategies():
    fastest, _ = sim.apply_merge_strategy(m.MergeStrategy.COMPETITION_FASTEST, ABC)
    assert fastest.label == "B"
    fullest, _ = sim.apply_merge_strategy(
        m.MergeStrategy.COMPETITION_MOST_COMPLETE, ABC
    )
    assert fullest.label == "C"
    # unscripted latency loses to any scripted one
    winner, _ = sim.apply_merge_strategy(
        m.MergeStrategy.COMPETITION_FASTEST, [out("A"), out("B", lat=500)]
    )
    assert winner.label == "B"


def test_empty_candidates_rejected():
    with pytest.raises(ValueError):
        sim.apply_merge_strategy(m.MergeStrategy.VOTING_MAJORITY, [], votes={})


# -- reflection --------------------------------------------------------------


def refl_task(kind=m.ReflectionKind.SELF, max_rounds=3, reviewers=(), human=None):
    return m.Task(
        "t-r",
        "lane-a",
        agentic=m.AgenticTaskInfo(
            reflection=m.ReflectionMode(
                kind=kind,
                max_rounds=max_rounds,
                reviewer_lane_ids=reviewers,
                human_lane_id=human,
            )
        ),
    )


def test_self_reflection_revise_then_accept():
    behavior = sim.ScriptedBehavior(
        outputs=[out("draft", 60), out("final", 90)],
        reflection_verdicts=["revise", "accept"],
    )
    output, rounds, events = sim.run_reflection(refl_task(), behavior, None)
    assert rounds == 2
    assert output.label == "final"
    assert [(e.round, e.verdict) for e in events] == [(1, "revise"), (2, "accept")]


def test_self_reflection_hits_round_cap():
    behavior = sim.ScriptedBehavior(
        outputs=[out("v1"), out("v2"), out("v3")],
        reflection_verdicts=["revise", "revise", "revise"],
    )
    output, rounds, events = sim.run_reflection(refl_task(), behavior, None)
    assert rounds == 3
    assert output.label == "v3"


def test_exhausted_verdicts_count_as_revise():
    behavior = sim.ScriptedBehavior(outputs=[out("only")], reflection_verdicts=[])
    output, rounds, _ = sim.run_reflection(refl_task(max_rounds=2), behavior, None)
    assert rounds == 2
    assert output.label == "only"  # last output reused once the script runs dry


def test_cross_reflection_any_revise_forces_round():
    behavior = sim.ScriptedBehavior(outputs=[out("v1"), out("v2")])
    scripts = {
        "lane-x": sim.LaneScript(reflection_verdicts=["accept", "accept"]),
        "lane-y": sim.LaneScript(reflection_verdicts=["revise", "accept"]),
    }
    output, rounds, _ = sim.run_reflection(
        refl_task(m.ReflectionKind.CROSS, reviewers=("lane-x", "lane-y")),
        behavior,
        None,
        scripts,
    )
    assert rounds == 2 and output.label == "v2"


def test_cross_reflection_missing_reviewer_script():
    behavior = sim.ScriptedBehavior(outputs=[out("v1")])
    with pytest.raises(sim.MissingBehavior):
        sim.run_reflection(
            refl_task(m.ReflectionKind.CROSS, reviewers=("lane-x",)), behavior, None, {}
        )


def test_human_reflection():
    behavior = sim.ScriptedBehavior(outputs=[out("v1"), out("v2")])
    scripts = {"lane-h": sim.LaneScript(reflection_verdicts=["revise", "accept"])}
    output, rounds, _ = sim.run_reflection(
        refl_task(m.ReflectionKind.HUMAN, human="lane-h"), behavior, None, scripts
    )
    assert rounds == 2 and output.label == "v2"


# -- token game --------------------------------------------------------------


def run_lines(model, scenario):
    return sim.format_trace(sim.run_simulation(model, scenario)).splitlines()


def test_trivial_model_yields_four_events():
    lines = run_lines(linear_model(), sim.ScenarioPolicy())
    assert lines == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-1",
        "2\tTaskDone\tt-1\tlabel=Do work lane=lane-a trust=100",
        "3\tTokenEnd\tn-end",
    ]


def test_trace_is_line_oriented_and_tab_separated():
    for line in run_lines(linear_model(), sim.ScenarioPolicy()):
        parts = line.split("\t")
        assert len(parts) in (3, 4)
        assert parts[0].isdigit()


def fixture_trace(name: str) -> str:
    model = parse_model((FIXTURES / f"{name}.bpmn").read_bytes()).model
    scenario = sim.load_scenario((FIXTURES / f"{name}.scn.yaml").read_bytes())
    return sim.format_trace(sim.run_simulation(model, scenario))


@pytest.mark.parametrize("name", ["bug-triage", "delegation"])
def test_fixture_trace_is_the_checked_in_one(name):
    assert fixture_trace(name).encode() == (FIXTURES / f"{name}.trace").read_bytes()


# sha256 of "<model id>\n<trace>" over the models of the first block of the
# benchmark deck at seed 7, in deck order
_BLOCK_TRACE_DIGESTS = {
    "region-chain": "bd9a000921bbbf033ac063b9cae812d994a9751eb8f67af25fb8ff53f0fe3fdb",
    "delegation": "d4646fbb2762246ae723210af921d71f9c3675377c8cef692342e63fdafcba82",
}


@pytest.mark.parametrize("workload", sorted(_BLOCK_TRACE_DIGESTS))
def test_benchmark_traces_keep_their_digests(workload):
    gen = bench_gen()
    digest = hashlib.sha256()
    for case in gen.build_deck(workload, 7)[: gen.BLOCK_SIZE[workload]]:
        model = parse_model(case.xml).model
        trace = sim.format_trace(sim.run_simulation(model, sim.load_scenario(case.scenario)))
        digest.update(f"{case.id}\n{trace}".encode())
    assert digest.hexdigest() == _BLOCK_TRACE_DIGESTS[workload]


def test_simulation_rejects_invalid_models():
    with pytest.raises(sim.SimulationError, match="E-MGR"):
        sim.run_simulation(region_model(hub_role=m.WORKER), sim.ScenarioPolicy())


def test_agentic_task_without_script_fails():
    model = linear_model()
    from dataclasses import replace

    task = replace(model.index["t-1"], agentic=m.AgenticTaskInfo(trust=m.TrustScore(70)))
    pool = replace(model.pools[0], nodes=tuple(
        task if n.id == "t-1" else n for n in model.pools[0].nodes
    ))
    model = m.ProcessModel(id=model.id, pools=(pool,))
    with pytest.raises(sim.MissingBehavior):
        sim.run_simulation(model, sim.ScenarioPolicy())


def test_exclusive_routing_condition_and_default():
    def build():
        return one_pool_model(
            lanes=[lane("lane-a", ["n-start", "t-1", "gw-x", "n-yes", "n-no"])],
            nodes=[
                m.StartEvent("n-start", "lane-a"),
                m.Task("t-1", "lane-a", "Decide"),
                m.Gateway("gw-x", "lane-a", kind=m.GatewayKind.EXCLUSIVE),
                m.EndEvent("n-yes", "lane-a"),
                m.EndEvent("n-no", "lane-a"),
            ],
            flows=[
                m.SequenceFlow("f-01", "n-start", "t-1"),
                m.SequenceFlow("f-02", "t-1", "gw-x"),
                m.SequenceFlow("f-03", "gw-x", "n-yes", condition='label == "ok"'),
                m.SequenceFlow("f-04", "gw-x", "n-no"),
            ],
        )

    ok = sim.ScenarioPolicy(per_task={"t-1": sim.ScriptedBehavior(outputs=[out("ok")])})
    assert run_lines(build(), ok)[-1] == "4\tTokenEnd\tn-yes"
    other = sim.ScenarioPolicy(
        per_task={"t-1": sim.ScriptedBehavior(outputs=[out("meh")])}
    )
    assert run_lines(build(), other)[-1] == "4\tTokenEnd\tn-no"


def test_exclusive_without_match_or_default_raises():
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "gw-x", "n-end"])],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Gateway("gw-x", "lane-a", kind=m.GatewayKind.EXCLUSIVE),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "gw-x"),
            m.SequenceFlow("f-02", "gw-x", "n-end", condition='label == "never"'),
        ],
    )
    with pytest.raises(sim.ConditionUnmatched):
        sim.run_simulation(model, sim.ScenarioPolicy())


def test_step_budget_on_livelock():
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "t-1", "gw-x", "n-end"])],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Task("t-1", "lane-a", "Spin"),
            m.Gateway("gw-x", "lane-a", kind=m.GatewayKind.EXCLUSIVE),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "t-1"),
            m.SequenceFlow("f-02", "t-1", "gw-x"),
            m.SequenceFlow("f-03", "gw-x", "t-1", condition='label == "Spin"'),
            m.SequenceFlow("f-04", "gw-x", "n-end"),
        ],
    )
    with pytest.raises(sim.StepBudgetExceeded):
        sim.run_simulation(model, sim.ScenarioPolicy())


def test_step_budget_grows_with_the_model():
    tasks = [f"t-{i:05d}" for i in range(12_000)]
    chain = ["n-start", *tasks, "n-end"]
    model = one_pool_model(
        lanes=[lane("lane-a", chain)],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            *(m.Task(t, "lane-a", t) for t in tasks),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow(f"f-{i:05d}", a, b) for i, (a, b) in enumerate(zip(chain, chain[1:]))
        ],
    )
    trace = sim.run_simulation(model, sim.ScenarioPolicy())
    assert sum(isinstance(e, sim.TaskDone) for e in trace.events) == 12_000
    assert trace.events[-1] == sim.TokenEnd("n-end")


def region_scenario(**lane_scripts):
    return sim.ScenarioPolicy(
        per_task=region_scenario_tasks(),
        per_lane={k: v for k, v in lane_scripts.items()},
    )


def test_region_leader_driven_end_to_end():
    model = region_model()
    scenario = region_scenario(**{"lane-hub": sim.LaneScript(manager_pick="alpha")})
    lines = run_lines(model, scenario)
    kinds = [l.split("\t")[1] for l in lines]
    assert kinds == [
        "TokenEnter",  # n-start
        "TokenEnter",  # t-seed
        "TaskDone",
        "TokenEnter",  # gw-div
        "RegionOpen",
        "TokenEnter",  # t-b1
        "TaskDone",
        "TokenEnter",  # t-b2
        "TaskDone",
        "CandidateSet",
        "MergeDecision",
        "TokenEnter",  # gw-mrg
        "TokenEnd",  # n-end
    ]
    merge_line = [l for l in lines if "MergeDecision" in l][0]
    assert "chosen=alpha" in merge_line and "leader pick" in merge_line


def test_region_voting_from_lane_scripts():
    model = region_model(
        collab=m.CollaborationMode.VOTING, merge=m.MergeStrategy.VOTING_MAJORITY
    )
    scenario = region_scenario(
        **{
            "lane-b1": sim.LaneScript(vote="beta"),
            "lane-b2": sim.LaneScript(vote="beta"),
            "lane-hub": sim.LaneScript(vote="alpha"),
        }
    )
    lines = run_lines(model, scenario)
    assert any("chosen=beta" in l for l in lines)


def test_region_votes_from_task_scripts_override_lane():
    model = region_model(
        collab=m.CollaborationMode.VOTING, merge=m.MergeStrategy.VOTING_MAJORITY
    )
    tasks = region_scenario_tasks()
    tasks["t-b1"].vote = "alpha"
    tasks["t-b2"].vote = "alpha"
    scenario = sim.ScenarioPolicy(per_task=tasks)
    lines = run_lines(model, scenario)
    assert any("chosen=alpha" in l for l in lines)


def test_region_pick_comes_from_the_merging_lane_first():
    # the merging gateway's lane is a worker lane here; its pick comes
    # before the one of the manager lane among the participants
    model = replace_lane(
        region_model(hub_role=m.WORKER), "lane-b1", agentic=m.AgentProfile(m.MANAGER)
    )
    scenario = region_scenario(
        **{"lane-hub": sim.LaneScript(manager_pick="beta"), "lane-b1": sim.LaneScript(manager_pick="alpha")}
    )
    assert [l for l in run_lines(model, scenario) if "MergeDecision" in l] == [
        "10\tMergeDecision\tgw-mrg\tstrategy=role.leaderDriven chosen=beta rationale=leader pick 'beta'"
    ]


def test_region_competition_fastest():
    model = region_model(
        collab=m.CollaborationMode.COMPETITION,
        merge=m.MergeStrategy.COMPETITION_FASTEST,
    )
    lines = run_lines(model, region_scenario())
    assert any("chosen=beta" in l and "fastest at 80ms" in l for l in lines)


def test_region_debate_consumes_revised_outputs():
    model = region_model(
        collab=m.CollaborationMode.DEBATE, merge=m.MergeStrategy.VOTING_MAJORITY
    )
    tasks = region_scenario_tasks()
    tasks["t-b1"].outputs.append(out("alpha2", 95))
    tasks["t-b1"].vote = "alpha2"
    tasks["t-b2"].vote = "alpha2"
    lines = run_lines(model, sim.ScenarioPolicy(per_task=tasks))
    task_done = [l for l in lines if "TaskDone\tt-b1" in l]
    assert len(task_done) == 2  # initial answer plus one debate revision
    assert any("labels=alpha2,beta" in l for l in lines)
    assert any("chosen=alpha2" in l for l in lines)


def test_inclusive_region_filters_branches_by_condition():
    model = region_model(
        collab=m.CollaborationMode.COMPETITION,
        merge=m.MergeStrategy.COMPETITION_FASTEST,
        gateway_kind=m.GatewayKind.INCLUSIVE,
        entry_conditions=('label == "seed"', 'label == "other"'),
    )
    lines = run_lines(model, region_scenario())
    assert any("size=1 labels=alpha" in l for l in lines)
    assert not any("\tt-b2" in l for l in lines)


def test_inclusive_region_no_active_branch():
    model = region_model(
        collab=m.CollaborationMode.COMPETITION,
        merge=m.MergeStrategy.COMPETITION_FASTEST,
        gateway_kind=m.GatewayKind.INCLUSIVE,
        entry_conditions=('label == "no"', 'label == "nope"'),
    )
    with pytest.raises(sim.NoActiveBranch):
        sim.run_simulation(model, region_scenario())


@pytest.mark.parametrize(
    "model, lane_scripts",
    [
        (region_model(), {"lane-hub": sim.LaneScript(manager_pick="beta")}),
        (
            region_model(
                collab=m.CollaborationMode.COMPETITION,
                merge=m.MergeStrategy.COMPETITION_FASTEST,
                branch_count=3,
                gateway_kind=m.GatewayKind.INCLUSIVE,
                entry_conditions=('label == "seed"', 'label == "other"', None),
            ),
            {},
        ),
    ],
    ids=["leader-driven", "inclusive"],
)
def test_public_execute_region_runs_the_region_as_a_run_does(model, lane_scripts):
    scenario = region_scenario(**lane_scripts)
    events = sim.run_simulation(model, scenario).events
    kinds = [e.kind for e in events]
    start, end = kinds.index("RegionOpen"), kinds.index("MergeDecision")
    seed = next(e.output for e in events if e.kind == "TaskDone" and e.element_id == "t-seed")
    region = m.analyze_regions(model)["gw-div"]
    winner, region_events = hagent.execute_region(model, region, scenario, seed)
    assert region_events == events[start : end + 1]
    candidates = events[end - 1].candidates
    assert winner in candidates and winner.label == events[end].chosen_label


def test_parallel_join_without_agentic_info_counts_tokens():
    model = one_pool_model(
        lanes=[lane("lane-a", ["n-start", "gw-split", "t-1", "t-2", "gw-join", "n-end"])],
        nodes=[
            m.StartEvent("n-start", "lane-a"),
            m.Gateway("gw-split", "lane-a", kind=m.GatewayKind.PARALLEL),
            m.Task("t-1", "lane-a", "One"),
            m.Task("t-2", "lane-a", "Two"),
            m.Gateway("gw-join", "lane-a", kind=m.GatewayKind.PARALLEL),
            m.EndEvent("n-end", "lane-a"),
        ],
        flows=[
            m.SequenceFlow("f-01", "n-start", "gw-split"),
            m.SequenceFlow("f-02", "gw-split", "t-1"),
            m.SequenceFlow("f-03", "gw-split", "t-2"),
            m.SequenceFlow("f-04", "t-1", "gw-join"),
            m.SequenceFlow("f-05", "t-2", "gw-join"),
            m.SequenceFlow("f-06", "gw-join", "n-end"),
        ],
    )
    lines = run_lines(model, sim.ScenarioPolicy())
    assert sum(1 for l in lines if "TokenEnd" in l) == 1


def test_message_region_linear_chain():
    model = two_pool_message_model()
    scenario = sim.ScenarioPolicy(
        per_task={
            "t-ask": sim.ScriptedBehavior(outputs=[out("request")]),
            "t-work": sim.ScriptedBehavior(outputs=[out("draft", 70)]),
            "t-refine": sim.ScriptedBehavior(outputs=[out("polished", 90)]),
            "t-use": sim.ScriptedBehavior(outputs=[out("done")]),
        }
    )
    trace = sim.run_simulation(model, scenario)
    lines = sim.format_trace(trace).splitlines()
    kinds = [l.split("\t")[1] for l in lines]
    assert "RegionOpen" in kinds and "MergeDecision" in kinds
    assert any("mf-out" in l and "RegionOpen" in l for l in lines)
    assert any("chosen=polished" in l for l in lines)
    assert lines[-1].endswith("TokenEnd\tn-end")
    assert trace.warnings == []


def test_message_region_multi_instance_pool_warns():
    model = two_pool_message_model(remote_multi=True)
    scenario = sim.ScenarioPolicy(
        per_task={"t-ask": sim.ScriptedBehavior(outputs=[out("request")])}
    )
    trace = sim.run_simulation(model, scenario)
    assert any(w.startswith("W-MULTIPOOL") for w in trace.warnings)
    text = sim.format_trace(trace)
    assert "#\twarning\tW-MULTIPOOL" in text



# -- message-flow regions, pinned --------------------------------------------
# Every trace text below was recorded before message-flow regions were
# matched in the model, and pins the behaviour the simulator had then.


def _outgoing(flow_id, source, target, mode=m.CollaborationMode.COMPETITION):
    info = m.AgenticRegionInfo(m.MessageFlowDirection.OUTGOING, collaboration=mode)
    return m.MessageFlow(flow_id, source, target, agentic=info)


def _incoming(flow_id, source, target, strategy=m.MergeStrategy.COMPETITION_FASTEST, trust=None):
    info = m.AgenticRegionInfo(
        m.MessageFlowDirection.INCOMING, merge=strategy, trust=None if trust is None else m.TrustScore(trust)
    )
    return m.MessageFlow(flow_id, source, target, agentic=info)


# pool A's sequence flows: t-ask goes on to t-use, or only hands its token
# over to the region
ASK_THEN_USE = (("n-start", "t-ask"), ("t-ask", "t-use"), ("t-use", "n-end"))
HANDED_OFF = (("n-start", "t-ask"), ("t-use", "n-end"))


def delegation_model(
    message_flows,
    remote_nodes=("t-work", "t-refine"),
    remote_flows=(("t-work", "t-refine"),),
    here_flows=ASK_THEN_USE,
    here_role=None,
):
    """Pool A (n-start, t-ask, t-use, n-end) and pool B (``remote_nodes`` in
    a worker lane beside an empty manager lane; a ``t-`` id is a task, any
    other a subprocess), joined by ``message_flows``.  A sequence flow is
    (source, target) or (source, target, condition); a ``gw-`` id in
    ``here_flows`` is an exclusive gateway of pool A."""

    def flows(rows, prefix):
        return tuple(m.SequenceFlow(f"{prefix}{i:02d}", *row) for i, row in enumerate(rows))

    gateways = sorted({end for row in here_flows for end in row[:2] if end.startswith("gw-")})
    pool_a = m.Pool(
        id="pool-a",
        lanes=(lane("lane-req", ["n-start", "t-ask", "t-use", "n-end", *gateways], role=here_role),),
        nodes=(
            m.StartEvent("n-start", "lane-req"),
            m.Task("t-ask", "lane-req", "Ask"),
            m.Task("t-use", "lane-req", "Use"),
            m.EndEvent("n-end", "lane-req"),
            *(m.Gateway(g, "lane-req") for g in gateways),
        ),
        flows=flows(here_flows, "f-a"),
    )
    pool_b = m.Pool(
        id="pool-b",
        lanes=(
            lane("lane-lead", [], role=m.MANAGER, trust_value=80),
            lane("lane-remote", remote_nodes, role=m.WORKER, trust_value=75),
        ),
        nodes=tuple(
            (m.Task if n.startswith("t-") else m.SubProcess)(n, "lane-remote") for n in remote_nodes
        ),
        flows=flows(remote_flows, "f-b"),
    )
    return m.ProcessModel(id="model-msg", pools=(pool_a, pool_b), message_flows=tuple(message_flows))


def delegation_scenario(**lane_scripts):
    """One output per task, with rising latencies, and ``lane_scripts``."""
    labels = {"t-ask": "request", "t-work": "draft", "t-refine": "polished", "t-use": "done"}
    return sim.ScenarioPolicy(
        per_task={
            task: sim.ScriptedBehavior(outputs=[out(label, 70, 10 * i)])
            for i, (task, label) in enumerate(labels.items())
        },
        per_lane={lane_id.replace("_", "-"): script for lane_id, script in lane_scripts.items()},
    )


def region_pair(mode=m.CollaborationMode.COMPETITION, strategy=m.MergeStrategy.COMPETITION_FASTEST, trust=None):
    return (
        _outgoing("mf-out", "t-ask", "t-work", mode),
        _incoming("mf-in", "t-refine", "t-use", strategy, trust),
    )


def test_message_region_unmatched_flow_warns_and_moves_on():
    model = delegation_model([_outgoing("mf-out", "t-ask", "t-work")])
    assert run_lines(model, delegation_scenario()) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tTokenEnter\tt-use",
        "4\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "5\tTokenEnd\tn-end",
        "#\twarning\tW-MULTIPOOL mf-out: no matching incoming merge flow",
    ]


def test_message_region_cycle_warns_after_the_walked_nodes():
    # the incoming flow leaves a node the walk never reaches
    model = delegation_model(
        [_outgoing("mf-out", "t-ask", "t-work"), _incoming("mf-in", "t-last", "t-use")],
        remote_nodes=("t-work", "t-refine", "t-last"),
        remote_flows=(("t-work", "t-refine"), ("t-refine", "t-work")),
    )
    assert run_lines(model, delegation_scenario()) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tRegionOpen\tmf-out\tmode=competition",
        "4\tTokenEnter\tt-work",
        "5\tTaskDone\tt-work\tlabel=draft lane=lane-remote confidence=70 latencyMs=10 trust=70",
        "6\tTokenEnter\tt-refine",
        "7\tTaskDone\tt-refine\tlabel=polished lane=lane-remote confidence=70 latencyMs=20 trust=70",
        "8\tTokenEnter\tt-use",
        "9\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "10\tTokenEnd\tn-end",
        "#\twarning\tW-MULTIPOOL mf-out: remote pool walk cycles",
    ]


def test_message_region_fork_warns_after_the_walked_nodes():
    model = delegation_model(
        [_outgoing("mf-out", "t-ask", "t-work"), _incoming("mf-in", "t-last", "t-use")],
        remote_nodes=("t-work", "t-refine", "t-last"),
        remote_flows=(("t-work", "t-refine"), ("t-work", "t-last")),
    )
    assert run_lines(model, delegation_scenario()) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tRegionOpen\tmf-out\tmode=competition",
        "4\tTokenEnter\tt-work",
        "5\tTaskDone\tt-work\tlabel=draft lane=lane-remote confidence=70 latencyMs=10 trust=70",
        "6\tTokenEnter\tt-use",
        "7\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "8\tTokenEnd\tn-end",
        "#\twarning\tW-MULTIPOOL mf-out: remote pool is not a linear chain",
    ]


def test_message_region_warns_each_time_a_token_reaches_the_node():
    model = delegation_model(
        [_outgoing("mf-out", "t-ask", "t-work")],
        here_flows=(
            ("n-start", "t-ask"),
            ("t-ask", "t-use"),
            ("t-use", "gw-loop"),
            ("gw-loop", "t-ask", 'label == "again"'),
            ("gw-loop", "n-end"),
        ),
    )
    scenario = delegation_scenario()
    scenario.per_task["t-use"] = sim.ScriptedBehavior(outputs=[out("again"), out("done")])
    assert run_lines(model, scenario) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tTokenEnter\tt-use",
        "4\tTaskDone\tt-use\tlabel=again lane=lane-req trust=100",
        "5\tTokenEnter\tgw-loop",
        "6\tTokenEnter\tt-ask",
        "7\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "8\tTokenEnter\tt-use",
        "9\tTaskDone\tt-use\tlabel=done lane=lane-req trust=100",
        "10\tTokenEnter\tgw-loop",
        "11\tTokenEnd\tn-end",
        "#\twarning\tW-MULTIPOOL mf-out: no matching incoming merge flow",
        "#\twarning\tW-MULTIPOOL mf-out: no matching incoming merge flow",
    ]


def test_message_region_chain_without_a_task_fails():
    model = delegation_model(
        [_outgoing("mf-out", "t-ask", "s-work"), _incoming("mf-in", "s-done", "t-use")],
        remote_nodes=("s-work", "s-done"),
        remote_flows=(("s-work", "s-done"),),
    )
    message = "no scripted behavior for 'mf-out': remote chain contains no task"
    with pytest.raises(sim.MissingBehavior, match=f"^{re.escape(message)}$"):
        sim.run_simulation(model, delegation_scenario())


def test_message_region_incoming_flow_may_end_the_token():
    model = delegation_model(
        [_outgoing("mf-out", "t-ask", "t-work"), _incoming("mf-in", "t-refine", "n-end")]
    )
    assert run_lines(model, delegation_scenario()) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tRegionOpen\tmf-out\tmode=competition",
        "4\tTokenEnter\tt-work",
        "5\tTaskDone\tt-work\tlabel=draft lane=lane-remote confidence=70 latencyMs=10 trust=70",
        "6\tTokenEnter\tt-refine",
        "7\tTaskDone\tt-refine\tlabel=polished lane=lane-remote confidence=70 latencyMs=20 trust=70",
        "8\tCandidateSet\tmf-in\tsize=1 labels=polished",
        "9\tMergeDecision\tmf-in\tstrategy=competition.fastest chosen=polished rationale=fastest at 20ms",
        "10\tTokenEnd\tn-end",
        "11\tTokenEnter\tt-use",
        "12\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "13\tTokenEnd\tn-end",
    ]


def test_message_region_source_without_sequence_flow_hands_its_token_over():
    model = delegation_model(region_pair(), here_flows=HANDED_OFF)
    assert run_lines(model, delegation_scenario()) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tRegionOpen\tmf-out\tmode=competition",
        "4\tTokenEnter\tt-work",
        "5\tTaskDone\tt-work\tlabel=draft lane=lane-remote confidence=70 latencyMs=10 trust=70",
        "6\tTokenEnter\tt-refine",
        "7\tTaskDone\tt-refine\tlabel=polished lane=lane-remote confidence=70 latencyMs=20 trust=70",
        "8\tCandidateSet\tmf-in\tsize=1 labels=polished",
        "9\tMergeDecision\tmf-in\tstrategy=competition.fastest chosen=polished rationale=fastest at 20ms",
        "10\tTokenEnter\tt-use",
        "11\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "12\tTokenEnd\tn-end",
    ]


def test_message_region_debate_has_no_revision_round():
    model = delegation_model(
        region_pair(m.CollaborationMode.DEBATE, m.MergeStrategy.VOTING_MAJORITY), here_flows=HANDED_OFF
    )
    scenario = delegation_scenario(lane_remote=sim.LaneScript(vote="polished2"))
    scenario.per_task["t-refine"].outputs.append(out("polished2", 95))
    assert run_lines(model, scenario) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tRegionOpen\tmf-out\tmode=debate",
        "4\tTokenEnter\tt-work",
        "5\tTaskDone\tt-work\tlabel=draft lane=lane-remote confidence=70 latencyMs=10 trust=70",
        "6\tTokenEnter\tt-refine",
        "7\tTaskDone\tt-refine\tlabel=polished lane=lane-remote confidence=70 latencyMs=20 trust=70",
        "8\tCandidateSet\tmf-in\tsize=1 labels=polished",
        "9\tMergeDecision\tmf-in\tstrategy=voting.majority chosen=polished rationale=no votes for any candidate; tie-break applied",
        "10\tTokenEnter\tt-use",
        "11\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "12\tTokenEnd\tn-end",
    ]


def test_message_region_counts_remote_lane_votes_only():
    # the remote task's own vote and pool A's lane vote are not counted
    model = delegation_model(
        region_pair(m.CollaborationMode.VOTING, m.MergeStrategy.VOTING_MAJORITY, trust=60),
        here_flows=HANDED_OFF,
    )
    scenario = delegation_scenario(
        lane_lead=sim.LaneScript(vote="polished"),
        lane_remote=sim.LaneScript(vote="polished"),
        lane_req=sim.LaneScript(vote="other"),
    )
    scenario.per_task["t-refine"].vote = "other"
    assert run_lines(model, scenario) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tRegionOpen\tmf-out\tmode=voting",
        "4\tTokenEnter\tt-work",
        "5\tTaskDone\tt-work\tlabel=draft lane=lane-remote confidence=70 latencyMs=10 trust=70",
        "6\tTokenEnter\tt-refine",
        "7\tTaskDone\tt-refine\tlabel=polished lane=lane-remote confidence=70 latencyMs=20 trust=70",
        "8\tCandidateSet\tmf-in\tsize=1 labels=polished",
        "9\tMergeDecision\tmf-in\tstrategy=voting.majority chosen=polished rationale=2/2 votes for 'polished' [message trust=60]",
        "10\tTokenEnter\tt-use",
        "11\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "12\tTokenEnd\tn-end",
    ]


def test_message_region_pick_comes_from_the_requesting_pool_first():
    # a worker lane of pool A picks before pool B's manager lane
    model = delegation_model(
        region_pair(m.CollaborationMode.ROLE, m.MergeStrategy.ROLE_LEADER_DRIVEN),
        here_flows=HANDED_OFF,
        here_role=m.WORKER,
    )
    scenario = delegation_scenario(
        lane_lead=sim.LaneScript(manager_pick="draft"),
        lane_req=sim.LaneScript(manager_pick="polished"),
    )
    assert run_lines(model, scenario) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-ask",
        "2\tTaskDone\tt-ask\tlabel=request lane=lane-req confidence=70 latencyMs=0 trust=70",
        "3\tRegionOpen\tmf-out\tmode=role",
        "4\tTokenEnter\tt-work",
        "5\tTaskDone\tt-work\tlabel=draft lane=lane-remote confidence=70 latencyMs=10 trust=70",
        "6\tTokenEnter\tt-refine",
        "7\tTaskDone\tt-refine\tlabel=polished lane=lane-remote confidence=70 latencyMs=20 trust=70",
        "8\tCandidateSet\tmf-in\tsize=1 labels=polished",
        "9\tMergeDecision\tmf-in\tstrategy=role.leaderDriven chosen=polished rationale=leader pick 'polished'",
        "10\tTokenEnter\tt-use",
        "11\tTaskDone\tt-use\tlabel=done lane=lane-req confidence=70 latencyMs=30 trust=70",
        "12\tTokenEnd\tn-end",
    ]


def _branch_delegation_model(message_flows):
    """``region_model()`` and pool B, joined by ``message_flows``."""
    return m.ProcessModel(
        id="model-msg",
        pools=(*region_model().pools, delegation_model(()).pools[1]),
        message_flows=tuple(message_flows),
    )


_BRANCH_SCENARIO = sim.ScenarioPolicy(
    per_task=region_scenario_tasks(), per_lane={"lane-hub": sim.LaneScript(manager_pick="beta")}
)


def test_message_flow_from_inside_a_region_is_warned_about():
    # the branch runs its task and the region merges; the pair does not open
    model = _branch_delegation_model(
        [_outgoing("mf-out", "t-b1", "t-work"), _incoming("mf-in", "t-refine", "t-b1")]
    )
    assert run_lines(model, _BRANCH_SCENARIO) == [
        "0\tTokenEnter\tn-start",
        "1\tTokenEnter\tt-seed",
        "2\tTaskDone\tt-seed\tlabel=seed lane=lane-hub trust=90",
        "3\tTokenEnter\tgw-div",
        "4\tRegionOpen\tgw-div\tmode=role",
        "5\tTokenEnter\tt-b1",
        "6\tTaskDone\tt-b1\tlabel=alpha lane=lane-b1 confidence=70 latencyMs=120 completeness=40 trust=70",
        "7\tTokenEnter\tt-b2",
        "8\tTaskDone\tt-b2\tlabel=beta lane=lane-b2 confidence=85 latencyMs=80 completeness=90 trust=85",
        "9\tCandidateSet\tgw-mrg\tsize=2 labels=alpha,beta",
        "10\tMergeDecision\tgw-mrg\tstrategy=role.leaderDriven chosen=beta rationale=leader pick 'beta'",
        "11\tTokenEnter\tgw-mrg",
        "12\tTokenEnd\tn-end",
        "#\twarning\tW-MULTIPOOL mf-out: message flow from inside a collaboration region is not executed",
    ]


def test_unmatched_message_flow_from_inside_a_region_warns_as_elsewhere():
    model = _branch_delegation_model([_outgoing("mf-out", "t-b1", "t-work")])
    assert sim.run_simulation(model, _BRANCH_SCENARIO).warnings == [
        "W-MULTIPOOL mf-out: no matching incoming merge flow"
    ]

# -- determinism -------------------------------------------------------------


def fixture_run(seed=7):
    model = parse_model((FIXTURES / "bug-triage.bpmn").read_bytes()).model
    scenario = sim.load_scenario((FIXTURES / "bug-triage.scn.yaml").read_bytes())
    scenario.seed = seed
    return sim.format_trace(sim.run_simulation(model, scenario))


def test_same_seed_same_trace():
    assert fixture_run(7) == fixture_run(7)
    assert fixture_run(1) == fixture_run(2)  # no jitter scripted: seed is inert


def test_jitter_depends_on_seed_only():
    model = linear_model()

    def run(seed):
        scenario = sim.ScenarioPolicy(
            per_task={
                "t-1": sim.ScriptedBehavior(
                    outputs=[out("x")], latency_ms=10, latency_jitter_ms=50
                )
            },
            seed=seed,
        )
        return sim.format_trace(sim.run_simulation(model, scenario))

    assert run(3) == run(3)
    assert len({run(s) for s in range(8)}) > 1  # jitter draws vary with the seed


# -- scenario loading --------------------------------------------------------


def test_load_scenario_full_surface():
    scenario = sim.load_scenario(
        """
seed: 42
tasks:
  t-1:
    outputs:
      - {label: a, payload: body, confidence: 55, latencyMs: 9, completeness: 3}
    reflectionVerdicts: [revise, accept]
    vote: a
    latencyMs: 12
    completeness: 80
    latencyJitterMs: 5
lanes:
  lane-a:
    reflectionVerdicts: [accept]
    vote: a
    managerPick: a
"""
    )
    assert scenario.seed == 42
    behavior = scenario.per_task["t-1"]
    assert behavior.outputs[0] == out("a", 55, 9, 3, payload="body")
    assert behavior.reflection_verdicts == ["revise", "accept"]
    assert behavior.latency_jitter_ms == 5
    script = scenario.per_lane["lane-a"]
    assert script.manager_pick == "a"


def test_load_scenario_empty_document():
    scenario = sim.load_scenario("")
    assert scenario.per_task == {} and scenario.per_lane == {} and scenario.seed == 0


@pytest.mark.parametrize(
    "document",
    [
        "tasks: {t-1: {outputs: [{label: a, confidence: 900}]}}",
        "tasks: {t-1: {outputs: [{label: a, confidence: -1}]}}",
        "tasks: {t-1: {outputs: [{label: a, latencyMs: fast}]}}",
        "tasks: {t-1: {outputs: [{label: a, completeness: x}]}}",
        "tasks: {t-1: {outputs: [{label: a}], latencyMs: fast}}",
        "tasks: {t-1: {outputs: [{label: a}], completeness: 1.5}}",
        "tasks: {t-1: {outputs: [{label: a}], latencyJitterMs: x}}",
        "tasks: {t-1: {outputs: [{label: a}], latencyJitterMs: true}}",
        "tasks: {t-1: {outputs: [{label: a, confidence: 100.9}]}}",
        "tasks: {t-1: {outputs: [{label: a, confidence: -0.5}]}}",
        "tasks: {t-1: {outputs: [{label: a, confidence: true}]}}",
        "seed: 1.9",
        "seed: !!int ''",
        "seed: !!bool x",
        "seed: !!timestamp x",
    ],
    ids=[
        "confidence-900",
        "confidence-negative",
        "output-latencyMs",
        "output-completeness",
        "task-latencyMs",
        "task-completeness",
        "task-latencyJitterMs",
        "task-latencyJitterMs-bool",
        "confidence-fraction-above-range",
        "confidence-negative-fraction",
        "confidence-bool",
        "seed-fraction",
        "empty-int-tag",
        "bool-tag-on-text",
        "timestamp-tag-on-text",
    ],
)
def test_load_scenario_rejects_bad_values(document):
    with pytest.raises((ValueError, m.OutOfRange)):
        sim.load_scenario(document)


@pytest.mark.parametrize(
    "document, key",
    [
        ("[1, 2]", "scenario"),
        ("tasks: [a, b]", "tasks"),
        ("tasks: {t1: [1]}", "tasks.t1"),
        ("tasks: {t1: {outputs: {label: x}}}", "tasks.t1.outputs"),
        ("tasks: {t1: {outputs: [x]}}", r"tasks.t1.outputs\[0\]"),
        ("lanes: {l1: 5}", "lanes.l1"),
        ("tasks: {t1: {outputs: [{payload: x}]}}", r"tasks.t1.outputs\[0\] has no label"),
        ("tasks: {t1: {reflectionVerdicts: 5}}", "tasks.t1.reflectionVerdicts"),
        ("just a string", "scenario"),
        ("tasks: {t1: {vote: [a]}}", "tasks.t1.vote"),
        ("lanes: {l1: {vote: {a: 1}}}", "lanes.l1.vote"),
        ("lanes: {lane-reviewer: {managerPick: [patch-B]}}", "lanes.lane-reviewer.managerPick"),
        ("seed: x", "seed must be an integer, got 'x'$"),
        ("tasks: {t1: {outputs: [{label: a, latencyMs: x}]}}",
         r"tasks.t1.outputs\[0\].latencyMs must be an integer, got 'x'$"),
        ("tasks: {t1: {completeness: 1.5}}", "tasks.t1.completeness must be an integer"),
        ("tasks: {t1: {latencyJitterMs: true}}", "tasks.t1.latencyJitterMs must be an integer"),
        ("tasks: {t1: {outputs: [{label: a, confidence: 900}]}}",
         r"tasks.t1.outputs\[0\].confidence: trust score 900 outside 0..100$"),
        ("tasks: {t1: {outputs: [{label: a, confidence: x}]}}",
         r"tasks.t1.outputs\[0\].confidence must be an integer"),
    ],
    ids=[
        "list-document",
        "tasks-list",
        "task-list",
        "outputs-mapping",
        "output-string",
        "lane-int",
        "output-without-label",
        "verdicts-int",
        "bare-string",
        "task-vote-list",
        "lane-vote-mapping",
        "managerPick-list",
        "seed-text",
        "output-latencyMs-text",
        "task-completeness-float",
        "task-latencyJitterMs-bool",
        "confidence-above-range",
        "confidence-text",
    ],
)
def test_load_scenario_rejects_wrong_shapes(document, key):
    # a confidence out of range raises OutOfRange, the others ValueError
    with pytest.raises((ValueError, m.OutOfRange), match=f"^{key}"):
        sim.load_scenario(document)


def test_load_scenario_reads_scalar_votes_as_text():
    scenario = sim.load_scenario(
        "tasks: {t1: {vote: 3}}\nlanes: {l1: {vote: yes, managerPick: 1.5}}"
    )
    assert scenario.per_task["t1"].vote == "3"
    assert scenario.per_lane["l1"] == sim.LaneScript(vote="True", manager_pick="1.5")


def test_load_scenario_rejects_invalid_yaml():
    with pytest.raises(ValueError, match="^scenario is not valid YAML") as info:
        sim.load_scenario("tasks: {a: [")
    assert isinstance(info.value.__cause__, yaml.YAMLError)


def _load_in_child(document):
    """What a child interpreter prints after loading the scenario that the
    expression ``document`` builds: the ValueError and its cause's class.
    A child, so that a composer that overflows the C stack fails the test
    (by a signal) instead of ending the test run."""
    code = (
        "from hagent import simulate as sim\n"
        "try:\n"
        f"    sim.load_scenario({document})\n"
        "except ValueError as exc:\n"
        "    print(exc, type(exc.__cause__).__name__)\n"
    )
    src = str(Path(sim.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_load_scenario_rejects_deep_nesting():
    assert (
        _load_in_child("'a: ' + '[' * 100_000 + ']' * 100_000")
        == "scenario nests too deeply RecursionError\n"
    )


def test_load_scenario_rejects_deep_block_nesting():
    assert (
        _load_in_child("'a:\\n  ' + '- ' * 100_000 + 'x'")
        == "scenario nests too deeply RecursionError\n"
    )


# text that plain YAML would read as another type or as structure, or that
# needs quoting or escaping
_TRICKY = ["yes", "no", "on", "null", "~", "1e3", "0o17", "0x1f", "12", "1.5",
           "a: b", "- x", "#c", "", " ", "été", "日本語", "emoji \U0001f600"]
_text = st.one_of(st.sampled_from(_TRICKY), st.text(max_size=6))
_scalar = st.one_of(_text, st.integers(-5, 500), st.booleans(), st.none())
_verdicts = st.lists(_text, max_size=3)
_small = st.integers(0, 10_000)
_output = st.fixed_dictionaries(
    {"label": _scalar},
    optional={"payload": _text, "confidence": st.integers(0, 100),
              "latencyMs": _small, "completeness": _small},
)
_task = st.fixed_dictionaries(
    {"outputs": st.lists(_output, max_size=3)},
    optional={"reflectionVerdicts": _verdicts, "vote": _scalar, "latencyMs": _small,
              "completeness": _small, "latencyJitterMs": _small},
)
_lane = st.fixed_dictionaries(
    {}, optional={"reflectionVerdicts": _verdicts, "vote": _scalar, "managerPick": _scalar}
)
_scenario = st.fixed_dictionaries(
    {},
    optional={"seed": _small, "tasks": st.dictionaries(_text, _task, max_size=3),
              "lanes": st.dictionaries(_text, _lane, max_size=3)},
)


_EXPLICIT_KEY = re.compile(r"(?:^|[\n{,]) *\? ")


def _texts_in(value):
    """Every key and text inside a generated document."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield key
            yield from _texts_in(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from _texts_in(inner)
    elif isinstance(value, str):
        yield value


@settings(max_examples=300, deadline=None)
@given(_scenario, st.booleans(), st.booleans())
@example({"lanes": {"?0": {}, ":0": {}}}, False, False)  # "?" and ":" start plain keys
@example({"lanes": {"yes": {"vote": "\n"}}}, False, False)  # a quoted scalar over lines
def test_scenario_loader_agrees_with_pure_python_loader(document, flow, allow_unicode):
    text = yaml.safe_dump(document, default_flow_style=flow, allow_unicode=allow_unicode)
    raw = yaml.safe_load(text)
    # with allow_unicode PyYAML's emitter writes NEL (U+0085) unescaped inside
    # quotes, where YAML reads it as a line break, so only the loaders agree
    if "\x85" not in text:
        assert raw == document
    policy = scenario._read(text)
    assert policy is scenario._HAND_OFF or policy == old_scenario.load_scenario(text)
    # the reader takes every generated scenario written in block style that
    # holds no backslash escape (flow style goes to yaml.safe_load); a raw
    # NEL, LS or PS is a line break to YAML, so a scalar holding one spans
    # lines, as does a key or text holding "\n", which the emitter quotes
    # over several lines; and the emitter writes an empty key as an
    # explicit "? " key
    if (
        not flow
        and not any(c in text for c in "\\\x85\u2028\u2029")
        and not any("\n" in s for s in _texts_in(document))
        and not _EXPLICIT_KEY.search(text)
    ):
        assert policy is not scenario._HAND_OFF
    assert _old_wording(_load_outcome(sim.load_scenario, text)) == _safe_load_outcome(text)


# -- the reader against the composing loader ----------------------------------


def _block_nest(depth):
    """``depth`` block mappings, each nested in the one before."""
    return "".join(f"{' ' * i}k:\n" for i in range(depth - 1)) + " " * (depth - 1) + "k: v\n"


# (document, whether it lies outside the subset of YAML the reader reads, so
# that the reader hands it to the composing loader)
_YAML_CORPUS = {
    "empty-stream": ("", False),
    "comment-only": ("# only a comment\n", False),
    "empty-document": ("---\n...\n", True),
    "null-document": ("~", False),
    "text-document": ("plain text", False),
    "integers": ("[1, -3, +4, 0x1f, 0o17, 017, 0b101, 1_000, 1:20, 0]", True),
    "floats": ("[1e3, 1.0e+3, 2.5, .5, .inf, -.Inf, .nan, .NaN, 1:20.5]", True),
    "bools-and-nulls": ("[yes, No, on, OFF, y, n, true, False, null, Null, ~, '']", False),
    "timestamps": (
        "[2001-12-14, 2001-12-14t21:59:43.10-05:00, 2001-12-14 21:59:43.10,"
        " 2001-12-15T02:59:43.1Z]",
        True,
    ),
    "duplicate-keys": ("a: 1\na: 2\nb: [x]\nb: {y: z}", False),
    "equal-scalar-keys": ("{1: a, 1.0: b, true: c, ~: d, 2001-01-01: e}", False),
    "quoted-and-block": (
        "a: 'quoted: yes'\nb: \"esc\\tape \\u00e9\"\nc: |\n  block\n  text\n"
        "d: >-\n  folded\n  text\ne: '12'\n",
        True,
    ),
    "nested-blocks": ("- - - - [deep]\n  - x\n- {}\n- []\n", False),
    "version-directive": ("%YAML 1.1\n---\na: 1", True),
    "nesting-at-bound": ("[" * 64 + "]" * 64, False),
    "nesting-over-bound": ("a: " + "[" * 64 + "]" * 64, True),
    "value-scalar": ("a: =", True),
    "value-key": ("=: a", True),
    "merge-key": ("<<: {a: 1}\nb: 2", True),
    "merge-scalar": ("a: <<", True),
    "anchor-and-merge": ("base: &b {x: 1}\nderived:\n  <<: *b\n  y: 2", True),
    "scalar-alias": ("a: &x 1\nb: *x", True),
    "recursive-alias": ("&r [*r]", True),
    "undefined-alias": ("a: *nope", True),
    "set": ("!!set {a, b}", True),
    "binary": ("!!binary aGVsbG8=", True),
    "str-tag": ("a: !!str 12", True),
    "int-tag": ("a: !!int '12'", True),
    "non-specific-tag": ("a: ! 12", True),
    "local-tag": ("a: !custom x", True),
    "tag-directive": ("%TAG !e! tag:example.com,2000:\n---\na: !e!x 1", True),
    "python-name": ("!!python/name:os.system x", True),
    "python-apply": ("!!python/object/apply:os.system [ls]", True),
    "omap": ("!!omap [a: 1, b: 2]", True),
    "sequence-key": ("? [a, b]\n: c", True),
    "flow-sequence-key": ("{[a]: b}", True),
    "mapping-key": ("? {a: 1}\n: c", True),
    "two-documents": ("a: 1\n---\nb: 2", True),
    "trailing-empty-document": ("---\na: 1\n---\n", True),
    "second-document-broken": ("a: 1\n---\n[", True),
    "impossible-date": ("a: 2001-02-30", True),
    "impossible-hour": ("a: 2001-12-14 25:59:43", True),
    "impossible-offset": ("a: 2001-12-14t21:59:43.10+25:00", True),
    "unclosed-flow": ("a: [", True),
    "colon-in-plain": ("a: b: c", True),
    "unclosed-mapping": ("{a: 1", True),
    "bad-indent": ("a:\n- b\n c: d", True),
    "unclosed-quote": ("'x", True),
    "tab-indent": ("\t- a", True),
    # at the edges of the scanner's subset
    "trailing-comments": ("a: b # c\nd: [1, 2] # e\nf: 'g'  # h\n  # i\n", False),
    "hash-in-plain": ("a#b", False),
    "dedent-to-unopened-indent": ("a:\n    b: 1\n  c: 2\n", True),
    "compact-entries": ("- k: v\n  l: w\n- - x\n  - y\n-\n- k:\n", False),
    "sequence-at-key-indent": ("a:\n- x\n- k: v\n  l: w\nb:\n  - y\nc: 1\n", False),
    "nested-one-line-flow": ("a: [1, [2, {b: [c, {}]}], {d: e}]", False),
    "flow-trailing-comma": ("{a: 1,}", False),
    "empty-flows": ("a: []\nb: {}\nc: [ ]\n", False),
    "flow-empty-value": ("{a: }", True),
    "flow-sequence-pair": ("[a: 1]", True),
    "json-style-key": ('{"a":1}', True),
    "quoted-keys": ("'a b': 1\n\"c d\": 2\n'it''s': ''\n", False),
    "escaped-double-quote": ('a: "a\\"b"', True),
    "octal-underscore-hex": ("a: 017\nb: 1_000\nc: 0x1f\nd: 1:20\n", False),
    "non-ascii-plain": ("été: 日本語 \U0001f600", False),
    "crlf": ("a: 1\r\nb: 2\r\n", True),
    "byte-order-mark": ("\ufeffa: 1", True),
    "key-over-1024": ("a" * 1025 + ": v", True),
    "block-nesting-at-bound": (_block_nest(64), False),
    "block-nesting-over-bound": (_block_nest(65), True),
    "compact-nesting-at-bound": ("- " * 64 + "x", False),
    "compact-nesting-over-bound": ("- " * 65 + "x", True),
    "value-ending-in-colon": ("a: b:", True),
    "comment-before-colon": ("a #b: c", True),
    # where libyaml and PyYAML's own scanner disagree: the first and third
    # load only without libyaml, the second only with it
    "byte-order-mark-in-line": ("a: 1\n\ufeffb: 2\n", True),
    "byte-order-mark-line": ("seed: 1\n\ufeff\n", True),
    "flow-key-before-comma": ('tasks:\n  t:\n    outputs:\n      - {label:, payload: "x"}\n', True),
    # flow collections the reader leaves to yaml.safe_load: all but one-line
    # lists of scalars, "{}" and the one-line records its regex reads
    "nested-list": ("lanes:\n  l:\n    reflectionVerdicts: [a, [b]]\n", True),
    "output-list": ("tasks:\n  t:\n    outputs: [{label: a}]\n", True),
    "nested-flow-mapping": ("tasks: {t: {vote: a}}", True),
}


def _load_outcome(load, text):
    # any exception but the documented ones fails the test
    try:
        return "value", repr(load(text))
    except (ValueError, m.OutOfRange) as exc:
        return "error", type(exc), str(exc)


# what load_scenario puts before an integer or range error that the old
# loader worded without a key path: the path up to the key, or the path and ": "
_KEY_PATH = re.compile(
    r"(?:.*?\.)?(?=(?:seed|latencyMs|completeness|latencyJitterMs|confidence) must be an integer, got )"
    r"|.*?: (?=trust score -?\d+ outside 0\.\.100$)",
    re.DOTALL,
)


def _safe_load_outcome(text):
    """The reference outcome of ``text``: the old loader's, with every
    document it hands off composed by ``yaml.SafeLoader``, PyYAML's own
    Python, as ``yaml.safe_load`` composes it on every install."""
    with mock.patch.object(old_scenario, "_ScenarioLoader", yaml.SafeLoader):
        return _load_outcome(old_scenario.load_scenario, text)


# a set of texts in an error: load_scenario writes its items sorted by repr
_SET_TEXT = re.compile(r"\{('[^'{}]*'(?:, '[^'{}]*')*)\}")


def _hash_ordered(match):
    """The set ``match`` writes, built as ``SafeConstructor.construct_yaml_set``
    builds it from a document that lists its items in sorted order (as every
    set these tests load does), so written in the old loader's order."""
    built = set()
    built.update(dict.fromkeys(ast.literal_eval(f"[{match.group(1)}]")))
    return repr(built)


def _old_wording(outcome):
    """``outcome`` with its error's key path cut, as the old loader worded it:
    "tasks.t1.latencyMs must be an integer, got 'x'" reads "latencyMs must be
    an integer, got 'x'", and "tasks.t1.outputs[0].confidence: trust score 900
    outside 0..100" reads "trust score 900 outside 0..100"; and with each set
    in the hash order the old loader wrote it in."""
    if outcome[0] != "error":
        return outcome
    kind, error, message = outcome
    cut = _KEY_PATH.match(message)
    return kind, error, _SET_TEXT.sub(_hash_ordered, message[cut.end():] if cut else message)


def _handed_off_outcome(text):
    """``load_scenario``'s outcome with the reader bypassed: what the schema
    makes of ``yaml.safe_load(text)``, word for word."""
    with mock.patch.object(scenario, "_read", return_value=scenario._HAND_OFF):
        return _load_outcome(sim.load_scenario, text)


@pytest.mark.parametrize(
    "wording, reference",
    [(lambda outcome: outcome, _handed_off_outcome), (_old_wording, _safe_load_outcome)],
    ids=["scenario-loader", "safe-loader"],
)
@pytest.mark.parametrize(
    "text, handed_off", list(_YAML_CORPUS.values()), ids=list(_YAML_CORPUS)
)
def test_one_pass_build_agrees_with_safe_loader(text, handed_off, wording, reference):
    # the policy, or the error, is the one load_scenario's own hand-off to
    # yaml.safe_load gives, word for word, and the one the old loader gave
    assert wording(_load_outcome(sim.load_scenario, text)) == reference(text)
    # the reader raises nothing: it hands every syntax error to the
    # composing loader, which reports it; it also hands off a document in
    # the subset that does not fit the schema, which most of these do not
    if handed_off:
        assert scenario._read(text) is scenario._HAND_OFF


FIXTURE_SCENARIO = (FIXTURES / "bug-triage.scn.yaml").read_text(encoding="utf-8")
# the shape hagent's benchmark decks write: flow-style outputs, quoted payloads
_BENCH_SHAPED = """\
# scenario for deleg-0001
seed: 4242
tasks:
  t-p00-a:
    outputs:
      - {label: lbl-3, payload: "remote work 0", confidence: 81}
      - {label: lbl-4, payload: "remote work 0, revised", confidence: 90}
    vote: lbl-3
    latencyMs: 120
    latencyJitterMs: 15
    completeness: 70
    reflectionVerdicts: [revise, accept]
  t-req:
    outputs:
      - {label: ask, payload: "ask: 8 pools", confidence: 100}
lanes:
  lane-rev-a:
    reflectionVerdicts: [accept]
  lane-mgr-0:
    managerPick: lbl-3
    vote: lbl-4
"""


def _scenario_texts(source):
    """The scenarios of a fixture, of ``_BENCH_SHAPED`` or of the first
    block of a benchmark workload's deck at seed 7."""
    if source in ("fixture", "delegation-fixture"):
        name = "bug-triage" if source == "fixture" else "delegation"
        return [(FIXTURES / f"{name}.scn.yaml").read_bytes()]
    if source == "bench-shaped":
        return [_BENCH_SHAPED]
    gen = bench_gen()
    return [case.scenario for case in gen.build_deck(source, 7)[: gen.BLOCK_SIZE[source]]]


@pytest.mark.parametrize(
    "source", ["fixture", "delegation-fixture", "bench-shaped", "region-chain", "delegation", "lint-invalid"]
)
def test_scenarios_load_without_hand_off(source):
    for text in _scenario_texts(source):
        expected = old_scenario.load_scenario(text)
        with mock.patch.object(yaml, "safe_load", side_effect=AssertionError("handed off")):
            policy = sim.load_scenario(text)
            decoded = text.decode("utf-8") if isinstance(text, bytes) else text
            assert scenario._read(decoded) == expected
        assert policy == expected and policy.per_task and policy.per_lane


# -- mutated scenarios: the reader's differential gate -------------------------

_SCENARIO_TOKENS = ["\t", "\r", "\ufeff", "#", ": ", "- ", "&a", "*a", "!!str", "|",
                    "'", '"', "\\", "{", "[", "---"]


@st.composite
def mutated_scenarios(draw):
    """The fixture scenario or the bench-shaped one after 1-3 mutations:
    character deletions, line splices, indentation shifts and insertions of
    YAML indicators, anywhere or after a line's indentation."""
    text = draw(st.sampled_from([FIXTURE_SCENARIO, _BENCH_SHAPED]))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "splice", "indent", "insert", "insert-at-line"]))
        lines = text.split("\n")
        row = draw(st.integers(0, len(lines) - 1))
        line = lines[row]
        if op == "delete":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif op == "splice":  # a copy of a line, often a whole entry, at a line start
            lines.insert(draw(st.integers(0, len(lines))), line)
            text = "\n".join(lines)
        elif op == "indent":
            shift = draw(st.sampled_from([-2, -1, 1, 2]))
            lines[row] = " " * shift + line if shift > 0 else line[:-shift].lstrip(" ") + line[-shift:]
            text = "\n".join(lines)
        else:
            token = draw(st.sampled_from(_SCENARIO_TOKENS))
            if op == "insert":
                at = draw(st.integers(0, len(text)))
                text = text[:at] + token + text[at:]
            else:
                indent = len(line) - len(line.lstrip(" "))
                lines[row] = line[:indent] + token + line[indent:]
                text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios())
def test_scanner_agrees_with_composing_loader_on_mutated_scenarios(text):
    assert _load_outcome(sim.load_scenario, text) == _handed_off_outcome(text)
