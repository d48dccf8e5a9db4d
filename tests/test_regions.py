"""Region analysis is computed once per model and shared by every caller.

These tests gate on work counters (calls to the post-dominator analysis),
not on wall time, so they cannot flake.
"""

import pytest

from hagent import model as m
from hagent.cli import EXIT_OK, main
from hagent.validate import validate_model
from hagent.xmlio import serialize_model

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


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["simulate", "--scenario", "{scn}", "--trace", "{out}"],
        ["render", "-o", "{out}"],
    ],
    ids=["validate", "simulate", "render"],
)
def test_each_command_analyzes_the_pool_once(argv, tmp_path, post_dominator_calls, capsys):
    bpmn, scn, out = tmp_path / "m.bpmn", tmp_path / "m.scn.yaml", tmp_path / "out"
    bpmn.write_bytes(serialize_model(two_region_chain()))
    scn.write_text(SCENARIO)
    args = [argv[0], str(bpmn)] + [a.format(scn=scn, out=out) for a in argv[1:]]
    assert main(args) == EXIT_OK, capsys.readouterr()
    assert post_dominator_calls == ["pool-1"]


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
