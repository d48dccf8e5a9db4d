import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from decimal import Decimal

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hagent import model as m
from hagent.render import (
    COLLABORATION_CODES,
    MERGE_CODES,
    REFLECTION_CODES,
    ROLE_CODES,
    BadLayout,
    MissingLayout,
    _ranks,
    render_svg,
    role_code,
)
from hagent.xmlio import parse_model

import old_render
from builders import (
    lane,
    linear_model,
    one_pool_model,
    region_model,
    replace_node,
    two_pool_message_model,
)
from conftest import FIXTURES, bench_gen

VOCABULARY = (
    set(ROLE_CODES.values())
    | set(REFLECTION_CODES.values())
    | set(COLLABORATION_CODES.values())
    | set(MERGE_CODES.values())
)


def fixture_model():
    return parse_model((FIXTURES / "bug-triage.bpmn").read_bytes()).model


def markers(svg_bytes):
    """Map element id -> letter code for every marker in the document."""
    root = ET.fromstring(svg_bytes)
    out = {}
    for elem in root.iter():
        code = elem.get("data-hagent-code")
        if code is not None:
            out[elem.get("data-element-id")] = code
    return out


def test_vocabulary_is_the_closed_letter_set():
    assert VOCABULARY == {
        "m", "w", "s", "c", "h", "d", "r", "v",
        "v-ma", "v-a", "v-mi", "r-l", "r-c", "c-f", "c-mc",
    }
    assert role_code("manager") == "m"
    assert role_code("worker") == "w"
    assert role_code("devops-critic") == "w"


def test_fixture_markers():
    got = markers(render_svg(fixture_model()))
    assert got == {
        "lane-reviewer": "m",
        "lane-coder-a": "w",
        "lane-coder-b": "w",
        "task-check-validity": "s",
        "gw-collab-open": "r",
        "gw-collab-merge": "r-l",
    }
    assert set(got.values()) <= VOCABULARY


def test_non_agentic_model_has_no_markers():
    assert markers(render_svg(linear_model())) == {}


def test_one_marker_per_agentic_annotation():
    for strategy, code in MERGE_CODES.items():
        got = markers(render_svg(region_model(merge=strategy)))
        assert got["gw-mrg"] == code
        assert got["gw-div"] == COLLABORATION_CODES[m.CollaborationMode.ROLE]
        assert got["lane-hub"] == "m"
        assert got["lane-b1"] == got["lane-b2"] == "w"
        assert len(got) == 5


def test_message_flow_markers():
    got = markers(render_svg(two_pool_message_model()))
    assert got["mf-out"] == "c"
    assert got["mf-in"] == "c-f"


def test_rendering_is_deterministic():
    model = fixture_model()
    assert render_svg(model) == render_svg(model)


def test_svg_is_well_formed_and_carries_shapes():
    svg = render_svg(fixture_model())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ids = {e.get("data-element-id") for e in root.iter() if e.get("data-element-id")}
    for expected in ("pool-project", "lane-user", "start-bug", "flow-01", "end-resolved"):
        assert expected in ids
    assert b"agent-marker" in svg  # robot glyph definition plus uses


def test_agent_glyph_used_once_per_agentic_element():
    svg = render_svg(fixture_model()).decode()
    # 3 agentic lanes + 1 agentic task + 2 agentic gateways
    assert svg.count('<use href="#agent-marker"') == 6


def test_layout_hints_override_position():
    model = linear_model()
    hinted = render_svg(model, {"t-1": (400.0, 300.0, 110.0, 60.0)})
    root = ET.fromstring(hinted)
    rects = [
        e
        for e in root.iter()
        if e.tag.endswith("rect") and e.get("data-element-id") == "t-1"
    ]
    assert len(rects) == 1
    assert float(rects[0].get("x")) == 400.0 - 55.0
    assert float(rects[0].get("y")) == 300.0 - 30.0
    assert hinted != render_svg(model)


def test_missing_layout_for_model_without_nodes():
    empty = one_pool_model(lanes=[lane("lane-a")], nodes=[], flows=[])
    with pytest.raises(MissingLayout):
        render_svg(empty)


def test_uncertainty_scores_rendered_as_percent():
    svg = render_svg(fixture_model()).decode()
    assert "80%" in svg  # task uncertainty
    assert "90%" in svg  # reviewer lane trust


def test_ids_with_quotes_stay_well_formed():
    reflection = m.AgenticTaskInfo(reflection=m.ReflectionMode(m.ReflectionKind.SELF))
    model = one_pool_model(
        lanes=[lane('lane"a', ['n"start', 't"1', "n-end"], role="worker")],
        nodes=[
            m.StartEvent('n"start', 'lane"a'),
            m.Task('t"1', 'lane"a', "Work", agentic=reflection),
            m.EndEvent("n-end", 'lane"a'),
        ],
        flows=[
            m.SequenceFlow('f"1', 'n"start', 't"1'),
            m.SequenceFlow("f-2", 't"1', "n-end"),
        ],
        pool_id='pool"p',
    )
    svg = render_svg(model)
    root = ET.fromstring(svg)
    ids = {e.get("data-element-id") for e in root.iter()}
    assert {'pool"p', 'lane"a', 'n"start', 't"1', 'f"1'} <= ids
    assert markers(svg) == {'lane"a': "w", 't"1': "s"}


def test_ids_without_quotes_keep_their_escaping():
    # '&', '<' and '>' are escaped and other characters written as they are,
    # as render has always done
    model = one_pool_model(
        lanes=[lane("lane-a", ["a&b<c>'d"])],
        nodes=[m.Task("a&b<c>'d", "lane-a")],
        flows=[],
    )
    svg = render_svg(model)
    assert b'data-element-id="a&amp;b&lt;c&gt;\'d"' in svg
    assert "a&b<c>'d" in {e.get("data-element-id") for e in ET.fromstring(svg).iter()}


# -- ranks: longest path from the sources --------------------------------------


@st.composite
def random_dags(draw):
    """A pool whose flows run forward in a drawn order of its nodes, so node
    ids do not follow the topological order; parallel flows allowed."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations([f"n-{i:02d}" for i in range(n)]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    flows = [
        m.SequenceFlow(f"f-{j:02d}", order[min(a, b)], order[max(a, b)])
        for j, (a, b) in enumerate(pairs) if a != b
    ]
    return m.Pool("pool-1", nodes=tuple(m.Task(i, "lane-a") for i in order), flows=tuple(flows))


def longest_path_ranks(pool):
    g = nx.DiGraph()
    g.add_nodes_from(n.id for n in pool.nodes)
    g.add_edges_from((f.source_id, f.target_id) for f in pool.flows)
    # every path inside a node's ancestors extends to the node itself
    return {v: nx.dag_longest_path_length(g.subgraph(nx.ancestors(g, v) | {v})) for v in g}


@settings(max_examples=200, deadline=None)
@given(random_dags())
def test_ranks_are_longest_paths_from_the_sources(pool):
    assert _ranks(pool) == longest_path_ranks(pool)


@st.composite
def random_pools(draw):
    """A pool whose flows join any two of its nodes: back edges, self-loops
    and parallel flows allowed, so some nodes lie on or behind a cycle."""
    ids = [f"n-{i:02d}" for i in range(draw(st.integers(1, 12)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          max_size=3 * len(ids)))
    flows = [m.SequenceFlow(f"f-{j:02d}", a, b) for j, (a, b) in enumerate(pairs)]
    return m.Pool("pool-1", nodes=tuple(m.Task(i, "lane-a") for i in ids), flows=tuple(flows))


@settings(max_examples=300, deadline=None)
@given(random_pools())
def test_ranks_on_cycles_are_the_old_ranks(pool):
    assert _ranks(pool) == old_render._ranks(pool)


def test_a_node_that_never_becomes_ready_ranks_after_its_ready_predecessors():
    # b and c wait for each other, so neither becomes ready: b ranks after
    # a, its ready predecessor, and c, which has none, ranks 1, left of b
    flows = [("n-s", "n-a"), ("n-a", "n-b"), ("n-b", "n-c"), ("n-c", "n-b")]
    pool = m.Pool(
        "pool-1",
        nodes=tuple(m.Task(i, "lane-a") for i in ("n-s", "n-a", "n-b", "n-c")),
        flows=tuple(m.SequenceFlow(f"f-{j}", a, b) for j, (a, b) in enumerate(flows)),
    )
    assert _ranks(pool) == {"n-s": 0, "n-a": 1, "n-b": 2, "n-c": 1}


def test_pools_ranked_together_rank_as_each_alone():
    model = two_pool_message_model()
    together = _ranks(*model.pools)
    assert together == {k: v for pool in model.pools for k, v in _ranks(pool).items()}


class CountedId(str):
    """A node id that counts the order comparisons made with it on the left."""

    comparisons = 0

    def __lt__(self, other):
        CountedId.comparisons += 1
        return str.__lt__(self, other)


def parallel_fan(branches):
    """start -> split -> `branches` tasks -> join -> end, all in one lane,
    every id a CountedId."""
    start, split, join, end = map(CountedId, ["n-start", "g-split", "g-join", "n-end"])
    tasks = [CountedId(f"t-{i:05d}") for i in range(branches)]
    nodes = [
        m.StartEvent(start, "lane-a"),
        m.Gateway(split, "lane-a", kind=m.GatewayKind.PARALLEL),
        m.Gateway(join, "lane-a", kind=m.GatewayKind.PARALLEL),
        m.EndEvent(end, "lane-a"),
    ] + [m.Task(t, "lane-a") for t in tasks]
    flows = [m.SequenceFlow("f-start", start, split), m.SequenceFlow("f-end", join, end)]
    for t in tasks:
        flows += [m.SequenceFlow(f"f-a{t}", split, t), m.SequenceFlow(f"f-b{t}", t, join)]
    return one_pool_model([lane("lane-a", [start, split, join, end, *tasks])], nodes, flows)


def test_ranking_a_wide_fan_takes_n_log_n_comparisons():
    # the 4,000 tasks are ready at once; taking them in any order needs no
    # comparison and a heap O(log n) each, re-sorting the ready list after
    # every node costs O(n), about 8 million in all here
    pool = parallel_fan(4000).pools[0]
    CountedId.comparisons = 0
    ranks = _ranks(pool)
    n = len(pool.nodes)
    assert ranks["t-03999"] == 2 and ranks["n-end"] == 4
    assert CountedId.comparisons <= 3 * n * math.log2(n)


# -- the renderer against the one it replaced ------------------------------------

# numbers whose text is easy to get wrong when equal numbers share it:
# 0.0 and -0.0 read "0" and "-0", 999999.5 and 1e6 are where "g" turns to
# exponent form and an int above 2**53 reads as the float nearest it.  NaN,
# the infinities, bools, 10**400 (no float) and Decimals break the hint
# rules; Decimal("48.0") equals the y of a lane name (20.0 is a pool's top,
# 130.0 a lane's height)
_plain_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 0]),
    st.sampled_from([
        1, 1.0, -1.0, math.nan, math.inf, -math.inf, 999999.5, 1e6, -1e6, 1e-5,
        2**53 + 1, -(2**60) - 1,
    ]),
    st.integers(-1000, 1000),
    st.floats(-1e7, 1e7),
    st.floats(),
    st.integers(2**53, 2**70),
)
_decimals = st.one_of(
    st.sampled_from([Decimal("1.0"), Decimal("20.0"), Decimal("48.0"), Decimal("130.0"),
                     Decimal("-0"), Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")]),
    st.decimals(allow_nan=True, allow_infinity=True),
)
_any_numbers = st.one_of(_plain_numbers, _decimals, st.booleans(), st.just(10**400))
_names = st.text(alphabet=st.sampled_from(list("ab -&<>\"'é")), max_size=5)


def _base_models():
    return [
        fixture_model(),
        linear_model(),
        replace_node(linear_model(), "t-1", m.SubProcess("t-1", "lane-a", "Sub")),
        *(region_model(merge=strategy) for strategy in MERGE_CODES),
        region_model(collab=m.CollaborationMode.DEBATE, merge=m.MergeStrategy.VOTING_MAJORITY),
        two_pool_message_model(remote_multi=True),
        two_pool_message_model(out_mode=m.CollaborationMode.VOTING,
                               in_strategy=m.MergeStrategy.VOTING_ABSOLUTE),
        one_pool_model(lanes=[lane("lane-a")], nodes=[], flows=[]),
    ]


@st.composite
def models_and_hints(draw):
    """A builder model with its names drawn anew, and layout hints: four
    numbers, as a tuple or a list (or, among any numbers, two to five), for
    some of its nodes and for an id it lacks; now and then as a list of
    (id, box) pairs in place of a dict."""
    model = draw(st.sampled_from(_base_models()))
    pools = []
    for pool in model.pools:
        lanes = tuple(replace(ln, name=draw(_names)) for ln in pool.lanes)
        nodes = tuple(replace(node, name=draw(_names)) for node in pool.nodes)
        pools.append(replace(pool, name=draw(_names), lanes=lanes, nodes=nodes))
    model = replace(model, pools=tuple(pools))
    ids = [node.id for node in model.iter_nodes()]
    numbers = draw(st.sampled_from([_plain_numbers, _plain_numbers, _decimals, _any_numbers]))
    box = st.tuples(*[numbers] * 4) | st.lists(numbers, min_size=4, max_size=4)
    if numbers is _any_numbers:
        box |= st.lists(numbers, min_size=2, max_size=5)
    hints = draw(st.dictionaries(st.sampled_from(ids + ["no-such-node"]), box, min_size=1))
    if draw(st.sampled_from(range(10))) == 9:
        return model, list(hints.items())
    return model, hints


def _keeps_the_rules(hints):
    """The hint rules, stated apart from ``check_layout``: a dict mapping
    each id to a list or tuple of four ints or floats (no bools) whose float
    values are finite."""
    def number(v):
        try:
            return type(v) in (int, float) and math.isfinite(float(v))
        except OverflowError:
            return False

    return isinstance(hints, dict) and all(
        isinstance(box, (list, tuple)) and len(box) == 4 and all(map(number, box))
        for box in hints.values()
    )


def _outcome(render, model, hints):
    try:
        return render(model, hints)
    except Exception as exc:  # both renderers must fail the same way
        return type(exc).__name__


@settings(max_examples=400, deadline=None)
@given(models_and_hints())
def test_render_matches_the_old_renderer(model_and_hints):
    # hints that keep the rules render as the old renderer rendered them as
    # floats; all others are refused, before a model without nodes is
    model, hints = model_and_hints
    if not _keeps_the_rules(hints):
        with pytest.raises(BadLayout):
            render_svg(model, hints)
        return
    floats = {node_id: tuple(map(float, box)) for node_id, box in hints.items()}
    assert _outcome(render_svg, model, hints) == _outcome(old_render.render_svg, model, floats)


@pytest.mark.parametrize(
    "hints, refused",
    [
        ({"t-1": (0.0, -0.0, 110, 60), "n-end": (-0.0, 0.0, 36, 36)}, False),
        ({"t-1": (True, 1, 1.0, False)}, True),
        ({node_id: (Decimal("130"), Decimal("48.0"), Decimal("1.0"), Decimal("-0"))
          for node_id in ("n-start", "t-1", "n-end")}, True),
    ],
    ids=["signed-zeros", "bools", "decimals"],
)
def test_equal_numbers_keep_their_own_text(hints, refused):
    # bools and Decimals equal ints and floats but are not numbers to the
    # hint rules, so they never share a number's text
    model = linear_model()
    if refused:
        with pytest.raises(BadLayout, match="is not a list of four finite numbers"):
            render_svg(model, hints)
    else:
        assert render_svg(model, hints) == old_render.render_svg(model, hints)


def test_render_matches_the_old_renderer_on_the_base_models():
    # every base model but the empty one renders, with a -0.0 in its hints
    for model in _base_models()[:-1]:
        hints = {node.id: (1.5, -0.0, 110, 60) for node in model.iter_nodes()}
        for layout in (None, hints):
            svg = render_svg(model, layout)
            assert svg == old_render.render_svg(model, layout)


# hint boxes for every third node of the deck models: zeros of both signs
# in the centre and in the size, ints, and floats that are not integral
_DECK_BOXES = [
    (-0.0, 0, 110, 60),
    (0, -0.0, 110, 60),
    (120.5, 85, 0, 0.0),
    (120.5, 85, -0.0, -0.0),
    (999999.5, 1e6, 36.25, 1),
]


@pytest.mark.parametrize("workload", ["region-chain", "delegation", "lint-invalid"])
def test_render_matches_the_old_renderer_on_deck_models(workload):
    # the first block of the benchmark's deck at seed 7, every model that
    # parses, with no hints and with hints on every third node
    gen = bench_gen()
    for case in gen.build_deck(workload, 7)[: gen.BLOCK_SIZE[workload]]:
        model = parse_model(case.xml).model
        if model is None:
            continue
        nodes = list(model.iter_nodes())[::3]
        hints = {node.id: _DECK_BOXES[i % len(_DECK_BOXES)] for i, node in enumerate(nodes)}
        floats = {node_id: tuple(map(float, box)) for node_id, box in hints.items()}
        assert render_svg(model) == old_render.render_svg(model), case.id
        assert render_svg(model, hints) == old_render.render_svg(model, floats), case.id
