"""Seeded input generators for the hagent benchmark.

A workload turns a seed into a deck of cases.  Each case holds BPMN XML and
scenario YAML written as text by this module, never through hagent's own
serializer, so the inputs stay byte-identical when ``hagent.xmlio`` changes.
Each case also carries the outcome every operation must produce, derived
from how the case was built rather than from hagent's output.

Model sizes follow a fixed ladder per block of cases (one model per
quantile of the size range) and the per-model draws are balanced, so every
seed sees the same size mix while the structure, labels, votes, reflection
scripts and defects change with the seed.  That keeps the tail percentiles
comparable across seeds.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from xml.sax.saxutils import escape, quoteattr

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
HAGENT_NS = "urn:hagent:bpmn-extension:1.0"
FOREIGN_NS = "urn:example:vendor"

# The notation's letter codes, as the README specifies them.
ROLE_CODE = {"manager": "m", "worker": "w"}  # custom roles render as "w"
REFLECTION_CODE = {"self": "s", "cross": "c", "human": "h"}
COLLAB_CODE = {"competition": "c", "debate": "d", "role": "r", "voting": "v"}
MERGE_CODE = {
    "voting.majority": "v-ma",
    "voting.absolute": "v-a",
    "voting.minority": "v-mi",
    "role.leaderDriven": "r-l",
    "role.composed": "r-c",
    "competition.fastest": "c-f",
    "competition.mostComplete": "c-mc",
}
VOTING = ("voting.majority", "voting.absolute", "voting.minority")

# Merge strategies that fit each collaboration mode.
LEGAL_MERGES = {
    "voting": VOTING,
    "role": ("role.leaderDriven", "role.composed"),
    "competition": ("competition.fastest", "competition.mostComplete"),
    "debate": ("role.composed", "role.leaderDriven", "voting.majority"),
}
PAIRINGS = tuple((mode, s) for mode, merges in LEGAL_MERGES.items() for s in merges)

WORKLOADS = ("region-chain", "delegation", "lint-invalid")


@dataclass
class Expect:
    """What each operation must produce on one case."""

    nodes: int = 0
    node_ids: frozenset = frozenset()
    gateways: int = 0  # agentic diverging gateways
    parse_ok: bool = True
    # (code, element id or "-") as `hagent validate` prints them
    diagnostics: Counter = field(default_factory=Counter)
    # (code, element id or "-") of the errors `render` prints when it refuses
    errors: Counter = field(default_factory=Counter)
    merges: Tuple[Tuple[str, str], ...] = ()  # (element id, chosen label)
    task_done: int = 0
    reflection_rounds: int = 0
    token_end: int = 0
    markers: Counter = field(default_factory=Counter)  # data-hagent-code -> n

    @property
    def valid(self) -> bool:
        return not any(code.startswith("E-") for code, _ in self.diagnostics)


@dataclass
class Case:
    id: str
    xml: bytes
    scenario: bytes
    expect: Expect


# -- document writer --------------------------------------------------------


def _ext(lines) -> List[str]:
    if not lines:
        return []
    return ["<bpmn:extensionElements>", *("  " + l for l in lines), "</bpmn:extensionElements>"]


def _element(tag, attrs, children=()) -> List[str]:
    head = f"<bpmn:{tag}" + "".join(f" {k}={quoteattr(str(v))}" for k, v in attrs)
    if not children:
        return [head + "/>"]
    return [head + ">", *("  " + c for c in children), f"</bpmn:{tag}>"]


class _Pool:
    def __init__(self, pool_id: str, name: str):
        self.id = pool_id
        self.name = name
        self.lanes: Dict[str, list] = {}  # id -> [name, ext lines, node ids]
        self.body: List[str] = []

    def lines(self) -> List[str]:
        lane_lines = []
        for lane_id, (name, ext, node_ids) in self.lanes.items():
            children = _ext(ext) + [
                f"<bpmn:flowNodeRef>{escape(n)}</bpmn:flowNodeRef>" for n in node_ids
            ]
            lane_lines += _element("lane", [("id", lane_id), ("name", name)], children)
        lane_set = _element("laneSet", [("id", self.id + "-lanes")], lane_lines)
        return _element("process", [("id", self.id + "-proc")], lane_set + self.body)


class _Model:
    """One model under construction plus its expected outcomes."""

    def __init__(self, model_id: str, rng: random.Random):
        self.id = model_id
        self.rng = rng
        self.pools: Dict[str, _Pool] = {}
        self.message_lines: List[str] = []
        self.top_lines: List[str] = []
        self.task_scripts: Dict[str, dict] = {}
        self.lane_scripts: Dict[str, dict] = {}
        self.x = Expect()
        self.merges: List[Tuple[str, str]] = []
        self.node_ids: List[str] = []
        self.flow_n = 0

    # -- structure ----------------------------------------------------------

    def pool(self, pool_id, name="") -> _Pool:
        pool = self.pools[pool_id] = _Pool(pool_id, name or pool_id)
        return pool

    def lane(self, pool, lane_id, role=None, trust=None, foreign=False):
        ext = []
        if role is not None:
            attrs = f" role={quoteattr(role)}"
            if trust is not None:
                attrs += f' trustScore="{trust}"'
            ext.append(f"<hagent:agentProfile{attrs}/>")
            self.x.markers[ROLE_CODE.get(role, "w")] += 1
            if trust is None:
                self.x.diagnostics[("W-NO-TRUST", lane_id)] += 1
        if foreign:
            ext.append(f'<vendor:color xmlns:vendor="{FOREIGN_NS}" value="#4a7"/>')
        pool.lanes[lane_id] = [lane_id.replace("-", " ").title(), ext, []]

    def node(self, pool, tag, node_id, lane_id, name="", ext=()):
        pool.lanes[lane_id][2].append(node_id)
        attrs = [("id", node_id)] + ([("name", name)] if name else [])
        pool.body += _element(tag, attrs, _ext(list(ext)))
        self.node_ids.append(node_id)
        return node_id

    def flow(self, pool, src, tgt, condition=None, flow_id=None):
        if flow_id is None:
            self.flow_n += 1
            flow_id = f"f-{self.flow_n:04d}"
        children = []
        if condition is not None:
            children = [f"<bpmn:conditionExpression>{escape(condition)}</bpmn:conditionExpression>"]
        pool.body += _element(
            "sequenceFlow", [("id", flow_id), ("sourceRef", src), ("targetRef", tgt)], children
        )
        return flow_id

    def chain(self, pool, node_ids):
        for a, b in zip(node_ids, node_ids[1:]):
            self.flow(pool, a, b)

    def message_flow(self, flow_id, src, tgt, collab=None, merge=None, trust=None):
        ext = []
        if collab is not None:
            ext.append(f'<hagent:collaboration mode="{collab}"/>')
            self.x.markers[COLLAB_CODE[collab]] += 1
        if merge is not None:
            ext.append(f'<hagent:merge strategy="{merge}"/>')
            self.x.markers[MERGE_CODE[merge]] += 1
        if trust is not None:
            ext.append(f'<hagent:uncertainty trustScore="{trust}"/>')
        self.message_lines += _element(
            "messageFlow", [("id", flow_id), ("sourceRef", src), ("targetRef", tgt)], _ext(ext)
        )

    # -- scripted tasks -----------------------------------------------------

    def lane_verdicts(self, lane_id) -> List[str]:
        return self.lane_scripts.get(lane_id, {}).get("reflectionVerdicts", [])

    def reflection_rounds(self, kind, max_rounds, verdicts, reviewers=(), human=None):
        """Rounds the simulator runs: the first round every consulted
        verdict list accepts at that index, else the round cap."""
        if kind == "self":
            lists = [verdicts]
        elif kind == "cross":
            lists = [self.lane_verdicts(l) for l in reviewers]
        else:
            lists = [self.lane_verdicts(human)]
        for rnd in range(1, max_rounds + 1):
            if all(rnd - 1 < len(l) and l[rnd - 1] == "accept" for l in lists):
                return rnd
        return max_rounds

    def task(
        self,
        pool,
        task_id,
        lane_id,
        *,
        reflection=None,  # (kind, max_rounds, reviewers, human lane)
        final_label=None,
        revision_label=None,
        vote=None,
        latency=None,
        completeness=None,
        trust=None,
        foreign=False,
        scripted=True,
    ):
        """A task, with a scenario script unless `scripted` is false.

        A scripted task outputs one draft per reflection round; `final_label`
        names the output the last round produces and `revision_label` adds
        one more output, which a debate region takes as the revised answer.
        """
        rng = self.rng
        ext = []
        verdicts: List[str] = []
        rounds = 1
        if reflection is not None:
            kind, max_rounds, reviewers, human = reflection
            attrs = f' mode="{kind}" maxRounds="{max_rounds}"'
            if reviewers:
                attrs += f' reviewers="{",".join(reviewers)}"'
            if human:
                attrs += f' human="{human}"'
            ext.append(f"<hagent:reflection{attrs}/>")
            self.x.markers[REFLECTION_CODE[kind]] += 1
            if kind == "self":
                verdicts = [rng.choice(("accept", "revise")) for _ in range(rng.randint(0, 3))]
            rounds = self.reflection_rounds(kind, max_rounds, verdicts, reviewers, human)
            self.x.reflection_rounds += rounds
        if trust is not None:
            ext.append(f'<hagent:uncertainty trustScore="{trust}"/>')
        if foreign:
            ext.append(f'<vendor:hint xmlns:vendor="{FOREIGN_NS}" text="review &amp; merge"/>')
        self.node(pool, "task", task_id, lane_id, name=f"Work {task_id}", ext=ext)
        self.x.task_done += 1
        if not scripted:
            return

        n_out = rounds if final_label is not None else rng.randint(1, rounds)
        labels = [f"{task_id}-o{j}" for j in range(n_out)]
        if final_label is not None:
            labels[rounds - 1] = final_label
        if revision_label is not None:
            labels.append(revision_label)
            self.x.task_done += 1
        script = {"outputs": [
            {"label": l, "payload": f"draft {j} of {task_id}", "confidence": rng.randint(30, 99)}
            for j, l in enumerate(labels)
        ]}
        if verdicts:
            script["reflectionVerdicts"] = verdicts
        if vote is not None:
            script["vote"] = vote
        if latency is not None:
            script["latencyMs"] = latency
            if rng.random() < 0.5:
                script["latencyJitterMs"] = 30
        if completeness is not None:
            script["completeness"] = completeness
        self.task_scripts[task_id] = script

    def reflection_for(self, lane_id, reviewer_lanes, human_lanes, kind=None):
        kind = kind or self.rng.choice(("self", "cross", "human"))
        max_rounds = self.rng.randint(1, 3)
        if kind == "cross":
            choices = [l for l in reviewer_lanes if l != lane_id]
            k = self.rng.randint(1, min(2, len(choices)))
            return (kind, max_rounds, tuple(sorted(self.rng.sample(choices, k))), None)
        if kind == "human":
            return (kind, max_rounds, (), self.rng.choice(human_lanes))
        return (kind, max_rounds, (), None)

    def verdict_script(self, lane_id):
        rng = self.rng
        verdicts = [rng.choice(("accept", "revise", "revise")) for _ in range(rng.randint(1, 3))]
        self.lane_scripts.setdefault(lane_id, {})["reflectionVerdicts"] = verdicts

    # -- collaboration region ----------------------------------------------

    def region(
        self,
        pool,
        rid,
        mode,
        strategy,
        tasks_per_branch,
        decider_lane,
        branch_lanes,
        reviewer_lanes,
        human_lanes,
        reflect=None,
    ):
        """A diverging agentic gateway, one chain of tasks per branch and
        the matching merge; returns (diverging id, merging id)."""
        rng = self.rng
        b = len(tasks_per_branch)
        div_kind = rng.choice(("parallelGateway", "inclusiveGateway"))
        merge_kind = rng.choice(("parallelGateway", "inclusiveGateway"))
        div = self.node(
            pool, div_kind, f"{rid}-div", decider_lane, name=f"Open {rid}",
            ext=[f'<hagent:collaboration mode="{mode}"/>'],
        )
        merge_ext = [f'<hagent:merge strategy="{strategy}"/>']
        if rng.random() < 0.3:
            merge_ext.append(f'<hagent:uncertainty trustScore="{rng.randint(50, 100)}"/>')
        merge = self.node(pool, merge_kind, f"{rid}-merge", decider_lane, ext=merge_ext)
        self.x.markers[COLLAB_CODE[mode]] += 1
        self.x.markers[MERGE_CODE[strategy]] += 1
        self.x.gateways += 1

        # candidate labels and the per-branch scripts that make one winner
        cands = [f"{rid}-c{i}" for i in range(b)]
        win = rng.randrange(b)
        votes: List[Optional[str]] = [None] * b
        latency: List[Optional[int]] = [None] * b
        completeness: List[Optional[int]] = [None] * b
        chosen = cands[win]
        others = [i for i in range(b) if i != win]
        if strategy == "role.leaderDriven":
            pick = self.lane_scripts.get(decider_lane, {}).get("managerPick", cands[win])
            cands[win] = chosen = pick
        elif strategy == "role.composed":
            chosen = "composed"
        elif strategy == "voting.minority":
            votes[win] = cands[win]
            if b >= 3:
                other = cands[rng.choice(others)]
                for i in others:
                    votes[i] = other
        elif strategy in VOTING:
            votes = [cands[win]] * b
            if b >= 3 and rng.random() < 0.5:  # one dissenting vote for itself
                dissent = rng.choice(others)
                votes[dissent] = cands[dissent]
        elif strategy == "competition.fastest":
            order = [win] + rng.sample(others, len(others))
            for rank, i in enumerate(order):
                latency[i] = 100 * (rank + 1)
        elif strategy == "competition.mostComplete":
            values = sorted(rng.sample(range(5, 100, 5), b), reverse=True)
            order = [win] + rng.sample(others, len(others))
            for i, v in zip(order, values):
                completeness[i] = v

        for i, n_tasks in enumerate(tasks_per_branch):
            lane_id = branch_lanes[i % len(branch_lanes)]
            prev = div
            for j in range(n_tasks):
                terminal = j == n_tasks - 1
                tid = f"{rid}-b{i}-t{j}"
                reflection = None
                if (reflect() if reflect else rng.random() < 0.35):
                    reflection = self.reflection_for(lane_id, reviewer_lanes, human_lanes)
                final_label = revision = None
                if terminal:
                    if mode == "debate" and rng.random() < 0.5:
                        final_label, revision = f"{tid}-first", cands[i]
                    else:
                        final_label = cands[i]
                self.task(
                    pool, tid, lane_id,
                    reflection=reflection,
                    final_label=final_label,
                    revision_label=revision,
                    vote=votes[i] if terminal else None,
                    latency=latency[i] if terminal else rng.choice((None, 50)),
                    completeness=completeness[i] if terminal else None,
                    trust=rng.choice((None, None, rng.randint(40, 100))),
                )
                self.flow(pool, prev, tid, flow_id=f"{rid}-e{i}" if j == 0 else None)
                prev = tid
            self.flow(pool, prev, merge)
        self.merges.append((merge, chosen))
        return div, merge

    # -- output -------------------------------------------------------------

    def xml(self) -> bytes:
        collab = [
            *(
                f"<bpmn:participant id={quoteattr(p.id)} name={quoteattr(p.name)} "
                f"processRef={quoteattr(p.id + '-proc')}/>"
                for p in self.pools.values()
            ),
            *self.message_lines,
        ]
        body = _element("collaboration", [("id", self.id + "-collab")], collab)
        for pool in self.pools.values():
            body += pool.lines()
        body += self.top_lines
        head = (
            f'<bpmn:definitions xmlns:bpmn="{BPMN_NS}" xmlns:hagent="{HAGENT_NS}" '
            f"id={quoteattr(self.id)}>"
        )
        lines = ['<?xml version="1.0" encoding="UTF-8"?>', head]
        lines += ["  " + l for l in body]
        lines.append("</bpmn:definitions>")
        return ("\n".join(lines) + "\n").encode("utf-8")

    def scenario(self) -> bytes:
        out = [f"# scenario for {self.id}", f"seed: {self.rng.randint(0, 10_000)}", "tasks:"]
        for task_id, spec in self.task_scripts.items():
            out.append(f"  {task_id}:")
            out.append("    outputs:")
            for o in spec["outputs"]:
                out.append(
                    f'      - {{label: {o["label"]}, payload: "{o["payload"]}", '
                    f'confidence: {o["confidence"]}}}'
                )
            for key in ("vote", "latencyMs", "latencyJitterMs", "completeness"):
                if key in spec:
                    out.append(f"    {key}: {spec[key]}")
            if "reflectionVerdicts" in spec:
                out.append(f"    reflectionVerdicts: [{', '.join(spec['reflectionVerdicts'])}]")
        out.append("lanes:")
        for lane_id, spec in self.lane_scripts.items():
            out.append(f"  {lane_id}:")
            if "reflectionVerdicts" in spec:
                out.append(f"    reflectionVerdicts: [{', '.join(spec['reflectionVerdicts'])}]")
            if "managerPick" in spec:
                out.append(f"    managerPick: {spec['managerPick']}")
            if "vote" in spec:
                out.append(f"    vote: {spec['vote']}")
        return ("\n".join(out) + "\n").encode("utf-8")

    def case(self) -> Case:
        x = self.x
        x.nodes = len(self.node_ids)
        x.node_ids = frozenset(self.node_ids)
        x.merges = tuple(self.merges)
        x.errors = Counter({k: v for k, v in x.diagnostics.items() if k[0].startswith("E-")})
        return Case(self.id, self.xml(), self.scenario(), x)


# -- shared lane layout -----------------------------------------------------

WORKER_LANES = tuple(f"lane-w-{i}" for i in range(5))
REVIEWER_LANES = ("lane-rev-a", "lane-rev-b", "lane-rev-c")
HUMAN_LANES = ("lane-hum-a", "lane-hum-b")
MANAGER_LANES = ("lane-mgr-0", "lane-mgr-1")


def _main_pool(mdl: _Model, missing_trust: int):
    """Pool with manager, worker, reviewer and human lanes; returns it."""
    rng = mdl.rng
    pool = mdl.pool("pool-main", "Main")
    no_trust = set(rng.sample(WORKER_LANES, missing_trust))
    custom = rng.choice(WORKER_LANES)
    for lane_id in MANAGER_LANES:
        mdl.lane(pool, lane_id, "manager", rng.randint(60, 100))
        mdl.lane_scripts[lane_id] = {"managerPick": f"pick-{lane_id[-1]}"}
    for lane_id in WORKER_LANES:
        role = "critic" if lane_id == custom else "worker"
        trust = None if lane_id in no_trust else rng.randint(20, 100)
        mdl.lane(pool, lane_id, role, trust, foreign=rng.random() < 0.2)
    for lane_id in REVIEWER_LANES:
        mdl.lane(pool, lane_id, "worker", rng.randint(50, 100))
        mdl.verdict_script(lane_id)
    for lane_id in HUMAN_LANES:
        mdl.lane(pool, lane_id)
        mdl.verdict_script(lane_id)
    mdl.lane(pool, "lane-flow")
    return pool


def _balanced(rng, values, n) -> List:
    """n draws whose multiset depends on n alone (the values cycled in
    order), in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _ladder(lo, hi, n, offset=0.5, log=False, floor=False) -> List[int]:
    """One size per quantile of the uniform (or log-uniform) range, at
    `offset` (0..1) within each quantile."""
    out = []
    for i in range(n):
        u = (i + offset) / n
        v = lo * (hi / lo) ** u if log else lo + (hi - lo) * u
        out.append(int(v) if floor else int(round(v)))
    return out


def _region_segment(mdl, pool, rid, pair, tasks, decider=None, reflect=None):
    mode, strategy = pair
    decider = decider or MANAGER_LANES[int(mdl.rng.random() < 0.5)]
    return mdl.region(
        pool, rid, mode, strategy, tasks, decider, WORKER_LANES, REVIEWER_LANES, HUMAN_LANES,
        reflect=reflect,
    )


# -- workload: region-chain -------------------------------------------------


def region_chain(model_id: str, rng: random.Random, k: int) -> Case:
    mdl = _Model(model_id, rng)
    pool = _main_pool(mdl, missing_trust=rng.randint(0, 2))
    # small regions dominate, so K=64 lands near 340 nodes (where validate
    # takes about half a second) while every branch and task count occurs
    branches = _balanced(rng, (2, 2, 2, 2, 2, 2, 3, 4, 5), k)
    tasks = _balanced(rng, (1, 1, 1, 1, 1, 1, 1, 1, 2, 3), sum(branches))
    reflect = iter(_balanced(rng, (True,) * 7 + (False,) * 13, sum(tasks))).__next__
    tasks = iter(tasks)
    links = set(rng.sample(range(k), round(0.15 * k)))
    offset = rng.randrange(len(PAIRINGS))
    seq = [mdl.node(pool, "startEvent", "start", "lane-flow", name="Request")]
    for r in range(k):
        pair = PAIRINGS[(offset + r) % len(PAIRINGS)]
        div, merge = _region_segment(
            mdl, pool, f"r{r:02d}", pair, [next(tasks) for _ in range(branches[r])],
            reflect=reflect,
        )
        seq += [div, merge]
        if r in links:
            link = f"link-{r:02d}"
            mdl.task(pool, link, "lane-flow", scripted=rng.random() < 0.5)
            seq.append(link)
    seq.append(mdl.node(pool, "endEvent", "end", "lane-flow", name="Done"))
    mdl.x.token_end = 1
    for a, b in zip(seq, seq[1:]):
        if not (a.endswith("-div") and b.endswith("-merge")):
            mdl.flow(pool, a, b)
    return mdl.case()


# -- workload: delegation ---------------------------------------------------


def delegation(model_id: str, rng: random.Random, n_pools: int) -> Case:
    """A requester routes each request through an exclusive gateway to a
    remote agentic pool and back; no agentic gateways anywhere."""
    mdl = _Model(model_id, rng)
    req = mdl.pool("pool-req", "Requester")
    mdl.lane(req, "lane-req-user")
    mdl.lane(req, "lane-req-agent", "manager", rng.randint(60, 100))
    chain_lengths = _balanced(rng, (6, 7, 8, 9, 10), n_pools)
    extra_kinds = iter(_balanced(
        rng, (None, None, "self", "cross", "human"), sum(chain_lengths) - 3 * n_pools))
    delegated = set(rng.sample(range(n_pools), max(1, round(0.8 * n_pools))))
    no_trust = set(rng.sample(range(n_pools), n_pools // 8))
    prev = mdl.node(req, "startEvent", "start", "lane-req-user", name="Requests arrive")
    for i in range(n_pools):
        q, a = f"q{i:02d}", f"a{i:02d}"
        mdl.task(req, f"{q}-ask", "lane-req-user", scripted=False)
        mdl.task_scripts[f"{q}-ask"] = {"outputs": [{
            "label": "delegate" if i in delegated else "skip",
            "payload": f"request {i}", "confidence": rng.randint(50, 99),
        }]}
        route = mdl.node(req, "exclusiveGateway", f"{q}-route", "lane-req-user", name="Delegate?")
        join = mdl.node(req, "exclusiveGateway", f"{q}-join", "lane-req-user")
        mdl.flow(req, prev, f"{q}-ask")
        mdl.flow(req, f"{q}-ask", route)
        mdl.flow(req, route, f"{q}-send", condition='label == "delegate"', flow_id=f"{q}-go")
        mdl.flow(req, route, join, flow_id=f"{q}-skip")
        mdl.task(req, f"{q}-send", "lane-req-agent", scripted=False)
        mdl.task(req, f"{q}-recv", "lane-req-agent", scripted=False)
        mdl.flow(req, f"{q}-recv", join)
        prev = join
        if i not in delegated:  # the send and receive tasks never run
            mdl.x.task_done -= 2

        remote = mdl.pool(f"pool-{a}", f"Agent team {i}")
        worker, reviewer, human = f"lane-{a}-w", f"lane-{a}-rev", f"lane-{a}-h"
        role = rng.choice(("worker", "worker", "analyst"))
        mdl.lane(remote, worker, role, None if i in no_trust else rng.randint(30, 100),
                 foreign=rng.random() < 0.1)
        mdl.lane(remote, reviewer, "worker", rng.randint(50, 100))
        mdl.lane(remote, human)
        mdl.verdict_script(reviewer)
        mdl.verdict_script(human)
        length = chain_lengths[i]
        kinds = ["self", "cross", "human"] + [next(extra_kinds) for _ in range(length - 3)]
        rng.shuffle(kinds)
        mode = rng.choice(tuple(LEGAL_MERGES))
        strategy = rng.choice(LEGAL_MERGES[mode])
        result = f"{a}-result"
        before = (mdl.x.task_done, mdl.x.reflection_rounds)
        tids = []
        for j, kind in enumerate(kinds):
            tid = f"{a}-t{j:02d}"
            refl = mdl.reflection_for(worker, (reviewer,), (human,), kind) if kind else None
            mdl.task(
                remote, tid, worker,
                reflection=refl,
                final_label=result if j == length - 1 else None,
                trust=rng.choice((None, rng.randint(40, 100))),
            )
            tids.append(tid)
        mdl.chain(remote, tids)
        if i not in delegated:  # the remote chain never runs
            mdl.x.task_done, mdl.x.reflection_rounds = before
        if strategy in VOTING:
            mdl.lane_scripts.setdefault(worker, {})["vote"] = result
        if strategy == "role.leaderDriven":
            mdl.lane_scripts.setdefault(worker, {})["managerPick"] = result
        mdl.message_flow(f"m{i:02d}-out", f"{q}-send", tids[0], collab=mode)
        mdl.message_flow(
            f"m{i:02d}-back", tids[-1], f"{q}-recv", merge=strategy,
            trust=rng.choice((None, rng.randint(40, 100))),
        )
        if i in delegated:
            chosen = "composed" if strategy == "role.composed" else result
            mdl.merges.append((f"m{i:02d}-back", chosen))
    end = mdl.node(req, "endEvent", "end", "lane-req-user", name="All answered")
    mdl.flow(req, prev, end)
    mdl.x.token_end = 1
    return mdl.case()


# -- workload: lint-invalid -------------------------------------------------

VALIDATION_ERRORS = ("diamonds", "overlap", "E-MGR", "E-VOTE-ARITY", "E-REFL-REF", "E-MSG-DIR")
PARSE_ERRORS = ("E-TRUST-RANGE", "E-DUP-ID", "E-XML", "E-XOR-AGENTIC")
WARNINGS = ("W-ANNOT-STRATEGY", "W-NO-TRUST", "W-UNSUPPORTED")


class _Lint:
    """Defect segments for lint-invalid; each returns (entry, exit) node ids."""

    def __init__(self, mdl: _Model, pool):
        self.mdl, self.pool, self.rng = mdl, pool, mdl.rng
        self.n = 0

    def uid(self, prefix):
        self.n += 1
        return f"{prefix}{self.n:02d}"

    def diamonds(self, depth):
        """A region whose branch holds `depth` plain parallel diamonds: the
        branch has 2**depth paths, so pairing fails (E-PAIR)."""
        mdl, pool, rid = self.mdl, self.pool, self.uid("dm")
        div = mdl.node(pool, "parallelGateway", f"{rid}-div", "lane-mgr-0",
                       ext=['<hagent:collaboration mode="voting"/>'])
        merge = mdl.node(pool, "parallelGateway", f"{rid}-merge", "lane-mgr-0",
                         ext=['<hagent:merge strategy="voting.majority"/>'])
        mdl.x.markers["v"] += 1
        mdl.x.markers["v-ma"] += 1
        mdl.x.gateways += 1
        for i in range(2):
            mdl.task(pool, f"{rid}-b{i}", WORKER_LANES[i])
            mdl.flow(pool, div, f"{rid}-b{i}", flow_id=f"{rid}-e{i}")
            mdl.flow(pool, f"{rid}-b{i}", merge)
        prev, first = div, True
        for d in range(depth):
            split = mdl.node(pool, "parallelGateway", f"{rid}-p{d:02d}-split", WORKER_LANES[2])
            join = mdl.node(pool, "parallelGateway", f"{rid}-p{d:02d}-join", WORKER_LANES[2])
            mdl.flow(pool, prev, split, flow_id=f"{rid}-e2" if first else None)
            first = False
            for side in "ab":
                mdl.task(pool, f"{rid}-p{d:02d}{side}", WORKER_LANES[2])
                mdl.flow(pool, split, f"{rid}-p{d:02d}{side}")
                mdl.flow(pool, f"{rid}-p{d:02d}{side}", join)
            prev = join
        mdl.flow(pool, prev, merge)
        mdl.x.diagnostics[("E-PAIR", div)] += 1
        return div, merge

    def overlap(self):
        """Two branches that meet before the merge (E-PAIR)."""
        mdl, pool, rid = self.mdl, self.pool, self.uid("ov")
        div = mdl.node(pool, "inclusiveGateway", f"{rid}-div", "lane-mgr-1",
                       ext=['<hagent:collaboration mode="competition"/>'])
        merge = mdl.node(pool, "inclusiveGateway", f"{rid}-merge", "lane-mgr-1",
                         ext=['<hagent:merge strategy="competition.fastest"/>'])
        mdl.x.markers["c"] += 1
        mdl.x.markers["c-f"] += 1
        mdl.x.gateways += 1
        shared = f"{rid}-shared"
        mdl.task(pool, shared, WORKER_LANES[0])
        for i in range(2):
            mdl.task(pool, f"{rid}-b{i}", WORKER_LANES[i + 1])
            mdl.flow(pool, div, f"{rid}-b{i}", flow_id=f"{rid}-e{i}")
            mdl.flow(pool, f"{rid}-b{i}", shared)
        mdl.flow(pool, shared, merge)
        mdl.x.diagnostics[("E-PAIR", div)] += 1
        return div, merge

    def no_manager(self):
        """A leader-driven or debate region decided in a worker lane (E-MGR)."""
        pair = self.rng.choice([("role", "role.leaderDriven"), ("debate", "role.composed"),
                                ("debate", "voting.majority")])
        rid = self.uid("mg")
        div, merge = _region_segment(self.mdl, self.pool, rid, pair, [1, 1],
                                     decider=WORKER_LANES[3])
        self.mdl.x.diagnostics[("E-MGR", merge)] += 1
        return div, merge

    def vote_arity(self):
        """A voting merge over a single branch (E-VOTE-ARITY)."""
        pair = ("voting", self.rng.choice(VOTING))
        div, merge = _region_segment(self.mdl, self.pool, self.uid("va"), pair, [2])
        self.mdl.x.diagnostics[("E-VOTE-ARITY", merge)] += 1
        return div, merge

    def bad_reflection(self):
        """A reflection that names the wrong kind of lane (E-REFL-REF)."""
        mdl, tid = self.mdl, self.uid("rf")
        lane = WORKER_LANES[4]
        refl = self.rng.choice([
            ("cross", 2, ("lane-hum-a",), None),  # reviewer is not agentic
            ("cross", 2, (lane,), None),  # reviewer is the task's own lane
            ("cross", 1, ("lane-nowhere",), None),  # reviewer does not exist
            ("human", 2, (), "lane-rev-a"),  # human lane is agentic
        ])
        mdl.task(self.pool, tid, lane, reflection=refl)
        mdl.x.diagnostics[("E-REFL-REF", tid)] += 1
        return tid, tid

    def message_direction(self):
        """Agentic message flows to and from a pool with no agentic lane (E-MSG-DIR)."""
        mdl, pool = self.mdl, self.pool
        ext_pool = mdl.pools.get("pool-ext") or mdl.pool("pool-ext", "Customer")
        if "lane-ext" not in ext_pool.lanes:
            mdl.lane(ext_pool, "lane-ext")
        n = self.uid("md")
        src, inbox = f"{n}-send", f"{n}-inbox"
        mdl.task(pool, src, "lane-flow", scripted=False)
        mdl.task(ext_pool, inbox, "lane-ext", scripted=False)
        mdl.message_flow(f"{n}-out", src, inbox, collab=self.rng.choice(tuple(COLLAB_CODE)))
        mdl.x.diagnostics[("E-MSG-DIR", f"{n}-out")] += 1
        if self.rng.random() < 0.5:
            mdl.message_flow(f"{n}-back", inbox, src, merge=self.rng.choice(tuple(MERGE_CODE)))
            mdl.x.diagnostics[("E-MSG-DIR", f"{n}-back")] += 1
        else:  # a plain message flow is fine
            mdl.message_lines += _element(
                "messageFlow", [("id", f"{n}-note"), ("sourceRef", inbox), ("targetRef", src)]
            )
        return src, src

    def annotated_complex(self):
        """A plain complex gateway annotated with a merge strategy (W-ANNOT-STRATEGY)."""
        mdl, pool, n = self.mdl, self.pool, self.uid("cx")
        gw = mdl.node(pool, "complexGateway", f"{n}-gw", "lane-flow", name="Combine")
        text = self.rng.choice(("merge by majority vote", "leader decides", "fastest answer wins"))
        pool.body += _element("textAnnotation", [("id", f"{n}-note")],
                              [f"<bpmn:text>{escape(text)}</bpmn:text>"])
        src, tgt = f"{n}-note", gw
        if self.rng.random() < 0.5:
            src, tgt = tgt, src
        pool.body += _element(
            "association", [("id", f"{n}-assoc"), ("sourceRef", src), ("targetRef", tgt)]
        )
        pool.body += _element("textAnnotation", [("id", f"{n}-memo")],
                              ["<bpmn:text>ask the on-call engineer</bpmn:text>"])
        pool.body += _element("group", [("id", f"{n}-group"), ("name", "Intake")])
        mdl.x.diagnostics[("W-ANNOT-STRATEGY", gw)] += 1
        return gw, gw

    def unsupported(self):
        """Unsupported BPMN elements and foreign fragments, kept opaquely (W-UNSUPPORTED)."""
        mdl, pool, n = self.mdl, self.pool, self.uid("un")
        pool.body += _element("intermediateThrowEvent", [("id", f"{n}-signal")])
        mdl.x.diagnostics[("W-UNSUPPORTED", f"{n}-signal")] += 1
        pool.body.append(f'<vendor:audit xmlns:vendor="{FOREIGN_NS}" level="full"/>')
        if self.rng.random() < 0.5:
            mdl.top_lines += _element("message", [("id", f"{n}-msg"), ("name", "Reminder")])
            mdl.x.diagnostics[("W-UNSUPPORTED", f"{n}-msg")] += 1
        tid = f"{n}-task"
        mdl.task(pool, tid, "lane-flow", foreign=True, scripted=False)
        return tid, tid


def lint_invalid(model_id: str, rng: random.Random, target_nodes: int,
                 defects: List[str], depth: int = 0) -> Case:
    """A model of about `target_nodes` nodes carrying the given defects."""
    mdl = _Model(model_id, rng)
    pool = _main_pool(mdl, missing_trust=int("W-NO-TRUST" in defects) * rng.randint(1, 2))
    lint = _Lint(mdl, pool)
    make = {
        "diamonds": lambda: lint.diamonds(depth),
        "overlap": lint.overlap,
        "E-MGR": lint.no_manager,
        "E-VOTE-ARITY": lint.vote_arity,
        "E-REFL-REF": lint.bad_reflection,
        "E-MSG-DIR": lint.message_direction,
        "W-ANNOT-STRATEGY": lint.annotated_complex,
        "W-UNSUPPORTED": lint.unsupported,
    }
    segments = [make[d]() for d in defects if d in make]
    r = 0
    while len(mdl.node_ids) < target_nodes - 2:
        pair = PAIRINGS[rng.randrange(len(PAIRINGS))]
        b = rng.randint(2, 4)
        segments.append(_region_segment(
            mdl, pool, f"r{r:02d}", pair, [rng.randint(1, 3) for _ in range(b)]))
        r += 1
    rng.shuffle(segments)
    seq = [mdl.node(pool, "startEvent", "start", "lane-flow")]
    for entry, exit_ in segments:
        mdl.flow(pool, seq[-1], entry)
        seq.append(exit_)
    mdl.flow(pool, seq[-1], mdl.node(pool, "endEvent", "end", "lane-flow"))

    parse_defect = next((d for d in defects if d in PARSE_ERRORS), None)
    if parse_defect is not None:
        _break_parse(mdl, pool, parse_defect)
    case = mdl.case()
    if parse_defect == "E-XML":
        cut = int(len(case.xml) * rng.uniform(0.3, 0.9))
        case.xml = case.xml[:cut]
    return case


def _break_parse(mdl: _Model, pool, defect):
    """Make the document fail at parse; validation never runs, so only
    parse diagnostics remain expected."""
    rng = mdl.rng
    parse_diags = Counter({k: v for k, v in mdl.x.diagnostics.items() if k[0] == "W-UNSUPPORTED"})
    if defect == "E-TRUST-RANGE":
        lane_id = rng.choice(REVIEWER_LANES)
        ext = pool.lanes[lane_id][1]
        ext[0] = f'<hagent:agentProfile role="worker" trustScore="{rng.choice((101, 150, -5))}"/>'
        parse_diags[("E-TRUST-RANGE", lane_id)] += 1
    elif defect == "E-DUP-ID":
        dup = rng.choice([n for n in mdl.node_ids if "-t" in n or n.startswith("link")]
                         or mdl.node_ids)
        pool.body += _element("dataObject", [("id", dup), ("name", "Copy")])
        parse_diags[("E-DUP-ID", dup)] += 1
    elif defect == "E-XOR-AGENTIC":
        gw = "xor-agentic"
        mdl.node(pool, rng.choice(("exclusiveGateway", "complexGateway")), gw, "lane-flow",
                 ext=['<hagent:collaboration mode="voting"/>'])
        parse_diags[("E-XOR-AGENTIC", gw)] += 1
    else:  # E-XML: the document is cut short after it is written
        parse_diags = Counter({("E-XML", "-"): 1})
    mdl.x.diagnostics = parse_diags
    mdl.x.parse_ok = False
    mdl.x.gateways = 0  # no model is built, so no gateway is analysed
    mdl.merges.clear()


# -- decks ------------------------------------------------------------------

# A deck is a sequence of blocks; each block holds one model per quantile of
# the workload's size range, so any run of whole blocks sees the same size
# mix.  Each block shifts its quantiles by a van der Corput offset, so the
# blocks a run reaches also fill in the range between them.
BLOCK_SIZE = {"region-chain": 20, "delegation": 8, "lint-invalid": 30}
BLOCKS = {"region-chain": 6, "delegation": 6, "lint-invalid": 6}


def _offset(block: int) -> float:
    """The block-th element of the base-2 van der Corput sequence, shifted off 0."""
    value, denom = 0.0, 1.0
    block += 1
    while block:
        denom *= 2
        block, bit = divmod(block, 2)
        value += bit / denom
    return value


def build_deck(workload: str, seed: int) -> List[Case]:
    """Every case one run may reach, in run order; the same seed gives the same bytes."""
    if workload not in BLOCK_SIZE:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    n = BLOCK_SIZE[workload]
    deck: List[Case] = []
    for block in range(BLOCKS[workload]):
        offset = _offset(block)
        prefix = f"{workload}-s{seed}-b{block:02d}"
        if workload == "region-chain":
            sizes = _ladder(2, 64, n, offset, log=True)
            cases = [region_chain(f"{prefix}-m{i:02d}", _sub(rng), k) for i, k in enumerate(sizes)]
        elif workload == "delegation":
            sizes = _ladder(8, 64, n, offset)
            cases = [delegation(f"{prefix}-m{i:02d}", _sub(rng), p) for i, p in enumerate(sizes)]
        else:
            cases = _lint_block(rng, prefix, n, offset)
        rng.shuffle(cases)
        deck += cases
    return deck


def _lint_block(rng, prefix, n, offset) -> List[Case]:
    """One model in five fails at parse, the rest at validation."""
    n_parse = n // 5
    primaries = [PARSE_ERRORS[i % len(PARSE_ERRORS)] for i in range(n_parse)] + [
        VALIDATION_ERRORS[i % len(VALIDATION_ERRORS)] for i in range(n - n_parse)
    ]
    n_diamonds = primaries.count("diamonds")
    depths = iter(_ladder(6, 13, n_diamonds, offset, floor=True))
    # pair sizes with defects by a fixed stride, not at random, so that every
    # block holds the same (defect, size) mix and its percentiles match
    ladder = _ladder(40, 200, n, offset)
    stride = next(k for k in range(7, n) if math.gcd(k, n) == 1)
    sizes = [ladder[(i * stride) % n] for i in range(n)]
    cases = []
    for i, (primary, size) in enumerate(zip(primaries, sizes)):
        sub = _sub(rng)
        defects = [primary]
        if primary in VALIDATION_ERRORS and sub.random() < 0.4:
            defects.append(sub.choice([d for d in VALIDATION_ERRORS[1:] if d != primary]))
        defects += sub.sample(WARNINGS, sub.randint(0, 2))
        depth = next(depths) if primary == "diamonds" else 0
        cases.append(lint_invalid(f"{prefix}-m{i:02d}", sub, size, defects, depth))
    return cases


def _sub(rng: random.Random) -> random.Random:
    return random.Random(rng.getrandbits(64))


def log_slope(points) -> float:
    """Least-squares slope of log(y) against log(x) over points with y > 0."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({p[0] for p in pts}) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx
