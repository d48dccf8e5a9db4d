"""Deterministic token-based execution of agentic workflows.

Agents and humans are scripted stand-ins: a :class:`ScenarioPolicy` maps
tasks to canned outputs, reflection verdicts, votes and latencies, so a
trace is a pure function of (model, scenario, seed).  Randomness exists
only for scripts that opt into latency jitter.
"""

from __future__ import annotations

import operator
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from hagent import model as m
from hagent.scenario import (  # noqa: F401 (load_scenario is re-exported)
    CandidateOutput,
    LaneScript,
    ScenarioPolicy,
    ScriptedBehavior,
    _make_output,
    load_scenario,
)

# Token steps a run may take beyond one per node and sequence flow of the
# model, so that a livelock stops while a large acyclic model runs through.
STEP_BUDGET = 10_000

ACCEPT = "accept"
REVISE = "revise"


class SimulationError(Exception):
    pass


class MissingBehavior(SimulationError):
    def __init__(self, ref: str, detail: str = ""):
        super().__init__(f"no scripted behavior for {ref!r}" + (f": {detail}" if detail else ""))
        self.ref = ref


class StepBudgetExceeded(SimulationError):
    pass


class ConditionUnmatched(SimulationError):
    pass


class NoActiveBranch(SimulationError):
    pass


class VotesMissing(SimulationError):
    pass


class ManagerPickMissing(SimulationError):
    pass


# -- trace events -----------------------------------------------------------


@m._record
class TraceEvent:
    kind: str
    element_id: str

    def details(self) -> str:
        return ""


@m._record
class TokenEnter(TraceEvent):
    kind: str = field(default="TokenEnter", init=False)


@m._record
class TokenEnd(TraceEvent):
    kind: str = field(default="TokenEnd", init=False)


@m._record
class TaskDone(TraceEvent):
    output: CandidateOutput = None
    effective_trust: m.TrustScore = None
    kind: str = field(default="TaskDone", init=False)

    def details(self) -> str:
        return _task_done_details(self)


def _task_done_details(event: TaskDone) -> str:
    output = event.output
    text = f"label={output.label}"
    if output.producer_lane_id:
        text += f" lane={output.producer_lane_id}"
    if output.confidence is not None:
        text += f" confidence={output.confidence.value}"
    if output.latency_ms is not None:
        text += f" latencyMs={output.latency_ms}"
    if output.completeness is not None:
        text += f" completeness={output.completeness}"
    return f"{text} trust={event.effective_trust.value}"


@m._record
class ReflectionRound(TraceEvent):
    round: int = 0
    verdict: str = ""
    kind: str = field(default="ReflectionRound", init=False)

    def details(self) -> str:
        return f"round={self.round} verdict={self.verdict}"


@m._record
class RegionOpen(TraceEvent):
    mode: m.CollaborationMode = None
    kind: str = field(default="RegionOpen", init=False)

    def details(self) -> str:
        return f"mode={self.mode.value}"


@m._record
class CandidateSet(TraceEvent):
    candidates: Tuple[CandidateOutput, ...] = ()
    kind: str = field(default="CandidateSet", init=False)

    def details(self) -> str:
        labels = ",".join(c.label for c in self.candidates)
        return f"size={len(self.candidates)} labels={labels}"


@m._record
class MergeDecision(TraceEvent):
    strategy: m.MergeStrategy = None
    chosen_label: str = ""
    rationale: str = ""
    kind: str = field(default="MergeDecision", init=False)

    def details(self) -> str:
        return (
            f"strategy={self.strategy.value} chosen={self.chosen_label} "
            f"rationale={self.rationale}"
        )


# the simulation makes its events with their makers (see model._maker)
_MAKERS = {
    cls: m._maker(cls)
    for cls in (TokenEnter, TokenEnd, TaskDone, ReflectionRound, RegionOpen, CandidateSet, MergeDecision)
}
(_token_enter, _token_end, _task_done, _reflection_round,
 _region_open, _candidate_set, _merge_decision) = _MAKERS.values()


# the rationale suffix of a region's merge, by the class of its closing element
_TRUST_KINDS = {m.Gateway: "gateway", m.MessageFlow: "message"}


@dataclass
class Trace:
    events: List[TraceEvent] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


# format_trace's details of an event by its type: None for none; a type not
# listed is asked through its details()
_DETAILS = {TokenEnter: None, TokenEnd: None, TaskDone: _task_done_details}
_ask_details = operator.methodcaller("details")


def format_trace(trace: Trace) -> str:
    """One event per line: ``seq<TAB>kind<TAB>elementId<TAB>details``."""
    lines = []
    append = lines.append
    details_of = _DETAILS.get
    for seq, event in enumerate(trace.events):
        write = details_of(type(event), _ask_details)
        details = None if write is None else write(event)
        if details:
            append(f"{seq}\t{event.kind}\t{event.element_id}\t{details}")
        else:
            append(f"{seq}\t{event.kind}\t{event.element_id}")
    for warning in trace.warnings:
        append(f"#\twarning\t{warning}")
    return "\n".join(lines) + "\n"


# -- trust propagation ------------------------------------------------------


def propagate_trust(
    lane_trust: Optional[m.TrustScore],
    task_trust: Optional[m.TrustScore],
    output_confidence: Optional[m.TrustScore],
) -> m.TrustScore:
    """Minimal pessimistic rule: min over present values, default 100.
    A score in 0..100 is the shared one of ``model.TRUST_SCORES``."""
    value = None
    for score in (lane_trust, task_trust, output_confidence):
        if score is not None and (value is None or score.value < value):
            value = score.value
    if value is None:
        value = 100
    if type(value) is int and 0 <= value <= 100:
        return m.TRUST_SCORES[value]
    return m.TrustScore(value)


# -- merge strategies -------------------------------------------------------


def _tie_break_key(candidate: CandidateOutput):
    # higher confidence first, then lexicographically smallest label;
    # absent confidence counts as 100, consistent with propagate_trust
    conf = candidate.confidence.value if candidate.confidence else 100
    return (-conf, candidate.label)


def _tie_break(candidates) -> CandidateOutput:
    return min(candidates, key=_tie_break_key)


def apply_merge_strategy(
    strategy: m.MergeStrategy,
    candidates: List[CandidateOutput],
    votes: Optional[Dict[str, str]] = None,
    manager_pick: Optional[str] = None,
) -> Tuple[CandidateOutput, str]:
    """Pick one winner from a nonempty candidate list; returns (winner, rationale).

    All ties break deterministically: higher confidence, then
    lexicographic label.
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    by_label: Dict[str, CandidateOutput] = {}
    for cand in candidates:
        by_label.setdefault(cand.label, cand)

    if strategy in m.VOTING_STRATEGIES:
        if votes is None:
            raise VotesMissing(f"{strategy.value} requires votes")
        counts = Counter(votes.values())
        voted = {label: n for label, n in counts.items() if label in by_label}
        total = sum(counts.values())
        if strategy is m.MergeStrategy.VOTING_MAJORITY:
            if not voted:
                winner = _tie_break(candidates)
                return winner, "no votes for any candidate; tie-break applied"
            top = max(voted.values())
            leaders = [by_label[l] for l in voted if voted[l] == top]
            winner = _tie_break(leaders)
            note = "" if len(leaders) == 1 else "; tie broken"
            return winner, f"{top}/{total} votes for {winner.label!r}{note}"
        if strategy is m.MergeStrategy.VOTING_ABSOLUTE:
            if voted:
                top = max(voted.values())
                if 2 * top > total:
                    label = min(l for l in voted if voted[l] == top)
                    winner = by_label[label]
                    return winner, f"absolute majority {top}/{total} for {label!r}"
                leaders = [by_label[l] for l in voted if voted[l] == top]
            else:
                leaders = list(candidates)
            winner = _tie_break(leaders)
            return (
                winner,
                "absolute majority not reached; fell back to tie-break "
                f"(confidence then label) -> {winner.label!r}",
            )
        # voting.minority: least-voted label with at least one vote
        if not voted:
            winner = _tie_break(candidates)
            return winner, "no votes for any candidate; tie-break applied"
        low = min(voted.values())
        trailers = [by_label[l] for l in voted if voted[l] == low]
        winner = _tie_break(trailers)
        note = "" if len(trailers) == 1 else "; tie broken"
        return winner, f"minority pick {winner.label!r} with {low}/{total} votes{note}"

    if strategy is m.MergeStrategy.ROLE_LEADER_DRIVEN:
        if manager_pick is None:
            raise ManagerPickMissing("role.leaderDriven requires a manager pick")
        if manager_pick not in by_label:
            raise ManagerPickMissing(
                f"manager pick {manager_pick!r} is not a candidate label"
            )
        return by_label[manager_pick], f"leader pick {manager_pick!r}"

    if strategy is m.MergeStrategy.ROLE_COMPOSED:
        payload = "".join(c.payload for c in candidates)
        confidences = [c.confidence.value for c in candidates if c.confidence]
        composed = CandidateOutput(
            label="composed",
            payload=payload,
            confidence=m.TrustScore(min(confidences)) if confidences else None,
        )
        return composed, f"composed from {len(candidates)} parts in branch order"

    if strategy is m.MergeStrategy.COMPETITION_FASTEST:
        best = min(
            candidates,
            key=lambda c: (
                c.latency_ms if c.latency_ms is not None else float("inf"),
            )
            + _tie_break_key(c),
        )
        lat = best.latency_ms if best.latency_ms is not None else "unscripted"
        return best, f"fastest at {lat}ms"

    if strategy is m.MergeStrategy.COMPETITION_MOST_COMPLETE:
        best = min(
            candidates,
            key=lambda c: (
                -(c.completeness if c.completeness is not None else -1),
            )
            + _tie_break_key(c),
        )
        comp = best.completeness if best.completeness is not None else "unscripted"
        return best, f"most complete at {comp}"

    raise ValueError(f"unknown strategy {strategy!r}")  # pragma: no cover


# -- scripted execution core ------------------------------------------------


class _Cursors:
    """Per-run consumption state for scripted outputs and verdicts."""

    def __init__(self):
        self.outputs: Dict[str, int] = {}
        self.verdicts: Dict[str, int] = {}

    def next_output(self, key: str, behavior: ScriptedBehavior) -> CandidateOutput:
        if not behavior.outputs:
            raise MissingBehavior(key, "script has no outputs")
        i = self.outputs.get(key, 0)
        out = behavior.outputs[min(i, len(behavior.outputs) - 1)]
        self.outputs[key] = i + 1
        return out

    def has_more_outputs(self, key: str, behavior: ScriptedBehavior) -> bool:
        return self.outputs.get(key, 0) < len(behavior.outputs)

    def next_verdict(self, key: str, verdicts: List[str]) -> Optional[str]:
        i = self.verdicts.get(key, 0)
        self.verdicts[key] = i + 1
        return verdicts[i] if i < len(verdicts) else None


def run_reflection(
    task: m.Task,
    behavior: ScriptedBehavior,
    lane_trust: Optional[m.TrustScore],
    lane_scripts: Optional[Dict[str, LaneScript]] = None,
    _cursors: Optional[_Cursors] = None,
) -> Tuple[CandidateOutput, int, List[TraceEvent]]:
    """Run the task's reflection loop; returns (output, rounds used, events).

    Produces one output per round; the verdict comes from the task's own
    script (self), the reviewer lanes' scripts (cross, any revise forces
    another round), or the human lane's script.  Stops on accept or at
    the round cap; the last produced output is always the one returned.
    """
    refl = task.agentic.reflection
    cursors = _cursors if _cursors is not None else _Cursors()
    lane_scripts = lane_scripts or {}
    events: List[TraceEvent] = []
    output = None
    rounds = 0
    for rounds in range(1, refl.max_rounds + 1):
        output = cursors.next_output(task.id, behavior)
        if refl.kind is m.ReflectionKind.SELF:
            verdict = cursors.next_verdict(task.id, behavior.reflection_verdicts)
        elif refl.kind is m.ReflectionKind.CROSS:
            verdict = ACCEPT
            for lane_id in refl.reviewer_lane_ids:
                script = lane_scripts.get(lane_id)
                if script is None:
                    raise MissingBehavior(lane_id, "consulted as cross reviewer")
                v = cursors.next_verdict(
                    f"{task.id}:{lane_id}", script.reflection_verdicts
                )
                if v != ACCEPT:
                    verdict = REVISE
        else:
            script = lane_scripts.get(refl.human_lane_id)
            if script is None:
                raise MissingBehavior(
                    refl.human_lane_id, "consulted for human reflection"
                )
            verdict = cursors.next_verdict(
                f"{task.id}:{refl.human_lane_id}", script.reflection_verdicts
            )
        verdict = verdict if verdict == ACCEPT else REVISE
        events.append(_reflection_round(task.id, rounds, verdict))
        if verdict == ACCEPT:
            break
    return output, rounds, events


# -- simulation -------------------------------------------------------------


@dataclass
class _Token:
    node_id: str
    last_output: Optional[CandidateOutput] = None


_condition_of = operator.attrgetter("condition")


def _condition_holds(condition: Optional[str], last_output) -> bool:
    if condition is None:
        return False  # empty condition means "default", never a positive match
    label = last_output.label if last_output is not None else ""
    text = condition.strip()
    if text.startswith("label =="):
        expected = text[len("label =="):].strip().strip('"').strip("'")
        return label == expected
    return label == text


def _gateway_pickers(model, region, merge_gw):
    """The lanes whose manager pick a gateway region reads, in order: the
    merging gateway's lane, then the participant manager lanes by id."""
    yield merge_gw.lane_id
    roles = m.region_roles(model, region)
    yield from (lane_id for lane_id in roles if roles[lane_id] == m.MANAGER)


class _Simulation:
    def __init__(self, model: m.ProcessModel, scenario: ScenarioPolicy):
        self.model = model
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.cursors = _Cursors()
        self.trace = Trace()
        self.emit = self.trace.events.append
        # lane id -> the lane's trust score, or None
        self.lane_trust = {
            lane.id: lane.agentic.trust if lane.agentic else None
            for pool in model.pools
            for lane in pool.lanes
        }
        self.steps = 0
        self.step_budget = STEP_BUDGET + sum(
            len(pool.nodes) + len(pool.flows) for pool in model.pools
        )
        self.joins: Dict[str, int] = {}  # gateway id -> arrivals so far
        self.join_outputs: Dict[str, CandidateOutput] = {}

    # -- helpers ------------------------------------------------------------

    def behavior_for(self, task: m.Task, required: bool) -> Optional[ScriptedBehavior]:
        behavior = self.scenario.per_task.get(task.id)
        if behavior is None and (required or task.agentic is not None):
            raise MissingBehavior(task.id)
        return behavior

    def effective_latency(self, behavior: ScriptedBehavior) -> Optional[int]:
        latency = behavior.latency_ms
        if behavior.latency_jitter_ms:
            latency = (latency or 0) + self.rng.randint(
                0, behavior.latency_jitter_ms
            )
        return latency

    def finish_output(
        self, task: m.Task, behavior: Optional[ScriptedBehavior], output
    ) -> CandidateOutput:
        producer = output.producer_lane_id
        latency = output.latency_ms
        completeness = output.completeness
        if behavior is not None:
            if latency is None:
                latency = self.effective_latency(behavior)
            if completeness is None:
                completeness = behavior.completeness
        if (
            producer is not None
            and latency is output.latency_ms
            and completeness is output.completeness
        ):
            return output
        return _make_output(
            output.label,
            output.payload,
            output.confidence,
            task.lane_id if producer is None else producer,
            latency,
            completeness,
        )

    def execute_task(self, task: m.Task, required: bool = False) -> CandidateOutput:
        behavior = self.behavior_for(task, required)
        if behavior is None:
            output = _make_output(task.name or task.id, "", None, task.lane_id, None, None)
        elif task.agentic is not None and task.agentic.reflection is not None:
            output, _rounds, events = run_reflection(
                task,
                behavior,
                self.lane_trust[task.lane_id],
                self.scenario.per_lane,
                _cursors=self.cursors,
            )
            self.trace.events.extend(events)
            output = self.finish_output(task, behavior, output)
        else:
            output = self.cursors.next_output(task.id, behavior)
            output = self.finish_output(task, behavior, output)
        self.emit_task_done(task, output)
        return output

    def emit_task_done(self, task: m.Task, output: CandidateOutput):
        task_trust = task.agentic.trust if task.agentic else None
        effective = propagate_trust(
            self.lane_trust[task.lane_id], task_trust, output.confidence
        )
        self.emit(_task_done(task.id, output, effective))

    # -- collaboration regions ----------------------------------------------

    def execute_region(
        self, region: m.CollaborationRegion, context_label: Optional[CandidateOutput]
    ) -> CandidateOutput:
        index = self.model.index
        div = index[region.diverging_gateway_id]
        merge_gw = index[region.merging_gateway_id]
        if div.kind is m.GatewayKind.INCLUSIVE:
            conditions = map(_condition_of, self.model.outgoing(div.id))
        else:
            conditions = repeat(None)
        return self.run_region(
            div, merge_gw, zip(region.branches, conditions), True, region.participant_lane_ids,
            _gateway_pickers(self.model, region, merge_gw), "branch {!r} contains no task", None,
            context_label,
        )

    def run_message_region(self, region: m.MessageRegion) -> Optional[CandidateOutput]:
        out_flow = region.outgoing
        here = self.model.pool_of(out_flow.source_id).lanes
        remote = self.model.pool_of(out_flow.target_id).lanes
        path = (out_flow.id, *region.chain, region.incoming.id)
        return self.run_region(
            out_flow, region.incoming, ((path, None),), False, map(m._by_id, remote),
            map(m._by_id, here + remote), "remote chain contains no task", region.stop, None,
        )

    def run_region(
        self, opener, closer, branches, task_scripts, vote_lanes, pick_lanes, no_task, stop,
        context_label,
    ) -> Optional[CandidateOutput]:
        """Run a collaboration region from ``opener`` to ``closer``, two
        agentic gateways or message flows, and return its winner.

        ``branches`` pairs each branch's path (the ids of ``opener``, of the
        nodes it runs and of ``closer``) with its entry condition or None.
        A voting merge counts the votes of ``vote_lanes``, by lane id, and,
        if ``task_scripts``, of each branch's last task, which may also
        revise its output in a debate; a leader-driven merge takes the
        first pick of ``pick_lanes``.  ``no_task`` is the error for a branch
        with no task, formatted with its path; a ``stop`` warning ends the
        region, with no winner, once its branch has run.  A message flow
        from a node of a branch is not executed, and is warned about.
        """
        index = self.model.index
        message_regions = self.model._message_regions
        warnings = self.trace.warnings
        emit = self.emit
        mode = opener.agentic.collaboration
        emit(_region_open(opener.id, mode))
        candidates: List[CandidateOutput] = []
        last_tasks: List[m.Task] = []
        for path, condition in branches:
            if condition is not None and not _condition_holds(condition, context_label):
                continue
            output = last_task = None
            for node_id in path[1:-1]:
                node = index[node_id]
                self.step()
                emit(_token_enter(node_id))
                if node.__class__ is m.Task:
                    output = self.execute_task(node, required=True)
                    last_task = node
                message = message_regions.get(node_id)
                if message is not None:
                    unopened, region = message
                    warnings += unopened
                    if region is not None:
                        warnings.append(
                            f"W-MULTIPOOL {region.outgoing.id}: message flow from inside"
                            " a collaboration region is not executed"
                        )
            if stop is not None:
                warnings.append(stop)
                return None
            if output is None:
                raise MissingBehavior(opener.id, no_task.format(path))
            candidates.append(output)
            last_tasks.append(last_task)
        if not candidates:
            raise NoActiveBranch(f"no branch of {opener.id!r} has a true entry condition")

        # only a voting merge reads votes, and only a leader-driven one a pick
        strategy = closer.agentic.merge
        per_lane = self.scenario.per_lane
        votes: Dict[str, str] = {}
        for lane_id in sorted(vote_lanes) if strategy in m.VOTING_STRATEGIES else ():
            script = per_lane.get(lane_id)
            if script and script.vote is not None:
                votes[lane_id] = script.vote
        for i, task in enumerate(last_tasks if task_scripts else ()):
            behavior = self.scenario.per_task.get(task.id)
            if not behavior:
                continue
            # a debate has one exchange round: each branch may revise its output
            if mode is m.CollaborationMode.DEBATE and self.cursors.has_more_outputs(
                task.id, behavior
            ):
                revised = self.cursors.next_output(task.id, behavior)
                candidates[i] = self.finish_output(task, behavior, revised)
                self.emit_task_done(task, candidates[i])
            if behavior.vote is not None:
                votes[task.lane_id] = behavior.vote
        manager_pick = None
        for lane_id in pick_lanes if strategy is m.MergeStrategy.ROLE_LEADER_DRIVEN else ():
            script = per_lane.get(lane_id)
            if script and script.manager_pick is not None:
                manager_pick = script.manager_pick
                break

        emit(_candidate_set(closer.id, tuple(candidates)))
        winner, rationale = apply_merge_strategy(
            strategy, candidates, votes if votes else None, manager_pick
        )
        trust = closer.agentic.trust
        if trust is not None:
            rationale += f" [{_TRUST_KINDS[closer.__class__]} trust={trust.value}]"
        emit(_merge_decision(closer.id, strategy, winner.label, rationale))
        return winner

    # -- token game ---------------------------------------------------------

    def step(self):
        self.steps += 1
        if self.steps > self.step_budget:
            raise StepBudgetExceeded(f"step budget of {self.step_budget} exceeded")

    def route_exclusive(self, node, token) -> List[m.SequenceFlow]:
        flows = self.model.outgoing(node.id)
        default = None
        for flow in flows:
            if flow.condition is None:
                if default is None:
                    default = flow
            elif _condition_holds(flow.condition, token.last_output):
                return [flow]
        if default is not None:
            return [default]
        raise ConditionUnmatched(
            f"no sequence flow out of {node.id!r} matches "
            f"label {token.last_output.label if token.last_output else None!r}"
        )

    def route_inclusive(self, node, token) -> List[m.SequenceFlow]:
        flows = self.model.outgoing(node.id)
        chosen = [
            f
            for f in flows
            if f.condition is None or _condition_holds(f.condition, token.last_output)
        ]
        if not chosen:
            raise ConditionUnmatched(
                f"no inclusive branch out of {node.id!r} is active"
            )
        return chosen

    def run(self) -> Trace:
        message_regions = self.model._message_regions
        queue = deque()
        starts = sorted(
            (n for n in self.model.iter_nodes() if isinstance(n, m.StartEvent)),
            key=lambda n: n.id,
        )
        for start in starts:
            self.emit(_token_enter(start.id))
            queue.append(_Token(start.id))

        while queue:
            self.step()
            token = queue.popleft()
            node = self.model.index[token.node_id]

            if isinstance(node, m.EndEvent):  # pragma: no cover - ends earlier
                self.emit(_token_end(node.id))
                continue

            if isinstance(node, m.Task):
                token.last_output = self.execute_task(node)
            elif isinstance(node, m.Gateway) and node.agentic is not None:
                if node.agentic.direction is m.GatewayDirection.DIVERGING:
                    region = m.analyze_regions(self.model)[node.id]
                    winner = self.execute_region(region, token.last_output)
                    merge_gw = self.model.index[region.merging_gateway_id]
                    self.emit(_token_enter(merge_gw.id))
                    token = _Token(merge_gw.id, winner)
                # merging agentic gateways reached directly pass through
            elif isinstance(node, m.Gateway):
                if node.kind is m.GatewayKind.EXCLUSIVE:
                    flows = self.route_exclusive(node, token)
                    self.advance(token.last_output, flows, queue)
                    continue
                if node.kind is m.GatewayKind.INCLUSIVE and len(
                    self.model.outgoing(node.id)
                ) > 1:
                    flows = self.route_inclusive(node, token)
                    self.advance(token.last_output, flows, queue)
                    continue
                incoming = self.model.incoming(node.id)
                if len(incoming) > 1:  # join: wait for all incoming edges
                    arrived = self.joins.get(node.id, 0) + 1
                    self.joins[node.id] = arrived
                    if token.last_output is not None:
                        self.join_outputs[node.id] = token.last_output
                    if arrived < len(incoming):
                        continue
                    self.joins[node.id] = 0
                    token.last_output = self.join_outputs.get(node.id)

            message = message_regions.get(token.node_id)
            if message is not None:
                warnings, region = message
                self.trace.warnings += warnings
                winner = None if region is None else self.run_message_region(region)
                if winner is not None:
                    # a new token leaves the incoming flow's target, and this
                    # one goes on along its sequence flows, if it has any
                    self.advance(winner, (region.incoming,), queue)

            self.advance(token.last_output, self.model.outgoing(token.node_id), queue)
        return self.trace

    def advance(self, last_output, flows, queue):
        """Move a token carrying ``last_output`` along each of ``flows``,
        sequence or message flows."""
        for flow in flows:
            target = self.model.index[flow.target_id]
            if isinstance(target, m.EndEvent):
                self.emit(_token_end(target.id))
            else:
                self.emit(_token_enter(target.id))
                queue.append(_Token(target.id, last_output))


def refuse_invalid(model: m.ProcessModel) -> None:
    """Raise :class:`SimulationError` naming the codes of the model's
    validation errors, if it has any."""
    from hagent.validate import validate_model
    from hagent.xmlio import Severity

    errors = [d for d in validate_model(model) if d.severity is Severity.ERROR]
    if errors:
        codes = ", ".join(sorted({d.code for d in errors}))
        raise SimulationError(f"model has validation errors: {codes}")


def run_simulation(model: m.ProcessModel, scenario: ScenarioPolicy) -> Trace:
    """Execute the model under the scenario; the trace is deterministic.
    Refuses an invalid model (:func:`refuse_invalid`)."""
    refuse_invalid(model)
    return _Simulation(model, scenario).run()


def execute_region(
    model: m.ProcessModel,
    region: m.CollaborationRegion,
    scenario: ScenarioPolicy,
    context_label: Optional[CandidateOutput] = None,
) -> Tuple[CandidateOutput, List[TraceEvent]]:
    """Execute one collaboration region in isolation."""
    sim = _Simulation(model, scenario)
    winner = sim.execute_region(region, context_label)
    return winner, sim.trace.events

