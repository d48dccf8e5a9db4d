"""In-memory process model: standard BPMN subset plus agentic extensions.

Models are immutable after construction and normalized to a canonical
element order (sorted by id), which makes equality and serialization
deterministic.  Structural invariants (unique ids, resolvable references,
flows staying inside / crossing pools) are enforced at construction;
agentic well-formedness beyond that is the job of :mod:`hagent.validate`.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Tuple, Union


class ModelError(Exception):
    """Base class for model construction and query failures."""


class OutOfRange(ModelError):
    """A trust score outside the 0-100 percent range."""

    def __init__(self, value: int, path: Optional[str] = None):
        message = f"trust score {value} outside 0..100"
        super().__init__(f"{path}: {message}" if path else message)
        self.value = value


class DuplicateId(ModelError):
    """Two model elements share an identifier."""


class DanglingReference(ModelError):
    """A flow, lane, or artifact references a missing element."""


class InvariantViolation(ModelError):
    """A structural invariant of the model does not hold."""


class NoMatchingMerge(ModelError):
    """No agentic merging gateway post-dominates the diverging gateway."""


class MalformedRegion(ModelError):
    """A collaboration branch is not a chain of one-in, one-out nodes."""


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _record(cls):
    """``cls`` as a frozen dataclass with slots, whose ``__setattr__`` and
    ``__delattr__`` raise ``FrozenInstanceError`` for any name; the ones
    ``dataclasses`` writes raise ``TypeError`` for a name that is not a
    field, as they name the class that ``slots=True`` replaces."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


MANAGER = "manager"
WORKER = "worker"
HUMAN = "human"  # distinguished marker for non-agentic lanes in role maps


@_record
class TrustScore:
    """Trustworthiness as an integer percent.

    The range is not enforced here: ``validate_model`` reads a built model
    back, and the reader reports a value outside 0..100 as E-TRUST-RANGE;
    use :func:`mk_trust_score` for checked construction.
    """

    value: int


def mk_trust_score(value: int, path: Optional[str] = None) -> TrustScore:
    """Checked TrustScore constructor; raises :class:`OutOfRange`, whose
    message starts with ``path``, the key path of the value, if given."""
    if not 0 <= value <= 100:
        raise OutOfRange(value, path)
    return TrustScore(value)


@_record
class AgentProfile:
    """Profile of an agentic lane: role plus optional trust score.

    ``role`` is ``"manager"``, ``"worker"``, or a free-text custom role.
    Custom roles count as worker-equivalent for manager-presence checks.
    """

    role: str
    trust: Optional[TrustScore] = None


class ReflectionKind(str, enum.Enum):
    SELF = "self"
    CROSS = "cross"
    HUMAN = "human"


@_record
class ReflectionMode:
    """Answer-refinement loop attached to an agentic task."""

    kind: ReflectionKind
    max_rounds: int = 3
    reviewer_lane_ids: Tuple[str, ...] = ()  # cross-reflection only
    human_lane_id: Optional[str] = None  # human-reflection only


@_record
class AgenticTaskInfo:
    reflection: Optional[ReflectionMode] = None
    trust: Optional[TrustScore] = None


class CollaborationMode(str, enum.Enum):
    COMPETITION = "competition"
    DEBATE = "debate"
    ROLE = "role"
    VOTING = "voting"


class MergeStrategy(str, enum.Enum):
    VOTING_MAJORITY = "voting.majority"
    VOTING_ABSOLUTE = "voting.absolute"
    VOTING_MINORITY = "voting.minority"
    ROLE_LEADER_DRIVEN = "role.leaderDriven"
    ROLE_COMPOSED = "role.composed"
    COMPETITION_FASTEST = "competition.fastest"
    COMPETITION_MOST_COMPLETE = "competition.mostComplete"


VOTING_STRATEGIES = frozenset(
    {
        MergeStrategy.VOTING_MAJORITY,
        MergeStrategy.VOTING_ABSOLUTE,
        MergeStrategy.VOTING_MINORITY,
    }
)


class GatewayDirection(str, enum.Enum):
    DIVERGING = "diverging"
    MERGING = "merging"
    # a message flow is outgoing (opens a region) or incoming (closes one)
    OUTGOING = "diverging"
    INCOMING = "merging"


MessageFlowDirection = GatewayDirection


@_record
class AgenticRegionInfo:
    """Collaboration (diverging) or merge (merging) marker on a gateway or
    a message flow: exactly one of ``collaboration`` / ``merge`` is set,
    agreeing with ``direction``."""

    direction: GatewayDirection
    collaboration: Optional[CollaborationMode] = None
    merge: Optional[MergeStrategy] = None
    trust: Optional[TrustScore] = None

    def __post_init__(self):
        if self.direction is GatewayDirection.DIVERGING:
            if self.collaboration is None or self.merge is not None:
                raise InvariantViolation(
                    "diverging (outgoing) agentic marker requires collaboration and no merge"
                )
        elif self.merge is None or self.collaboration is not None:
            raise InvariantViolation(
                "merging (incoming) agentic marker requires merge and no collaboration"
            )


AgenticGatewayInfo = AgenticMessageFlowInfo = AgenticRegionInfo


class GatewayKind(str, enum.Enum):
    EXCLUSIVE = "exclusive"
    INCLUSIVE = "inclusive"
    PARALLEL = "parallel"
    COMPLEX = "complex"


@_record
class FlowNode:
    id: str
    lane_id: str
    name: str = ""
    foreign_ext: Tuple[str, ...] = ()  # opaque foreign extension fragments


@_record
class StartEvent(FlowNode):
    pass


@_record
class EndEvent(FlowNode):
    pass


@_record
class Task(FlowNode):
    agentic: Optional[AgenticTaskInfo] = None


@_record
class SubProcess(FlowNode):
    """Modeled but opaque: no nested execution semantics."""


@_record
class Gateway(FlowNode):
    kind: GatewayKind = GatewayKind.EXCLUSIVE
    agentic: Optional[AgenticRegionInfo] = None


@_record
class SequenceFlow:
    id: str
    source_id: str
    target_id: str
    condition: Optional[str] = None


@_record
class MessageFlow:
    id: str
    source_id: str
    target_id: str
    agentic: Optional[AgenticRegionInfo] = None
    foreign_ext: Tuple[str, ...] = ()


@_record
class Annotation:
    id: str
    text: str = ""


@_record
class Association:
    id: str
    source_id: str
    target_id: str


@_record
class Group:
    id: str
    name: str = ""


@_record
class DataObject:
    id: str
    name: str = ""


Artifact = Union[Annotation, Association, Group, DataObject]


@_record
class Lane:
    id: str
    name: str = ""
    node_ids: Tuple[str, ...] = ()
    agentic: Optional[AgentProfile] = None
    foreign_ext: Tuple[str, ...] = ()


@_record
class Pool:
    id: str
    name: str = ""
    lanes: Tuple[Lane, ...] = ()
    nodes: Tuple[FlowNode, ...] = ()
    flows: Tuple[SequenceFlow, ...] = ()
    artifacts: Tuple[Artifact, ...] = ()
    multi_instance: bool = False
    opaque_elements: Tuple[str, ...] = ()  # unsupported BPMN, preserved verbatim


def _maker(cls) -> Callable:
    """A function of every ``__init__`` field of the slotted record ``cls``,
    positional in field order, that returns what ``cls(...)`` returns for
    the same values.  It makes the instance with ``object.__new__`` and
    sets each field, a field outside ``__init__`` to its default, through
    its slot descriptor, where the frozen ``__init__`` calls
    ``object.__setattr__`` once per field.  Generated, as ``dataclasses``
    generates ``__init__``, so that each field costs one call."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} checks its fields; build it with its constructor")
    namespace = {"new": object.__new__, "cls": cls}
    names = [f.name for f in fields(cls) if f.init]
    lines = [f"def make({', '.join(names)}):", "    self = new(cls)"]
    for f in fields(cls):
        namespace["set_" + f.name] = getattr(cls, f.name).__set__
        if not f.init:
            namespace["default_" + f.name] = f.default
        lines.append(f"    set_{f.name}(self, {'' if f.init else 'default_'}{f.name})")
    lines.append("    return self")
    exec("\n".join(lines), namespace)
    return namespace["make"]


# the records parse_model and ProcessModel build in bulk, each with its maker
_MAKERS = {
    cls: _maker(cls)
    for cls in (
        StartEvent, EndEvent, Task, SubProcess, Gateway, SequenceFlow, MessageFlow, Lane,
        Pool, TrustScore, AgentProfile, ReflectionMode, AgenticTaskInfo,
    )
}
_make_pool, _make_lane = _MAKERS[Pool], _MAKERS[Lane]

# the node classes the XML writer has an element for, each with its tag (a
# gateway's is its kind's value and this); a model holds no other node class
NODE_TAGS = {
    StartEvent: "startEvent",
    EndEvent: "endEvent",
    Task: "task",
    SubProcess: "subProcess",
    Gateway: "Gateway",
}

# every trust score in range, by value: records are immutable, so the
# readers of models and scenarios share these
TRUST_SCORES = tuple(map(_MAKERS[TrustScore], range(101)))


@dataclass(frozen=True)
class CollaborationRegion:
    """Matched (diverging, merging) gateway pair plus branch paths.

    Each branch is the full node-id path including both gateways;
    branches are node-disjoint except at the endpoints.
    """

    diverging_gateway_id: str
    merging_gateway_id: str
    branches: Tuple[Tuple[str, ...], ...]
    participant_lane_ids: frozenset


class MessageRegion(NamedTuple):
    """Matched (outgoing, incoming) agentic message-flow pair plus the remote
    chain: the nodes a walk from the outgoing flow's target visits up to the
    incoming flow's source, or up to a cycle or a fork, where it stops short
    with ``stop``, its ``W-MULTIPOOL`` warning."""

    outgoing: MessageFlow
    incoming: MessageFlow
    chain: Tuple[str, ...]
    stop: Optional[str]


@dataclass(frozen=True)
class ProcessModel:
    id: str
    pools: Tuple[Pool, ...] = ()
    message_flows: Tuple[MessageFlow, ...] = ()
    opaque_elements: Tuple[str, ...] = ()  # e.g. diagram-interchange blobs
    index: Mapping[str, object] = field(
        default_factory=dict, compare=False, repr=False
    )
    # True on a model parse_model built, which validate_model need not read
    # back.  Not an argument, so a dataclasses.replace copy, which may hold
    # anything, starts False
    parsed: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pools", _normalize_pools(self.pools))
        object.__setattr__(
            self,
            "message_flows",
            tuple(sorted(self.message_flows, key=_by_id)),
        )
        object.__setattr__(self, "index", _build_index(self))
        object.__setattr__(self, "_node_pools", _check_invariants(self))

    # -- structural queries -------------------------------------------------

    @cached_property
    def _adjacency(self) -> dict:
        """Node id -> its flows, built on first use."""
        return _build_adjacency(self)

    @cached_property
    def _regions(self) -> dict:
        return _match_regions(self)

    @cached_property
    def _message_regions(self) -> dict:
        return _match_message_regions(self)

    def _links(self, node_id: str) -> _NodeLinks:
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise DanglingReference(f"no pool contains node {node_id!r}") from None

    def pool_of(self, node_id: str) -> Pool:
        try:
            return self._node_pools[node_id]
        except KeyError:
            raise DanglingReference(f"no pool contains node {node_id!r}") from None

    def lane_of(self, node_id: str) -> Lane:
        node = self.index[node_id]
        return self.index[node.lane_id]

    def outgoing(self, node_id: str) -> Tuple[SequenceFlow, ...]:
        return self._links(node_id).outgoing

    def incoming(self, node_id: str) -> Tuple[SequenceFlow, ...]:
        return self._links(node_id).incoming

    def iter_nodes(self) -> Iterator[FlowNode]:
        for pool in self.pools:
            yield from pool.nodes


def _normalize_pools(pools) -> Tuple[Pool, ...]:
    out = []
    for pool in pools:
        lanes = tuple(sorted(map(_normalize_lane, pool.lanes), key=_by_id))
        nodes = tuple(sorted(pool.nodes, key=_by_id))
        flows = tuple(sorted(pool.flows, key=_by_id))
        artifacts = tuple(sorted(pool.artifacts, key=_by_id))
        # sorted() is stable, so a pool already in canonical order comes
        # back with the same members, and the tuple comparisons stop at
        # identity without calling __eq__
        if (
            lanes != pool.lanes
            or nodes != pool.nodes
            or flows != pool.flows
            or artifacts != pool.artifacts
        ):
            pool = _make_pool(
                pool.id, pool.name, lanes, nodes, flows, artifacts,
                pool.multi_instance, pool.opaque_elements,
            )
        out.append(pool)
    return tuple(sorted(out, key=_by_id))


def _normalize_lane(lane: Lane) -> Lane:
    node_ids = tuple(sorted(lane.node_ids))
    if node_ids == lane.node_ids:
        return lane
    return _make_lane(lane.id, lane.name, node_ids, lane.agentic, lane.foreign_ext)


_by_id = operator.attrgetter("id")


def _indexed(model: ProcessModel) -> Iterator[tuple]:
    """The model's elements in index order, in runs."""
    for pool in model.pools:
        yield (pool,)
        yield pool.lanes
        yield pool.nodes
        yield pool.flows
        yield pool.artifacts
    yield model.message_flows


def _build_index(model: ProcessModel) -> dict:
    # the model's own id is reserved but not stored: storing the model in
    # its own index would put it in a reference cycle
    index: dict = {}
    count = 0
    for run in _indexed(model):
        index.update(zip(map(_by_id, run), run))
        count += len(run)
    if len(index) != count or model.id in index:
        seen = {model.id}  # the first id met again names the error
        for run in _indexed(model):
            for elem in run:
                if elem.id in seen:
                    raise DuplicateId(f"duplicate element id {elem.id!r}")
                seen.add(elem.id)
    return index


class _NodeLinks(NamedTuple):
    outgoing: Tuple[SequenceFlow, ...]  # in flow-id order
    incoming: Tuple[SequenceFlow, ...]


def _build_adjacency(model: ProcessModel) -> dict:
    out: dict = {}
    for pool in model.pools:
        succ: dict = {n.id: [] for n in pool.nodes}
        pred: dict = {n.id: [] for n in pool.nodes}
        for flow in pool.flows:  # normalized: already sorted by id
            succ[flow.source_id].append(flow)
            pred[flow.target_id].append(flow)
        for node_id in succ:
            out[node_id] = _NodeLinks(tuple(succ[node_id]), tuple(pred[node_id]))
    return out


def _check_invariants(model: ProcessModel) -> dict:
    """Node id -> the pool that holds it, after checking the invariants."""
    index = model.index
    node_to_pool: dict = {}
    node_to_lane: dict = {}
    for pool in model.pools:
        if not pool.lanes:
            raise InvariantViolation(f"pool {pool.id!r} has no lanes")
        for node in pool.nodes:
            if node.__class__ not in NODE_TAGS:
                raise InvariantViolation(
                    f"node {node.id!r} is a {node.__class__.__name__}, "
                    "which has no BPMN element"
                )
            node_to_pool[node.id] = pool
        for lane in pool.lanes:
            for node_id in lane.node_ids:
                if node_to_pool.get(node_id) is not pool:
                    raise DanglingReference(
                        f"lane {lane.id!r} references unknown node {node_id!r}"
                    )
                if node_id in node_to_lane:
                    raise InvariantViolation(
                        f"node {node_id!r} belongs to more than one lane"
                    )
                node_to_lane[node_id] = lane.id
        for node in pool.nodes:
            if node.id not in node_to_lane:
                raise InvariantViolation(f"node {node.id!r} belongs to no lane")
            if node.lane_id != node_to_lane[node.id]:
                raise InvariantViolation(
                    f"node {node.id!r} lane_id disagrees with laneSet"
                )
        for flow in pool.flows:
            for end in (flow.source_id, flow.target_id):
                if node_to_pool.get(end) is not pool:
                    raise DanglingReference(
                        f"sequence flow {flow.id!r} endpoint {end!r} "
                        f"not a node of pool {pool.id!r}"
                    )
            src = index[flow.source_id]  # both ends are nodes of the pool
            tgt = index[flow.target_id]
            if isinstance(src, EndEvent):
                raise InvariantViolation(
                    f"end event {src.id!r} has outgoing sequence flow {flow.id!r}"
                )
            if isinstance(tgt, StartEvent):
                raise InvariantViolation(
                    f"start event {tgt.id!r} has incoming sequence flow {flow.id!r}"
                )
        for artifact in pool.artifacts:
            if isinstance(artifact, Association):
                for end in (artifact.source_id, artifact.target_id):
                    if end not in index and end != model.id:
                        raise DanglingReference(
                            f"association {artifact.id!r} references {end!r}"
                        )
    for flow in model.message_flows:
        for end in (flow.source_id, flow.target_id):
            if end not in node_to_pool:
                raise DanglingReference(
                    f"message flow {flow.id!r} endpoint {end!r} unknown"
                )
        if node_to_pool[flow.source_id] is node_to_pool[flow.target_id]:
            raise InvariantViolation(
                f"message flow {flow.id!r} does not cross pool boundaries"
            )
    return node_to_pool


def model_get(model: ProcessModel, elem_id: str):
    try:
        return model.index[elem_id]
    except KeyError:
        raise DanglingReference(f"unknown element id {elem_id!r}") from None


# -- region matching --------------------------------------------------------

_EXIT = object()  # virtual exit for post-dominator analysis
_source_id = operator.attrgetter("source_id")
_target_id = operator.attrgetter("target_id")


def _post_dominators(model: ProcessModel, pool: Pool) -> dict:
    """Immediate post-dominator of every node of the pool that reaches an exit.

    Computed as immediate dominators of the reversed sequence-flow graph,
    rooted at a virtual exit that collects every node without outgoing
    flows (Cooper, Harvey and Kennedy, "A Simple, Fast Dominance
    Algorithm", 2001).  ``_EXIT`` maps to itself.
    """
    adj = model._adjacency
    exits = [n.id for n in pool.nodes if not adj[n.id].outgoing]

    # depth-first post-order of the reversed graph; ``active`` maps each
    # visited node to whether it is still on the stack, where an edge back
    # to it shows a cycle
    order = []
    active = {_EXIT: True}
    cyclic = False
    stack = [(_EXIT, iter(exits))]
    while stack:
        top, it = stack[-1]
        for s in it:
            if s not in active:
                active[s] = True
                stack.append((s, map(_source_id, adj[s].incoming)))
                break
            cyclic = cyclic or active[s]
        else:
            order.append(top)
            active[top] = False
            stack.pop()
    rank = dict(zip(order, range(len(order))))

    def meet(a, b):  # nearest common post-dominator; ids compare by value
        while a != b:
            while rank[a] < rank[b]:
                a = ipdom[a]
            while rank[b] < rank[a]:
                b = ipdom[b]
        return a

    # reverse post-order, root excluded, each node with its predecessors in
    # the reversed graph
    todo = [
        (n, tuple(map(_target_id, adj[n].outgoing)) or (_EXIT,))
        for n in reversed(order[:-1])
    ]
    ipdom = {_EXIT: _EXIT}
    changed = True
    while changed:
        changed = False
        for n, preds in todo:
            new = None
            for p in preds:
                if p in ipdom:
                    new = p if new is None else meet(p, new)
            if ipdom.get(n) != new:
                ipdom[n] = new
                changed = True
        # with no cycle every predecessor comes before its node in this
        # order, so the first pass is already exact
        changed = changed and cyclic
    return ipdom


def _is_agentic_gateway(node, direction: GatewayDirection) -> bool:
    return (
        isinstance(node, Gateway)
        and node.agentic is not None
        and node.agentic.direction is direction
    )


def analyze_regions(
    model: ProcessModel,
) -> Mapping[str, Union[CollaborationRegion, ModelError]]:
    """Every agentic diverging gateway mapped to its collaboration region,
    or to the :class:`ModelError` that prevents one.

    Computed once per model, on first use, and shared by every caller;
    gateways appear in pool order, then by id.  Cached errors carry no
    traceback.
    """
    return model._regions


def _match_regions(model: ProcessModel) -> dict:
    out = {}
    diverging = GatewayDirection.DIVERGING
    for pool in model.pools:
        # construction admits no subclass of Gateway, so this tests isinstance
        gateways = [
            n.id for n in pool.nodes
            if n.__class__ is Gateway
            and n.agentic is not None
            and n.agentic.direction is diverging
        ]
        if not gateways:
            continue
        postdom = _post_dominators(model, pool)
        for gw_id in gateways:
            try:
                out[gw_id] = _match_region(model, postdom, gw_id)
            except ModelError as exc:
                out[gw_id] = exc.with_traceback(None)
    return out


def find_merge_for(model: ProcessModel, diverging_id: str) -> CollaborationRegion:
    """Match a diverging agentic gateway to its collaboration region.

    The merging gateway is defined as the nearest agentic merging
    gateway that post-dominates the diverging gateway within its pool's
    sequence-flow graph.  A lookup into :func:`analyze_regions`; a
    failure raises a fresh error of the cached one's class and message.
    """
    model_get(model, diverging_id)  # unknown ids raise DanglingReference
    result = analyze_regions(model).get(diverging_id)
    if result is None:
        raise NoMatchingMerge(f"{diverging_id!r} is not an agentic diverging gateway")
    if isinstance(result, ModelError):
        raise type(result)(*result.args)
    return result


def _match_region(model: ProcessModel, ipdom: dict, diverging_id: str) -> CollaborationRegion:
    # the nearest agentic merge is the first one up the ipdom chain
    merge = ipdom.get(diverging_id, _EXIT)
    while merge is not _EXIT and not _is_agentic_gateway(
        model.index[merge], GatewayDirection.MERGING
    ):
        merge = ipdom[merge]
    if merge is _EXIT:
        raise NoMatchingMerge(
            f"no agentic merging gateway post-dominates {diverging_id!r}"
        )

    # each branch is a chain of nodes with one flow in and one flow out; the
    # walk cannot loop, since a loop of such nodes through the entry flow
    # would pass the diverging gateway, which then could reach no exit
    adj = model._adjacency
    branches = []
    for entry in adj[diverging_id].outgoing:
        branch = [diverging_id]
        node_id = entry.target_id
        while node_id != merge:
            links = adj[node_id]
            if len(links.incoming) != 1 or len(links.outgoing) != 1:
                raise MalformedRegion(
                    f"branch through flow {entry.id!r} is not a chain at "
                    f"{node_id!r}: branch nodes need one flow in and one flow out"
                )
            branch.append(node_id)
            node_id = links.outgoing[0].target_id
        branch.append(merge)
        branches.append(tuple(branch))

    lanes = frozenset(
        model.index[node_id].lane_id for b in branches for node_id in b
    )
    return CollaborationRegion(
        diverging_gateway_id=diverging_id,
        merging_gateway_id=merge,
        branches=tuple(branches),
        participant_lane_ids=lanes,
    )


def _match_message_regions(model: ProcessModel) -> dict:
    """Source node id of each agentic outgoing message flow -> (the
    ``W-MULTIPOOL`` warnings of its flows that open no region, the
    :class:`MessageRegion` of the first that does or None).  The flows are
    tried in id order, each paired with the first incoming flow, by id, from
    its target's pool back to the node's pool; the first pair ends the
    search, even one that a multi-instance pool ends."""
    outgoing: dict = {}
    incoming: dict = {}  # (source pool id, target pool id) -> first flow
    pools = model._node_pools
    opens = GatewayDirection.DIVERGING
    for flow in model.message_flows:
        if flow.agentic is None:
            continue
        if flow.agentic.direction is opens:
            outgoing.setdefault(flow.source_id, []).append(flow)
        else:
            incoming.setdefault((pools[flow.source_id].id, pools[flow.target_id].id), flow)
    out = {}
    for node_id, flows in outgoing.items():
        here, warnings, region = pools[node_id], [], None
        for flow in flows:
            remote = pools[flow.target_id]
            back = incoming.get((remote.id, here.id))
            if back is None:
                warnings.append(f"W-MULTIPOOL {flow.id}: no matching incoming merge flow")
                continue
            if here.multi_instance or remote.multi_instance:
                warnings.append(
                    f"W-MULTIPOOL {flow.id}: multi-instance pool endpoints are not executed"
                )
            else:
                region = _walk_chain(model._adjacency, flow, back)
            break
        out[node_id] = (tuple(warnings), region)
    return out


def _walk_chain(adj: dict, flow: MessageFlow, back: MessageFlow) -> MessageRegion:
    chain: dict = {}  # the nodes visited, in order
    node_id = flow.target_id
    stop = "walk cycles"
    while node_id not in chain:
        chain[node_id] = None
        if node_id == back.source_id:
            return MessageRegion(flow, back, tuple(chain), None)
        nexts = adj[node_id].outgoing
        if len(nexts) != 1:
            stop = "is not a linear chain"
            break
        node_id = nexts[0].target_id
    return MessageRegion(flow, back, tuple(chain), f"W-MULTIPOOL {flow.id}: remote pool {stop}")


def region_roles(model: ProcessModel, region: CollaborationRegion) -> dict:
    """Role of every participant lane; non-agentic lanes map to ``"human"``."""
    roles = {}
    for lane_id in sorted(region.participant_lane_ids):
        lane = model_get(model, lane_id)
        roles[lane_id] = lane.agentic.role if lane.agentic else HUMAN
    return roles
