"""The region matcher as it stood before immediate post-dominators.

Kept verbatim as a differential oracle: set-based post-dominators, the
nearest-candidate search and exhaustive simple-path enumeration per
branch.  Exponential in the number of diamonds on a branch, so use it on
small graphs only.
"""

from hagent.model import (
    CollaborationRegion,
    GatewayDirection,
    MalformedRegion,
    NoMatchingMerge,
    Pool,
    ProcessModel,
    _is_agentic_gateway,
)

_EXIT = object()  # virtual exit for post-dominator analysis


def _post_dominators(model: ProcessModel, pool: Pool) -> dict:
    """Post-dominator sets over the pool's sequence-flow graph.

    Computed as dominators of the reversed graph rooted at a virtual
    exit that collects every node without outgoing flows.
    """
    adj = model._adjacency
    nodes = [n.id for n in pool.nodes]
    exits = [n for n in nodes if not adj[n].outgoing]

    def rsucc(n):  # successors in the reversed graph
        return exits if n is _EXIT else [f.source_id for f in adj[n].incoming]

    def rpred(n):  # predecessors in the reversed graph
        return [f.target_id for f in adj[n].outgoing] or [_EXIT]

    order = []
    seen = set()

    def visit(n):
        stack = [(n, iter(rsucc(n)))]
        seen.add(n)
        while stack:
            top, it = stack[-1]
            advanced = False
            for s in it:
                if s not in seen:
                    seen.add(s)
                    stack.append((s, iter(rsucc(s))))
                    advanced = True
                    break
            if not advanced:
                order.append(top)
                stack.pop()

    visit(_EXIT)
    rpo = list(reversed(order))

    universe = set(nodes) | {_EXIT}
    dom = {n: universe for n in nodes}
    dom[_EXIT] = {_EXIT}
    changed = True
    while changed:
        changed = False
        for n in rpo:
            if n is _EXIT:
                continue
            preds = [dom[p] for p in rpred(n)]
            new = set.intersection(*preds) if preds else set()
            new = new | {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def _match_region(model: ProcessModel, postdom: dict, diverging_id: str) -> CollaborationRegion:
    candidates = [
        n
        for n in postdom.get(diverging_id, set())
        if n is not _EXIT
        and n != diverging_id
        and _is_agentic_gateway(model.index[n], GatewayDirection.MERGING)
    ]
    if not candidates:
        raise NoMatchingMerge(
            f"no agentic merging gateway post-dominates {diverging_id!r}"
        )
    # post-dominators of a node form a chain; the nearest candidate is the
    # one that every other candidate post-dominates
    nearest = None
    for m in candidates:
        if all(other == m or other in postdom[m] for other in candidates):
            nearest = m
            break
    if nearest is None:  # should not happen on a chain
        raise MalformedRegion("post-dominator candidates do not form a chain")

    # enumerate all simple paths from the diverging gateway to the merge,
    # one DFS per outgoing edge so parallel edges give separate branches
    adj = model._adjacency
    branches = []
    for entry in adj[diverging_id].outgoing:
        paths = []
        _simple_paths(adj, entry.target_id, nearest, [diverging_id], paths)
        if len(paths) != 1:
            raise MalformedRegion(
                f"branch through flow {entry.id!r} yields {len(paths)} paths; "
                "branches must be single node-disjoint chains"
            )
        branches.append(tuple(paths[0]))

    interiors = [set(b[1:-1]) for b in branches]
    combined: set = set()
    for interior in interiors:
        if combined & interior:
            raise MalformedRegion("branch interiors overlap")
        combined |= interior

    region_nodes = combined | {diverging_id, nearest}
    for n in combined:
        for flow in adj[n].incoming:
            if flow.source_id not in region_nodes:
                raise MalformedRegion(
                    f"branch node {n!r} is entered from outside the region"
                )
        for flow in adj[n].outgoing:
            if flow.target_id not in region_nodes:
                raise MalformedRegion(
                    f"branch node {n!r} exits the region via {flow.id!r}"
                )

    lanes = frozenset(
        model.index[node_id].lane_id for b in branches for node_id in b
    )
    return CollaborationRegion(
        diverging_gateway_id=diverging_id,
        merging_gateway_id=nearest,
        branches=tuple(branches),
        participant_lane_ids=lanes,
    )


def _simple_paths(adj, start, goal, prefix, out):
    path = prefix + [start]
    if start == goal:
        out.append(path)
        return
    for flow in adj[start].outgoing:
        if flow.target_id in path:
            continue
        _simple_paths(adj, flow.target_id, goal, path, out)
