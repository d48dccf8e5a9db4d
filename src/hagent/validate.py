"""Agentic well-formedness rules over a parsed model.

Each rule has a stable code; ``validate_model`` is a total function whose
output order is fixed by (code, element id), so identical models yield
identical diagnostic lists.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Callable, List, NamedTuple

from hagent import model as m
from hagent.xmlio import Diagnostic, Severity, written_texts


class Rule(NamedTuple):
    code: str
    severity: Severity
    description: str
    check: Callable[[m.ProcessModel], List[Diagnostic]]


def _diag(rule_code, severity, element_id, message) -> Diagnostic:
    return Diagnostic(severity, rule_code, element_id, message)


def _check_pair(model):
    return [
        _diag("E-PAIR", Severity.ERROR, gw_id, str(result))
        for gw_id, result in m.analyze_regions(model).items()
        if isinstance(result, m.ModelError)
    ]


def _is_manager(lane) -> bool:
    # custom roles are worker-equivalent; only the literal manager counts
    return lane.agentic is not None and lane.agentic.role == m.MANAGER


def _check_manager(model):
    out = []
    for region in m.analyze_regions(model).values():
        if isinstance(region, m.ModelError):
            continue
        gw = model.index[region.diverging_gateway_id]
        merge_gw = model.index[region.merging_gateway_id]
        needs_manager = (
            merge_gw.agentic.merge is m.MergeStrategy.ROLE_LEADER_DRIVEN
            or gw.agentic.collaboration is m.CollaborationMode.DEBATE
        )
        if not needs_manager:
            continue
        decider = model.index[merge_gw.lane_id]
        if _is_manager(decider):
            continue
        if any(
            _is_manager(model.index[lane_id])
            for lane_id in region.participant_lane_ids
        ):
            continue
        out.append(
            _diag(
                "E-MGR",
                Severity.ERROR,
                merge_gw.id,
                "leader-driven or debate region has no manager-role lane as decider",
            )
        )
    return out


def _check_xor_agentic(model):
    out = []
    for node in model.iter_nodes():
        if (
            isinstance(node, m.Gateway)
            and node.agentic is not None
            and node.kind in (m.GatewayKind.EXCLUSIVE, m.GatewayKind.COMPLEX)
        ):
            out.append(
                _diag(
                    "E-XOR-AGENTIC",
                    Severity.ERROR,
                    node.id,
                    f"agentic info not allowed on {node.kind.value} gateway",
                )
            )
    return out


def _iter_trust_scores(model):
    for pool in model.pools:
        for lane in pool.lanes:
            if lane.agentic and lane.agentic.trust:
                yield lane.id, lane.agentic.trust
        for node in pool.nodes:
            agentic = getattr(node, "agentic", None)
            if agentic is not None and agentic.trust is not None:
                yield node.id, agentic.trust
    for flow in model.message_flows:
        if flow.agentic is not None and flow.agentic.trust is not None:
            yield flow.id, flow.agentic.trust


def _check_trust_range(model):
    out = []
    for elem_id, trust in _iter_trust_scores(model):
        if not 0 <= trust.value <= 100:
            out.append(
                _diag(
                    "E-TRUST-RANGE",
                    Severity.ERROR,
                    elem_id,
                    f"trust score {trust.value} outside 0..100",
                )
            )
    return out


def _check_reflection_refs(model):
    out = []
    for node in model.iter_nodes():
        if not isinstance(node, m.Task) or node.agentic is None:
            continue
        refl = node.agentic.reflection
        if refl is None:
            continue
        if refl.kind is m.ReflectionKind.CROSS:
            for lane_id in refl.reviewer_lane_ids:
                lane = model.index.get(lane_id)
                if not isinstance(lane, m.Lane) or lane.agentic is None:
                    out.append(
                        _diag(
                            "E-REFL-REF",
                            Severity.ERROR,
                            node.id,
                            f"cross-reflection reviewer {lane_id!r} is not an agentic lane",
                        )
                    )
                elif lane_id == node.lane_id:
                    out.append(
                        _diag(
                            "E-REFL-REF",
                            Severity.ERROR,
                            node.id,
                            "cross-reflection reviewer must differ from the task's lane",
                        )
                    )
        elif refl.kind is m.ReflectionKind.HUMAN:
            lane = model.index.get(refl.human_lane_id)
            if not isinstance(lane, m.Lane) or lane.agentic is not None:
                out.append(
                    _diag(
                        "E-REFL-REF",
                        Severity.ERROR,
                        node.id,
                        f"human-reflection lane {refl.human_lane_id!r} "
                        "must be an existing non-agentic lane",
                    )
                )
    return out


def _pool_is_agentic(pool) -> bool:
    return any(lane.agentic is not None for lane in pool.lanes)


def _check_message_direction(model):
    out = []
    for flow in model.message_flows:
        if flow.agentic is None:
            continue
        if flow.agentic.direction is m.MessageFlowDirection.OUTGOING:
            target_pool = model.pool_of(flow.target_id)
            if not _pool_is_agentic(target_pool):
                out.append(
                    _diag(
                        "E-MSG-DIR",
                        Severity.ERROR,
                        flow.id,
                        "collaboration message flow must target an agentic pool",
                    )
                )
        else:
            source_pool = model.pool_of(flow.source_id)
            if not _pool_is_agentic(source_pool):
                out.append(
                    _diag(
                        "E-MSG-DIR",
                        Severity.ERROR,
                        flow.id,
                        "merge message flow must come from an agentic pool",
                    )
                )
    return out


def _check_vote_arity(model):
    out = []
    for region in m.analyze_regions(model).values():
        if isinstance(region, m.ModelError):
            continue
        merge_gw = model.index[region.merging_gateway_id]
        if (
            merge_gw.agentic.merge in m.VOTING_STRATEGIES
            and len(region.branches) < 2
        ):
            out.append(
                _diag(
                    "E-VOTE-ARITY",
                    Severity.ERROR,
                    merge_gw.id,
                    "voting merge needs at least 2 branches",
                )
            )
    return out


_STRATEGY_WORDS = re.compile(
    r"\b(voting?|vote|majority|minority|leader|composed|competition|"
    r"fastest|complete|debate|merge|consensus)\b",
    re.IGNORECASE,
)


def _check_annotation_workaround(model):
    out = []
    for pool in model.pools:
        annotations = {
            a.id: a for a in pool.artifacts if isinstance(a, m.Annotation)
        }
        complex_gateways = {
            n.id
            for n in pool.nodes
            if isinstance(n, m.Gateway) and n.kind is m.GatewayKind.COMPLEX
        }
        for assoc in pool.artifacts:
            if not isinstance(assoc, m.Association):
                continue
            for ann_id, gw_id in (
                (assoc.source_id, assoc.target_id),
                (assoc.target_id, assoc.source_id),
            ):
                ann = annotations.get(ann_id)
                if (
                    ann is not None
                    and gw_id in complex_gateways
                    and _STRATEGY_WORDS.search(ann.text)
                ):
                    out.append(
                        _diag(
                            "W-ANNOT-STRATEGY",
                            Severity.WARNING,
                            gw_id,
                            "complex gateway with strategy-like annotation; "
                            "consider an agentic merging gateway",
                        )
                    )
    return out


def _check_missing_trust(model):
    out = []
    for pool in model.pools:
        for lane in pool.lanes:
            if lane.agentic is not None and lane.agentic.trust is None:
                out.append(
                    _diag(
                        "W-NO-TRUST",
                        Severity.WARNING,
                        lane.id,
                        "agentic lane has no trust score",
                    )
                )
    return out


# characters outside XML 1.0's Char production, lone surrogates included
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_extension_values(model):
    # values a built model may hold that serialize_model cannot write in a
    # form parse_model reads back; in a document parse_model reports them
    out = []

    def problem(element_id, message):
        out.append(_diag("E-EXT", Severity.ERROR, element_id, message))

    task, cross = m.Task, m.ReflectionKind.CROSS  # looked up once per model
    for pool in model.pools:
        for lane in pool.lanes:
            if lane.agentic is not None and not lane.agentic.role:
                problem(lane.id, "agentProfile requires a role")
        for node in pool.nodes:
            if not isinstance(node, task) or node.agentic is None:
                continue
            info = node.agentic
            refl = info.reflection
            if refl is None:
                if info.trust is None:
                    problem(node.id, "agentic task has neither reflection nor uncertainty")
                continue
            if refl.max_rounds < 1:
                problem(node.id, f"maxRounds {str(refl.max_rounds)!r} must be a positive integer")
            if refl.kind is cross and not refl.reviewer_lane_ids:
                problem(node.id, "cross reflection requires reviewers")
            for lane_id in refl.reviewer_lane_ids:
                # the reviewers attribute is a comma-separated, stripped list
                if not lane_id or lane_id != lane_id.strip() or "," in lane_id:
                    problem(node.id, f"reviewers cannot hold the lane id {lane_id!r}")
            if refl.human_lane_id == "":
                problem(node.id, "an empty human lane id reads back as none")
    return out


def _check_xml_chars(model):
    # one pass over every text the writer puts into the document, joined; a
    # printable text holds none of these characters, and isprintable is
    # cheaper than the search.  The culprits are looked for only on a hit
    joined = "".join(chain.from_iterable(texts for _, _, texts in written_texts(model)))
    if joined.isprintable() or not _NOT_XML_CHAR.search(joined):
        return []
    return [
        _diag(
            "E-XML",
            Severity.ERROR,
            None if element is model else element.id,
            f"{field} {text!r} holds {char!r}, which XML 1.0 cannot carry",
        )
        for field, elements, texts in written_texts(model)
        for element, text in zip(elements, texts)
        for char in dict.fromkeys(_NOT_XML_CHAR.findall(text))
    ]


def _check_read_back_texts(model):
    # the reader refuses an empty id (the index holds at most one), strips a
    # condition, reads an empty one as none, and strips the node ids it reads
    # from flowNodeRef (str.strip: XML's white space and Unicode's); it
    # reads a definitions element without an id as a model called
    # "definitions"
    out = []
    if not model.id:
        out.append(_diag("E-REF", Severity.ERROR, None, "model <definitions> lacks an id"))
    if "" in model.index:
        kind = type(model.index[""]).__name__
        kind = kind[0].lower() + kind[1:]  # a task reads "task <task>", as the reader says
        out.append(_diag("E-REF", Severity.ERROR, None, f"{kind} <{kind}> lacks an id"))
    for pool in model.pools:
        for node in pool.nodes:
            if node.id != node.id.strip():
                message = f"id {node.id!r} has white space at an end, which a flowNodeRef loses"
                out.append(_diag("E-XML", Severity.ERROR, node.id, message))
        for flow in pool.flows:
            condition = flow.condition
            if condition is not None and (not condition or condition != condition.strip()):
                problem = "is empty" if not condition else "has white space at an end"
                message = f"condition {condition!r} {problem}, which the reader does not keep"
                out.append(_diag("E-XML", Severity.ERROR, flow.id, message))
    return out


CATALOG: List[Rule] = [
    Rule("E-PAIR", Severity.ERROR, "diverging agentic gateway has a matching merge", _check_pair),
    Rule("E-MGR", Severity.ERROR, "leader-driven/debate region has a manager decider", _check_manager),
    Rule("E-XOR-AGENTIC", Severity.ERROR, "no agentic info on exclusive/complex gateways", _check_xor_agentic),
    Rule("E-TRUST-RANGE", Severity.ERROR, "trust scores within 0..100", _check_trust_range),
    Rule("E-REFL-REF", Severity.ERROR, "reflection reviewer/human lanes resolve correctly", _check_reflection_refs),
    Rule("E-MSG-DIR", Severity.ERROR, "agentic message flows point at agentic pools", _check_message_direction),
    Rule("E-VOTE-ARITY", Severity.ERROR, "voting merges span at least 2 branches", _check_vote_arity),
    Rule("W-ANNOT-STRATEGY", Severity.WARNING, "complex-gateway strategy annotations flagged", _check_annotation_workaround),
    Rule("W-NO-TRUST", Severity.WARNING, "agentic lanes carry a trust score", _check_missing_trust),
]


def validate_model(model: m.ProcessModel) -> List[Diagnostic]:
    """All rule violations, ``E-REF`` for an empty id, ``E-EXT`` for values
    the XML form cannot carry and ``E-XML`` for characters XML 1.0 cannot
    carry or texts the reader would not read back as they are, ordered by
    (rule code, element id).  The last three are not tested again on a model
    that ``parse_model`` built (``model.parsed``): its reader held them.

    Computed once per model, on first use, and shared by every caller, as
    :func:`hagent.model.analyze_regions` is; each call returns a new list.
    """
    found = vars(model).get("_diagnostics")
    if found is None:
        # models are immutable and parse_model sets parsed before it returns
        found = vars(model)["_diagnostics"] = tuple(_diagnose(model))
    return list(found)


def _diagnose(model: m.ProcessModel) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    if not model.parsed:
        out += _check_extension_values(model)
        out += _check_xml_chars(model)
        out += _check_read_back_texts(model)
    for rule in CATALOG:
        out.extend(rule.check(model))
    out.sort(key=lambda d: (d.code, d.element_id or ""))
    return out


def render_diagnostics(diagnostics) -> str:
    """Stable text rendering: ``CODE elementId: message``, one per line."""
    lines = []
    for d in diagnostics:
        elem = d.element_id or "-"
        lines.append(f"{d.code} {elem}: {d.message}")
    return "\n".join(lines)
