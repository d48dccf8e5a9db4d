"""Agentic well-formedness rules over a model.

Each rule has a stable code; ``validate_model`` is a total function whose
output order is fixed by (code, element id), so identical models yield
identical diagnostic lists.  What the XML form can carry is the reader's
to say: a model built in Python is checked by reading back its XML.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from itertools import chain
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from hagent import model as m
from hagent.xmlio import Diagnostic, Severity, parse_model, serialize_model, written_texts


class Rule(NamedTuple):
    code: str
    severity: Severity
    description: str
    check: Callable[[m.ProcessModel], Iterable[Tuple[Optional[str], str]]]  # (element id, message)


def _check_pair(model):
    for gw_id, result in m.analyze_regions(model).items():
        if isinstance(result, m.ModelError):
            yield gw_id, str(result)


def _is_manager(lane) -> bool:
    # custom roles are worker-equivalent; only the literal manager counts
    return lane.agentic is not None and lane.agentic.role == m.MANAGER


def _check_manager(model):
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
        yield merge_gw.id, "leader-driven or debate region has no manager-role lane as decider"


def _check_reflection_refs(model):
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
                    yield node.id, f"cross-reflection reviewer {lane_id!r} is not an agentic lane"
                elif lane_id == node.lane_id:
                    yield node.id, "cross-reflection reviewer must differ from the task's lane"
        elif refl.kind is m.ReflectionKind.HUMAN:
            lane = model.index.get(refl.human_lane_id)
            if not isinstance(lane, m.Lane) or lane.agentic is not None:
                yield node.id, (
                    f"human-reflection lane {refl.human_lane_id!r} "
                    "must be an existing non-agentic lane"
                )


def _pool_is_agentic(pool) -> bool:
    return any(lane.agentic is not None for lane in pool.lanes)


def _check_message_direction(model):
    for flow in model.message_flows:
        if flow.agentic is None:
            continue
        if flow.agentic.direction is m.GatewayDirection.DIVERGING:
            if not _pool_is_agentic(model.pool_of(flow.target_id)):
                yield flow.id, "collaboration message flow must target an agentic pool"
        elif not _pool_is_agentic(model.pool_of(flow.source_id)):
            yield flow.id, "merge message flow must come from an agentic pool"


def _check_vote_arity(model):
    for region in m.analyze_regions(model).values():
        if isinstance(region, m.ModelError):
            continue
        merge_gw = model.index[region.merging_gateway_id]
        if (
            merge_gw.agentic.merge in m.VOTING_STRATEGIES
            and len(region.branches) < 2
        ):
            yield merge_gw.id, "voting merge needs at least 2 branches"


_STRATEGY_WORDS = re.compile(
    r"\b(voting?|vote|majority|minority|leader|composed|competition|"
    r"fastest|complete|debate|merge|consensus)\b",
    re.IGNORECASE,
)


def _check_annotation_workaround(model):
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
                    yield gw_id, (
                        "complex gateway with strategy-like annotation; "
                        "consider an agentic merging gateway"
                    )


def _check_missing_trust(model):
    for pool in model.pools:
        for lane in pool.lanes:
            if lane.agentic is not None and lane.agentic.trust is None:
                yield lane.id, "agentic lane has no trust score"


# characters outside XML 1.0's Char production, lone surrogates included
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_xml_chars(model):
    # one pass over every text the writer puts into the document, joined; a
    # printable text holds none of these characters, and isprintable is
    # cheaper than the search.  The culprits are looked for only on a hit
    joined = "".join(chain.from_iterable(texts for _, _, texts in written_texts(model)))
    if joined.isprintable() or not _NOT_XML_CHAR.search(joined):
        return []
    return [
        Diagnostic(
            Severity.ERROR,
            "E-XML",
            None if element is model else element.id,
            f"{field} {text!r} holds {char!r}, which XML 1.0 cannot carry",
        )
        for field, elements, texts in written_texts(model)
        for element, text in zip(elements, texts)
        for char in dict.fromkeys(_NOT_XML_CHAR.findall(text))
    ]


CATALOG: List[Rule] = [
    Rule("E-PAIR", Severity.ERROR, "diverging agentic gateway has a matching merge", _check_pair),
    Rule("E-MGR", Severity.ERROR, "leader-driven/debate region has a manager decider", _check_manager),
    Rule("E-REFL-REF", Severity.ERROR, "reflection reviewer/human lanes resolve correctly", _check_reflection_refs),
    Rule("E-MSG-DIR", Severity.ERROR, "agentic message flows point at agentic pools", _check_message_direction),
    Rule("E-VOTE-ARITY", Severity.ERROR, "voting merges span at least 2 branches", _check_vote_arity),
    Rule("W-ANNOT-STRATEGY", Severity.WARNING, "complex-gateway strategy annotations flagged", _check_annotation_workaround),
    Rule("W-NO-TRUST", Severity.WARNING, "agentic lanes carry a trust score", _check_missing_trust),
]


def _check_read_back(model):
    # the reader is the one boundary: the document serialize_model writes
    # must read back as an equal model.  Its warnings are left out: opaque
    # fragments, which a model holds on purpose, give W-UNSUPPORTED
    result = parse_model(serialize_model(model))
    if result.model is None:
        return result.errors
    for element_id, old, new in chain(
        [(None, model, result.model)],
        ((key, elem, result.model.index.get(key)) for key, elem in model.index.items()),
    ):
        message = _difference(old, new, "")
        if message is not None:
            return [Diagnostic(Severity.ERROR, "E-XML", element_id, message)]
    return []


def _difference(old, new, path):
    """The dotted path from ``path`` to the first field in which ``new``
    differs from ``old``, with both values, descending through records; None
    if none differs.  A tuple of records is compared by the records' ids:
    each of them is an element of the index, compared on its own."""
    if type(old) is type(new) and is_dataclass(old):
        for f in fields(old):
            if f.compare:
                name = f"{path}.{f.name}" if path else f.name
                message = _difference(getattr(old, f.name), getattr(new, f.name), name)
                if message is not None:
                    return message
        return None
    old, new = _ids(old), _ids(new)
    if old == new:
        return None
    return f"{path} {old!r} reads back as {new!r}".lstrip()


def _ids(value):
    if isinstance(value, tuple) and value and is_dataclass(value[0]):
        return tuple(record.id for record in value)
    return value


def validate_model(model: m.ProcessModel) -> List[Diagnostic]:
    """All rule violations, ordered by (rule code, element id).

    A model that ``parse_model`` did not build (``model.parsed`` is false)
    is also read back: ``E-XML`` for each character XML 1.0 cannot carry,
    or else the reader's errors on the document ``serialize_model`` writes
    for it, or else one ``E-XML`` naming the first field that does not read
    back as it is.  A parsed model is not read back: its reader held it.

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
        # a document holding such a character is refused whole, with no element
        out += _check_xml_chars(model) or _check_read_back(model)
    for rule in CATALOG:
        for element_id, message in rule.check(model):
            out.append(Diagnostic(rule.severity, rule.code, element_id, message))
    out.sort(key=lambda d: (d.code, d.element_id or ""))
    return out


def render_diagnostics(diagnostics) -> str:
    """Stable text rendering: ``CODE elementId: message``, one per line."""
    lines = []
    for d in diagnostics:
        elem = d.element_id or "-"
        lines.append(f"{d.code} {elem}: {d.message}")
    return "\n".join(lines)
