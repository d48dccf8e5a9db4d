"""Checks each operation's output against the outcome the generator built in.

Every check runs outside the timed region.  A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import List

from gen import Expect

_MARKER = re.compile(rb'data-hagent-code="([^"]*)"')
_ELEMENT = re.compile(rb'data-element-id="([^"]*)"')
_REFUSED = "hagent: simulation failed: model has validation errors: "


def _diagnostic_lines(text: str) -> Counter:
    """(code, element id) of each ``CODE elementId: message`` line."""
    out: Counter = Counter()
    for line in text.splitlines():
        code, _, rest = line.partition(" ")
        out[(code, rest.partition(":")[0])] += 1
    return out


def _diff(what, got: Counter, want: Counter) -> List[str]:
    if got == want:
        return []
    return [f"{what}: unexpected {dict(got - want)}, missing {dict(want - got)}"]


def check_validate(x: Expect, outcome) -> List[str]:
    code, stdout, stderr, _ = outcome
    problems = []
    if code != (0 if x.valid else 1):
        problems.append(f"validate exit {code}")
    problems += _diff("validate diagnostics", _diagnostic_lines(stdout), x.diagnostics)
    if stderr:
        problems.append(f"validate stderr {stderr[:200]!r}")
    return problems


def check_simulate(x: Expect, outcome) -> List[str]:
    code, stdout, stderr, trace = outcome
    if not x.valid:
        if code != 1:
            return [f"simulate of an invalid model exited {code}"]
        if not x.parse_ok:
            return _diff("simulate parse errors", _diagnostic_lines(stderr), x.errors)
        if not stderr.startswith(_REFUSED):
            return [f"simulate refusal text {stderr[:200]!r}"]
        got = set(stderr[len(_REFUSED):].strip().split(", "))
        want = {c for c, _ in x.errors}
        return [] if got == want else [f"simulate refused for {got}, expected {want}"]
    if code != 0 or trace is None:
        return [f"simulate exit {code}: {stderr[:200]!r}"]
    merges = []
    kinds: Counter = Counter()
    for line in trace.decode("utf-8").splitlines():
        fields = line.split("\t")
        kinds[fields[1]] += 1
        if fields[1] == "MergeDecision":
            chosen = fields[3].split(" ")[1]
            merges.append((fields[2], chosen[len("chosen="):]))
    problems = []
    if tuple(merges) != x.merges:
        problems.append(f"merge decisions {merges[:4]}..., expected {list(x.merges[:4])}...")
    for kind, want in (
        ("TaskDone", x.task_done),
        ("ReflectionRound", x.reflection_rounds),
        ("TokenEnd", x.token_end),
    ):
        if kinds[kind] != want:
            problems.append(f"{kind} {kinds[kind]}, expected {want}")
    return problems


def check_render(x: Expect, outcome) -> List[str]:
    code, stdout, stderr, svg = outcome
    if not x.valid:
        if code != 1:
            return [f"render of an invalid model exited {code}"]
        return _diff("render refusal", _diagnostic_lines(stderr), x.errors)
    if code != 0 or svg is None:
        return [f"render exit {code}: {stderr[:200]!r}"]
    markers = Counter(m.decode("utf-8") for m in _MARKER.findall(svg))
    problems = _diff("render markers", markers, x.markers)
    drawn = {e.decode("utf-8") for e in _ELEMENT.findall(svg)}
    if not x.node_ids <= drawn:
        problems.append(f"render misses nodes {sorted(x.node_ids - drawn)[:5]}")
    return problems


def check_roundtrip(x: Expect, outcome, xmlio) -> List[str]:
    """The re-parsed model equals the parsed one and serialization is idempotent."""
    parsed, data = outcome
    if not x.parse_ok:
        if parsed.model is not None:
            return ["a document with parse defects produced a model"]
        got = Counter((d.code, d.element_id or "-") for d in parsed.diagnostics)
        return _diff("parse diagnostics", got, x.diagnostics)
    if parsed.model is None:
        return [f"parse failed: {[d.code for d in parsed.diagnostics]}"]
    problems = []
    ids = {n.id for n in parsed.model.iter_nodes()}
    if ids != x.node_ids:
        problems.append(f"parsed nodes differ from generated: {sorted(ids ^ x.node_ids)[:5]}")
    again = xmlio.parse_model(data)
    if again.model != parsed.model:
        problems.append("re-parsed model differs from the parsed one")
    elif xmlio.serialize_model(again.model) != data:
        problems.append("serialization is not idempotent")
    return problems


def signature(op: str, outcome):
    """What must repeat exactly once an output has passed its check."""
    if op == "roundtrip":
        parsed, data = outcome
        return data if data is not None else tuple(parsed.diagnostics)
    return outcome
