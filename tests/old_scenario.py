"""The scenario loader as it stood before the schema-driven reader.

Kept verbatim as a differential oracle: ``_scan`` builds the document's
generic dicts and lists from the text (or hands it to the composing
loader), and seven shape helpers then walk those values into the policy
records, which it shares with :mod:`hagent.scenario` so that policies
compare equal.
"""

from __future__ import annotations

import re
from typing import List, Optional

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

from hagent import model as m
from hagent.scenario import CandidateOutput, LaneScript, ScenarioPolicy, ScriptedBehavior

if yaml.__with_libyaml__:
    from yaml.cyaml import CParser

    class _ScenarioLoader(Composer, CParser, SafeConstructor, Resolver):
        """libyaml scans and parses; the rest is ``yaml.safe_load``'s Python.

        The Python composer comes before ``CParser`` so that its methods
        win: libyaml's composer recurses on the C stack and crashes the
        interpreter on deep nesting, where the Python one raises
        ``RecursionError``.  The constructor and resolver are the ones
        ``safe_load`` uses, so the values are the same.
        """

        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

else:
    _ScenarioLoader = yaml.SafeLoader

# Deeper documents go to the composing loader, as before; a scenario nests
# at most 6 deep.
_MAX_DEPTH = 64
# YAML caps a simple key at 1,024 characters; a key on a line no longer than
# this is within the cap.
_MAX_LINE = 1024
# The tags a plain scalar may resolve to, each with its safe_load constructor.
_SCALAR_CONSTRUCTORS = {
    tag: SafeConstructor.yaml_constructors[tag]
    for tag in (
        f"tag:yaml.org,2002:{name}" for name in ("null", "bool", "int", "float", "timestamp")
    )
}
_CONSTRUCTOR = SafeConstructor()  # scalar constructors read only its constants
# Resolver.resolve tries the implicit resolvers listed under a plain scalar's
# first character (PyYAML lists none for any first character); a scalar with
# none is text.  The table itself, so that a resolver added later counts.
_RESOLVERS = Resolver.yaml_implicit_resolvers
_HAND_OFF = object()  # the document uses YAML outside the scanner's subset

# Anything but printable text and "\n": tabs, "\r", NEL, LS and PS (YAML 1.1
# breaks lines at all four), control characters and a byte-order mark.
_OUTSIDE_SUBSET = re.compile(
    "[^\n\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd\U00010000-\U0010ffff]"
)
# Characters that may not start a plain scalar; "-", "?" and ":" may, before
# a non-space (in block context, which is where _plain reads).
_INDICATORS = frozenset("-?:,[]{}#&*!|>'\"%@`")
# A quoted scalar that closes on its line; a double-quoted one has no escape.
_QUOTED_TEXT = r"""'[^']*(?:''[^']*)*'|"[^"\\]*\""""
_QUOTED = re.compile(_QUOTED_TEXT)
_COMMENT = re.compile(" +#")
# A plain scalar in a flow collection: no ":", "?", "," or bracket in it and
# no " #"; it may start with "-" before a non-space.
_FLOW_PLAIN = (
    r"""(?:[^ \-?:,\[\]{}#&*!|>'"%@`]|-(?=[^ ,\[\]{}]))"""
    r"""[^ ,\[\]{}:?]*(?: +[^ ,\[\]{}:?#][^ ,\[\]{}:?]*)*"""
)
# One entry of a one-line flow collection with the indicator after it:
# (plain key, quoted key, plain value, quoted value, indicator); or, where no
# entry matches, the rest of the line.
_FLOW_ENTRY = re.compile(
    f" *(?:(?:({_FLOW_PLAIN})|({_QUOTED_TEXT})) *: +)?"
    f"(?:({_FLOW_PLAIN})|({_QUOTED_TEXT}))? *"
    r"([\[\]{},])|(.+)"
)
# what a one-line flow collection waits for next
_ITEM, _VALUE, _NEXT = range(3)


def _scan(text: str):
    """The document of ``text`` as ``yaml.safe_load`` builds it, read
    straight from the text, one line at a time, with no recursion.

    Reads block mappings and sequences indented with spaces (compact
    ``- key: value`` entries and sequences at their parent key's indent
    included), flow collections that open and close on one line, plain
    scalars, quoted scalars with no escape and no line break, blank lines
    and comments.  Returns ``_HAND_OFF`` for anything else, such as tabs,
    ``\\r``, a byte-order mark, directives, document markers, anchors,
    aliases, tags, block scalars, ``?`` keys, a scalar or flow collection
    that spans lines, merge (``<<``) and value (``=``) scalars, a scalar whose
    safe constructor fails, nesting deeper than ``_MAX_DEPTH``, and any line
    it cannot place; so also for every syntax error.
    """
    if _OUTSIDE_SUBSET.search(text):
        return _HAND_OFF
    holder = [None]
    # where the value of the last "key:" or "-" goes, and whether it may
    # still open on a later line
    slot, key, pending = holder, 0, True
    stack = []  # open block collections, outermost first: (indent, collection)
    done = False  # the document is a scalar or a flow collection
    for line in text.split("\n"):
        body = line.lstrip(" ")
        if not body or body[0] == "#":
            continue
        indent = len(line) - len(body)
        if done or len(line) > _MAX_LINE or (indent == 0 and body[:3] in ("---", "...")):
            return _HAND_OFF
        body = body.rstrip(" ")
        entry = body[0] == "-" and (len(body) == 1 or body[1] == " ")
        inline = not stack  # a scalar may stand here: the document's only line
        if pending and (
            inline
            or indent > stack[-1][0]
            or (indent == stack[-1][0] and entry and type(stack[-1][1]) is dict)
        ):
            opening = True  # a collection opens in the slot
        else:
            opening = False
            while stack[-1][0] > indent:
                stack.pop()
                if not stack:
                    return _HAND_OFF
            if stack[-1][0] != indent:
                return _HAND_OFF
            if type(stack[-1][1]) is list:
                if not entry:
                    # a sequence at its mapping's indent ends at the next key
                    if len(stack) < 2 or stack[-2][0] != indent:
                        return _HAND_OFF
                    stack.pop()
            elif entry:
                return _HAND_OFF
        pending = False
        col = indent
        while True:
            if entry:
                if opening:
                    if len(stack) == _MAX_DEPTH:
                        return _HAND_OFF
                    seq = []
                    slot[key] = seq
                    stack.append((col, seq))
                else:
                    seq = stack[-1][1]
                seq.append(None)
                slot, key = seq, -1
                rest = body[1:].lstrip(" ")
                if not rest or rest[0] == "#":
                    pending = True
                    break
                col += len(body) - len(rest)
                body = rest
                entry = body[0] == "-" and (len(body) == 1 or body[1] == " ")
                opening = inline = True
                continue
            first = body[0]
            keyed = False  # the line holds "key:"
            if first == "'" or first == '"':
                quoted = _QUOTED.match(body)
                if quoted is None:
                    return _HAND_OFF
                after = body[quoted.end():].lstrip(" ")
                if after[:1] == ":" and (len(after) == 1 or after[1] == " "):
                    keyed = True
                    found = _unquote(quoted.group())
                    value = after[1:].lstrip(" ")
            elif first != "[" and first != "{":
                colon = body.find(": ")
                if colon < 0 and body[-1] == ":":
                    colon = len(body) - 1
                if colon >= 0:
                    keyed = True
                    found = _plain(body[:colon].rstrip(" "))
                    if found is _HAND_OFF:
                        return _HAND_OFF
                    value = body[colon + 1:].lstrip(" ")
            if not keyed:
                if not inline:
                    return _HAND_OFF
                value = _node(body, _MAX_DEPTH - len(stack))
                if value is _HAND_OFF:
                    return _HAND_OFF
                slot[key] = value
                done = not stack
                break
            if opening:
                if len(stack) == _MAX_DEPTH:
                    return _HAND_OFF
                mapping = {}
                slot[key] = mapping
                stack.append((col, mapping))
            else:
                mapping = stack[-1][1]
            if not value or value[0] == "#":
                mapping[found] = None
                slot, key, pending = mapping, found, True
            else:
                value = _node(value, _MAX_DEPTH - len(stack))
                if value is _HAND_OFF:
                    return _HAND_OFF
                mapping[found] = value  # a later duplicate key wins, in place
            break
    return holder[0]


def _node(text: str, room: int):
    """The flow collection or scalar that fills ``text``, the rest of a
    block line, with at most ``room`` collections open at once."""
    first = text[0]
    if first == "[" or first == "{":
        return _flow(text, room)
    if first == "'" or first == '"':
        quoted = _QUOTED.match(text)
        if quoted is None:
            return _HAND_OFF
        end = quoted.end()
        if end < len(text) and not _COMMENT.match(text, end):
            return _HAND_OFF
        return _unquote(quoted.group())
    cut = text.find(" #")
    return _plain(text if cut < 0 else text[:cut].rstrip(" "))


def _flow(text: str, room: int):
    """The flow collection that opens at the start of ``text`` and closes
    on it, built with an explicit stack."""
    stack = []  # the enclosing open collections, outermost first
    node = closed = None
    state = _ITEM
    for plain_key, quoted_key, plain, quoted, indicator, rest in _FLOW_ENTRY.findall(text):
        if rest or closed is not None:
            # only a comment may follow the collection
            return closed if closed is not None and _COMMENT.match(rest) else _HAND_OFF
        # keys and values are built inline, not by a helper: this runs for
        # every entry of every flow line
        if plain_key or quoted_key:
            if state != _ITEM or type(node) is not dict:
                return _HAND_OFF
            if quoted_key:
                key = _unquote(quoted_key)
            elif plain_key[0] in _RESOLVERS:
                key = _resolve(plain_key)
                if key is _HAND_OFF:
                    return _HAND_OFF
            else:
                key = plain_key
            state = _VALUE
        if plain or quoted:
            if quoted:
                value = _unquote(quoted)
            elif plain[0] in _RESOLVERS:
                value = _resolve(plain)
                if value is _HAND_OFF:
                    return _HAND_OFF
            else:
                value = plain
            if state == _VALUE:
                node[key] = value
            elif state == _ITEM and type(node) is list:
                node.append(value)
            else:  # a mapping key with no value
                return _HAND_OFF
            state = _NEXT
        if indicator == ",":
            if state != _NEXT:
                return _HAND_OFF
            state = _ITEM
        elif indicator == "]" or indicator == "}":
            # after an entry, an opening or a trailing ","
            if state == _VALUE or (indicator == "]") != (type(node) is list):
                return _HAND_OFF
            if stack:
                node, state = stack.pop(), _NEXT
            else:
                closed = node
        else:  # "[" or "{"
            child = [] if indicator == "[" else {}
            if node is not None:
                if state == _VALUE:
                    node[key] = child
                elif state == _ITEM and type(node) is list:
                    node.append(child)
                else:  # a collection as a key, or a missing ","
                    return _HAND_OFF
                stack.append(node)
            if len(stack) >= room:
                return _HAND_OFF
            node, state = child, _ITEM
    return _HAND_OFF if closed is None else closed


def _unquote(quoted: str) -> str:
    if quoted[0] == "'":
        return quoted[1:-1].replace("''", "'")
    return quoted[1:-1]


def _plain(text: str):
    """The value of the plain scalar ``text`` in block context, or
    ``_HAND_OFF`` when ``text`` is not one plain scalar on its own."""
    if (
        not text
        or (text[0] in _INDICATORS and (text[0] not in "-?:" or text[1:2] in ("", " ")))
        or " #" in text
        or ": " in text
        or text[-1] == ":"
    ):
        return _HAND_OFF
    return _resolve(text) if text[0] in _RESOLVERS else text


def _resolve(text: str):
    """A plain scalar resolved and built as ``yaml.safe_load`` does."""
    for tag, regexp in _RESOLVERS.get(text[0], ()):
        if regexp.match(text):
            construct = _SCALAR_CONSTRUCTORS.get(tag)
            if construct is None:  # merge, value or yaml
                return _HAND_OFF
            try:
                return construct(_CONSTRUCTOR, yaml.ScalarNode(tag, text))
            except ValueError:  # e.g. 2001-02-30
                return _HAND_OFF
    return text


def _optional_str(spec: dict, name: str, key: str) -> Optional[str]:
    value = spec.get(name)
    if isinstance(value, (list, dict)):
        raise ValueError(f"{key}.{name} must be a scalar, got {value!r}")
    return None if value is None else str(value)


def _optional_int(spec: dict, key: str) -> Optional[int]:
    value = spec.get(key)
    return None if value is None else _int(value, key)


def _int(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _mapping(value, key: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a mapping, got {value!r}")
    return value


def _list(value, key: str) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _load_output(raw, key: str) -> CandidateOutput:
    raw = _mapping(raw, key)
    if "label" not in raw:
        raise ValueError(f"{key} has no label")
    confidence = raw.get("confidence")
    return CandidateOutput(
        label=str(raw["label"]),
        payload=str(raw.get("payload", "")),
        confidence=(
            m.mk_trust_score(_int(confidence, "confidence"))
            if confidence is not None else None
        ),
        latency_ms=_optional_int(raw, "latencyMs"),
        completeness=_optional_int(raw, "completeness"),
    )


def load_scenario(text) -> ScenarioPolicy:
    """Load a scenario from YAML text or bytes.

    Raises ``ValueError`` when the text is not UTF-8 or not valid YAML,
    nests too deeply, or holds a tagged value that does not fit its tag
    (``!!bool x``).  Raises ``ValueError`` (or :class:`hagent.model.OutOfRange`),
    naming the key, when the document or a part of it has the wrong
    shape, a confidence lies outside 0..100, a seed, confidence, latency,
    jitter or completeness is not an integer, or a vote or manager pick is
    not a scalar.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    doc = _scan(text)
    if doc is _HAND_OFF:
        try:
            doc = yaml.load(text, Loader=_ScenarioLoader)
        except yaml.YAMLError as exc:
            raise ValueError(f"scenario is not valid YAML: {exc}") from exc
        except RecursionError as exc:
            raise ValueError("scenario nests too deeply") from exc
        except (LookupError, AttributeError) as exc:
            # SafeConstructor on an explicit tag that its text does not fit:
            # "!!int ''" raises IndexError, "!!bool x" KeyError and
            # "!!timestamp x" AttributeError
            raise ValueError(f"scenario has a value that does not fit its tag: {exc!r}") from exc
    raw = _mapping(doc, "scenario")
    per_task = {}
    for task_id, spec in _mapping(raw.get("tasks"), "tasks").items():
        key = f"tasks.{task_id}"
        spec = _mapping(spec, key)
        per_task[str(task_id)] = ScriptedBehavior(
            outputs=[
                _load_output(o, f"{key}.outputs[{i}]")
                for i, o in enumerate(_list(spec.get("outputs"), f"{key}.outputs"))
            ],
            reflection_verdicts=_verdicts(spec, key),
            vote=_optional_str(spec, "vote", key),
            latency_ms=_optional_int(spec, "latencyMs"),
            completeness=_optional_int(spec, "completeness"),
            latency_jitter_ms=_optional_int(spec, "latencyJitterMs"),
        )
    per_lane = {}
    for lane_id, spec in _mapping(raw.get("lanes"), "lanes").items():
        key = f"lanes.{lane_id}"
        spec = _mapping(spec, key)
        per_lane[str(lane_id)] = LaneScript(
            reflection_verdicts=_verdicts(spec, key),
            vote=_optional_str(spec, "vote", key),
            manager_pick=_optional_str(spec, "managerPick", key),
        )
    return ScenarioPolicy(
        per_task=per_task, per_lane=per_lane, seed=_int(raw.get("seed", 0), "seed")
    )


def _verdicts(spec: dict, key: str) -> List[str]:
    key += ".reflectionVerdicts"
    return [str(v) for v in _list(spec.get("reflectionVerdicts"), key)]
