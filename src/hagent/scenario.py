"""Scenario files: the scripted agent and human behaviour a simulation plays.

``_SCENARIO`` describes a scenario document once, key by key.  A scenario
is what those rows make of ``yaml.safe_load(text)``, on every install.
``_read`` is a faster way to the same policy for the YAML scenarios are
written in: block collections, scalars, one-line flow mappings of a
record's scalar keys, one-line flow sequences of scalars and ``{}``.  It
fills the policy records from the text under the rows in one pass, and
hands any other document to ``yaml.safe_load``, whose value converts
through the same rows, which raise the errors :func:`load_scenario`
documents.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, List, NamedTuple, Optional

import yaml
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

from hagent import model as m


@m._record
class CandidateOutput:
    label: str
    payload: str = ""
    confidence: Optional[m.TrustScore] = None
    producer_lane_id: Optional[str] = None
    latency_ms: Optional[int] = None
    completeness: Optional[int] = None


_make_output = m._maker(CandidateOutput)


@dataclass
class ScriptedBehavior:
    """Canned behavior for one task, consumed output-by-output."""

    outputs: List[CandidateOutput] = field(default_factory=list)
    reflection_verdicts: List[str] = field(default_factory=list)
    vote: Optional[str] = None
    latency_ms: Optional[int] = None
    completeness: Optional[int] = None
    latency_jitter_ms: Optional[int] = None


@dataclass
class LaneScript:
    """Canned behavior for a lane when consulted as reviewer/voter/leader."""

    reflection_verdicts: List[str] = field(default_factory=list)
    vote: Optional[str] = None
    manager_pick: Optional[str] = None


@dataclass
class ScenarioPolicy:
    per_task: Dict[str, ScriptedBehavior] = field(default_factory=dict)
    per_lane: Dict[str, LaneScript] = field(default_factory=dict)
    seed: int = 0


# -- the schema ---------------------------------------------------------------
# A kind maps a composed value to a field value, or raises ValueError (or
# OutOfRange) naming the key; ``path`` is the value's key path.


def _int(value, row, path):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{path} must be an integer, got {_shown(value)}")
    return value


def _optional_int(value, row, path):
    return None if value is None else _int(value, row, path)


def _trust(value, row, path):
    if type(value) is int and 0 <= value <= 100:
        return m.TRUST_SCORES[value]
    return None if value is None else m.mk_trust_score(_int(value, row, path), path)


def _text(value, row, path):
    # a collection as _shown writes it, so that a set's text is the same under every hash seed
    return _shown(value) if isinstance(value, (list, dict, set, frozenset)) else str(value)


def _scalar(value, row, path):
    if isinstance(value, (list, dict, set, frozenset)):
        raise ValueError(f"{path} must be a scalar, got {_shown(value)}")
    return None if value is None else str(value)


def _texts(value, row, path):
    return [_text(v, row, path) for v in _shaped(value, list, path)]


def _records(value, row, path):
    return [_record(v, row.item, f"{path}[{i}]") for i, v in enumerate(_shaped(value, list, path))]


def _map(value, row, path):
    return {str(k): _record(v, row.item, f"{path}.{k}") for k, v in _shaped(value, dict, path).items()}


def _record(value, row, path):
    record = row.item
    value = _shaped(value, dict, path or "scenario")
    made = {}
    for key, child in record.rows.items():
        if key in value:
            made[child.field] = child.kind(value[key], child, f"{path}.{key}" if path else key)
        elif child.field in record.required:
            raise ValueError(f"{path} has no {key}")
    return _build(record, made)


def _shaped(value, shape: type, path: str):
    """``value``, a ``shape`` (list or dict); an empty one for None."""
    if value is None:
        return shape()
    if not isinstance(value, shape):
        raise ValueError(f"{path} must be a {'list' if shape is list else 'mapping'}, got {_shown(value)}")
    return value


def _shown(value, outer: tuple = ()) -> str:
    """``repr(value)``, but with each set's items in the order of their
    reprs, so that a message reads the same under every hash seed."""
    if isinstance(value, (set, frozenset)) and value:
        items = "{" + ", ".join(sorted(map(repr, value))) + "}"
        return items if type(value) is set else f"frozenset({items})"
    if not isinstance(value, (list, dict)):
        return repr(value)
    if id(value) in outer:  # a collection inside itself, through an alias
        return "[...]" if type(value) is list else "{...}"
    outer += (id(value),)
    # plain loops, not generators: one frame a level, half of what composing
    # the value took, so a value yaml.safe_load composed is never too deep here
    parts = []
    if type(value) is list:
        for item in value:
            parts.append(_shown(item, outer))
        return "[" + ", ".join(parts) + "]"
    for key, item in value.items():
        parts.append(f"{_shown(key, outer)}: {_shown(item, outer)}")
    return "{" + ", ".join(parts) + "}"


class _Row(NamedTuple):
    """A place for a value: a key of a record and the field it fills, or
    (with no key) an item of a list or a map."""

    key: str
    field: str
    kind: Callable
    item: object = None  # a list's or map's item _Row; a _record's _Record


class _Record(NamedTuple):
    build: type
    rows: Dict[str, _Row]  # by key, in the order the kinds check them
    required: frozenset  # the fields with no default; absent ones take it
    line: Callable  # fullmatch of a one-line flow mapping of its scalar keys
    decode: Callable  # of that match's groups, the record


# Resolver.resolve tries the implicit resolvers listed under a plain scalar's
# first character (PyYAML lists none for any first character); a scalar with
# none is text.  The table itself, so that a resolver added later counts.
_RESOLVERS = Resolver.yaml_implicit_resolvers
# A decimal integer: no other resolver matches it, and int() builds it as
# the int constructor does.
_DECIMAL = re.compile("[-+]?(?:0|[1-9][0-9]*)")
# A plain scalar in a flow collection: no ":", "?", "," or bracket in it and
# no " #"; it may start with "-" before a non-space.
_FLOW_PLAIN = (
    r"""(?:[^ \-?:,\[\]{}#&*!|>'"%@`]|-(?=[^ ,\[\]{}]))"""
    r"""[^ ,\[\]{}:?]*(?: +[^ ,\[\]{}:?#][^ ,\[\]{}:?]*)*"""
)
# The value of a key of a one-line flow mapping (a decimal integer, also captured
# alone; another plain scalar; double-quoted text, no escape) and the "," or "}".
_FLAT_VALUE = (
    f" *: +((?:({_DECIMAL.pattern})(?= *[,}}])|{_FLOW_PLAIN}"
    r'|"[^"\\]*")) *(?:,(?! *\}) *|(?=\}))'
)
# How a decoder makes argument {i} of that key's groups (value, decimal).
_ARGUMENT = """\
    if v{i} is None:
        {absent}
    elif d{i} is not None:
        a{i} = kind{i}(int(d{i}), row{i}, "")
    elif v{i}[0] == '"':
        a{i} = {quoted}
    elif v{i}[0] in resolvers:
        a{i} = kind{i}(resolved(v{i}), row{i}, "")
    else:
        a{i} = {plain}
"""


def _resolved(plain: str):
    value = _resolve(plain)
    if value is _HAND_OFF:
        raise ValueError("outside the reader's subset")
    return value


def _schema(build, *rows, make=None) -> _Record:
    """The record ``build``, made by ``make`` of its fields in order, that
    ``rows`` fill; with the regex of a one-line flow mapping of the keys
    that read a scalar, in any order, and the decoder of its groups,
    generated as ``model._maker`` is, which raises ValueError where the
    reader hands off."""
    required = {f.name for f in fields(build) if f.default is f.default_factory is MISSING}
    scalars = (_text, _scalar, _trust, _int, _optional_int)
    flat = [row for f in fields(build) for row in rows if row.field == f.name and row.kind in scalars]
    namespace = {"make": make or build, "resolvers": _RESOLVERS, "resolved": _resolved}
    code, args = [], []
    for f in fields(build):
        namespace["default_" + f.name] = f.default_factory if f.default is MISSING else f.default
        args.append(f"default_{f.name}" + ("()" if f.default is MISSING else ""))
        for i, row in enumerate(flat):
            if row.field == f.name:
                namespace[f"row{i}"], namespace[f"kind{i}"] = row, row.kind
                # a text stands as it is
                kind = "{}" if row.kind in (_text, _scalar) else f'kind{i}({{}}, row{i}, "")'
                code.append(_ARGUMENT.format(
                    i=i,
                    absent=f"raise ValueError('no {row.key}')" if f.name in required else f"a{i} = {args[-1]}",
                    quoted=kind.format(f"v{i}[1:-1]"),
                    plain=kind.format(f"v{i}"),
                ))
                args[-1] = f"a{i}"
    params = ", ".join(f"v{i}, d{i}" for i in range(len(flat)))
    exec(f"def decode({params}):\n{''.join(code)}    return make({', '.join(args)})", namespace)
    # a key is refused where its value group is set already; two groups a key, as
    # CPython 3.11 and 3.12 never reuse a freed 20-item tuple (five keys of four)
    entries = "|".join(f"{row.key}(?({2 * i + 1})(?!)){_FLAT_VALUE}" for i, row in enumerate(flat))
    line = re.compile(rf"\{{ *(?:{entries})*\}}(?: +#.*)?").fullmatch
    return _Record(build, {row.key: row for row in rows}, frozenset(required), line, namespace["decode"])


def _items(record: _Record) -> _Row:
    return _Row("", "", _record, record)


_OUTPUT = _schema(
    CandidateOutput,
    _Row("label", "label", _text),
    _Row("payload", "payload", _text),
    _Row("confidence", "confidence", _trust),
    _Row("latencyMs", "latency_ms", _optional_int),
    _Row("completeness", "completeness", _optional_int),
    make=_make_output,
)
_VERDICTS = _Row("reflectionVerdicts", "reflection_verdicts", _texts, _Row("", "", _text))
_VOTE = _Row("vote", "vote", _scalar)
_TASK = _schema(
    ScriptedBehavior,
    _Row("outputs", "outputs", _records, _items(_OUTPUT)),
    _VERDICTS,
    _VOTE,
    _Row("latencyMs", "latency_ms", _optional_int),
    _Row("completeness", "completeness", _optional_int),
    _Row("latencyJitterMs", "latency_jitter_ms", _optional_int),
)
_LANE = _schema(LaneScript, _VERDICTS, _VOTE, _Row("managerPick", "manager_pick", _scalar))
_SCENARIO = _schema(
    ScenarioPolicy,
    _Row("tasks", "per_task", _map, _items(_TASK)),
    _Row("lanes", "per_lane", _map, _items(_LANE)),
    _Row("seed", "seed", _int),
)
_DOCUMENT = _items(_SCENARIO)


# -- reading ------------------------------------------------------------------

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
_HAND_OFF = object()  # the document uses YAML outside the reader's subset

# Anything but printable text and "\n": a tab, "\r", NEL, LS and PS (YAML 1.1
# breaks lines at all four), control characters and a byte-order mark; and
# the characters an ASCII text may hold.
_OUTSIDE = re.compile(
    "[^\n\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd\U00010000-\U0010ffff]"
)
_ASCII = bytes([10, *range(0x20, 0x7F)])
# Characters that may not start a plain scalar; "-", "?" and ":" may, before
# a non-space (in block context, which is where _plain reads).
_INDICATORS = frozenset("-?:,[]{}#&*!|>'\"%@`")
# A quoted scalar that closes on its line; a double-quoted one has no escape.
_QUOTED = re.compile(r"""'[^']*(?:''[^']*)*'|"[^"\\]*\"""")
_COMMENT = re.compile(" +#")
# A one-line flow sequence of scalars, plain or quoted, and any comment after it.
_FLOW_SCALAR = f"(?:{_FLOW_PLAIN}|{_QUOTED.pattern})"
_FLAT_LIST = re.compile(
    rf"(\[ *(?:{_FLOW_SCALAR} *(?:, *{_FLOW_SCALAR} *)*(?:, *)?)?\])(?: +#.*)?"
).fullmatch
# Each item of such a sequence: (plain, quoted).
_LIST_ITEM = re.compile(f"({_FLOW_PLAIN})|({_QUOTED.pattern})")
_EMPTY_MAPPING = re.compile(r"\{ *\}(?: +#.*)?").fullmatch
_BOTTOM = (-1, None, None, None, None, None)  # the frame below the outermost block collection


def _read(text: str):
    """The policy ``text`` describes, read straight from the text one line
    at a time, under the schema and with no recursion; or ``_HAND_OFF``
    where the text leaves the subset of YAML the reader reads (README.md,
    "Scenario files"; so also on every syntax error) or the document does
    not fit the schema.  Raises nothing."""
    if text.encode().translate(None, _ASCII) if text.isascii() else _OUTSIDE.search(text):
        return _HAND_OFF
    lines = text.split("\n")
    if max(map(len, lines)) > _MAX_LINE:
        return _HAND_OFF
    nodes = {}  # value text -> its node: scenarios repeat values
    holder = [None]
    # the value of the last "key:" or "-" goes to parent[slot] and reads
    # under row; pending while it may still open on a later line
    parent, slot, row, pending = holder, 0, _DOCUMENT, True
    # the innermost open block collection: (indent, row, value, parent, slot,
    # the collection it is in); a record's value is its fields, built into
    # parent[slot] on close
    frame = _BOTTOM
    top = -1  # its indent
    done = False  # the document is a scalar or a flow collection
    try:
        for line in lines:
            body = line.lstrip(" ")
            first = body[:1]
            if first == "" or first == "#":
                continue
            indent = len(line) - len(body)
            if done or (indent == 0 and body[:3] in ("---", "...")):
                return _HAND_OFF
            if body[-1] == " ":
                body = body.rstrip(" ")
            entry = first == "-" and body[1:2] in " "
            if pending and (indent > top or (indent == top and entry and type(frame[2]) is dict)):
                opening = True  # a collection opens in the slot
            else:
                if pending:
                    parent[slot] = row.kind(None, row, "")
                opening = False
                if top > indent:
                    frame = _close(frame, indent)
                    top = frame[0]
                if top != indent:
                    return _HAND_OFF
                if type(frame[2]) is list:
                    if not entry:
                        # a sequence at its mapping's indent ends at the next key
                        if frame[5][0] != indent:
                            return _HAND_OFF
                        frame = frame[5]
                elif entry:
                    return _HAND_OFF
            pending = False
            if entry:
                if opening:
                    if row.kind is not _records and row.kind is not _texts:
                        return _HAND_OFF
                    top = indent
                    frame = (indent, row, [], None, None, frame)
                    parent[slot] = frame[2]
                row, items = frame[1], frame[2]
                rest = body[1:].lstrip(" ")
                first = rest[:1]
                if first == "{" or first == "[":  # never a key
                    items.append(_value(rest, row.item, nodes))
                    continue
                items.append(None)
                parent, slot, row = items, len(items) - 1, row.item
                if not rest or first == "#":
                    pending = True
                    continue
                indent += len(body) - len(rest)  # where a compact mapping opens
                body = rest
                opening = True
            name = plain = None  # the line's key: quoted, or plain as written
            if first == "'" or first == '"':
                quoted = _QUOTED.match(body)
                if quoted is None:
                    return _HAND_OFF
                after = body[quoted.end():].lstrip(" ")
                if after[:1] == ":" and (len(after) == 1 or after[1] == " "):
                    name = _unquote(quoted.group())
                    value = after[1:].lstrip(" ")
            elif first != "[" and first != "{":
                if body[-1] == ":" and ": " not in body:  # a key alone
                    plain, value = body[:-1].rstrip(" "), ""
                else:
                    colon = body.find(": ")
                    if colon >= 0:
                        plain = body[:colon].rstrip(" ")
                        value = body[colon + 1:].lstrip(" ")
            if name is None and plain is None:
                if frame is not _BOTTOM and not entry:  # a scalar stands at the top or in an entry
                    return _HAND_OFF
                parent[slot] = _value(body, row, nodes)
                done = frame is _BOTTOM
                continue
            if opening:
                top = indent
                if row.kind is _record:
                    frame = (indent, row, {}, parent, slot, frame)
                elif row.kind is _map:
                    frame = (indent, row, {}, None, None, frame)
                    parent[slot] = frame[2]
                else:
                    return _HAND_OFF
            open_row, parent = frame[1], frame[2]
            if open_row.kind is _record:
                row = open_row.item.rows.get(name if plain is None else plain)
                if row is None:  # not a key of the record, or not in plain text
                    return _HAND_OFF
                slot = row.field
            else:  # a task or lane id
                row, slot = open_row.item, name if plain is None else _plain(plain)
                if type(slot) is not str:
                    return _HAND_OFF
            if slot in parent:
                return _HAND_OFF
            if not value or value[0] == "#":
                parent[slot] = None
                pending = True
            else:
                parent[slot] = _value(value, row, nodes)
        if pending:
            parent[slot] = row.kind(None, row, "")
        _close(frame, -1)
    except (ValueError, m.ModelError):  # the value does not fit its row
        return _HAND_OFF
    return holder[0]


def _close(frame: tuple, indent: int) -> tuple:
    """Close ``frame`` and the block collections it is in that are deeper
    than ``indent``, building each record into its place; the innermost
    frame left."""
    while frame[0] > indent:
        _, row, made, owner, at, frame = frame
        if owner is not None:
            owner[at] = _build(row.item, made)
    return frame


def _value(source: str, row: _Row, nodes: dict):
    """The value of ``row`` that ``source``, the rest of a block line,
    holds.  One match reads a record from a one-line flow mapping of its
    keys that read a scalar, each at most once; any other node is read
    once per text and kept in ``nodes``.  Raises ValueError where the
    reader hands off."""
    if row.kind is _record:
        match = row.item.line(source)
        if match is not None:
            return row.item.decode(*match.groups())
    node = nodes.get(source)
    if node is None:
        node = nodes[source] = _node(source)
    if node is _HAND_OFF:
        raise ValueError("outside the reader's subset")
    return row.kind(node, row, "")


def _build(record: _Record, made: dict):
    """The ``record`` of the fields ``made``; ValueError where it lacks one
    that has no default."""
    if not record.required.issubset(made):
        raise ValueError(f"a {record.build.__name__} lacks a field")
    return record.build(**made)


def _node(text: str):
    """The scalar, one-line flow sequence of scalars or ``{}`` that fills
    ``text``, the rest of a block line; ``_HAND_OFF`` for any other node."""
    first = text[0]
    if first == "[":
        flat = _FLAT_LIST(text)
        if flat is None:
            return _HAND_OFF
        items = []
        for plain, quoted in _LIST_ITEM.findall(text, 1, flat.end(1)):
            item = _unquote(quoted) if quoted else _resolve(plain) if plain[0] in _RESOLVERS else plain
            if item is _HAND_OFF:
                return _HAND_OFF
            items.append(item)
        return items
    if first == "{":
        return {} if _EMPTY_MAPPING(text) else _HAND_OFF
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
    if _DECIMAL.fullmatch(text):
        return int(text)
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


def load_scenario(text) -> ScenarioPolicy:
    """Load a scenario from YAML text or bytes: the policy the schema makes
    of ``yaml.safe_load(text)``, whether or not PyYAML ships libyaml.  A
    document outside the line reader's subset (any tab among them) is
    loaded by ``yaml.safe_load`` itself.

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
    policy = _read(text)
    if policy is not _HAND_OFF:
        return policy
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"scenario is not valid YAML: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("scenario nests too deeply") from exc
    except (LookupError, AttributeError) as exc:
        # SafeConstructor on an explicit tag that its text does not fit:
        # "!!int ''" raises IndexError, "!!bool x" KeyError and
        # "!!timestamp x" AttributeError
        raise ValueError(f"scenario has a value that does not fit its tag: {exc!r}") from exc
    return _record(doc, _DOCUMENT, "")
