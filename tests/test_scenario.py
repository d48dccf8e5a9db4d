"""Scenario files: the schema-driven reader against the loader it replaced.

``old_scenario`` is that loader, kept verbatim: it built the document's
generic values and walked them into the policy records afterwards.  It is
the reference with every document it hands off composed by
``yaml.SafeLoader``, so that a scenario reads as ``yaml.safe_load`` reads
it, on every install.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import old_scenario
from conftest import FIXTURES
from hagent import model as m
from hagent import scenario
from test_simulate import (
    _BENCH_SHAPED,
    _YAML_CORPUS,
    FIXTURE_SCENARIO,
    _load_outcome,
    _old_wording,
    _safe_load_outcome,
    _scalar,
    _scenario,
    _text,
    mutated_scenarios,
)


def _agree(text):
    assert _old_wording(_load_outcome(scenario.load_scenario, text)) == _safe_load_outcome(text)


@settings(max_examples=200, deadline=None)
@given(_scenario, st.booleans())
def test_reader_agrees_with_old_loader_on_scenarios(document, flow):
    _agree(yaml.safe_dump(document, default_flow_style=flow))


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios())
def test_reader_agrees_with_old_loader_on_mutated_scenarios(text):
    _agree(text)


# any value YAML composes, nested: in the wrong place it is the wrong shape,
# type or range
_any = st.recursive(
    st.one_of(_scalar, st.integers(-(10**20), 10**20), st.floats(allow_nan=False)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(_text, inner, max_size=2)
    ),
    max_leaves=4,
)


def _places(value, path=()):
    """The path of every value inside ``value``, its own included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _places(inner, path + (key,))


@st.composite
def broken_scenarios(draw):
    """A scenario with one value replaced by any value, or one key added to
    a mapping, written in block or flow style; or a line of a block-style
    one written twice, which repeats a key or an entry."""
    document = draw(_scenario)
    places = list(_places(document))
    path = draw(st.sampled_from(places))
    *outer, last = path or ("",)
    holder = document
    for key in outer:
        holder = holder[key]
    how = draw(st.sampled_from(["replace", "add-key", "repeat-line"]))
    if how == "replace" and path:
        holder[last] = draw(_any)
    elif how == "add-key":
        target = holder[last] if path else document
        if isinstance(target, dict):
            target[draw(st.sampled_from(["seed", "tasks", "label", "extra", "Vote"]))] = draw(_any)
    text = yaml.safe_dump(document, default_flow_style=draw(st.booleans()))
    if how == "repeat-line":
        lines = text.split("\n")
        at = draw(st.integers(0, len(lines) - 1))
        lines.insert(at, lines[at])
        text = "\n".join(lines)
    return text


@settings(max_examples=400, deadline=None)
@given(broken_scenarios())
def test_reader_agrees_with_old_loader_on_broken_scenarios(text):
    _agree(text)


@pytest.mark.parametrize("place", ["vote", "label"])
@pytest.mark.parametrize("text", [text for text, _ in _YAML_CORPUS.values()], ids=list(_YAML_CORPUS))
def test_scalar_resolution_is_safe_loads(text, place):
    # yes, 017, 0x1f, 1:20 and null resolve as yaml.safe_load resolves them
    if place == "vote" and text.startswith("!!set"):
        # the old loader took a set as its text, in hash order
        with pytest.raises(ValueError, match=r"^tasks\.t\.vote must be a scalar, got \{'a', 'b'\}$"):
            scenario.load_scenario(f"tasks:\n  t:\n    vote: {text}\n")
    elif text.startswith("!!set"):
        # a set's text lists its items sorted, where the old loader's followed the hash seed
        policy = scenario.load_scenario(f"tasks:\n  t:\n    outputs:\n      - {{label: {text}}}\n")
        assert policy.per_task["t"].outputs[0].label == "{'a', 'b'}"
    elif place == "vote":
        _agree(f"tasks:\n  t:\n    vote: {text}\n")
    else:
        _agree(f"tasks:\n  t:\n    outputs:\n      - {{label: {text}}}\n")


# tabs that libyaml reads as white space; PyYAML's own scanner refuses them
_TABS_AFTER_A_VALUE = {
    "after-value": "seed: 1\t",
    "after-colon": "seed:\t1",
    "runs": "seed: \t 1\t\t",
    "nested-value": "lanes:\n  l:\n    vote: a\t",
    "sequence-entry": "lanes:\n  l:\n    reflectionVerdicts:\n      - a\t\n      - b\n",
    "flow": "tasks:\n  t:\n    outputs:\n      - {label: a}\t\n",
    "no-value": "tasks:\n  t:\t\n    vote:\t# no vote\n",
    "before-comment": "seed: 1\t# c",
    "in-flow-collection": "lanes:\n  l:\n    reflectionVerdicts: [a,\tb]\n",
    "blank-line": "seed: 1\n  \t\n",
    "after-quoted-key": "'seed':\t1",
    "flow-mapping": "tasks:\n  t: {vote:\ta,\tlatencyMs:\t3}\t# c\n",
    "blank-lines-after-a-plain-value": "lanes:\n  l:\n    vote: a\n     \t \t\n\n     \t# c\n",
}
# tabs the reader handed off even while it read those above as libyaml does
_OTHER_TABS = [
    "seed: 1\n\t\n",
    "\tseed: 1",
    "lanes:\n  l:\n    vote: a\tb",
    "lanes:\n  l:\n    vote: a,\tb",  # a "," outside a flow collection is text
    "lanes:\n  l:\n    vote: a\n    \t\n",
    "seed: '1'\n  \t\n",
    "seed: 1 # c\n  \t\n",
    "seed: 1\n# c\n  \t\n",
]


def _handed_off_and_read_as_safe_load_reads_it(text):
    assert scenario._read(text) is scenario._HAND_OFF
    _agree(text)


@pytest.mark.parametrize("text", list(_TABS_AFTER_A_VALUE.values()), ids=list(_TABS_AFTER_A_VALUE))
def test_tab_after_a_value_goes_to_safe_load(text):
    _handed_off_and_read_as_safe_load_reads_it(text)
    with pytest.raises(ValueError, match="^scenario is not valid YAML: "):
        scenario.load_scenario(text)


@pytest.mark.parametrize("text", _OTHER_TABS)
def test_reader_hands_off_other_tabs(text):
    _handed_off_and_read_as_safe_load_reads_it(text)


@st.composite
def tabbed_scenarios(draw):
    """A scenario in block or flow style with a tab put in place of a space,
    at a line's end or after a line."""
    text = yaml.safe_dump(draw(_scenario), default_flow_style=draw(st.booleans()))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        tab = draw(st.sampled_from(["\t", " \t", "\t# c", "\n  \t", "\n \t \t"]))
        if draw(st.booleans()) and " " in text:
            at = draw(st.sampled_from([i for i, c in enumerate(text) if c == " "]))
            text = text[:at] + "\t" + text[at + 1:]
        elif "\n" in text[at:]:
            at = text.index("\n", at)
            text = text[:at] + tab + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(tabbed_scenarios())
def test_tabbed_scenarios_read_as_safe_load_reads_them(text):
    # a tab is outside the reader's subset, so yaml.safe_load decides
    if "\t" in text:
        _handed_off_and_read_as_safe_load_reads_it(text)
    else:
        _agree(text)


def _drawn(strategy, count):
    """A fixed sample of ``count`` draws of ``strategy``."""
    drawn = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(strategy)
    def draw(text):
        drawn.append(text)

    draw()
    return drawn


# loads each JSON text of stdin, with libyaml hidden when asked, and writes
# each outcome
_LOAD = """\
import json, sys
hide = sys.argv[1:] == ["hide-libyaml"]
if hide:
    sys.modules["yaml._yaml"] = None
import yaml
from hagent import model as m
from hagent.scenario import load_scenario
assert not (hide and yaml.__with_libyaml__)
outcomes = []
for text in json.load(sys.stdin):
    try:
        outcomes.append(["value", repr(load_scenario(text))])
    except (ValueError, m.OutOfRange) as exc:
        outcomes.append(["error", type(exc).__name__, str(exc)])
json.dump(outcomes, sys.stdout)
"""


def _outcomes_in_child(texts, *args):
    src = str(Path(scenario.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _LOAD, *args],
        input=json.dumps(texts),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_every_install_reads_a_scenario_the_same():
    texts = [
        *(text for text, _ in _YAML_CORPUS.values()),
        *_TABS_AFTER_A_VALUE.values(),
        *_OTHER_TABS,
        *_drawn(mutated_scenarios(), 300),
        *_drawn(tabbed_scenarios(), 300),
    ]
    assert _outcomes_in_child(texts, "hide-libyaml") == _outcomes_in_child(texts)


def test_fixture_and_bench_shaped_scenarios_read_as_before():
    for text in (FIXTURE_SCENARIO, _BENCH_SHAPED):
        assert scenario._read(text) == old_scenario.load_scenario(text)


# -- one-line records ----------------------------------------------------------

# values in every form a one-line mapping may hold: plain, plain that resolves
# to another type, quoted either way, decimal, and out of a key's type or range
_ONE_LINE_VALUES = st.one_of(
    st.sampled_from(["yes", "~", "0x1f", "12", "-0", "+7", "017", "1.5", "true", "null",
                     "101", "-1", "2001-01-01", "=", "<<", "a b", "-x", "x:y", "é"]),
    st.integers(-3, 103).map(str),
    st.text("ab-9 ", min_size=1, max_size=4),
    st.text("ab '\"#,:", max_size=4).map(lambda t: "'" + t.replace("'", "''") + "'"),
    st.text("ab '#,:\\", max_size=4).map(lambda t: f'"{t}"'),
)
_ONE_LINE_KEYS = st.sampled_from(
    ["label", "payload", "confidence", "latencyMs", "completeness", "vote", "latencyJitterMs",
     "outputs", "other"]
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_ONE_LINE_KEYS, _ONE_LINE_VALUES), max_size=5),
    st.sampled_from([", ", ",", " , "]),
    st.sampled_from(["", ",", ", "]),
    st.sampled_from(["output", "task"]),
)
@example([("label", '"a"'), ("label", "b")], ", ", "", "output")  # a repeated key
@example([("label", "a"), ("payload", "'b'")], ", ", "", "output")  # single-quoted
@example([("label", "a"), ("payload", "b")], ", ", ", ", "output")  # a trailing comma
def test_one_line_records_read_as_the_old_loader_reads_them(entries, separator, trailing, place):
    record = "{" + separator.join(f"{key}: {value}" for key, value in entries)
    record += (trailing if entries else "") + "}"
    if place == "output":
        _agree(f"tasks:\n  t:\n    outputs:\n      - {record}\n")
    else:
        _agree(f"tasks:\n  t: {record}\nlanes:\n  l: {record}\n")


def test_output_lines_are_read_by_one_match(monkeypatch):
    # every output line of the fixture and bench-shaped scenarios is read by
    # its record's one match, never by the reader of other nodes, which
    # reads the verdict lists
    read = []
    original = scenario._node
    monkeypatch.setattr(scenario, "_node", lambda text: read.append(text) or original(text))
    for text in (FIXTURE_SCENARIO, _BENCH_SHAPED):
        outputs = [line.split("- ", 1)[1] for line in text.splitlines() if "- {" in line]
        assert outputs and all(scenario._OUTPUT.line(output) for output in outputs)
        assert scenario._read(text) == old_scenario.load_scenario(text)
        assert any(node.startswith("[") for node in read) and not set(read) & set(outputs)
        read.clear()


# one-line lists of scalars, each read as the old loader read it
_ONE_LINE_LISTS = [
    "[revise, accept]",
    "[7, -3, +4, 0, yes, No, null, ~]",
    "['it''s', '', 'a, b']",
    '["x", "a: b", "#c", ""]',
    "[]",
    "[ ]",
    "[accept,]",
    "[a, 'b', \"c\" , ] # comment",
    "[a b, -x, x-y, a#b] # c",
]


@pytest.mark.parametrize("flat", _ONE_LINE_LISTS)
def test_one_line_lists_are_read(flat):
    for text in (
        f"tasks:\n  t:\n    reflectionVerdicts: {flat}\n",
        f"lanes:\n  l:\n    reflectionVerdicts: {flat}\n",
    ):
        assert scenario._read(text) is not scenario._HAND_OFF
        _agree(text)


def test_set_messages_do_not_follow_the_hash_seed(tmp_path):
    # a set is written with its items sorted, so stderr is the same under
    # any hash seed; a set is not a scalar
    src = str(Path(scenario.__file__).resolve().parents[1])
    errors = {}
    documents = {
        "document": "!!set {a, b, c}\n",
        "pick": "lanes:\n  l:\n    managerPick: !!set {a, b, c}\n",
        "nested": "seed: [!!set {a, b, c}]\n",
    }
    for name, text in documents.items():
        path = tmp_path / f"{name}.scn.yaml"
        path.write_text(text, encoding="utf-8")
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from hagent.cli import main; sys.exit(main(sys.argv[1:]))",
                 "simulate", str(FIXTURES / "bug-triage.bpmn"), "--scenario", str(path)],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                timeout=120,
            )
            assert done.returncode == 1
            errors.setdefault(name, set()).add(done.stderr)
    assert errors == {
        "document": {b"hagent: bad scenario file: scenario must be a mapping, got {'a', 'b', 'c'}\n"},
        "pick": {b"hagent: bad scenario file: lanes.l.managerPick must be a scalar, got {'a', 'b', 'c'}\n"},
        "nested": {b"hagent: bad scenario file: seed must be an integer, got [{'a', 'b', 'c'}]\n"},
    }


def test_set_texts_do_not_follow_the_hash_seed(tmp_path):
    # a set where the schema reads text is written with its items sorted,
    # so the trace that shows it is the same under any hash seed
    output = '{label: bug-report, payload: "Crash when saving a project"}'
    assert output in FIXTURE_SCENARIO
    path = tmp_path / "set.scn.yaml"
    path.write_text(
        FIXTURE_SCENARIO.replace(output, "{label: !!set {x, y, z, w}, payload: [!!set {p, q, r, s}]}"),
        encoding="utf-8",
    )
    src = str(Path(scenario.__file__).resolve().parents[1])
    traces = set()
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from hagent.cli import main; sys.exit(main(sys.argv[1:]))",
             "simulate", str(FIXTURES / "bug-triage.bpmn"), "--scenario", str(path)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        traces.add(done.stdout)
    assert len(traces) == 1
    assert "\tlabel={'w', 'x', 'y', 'z'} " in traces.pop().decode("utf-8")
    behavior = scenario.load_scenario(path.read_text(encoding="utf-8")).per_task["task-report-bug"]
    assert behavior.outputs[0].payload == "[{'p', 'q', 'r', 's'}]"
    verdicts = scenario.load_scenario("tasks:\n  t:\n    reflectionVerdicts: [!!set {b, a}, [c, !!set {e, d}]]\n")
    assert verdicts.per_task["t"].reflection_verdicts == ["{'a', 'b'}", "['c', {'d', 'e'}]"]


def _values(value, outer=()):
    """``value`` and every value nested in it; a collection met inside
    itself, through an alias, is not walked again."""
    if id(value) in outer:
        return
    yield value
    if isinstance(value, (list, dict)):
        outer += (id(value),)
        for item in value if isinstance(value, list) else [*value, *value.values()]:
            yield from _values(item, outer)


def test_a_text_that_holds_no_set_reads_as_str_of_it():
    # only a set's text changed when sets were written in sorted order
    texts = [*(text for text, _ in _YAML_CORPUS.values()), *_drawn(mutated_scenarios(), 300)]
    checked = 0
    for text in texts:
        try:
            document = yaml.safe_load(text)
        except (yaml.YAMLError, ValueError):  # a timestamp out of range, say
            continue
        for value in _values(document):
            if not any(isinstance(v, (set, frozenset)) for v in _values(value)):
                assert scenario._text(value, None, "") == str(value)
                checked += 1
    assert checked > 1000


def _schema_keys(record, prefix=""):
    """Every key path of the schema under ``record``, as the README writes it."""
    for key, row in record.rows.items():
        path = prefix + key
        yield path
        if row.kind is scenario._records:
            yield from _schema_keys(row.item.item, path + "[].")
        elif row.kind is scenario._map:
            yield from _schema_keys(row.item.item, f"{path}.<id>.")


def test_readme_lists_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert sorted(documented) == sorted(_schema_keys(scenario._SCENARIO))
    assert len(documented) == len(set(documented))


def test_trust_scores_hold_their_range():
    with pytest.raises(m.OutOfRange):
        scenario.load_scenario("tasks: {t: {outputs: [{label: a, confidence: 101}]}}")
    low, high = (
        scenario.load_scenario(f"tasks: {{t: {{outputs: [{{label: a, confidence: {v}}}]}}}}")
        .per_task["t"].outputs[0].confidence
        for v in (0, 100)
    )
    assert (low, high) == (m.TrustScore(0), m.TrustScore(100))
