import argparse
import gc
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

import hagent
from hagent import cli, simulate, xmlio
from hagent.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from hagent.xmlio import export_extension_schema, parse_model, paused_gc, serialize_model

from conftest import FIXTURES, bench_gen
from test_golden import _run

FIXTURE = str(FIXTURES / "bug-triage.bpmn")
BROKEN = str(FIXTURES / "broken-no-manager.bpmn")
SCENARIO = str(FIXTURES / "bug-triage.scn.yaml")


def test_validate_ok(capsys):
    assert main(["validate", FIXTURE]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_validate_reports_errors(capsys):
    assert main(["validate", BROKEN]) == EXIT_DOMAIN
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "E-MGR gw-collab-merge: leader-driven or debate region has no "
        "manager-role lane as decider"
    ]


def test_validate_strict_fails_on_warnings(tmp_path, capsys):
    relaxed = (FIXTURES / "bug-triage.bpmn").read_text().replace(
        ' trustScore="70"', ""
    )
    path = tmp_path / "warn.bpmn"
    path.write_text(relaxed)
    assert main(["validate", str(path)]) == EXIT_OK
    assert "W-NO-TRUST" in capsys.readouterr().out
    assert main(["validate", "--strict", str(path)]) == EXIT_DOMAIN


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["simulate", FIXTURE]) == EXIT_USAGE  # --scenario is required
    assert main(["validate", "no-such-file.bpmn"]) == EXIT_USAGE


def test_simulate_writes_identical_traces(tmp_path, capsys):
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    for target in (t1, t2):
        assert (
            main(["simulate", FIXTURE, "--scenario", SCENARIO, "--trace", str(target)])
            == EXIT_OK
        )
    assert t1.read_bytes() == t2.read_bytes()
    assert b"MergeDecision\tgw-collab-merge" in t1.read_bytes()


def test_simulate_to_stdout_and_seed_override(capsys):
    assert main(["simulate", FIXTURE, "--scenario", SCENARIO, "--seed", "99"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0\tTokenEnter\tstart-bug"


def test_simulate_invalid_model_fails(capsys):
    assert main(["simulate", BROKEN, "--scenario", SCENARIO]) == EXIT_DOMAIN
    assert "E-MGR" in capsys.readouterr().err


def test_simulate_bad_scenario_fails(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("tasks: [not, a, mapping]")
    assert main(["simulate", FIXTURE, "--scenario", str(bad)]) == EXIT_DOMAIN


def test_simulate_scenario_loader_bug_is_not_a_bad_scenario():
    # only the errors load_scenario documents read as "bad scenario file"
    with mock.patch.object(simulate, "load_scenario", side_effect=TypeError("bug")):
        with pytest.raises(TypeError, match="bug"):
            main(["simulate", FIXTURE, "--scenario", SCENARIO])


_REFUSED = "hagent: simulation failed: model has validation errors: E-MGR\n"


def test_simulate_refuses_an_invalid_model_before_loading_its_scenario(capsys):
    with mock.patch.object(simulate, "load_scenario", side_effect=AssertionError("loaded")):
        assert main(["simulate", BROKEN, "--scenario", SCENARIO]) == EXIT_DOMAIN
    assert capsys.readouterr().err == _REFUSED


def test_simulate_invalid_model_with_a_bad_scenario_prints_the_model_refusal(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("tasks: [a, b]\n")
    assert main(["simulate", BROKEN, "--scenario", str(bad)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == _REFUSED
    assert main(["simulate", FIXTURE, "--scenario", str(bad)]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("hagent: bad scenario file: tasks must be a mapping")


def test_simulate_unreadable_scenario_is_a_usage_error_once_the_model_parses(tmp_path, capsys):
    missing = str(tmp_path / "missing.yaml")
    for model in (BROKEN, FIXTURE):
        assert main(["simulate", model, "--scenario", missing]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"hagent: cannot read {missing}: ")
    unparsable = tmp_path / "bad.bpmn"
    unparsable.write_text("<definitions")
    assert main(["simulate", str(unparsable), "--scenario", missing]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("E-")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", FIXTURE, "--scenario", SCENARIO, "--trace"],
        ["render", FIXTURE, "-o"],
        ["export-xsd", "-o"],
    ],
    ids=["simulate", "render", "export-xsd"],
)
def test_an_unwritable_output_is_a_usage_error(argv, tmp_path, capsys):
    # a directory that does not exist, and one that is not a directory
    target = tmp_path / "plain-file"
    target.write_text("")
    for path in (tmp_path / "missing" / "out", target / "out"):
        assert main([*argv, str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"hagent: cannot write {path}: ")
        assert err.count("\n") == 1 and not path.exists()


def test_simulate_scenario_with_mistagged_value_fails(tmp_path, capsys):
    scenario = tmp_path / "tag.scn.yaml"
    scenario.write_text(
        (FIXTURES / "bug-triage.scn.yaml").read_text().replace(
            "latencyMs: 120", "latencyMs: !!int ''"
        )
    )
    assert main(["simulate", FIXTURE, "--scenario", str(scenario)]) == EXIT_DOMAIN
    assert "bad scenario file" in capsys.readouterr().err


def test_render_to_file(tmp_path):
    target = tmp_path / "diagram.svg"
    assert main(["render", FIXTURE, "-o", str(target)]) == EXIT_OK
    data = target.read_bytes()
    assert data.startswith(b"<?xml") and b"data-hagent-code" in data


def test_render_rejects_invalid_model(tmp_path, capsys):
    assert main(["render", BROKEN, "-o", str(tmp_path / "x.svg")]) == EXIT_DOMAIN
    assert "E-MGR" in capsys.readouterr().err


def test_render_with_hints(tmp_path):
    hints = tmp_path / "hints.json"
    hints.write_text(json.dumps({"start-bug": [120, 90, 36, 36]}))
    plain = tmp_path / "plain.svg"
    moved = tmp_path / "moved.svg"
    assert main(["render", FIXTURE, "-o", str(plain)]) == EXIT_OK
    assert main(["render", FIXTURE, "-o", str(moved), "--hints", str(hints)]) == EXIT_OK
    assert plain.read_bytes() != moved.read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        "[[120, 90, 36, 36]]",
        '"start-bug"',
        '{"start-bug": [120, 90, 36]}',
        '{"start-bug": [120, 90, 36, 36, 1]}',
        '{"start-bug": ["120", "90", "36", "36"]}',
        '{"start-bug": [true, 90, 36, 36]}',
        '{"start-bug": [null, 90, 36, 36]}',
        '{"start-bug": [NaN, 90, 36, 36]}',
        '{"start-bug": [120, Infinity, 36, 36]}',
        '{"start-bug": [120, 90, 1e400, 36]}',
        '{"start-bug": [120, 90, 36, 1%s]}' % ("0" * 400),
        '{"start-bug": {"x": 120}}',
        '{"start-bug": 120}',
        '{"start-bug": [120, 90',
        "[" * 100_000 + "]" * 100_000,
        b"\xff{}",
        "null",
    ],
    ids=["array", "string", "three", "five", "strings", "bool", "null", "nan", "inf",
         "overflow", "huge-int", "object", "number", "truncated", "deep", "not-utf-8",
         "json-null"],
)
def test_render_refuses_a_malformed_hints_file(text, tmp_path, capsys):
    hints = tmp_path / "hints.json"
    hints.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out.svg"
    assert main(["render", FIXTURE, "-o", str(out), "--hints", str(hints)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err.startswith("hagent: bad hints file: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_render_reads_int_and_float_hints_alike(tmp_path):
    svgs = []
    for box in ([120, 90, 36, 36], [120.0, 90.0, 36.0, 36.0]):
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps({"start-bug": box, "no-such-node": [0, 0, 0, 0]}))
        out = tmp_path / "out.svg"
        assert main(["render", FIXTURE, "-o", str(out), "--hints", str(hints)]) == EXIT_OK
        svgs.append(out.read_bytes())
    assert svgs[0] == svgs[1]


def test_export_xsd(tmp_path, capsys):
    target = tmp_path / "ext.xsd"
    assert main(["export-xsd", "-o", str(target)]) == EXIT_OK
    assert target.read_bytes() == export_extension_schema()
    assert main(["export-xsd"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == export_extension_schema()


def test_simulate_scenario_with_bad_jitter_fails(tmp_path, capsys):
    scenario = tmp_path / "jitter.scn.yaml"
    scenario.write_text(
        (FIXTURES / "bug-triage.scn.yaml").read_text().replace(
            "latencyMs: 120\n", "latencyMs: 120\n    latencyJitterMs: x\n"
        )
    )
    assert main(["simulate", FIXTURE, "--scenario", str(scenario)]) == EXIT_DOMAIN
    assert "bad scenario file" in capsys.readouterr().err


def test_simulate_scenario_with_list_manager_pick_fails(tmp_path, capsys):
    scenario = tmp_path / "pick.scn.yaml"
    scenario.write_text(
        (FIXTURES / "bug-triage.scn.yaml").read_text().replace(
            "managerPick: patch-B", "managerPick: [patch-B]"
        )
    )
    assert main(["simulate", FIXTURE, "--scenario", str(scenario)]) == EXIT_DOMAIN
    assert "bad scenario file" in capsys.readouterr().err


def test_validate_unknown_encoding_fails_without_traceback(tmp_path, capsys):
    path = tmp_path / "utf9.bpmn"
    path.write_bytes(
        (FIXTURES / "bug-triage.bpmn").read_bytes().replace(b"UTF-8", b"UTF-9", 1)
    )
    assert main(["validate", str(path)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["E-XML -: malformed XML: unknown encoding: UTF-9"]
    assert captured.err == ""
    assert main(["render", str(path), "-o", str(tmp_path / "out.svg")]) == EXIT_DOMAIN
    assert "unknown encoding: UTF-9" in capsys.readouterr().err


def test_validate_deeply_nested_extension_fails_without_traceback(tmp_path, capsys):
    depth = 3000
    deep = '<x:a xmlns:x="urn:x">' + "<x:a>" * (depth - 1) + "</x:a>" * depth
    path = tmp_path / "deep.bpmn"
    path.write_bytes(
        (FIXTURES / "bug-triage.bpmn").read_bytes().replace(
            b'<hagent:uncertainty trustScore="80"/>',
            b'<hagent:uncertainty trustScore="80"/>' + deep.encode(),
            1,
        )
    )
    assert main(["validate", str(path)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "E-XML task-check-validity: <a> is nested too deeply to preserve"
    ]
    assert captured.err == ""


# -- one parser per process ----------------------------------------------------


def test_parser_is_built_once_per_process():
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", counting):
        per_call = []
        for _ in range(5):
            before = len(built)
            assert main(["validate", FIXTURE]) == EXIT_OK
            per_call.append(len(built) - before)
    assert per_call[1:] == [0, 0, 0, 0]


def spawn(argv, **env):
    """The command run to completion in a new interpreter, with ``env``
    added to the environment."""
    src = str(Path(hagent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hagent.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=120,
    )


def fresh_process(argv):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    done = spawn(argv)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


@pytest.mark.parametrize(
    "argv, to_file",
    [
        (["render", "{bpmn}"], ["-o", "{out}"]),
        (["simulate", "{bpmn}", "--scenario", "{scn}"], ["--trace", "{out}"]),
        (["export-xsd"], ["-o", "{out}"]),
        (["validate", "{broken}"], None),
    ],
    ids=["render", "simulate", "export-xsd", "validate"],
)
def test_stdout_is_utf_8_whatever_the_locale(argv, to_file, tmp_path):
    # the model, the scenario and the diagnostic's element id hold an "é",
    # which an ASCII stdout cannot encode as text
    bpmn, scn, broken, out = (
        tmp_path / name for name in ("m.bpmn", "m.scn.yaml", "broken.bpmn", "out")
    )
    bpmn.write_text(
        (FIXTURES / "bug-triage.bpmn").read_text().replace('"Report bug"', '"Report bug é"'),
        encoding="utf-8",
    )
    scn.write_text(
        (FIXTURES / "bug-triage.scn.yaml").read_text().replace("label: bug-report", "label: bug-réport"),
        encoding="utf-8",
    )
    broken.write_text(
        (FIXTURES / "broken-no-manager.bpmn").read_text().replace("gw-collab-merge", "gw-collab-mérge"),
        encoding="utf-8",
    )
    paths = {"bpmn": bpmn, "scn": scn, "broken": broken, "out": out}
    argv = [a.format(**paths) for a in argv]
    done = spawn(argv, PYTHONIOENCODING="ascii")
    if to_file is None:
        expected = spawn(argv, PYTHONIOENCODING="utf-8")
        assert (done.returncode, expected.stderr) == (EXIT_DOMAIN, b"")
        expected = expected.stdout
    else:
        assert spawn(argv + [a.format(**paths) for a in to_file]).returncode == EXIT_OK
        assert done.returncode == EXIT_OK
        expected = out.read_bytes()
    assert done.stderr == b""
    assert done.stdout == expected
    if argv[0] != "export-xsd":
        assert "é".encode("utf-8") in expected


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["render", "{broken}"], EXIT_DOMAIN, "E-MGR gw-collab-mérge: "),
        (["simulate", FIXTURE, "--scenario", "{scn}"], EXIT_DOMAIN,
         "hagent: bad scenario file: tasks.tâche must be a mapping, got 5\n"),
        (["validate", "{missing}"], EXIT_USAGE, "hagent: cannot read "),
        (["frobnicé"], EXIT_USAGE, "usage: hagent "),
    ],
    ids=["diagnostics", "bad-scenario", "usage-error", "argparse-error"],
)
def test_stderr_is_utf_8_whatever_the_locale(argv, code, text, tmp_path):
    # the model's id, the scenario's task id and the path hold a non-ASCII
    # letter, which an ASCII stderr cannot encode as text
    broken, scn, missing = (
        tmp_path / name for name in ("broken.bpmn", "m.scn.yaml", "nö-such.bpmn")
    )
    broken.write_text(
        (FIXTURES / "broken-no-manager.bpmn").read_text().replace("gw-collab-merge", "gw-collab-mérge"),
        encoding="utf-8",
    )
    scn.write_text("tasks:\n  tâche: 5\n", encoding="utf-8")
    argv = [a.format(broken=broken, scn=scn, missing=missing) for a in argv]
    done = spawn(argv, PYTHONIOENCODING="ascii")
    expected = spawn(argv, PYTHONIOENCODING="utf-8")
    assert (done.returncode, done.stdout) == (expected.returncode, expected.stdout) == (code, b"")
    assert done.stderr == expected.stderr
    assert done.stderr.startswith(text.encode("utf-8"))
    if code == EXIT_USAGE:  # the path or the command, as it was given
        assert argv[-1].encode("utf-8") in done.stderr


@pytest.mark.parametrize(
    "first, then",
    [
        (["simulate", FIXTURE, "--scenario", "{jitter}", "--seed", "5"],
         ["simulate", FIXTURE, "--scenario", "{jitter}"]),
        (["validate", "--strict", "{warn}"], ["validate", "{warn}"]),
        (["render", FIXTURE, "--hints", "{hints}"], ["render", FIXTURE]),
    ],
    ids=["seed", "strict", "hints"],
)
def test_an_option_does_not_outlive_its_call(first, then, tmp_path, capsys):
    jitter = tmp_path / "jitter.scn.yaml"  # jitter draws from the seed
    jitter.write_text(
        (FIXTURES / "bug-triage.scn.yaml").read_text().replace(
            "latencyMs: 120\n", "latencyMs: 120\n    latencyJitterMs: 90\n"
        )
    )
    warn = tmp_path / "warn.bpmn"
    warn.write_text((FIXTURES / "bug-triage.bpmn").read_text().replace(' trustScore="70"', ""))
    hints = tmp_path / "hints.json"
    hints.write_text(json.dumps({"start-bug": [120, 90, 36, 36]}))
    paths = {"jitter": jitter, "warn": warn, "hints": hints}
    first, then = ([a.format(**paths) for a in argv] for argv in (first, then))

    def in_process(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    expected = fresh_process(then)
    assert in_process(first) != expected  # the option changes the outcome
    assert in_process(then) == expected


@pytest.mark.parametrize(
    "argv, stream",
    [([], "err"), (["frobnicate"], "err"), (["simulate", FIXTURE], "err"),
     (["validate", "--help"], "out")],
    ids=["no-command", "unknown-command", "missing-scenario", "help"],
)
def test_usage_and_help_text_repeat_exactly(argv, stream, capsys):
    seen = []
    for _ in range(3):
        code = main(argv)
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    assert seen[0] == seen[1] == seen[2]
    assert getattr(captured, stream).startswith("usage: hagent")
    assert code == (EXIT_OK if stream == "out" else EXIT_USAGE)


# -- the cyclic collector ------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", FIXTURE], EXIT_OK),
        (["validate", BROKEN], EXIT_DOMAIN),
        (["validate", "no-such-file.bpmn"], EXIT_USAGE),
        (["frobnicate"], EXIT_USAGE),
    ],
    ids=["ok", "refused", "unreadable", "usage"],
)
def test_main_leaves_the_collector_as_it_found_it(argv, code, collector, capsys):
    assert main(argv) == code
    assert gc.isenabled() is collector


def test_main_pauses_the_collector_while_a_command_runs(collector, capsys):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        return EXIT_OK

    with mock.patch.dict(cli._COMMANDS, {"validate": command}):
        assert main(["validate", FIXTURE]) == EXIT_OK
    assert seen == [False]
    assert gc.isenabled() is collector


def test_main_leaves_the_collector_as_it_found_it_when_a_command_raises(collector):
    with mock.patch.dict(cli._COMMANDS, {"validate": mock.Mock(side_effect=RuntimeError("bug"))}):
        with pytest.raises(RuntimeError, match="bug"):
            main(["validate", FIXTURE])
    assert gc.isenabled() is collector


def test_serialize_model_pauses_the_collector_and_restores_it(collector):
    # the editor's save path, the second half of the benchmark's round trip
    model = parse_model(Path(FIXTURE).read_bytes()).model
    seen = []
    write_node = xmlio._write_node

    def spy(lines, node):
        seen.append(gc.isenabled())
        write_node(lines, node)

    with mock.patch.object(xmlio, "_write_node", spy):
        serialize_model(model)
    assert seen and not any(seen)
    assert gc.isenabled() is collector
    with pytest.raises(AttributeError):
        serialize_model(None)
    assert gc.isenabled() is collector


def test_serialize_model_in_a_pause_leaves_it_paused(collector):
    model = parse_model(Path(FIXTURE).read_bytes()).model
    with paused_gc():
        data = serialize_model(model)
        assert not gc.isenabled()
        assert serialize_model(parse_model(data).model) == data
        assert not gc.isenabled()
    assert gc.isenabled() is collector


def _generated_models():
    """One small model of each benchmark workload: (name, XML, scenario)."""
    gen = bench_gen()
    cases = [
        gen.region_chain("region-chain", random.Random(1), 4),
        gen.delegation("delegation", random.Random(1), 8),
        gen.lint_invalid("lint-invalid", random.Random(1), 60, ["E-MGR", "W-UNSUPPORTED"]),
        gen.lint_invalid("lint-invalid-at-parse", random.Random(1), 60, ["E-DUP-ID"]),
    ]
    return [(case.id, case.xml, case.scenario) for case in cases]


_SCENARIO_TEXT = Path(SCENARIO).read_bytes()
_ACYCLIC_MODELS = [
    ("bug-triage", Path(FIXTURE).read_bytes(), _SCENARIO_TEXT),
    ("broken-no-manager", Path(BROKEN).read_bytes(), _SCENARIO_TEXT),
    *_generated_models(),
]


def _cyclic_garbage(run) -> int:
    """Objects in reference cycles that ``run`` leaves unreachable."""
    with paused_gc():  # so that no collection frees them before they are counted
        gc.collect()
        run()
        return gc.collect()


@pytest.mark.parametrize(
    "name, xml, scenario", _ACYCLIC_MODELS, ids=[name for name, _, _ in _ACYCLIC_MODELS]
)
def test_commands_leave_no_cyclic_garbage(name, xml, scenario, tmp_path, capsys, cli_parses):
    # what makes it safe to pause the collector while a command runs: all
    # its garbage goes by reference counting, the model included
    bpmn, other, scn = tmp_path / "model.bpmn", tmp_path / "other.bpmn", tmp_path / "model.scn.yaml"
    bpmn.write_bytes(xml)
    other.write_bytes(xml + b"\n")  # the same model in other bytes
    scn.write_bytes(scenario)

    def roundtrip():
        parsed = parse_model(xml)
        if parsed.model is not None:
            serialize_model(parsed.model)

    def commands(path):
        return {
            "validate": lambda: main(["validate", str(path)]),
            "simulate": lambda: main(["simulate", str(path), "--scenario", str(scn),
                                      "--trace", str(tmp_path / "out.trace")]),
            "render": lambda: main(["render", str(path), "-o", str(tmp_path / "out.svg")]),
        }

    operations = {**commands(bpmn), "roundtrip": roundtrip}
    for run in operations.values():  # a first call sets up what is built lazily
        run()
    # each command after the first reuses the model of the one before
    left = {op: _cyclic_garbage(run) for op, run in operations.items()}
    assert left == dict.fromkeys(operations, 0)
    # the documents alternate, so each command parses and drops the model before
    cli_parses.clear()
    fresh = {}
    for op, path in zip(("validate", "simulate", "render", "validate"), (other, bpmn, other, bpmn)):
        fresh[f"{op} {path.name}"] = _cyclic_garbage(commands(path)[op])
    assert fresh == dict.fromkeys(fresh, 0)
    assert len(cli_parses) == len(fresh)


# -- the model of the last document parsed, reused ------------------------------


def test_a_file_rewritten_with_its_old_size_and_mtime_is_parsed_again(tmp_path):
    text = Path(FIXTURE).read_bytes()
    blank = b' trustScore="70"'
    rewritten = text.replace(blank, b" " * len(blank), 1)
    assert len(rewritten) == len(text) and rewritten != text
    path = tmp_path / "model.bpmn"
    path.write_bytes(rewritten)
    expected = _run(["validate", str(path)], None)
    assert b"W-NO-TRUST" in expected[1]
    cli._last = (None, None)
    path.write_bytes(text)
    assert _run(["validate", str(path)], None) == (EXIT_OK, b"", b"", None)
    before = path.stat()
    path.write_bytes(rewritten)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert _run(["validate", str(path)], None) == expected


@pytest.mark.parametrize(
    "document",
    [b"<definitions", next(xml for name, xml, _ in _generated_models() if name.endswith("at-parse"))],
    ids=["malformed", "duplicate-id"],
)
def test_a_document_that_fails_at_parse_is_reused(document, tmp_path, cli_parses):
    path, out = tmp_path / "model.bpmn", tmp_path / "out.svg"
    path.write_bytes(document)
    commands = {
        "simulate": ["simulate", str(path), "--scenario", SCENARIO],
        "render": ["render", str(path), "-o", str(out)],
    }
    cold = {}
    for command, argv in commands.items():
        cli._last = (None, None)
        cold[command] = _run(argv, out)
        assert cold[command][0] == EXIT_DOMAIN and cold[command][2].startswith(b"E-")
    cli._last = (None, None)
    cli_parses.clear()
    assert _run(["validate", str(path)], None)[0] == EXIT_DOMAIN
    assert {command: _run(argv, out) for command, argv in commands.items()} == cold
    assert cli_parses == [document]


def test_threads_get_their_own_files_models(tmp_path, capsys):
    # one file passes validate --strict, the other has a warning; each
    # renders its own picture.  Two threads a file, more than the cores,
    # switching often.
    blank = b' trustScore="70"'
    warned = (FIXTURES / "delegation.bpmn").read_bytes().replace(blank, b" " * len(blank), 1)
    files = {"plain": Path(FIXTURE).read_bytes(), "warned": warned}
    expected = {}
    for name, data in files.items():
        path = tmp_path / f"{name}.bpmn"
        path.write_bytes(data)
        svg = tmp_path / f"{name}.svg"
        cli._last = (None, None)
        codes = (main(["validate", "--strict", str(path)]), main(["render", str(path), "-o", str(svg)]))
        expected[name] = (codes, svg.read_bytes())
    assert expected["plain"][0] == (EXIT_OK, EXIT_OK)
    assert expected["warned"][0] == (EXIT_DOMAIN, EXIT_OK)
    assert expected["plain"][1] != expected["warned"][1]
    clients = [(name, i) for name in files for i in range(2)]
    got = {client: [] for client in clients}

    def client(name, i):
        path, svg = str(tmp_path / f"{name}.bpmn"), tmp_path / f"{name}-{i}.svg"
        for _ in range(50):
            codes = (main(["validate", "--strict", path]), main(["render", path, "-o", str(svg)]))
            got[name, i].append((codes, svg.read_bytes()))

    was, interval = gc.isenabled(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=c) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        gc.enable() if was else gc.disable()
    capsys.readouterr()
    assert got == {(name, i): [expected[name]] * 50 for name, i in clients}
