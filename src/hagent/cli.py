"""Command-line entry point: validate, simulate, render, export-xsd.

Exit codes: 0 success, 1 domain error (validation/simulation failure),
2 usage error.  Payload goes to stdout (or ``-o``/``--trace``), error text
to stderr, both as UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from hagent import model as m
from hagent import simulate
from hagent.render import BadLayout, MissingLayout, check_layout, render_svg
from hagent.validate import render_diagnostics, validate_model
from hagent.xmlio import ParseResult, Severity, export_extension_schema, parse_model, paused_gc

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage, help and error text is UTF-8
    whatever the locale; its subparsers are of this class too."""

    def _print_message(self, message, file=None):
        if message:
            try:
                _write_utf_8(file or sys.stderr, message.encode("utf-8"))
            except (AttributeError, OSError):  # as argparse: no stream, or a closed one
                pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and shared by every later one, so
    # nothing may change it after this returns; main only parses with it
    parser = _Parser(
        prog="hagent",
        description="Parse, validate, simulate, and render human-agentic BPMN models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model against the rule catalog")
    p_validate.add_argument("input", help="BPMN XML file")
    p_validate.add_argument(
        "--strict", action="store_true", help="treat warnings as failures"
    )

    p_sim = sub.add_parser("simulate", help="run a scripted simulation")
    p_sim.add_argument("input", help="BPMN XML file")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML file")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sim.add_argument("--trace", default=None, help="trace output file (default stdout)")

    p_render = sub.add_parser("render", help="render the model to SVG")
    p_render.add_argument("input", help="BPMN XML file")
    p_render.add_argument("-o", "--output", default=None, help="SVG output file")
    p_render.add_argument("--hints", default=None, help="JSON layout hints file")

    p_xsd = sub.add_parser("export-xsd", help="write the extension schema")
    p_xsd.add_argument("-o", "--output", default=None, help="XSD output file")
    return parser


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))


# the bytes of the last document _load parsed and its ParseResult, replaced whole
_last = (None, None)


def _load(path: str) -> ParseResult:
    """``parse_model`` of the file at ``path``, read anew on every call.
    While its bytes equal those of the last document parsed, the same
    ParseResult comes back, with the analyses memoized on its model; no
    command may change it."""
    global _last
    data = _read(path)
    last = _last
    if last[0] == data:
        return last[1]
    _last = (None, None)  # the old model goes before the next one is built
    result = parse_model(data)
    _last = (data, result)
    return result


def _write_utf_8(stream, data: bytes):
    """``data`` on ``stream`` as it is, UTF-8 whatever the locale, after
    what the text layer holds; a stream without a byte layer (io.StringIO)
    takes the text."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(data.decode("utf-8"))
    else:
        stream.flush()
        buffer.write(data)
        buffer.flush()


def _error(text: str):
    """One line of error text on stderr."""
    _write_utf_8(sys.stderr, f"{text}\n".encode("utf-8"))


def _usage_error(message: str) -> int:
    _error(f"hagent: {message}")
    return EXIT_USAGE


def _write_payload(data: bytes, path: Optional[str]):
    if path is None:
        _write_utf_8(sys.stdout, data)
    else:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise SystemExit(_usage_error(f"cannot write {path}: {exc}"))


def _colorize(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    out = []
    for line in text.splitlines():
        if line.startswith("E-"):
            out.append(f"\x1b[31m{line}\x1b[0m")
        elif line.startswith("W-"):
            out.append(f"\x1b[33m{line}\x1b[0m")
        else:
            out.append(line)
    return "\n".join(out)


def cmd_validate(args) -> int:
    result = _load(args.input)
    diagnostics = list(result.diagnostics)
    if result.model is not None:
        diagnostics += validate_model(result.model)
    text = render_diagnostics(diagnostics)
    if text:
        _write_payload(f"{_colorize(text)}\n".encode("utf-8"), None)
    has_error = any(d.severity is Severity.ERROR for d in diagnostics)
    if args.strict:
        has_error = has_error or bool(diagnostics)
    return EXIT_DOMAIN if has_error else EXIT_OK


def cmd_simulate(args) -> int:
    result = _load(args.input)
    if result.model is None:
        _error(render_diagnostics(result.errors))
        return EXIT_DOMAIN
    text = _read(args.scenario)
    try:
        # an invalid model is refused before its scenario is loaded; the
        # check in run_simulation then finds the diagnostics validated here
        simulate.refuse_invalid(result.model)
        try:
            scenario = simulate.load_scenario(text)
        except (ValueError, m.ModelError) as exc:
            _error(f"hagent: bad scenario file: {exc}")
            return EXIT_DOMAIN
        if args.seed is not None:
            scenario.seed = args.seed
        trace = simulate.run_simulation(result.model, scenario)
    except (simulate.SimulationError, m.ModelError) as exc:
        _error(f"hagent: simulation failed: {exc}")
        return EXIT_DOMAIN
    _write_payload(simulate.format_trace(trace).encode("utf-8"), args.trace)
    return EXIT_OK


def _read_hints(path: str) -> dict:
    """``check_layout`` of the JSON in the file at ``path``; BadLayout if it is not JSON."""
    try:
        hints = json.loads(_read(path))
    except RecursionError:
        raise BadLayout("JSON nested too deeply") from None
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise BadLayout(str(exc)) from None
    return check_layout(hints)  # a JSON null is no dict, not "no hints"


def cmd_render(args) -> int:
    result = _load(args.input)
    if result.model is None:
        _error(render_diagnostics(result.errors))
        return EXIT_DOMAIN
    errors = [
        d for d in validate_model(result.model) if d.severity is Severity.ERROR
    ]
    if errors:
        _error(render_diagnostics(errors))
        return EXIT_DOMAIN
    try:
        svg = render_svg(result.model, _read_hints(args.hints) if args.hints else None)
    except BadLayout as exc:
        _error(f"hagent: bad hints file: {exc}")
        return EXIT_DOMAIN
    except MissingLayout as exc:
        _error(f"hagent: {exc}")
        return EXIT_DOMAIN
    _write_payload(svg, args.output)
    return EXIT_OK


def cmd_export_xsd(args) -> int:
    _write_payload(export_extension_schema(), args.output)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "render": cmd_render,
    "export-xsd": cmd_export_xsd,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with paused_gc():
            return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
