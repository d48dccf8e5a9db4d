"""Traced-run mode: spans around hagent's public functions.

Each function is wrapped where its callers look it up (``hagent.cli``
imports ``parse_model``, ``validate_model`` and ``render_svg`` by name, so
those names are wrapped there too, with the same wrapper).  Spans are kept
in memory with a name, start, end, parent and the model id as request id,
and written out when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


def _len_first_arg(counter):
    def hook(count, args, result):
        count[counter] += len(args[0])

    return hook


def _len_result(counter, attr=None):
    def hook(count, args, result):
        count[counter] += len(getattr(result, attr) if attr else result)

    return hook


def _markers(count, args, result):
    count["render.render_svg.markers"] += result.count(b"data-hagent-code=")


def _parse_hook(count, args, result):
    document = args[0]
    count["xmlio.parse_model.input_bytes"] += len(
        document.encode("utf-8") if isinstance(document, str) else document
    )
    count["xmlio.parse_model.diagnostics"] += len(result.diagnostics)


class Tracer:
    """Installs span-recording wrappers into the loaded hagent modules."""

    def __init__(self, mods):
        self.mods = mods
        self.request = ""
        self.spans = []  # (span id, parent id, layer, request, start, end)
        self.stack = []  # open spans: [span id, child seconds]
        self.next_id = 0
        self.self_s: Counter = Counter()  # (request, layer) -> self seconds
        self.count: Counter = Counter()  # "layer.counter" -> n
        self._installed = []

    def _wrap(self, layer, fn, hook=None, errors=(), error_counter="errors"):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors:
                tracer.count[f"{layer}.{error_counter}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[(tracer.request, layer)] += duration - frame[1]
                tracer.count[f"{layer}.calls"] += 1
                tracer.spans.append((span_id, parent, layer, tracer.request, start, end))
            if hook is not None:
                hook(tracer.count, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = self.mods
        cli, xmlio, model = mods["cli"], mods["xmlio"], mods["model"]
        validate, simulate, render = mods["validate"], mods["simulate"], mods["render"]
        pm = model.ProcessModel
        plan = [
            ("cli.main", [(cli, "main")], None, ()),
            ("xmlio.parse_model", [(xmlio, "parse_model"), (cli, "parse_model")], _parse_hook, ()),
            ("xmlio.serialize_model", [(xmlio, "serialize_model")],
             _len_result("xmlio.serialize_model.output_bytes"), ()),
            ("model.build", [(pm, "__post_init__")], None, ()),
            ("model.lookup", [(pm, "pool_of")], None, ()),
            ("model.lookup", [(pm, "outgoing")], None, ()),
            ("model.lookup", [(pm, "incoming")], None, ()),
            ("model.find_merge_for", [(model, "find_merge_for")], None, (model.ModelError,)),
            ("validate.validate_model",
             [(validate, "validate_model"), (cli, "validate_model")],
             _len_result("validate.validate_model.diagnostics"), ()),
            ("simulate.load_scenario", [(simulate, "load_scenario")],
             _len_first_arg("simulate.load_scenario.input_bytes"), ()),
            ("simulate.run_simulation", [(simulate, "run_simulation")],
             _len_result("simulate.run_simulation.events", "events"),
             (simulate.SimulationError,)),
            ("simulate.format_trace", [(simulate, "format_trace")], None, ()),
            ("render.render_svg", [(render, "render_svg"), (cli, "render_svg")], _markers, ()),
        ]
        for layer, sites, hook, errors in plan:
            owner, name = sites[0]
            original = getattr(owner, name)
            counter = "refused" if layer == "simulate.run_simulation" else "errors"
            wrapper = self._wrap(layer, original, hook, errors, counter)
            for owner, name in sites:
                if getattr(owner, name) is not original:
                    raise RuntimeError(f"{owner.__name__}.{name} is not the function it wraps")
                self._installed.append((owner, name, original))
                setattr(owner, name, wrapper)

    def uninstall(self):
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def write_spans(self, path):
        """Spans as tab-separated lines: id, parent, layer, request, start and end in µs."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\trequest\tstart_us\tend_us\n")
            for span_id, parent, layer, request, start, end in self.spans:
                fh.write(
                    f"{span_id}\t{parent}\t{layer}\t{request}\t"
                    f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n"
                )
