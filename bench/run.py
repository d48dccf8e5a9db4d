#!/usr/bin/env python3
"""hagent benchmark: drives the CLI in-process the way its users do.

    python3 bench/run.py --workload region-chain --seed 1 --seconds 38 --trace 0

One closed-loop client on one thread: each model of a seeded deck goes
through four operations, each timed on its own -- ``hagent validate``,
``hagent simulate``, ``hagent render`` (all via ``hagent.cli.main``) and the
editor's load/save path ``serialize_model(parse_model(bytes).model)``.
The deck comes in blocks, each a full ladder of model sizes (see gen.py);
the run takes whole blocks in order until the next one would overrun
``--seconds`` (or, while it holds fewer than MIN_SAMPLES models, 1.25 times
that), wrapping round if the deck runs out.  Every output is
checked against the outcome the generator built in (see oracle.py); a check
runs outside the timed region, once per model, and a model met again must
repeat its checked output exactly.  Operations and set-up are timed in
CPU time of the running thread (see ``cpu_clock``) and reported at a fixed
reference speed of the host (see ``PROBE_S``); the percentiles are
Harrell-Davis estimates (see ``quantile``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it replays the first TRACE_BLOCKS blocks, each once untraced
and once traced, and reports the per-layer metrics (see tracing.py) and the
tracing overhead.  The last line
of standard output is one JSON object; the lines before it are a readable
table.  The run exits non-zero, printing no result, if hagent cannot be
imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

# Operations and set-up are timed in CPU time of this thread.  hagent runs
# on the calling thread and never sleeps or waits on another process, so on
# an idle machine this equals wall time; on a shared host it leaves out the
# time the thread was runnable but held off a CPU (preemption, and hypervisor
# steal time, which the guest kernel subtracts from task CPU time).
cpu_clock = time.thread_time

# The host's own speed still shifts by a quarter or more for minutes at a
# time, moving every timing of a run together.  So before each operation the
# run times a fixed integer loop (benchmark code that hagent cannot touch; it
# allocates no object the collector tracks), and reports each timing scaled
# to a host on which that loop takes PROBE_S: multiplied by PROBE_S over the
# median loop time of the PROBE_WINDOW probes on either side of it.  Set-up,
# which comes before the first probe, is scaled by the run's median probe.
# A change to hagent moves its timings and not the loop's, so it still shows.
PROBE_LOOPS = 10_000
PROBE_S = 0.001
PROBE_WINDOW = 20

OPS = ("validate", "simulate", "render", "roundtrip")
MODULES = ("cli", "xmlio", "model", "validate", "simulate", "render")
SETUP_REPS = 3
MIN_SAMPLES = 100  # per operation, so that ten lie beyond p90
TRACE_BLOCKS = 2  # a traced run replays these blocks only, so its counters repeat exactly
WORK_DIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"

# Per-layer counters that must repeat exactly for a seed (check_counters.py).
COUNTERS = (
    "model.find_merge_for.calls",
    "model.find_merge_for.errors",
    "model.find_merge_for.calls_per_gateway",
    "model.lookup.calls",
    "model.build.calls",
    "xmlio.parse_model.input_kb",
    "xmlio.parse_model.diagnostics",
    "xmlio.serialize_model.output_kb",
    "validate.validate_model.calls",
    "validate.validate_model.diagnostics",
    "simulate.load_scenario.input_kb",
    "simulate.run_simulation.refused",
    "simulate.run_simulation.events",
    "render.render_svg.markers",
    "cli.main.calls",
)
SELF_TIMES = (
    "model.find_merge_for",
    "model.lookup",
    "model.build",
    "xmlio.parse_model",
    "xmlio.serialize_model",
    "validate.validate_model",
    "simulate.load_scenario",
    "simulate.run_simulation",
    "simulate.format_trace",
    "render.render_svg",
    "cli.main",
)
SCALING = ("model.find_merge_for", "model.lookup", "xmlio.parse_model", "render.render_svg")


class SetupError(Exception):
    pass


def set_up(workload, seed, work: Path):
    """Generate and write the deck, then import hagent from this checkout.

    Returns (seconds, deck, input paths, modules).
    """
    for name in [n for n in sys.modules if n == "hagent" or n.startswith("hagent.")]:
        del sys.modules[name]
    start = cpu_clock()
    deck = gen.build_deck(workload, seed)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    paths = []
    for case in deck:
        bpmn, scn = work / f"{case.id}.bpmn", work / f"{case.id}.scn.yaml"
        bpmn.write_bytes(case.xml)
        scn.write_bytes(case.scenario)
        paths.append((str(bpmn), str(scn)))
    try:
        mods = {name: importlib.import_module(f"hagent.{name}") for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import hagent from {SRC}: {exc}") from exc
    elapsed = cpu_clock() - start
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"hagent was imported from {origin}, not from {SRC}")
    return elapsed, deck, paths, mods


class Client:
    """Runs one operation at a time and checks its output."""

    def __init__(self, mods, work: Path):
        self.cli = mods["cli"]
        self.xmlio = mods["xmlio"]
        self.trace_out = work / "out.trace"
        self.svg_out = work / "out.svg"
        self.verified = {}  # (case id, op) -> signature of the checked output

    def run(self, op, case, bpmn, scn):
        """Returns (seconds, outcome)."""
        if op == "roundtrip":
            data = case.xml
            start = cpu_clock()
            parsed = self.xmlio.parse_model(data)
            out = self.xmlio.serialize_model(parsed.model) if parsed.model is not None else None
            return cpu_clock() - start, (parsed, out)
        if op == "validate":
            argv, target = ["validate", bpmn], None
        elif op == "simulate":
            target = self.trace_out
            argv = ["simulate", bpmn, "--scenario", scn, "--trace", str(target)]
        else:
            target = self.svg_out
            argv = ["render", bpmn, "-o", str(target)]
        if target is not None and target.exists():
            target.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = cpu_clock()
            code = self.cli.main(argv)
            elapsed = cpu_clock() - start
        payload = target.read_bytes() if target is not None and target.exists() else None
        return elapsed, (code, stdout.getvalue(), stderr.getvalue(), payload)

    def check(self, op, case, outcome):
        """Problems with this output; an output equal to one already checked passes."""
        key = (case.id, op)
        sig = oracle.signature(op, outcome)
        if key in self.verified:
            return [] if self.verified[key] == sig else [f"{op} output changed between runs of the model"]
        x = case.expect
        if op == "validate":
            problems = oracle.check_validate(x, outcome)
        elif op == "simulate":
            problems = oracle.check_simulate(x, outcome)
        elif op == "render":
            problems = oracle.check_render(x, outcome)
        else:
            problems = oracle.check_roundtrip(x, outcome, self.xmlio)
        if not problems:
            self.verified[key] = sig
        return problems


def probe():
    """CPU seconds of the fixed loop that gauges the host's speed."""
    start = cpu_clock()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return cpu_clock() - start


class Tally:
    """Timings are (seconds, index of the probe taken just before)."""

    def __init__(self):
        self.samples = {op: [] for op in OPS}
        self.probes = []
        self.model_timings = []  # of models that finished all four operations
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def models(self):
        return len(self.model_timings) // len(OPS)


def run_block(client, deck, paths, block, tally: Tally, tracer=None):
    """Every model of one block in turn; returns the seconds spent inside operations."""
    busy = 0.0
    for i in block:
        case, (bpmn, scn) = deck[i], paths[i]
        if tracer is not None:
            tracer.request = case.id
        finished = True
        model_s = 0.0
        timings = []
        for op in OPS:
            tally.attempted += 1
            tally.probes.append(probe())
            try:
                elapsed, outcome = client.run(op, case, bpmn, scn)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                tally.failed += 1
                finished = False
                tally.problems.append(f"{case.id} {op} raised {exc!r}")
                continue
            model_s += elapsed
            timing = (elapsed, len(tally.probes) - 1)
            tally.samples[op].append(timing)
            timings.append(timing)
            problems = client.check(op, case, outcome)
            if problems:
                tally.failed += 1
                tally.problems += [f"{case.id} {op}: {p}" for p in problems]
        busy += model_s
        if finished:
            tally.model_timings += timings
    return busy


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of `values`.

    A weighted mean of the sorted samples, the i-th of n weighted by the mass
    a Beta(q(n+1), (1-q)(n+1)) distribution puts on ((i-1)/n, i/n).  It draws
    on the samples around the quantile rather than on one of them, so a run's
    figure moves less with the speed of the host at the moment that one
    sample was timed.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 32  # midpoint-rule steps per sample interval
    weights = []
    for i in range(n):
        us = ((i * steps + k + 0.5) / (n * steps) for k in range(steps))
        weights.append([(a - 1) * math.log(u) + (b - 1) * math.log1p(-u) for u in us])
    top = max(max(w) for w in weights)
    mass = [sum(math.exp(v - top) for v in w) for w in weights]
    return sum(m * x for m, x in zip(mass, xs)) / sum(mass)


def host_speed(tally: Tally):
    """The run's median probe, and a function giving a timing's seconds at
    the reference speed (see PROBE_S)."""
    probes = tally.probes

    def scaled(timing):
        seconds, i = timing
        return seconds * PROBE_S / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])

    return statistics.median(probes), scaled


def end_to_end(tally: Tally, setup_s: float):
    probe_s, scaled = host_speed(tally)
    metrics = {}
    for op in OPS:
        ms = [scaled(t) * 1000 for t in tally.samples[op]]
        metrics[f"{op}_ms.p50"] = (quantile(ms, 0.5), "ms")
        metrics[f"{op}_ms.p90"] = (quantile(ms, 0.9), "ms")
    metrics["models_per_s"] = (tally.models / sum(map(scaled, tally.model_timings)), "1/s")
    metrics["setup_s"] = (setup_s * PROBE_S / probe_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer: Tracer, cases, cycles, traced_s, untraced_s):
    """Per-model averages over `cycles` traced replays of `cases`."""
    runs = cycles * len(cases)
    count = tracer.count
    metrics = {}
    for name in COUNTERS:
        layer, _, field = name.rpartition(".")
        if field == "calls_per_gateway":
            gateways = cycles * sum(c.expect.gateways for c in cases)
            value = count[f"{layer}.calls"] / gateways if gateways else 0.0
            metrics[name] = (value, "ratio")
        elif field.endswith("_kb"):
            total = count[f"{layer}.{field[:-3]}_bytes"]
            metrics[name] = (total / (1024 * runs), "KiB")
        else:
            metrics[name] = (count[name] / runs, "count")
    self_by_layer = Counter()
    for (_, layer), seconds in tracer.self_s.items():
        self_by_layer[layer] += seconds
    for layer in SELF_TIMES:
        metrics[f"{layer}.self_ms"] = (self_by_layer[layer] * 1000 / runs, "ms")
    for layer in SCALING:
        points = [
            (c.expect.nodes, tracer.self_s.get((c.id, layer), 0.0) / cycles) for c in cases
        ]
        metrics[f"{layer}.scaling_exp"] = (gen.log_slope(points), "ratio")
    overhead = traced_s / untraced_s - 1
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hagent").is_dir():
        print(f"bench: no hagent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPS):
            elapsed, deck, paths, mods = set_up(args.workload, args.seed, work)
            setups.append(elapsed)
        client = Client(mods, work)
        # warm-up on the smallest model so lazy imports and caches fill first
        small = min(range(len(deck)), key=lambda i: len(deck[i].xml))
        for op in OPS:
            client.run(op, deck[small], *paths[small])
        # the deck stays alive all run; keep the collector from rescanning it,
        # as a CLI process holding one model would not
        gc.collect()
        gc.freeze()

        size = gen.BLOCK_SIZE[args.workload]
        blocks = [range(i, min(i + size, len(deck))) for i in range(0, len(deck), size)]
        tracer = None
        if args.trace:
            tracer = Tracer(mods)
            blocks = blocks[:TRACE_BLOCKS]
        tally, traced = Tally(), Tally()
        busy = {False: 0.0, True: 0.0}
        done = 0  # blocks run, wrapping round the deck
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            block = blocks[done % len(blocks)]
            busy[False] += run_block(client, deck, paths, block, tally)
            if tracer is not None:  # the same block again, traced
                tracer.install()
                try:
                    busy[True] += run_block(client, deck, paths, block, traced, tracer)
                finally:
                    tracer.uninstall()
            done += 1
            last = time.perf_counter() - t0
            if tracer is not None:  # traced runs replay whole cycles of their blocks
                if done % len(blocks) == 0 and (
                    time.perf_counter() - start + last * len(blocks) > args.seconds
                ):
                    break
            else:
                ahead = time.perf_counter() - start + last
                short = tally.models < MIN_SAMPLES and ahead <= 1.25 * args.seconds
                if ahead > args.seconds and not short:
                    break
        wall = time.perf_counter() - start
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_DIR.rmdir()

    attempted = tally.attempted + traced.attempted
    failed = tally.failed + traced.failed
    problems = tally.problems + traced.problems
    for line in problems[:20]:
        print(f"# FAIL {line}")
    print(f"# workload={args.workload} seed={args.seed} blocks run={done} "
          f"of {len(blocks)} x {size} models, {wall:.1f}s{' (each also traced)' if tracer else ''}")
    print(f"# samples per operation={len(tally.samples['validate'])} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.4f}")
    if tracer is None:
        probe_s, _ = host_speed(tally)
        print(f"# host speed: median probe {probe_s * 1000:.4f} ms of CPU time, "
              f"timings scaled by about {PROBE_S / probe_s:.4f}")
        metrics = end_to_end(tally, statistics.median(setups))
    else:
        cases = [deck[i] for block in blocks for i in block]
        metrics = per_layer(tracer, cases, done // len(blocks), busy[True], busy[False])
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-s{args.seed}.tsv"
        tracer.write_spans(spans)
        print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    if tracer is None:
        print(f"{'failed_frac':42s} {failed / attempted:14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
