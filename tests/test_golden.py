"""Golden master: every output of the CLI and the round trip, pinned.

Each model (both fixtures, and the first block of every benchmark workload
at seed 7) goes through ``hagent validate``, ``simulate`` and ``render``
(exit code, stdout bytes, stderr bytes and the output file) and through
``serialize_model(parse_model(...))``.  Each output is listed with a prefix
of its sha256 in ``golden_outputs.txt``, and the sha256 of a workload's
listing is pinned below.  On a change, the test names the first
(model, command, stream) that differs from the listing.

A change that alters an output on purpose records the listing again, with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which output changed and why.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from hagent import cli
from hagent.xmlio import parse_model, serialize_model

from conftest import FIXTURES, TESTS_DIR, bench_gen

LISTING = TESTS_DIR / "golden_outputs.txt"
SEED = 7

# sha256 of each workload's lines of the listing, recorded at the commit
# that added this test
DIGESTS = {
    "fixtures": "1490224d54e50c83265b489d3f86b1592925159001cccecc9dbedceb1a524aec",
    "region-chain": "d1e9e02cf8553b5e3b888c1372fe61b228f4f75ce5a86df644288483be9e6656",
    "delegation": "d4d0b63983f63a7c9186b21cfdeb9d4b5659cf5255eb4c95b58ebb2d166d7567",
    "lint-invalid": "da6e7d93351e1f2798e6410d566059b420a2fdaa5bb6b4247fbdae8adf30f572",
}


def _cases(workload):
    """(model id, BPMN bytes, scenario bytes) of the workload's models."""
    if workload == "fixtures":
        scenario = (FIXTURES / "bug-triage.scn.yaml").read_bytes()
        for name in ("bug-triage", "broken-no-manager"):
            yield name, (FIXTURES / f"{name}.bpmn").read_bytes(), scenario
        return
    gen = bench_gen()
    for case in gen.build_deck(workload, SEED)[: gen.BLOCK_SIZE[workload]]:
        yield case.id, case.xml, case.scenario


def _run(argv, output):
    """Exit code, stdout and stderr as bytes, and the output file's bytes
    (None if it was not written) of one CLI command."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    err.flush()
    payload = None
    if output is not None and output.exists():
        payload = output.read_bytes()
        output.unlink()
    return code, out.buffer.getvalue(), err.buffer.getvalue(), payload


def _short(data):
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:16]


def listing(workload, work: Path, order=("validate", "simulate", "render")):
    """The workload's lines of the listing: model, command, stream and the
    exit code or a sha256 prefix of the bytes, tab-separated; each model's
    commands run in ``order``."""
    lines = []
    bpmn, scn, out = work / "model.bpmn", work / "model.scn.yaml", work / "out"
    for model_id, xml, scenario in _cases(workload):
        bpmn.write_bytes(xml)
        scn.write_bytes(scenario)
        commands = {
            "validate": ["validate", str(bpmn)],
            "simulate": ["simulate", str(bpmn), "--scenario", str(scn), "--trace", str(out)],
            "render": ["render", str(bpmn), "-o", str(out)],
        }
        for command in order:
            code, stdout, stderr, payload = _run(commands[command], out if command != "validate" else None)
            lines.append(f"{model_id}\t{command}\texit\t{code}")
            lines.append(f"{model_id}\t{command}\tstdout\t{_short(stdout)}")
            lines.append(f"{model_id}\t{command}\tstderr\t{_short(stderr)}")
            if command != "validate":
                lines.append(f"{model_id}\t{command}\tfile\t{_short(payload)}")
        parsed = parse_model(xml).model
        written = None if parsed is None else serialize_model(parsed)
        lines.append(f"{model_id}\troundtrip\txml\t{_short(written)}")
    return lines


def _digest(lines):
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def _recorded():
    """Workload -> its lines of the checked-in listing."""
    out = {}
    for line in LISTING.read_text(encoding="utf-8").splitlines():
        workload, rest = line.split("\t", 1)
        out.setdefault(workload, []).append(rest)
    return out


def test_listing_is_the_pinned_one():
    recorded = _recorded()
    assert sorted(recorded) == sorted(DIGESTS)
    assert {w: _digest(lines) for w, lines in recorded.items()} == DIGESTS


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_outputs_keep_their_digests(workload, tmp_path):
    lines = listing(workload, tmp_path)
    if _digest(lines) == DIGESTS[workload]:
        return
    expected = _recorded().get(workload, [])
    for got, want in zip(lines, expected):
        if got != want:
            model, command, stream, recorded = want.split("\t")
            value = got.split("\t")[-1]
            pytest.fail(f"{model} {command} {stream} differs: {value} where {recorded} was recorded")
    pytest.fail(f"{len(lines)} outputs where {len(expected)} were recorded")


def _keyed(lines):
    """(model, command, stream) -> the recorded value."""
    return {tuple(line.split("\t")[:3]): line.split("\t")[3] for line in lines}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_outputs_do_not_depend_on_the_order_of_commands(workload, tmp_path):
    # render first, so that simulate and validate reuse the model render
    # parsed, where the listing's order has validate parse it
    got = _keyed(listing(workload, tmp_path, order=("render", "simulate", "validate")))
    expected = _keyed(_recorded()[workload])
    assert sorted(got) == sorted(expected)
    for key, want in expected.items():
        assert got[key] == want, f"{' '.join(key)} differs: {got[key]} where {want} was recorded"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {w: listing(w, Path(tmp)) for w in DIGESTS}
    with open(LISTING, "w", encoding="utf-8") as fh:
        for workload, lines in table.items():
            fh.writelines(f"{workload}\t{line}\n" for line in lines)
    for workload, lines in table.items():
        print(f'    "{workload}": "{_digest(lines)}",')
