import gc
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR.parent / "fixtures"
BENCH = TESTS_DIR.parent / "bench"

if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


def bench_gen():
    """The benchmark's model generator, ``bench/gen.py``, imported read-only."""
    sys.path.insert(0, str(BENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(BENCH))
    return gen


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test; its state is
    put back afterwards."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()


@pytest.fixture(autouse=True)
def cold_memo():
    """Each test starts with ``hagent.cli``'s memo of the last parsed
    document empty, so that no model is carried from one test to the next."""
    from hagent import cli

    cli._last = (None, None)


@pytest.fixture
def cli_parses(monkeypatch):
    """The documents ``hagent.cli`` hands to ``parse_model``, in order."""
    from hagent import cli

    parsed = []
    original = cli.parse_model
    monkeypatch.setattr(cli, "parse_model", lambda data: parsed.append(data) or original(data))
    return parsed
