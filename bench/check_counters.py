#!/usr/bin/env python3
"""Check that the traced run's work counters repeat exactly for a seed.

    python3 bench/check_counters.py --workload delegation --seed 3 --seconds 10

Runs ``bench/run.py --trace 1`` twice, one run after the other, and compares
every counter in ``run.COUNTERS``.  Exits 1 if any counter differs or a run
fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from gen import WORKLOADS  # noqa: E402
from run import COUNTERS  # noqa: E402


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    first, second = (traced_run(args.workload, args.seed, args.seconds) for _ in range(2))
    differ = 0
    for name in COUNTERS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        same = a == b
        differ += not same
        print(f"{name:42s} {a:14.6g} {b:14.6g} {'same' if same else 'DIFFERS'}")
    ok = differ == 0 and first["correct"] and second["correct"]
    print(f"{args.workload} seed {args.seed}: "
          f"{'counters repeat exactly' if ok else f'{differ} counters differ'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
