#!/usr/bin/env python3
"""Determinism self-test of the persona benchmark.

Usage, from the repository root::

    python3 perfbench/selftest.py

For each workload, runs ``perfbench/run.py --ops N`` twice with the same
seed, each in a fresh process, and requires the op counts to repeat
exactly: block reads, writes, scrubs and scans, journal commits and
appends, decodes, index page reads, and the membranes loaded, consented,
processed and denied.  A third run on another seed must pass every
correctness check.  Exits non-zero on any difference or failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Traced ops per self-test run; enough to cover every op kind.
OPS = {"customer": 200, "processor": 2000, "analytics": 30}
#: The seed run twice, and the seed that must also pass every check.
SEED = 11
OTHER_SEED = 12


def run(workload: str, seed: int) -> Tuple[bool, Dict[str, int]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--ops", str(OPS[workload])],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return False, {}
    report = json.loads(lines[-2])
    summary = json.loads(lines[-1])
    return proc.returncode == 0 and summary["correct"], report["report"]["counts"]


def main() -> int:
    ok = True
    for workload in OPS:
        first_ok, first = run(workload, SEED)
        second_ok, second = run(workload, SEED)
        other_ok, _ = run(workload, OTHER_SEED)
        differing = sorted(
            key for key in first.keys() | second.keys()
            if first.get(key) != second.get(key)
        )
        passed = first_ok and second_ok and other_ok and not differing
        ok &= passed
        print(f"{workload:10s} {'ok' if passed else 'FAIL'}  counts {first}")
        if differing:
            print(f"  differing counts: {[(k, first.get(k), second.get(k)) for k in differing]}")
        if not (first_ok and second_ok and other_ok):
            print(f"  correctness: seed {SEED} {first_ok}/{second_ok}, "
                  f"seed {OTHER_SEED} {other_ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
