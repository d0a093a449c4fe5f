"""Time the repository's Tier-1 test suite once and keep its slowest tests.

Run from the repository root:

    python3 perfbench/tier1.py

It runs ``pytest -q --continue-on-collection-errors --durations=15`` with
``src`` on ``PYTHONPATH``, writes the full pytest output to
``perfbench/out/tier1_durations.txt`` and a summary (wall seconds, exit
code, last pytest line, machine) to ``perfbench/out/tier1.json``.  This is
a reference number, not a benchmark workload: one run takes minutes, too
long to repeat for every comparison.  It changes no test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=15"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - start
    (OUT / "tier1_durations.txt").write_text(proc.stdout)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    summary = {
        "command": " ".join(cmd[1:]),
        "wall_s": wall,
        "exit_code": proc.returncode,
        "pytest_summary": lines[-1] if lines else "",
        "machine": machine.describe(),
    }
    (OUT / "tier1.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
