"""Record the outputs the gate compares against at the default seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/<workload>.json``.  Run it only at a commit
whose outputs are known good: every later commit must reproduce these
fields bit for bit, with additive fields allowed.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import WORK, pin_threads, run_rep  # noqa: E402


def main() -> int:
    pin_threads()
    from perfbench.workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, write_reference
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        out = WORK / f"reference.{workload.name}"
        try:
            rep = run_rep(workload, DEFAULT_SEED, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if rep.snapshot is None:
            print(f"{workload.name}: a command failed; nothing recorded", file=sys.stderr)
            return 1
        write_reference(REFERENCE_DIR / f"{workload.name}.json", rep.snapshot)
        print(f"{workload.name}: {len(rep.snapshot.ops)} operations recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
