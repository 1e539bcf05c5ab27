"""Recompute the pinned fingerprints in ``perfbench/fingerprints.json``.

Runs one full-size unit per workload for its default and held-out seed
and writes the figure fingerprints the benchmark checks against::

    python3 perfbench/pin.py

Re-pinning is only legitimate for a change that is meant to move the
simulated figures; say so wherever the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.run import PINS_PATH, WORK_ROOT, run_unit  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def compute() -> Dict[str, Dict[str, str]]:
    pins: Dict[str, Dict[str, str]] = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="pin-", dir=WORK_ROOT)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls("full")
            pins[name] = {}
            for seed in (cls.default_seed, cls.held_out_seed):
                outcome, _ = run_unit(workload, seed, work_dir)
                pins[name][str(seed)] = outcome.fingerprint
                print(f"{name} seed {seed}: {outcome.fingerprint}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
    return pins


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    pins = compute()
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
