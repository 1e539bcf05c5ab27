"""Layered benchmark of the simulator: one workload per invocation.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload gossip_storm --seed 5 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time (median of
fresh-process set-ups), the measured phase's wall time and event
throughput (medians over repeated units), and peak RSS.  Times are
scaled to a fixed host speed (see ``perfbench/hostspeed.py``).  ``--trace 1``
runs one untraced and one traced unit and prints the per-layer split.
Every unit's figures are fingerprinted and checked; the last line of
standard output is one JSON object, and the exit code is 1 when any
check failed.  See ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench import hostspeed, layers  # noqa: E402
from perfbench.hostspeed import HostProbe  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CACHE_HIT_CHECKS, CACHE_HIT_FETCHES, WORKLOADS, Outcome, Workload,
)

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Measured units per run, at least and at most.
MIN_UNITS = 2
MAX_UNITS = 50
#: Scratch space for stores and set-up probes, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
PINS_PATH = os.path.join(HERE, "fingerprints.json")
#: End-to-end metric units, in print order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Checks:
    """Correctness checks of one run: attempted, failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(name)


def check_fingerprint(
    checks: Checks, outcome: Outcome, pinned: Optional[str], first: Optional[str]
) -> None:
    """Pinned seed: match the pin.  Other seeds: match the run's first unit."""
    if pinned is not None:
        checks.record(
            f"fingerprint {outcome.fingerprint[:12]} == pin", outcome.fingerprint == pinned
        )
    elif first is not None:
        checks.record("fingerprint repeats across units", outcome.fingerprint == first)
    for name, passed in outcome.checks.items():
        checks.record(name, passed)


def run_unit(
    workload: Workload, seed: int, work_dir: str,
    fetches: int = CACHE_HIT_CHECKS, probe: Optional[HostProbe] = None,
) -> Tuple[Outcome, float]:
    """Prepare (untimed) and measure one unit; returns it with its total time.

    The total covers :meth:`Workload.measure` only, the same phase the
    traced run's root covers; read-back and cache hits come after it.
    With ``probe`` installed, the outcome's ``wall_s`` leaves out the
    reference pieces, which are kept on the outcome.
    """
    state = workload.prepare(seed, work_dir)
    gc.collect()
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    raw = workload.measure(state)
    total = time.perf_counter() - start
    timed = probe.stop() if probe is not None else None
    workload.read_back(raw, fetches)
    outcome = workload.conclude(raw)
    if timed is not None:
        outcome.wall_s, outcome.pieces_s = timed
    del state, raw
    gc.collect()
    return outcome, total


def probe_setup(args: argparse.Namespace, work_dir: str) -> float:
    """Time one set-up in a fresh interpreter."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-probe", work_dir,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=170, cwd=ROOT, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def probed_setup(workload: Workload, seed: int, work_dir: str) -> float:
    """One set-up, scaled by reference pieces run just before and after."""
    hostspeed.prepare()
    pieces = [hostspeed.piece_s() for _ in range(3)]
    start = time.perf_counter()
    workload.setup(seed, work_dir)
    measured = time.perf_counter() - start
    pieces.extend(hostspeed.piece_s() for _ in range(3))
    return hostspeed.scaled(measured, pieces)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` cut points)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args: argparse.Namespace, workload: Workload, work_dir: str,
               checks: Checks, pinned: Optional[str]) -> Dict[str, float]:
    setups = [probe_setup(args, work_dir) for _ in range(SETUP_REPEATS)]
    outcomes: List[Outcome] = []
    hostspeed.prepare()
    with HostProbe() as probe:
        start = time.perf_counter()
        while True:
            outcome, _ = run_unit(workload, args.seed, work_dir, probe=probe)
            first = outcomes[0].fingerprint if outcomes else None
            check_fingerprint(checks, outcome, pinned, first)
            outcomes.append(outcome)
            # Stop before a unit that would end past --seconds.
            elapsed = time.perf_counter() - start
            projected = elapsed * (len(outcomes) + 1) / len(outcomes)
            if len(outcomes) >= MIN_UNITS and (
                projected > args.seconds or len(outcomes) == MAX_UNITS
            ):
                break
    walls = [o.wall_s for o in outcomes]
    pieces = [statistics.median(o.pieces_s) for o in outcomes]
    scaled = [hostspeed.scaled(o.wall_s, o.pieces_s) for o in outcomes]
    wall = statistics.median(scaled)
    print(
        f"{workload.name}: {len(outcomes)} units, raw wall {statistics.median(walls):.3f} "
        f"({min(walls):.3f}-{max(walls):.3f}) s, "
        f"piece {1e3 * min(pieces):.3f}-{1e3 * max(pieces):.3f} ms "
        f"({len(outcomes[0].pieces_s)}/unit), scaled wall {wall:.3f} s, "
        f"{outcomes[0].events} events/unit, "
        f"scaled set-ups {', '.join(f'{s:.3f}' for s in setups)} s",
        file=sys.stderr,
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "events_per_s": statistics.median(
            o.events / unit_s for o, unit_s in zip(outcomes, scaled)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def store_reads(outcome: Outcome) -> Dict[str, float]:
    hits = outcome.cache_hits_ms
    if not hits:
        return {}
    return {
        "readback_s": outcome.readback_s,
        "cache_hit_p50_ms": statistics.median(hits),
        "cache_hit_p90_ms": percentile(hits, 90),
        "cache_hit_samples": len(hits),
    }


def per_layer(args: argparse.Namespace, workload: Workload, work_dir: str,
              checks: Checks, pinned: Optional[str]) -> Dict[str, float]:
    untraced, untraced_total = run_unit(
        workload, args.seed, work_dir, fetches=CACHE_HIT_FETCHES
    )
    check_fingerprint(checks, untraced, pinned, None)

    with Tracer() as tracer:
        layers.install(tracer)
        state = workload.prepare(args.seed, work_dir)
        before = workload.counters_before(state)
        gc.collect()
        raw = tracer.measure(lambda: workload.measure(state))
    # After the wrappers are gone: the root covers what wall_s covers.
    workload.read_back(raw, CACHE_HIT_CHECKS)
    traced = workload.conclude(raw)
    del state, raw
    checks.record("traced fingerprint equals untraced", traced.fingerprint == untraced.fingerprint)
    for name, passed in traced.checks.items():
        checks.record(f"traced: {name}", passed)
    layers.check_coverage(tracer, before, traced.counters)
    for line in tracer.report_problems():
        print(f"{workload.name}: {line}", file=sys.stderr)
    result = layers.metrics(
        tracer, before, traced.counters, untraced_total, store_reads(untraced)
    )
    print(
        f"{workload.name}: traced {tracer.root_wall_s:.3f} s vs untraced "
        f"{untraced_total:.3f} s; self-time sum {layers.self_time_total(tracer):.6f} s",
        file=sys.stderr,
    )
    return result


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the measured units repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a reduced size for the benchmark's tests")
    parser.add_argument("--setup-probe", metavar="WORK_DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.size)

    if args.setup_probe is not None:
        setup_s = probed_setup(workload, args.seed, args.setup_probe)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Fail before any work unless the package comes from this checkout.
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the repro package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # run_stored_campaign asks git for the code version; keep its search
    # for a repository from climbing out of the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(ROOT))

    pins = load_pins().get(workload.name, {}) if args.size == "full" else {}
    pinned = pins.get(str(args.seed))
    checks = Checks()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        if args.trace:
            values = per_layer(args, workload, work_dir, checks, pinned)
            units = layers.METRICS
        else:
            values = end_to_end(args, workload, work_dir, checks, pinned)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
    for failure in checks.failures:
        print(f"{workload.name}: CHECK FAILED: {failure}", file=sys.stderr)
    result: Dict[str, Any] = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
