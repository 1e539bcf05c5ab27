"""Chaos sweep: synchronization degradation vs fault intensity.

Not a paper figure — the resilience companion to Fig. 1.  One shipped
fault plan (loss + duplication + latency spike + AS-scoped resets,
partition, and crash) is scaled across an intensity axis over the same
seeds; intensity 0 is the clean baseline.  The shape assertion is the
point: sync degrades monotonically-ish with intensity, and the whole
sweep survives its own faults (no failed seeds) under the supervised
runner.
"""

from __future__ import annotations

import os

from repro.core.fault_experiments import run_sync_under_faults
from repro.core.reports import format_table
from repro.core.sync_experiments import SyncCampaignConfig
from repro.faults.plan import FaultPlan

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

PLAN_PATH = os.path.join(os.path.dirname(__file__), "..", "examples", "faultplan_chaos.json")


def test_sync_under_faults(benchmark):
    plan = FaultPlan.from_file(PLAN_PATH)
    base = SyncCampaignConfig(
        n_reachable=16,
        churn_per_10min=3.0,
        pre_mined_blocks=30,
        sample_period=200.0,
        poll_spread=120.0,
        warmup=300.0,
        duration=(0.5 if FAST else 1.0) * 3600.0,
        seed=21,
    )
    result = benchmark.pedantic(
        lambda: run_sync_under_faults(
            plan, base=base, intensities=(0.0, 0.5, 1.0, 2.0), seeds=[21, 22]
        ),
        rounds=1,
        iterations=1,
    )

    rows = result.degradation_table()
    print()
    print(
        format_table(
            ["intensity", "mean sync %", "median sync %", "Δ vs baseline", "failed", "retried"],
            [
                [
                    row["intensity"],
                    round(row["mean_sync"], 1),
                    round(row["median_sync"], 1),
                    "—" if row["delta_vs_baseline"] is None else round(row["delta_vs_baseline"], 1),
                    len(row["failed_seeds"]),
                    len(row["retried_seeds"]),
                ]
                for row in rows
            ],
            title="Chaos — sync degradation vs fault intensity",
        )
    )
    for level in result.levels:
        stats = {k: v for k, v in level.fault_stats.items() if v}
        print(f"intensity {level.intensity}: {stats or 'no faults fired'}")

    # The supervised sweep completes: every seed at every level reports.
    assert all(not row["failed_seeds"] for row in rows)
    baseline = next(
        (level for level in result.levels if level.intensity == 0), None
    )
    assert baseline is not None
    # Clean baseline really is clean.
    assert all(value == 0 for value in baseline.fault_stats.values())
    # Faults fire once intensity is on, and full intensity hurts sync.
    stressed = result.levels[-1]
    assert stressed.fault_stats["messages_dropped"] > 0
    assert stressed.mean_sync < baseline.mean_sync
