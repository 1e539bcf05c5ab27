"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands run the paper's experiments at a chosen scale and print the
paper-vs-measured tables; ``--export DIR`` additionally writes the raw
figure data as CSV.

Commands
--------
``campaign``   the Fig. 2 crawl campaign (Figs. 3-5, 8, 12, 13, Table I)
``sync``       the Fig. 1 contrast (2019-like vs 2020-like churn)
``chaos``      sync-% degradation vs. fault intensity (``repro.faults``)
``attack``     sync-% degradation vs. attacker count (``repro.adversary``)
``variants``   the protocol-variant lab: policy variant x churn x fault x
               fidelity cross-product (``repro.bitcoin.policy``)
``relay``      the Fig. 10/11 relay-delay measurement
``conn``       the Fig. 6/7 connection experiments
``store``      inspect the run store (``ls`` / ``show`` / ``gc`` / ``diff``)
``serve``      run the campaign service over a run store (``repro.serve``)
``lint``       determinism & checkpoint-safety static analysis

``campaign --store DIR`` checkpoints the run into a content-addressed
store after every snapshot; an interrupted run resumes from its last
checkpoint (``--resume RUN_ID`` to be explicit) and a completed run with
the same config is a cache hit.

``--faults plan.json`` (on ``campaign``, ``sync``, and ``chaos``)
compiles a deterministic fault plan onto every run; ``--seed-timeout``
and ``--retries`` tune the supervised runner that multi-seed sweeps
execute under.

``--profile [OUT]`` (same three commands) runs the whole command under
cProfile and writes the hotspot ranking to ``OUT.txt``/``OUT.json``
(see ``repro.perf.profiler``) — the first step of any performance
investigation (docs/architecture.md, "The hot path").
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

from . import core
from .bitcoin import NodeConfig
from .core import export as export_mod
from .core.variant_experiments import DEFAULT_CHURN_LEVELS, DEFAULT_VARIANTS
from .core.reports import comparison_table, format_table
from .netmodel import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
    calibration as cal,
)
from .units import DAYS, HOURS


def _warn_truncated(label: str, indices_or_seeds) -> None:
    print(
        f"WARNING: {label} truncated at {indices_or_seeds} — the affected "
        f"measurements are lower bounds, not full crawls"
    )


def _load_fault_plan(args: argparse.Namespace):
    """The FaultPlan named by ``--faults``, or None."""
    path = getattr(args, "faults", None)
    if path is None:
        return None
    from .faults import FaultPlan

    plan = FaultPlan.from_file(path)
    print(f"fault plan: {len(plan)} fault(s) loaded from {path}")
    return plan


def _supervisor_config(args: argparse.Namespace):
    """A SupervisorConfig from ``--seed-timeout``/``--retries``, or None."""
    timeout = getattr(args, "seed_timeout", None)
    retries = getattr(args, "retries", None)
    if timeout is None and retries is None:
        return None
    config = core.SupervisorConfig()
    if timeout is not None:
        config.timeout = timeout
    if retries is not None:
        config.retries = retries
    return config


def _report_supervision(label: str, sweep) -> None:
    """Print the sweep's partial-result bookkeeping, when any."""
    if sweep.retried_seeds:
        print(
            f"NOTE: {label} seeds {sweep.retried_seeds} needed retries "
            f"(crashed or hung workers) but completed"
        )
    if sweep.failed_seeds:
        print(
            f"WARNING: {label} seeds {sweep.failed_seeds} failed permanently "
            f"— pooled statistics cover the {len(sweep.seeds)} completed "
            f"seed(s) only"
        )


def _sync_base(args: argparse.Namespace, **extra) -> "core.SyncCampaignConfig":
    """The Fig. 1 campaign config the sync/chaos/attack flags describe."""
    return core.SyncCampaignConfig(
        n_reachable=args.nodes,
        fidelity=args.fidelity,
        duration=args.hours * HOURS,
        seed=args.seed,
        **extra,
    )


def _report_stored(stored, unit: str, total: int) -> None:
    """Print where a stored sweep's result came from."""
    run_id = stored.manifest.run_id
    if stored.cached:
        print(
            f"cache hit: run {run_id} is complete — "
            f"returning the stored result (no simulation)"
        )
    elif stored.resumed_from is not None:
        print(f"resumed run {run_id} from {unit} {stored.resumed_from}/{total}")
    else:
        print(f"stored as run {run_id}")


def _report_degradation(axis: str, table, totals_title: str, totals, idle: str) -> None:
    """Print a one-axis degradation table and its per-level counter totals."""
    rows = []
    for row in table:
        delta = row["delta_vs_baseline"]
        rows.append(
            (
                row[axis],
                round(row["mean_sync"], 2),
                round(row["median_sync"], 2),
                "-" if delta is None else round(delta, 2),
                len(row["failed_seeds"]),
                len(row["retried_seeds"]),
            )
        )
    print(
        format_table(
            (axis, "mean sync %", "median sync %",
             "delta vs baseline", "failed", "retried"),
            rows,
        )
    )
    print()
    print(totals_title)
    for value, stats in totals:
        nonzero = {k: v for k, v in stats.items() if v}
        print(f"  {value}: {nonzero if nonzero else idle}")


def _export_degradation(out_dir: str, name: str, axis: str, table, sweeps) -> None:
    """Write the degradation table as JSON and each level's sync samples."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}_degradation.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
    for value, sweep in sweeps:
        export_mod.export_sync_samples(
            sweep, out / f"sync_samples_{axis}_{value}.csv", label=f"{axis}={value}"
        )
    print(f"exported degradation table and samples to {out}/")


def _cmd_campaign_sweep(args: argparse.Namespace) -> int:
    base = LongitudinalConfig(
        scale=args.scale, snapshots=args.snapshots, seed=args.seed,
        fidelity=args.fidelity, engine=args.engine,
        faults=_load_fault_plan(args),
    )
    seeds = core.seed_range(args.seed, args.seeds)
    print(
        f"campaign sweep: scale={args.scale} snapshots={args.snapshots} "
        f"seeds={seeds} workers={args.workers or 'auto'}"
        + (f" store={args.store}" if args.store else "")
    )
    sweep = core.run_campaign_sweep(
        base, seeds, workers=args.workers, store=args.store,
        supervisor=_supervisor_config(args),
    )
    _report_supervision("campaign", sweep)
    if sweep.truncated:
        _warn_truncated("campaigns for seeds", sweep.truncated_seeds)
    s = args.scale
    mean = sweep.mean_over_seeds
    print(
        comparison_table(
            [
                ("unreachable / snapshot", cal.UNREACHABLE_PER_SNAPSHOT * s,
                 mean(lambda r: float(np.mean(r.fig4_series()["per_snapshot"])))),
                ("cumulative unreachable", cal.CUMULATIVE_UNREACHABLE * s,
                 mean(lambda r: r.fig4_series()["cumulative"][-1])),
                ("responsive / snapshot", cal.RESPONSIVE_PER_SNAPSHOT * s,
                 mean(lambda r: float(np.mean(r.fig5_series()["per_snapshot"])))),
                ("ADDR reachable share", cal.ADDR_REACHABLE_SHARE,
                 mean(lambda r: r.mean_addr_reachable_share())),
                ("daily departures", cal.DAILY_CHURN_NODES * s,
                 mean(lambda r: r.churn_stats().mean_daily_departures(
                     r.churn_matrix().snapshot_interval))),
                ("mean lifetime (days)", cal.MEAN_NODE_LIFETIME_DAYS,
                 mean(lambda r: r.churn_stats().mean_lifetime / DAYS)),
            ],
            title=f"Campaign, mean over {len(seeds)} seeds",
        )
    )
    print(
        format_table(
            ("seed", "cumulative unreachable", "responsive/snapshot"),
            [
                (seed,
                 len(result.cumulative_unreachable),
                 round(float(np.mean(result.fig5_series()["per_snapshot"])), 1))
                for seed, result in zip(sweep.seeds, sweep.per_seed)
            ],
        )
    )
    if args.export:
        out = Path(args.export)
        for seed, result in zip(sweep.seeds, sweep.per_seed):
            export_mod.export_campaign_series(
                result, out / f"seed{seed}" / "campaign_series.csv"
            )
        print(f"exported per-seed CSVs to {out}/seed<N>/")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.seeds > 1:
        return _cmd_campaign_sweep(args)
    config = LongitudinalConfig(
        scale=args.scale, snapshots=args.snapshots, seed=args.seed,
        fidelity=args.fidelity, engine=args.engine,
        faults=_load_fault_plan(args),
    )
    if args.store is not None or args.resume is not None:
        from .store import default_store_root, run_stored_campaign

        root = args.store if args.store is not None else default_store_root()
        stored = run_stored_campaign(root, config, resume=args.resume)
        provenance = (
            "cached" if stored.cached
            else f"resumed from snapshot {stored.resumed_from}"
            if stored.resumed_from is not None
            else "fresh run"
        )
        print(
            f"campaign: run {stored.manifest.run_id} [{provenance}] "
            f"engine={stored.manifest.engine} store={root}"
        )
        result = stored.result
        # The printed tables need the deterministic address universe the
        # campaign ran against; rebuilding the scenario from the config
        # recreates it without simulating anything.
        scenario = LongitudinalScenario(config)
    else:
        scenario = LongitudinalScenario(config)
        runner = core.CampaignRunner(scenario)
        print(
            f"campaign: scale={args.scale} snapshots={args.snapshots} "
            f"population={scenario.population.summary()}"
        )
        result = runner.run()
    if result.truncated:
        _warn_truncated("snapshots", result.truncated_snapshots)
    s = args.scale
    fig4 = result.fig4_series()
    fig5 = result.fig5_series()
    stats = result.churn_stats()
    interval = result.churn_matrix().snapshot_interval
    detection = result.merged_detection(scenario.universe.asn_of)
    print(
        comparison_table(
            [
                ("unreachable / snapshot", cal.UNREACHABLE_PER_SNAPSHOT * s,
                 float(np.mean(fig4["per_snapshot"]))),
                ("cumulative unreachable", cal.CUMULATIVE_UNREACHABLE * s,
                 fig4["cumulative"][-1]),
                ("responsive / snapshot", cal.RESPONSIVE_PER_SNAPSHOT * s,
                 float(np.mean(fig5["per_snapshot"]))),
                ("ADDR reachable share", cal.ADDR_REACHABLE_SHARE,
                 result.mean_addr_reachable_share()),
                ("flooders detected", max(1, round(cal.MALICIOUS_NODE_COUNT * s)),
                 detection.count),
                ("always-on nodes", cal.ALWAYS_ON_NODES * s, stats.always_on),
                ("daily departures", cal.DAILY_CHURN_NODES * s,
                 stats.mean_daily_departures(interval)),
                ("mean lifetime (days)", cal.MEAN_NODE_LIFETIME_DAYS,
                 stats.mean_lifetime / DAYS),
            ],
            title="Campaign (paper values scaled where counts)",
        )
    )
    from .core.figures import dual_series, presence_matrix

    print()
    print("Fig. 4 (unreachable addresses per snapshot / cumulative):")
    print(dual_series(fig4["per_snapshot"], fig4["cumulative"]))
    print()
    print("Fig. 12 (presence matrix, downsampled):")
    print(presence_matrix(result.churn_matrix().matrix, max_rows=16, max_cols=60))
    if args.export:
        out = Path(args.export)
        export_mod.export_campaign_series(result, out / "campaign_series.csv")
        export_mod.export_churn(stats, out / "daily_churn.csv")
        export_mod.export_lifetimes(stats, out / "lifetimes.csv")
        export_mod.export_detection(detection, out / "flooders.csv")
        for name, report in result.hosting_reports(
            scenario.universe.asn_of
        ).items():
            export_mod.export_hosting(report, out / f"hosting_{name}.csv")
        print(f"exported CSVs to {out}/")
    return 0


def _cmd_sync(args: argparse.Namespace) -> int:
    base = _sync_base(args, faults=_load_fault_plan(args))
    if args.seeds > 1:
        seeds = core.seed_range(args.seed, args.seeds)
        print(
            f"sync: nodes={args.nodes} duration={args.hours}h — running "
            f"2019 and 2020 churn levels over seeds={seeds} "
            f"(workers={args.workers or 'auto'})..."
        )
        results = core.run_2019_vs_2020_sweep(
            base, seeds=seeds, workers=args.workers,
            supervisor=_supervisor_config(args),
        )
        for label, sweep in results.items():
            _report_supervision(f"sync {label!r}", sweep)
    else:
        print(
            f"sync: nodes={args.nodes} duration={args.hours}h — running 2019 "
            f"and 2020 churn levels..."
        )
        results = core.run_2019_vs_2020(base)
    r2019, r2020 = results["2019"], results["2020"]
    for label, result in results.items():
        if result.truncated:
            _warn_truncated(f"sync campaign {label!r}", getattr(
                result, "truncated_seeds", "the event cap"
            ))
    print(
        comparison_table(
            [
                ("mean sync 2019 (%)", cal.SYNC_MEAN_2019, r2019.mean),
                ("mean sync 2020 (%)", cal.SYNC_MEAN_2020, r2020.mean),
                ("sync departures/10min 2019", cal.SYNC_DEPARTURES_2019,
                 r2019.sync_departures_per_10min),
                ("sync departures/10min 2020", cal.SYNC_DEPARTURES_2020,
                 r2020.sync_departures_per_10min),
            ],
            title="Fig. 1 / §IV-D",
        )
    )
    from .core.figures import density_overlay

    print()
    print("Fig. 1 kernel densities (x: 0..100% synchronized):")
    print(
        density_overlay(
            {label: result.density() for label, result in results.items()}
        )
    )
    if args.export:
        out = Path(args.export)
        for label, result in results.items():
            export_mod.export_sync_samples(
                result, out / f"sync_samples_{label}.csv", label=label
            )
            export_mod.export_density(
                result.density(), out / f"sync_kde_{label}.csv"
            )
        print(f"exported CSVs to {out}/")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import FaultPlan

    plan = FaultPlan.from_file(args.faults)
    intensities = [float(part) for part in args.intensities.split(",")]
    base = _sync_base(args)
    seeds = core.seed_range(args.seed, args.seeds)
    print(
        f"chaos: nodes={args.nodes} duration={args.hours}h plan={args.faults} "
        f"({len(plan)} fault(s)) intensities={intensities} seeds={seeds} "
        f"workers={args.workers or 'auto'}..."
    )
    result = core.run_sync_under_faults(
        plan,
        base,
        intensities=intensities,
        seeds=seeds,
        workers=args.workers,
        supervisor=_supervisor_config(args),
    )
    for level in result.levels:
        _report_supervision(f"intensity {level.intensity}", level.sweep)
    table = result.degradation_table()
    _report_degradation(
        "intensity", table, "injector totals per intensity level:",
        [(level.intensity, level.fault_stats) for level in result.levels],
        "(no faults fired)",
    )
    if args.export:
        _export_degradation(
            args.export, "chaos", "intensity", table,
            [(level.intensity, level.sweep) for level in result.levels],
        )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .adversary import AttackPlan

    plan = AttackPlan.from_file(args.plan)
    counts = [int(part) for part in args.counts.split(",")]
    base = _sync_base(args)
    seeds = core.seed_range(args.seed, args.seeds)
    print(
        f"attack: nodes={args.nodes} duration={args.hours}h plan={args.plan} "
        f"({len(plan)} cohort(s)) counts={counts} seeds={seeds} "
        f"workers={args.workers or 'auto'}..."
    )
    supervisor = _supervisor_config(args)
    sweep = dict(counts=counts, seeds=seeds, workers=args.workers, supervisor=supervisor)
    if args.store:
        stored = core.run_stored_attack_sweep(args.store, plan, base, **sweep)
        result = stored.result
        _report_stored(stored, "level", len(counts))
    else:
        result = core.run_attack_sweep(plan, base, **sweep)
    for level in result.levels:
        _report_supervision(f"attackers={level.count}", level.sweep)
    table = result.degradation_table()
    _report_degradation(
        "attackers", table, "attacker totals per count level:",
        [(level.count, level.attack_stats) for level in result.levels],
        "(no attack)",
    )
    if args.mitigations:
        print()
        print(
            f"mitigations: rerunning the full attack under the "
            f"{args.mitigations!r} policy variant..."
        )
        comparison = core.compare_mitigations(
            plan, base, policies=args.mitigations, seeds=seeds,
            workers=args.workers, supervisor=supervisor,
        )
        mrows = [
            (
                row["condition"],
                round(row["mean_sync"], 2),
                round(row["median_sync"], 2),
                round(row["delta_vs_clean"], 2),
            )
            for row in comparison.table()
        ]
        print(
            format_table(
                ("condition", "mean sync %", "median sync %",
                 "delta vs clean"),
                mrows,
            )
        )
        print(
            f"hardening recovered {comparison.recovered:+.2f} "
            f"sync percentage points"
        )
    if args.export:
        _export_degradation(
            args.export, "attack", "attackers", table,
            [(level.count, level.sweep) for level in result.levels],
        )
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    variants = [part.strip() for part in args.variants.split(",") if part.strip()]
    churn_levels = [float(part) for part in args.churn.split(",")]
    fidelities = [
        part.strip() for part in args.fidelities.split(",") if part.strip()
    ]
    fault_plans: List[Any] = [None]
    if args.faults:
        from .faults import FaultPlan

        fault_plan = FaultPlan.from_file(args.faults)
        fault_plans = [None, fault_plan]
        print(
            f"fault plan: {len(fault_plan)} fault(s) loaded from "
            f"{args.faults} (matrix runs fault-free + plan)"
        )
    if args.resume and not args.store:
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    base = core.SyncCampaignConfig(
        n_reachable=args.nodes,
        duration=args.hours * HOURS,
        seed=args.seed,
    )
    seeds = core.seed_range(args.seed, args.seeds)
    n_cells = (
        len(variants) * len(churn_levels) * len(fault_plans) * len(fidelities)
    )
    print(
        f"variants: {variants} x churn={churn_levels} x "
        f"{len(fault_plans)} fault plan(s) x fidelities={fidelities} "
        f"({n_cells} cells, seeds={seeds}, workers={args.workers or 'auto'})..."
    )
    matrix = dict(
        churn_levels=churn_levels,
        fault_plans=fault_plans,
        fidelities=fidelities,
        seeds=seeds,
        workers=args.workers,
        supervisor=_supervisor_config(args),
    )
    if args.store:
        stored = core.run_stored_variant_matrix(
            args.store, variants, base, resume=args.resume, force=args.force,
            **matrix,
        )
        result = stored.result
        _report_stored(stored, "cell", n_cells)
    else:
        result = core.run_variant_matrix(variants, base, **matrix)
    for cell in result.cells:
        _report_supervision(
            f"{cell.variant_label} churn={cell.churn_per_10min:g} "
            f"faults={cell.fault_label} fidelity={cell.fidelity}",
            cell.sweep,
        )
    churn_headers = [f"sync%@{level:g}" for level in result.churn_levels]
    rows = []
    for row in result.retention_table():
        means = row["mean_sync"]
        cells = [
            "-" if means.get(f"{level:g}") is None
            else round(means[f"{level:g}"], 2)
            for level in result.churn_levels
        ]
        retention = row["retention"]
        rows.append(
            (
                row["variant"],
                row["faults"],
                row["fidelity"],
                *cells,
                "-" if retention is None else round(retention, 3),
            )
        )
    print(
        format_table(
            ("variant", "faults", "fidelity", *churn_headers, "retention"),
            rows,
        )
    )
    if args.export:
        out = Path(args.export)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "variant_retention.json", "w", encoding="utf-8") as fh:
            json.dump(result.retention_table(), fh, indent=2, sort_keys=True)
        for cell in result.cells:
            tag = (
                f"{cell.variant_label}_churn{cell.churn_per_10min:g}"
                f"_{cell.fault_label}_{cell.fidelity}"
            )
            tag = "".join(
                ch if ch.isalnum() or ch in "._-" else "-" for ch in tag
            )
            export_mod.export_sync_samples(
                cell.sweep,
                out / f"sync_samples_{tag}.csv",
                label=cell.variant_label,
            )
        print(f"exported retention table and samples to {out}/")
    return 0


def _cmd_relay(args: argparse.Namespace) -> int:
    config = core.RelayExperimentConfig(
        duration=args.hours * HOURS, n_reachable=args.nodes, seed=args.seed
    )
    print(f"relay: nodes={args.nodes} duration={args.hours}h ...")
    result = core.run_relay_experiment(config)
    blocks = result.block_summary()
    txs = result.tx_summary()
    print(
        comparison_table(
            [
                ("block relay mean (s)", cal.BLOCK_RELAY_MEAN, blocks.mean),
                ("block relay max (s)", cal.BLOCK_RELAY_MAX, blocks.maximum),
                ("tx relay mean (s)", cal.TX_RELAY_MEAN, txs.mean),
                ("tx relay max (s)", cal.TX_RELAY_MAX, txs.maximum),
            ],
            title="Figs. 10-11 (1 s quantization)",
        )
    )
    if args.export:
        out = Path(args.export)
        export_mod.export_relay_times(result, out / "relay_times.csv")
        print(f"exported CSVs to {out}/")
    return 0


def _cmd_conn(args: argparse.Namespace) -> int:
    scenario = ProtocolScenario(
        ProtocolConfig(
            n_reachable=args.nodes,
            seed=args.seed,
            block_interval=600.0,
            churn_per_10min=3.0,
        )
    )
    print(f"conn: warming a {args.nodes}-node world...")
    scenario.start(warmup=1200.0)
    stability = core.run_connection_stability(
        scenario,
        observer_config=NodeConfig(
            track_connection_attempts=True, connection_lifetime_mean=150.0
        ),
    )
    success = core.run_connection_success(scenario, runs=args.runs)
    print(
        comparison_table(
            [
                ("mean outgoing connections", cal.MEAN_OUTGOING_CONNECTIONS,
                 stability.mean_connections),
                ("time below 8 connections", cal.TIME_BELOW_8_CONNECTIONS,
                 stability.fraction_below_8),
                ("connection success rate", cal.CONNECTION_SUCCESS_RATE,
                 success.overall_rate),
                ("worst-run success rate",
                 cal.CONNECTION_WORST_RUN[0] / cal.CONNECTION_WORST_RUN[1],
                 success.worst_run.success_rate),
            ],
            title="Figs. 6-7",
        )
    )
    print(
        format_table(
            ("run", "attempts", "successes"),
            [
                (index + 1, run.attempts, run.successes)
                for index, run in enumerate(success.runs)
            ],
        )
    )
    return 0


def _open_store(args: argparse.Namespace):
    from .store import RunStore, default_store_root

    root = args.store if args.store is not None else default_store_root()
    return RunStore(root)


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = _open_store(args)
    manifests = store.manifests()
    if not manifests:
        print(f"store at {store.root} is empty")
        return 0
    print(
        format_table(
            ("run id", "kind", "status", "snapshots", "engine", "seed",
             "truncated"),
            [
                (m.run_id, m.kind, m.status,
                 f"{m.completed_snapshots}/{m.snapshots_total}",
                 m.engine, m.seed, "yes" if m.truncated else "no")
                for m in manifests
            ],
        )
    )
    return 0


def _cmd_store_show(args: argparse.Namespace) -> int:
    store = _open_store(args)
    manifest = store.load_manifest(args.run_id)
    for name in ("run_id", "kind", "status", "seed", "engine",
                 "snapshots_total", "code_version", "key"):
        print(f"{name:16} {getattr(manifest, name)}")
    print(f"{'result_digest':16} {manifest.result_digest or '-'}")
    if manifest.checkpoint is not None:
        print(
            f"{'checkpoint':16} {manifest.checkpoint.digest[:16]}... "
            f"(after snapshot {manifest.checkpoint.snapshot_index})"
        )
    print(f"{'config':16} {json.dumps(manifest.config, sort_keys=True)}")
    if manifest.snapshots:
        print()
        print(
            format_table(
                ("snapshot", "when", "digest", "truncated"),
                [
                    (s.index, s.when, f"{s.digest[:16]}...",
                     "yes" if s.truncated else "no")
                    for s in manifest.snapshots
                ],
            )
        )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _open_store(args)
    report = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(report['removed'])} unreferenced blob(s) "
        f"({report['removed_bytes']} bytes), kept {report['kept']}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.app import ServiceConfig, run_service
    from .store import default_store_root

    config = ServiceConfig(
        store_root=(
            args.store if args.store is not None else default_store_root()
        ),
        host=args.host,
        port=args.port,
        slots=args.slots,
        queue_limit=args.queue_limit,
        workers=args.workers,
        seed_timeout=args.seed_timeout,
        retries=args.retries,
        cache_bytes=args.cache_mb * 1024 * 1024,
        quota_runs=args.quota_runs,
        quota_bytes=(
            args.quota_mb * 1024 * 1024 if args.quota_mb is not None else None
        ),
    )
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )

    def announce(service: Any) -> None:
        print(
            f"serving {config.store_root} on "
            f"http://{config.host}:{service.port} "
            f"(slots={config.slots} queue={config.queue_limit})",
            flush=True,
        )

    try:
        asyncio.run(run_service(config, ready=announce))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_store_diff(args: argparse.Namespace) -> int:
    store = _open_store(args)
    report = store.diff(args.run_a, args.run_b)
    print(f"diff {report['a']} vs {report['b']}")
    for name, change in report["fields"].items():
        print(f"  {name}: {change['a']!r} -> {change['b']!r}")
    for key, change in report["config"].items():
        print(f"  config.{key}: {change['a']!r} -> {change['b']!r}")
    if not report["fields"] and not report["config"]:
        print("  identical run parameters")
    if report["snapshots"]:
        differing = [r["index"] for r in report["snapshots"] if not r["equal"]]
        if report["snapshots_equal"]:
            print(f"  all {len(report['snapshots'])} snapshot outputs identical")
        else:
            print(f"  snapshot outputs differ at {differing}")
    if report["result_equal"] is not None:
        print(
            "  final results identical" if report["result_equal"]
            else "  final results differ"
        )
    return 0


def _supervisor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed-timeout", type=float, default=None, metavar="SECONDS",
        help="per-seed watchdog timeout for multi-seed sweeps",
    )
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per crashed/hung seed (default: 2)",
    )


def _fault_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--faults", type=str, default=None, metavar="PLAN.json",
        help="compile this fault plan onto every run (see repro.faults)",
    )
    _supervisor_flags(p)


def _profile_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile", nargs="?", const="repro-profile", default=None,
        metavar="OUT",
        help="run under cProfile; write hotspots to OUT.txt and OUT.json "
        "(default OUT: repro-profile).  Figures are unchanged — only "
        "wall time is (profiled loops run ~2x slower).",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ICDCS'21 Bitcoin-synchronization study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run the Fig. 2 crawl campaign")
    campaign.add_argument("--scale", type=float, default=0.01)
    campaign.add_argument("--snapshots", type=int, default=12)
    campaign.add_argument("--seed", type=int, default=42)
    campaign.add_argument(
        "--fidelity", choices=("full", "hybrid"), default="full",
        help="node-tier fidelity: hybrid models the unreachable cloud "
        "with O(1)-memory light nodes (same seed, same figures)",
    )
    campaign.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="run N consecutive seeds (from --seed) and merge",
    )
    campaign.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --seeds > 1 (default: CPU count)",
    )
    campaign.add_argument("--export", type=str, default=None, metavar="DIR")
    campaign.add_argument(
        "--engine", choices=("wheel", "heap"), default=None,
        help="event scheduler backend (default: REPRO_ENGINE or wheel)",
    )
    campaign.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="checkpoint into this run store (resume/cache on re-run)",
    )
    campaign.add_argument(
        "--resume", type=str, default=None, metavar="RUN_ID",
        help="resume this run id from its last checkpoint",
    )
    _fault_flags(campaign)
    _profile_flag(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    sync = sub.add_parser("sync", help="run the Fig. 1 churn contrast")
    sync.add_argument("--nodes", type=int, default=60)
    sync.add_argument("--hours", type=float, default=2.0)
    sync.add_argument("--seed", type=int, default=21)
    sync.add_argument(
        "--fidelity", choices=("full", "hybrid"), default="full",
        help="node-tier fidelity: hybrid models the unreachable cloud "
        "with O(1)-memory light nodes (use for paper-scale --nodes)",
    )
    sync.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="run N consecutive seeds (from --seed) per churn level",
    )
    sync.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --seeds > 1 (default: CPU count)",
    )
    sync.add_argument("--export", type=str, default=None, metavar="DIR")
    _fault_flags(sync)
    _profile_flag(sync)
    sync.set_defaults(func=_cmd_sync)

    chaos = sub.add_parser(
        "chaos",
        help="measure sync-%% degradation vs. fault intensity",
    )
    chaos.add_argument(
        "--faults", type=str, required=True, metavar="PLAN.json",
        help="fault plan to scale across the intensity axis",
    )
    chaos.add_argument(
        "--intensities", type=str, default="0,0.5,1,1.5,2", metavar="LIST",
        help="comma-separated intensity multipliers (0 = clean baseline)",
    )
    chaos.add_argument("--nodes", type=int, default=40)
    chaos.add_argument("--hours", type=float, default=1.0)
    chaos.add_argument("--seed", type=int, default=21)
    chaos.add_argument(
        "--fidelity", choices=("full", "hybrid"), default="full",
        help="node-tier fidelity for the underlying sync campaigns",
    )
    chaos.add_argument(
        "--seeds", type=int, default=2, metavar="N",
        help="seeds per intensity level",
    )
    chaos.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count)",
    )
    chaos.add_argument("--export", type=str, default=None, metavar="DIR")
    _supervisor_flags(chaos)
    _profile_flag(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    attack = sub.add_parser(
        "attack",
        help="measure sync-%% degradation vs. attacker count",
    )
    attack.add_argument(
        "--plan", type=str, required=True, metavar="PLAN.json",
        help="attack plan to scale across the attacker-count axis",
    )
    attack.add_argument(
        "--counts", type=str, default="0,18,36,73", metavar="LIST",
        help="comma-separated attacker counts (0 = clean baseline; "
        "default ends at the paper's 73-node attack)",
    )
    attack.add_argument("--nodes", type=int, default=40)
    attack.add_argument("--hours", type=float, default=1.0)
    attack.add_argument("--seed", type=int, default=21)
    attack.add_argument(
        "--fidelity", choices=("full", "hybrid"), default="full",
        help="node-tier fidelity for the underlying sync campaigns",
    )
    attack.add_argument(
        "--seeds", type=int, default=2, metavar="N",
        help="seeds per attacker-count level",
    )
    attack.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count)",
    )
    attack.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="checkpoint each count level into this run store "
        "(resume/cache on re-run)",
    )
    attack.add_argument(
        "--mitigations", nargs="?", const="improved", default=None,
        metavar="VARIANT",
        help="also rerun the full attack under this registered policy "
        "variant and report the sync recovered (bare flag: the paper's "
        "§V 'improved' refinements)",
    )
    attack.add_argument("--export", type=str, default=None, metavar="DIR")
    _supervisor_flags(attack)
    _profile_flag(attack)
    attack.set_defaults(func=_cmd_attack)

    variants = sub.add_parser(
        "variants",
        help="run the protocol-variant lab "
        "(variant x churn x fault x fidelity)",
    )
    variants.add_argument(
        "--variants", type=str, default=",".join(DEFAULT_VARIANTS),
        metavar="LIST",
        help="comma-separated registered variant names "
        "(repro.bitcoin.policy.variant_names())",
    )
    variants.add_argument(
        "--churn", type=str,
        default=",".join(f"{level:g}" for level in DEFAULT_CHURN_LEVELS),
        metavar="LIST",
        help="comma-separated churn levels in departures per 10 min; "
        "retention = mean sync at the highest level / the lowest",
    )
    variants.add_argument(
        "--fidelities", type=str, default="full", metavar="LIST",
        help="comma-separated node-tier fidelities (full and/or hybrid)",
    )
    variants.add_argument(
        "--faults", type=str, default=None, metavar="PLAN.json",
        help="also run every variant under this fault plan "
        "(the fault-free axis is kept for contrast)",
    )
    variants.add_argument("--nodes", type=int, default=40)
    variants.add_argument("--hours", type=float, default=1.0)
    variants.add_argument("--seed", type=int, default=21)
    variants.add_argument(
        "--seeds", type=int, default=2, metavar="N",
        help="seeds per matrix cell",
    )
    variants.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count)",
    )
    variants.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="checkpoint each cell into this run store (resume/cache "
        "on re-run)",
    )
    variants.add_argument(
        "--resume", type=str, default=None, metavar="RUN_ID",
        help="resume this matrix run id from its last completed cell",
    )
    variants.add_argument(
        "--force", action="store_true",
        help="re-execute even when the store holds a complete result",
    )
    variants.add_argument("--export", type=str, default=None, metavar="DIR")
    _supervisor_flags(variants)
    _profile_flag(variants)
    variants.set_defaults(func=_cmd_variants)

    relay = sub.add_parser("relay", help="run the Fig. 10/11 relay experiment")
    relay.add_argument("--nodes", type=int, default=30)
    relay.add_argument("--hours", type=float, default=2.0)
    relay.add_argument("--seed", type=int, default=11)
    relay.add_argument("--export", type=str, default=None, metavar="DIR")
    relay.set_defaults(func=_cmd_relay)

    conn = sub.add_parser("conn", help="run the Fig. 6/7 connection experiments")
    conn.add_argument("--nodes", type=int, default=60)
    conn.add_argument("--runs", type=int, default=5)
    conn.add_argument("--seed", type=int, default=5)
    conn.set_defaults(func=_cmd_conn)

    store = sub.add_parser("store", help="inspect the run store")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", type=str, default=None, metavar="DIR",
            help="store root (default: $REPRO_STORE or ./repro-store)",
        )

    store_ls = store_sub.add_parser("ls", help="list runs")
    _store_flag(store_ls)
    store_ls.set_defaults(func=_cmd_store_ls)

    store_show = store_sub.add_parser("show", help="show one run's manifest")
    store_show.add_argument("run_id")
    _store_flag(store_show)
    store_show.set_defaults(func=_cmd_store_show)

    store_gc = store_sub.add_parser("gc", help="delete unreferenced blobs")
    store_gc.add_argument("--dry-run", action="store_true")
    _store_flag(store_gc)
    store_gc.set_defaults(func=_cmd_store_gc)

    store_diff = store_sub.add_parser("diff", help="compare two runs")
    store_diff.add_argument("run_a")
    store_diff.add_argument("run_b")
    _store_flag(store_diff)
    store_diff.set_defaults(func=_cmd_store_diff)

    serve = sub.add_parser(
        "serve",
        help="serve campaigns over HTTP from a run store (repro.serve)",
    )
    serve.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="store root (default: $REPRO_STORE or ./repro-store)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8742,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--slots", type=int, default=1, metavar="N",
        help="concurrent simulating jobs",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="admitted-but-waiting jobs before 429",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="supervisor worker processes per job",
    )
    serve.add_argument(
        "--cache-mb", type=int, default=32, metavar="MB",
        help="read-cache budget",
    )
    serve.add_argument(
        "--quota-runs", type=int, default=None, metavar="N",
        help="per-tenant ceiling on fresh runs",
    )
    serve.add_argument(
        "--quota-mb", type=int, default=None, metavar="MB",
        help="per-tenant ceiling on stored bytes",
    )
    _supervisor_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    from .lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run the determinism & checkpoint-safety static analyzer",
    )
    add_lint_arguments(lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    profile_out = getattr(args, "profile", None)
    if profile_out:
        from .perf.profiler import profile_to

        with profile_to(profile_out):
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
