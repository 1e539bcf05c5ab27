"""The benchmark's three workloads.

Each workload builds its inputs from one seed, runs in this process on
the default scheduler, and returns the figures its fingerprint is taken
from.  ``repro`` is imported inside the methods, never at module import,
so a fresh process that calls :meth:`Workload.setup` pays the package
import as part of set-up.

* ``gossip_storm`` — a hybrid-fidelity network from a cold start through
  the connection and GETADDR/ADDR storm (ADDR ingestion and forwarding,
  handler passes, transport on the scheduler's no-cancel lane).
* ``relay_steady`` — the Fig. 10/11 relay measurement (relay engine and
  the inv/tx/getdata handlers, cancellable trickle timers; addrman is
  only read).
* ``stored_campaign`` — a crawl campaign checkpointed into an empty run
  store after every snapshot, then read back and fetched again as a
  cache hit (store writes and reads, crawl layers).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
from typing import Any, Dict, Iterator, List

from .layers import program_counters

#: Cache-hit fetches after a stored_campaign unit: enough for a p90 with
#: ten samples beyond it where the latency is reported (the traced run's
#: untraced unit), a few for the correctness check elsewhere.
CACHE_HIT_FETCHES = 100
CACHE_HIT_CHECKS = 3


@dataclasses.dataclass
class Outcome:
    """What one measured unit produced."""

    #: Wall time of the measured phase, less any reference pieces run in it.
    wall_s: float
    #: Simulator events dispatched during the measured phase.
    events: int
    #: Figure values the fingerprint is computed from.
    figures: Dict[str, Any]
    #: Public scheduler/transport counters after the unit.
    counters: Dict[str, int]
    #: Correctness checks beyond the fingerprint: name -> passed.
    checks: Dict[str, bool] = dataclasses.field(default_factory=dict)
    #: Timed phases after the measured one (stored_campaign only).
    readback_s: float = 0.0
    cache_hits_ms: List[float] = dataclasses.field(default_factory=list)
    #: Reference pieces run inside the unit (see :mod:`perfbench.hostspeed`).
    pieces_s: List[float] = dataclasses.field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.figures)


def fingerprint(figures: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of figure values.

    Floats serialize through ``repr``, so any change in a simulated value
    changes the digest, while moving a class between modules does not.
    """
    text = json.dumps(figures, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def capturing(owner: Any, attr: str, sink: List[Any]) -> Iterator[None]:
    """Append everything ``owner.attr(...)`` returns to ``sink``.

    Used to reach objects a public entry point builds internally (the
    relay world, the campaign scenario) without copying the entry point.
    """
    original = getattr(owner, attr)

    def capture(*args: Any, **kwargs: Any) -> Any:
        made = original(*args, **kwargs)
        sink.append(made)
        return made

    setattr(owner, attr, capture)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Workload:
    """One benchmark workload (see the module docstring)."""

    name = ""
    default_seed = 0
    held_out_seed = 0
    #: Size knobs per size name; ``full`` is what the benchmark runs.
    sizes: Dict[str, Dict[str, Any]] = {}

    def __init__(self, size: str = "full") -> None:
        self.size = size
        self.knobs = self.sizes[size]

    def setup(self, seed: int, work_dir: str) -> Any:
        """Construction only: what ``setup_s`` times in a fresh process."""
        return self.prepare(seed, work_dir)

    def prepare(self, seed: int, work_dir: str) -> Any:
        """Untimed preparation of one unit."""
        raise NotImplementedError

    def counters_before(self, state: Any) -> Dict[str, int]:
        """Program counters of simulators that exist before :meth:`measure`."""
        return program_counters([])

    def measure(self, state: Any) -> Any:
        """Run the timed phases of one unit; returns what they produced.

        Everything :meth:`conclude` needs is kept on the returned object,
        so figure extraction and checks stay outside the timed (and
        traced) region.
        """
        raise NotImplementedError

    def read_back(self, raw: Any, fetches: int) -> None:
        """Untraced phases after the measured one, timed on their own.

        Only ``stored_campaign`` has any: it reads its store back and
        fetches the run ``fetches`` times as a cache hit.
        """

    def conclude(self, raw: Any) -> Outcome:
        """Figures, counters and checks of a measured unit."""
        raise NotImplementedError


class GossipStorm(Workload):
    name = "gossip_storm"
    default_seed = 5
    held_out_seed = 6
    #: The run stops after a fixed number of events rather than at a fixed
    #: sim time: the event count reached by 40 sim-s ranges over ~17%
    #: across seeds, and a pinned count keeps ``wall_s`` comparable between
    #: them.  350K events end between ~37 and ~45 sim-s, past the storm's
    #: peak.
    sizes = {
        "full": {"n_reachable": 300, "events": 350_000},
        "smoke": {"n_reachable": 40, "events": 1_500},
    }
    #: Upper bound on the simulated run; every seed reaches the event count
    #: well before it.
    SIM_SECONDS_MAX = 300.0

    def prepare(self, seed: int, work_dir: str) -> Any:
        from repro.netmodel.scenario import ProtocolConfig, ProtocolScenario

        return ProtocolScenario(
            ProtocolConfig(
                seed=seed,
                n_reachable=self.knobs["n_reachable"],
                fidelity="hybrid",
                churn_per_10min=6.0,
                pre_mined_blocks=10,
            )
        )

    def counters_before(self, state: Any) -> Dict[str, int]:
        return program_counters([state.sim])

    def measure(self, state: Any) -> Any:
        fired_before = state.sim.scheduler.fired
        start = time.perf_counter()
        state.start()
        state.sim.run_for(self.SIM_SECONDS_MAX, max_events=self.knobs["events"])
        wall = time.perf_counter() - start
        return state, wall, fired_before

    def conclude(self, raw: Any) -> Outcome:
        state, wall, fired_before = raw
        sim = state.sim
        events = sim.scheduler.fired - fired_before
        nodes = sorted(
            (
                str(node.addr),
                node.running,
                node.chain.height,
                node.outbound_count,
                node.addrman.new_count,
                node.addrman.tried_count,
            )
            for node in state.nodes
        )
        figures = {
            "events": events,
            "clock": sim.now,
            "sync_fraction": state.sync_fraction(),
            "best_height": state.best_height,
            "nodes": [list(row) for row in nodes],
            "addrman_new": sum(row[4] for row in nodes),
            "addrman_tried": sum(row[5] for row in nodes),
        }
        return Outcome(wall, events, figures, program_counters([sim]))


class RelaySteady(Workload):
    name = "relay_steady"
    default_seed = 11
    held_out_seed = 12
    sizes = {
        "full": {"n_reachable": 30, "n_clients": 17, "duration": 1800.0},
        "smoke": {"n_reachable": 8, "n_clients": 4, "duration": 300.0, "warmup": 120.0},
    }

    def config(self, seed: int) -> Any:
        from repro.core.relay_experiments import RelayExperimentConfig

        return RelayExperimentConfig(seed=seed, **self.knobs)

    def setup(self, seed: int, work_dir: str) -> Any:
        from repro.core.relay_experiments import build_relay_scenario

        return build_relay_scenario(self.config(seed))

    def prepare(self, seed: int, work_dir: str) -> Any:
        return self.config(seed)

    def measure(self, state: Any) -> Any:
        from repro.core import relay_experiments

        built: List[Any] = []
        with capturing(relay_experiments, "build_relay_scenario", built):
            start = time.perf_counter()
            result = relay_experiments.run_relay_experiment(state)
            wall = time.perf_counter() - start
        return result, wall, built[0][0].sim

    def conclude(self, raw: Any) -> Outcome:
        result, wall, sim = raw
        figures = {
            "events": sim.scheduler.fired,
            "block_relay_times": result.block_relay_times,
            "tx_relay_times": result.tx_relay_times,
            "target": str(result.target_addr),
            "inbound_at_end": result.inbound_at_end,
            "outbound_at_end": result.outbound_at_end,
        }
        return Outcome(wall, sim.scheduler.fired, figures, program_counters([sim]))


class StoredCampaign(Workload):
    name = "stored_campaign"
    default_seed = 101
    held_out_seed = 102
    sizes = {
        "full": {"scale": 0.01, "flooder_count": 73, "snapshots": 4},
        "smoke": {"scale": 0.002, "flooder_count": 5, "snapshots": 2},
    }

    def config(self, seed: int) -> Any:
        from repro.netmodel.scenario import LongitudinalConfig

        return LongitudinalConfig(seed=seed, **self.knobs)

    def setup(self, seed: int, work_dir: str) -> Any:
        from repro.netmodel.scenario import LongitudinalScenario
        from repro.store import RunStore

        return RunStore(work_dir), LongitudinalScenario(self.config(seed))

    def prepare(self, seed: int, work_dir: str) -> Any:
        # A store root that does not exist yet: every unit writes into an
        # empty store, as a first ``repro campaign --store`` does.
        index = 0
        while os.path.exists(os.path.join(work_dir, f"store-{index}")):
            index += 1
        return self.config(seed), os.path.join(work_dir, f"store-{index}")

    def measure(self, state: Any) -> Any:
        from repro.store import campaign

        config, root = state
        raw: Dict[str, Any] = {}
        built: List[Any] = []
        with capturing(campaign, "LongitudinalScenario", built):
            start = time.perf_counter()
            raw["stored"] = campaign.run_stored_campaign(root, config)
            raw["wall_s"] = time.perf_counter() - start
        raw["sim"] = built[0].sim
        raw["root"], raw["config"] = root, config
        return raw

    def read_back(self, raw: Any, fetches: int) -> None:
        from repro.store import campaign, checkpoint
        from repro.store.runstore import RunStore

        # Read back: the manifest, every snapshot blob, the last checkpoint.
        start = time.perf_counter()
        store = RunStore(raw["root"])
        manifest = store.load_manifest(raw["stored"].manifest.run_id)
        raw["snapshots"] = [
            checkpoint.load_checkpoint(store.get_blob(record.digest))
            for record in manifest.snapshots
        ]
        raw["runner"] = checkpoint.load_checkpoint(
            store.get_blob(manifest.checkpoint.digest)
        )
        raw["readback_s"] = time.perf_counter() - start

        # Cache hits: the same invocation again returns the stored result.
        # Only the last result is kept, so live memory does not grow with
        # the fetch count.
        raw["hits_ms"] = hits_ms = []
        raw["hits_cached"] = cached = []
        for _ in range(fetches):
            start = time.perf_counter()
            hit = campaign.run_stored_campaign(raw["root"], raw["config"])
            hits_ms.append((time.perf_counter() - start) * 1e3)
            cached.append(hit.cached)
        raw["last_hit"] = hit

    def conclude(self, raw: Any) -> Outcome:
        stored, sim = raw["stored"], raw["sim"]
        fresh = campaign_figures(stored.result)
        checks = {
            "fresh run simulated": not stored.cached,
            "read-back snapshots equal fresh": (
                [snapshot_row(snap) for snap in raw["snapshots"]] == fresh["snapshots"]
            ),
            "read-back checkpoint equals fresh": (
                campaign_figures(raw["runner"].result) == fresh
            ),
            "every fetch is a cache hit": all(raw["hits_cached"]),
            "cached result equals fresh": (
                campaign_figures(raw["last_hit"].result) == fresh
            ),
        }
        return Outcome(
            raw["wall_s"], sim.scheduler.fired, fresh, program_counters([sim]),
            checks=checks, readback_s=raw["readback_s"], cache_hits_ms=raw["hits_ms"],
        )


def snapshot_row(snap: Any) -> Dict[str, Any]:
    """Figure values of one crawl snapshot."""
    return {
        "index": snap.index,
        "when": snap.when,
        "sources": dataclasses.asdict(snap.source_stats),
        "connected": len(snap.connected),
        "dns_only_connected": snap.dns_only_connected,
        "unreachable": len(snap.unreachable),
        "new_unreachable": snap.new_unreachable,
        "responsive": len(snap.responsive),
        "new_responsive": snap.new_responsive,
        "composition": dataclasses.asdict(snap.addr_composition),
        "flood_volumes": snap.detection.flood_volumes(),
        "truncated": snap.truncated,
    }


def campaign_figures(result: Any) -> Dict[str, Any]:
    """Figure values of a whole campaign result."""
    return {
        "snapshots": [snapshot_row(snap) for snap in result.snapshots],
        "cumulative": [
            len(result.cumulative_reachable),
            len(result.cumulative_unreachable),
            len(result.cumulative_responsive),
        ],
        "truncated_snapshots": result.truncated_snapshots,
    }


WORKLOADS = {cls.name: cls for cls in (GossipStorm, RelaySteady, StoredCampaign)}
