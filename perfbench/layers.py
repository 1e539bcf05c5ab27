"""Which entry points the traced run wraps, and the per-layer metrics.

Each layer is a module of ``src/repro``; its spans wrap the calls other
modules make into it.  ``install`` must run before the workload builds
its scenario (see :mod:`perfbench.tracer`).  ``metrics`` turns the
tracer's stats into the flat ``<module>.<entry>.<calls|self_s|...>``
dictionary the benchmark prints, with a value for every name in
:data:`METRICS` on every workload: a layer the workload never enters
reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .tracer import Stat, Tracer

#: Commands of ``BitcoinNode._DISPATCH`` with a span of their own; every
#: other command is counted under ``node.other``.
NODE_COMMANDS = ("addr", "getaddr", "inv", "getdata", "tx", "cmpctblock")

#: Every per-layer metric name with its unit, in print order.
METRICS: Dict[str, str] = dict(
    [
        ("events.dispatched", "count"),
        ("events.self_s", "s"),
        ("events.lane_share", "ratio"),
        ("events.cancel_ratio", "ratio"),
        ("transport.deliver.calls", "count"),
        ("transport.deliver.self_s", "s"),
        ("transport.arrive.calls", "count"),
        ("transport.arrive.self_s", "s"),
        ("transport.connect.calls", "count"),
        ("transport.probe.calls", "count"),
        ("transport.probe.self_s", "s"),
        ("transport.send_bypass_share", "ratio"),
        ("handler.passes", "count"),
        ("handler.self_s", "s"),
        ("handler.msgs_per_pass", "ratio"),
    ]
    + [
        (f"node.{command}.{field}", unit)
        for command in NODE_COMMANDS + ("other", "forward_addrs")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("addrman.add_many.calls", "count"),
        ("addrman.add_many.records", "count"),
        ("addrman.add_many.self_s", "s"),
        ("addrman.growth_ratio", "ratio"),
        ("addrman.get_addr.calls", "count"),
        ("addrman.get_addr.self_s", "s"),
        ("addrman.select.calls", "count"),
        ("addrman.select.self_s", "s"),
        ("relay_engine.calls", "count"),
        ("relay_engine.self_s", "s"),
        ("light.on_message.calls", "count"),
        ("light.on_message.self_s", "s"),
        ("connection.attempts", "count"),
        ("connection.success_ratio", "ratio"),
        ("scenario.build.self_s", "s"),
        ("scenario.materialize.self_s", "s"),
        ("crawler.collect.self_s", "s"),
        ("getaddr.crawl.calls", "count"),
        ("getaddr.crawl.self_s", "s"),
        ("getaddr.on_message.self_s", "s"),
        ("prober.probes", "count"),
        ("prober.self_s", "s"),
        ("pipeline.analysis.self_s", "s"),
        ("checkpoint.dump.calls", "count"),
        ("checkpoint.dump.bytes", "bytes"),
        ("checkpoint.dump.self_s", "s"),
        ("checkpoint.dump.mb_per_s", "MB/s"),
        ("checkpoint.load.calls", "count"),
        ("checkpoint.load.self_s", "s"),
        ("runstore.put_blob.calls", "count"),
        ("runstore.put_blob.self_s", "s"),
        ("runstore.get_blob.calls", "count"),
        ("runstore.get_blob.self_s", "s"),
        ("runstore.save_manifest.calls", "count"),
        ("runstore.save_manifest.self_s", "s"),
        ("runstore.readback_s", "s"),
        ("runstore.cache_hit_p50_ms", "ms"),
        ("runstore.cache_hit_p90_ms", "ms"),
        ("runstore.cache_hit_samples", "count"),
        ("share.addr_gossip", "ratio"),
        ("share.relay", "ratio"),
        ("share.checkpoint_dump", "ratio"),
        ("other.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage_gaps", "count"),
    ]
)

#: Span names whose self time counts toward the ADDR-gossip share.
ADDR_GOSSIP_SPANS = (
    "addrman.add_many",
    "addrman.get_addr",
    "addrman.select",
    "node.addr",
    "node.getaddr",
    "node.forward_addrs",
)
#: Span names whose self time counts toward the block/tx relay share.
RELAY_SPANS = ("relay_engine", "node.inv", "node.getdata", "node.tx", "node.cmpctblock")


def install(tracer: Tracer) -> None:
    """Patch every traced entry point.  Call before building a scenario."""
    from repro.bitcoin import addrman, handler, light, node, relay_engine
    from repro.core import crawler, getaddr, pipeline, prober
    from repro.netmodel import scenario
    from repro.simnet import events, transport
    from repro.store import campaign, checkpoint, runstore

    t = tracer

    def span(name: str, **hooks: Any):
        return lambda fn: t.span(name, fn, **hooks)

    # --- events: the dispatch loop, and where work was queued ---
    def dispatched(stat: Stat, _args: tuple, result: Any, _token: Any) -> None:
        stat.add("dispatched", result[0])

    t.patch(events.Scheduler, "run_until", span("events", after=dispatched))
    for attr in ("lane_schedule", "lane_schedule_at"):
        t.patch(events.Scheduler, attr, lambda fn: t.counter("events.lane", fn))
    for attr in ("schedule", "schedule_at"):
        t.patch(events.Scheduler, attr, lambda fn: t.counter("events.regular", fn))

    # --- transport ---
    network = transport.Network
    t.patch(network, "_deliver", span("transport.deliver"))
    t.patch(network, "_arrive_pair", span("transport.arrive"))
    t.patch(network, "_arrive", span("transport.arrive"))
    t.patch(network, "connect", span("transport.connect"))
    t.patch(network, "probe", span("transport.probe"))
    # Socket.send is inlined in the handler's send phase; the counter
    # makes the share of deliveries that bypass it visible.
    t.patch(transport.Socket, "send", lambda fn: t.counter("transport.socket_send", fn))

    # --- handler and node ---
    t.patch(handler.HandlerLoop, "run_pass", span("handler"))
    bitcoin_node = node.BitcoinNode
    t.patch(bitcoin_node, "_DISPATCH", lambda table: {
        command: t.span(
            f"node.{command}" if command in NODE_COMMANDS else "node.other", fn
        )
        for command, fn in table.items()
    })
    t.patch(bitcoin_node, "_forward_addrs", span("node.forward_addrs"))

    # --- addrman ---
    def table_size(args: tuple) -> int:
        return len(args[0])

    def offered(stat: Stat, args: tuple, _result: Any, size_before: int) -> None:
        stat.add("records", len(args[1]))
        stat.add("growth", len(args[0]) - size_before)

    t.patch(addrman.AddrMan, "add_many", span(
        "addrman.add_many", before=table_size, after=offered
    ))
    t.patch(addrman.AddrMan, "get_addr", span("addrman.get_addr"))
    t.patch(addrman.AddrMan, "select", span("addrman.select"))

    # --- relay engine (entry points plus its own trickle timers).
    # note_relayed is left out: the handler calls it for every message it
    # sends, ADDR and GETADDR included, so its time stays with the handler.
    for attr in (
        "relay_block", "relay_tx", "schedule_trickle",
        "_flush_tx_invs", "_flush_inbound_tx_invs",
    ):
        t.patch(relay_engine.RelayEngine, attr, span("relay_engine"))

    t.patch(light.LightNode, "on_message", span("light.on_message"))

    # --- scenario construction (inside the measured phase for the relay
    # and campaign workloads, whose entry points build their own world) ---
    for cls in (scenario.ProtocolScenario, scenario.LongitudinalScenario):
        t.patch(cls, "__init__", span("scenario.build"))

    # --- crawl campaign layers ---
    t.patch(
        scenario.LongitudinalScenario, "materialize_snapshot",
        span("scenario.materialize"),
    )
    t.patch(crawler.AddressCrawler, "collect", span("crawler.collect"))
    t.patch(getaddr.GetAddrCrawler, "run_to_completion", span("getaddr.crawl"))
    t.patch(getaddr.GetAddrCrawler, "on_message", span("getaddr.on_message"))

    def probed(stat: Stat, _args: tuple, result: Any, _token: Any) -> None:
        stat.add("probes", result.probed)

    t.patch(prober.VerProber, "run_to_completion", span("prober", after=probed))
    # run_snapshot looks these up in the pipeline module's namespace.
    t.patch(pipeline, "composition", span("pipeline.analysis"))
    t.patch(pipeline, "detect_flooders", span("pipeline.analysis"))

    # --- store: the campaign module imported these by name ---
    def dumped(stat: Stat, _args: tuple, blob: bytes, _token: Any) -> None:
        stat.add("bytes", len(blob))

    t.patch(campaign, "dump_checkpoint", span("checkpoint.dump", after=dumped))
    t.patch(campaign, "load_checkpoint", span("checkpoint.load"))
    t.patch(checkpoint, "load_checkpoint", span("checkpoint.load"))
    for attr in ("put_blob", "get_blob", "save_manifest"):
        t.patch(runstore.RunStore, attr, span(f"runstore.{attr}"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_coverage(tracer: Tracer, before: Dict[str, int], after: Dict[str, int]) -> None:
    """Compare span counts with the program's public counters.

    ``before``/``after`` are :func:`program_counters` readings taken
    around the traced root.  A wrapper that missed calls — installed
    after a bound method was cached, or patched where the caller does
    not look — shows up here as a gap.
    """
    delta = {key: after[key] - before[key] for key in after}
    stats = tracer.stats

    def calls(name: str) -> int:
        stat = stats.get(name)
        return stat.calls if stat is not None else 0

    events = stats.get("events")
    tracer.check(
        "events dispatched through run_until vs Scheduler.fired",
        events.extra.get("dispatched", 0) if events is not None else 0,
        delta["fired"],
    )
    tracer.check(
        "events.lane + events.regular vs Scheduler.scheduled_total",
        calls("events.lane") + calls("events.regular"),
        delta["scheduled"],
    )
    tracer.check(
        "transport.connect.calls vs Network.connects_attempted",
        calls("transport.connect"), delta["connects_attempted"],
    )
    tracer.check(
        "transport.probe.calls vs Network.probes_sent",
        calls("transport.probe"), delta["probes_sent"],
    )
    # Every delivered message passed through an arrive span; arrivals at
    # a closed socket are dropped there and not counted by the program,
    # so the span may see more calls, never fewer.
    tracer.check(
        "transport.arrive.calls vs Network.messages_delivered",
        min(calls("transport.arrive"), delta["messages_delivered"]),
        delta["messages_delivered"],
    )


def program_counters(sims: Any) -> Dict[str, int]:
    """Sum of the public scheduler/transport counters over ``sims``."""
    totals = {
        "fired": 0,
        "scheduled": 0,
        "cancelled": 0,
        "connects_attempted": 0,
        "connects_succeeded": 0,
        "probes_sent": 0,
        "messages_delivered": 0,
    }
    for sim in sims:
        scheduler, network = sim.scheduler, sim.network
        totals["fired"] += scheduler.fired
        totals["scheduled"] += scheduler.scheduled_total
        totals["cancelled"] += scheduler.cancelled_total
        totals["connects_attempted"] += network.connects_attempted
        totals["connects_succeeded"] += network.connects_succeeded
        totals["probes_sent"] += network.probes_sent
        totals["messages_delivered"] += network.messages_delivered
    return totals


def metrics(
    tracer: Tracer,
    before: Dict[str, int],
    after: Dict[str, int],
    untraced_wall_s: float,
    store_reads: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The flat per-layer metric dictionary for one traced unit."""
    stats = tracer.stats
    empty = Stat()

    def get(name: str) -> Stat:
        return stats.get(name, empty)

    delta = {key: after[key] - before[key] for key in after}
    wall = tracer.root_wall_s
    out: Dict[str, float] = {}

    lane = get("events.lane").calls
    regular = get("events.regular").calls
    out["events.dispatched"] = delta["fired"]
    out["events.self_s"] = get("events").self_s
    out["events.lane_share"] = _ratio(lane, lane + regular)
    out["events.cancel_ratio"] = _ratio(delta["cancelled"], regular)

    deliver = get("transport.deliver")
    out["transport.deliver.calls"] = deliver.calls
    out["transport.deliver.self_s"] = deliver.self_s
    out["transport.arrive.calls"] = get("transport.arrive").calls
    out["transport.arrive.self_s"] = get("transport.arrive").self_s
    out["transport.connect.calls"] = get("transport.connect").calls
    out["transport.probe.calls"] = get("transport.probe").calls
    out["transport.probe.self_s"] = get("transport.probe").self_s
    sent = get("transport.socket_send").calls
    out["transport.send_bypass_share"] = (
        max(0.0, 1.0 - sent / deliver.calls) if deliver.calls else 0.0
    )

    passes = get("handler").calls
    handled = 0
    for command in NODE_COMMANDS + ("other", "forward_addrs"):
        stat = get(f"node.{command}")
        out[f"node.{command}.calls"] = stat.calls
        out[f"node.{command}.self_s"] = stat.self_s
        if command != "forward_addrs":
            handled += stat.calls
    out["handler.passes"] = passes
    out["handler.self_s"] = get("handler").self_s
    out["handler.msgs_per_pass"] = _ratio(handled, passes)

    add_many = get("addrman.add_many")
    records = add_many.extra.get("records", 0.0)
    out["addrman.add_many.calls"] = add_many.calls
    out["addrman.add_many.records"] = int(records)
    out["addrman.add_many.self_s"] = add_many.self_s
    out["addrman.growth_ratio"] = _ratio(add_many.extra.get("growth", 0.0), records)
    for entry in ("get_addr", "select"):
        stat = get(f"addrman.{entry}")
        out[f"addrman.{entry}.calls"] = stat.calls
        out[f"addrman.{entry}.self_s"] = stat.self_s

    out["relay_engine.calls"] = get("relay_engine").calls
    out["relay_engine.self_s"] = get("relay_engine").self_s
    out["light.on_message.calls"] = get("light.on_message").calls
    out["light.on_message.self_s"] = get("light.on_message").self_s
    out["connection.attempts"] = delta["connects_attempted"]
    out["connection.success_ratio"] = _ratio(
        delta["connects_succeeded"], delta["connects_attempted"]
    )

    out["scenario.build.self_s"] = get("scenario.build").self_s
    out["scenario.materialize.self_s"] = get("scenario.materialize").self_s
    out["crawler.collect.self_s"] = get("crawler.collect").self_s
    out["getaddr.crawl.calls"] = get("getaddr.crawl").calls
    out["getaddr.crawl.self_s"] = get("getaddr.crawl").self_s
    out["getaddr.on_message.self_s"] = get("getaddr.on_message").self_s
    out["prober.probes"] = int(get("prober").extra.get("probes", 0.0))
    out["prober.self_s"] = get("prober").self_s
    out["pipeline.analysis.self_s"] = get("pipeline.analysis").self_s

    dump = get("checkpoint.dump")
    dumped = dump.extra.get("bytes", 0.0)
    out["checkpoint.dump.calls"] = dump.calls
    out["checkpoint.dump.bytes"] = int(dumped)
    out["checkpoint.dump.self_s"] = dump.self_s
    out["checkpoint.dump.mb_per_s"] = _ratio(dumped / 1e6, dump.self_s)
    out["checkpoint.load.calls"] = get("checkpoint.load").calls
    out["checkpoint.load.self_s"] = get("checkpoint.load").self_s
    for entry in ("put_blob", "get_blob", "save_manifest"):
        stat = get(f"runstore.{entry}")
        out[f"runstore.{entry}.calls"] = stat.calls
        out[f"runstore.{entry}.self_s"] = stat.self_s
    reads = store_reads or {}
    for key in ("readback_s", "cache_hit_p50_ms", "cache_hit_p90_ms", "cache_hit_samples"):
        out[f"runstore.{key}"] = reads.get(key, 0)

    out["share.addr_gossip"] = _ratio(
        sum(get(name).self_s for name in ADDR_GOSSIP_SPANS), wall
    )
    out["share.relay"] = _ratio(sum(get(name).self_s for name in RELAY_SPANS), wall)
    out["share.checkpoint_dump"] = _ratio(dump.self_s, wall)
    out["other.self_s"] = tracer.other_self_s
    out["trace.wall_s"] = wall
    out["trace.overhead_ratio"] = _ratio(wall, untraced_wall_s)
    out["trace.coverage_gaps"] = len(tracer.gaps) + len(tracer.missing)
    return out


def self_time_total(tracer: Tracer) -> float:
    """Sum of every span's self time plus the root remainder.

    Equals ``tracer.root_wall_s`` up to float rounding — the identity the
    per-layer split rests on.
    """
    return sum(stat.self_s for stat in tracer.stats.values()) + tracer.other_self_s
