"""Scale measured times to a fixed host speed.

On a shared host the same unit of work can take 20-50% longer from one
minute to the next: neighbours load the machine, and the whole process
slows down, set-up included.  A raw wall time then says more about the
host than about the program.  The benchmark therefore times a fixed
pure-Python *reference piece* (:func:`piece_s`) on the same thread,
interleaved with the work, and scales each measured time by how fast
the piece ran around it:

    scaled = measured × NOMINAL_PIECE_S / median(piece times)

that is, the time the work would have taken on a host where the piece
takes :data:`NOMINAL_PIECE_S`.  The piece is frozen benchmark code, so a
change to the program moves the scaled time exactly as it moves the raw
one; only the host's speed cancels.

A piece runs just before and just after each measured unit, and inside
it at points that depend only on the work done — every
:data:`EVENTS_PER_PIECE` simulator events, and before and after every
checkpoint dump — so every unit of one seed runs the same pieces at the
same places.  The time of the pieces inside is taken out of the unit's.
:class:`HostProbe` installs those points as wrappers on
``Scheduler.run_until`` (which then runs the same events in several
calls; the figures are unchanged, the fingerprint checks it) and on the
campaign module's ``dump_checkpoint``, with the tracer's patch/restore.
"""

from __future__ import annotations

import functools
import heapq
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .tracer import Tracer

#: Objects in the reference piece's graph: tens of MB, well past the
#: core's private caches, as the simulator's heap is.
GRAPH_SIZE = 100_000
#: Events one reference piece pops off its heap; each touches four
#: objects of the graph.
PIECE_EVENTS = 2_000
#: The piece's time on the nominal host.  Scaled times are seconds on a
#: host where one piece takes this long (about its median inside the
#: workloads on a 2-core shared x86 container with Python 3.11).
NOMINAL_PIECE_S = 0.006
#: Simulator events between two pieces inside a unit (~0.05-0.15 s of work).
EVENTS_PER_PIECE = 10_000


class _Peer:
    __slots__ = ("value", "hits", "peers")

    def __init__(self, value: int) -> None:
        self.value = value
        self.hits = 0
        self.peers: Tuple["_Peer", ...] = ()


class _Graph:
    """The piece's fixed data: a random graph, a table and start points."""

    def __init__(self) -> None:
        rng = random.Random(20210607)
        nodes = [_Peer(i) for i in range(GRAPH_SIZE)]
        for node in nodes:
            node.peers = tuple(nodes[rng.randrange(GRAPH_SIZE)] for _ in range(4))
        self.nodes = nodes
        self.table: Dict[int, int] = {i: 0 for i in range(GRAPH_SIZE)}
        self.starts = [
            (rng.random(), k, nodes[rng.randrange(GRAPH_SIZE)])
            for k in range(PIECE_EVENTS)
        ]


_graph: Optional[_Graph] = None


def prepare() -> None:
    """Build the piece's graph (untimed; the first piece does it too)."""
    global _graph
    if _graph is None:
        _graph = _Graph()


def piece_s() -> float:
    """Run one reference piece; returns how long it took.

    The piece is a small discrete-event loop, as the simulator's work
    is: it pushes timed entries onto a heap, pops them in order, and for
    each one updates the attributes of four objects scattered through a
    large graph and a large table.  It tracks the host's slowdowns more
    closely than a loop whose data fits in a core's caches.
    """
    prepare()
    graph = _graph
    table = graph.table
    start = time.perf_counter()
    heap: List[Any] = []
    for entry in graph.starts:
        heapq.heappush(heap, entry)
    while heap:
        _when, k, node = heapq.heappop(heap)
        for peer in node.peers:
            peer.hits += 1
            table[peer.value] = k
    return time.perf_counter() - start


def scaled(measured_s: float, pieces_s: Sequence[float]) -> float:
    """``measured_s`` at the nominal host speed, judged by ``pieces_s``."""
    return measured_s * NOMINAL_PIECE_S / statistics.median(pieces_s)


class HostProbe:
    """Runs reference pieces at fixed points of one unit at a time."""

    def __init__(self) -> None:
        self.pieces: List[float] = []
        #: Events dispatched since the last piece.
        self._since = 0
        self._start = 0.0
        self._patcher = Tracer()

    def install(self) -> None:
        from repro.simnet import events
        from repro.store import campaign

        self._patcher.patch(events.Scheduler, "run_until", self._every_events)
        self._patcher.patch(campaign, "dump_checkpoint", self._around)

    def restore(self) -> None:
        self._patcher.restore()

    def __enter__(self) -> "HostProbe":
        self.install()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.restore()

    def start(self) -> None:
        """Begin a unit, with a piece just before it."""
        self.pieces[:] = [piece_s()]
        self._since = 0
        self._start = time.perf_counter()

    def stop(self) -> Tuple[float, List[float]]:
        """End the unit, with a piece just after it.

        Returns the unit's time without the pieces run inside it, and
        every piece.
        """
        elapsed = time.perf_counter() - self._start
        inside = sum(self.pieces[1:])
        self.pieces.append(piece_s())
        return elapsed - inside, list(self.pieces)

    def _every_events(self, run_until: Callable[..., Any]) -> Callable[..., Any]:
        probe = self

        def chunked(self: Any, when: float, max_events: Optional[int] = None) -> Any:
            total = 0
            while True:
                cap = EVENTS_PER_PIECE - probe._since
                if max_events is not None:
                    cap = min(cap, max_events - total)
                dispatched, truncated = run_until(self, when, cap)
                total += dispatched
                probe._since += dispatched
                if probe._since == EVENTS_PER_PIECE:
                    probe.pieces.append(piece_s())
                    probe._since = 0
                if not truncated or total == max_events:
                    return total, truncated

        return functools.update_wrapper(chunked, run_until)

    def _around(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        pieces = self.pieces

        def around(*args: Any, **kwargs: Any) -> Any:
            pieces.append(piece_s())
            try:
                return fn(*args, **kwargs)
            finally:
                pieces.append(piece_s())

        return functools.update_wrapper(around, fn)
