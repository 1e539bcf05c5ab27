"""Span tracer that times calls into the simulator's layers from outside.

The tracer replaces named attributes (methods on a class, functions in a
module, a dispatch table) with wrappers that record a span per call, and
puts every original back on :meth:`Tracer.restore`.  Nothing in ``src/``
knows it is being traced.

Spans nest on one stack.  A span's *self* time is its duration minus the
durations of the spans it directly contains, so the self times of every
layer plus the root's own remainder (``other``) add up to the root's
wall time exactly.

Two rules keep the wrappers from missing calls:

* install before the scenario is built — the simulator caches bound
  methods at construction (``Simulator.schedule``, the transport's lane
  pushes, ``HandlerLoop._schedule_pass``), and a cache taken before the
  patch calls the original forever;
* patch each name where its caller looks it up — a module that did
  ``from x import f`` holds its own reference to ``f``.

Neither rule can be checked from the patch alone, so callers compare span
counts against the program's own public counters with :meth:`check`; a
mismatch is reported as a coverage gap instead of reading as zero.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Stat:
    """Accumulated calls and times of one span name."""

    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        #: Named counts a hook adds (records offered, bytes written, ...).
        self.extra: Dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount


class Tracer:
    """Patch, time, check and restore."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: One frame per open span: ``[time covered by direct children]``.
        #: The bottom frame collects the top-level spans of the root.
        self._stack: List[List[float]] = [[0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Patch targets that do not exist (``owner.attr`` strings).
        self.missing: List[str] = []
        #: ``(name, observed, expected)`` for every failed :meth:`check`.
        self.gaps: List[Tuple[str, float, float]] = []
        self.root_wall_s = 0.0

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[Stat, tuple, Any, Any], None]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records a span under ``name``.

        ``before(args)`` runs inside the span before the call and its
        return value is handed to ``after(stat, args, result, token)``,
        which runs once the call returned.
        """
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        if before is None and after is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - frame[0]

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    token = before(args) if before is not None else None
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(stat, args, result, token)
                    return result
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - frame[0]

        # Same name and qualname as the original: a bound method pickles
        # as ``getattr(obj, name)``, so checkpoints taken while traced are
        # byte-identical to untraced ones.
        return functools.update_wrapper(wrapper, fn)

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` to count calls only (no span, no clock read)."""
        stat = self.stat(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stat.calls += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(
        self, owner: Any, attr: str, make: Callable[[Any], Any]
    ) -> bool:
        """Replace ``owner.attr`` with ``make(original)``.

        Returns False (and records the target in :attr:`missing`) when
        the attribute does not exist, so a renamed entry point shows up
        in the report instead of aborting the run.
        """
        current = getattr(owner, attr, _MISSING)
        if current is _MISSING:
            self.missing.append(f"{_owner_name(owner)}.{attr}")
            return False
        # Remember whether ``owner`` held the attribute itself or
        # inherited it: restore must not copy an inherited method down.
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, make(current))
        return True

    def restore(self) -> None:
        """Put every patched attribute back, newest first.  Idempotent."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every stat (e.g. after the scenario build)."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.self_s = 0.0
            stat.total_s = 0.0
            stat.extra.clear()
        self._stack[:] = [[0.0]]
        self.gaps.clear()
        self.root_wall_s = 0.0

    def measure(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span; returns its result."""
        self.reset()
        start = time.perf_counter()
        result = fn()
        self.root_wall_s = time.perf_counter() - start
        return result

    @property
    def other_self_s(self) -> float:
        """Root wall time not covered by any top-level span."""
        return self.root_wall_s - self._stack[0][0]

    def check(self, name: str, observed: float, expected: float) -> bool:
        """Record a coverage gap unless ``observed == expected``."""
        if observed == expected:
            return True
        self.gaps.append((name, observed, expected))
        return False

    def report_problems(self) -> List[str]:
        lines = [f"missing patch target: {target}" for target in self.missing]
        lines.extend(
            f"coverage gap: {name} observed {observed:g}, "
            f"expected {expected:g} from the program's counters"
            for name, observed, expected in self.gaps
        )
        return lines


def _owner_name(owner: Any) -> str:
    return getattr(owner, "__qualname__", getattr(owner, "__name__", repr(owner)))
