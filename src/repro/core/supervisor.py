"""Supervised process-per-task execution.

``Pool.map`` has a brutal failure mode for multi-hour campaigns: one
OOM-killed or wedged worker poisons the whole pool and every completed
seed's result is lost.  The :class:`Supervisor` replaces it with one
child process per task under an explicit watchdog:

* **crash detection** — a worker that dies without reporting (segfault,
  OOM kill, hard exit) is noticed the moment its pipe closes, and the
  exit code is recorded;
* **hang detection** — an optional per-task timeout; a worker that blows
  past it is terminated (then killed) and treated like a crash;
* **bounded retry with backoff** — crashed and hung tasks are retried up
  to ``retries`` more times, each attempt delayed a little longer.
  Ordinary task *exceptions* are **not** retried: every task here is a
  deterministic function of its input, so a clean exception would simply
  recur (and routing it through the retry loop would triple the cost of
  a reproducible bug);
* **graceful degradation** — with one worker, one task, or a platform
  where processes cannot be spawned, everything runs inline in this
  process (no isolation, but no machinery to fail either);
* **partial results** — the run always completes: results arrive in
  input order with ``None`` holes where tasks permanently failed, and
  the failures themselves are structured
  :class:`~repro.errors.SeedTaskError` records.

Determinism: tasks are pure functions of their items, and results are
assembled by input index, so the merged output is bit-identical to a
sequential run no matter how attempts interleave — same contract the old
``Pool.map`` path had, now crash-proof.

This module is on the repro-lint wall-clock allowlist: the watchdog
necessarily reads host time (``time.monotonic``), but only ever for
*timeouts* of host processes — nothing here touches simulated time.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import SeedTaskError

#: Hard cap on how long a terminated worker may take to die before the
#: supervisor escalates from SIGTERM to SIGKILL.
_TERM_GRACE = 5.0

#: Default longest wait between supervision passes (seconds); deadline
#: and backoff edges shorten individual waits below this.
_POLL_INTERVAL = 0.25

#: Progress event kinds, in lifecycle order.
EVENT_SCHEDULED = "scheduled"
EVENT_STARTED = "started"
EVENT_RETRYING = "retrying"
EVENT_COMPLETED = "completed"
EVENT_FAILED = "failed"

#: Kinds after which a task emits nothing further.
TERMINAL_EVENTS = frozenset({EVENT_COMPLETED, EVENT_FAILED})

#: Longest ``detail`` string an event carries (tracebacks are truncated).
_DETAIL_LIMIT = 500


@dataclass(frozen=True)
class SupervisorEvent:
    """One step in a supervised task's lifecycle.

    Per input item the stream follows a fixed grammar::

        scheduled (started retrying?)* started? (completed | failed)

    concretely: exactly one ``scheduled`` first, one ``started`` per
    attempt, a ``retrying`` after every attempt that crashed or hung but
    will be retried, and exactly one terminal ``completed`` / ``failed``
    last — nothing after the terminal event.  Consumers (the serving
    layer's progress stream, progress reporting) rely on that grammar;
    it is pinned by test.
    """

    kind: str
    #: Input index of the item this event describes.
    index: int
    #: The item's label (the seed, for campaign sweeps).
    label: Any
    #: 1-based attempt number (0 on ``scheduled``, which precedes any).
    attempt: int
    #: Cause text for ``retrying``/``failed`` (truncated), else "".
    detail: str = ""

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_EVENTS

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (labels must already be JSON-able)."""
        return {
            "kind": self.kind,
            "index": self.index,
            "label": self.label,
            "attempt": self.attempt,
            "detail": self.detail,
        }


@dataclass
class SupervisorConfig:
    """Tuning knobs for supervised execution."""

    #: Per-attempt wall-clock timeout in seconds; ``None`` disables the
    #: watchdog (a hung worker then hangs the campaign, as Pool.map did).
    timeout: Optional[float] = None
    #: Extra attempts after a crash or hang (0 = fail on first crash).
    retries: int = 2
    #: Delay before the first retry, in seconds.
    backoff: float = 0.5
    #: Multiplier applied to the backoff per further retry.
    backoff_factor: float = 2.0

    def validate(self) -> None:
        from ..errors import ConfigurationError

        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"supervisor timeout must be positive (or None), got {self.timeout}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"supervisor retries must be >= 0, got {self.retries}"
            )
        if self.backoff < 0:
            raise ConfigurationError(
                f"supervisor backoff must be >= 0, got {self.backoff}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"supervisor backoff_factor must be >= 1, got {self.backoff_factor}"
            )


@dataclass
class SupervisedRun:
    """Outcome of a supervised fan-out, in input order throughout."""

    #: One slot per input item; ``None`` where the task permanently failed.
    results: List[Optional[Any]]
    #: Permanent failures, in input order.
    failures: List[SeedTaskError] = field(default_factory=list)
    #: Input indexes of the permanent failures (parallel to ``failures``).
    failed_indexes: List[int] = field(default_factory=list)
    #: Input indexes that needed more than one attempt but succeeded.
    retried_indexes: List[int] = field(default_factory=list)
    #: The per-item labels (seeds, usually) the run was invoked with.
    labels: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_labels(self) -> List[Any]:
        return [self.labels[index] for index in self.failed_indexes]

    @property
    def retried_labels(self) -> List[Any]:
        return [self.labels[index] for index in self.retried_indexes]

    def completed(self) -> List[Any]:
        """The successful results only, still in input order."""
        return [result for result in self.results if result is not None]


def _child_entry(conn: Any, task: Callable[[Any], Any], item: Any) -> None:
    """Worker body: run the task, report exactly one message, exit."""
    try:
        result = task(item)
    except BaseException as exc:  # noqa: BLE001 - report, don't mask
        payload = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        try:
            conn.send(("error", payload))
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    except Exception as exc:  # unpicklable result is a task bug
        conn.send(("error", f"result not picklable: {type(exc).__name__}: {exc}"))
    finally:
        conn.close()


class _Attempt:
    """One queued or running attempt at one input item."""

    __slots__ = ("index", "attempt", "not_before", "process", "conn", "deadline")

    def __init__(self, index: int, attempt: int, not_before: float) -> None:
        self.index = index
        self.attempt = attempt  # 1-based
        self.not_before = not_before
        self.process: Optional[multiprocessing.Process] = None
        self.conn: Any = None
        self.deadline: Optional[float] = None


class Supervisor:
    """Run ``task(item)`` per item under crash/hang supervision."""

    def __init__(
        self,
        task: Callable[[Any], Any],
        items: Sequence[Any],
        workers: int,
        config: Optional[SupervisorConfig] = None,
        labels: Optional[Sequence[Any]] = None,
        on_event: Optional[Callable[[SupervisorEvent], None]] = None,
    ) -> None:
        self.task = task
        self.items = list(items)
        self.workers = max(1, workers)
        self.config = config if config is not None else SupervisorConfig()
        self.config.validate()
        self.on_event = on_event
        self.labels = list(labels) if labels is not None else list(self.items)
        if len(self.labels) != len(self.items):
            from ..errors import ConfigurationError

            raise ConfigurationError(
                f"got {len(self.labels)} labels for {len(self.items)} items"
            )
        self._results: List[Optional[Any]] = [None] * len(self.items)
        self._failures: Dict[int, SeedTaskError] = {}
        self._attempts_used: List[int] = [0] * len(self.items)
        self._pending: List[_Attempt] = []
        self._running: List[_Attempt] = []
        #: Set when process spawning failed once; all further attempts run
        #: inline rather than banging on a broken platform.
        self._degraded = False

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def _emit(self, kind: str, index: int, attempt: int, detail: str = "") -> None:
        if self.on_event is None:
            return
        if len(detail) > _DETAIL_LIMIT:
            detail = detail[:_DETAIL_LIMIT] + "..."
        self.on_event(
            SupervisorEvent(
                kind=kind,
                index=index,
                label=self.labels[index],
                attempt=attempt,
                detail=detail,
            )
        )

    def run(self) -> SupervisedRun:
        for index in range(len(self.items)):
            self._emit(EVENT_SCHEDULED, index, 0)
        if self.workers <= 1 or len(self.items) <= 1:
            self._run_all_inline()
        else:
            self._run_supervised()
        failed_indexes = sorted(self._failures)
        retried = [
            index
            for index, used in enumerate(self._attempts_used)
            if used > 1 and index not in self._failures
        ]
        return SupervisedRun(
            results=self._results,
            failures=[self._failures[index] for index in failed_indexes],
            failed_indexes=failed_indexes,
            retried_indexes=retried,
            labels=self.labels,
        )

    # ------------------------------------------------------------------
    # Inline (degraded) execution
    # ------------------------------------------------------------------
    def _run_one_inline(self, index: int) -> None:
        self._attempts_used[index] += 1
        attempt = self._attempts_used[index]
        self._emit(EVENT_STARTED, index, attempt)
        try:
            self._results[index] = self.task(self.items[index])
        except Exception as exc:  # noqa: BLE001 - converted to a record
            cause = f"{type(exc).__name__}: {exc}"
            self._failures[index] = SeedTaskError(
                self.labels[index], attempt, cause
            )
            self._emit(EVENT_FAILED, index, attempt, cause)
            return
        self._emit(EVENT_COMPLETED, index, attempt)

    def _run_all_inline(self) -> None:
        for index in range(len(self.items)):
            self._run_one_inline(index)

    # ------------------------------------------------------------------
    # Supervised execution
    # ------------------------------------------------------------------
    def _run_supervised(self) -> None:
        for index in range(len(self.items)):
            self._pending.append(_Attempt(index, 1, 0.0))
        while self._pending or self._running:
            now = time.monotonic()
            self._launch_ready(now)
            timeout = self._wait_timeout(now)
            ready: List[Any] = []
            if self._running:
                ready = multiprocessing.connection.wait(
                    [attempt.conn for attempt in self._running], timeout
                )
            elif self._pending:
                time.sleep(timeout)
            for conn in ready:
                self._reap(self._attempt_for(conn))
            self._enforce_deadlines(time.monotonic())

    def _attempt_for(self, conn: Any) -> _Attempt:
        for attempt in self._running:
            if attempt.conn is conn:
                return attempt
        raise RuntimeError("connection is not owned by a running attempt")

    def _launch_ready(self, now: float) -> None:
        while self._pending and len(self._running) < self.workers:
            candidate: Optional[_Attempt] = None
            for attempt in self._pending:
                if attempt.not_before <= now:
                    candidate = attempt
                    break
            if candidate is None:
                return
            self._pending.remove(candidate)
            self._launch(candidate, now)

    def _launch(self, attempt: _Attempt, now: float) -> None:
        if self._degraded:
            self._run_one_inline(attempt.index)
            return
        recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_child_entry,
            args=(send_conn, self.task, self.items[attempt.index]),
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            # Platform cannot spawn (fd/process limits): degrade for the
            # rest of the run rather than failing the campaign.
            recv_conn.close()
            send_conn.close()
            self._degraded = True
            self._run_one_inline(attempt.index)
            return
        send_conn.close()  # child's end; parent keeps only the read side
        self._attempts_used[attempt.index] += 1
        attempt.process = process
        attempt.conn = recv_conn
        if self.config.timeout is not None:
            attempt.deadline = now + self.config.timeout
        self._running.append(attempt)
        self._emit(EVENT_STARTED, attempt.index, attempt.attempt)

    def _wait_timeout(self, now: float) -> float:
        edges = [_POLL_INTERVAL]
        for attempt in self._running:
            if attempt.deadline is not None:
                edges.append(attempt.deadline - now)
        if self._pending and len(self._running) < self.workers:
            edges.append(
                min(attempt.not_before for attempt in self._pending) - now
            )
        return max(0.0, min(edges))

    # ------------------------------------------------------------------
    # Attempt outcomes
    # ------------------------------------------------------------------
    def _reap(self, attempt: _Attempt) -> None:
        """A running attempt's pipe is readable: collect its report."""
        try:
            kind, payload = attempt.conn.recv()
        except (EOFError, OSError):
            # The pipe closed with no report: the worker died.
            attempt.process.join(_TERM_GRACE)
            code = attempt.process.exitcode
            self._finish(attempt)
            self._fail_or_retry(attempt, f"worker crashed (exit code {code})")
            return
        self._finish(attempt)
        if kind == "ok":
            self._results[attempt.index] = payload
            self._failures.pop(attempt.index, None)
            self._emit(EVENT_COMPLETED, attempt.index, attempt.attempt)
        else:
            # A clean task exception: deterministic, so never retried.
            self._failures[attempt.index] = SeedTaskError(
                self.labels[attempt.index], attempt.attempt, payload
            )
            self._emit(EVENT_FAILED, attempt.index, attempt.attempt, payload)

    def _enforce_deadlines(self, now: float) -> None:
        expired = [
            attempt
            for attempt in self._running
            if attempt.deadline is not None and now > attempt.deadline
        ]
        for attempt in expired:
            attempt.process.terminate()
            attempt.process.join(_TERM_GRACE)
            if attempt.process.is_alive():
                attempt.process.kill()
                attempt.process.join()
            self._finish(attempt)
            self._fail_or_retry(
                attempt,
                f"worker hung past its {self.config.timeout}s timeout",
            )

    def _finish(self, attempt: _Attempt) -> None:
        self._running.remove(attempt)
        attempt.conn.close()
        attempt.process.join(_TERM_GRACE)

    def _fail_or_retry(self, attempt: _Attempt, cause: str) -> None:
        if attempt.attempt <= self.config.retries:
            delay = self.config.backoff * (
                self.config.backoff_factor ** (attempt.attempt - 1)
            )
            self._pending.append(
                _Attempt(
                    attempt.index,
                    attempt.attempt + 1,
                    time.monotonic() + delay,
                )
            )
            self._emit(EVENT_RETRYING, attempt.index, attempt.attempt, cause)
            return
        self._failures[attempt.index] = SeedTaskError(
            self.labels[attempt.index], attempt.attempt, cause
        )
        self._emit(EVENT_FAILED, attempt.index, attempt.attempt, cause)


def run_supervised(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int,
    config: Optional[SupervisorConfig] = None,
    labels: Optional[Sequence[Any]] = None,
    on_event: Optional[Callable[[SupervisorEvent], None]] = None,
) -> SupervisedRun:
    """One-shot convenience wrapper around :class:`Supervisor`."""
    return Supervisor(
        task, items, workers, config=config, labels=labels, on_event=on_event
    ).run()
