"""Durable, resumable stored runs on top of the run store.

:func:`run_stored_steps` is the one primitive under every stored
experiment.  A stored run is a fixed number of *steps* over one piece of
resumable state, and the primitive gives it three persistence behaviours:

* **Checkpointing** — after each step (configurable cadence) the state
  is serialized into the content-addressed blob store and the run
  manifest is updated atomically.  A crash at step 40/50 loses at most
  the step in flight.

* **Resume** — ``resume=<run-id>`` (or simply re-invoking with the same
  config against the same store) restores the latest checkpoint and
  executes only the remaining steps.  The supplied config must hash to
  the stored run key, so a resume can never silently change the
  experiment.

* **Caching** — the run key is a content hash of the run's config.
  Re-running a completed key loads the stored result without simulating
  anything.

:func:`run_stored_campaign` is the crawl-campaign adapter: its state is
the whole :class:`~repro.core.pipeline.CampaignRunner` — scenario,
simulator event queue, RNG streams, partial result — and each step is
one snapshot.  Because the checkpoint pins the event queue, clock, and
every RNG stream position, a resumed campaign's outputs are
bit-identical to an uninterrupted run — on both scheduler backends,
pinned by test.  The attack sweeps and variant matrices in
:mod:`repro.core` are adapters over the same primitive.

Crash injection for tests/CI: setting ``REPRO_CRASH_AFTER_STEP=k``
hard-exits the process (``os._exit``) right after step ``k``'s
checkpoint is durably recorded — the honest moral equivalent of
``kill -9`` at the worst allowed moment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..core.pipeline import CampaignConfig, CampaignResult, CampaignRunner
from ..errors import ConfigurationError, StoreError
from ..netmodel.scenario import LongitudinalConfig, LongitudinalScenario
from ..simnet.simulator import resolve_engine
from .checkpoint import dump_checkpoint, load_checkpoint
from .manifest import (
    STATUS_COMPLETE,
    STATUS_RUNNING,
    CheckpointRecord,
    RunManifest,
    SnapshotRecord,
    code_version,
    config_to_dict,
    run_key,
)
from .runstore import RunStore
from .wallclock import now as wall_now

#: Test/CI hook: hard-exit after this step index is durably stored.
CRASH_ENV = "REPRO_CRASH_AFTER_STEP"
CRASH_EXIT_CODE = 42


@dataclass(frozen=True)
class StoredKind:
    """One kind of stored run: its name and the blobs it writes.

    Every step writes a checkpoint of the state tagged
    ``checkpoint_blob`` (every ``checkpoint_every`` steps, and always
    after the last), and the final result is written once, tagged
    ``result_blob``.  With ``snapshot_blob`` set, each step also returns
    an object that is written as its own blob and recorded as the
    step's snapshot; without it, the step's checkpoint doubles as its
    snapshot record, so such kinds checkpoint every step.
    """

    #: Manifest kind and run-id prefix.
    name: str
    checkpoint_blob: str
    result_blob: str
    state_type: type
    result_type: type
    #: Steps the (possibly restored) state already holds.
    steps_done: Callable[[Any], int]
    #: The result, taken from the state once every step has run.
    result_of: Callable[[Any], Any] = lambda state: state
    snapshot_blob: Optional[str] = None
    #: ``False`` writes memo-free pickles (see :func:`dump_checkpoint`):
    #: a state resumed mid-run appends fresh steps onto an unpickled
    #: partial result, so its object graph shares substructure
    #: differently than a single-process run.
    aliasing: bool = True

    @classmethod
    def partial_result(
        cls, name: str, result_type: type, steps_done: Callable[[Any], int]
    ) -> "StoredKind":
        """A sweep kind: its state is the partial result, pickled memo-free."""
        return cls(
            name=name,
            checkpoint_blob=f"{name}-partial",
            result_blob=f"{name}-result",
            state_type=result_type,
            result_type=result_type,
            steps_done=steps_done,
            aliasing=False,
        )

    def run_id(self, key: str) -> str:
        """Human-scannable run id derived from the key."""
        return f"{self.name}-{key[:12]}"

    def decode_result(self, blob: bytes, run_id: str) -> Any:
        """The result stored in ``blob``, type-checked."""
        return _decode(blob, self.result_blob, self.result_type, run_id, "result")


def _decode(blob: bytes, blob_kind: str, expected: type, run_id: str, what: str) -> Any:
    obj = load_checkpoint(blob, expect_kind=blob_kind)
    if not isinstance(obj, expected):
        raise StoreError(f"run {run_id!r} {what} blob has wrong type")
    return obj


@dataclass
class StoredRun:
    """What a stored run handed back: the result plus its provenance."""

    manifest: RunManifest
    result: Any
    #: True when the result came straight from the store (no simulation).
    cached: bool = False
    #: Steps already complete when execution (re)started, if resumed.
    resumed_from: Optional[int] = None


def run_stored_steps(
    store: Union[RunStore, str],
    kind: StoredKind,
    key: str,
    config: Dict[str, Any],
    steps: int,
    step_fn: Callable[[Any, int], Tuple[float, Any]],
    *,
    start: Callable[[], Any],
    seed: int,
    engine: str,
    resume: Optional[str] = None,
    force: bool = False,
    checkpoint_every: int = 1,
) -> StoredRun:
    """Run (or resume, or fetch) ``steps`` steps of a run through the store.

    ``start()`` builds the initial state of a fresh run.
    ``step_fn(state, index)`` advances the state by step ``index`` and
    returns ``(when, snapshot)``: the step's position on the run's axis
    and, for kinds with a ``snapshot_blob``, the object to store for it
    (``None`` otherwise).  ``config`` is recorded in the manifest and
    must be what ``key`` was hashed from.

    ``resume`` names an existing run id and fails loudly if its key does
    not match — resuming under a different configuration would silently
    change the experiment.  ``force=True`` re-executes a complete run
    instead of returning the cached result.
    """
    if isinstance(store, (str, os.PathLike)):
        store = RunStore(store)
    if checkpoint_every < 1:
        raise StoreError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    crash_after = os.environ.get(CRASH_ENV)
    try:
        crash_index = None if crash_after is None else int(crash_after)
    except ValueError:
        raise ConfigurationError(
            f"{CRASH_ENV} must be an integer step index, got {crash_after!r}"
        ) from None
    run_id = kind.run_id(key)

    manifest: Optional[RunManifest] = None
    if resume is not None:
        manifest = store.load_manifest(resume)
        if manifest.kind != kind.name:
            raise StoreError(f"run {resume!r} is a {manifest.kind!r} run")
        if manifest.key != key:
            raise StoreError(
                f"cannot resume {resume!r}: the supplied config hashes to a "
                f"different run key (config drift between start and resume)"
            )
    elif store.has_run(run_id):
        manifest = store.load_manifest(run_id)

    state: Any = None
    resumed_from: Optional[int] = None
    if manifest is not None and not force:
        if manifest.status == STATUS_COMPLETE:
            if manifest.result_digest is None:
                raise StoreError(
                    f"run {manifest.run_id!r} is complete but has no stored result"
                )
            result = kind.decode_result(
                store.get_blob(manifest.result_digest), manifest.run_id
            )
            return StoredRun(manifest=manifest, result=result, cached=True)
        if manifest.checkpoint is not None:
            state = _decode(
                store.get_blob(manifest.checkpoint.digest),
                kind.checkpoint_blob, kind.state_type, manifest.run_id,
                "checkpoint",
            )
            resumed_from = kind.steps_done(state)
            if resumed_from != manifest.checkpoint.snapshot_index + 1:
                raise StoreError(
                    f"run {manifest.run_id!r} checkpoint is inconsistent: "
                    f"contains {resumed_from} steps, manifest says "
                    f"{manifest.checkpoint.snapshot_index + 1}"
                )
            # Records past the checkpoint describe steps the restored
            # state will re-execute; drop them so the manifest never
            # claims work the checkpoint does not contain.
            manifest.snapshots = manifest.snapshots[:resumed_from]
            manifest.status = STATUS_RUNNING
            manifest.result_digest = None

    if state is None:
        state = start()
        manifest = RunManifest(
            run_id=run_id,
            key=key,
            kind=kind.name,
            seed=seed,
            engine=engine,
            snapshots_total=steps,
            config=config,
            status=STATUS_RUNNING,
            code_version=code_version(),
        )
        store.save_manifest(manifest)

    first = kind.steps_done(state)
    for index in range(first, steps):
        when, snapshot = step_fn(state, index)
        if snapshot is not None:
            snap_digest = store.put_blob(
                dump_checkpoint(
                    snapshot, kind=kind.snapshot_blob, meta={"index": index}
                )
            )
        due = (index + 1 - first) % checkpoint_every == 0
        if snapshot is None or due or index + 1 == steps:
            ckpt_digest = store.put_blob(
                dump_checkpoint(
                    state,
                    kind=kind.checkpoint_blob,
                    meta={"snapshot_index": index, "run_id": run_id},
                    aliasing=kind.aliasing,
                )
            )
            manifest.checkpoint = CheckpointRecord(
                digest=ckpt_digest, snapshot_index=index
            )
        manifest.snapshots.append(
            SnapshotRecord(
                index=index,
                when=when,
                digest=snap_digest if snapshot is not None else ckpt_digest,
                truncated=snapshot is not None and snapshot.truncated,
            )
        )
        manifest.updated_at = wall_now()
        store.save_manifest(manifest)
        if crash_index is not None and index >= crash_index:
            os._exit(CRASH_EXIT_CODE)

    result = kind.result_of(state)
    # No run-specific metadata in the result blob: equal results must
    # hash equally across runs (and engines), so `store diff` can report
    # result agreement by digest alone.
    manifest.result_digest = store.put_blob(
        dump_checkpoint(result, kind=kind.result_blob, aliasing=kind.aliasing)
    )
    manifest.status = STATUS_COMPLETE
    manifest.updated_at = wall_now()
    store.save_manifest(manifest)
    return StoredRun(
        manifest=manifest, result=result, cached=False, resumed_from=resumed_from
    )


# ---------------------------------------------------------------------------
# Crawl campaigns
# ---------------------------------------------------------------------------

CAMPAIGN = StoredKind(
    name="campaign",
    checkpoint_blob="campaign-runner",
    result_blob="campaign-result",
    snapshot_blob="snapshot-result",
    state_type=CampaignRunner,
    result_type=CampaignResult,
    steps_done=lambda runner: len(runner.result.snapshots),
    result_of=attrgetter("result"),
)


def _campaign_config(
    config: LongitudinalConfig, campaign_config: Optional[CampaignConfig]
) -> Dict[str, Any]:
    return {
        "scenario": config_to_dict(config),
        "campaign": config_to_dict(
            campaign_config if campaign_config is not None else CampaignConfig()
        ),
    }


def campaign_key(
    config: LongitudinalConfig,
    campaign_config: Optional[CampaignConfig],
    snapshots: Optional[int] = None,
) -> str:
    """The run key for a campaign invocation."""
    return run_key(
        CAMPAIGN.name,
        _campaign_config(config, campaign_config),
        seed=config.seed,
        engine=resolve_engine(config.engine),
        snapshots_total=snapshots if snapshots is not None else config.snapshots,
    )


def _campaign_step(runner: CampaignRunner, index: int) -> Tuple[float, Any]:
    snap = runner.run_snapshot(index, runner.scenario.snapshot_times[index])
    return snap.when, snap


def run_stored_campaign(
    store: Union[RunStore, str],
    config: LongitudinalConfig,
    campaign_config: Optional[CampaignConfig] = None,
    snapshots: Optional[int] = None,
    resume: Optional[str] = None,
    checkpoint_every: int = 1,
    force: bool = False,
) -> StoredRun:
    """Run (or resume, or fetch) a crawl campaign through the store.

    ``store`` may be a :class:`RunStore` or a root path.  Each snapshot
    is one step: its result is stored as its own blob, and the whole
    runner is checkpointed every ``checkpoint_every`` snapshots.  See
    :func:`run_stored_steps` for ``resume`` and ``force``.

    A store root the filesystem refuses to write (read-only mount,
    permission denial) surfaces as
    :class:`~repro.errors.ReadOnlyStoreError` rather than a raw
    ``OSError``, so operational callers (the serving layer) can answer
    "temporarily unavailable" instead of "internal error".
    """
    total = snapshots if snapshots is not None else config.snapshots
    return run_stored_steps(
        store,
        CAMPAIGN,
        campaign_key(config, campaign_config, total),
        _campaign_config(config, campaign_config),
        total,
        _campaign_step,
        start=lambda: CampaignRunner(LongitudinalScenario(config), campaign_config),
        seed=config.seed,
        engine=resolve_engine(config.engine),
        resume=resume,
        force=force,
        checkpoint_every=checkpoint_every,
    )
