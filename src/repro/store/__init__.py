"""Content-addressed run store, checkpoints, and resumable campaigns.

The persistence layer under every long-horizon measurement: SHA-256
addressed blobs with atomic writes (:mod:`~repro.store.blobs`), JSON run
manifests keyed by a content hash of (scenario, seed, config)
(:mod:`~repro.store.manifest`), versioned integrity-checked checkpoint
framing (:mod:`~repro.store.checkpoint`), the store facade with gc and
manifest diffing (:mod:`~repro.store.runstore`), and the one resumable
stored-run primitive with its crawl-campaign adapter
(:mod:`~repro.store.campaign`).

``repro.simnet.Simulator.snapshot()`` / ``restore()`` build on the same
checkpoint framing, so a whole simulator — event queue (either scheduler
backend), clock, RNG streams, nodes, addrman, churn — round-trips to
bytes and replays bit-identically.
"""

from .blobs import BlobStore, sha256_hex
from .campaign import (
    CAMPAIGN,
    CRASH_ENV,
    StoredKind,
    StoredRun,
    campaign_key,
    run_stored_campaign,
    run_stored_steps,
)
from .checkpoint import (
    CHECKPOINT_FORMAT,
    dump_checkpoint,
    load_checkpoint,
    read_header,
)
from .manifest import (
    MANIFEST_FORMAT,
    STATUS_COMPLETE,
    STATUS_RUNNING,
    CheckpointRecord,
    RunManifest,
    SnapshotRecord,
    code_version,
    run_key,
)
from .runstore import RunStore, default_store_root

__all__ = [
    "BlobStore",
    "CAMPAIGN",
    "CHECKPOINT_FORMAT",
    "CRASH_ENV",
    "CheckpointRecord",
    "MANIFEST_FORMAT",
    "RunManifest",
    "RunStore",
    "STATUS_COMPLETE",
    "STATUS_RUNNING",
    "SnapshotRecord",
    "StoredKind",
    "StoredRun",
    "campaign_key",
    "code_version",
    "default_store_root",
    "dump_checkpoint",
    "load_checkpoint",
    "read_header",
    "run_key",
    "run_stored_campaign",
    "run_stored_steps",
    "sha256_hex",
]
