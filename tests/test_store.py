"""Tests for the run store: blobs, checkpoints, manifests, resume.

The subprocess tests at the bottom are the acceptance pin for every
stored kind (crawl campaign, attack sweep, variant matrix): a run
killed mid-way (hard ``os._exit`` right after a checkpoint commits) and
then resumed produces identical content-store digests to an
uninterrupted run — and, for campaigns, byte-identical CSV exports on
both scheduler backends.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import CheckpointError, SimulationError, StoreError
from repro.netmodel.scenario import (
    LongitudinalConfig,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.simnet.simulator import Simulator, resolve_engine
from repro.store import (
    CAMPAIGN,
    BlobStore,
    RunManifest,
    RunStore,
    SnapshotRecord,
    StoredKind,
    campaign_key,
    dump_checkpoint,
    load_checkpoint,
    read_header,
    run_key,
    run_stored_campaign,
    run_stored_steps,
    sha256_hex,
)
from repro.store.campaign import CRASH_ENV, CRASH_EXIT_CODE
from repro.store.checkpoint import MAGIC


class TestBlobStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = BlobStore(tmp_path)
        digest = store.put(b"hello world")
        assert digest == sha256_hex(b"hello world")
        assert store.get(digest) == b"hello world"
        assert digest in store
        assert len(store) == 1

    def test_put_is_idempotent(self, tmp_path):
        store = BlobStore(tmp_path)
        a = store.put(b"data")
        b = store.put(b"data")
        assert a == b
        assert len(store) == 1

    def test_get_missing_raises(self, tmp_path):
        store = BlobStore(tmp_path)
        with pytest.raises(StoreError):
            store.get("0" * 64)

    def test_corrupt_blob_detected(self, tmp_path):
        store = BlobStore(tmp_path)
        digest = store.put(b"payload")
        path = store._path(digest)
        path.write_bytes(b"tampered")
        with pytest.raises(StoreError):
            store.get(digest)

    def test_delete_and_totals(self, tmp_path):
        store = BlobStore(tmp_path)
        digest = store.put(b"xyz")
        assert store.total_bytes() == 3
        assert store.delete(digest)
        assert digest not in store
        assert not store.delete(digest)


class TestCheckpointFraming:
    def test_roundtrip(self):
        blob = dump_checkpoint({"a": [1, 2]}, kind="test", meta={"k": 1})
        header = read_header(blob)
        assert header["kind"] == "test"
        assert header["meta"] == {"k": 1}
        assert load_checkpoint(blob, expect_kind="test") == {"a": [1, 2]}

    def test_wrong_kind_rejected(self):
        blob = dump_checkpoint(1, kind="alpha")
        with pytest.raises(CheckpointError):
            load_checkpoint(blob, expect_kind="beta")

    def test_bad_magic_rejected(self):
        blob = dump_checkpoint(1, kind="t")
        with pytest.raises(CheckpointError):
            load_checkpoint(b"NOTMAGIC" + blob[8:])

    def test_truncated_payload_rejected(self):
        blob = dump_checkpoint(list(range(100)), kind="t")
        with pytest.raises(CheckpointError):
            load_checkpoint(blob[:-5])

    def test_flipped_payload_bit_rejected(self):
        blob = bytearray(dump_checkpoint(list(range(100)), kind="t"))
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError):
            load_checkpoint(bytes(blob))

    @staticmethod
    def _crafted(header: dict, payload: bytes = b"") -> bytes:
        raw = json.dumps(header).encode("utf-8")
        return MAGIC + len(raw).to_bytes(4, "big") + raw + payload

    def test_non_object_header_rejected(self):
        with pytest.raises(CheckpointError, match="not a JSON object"):
            read_header(self._crafted([1, 2, 3]))
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(self._crafted("text"))

    @pytest.mark.parametrize("missing", ["payload_bytes", "payload_sha256"])
    def test_header_without_payload_fields_rejected(self, missing):
        header = read_header(dump_checkpoint(1, kind="t"))
        del header["_payload_offset"], header[missing]
        with pytest.raises(CheckpointError, match=missing):
            load_checkpoint(self._crafted(header, b"x"))

    def test_digest_matching_garbage_payload_rejected(self):
        payload = b"not a pickle"
        header = read_header(dump_checkpoint(1, kind="t"))
        del header["_payload_offset"]
        header["payload_bytes"] = len(payload)
        header["payload_sha256"] = sha256_hex(payload)
        with pytest.raises(CheckpointError, match="does not unpickle"):
            load_checkpoint(self._crafted(header, payload))

    def test_sets_pickle_canonically(self):
        # Same values, different insertion histories: the canonical
        # pickler must emit identical bytes, else content addressing
        # would see two different "states" for one logical state.
        grown = set()
        for value in (9, 4, 7, 1, 8, 3):
            grown.add(value)
        grown.discard(9)
        rebuilt = {1, 3, 4, 7, 8}
        assert grown == rebuilt
        a = dump_checkpoint(grown, kind="t")
        b = dump_checkpoint(rebuilt, kind="t")
        assert a == b
        # and the restored object really is a set
        assert load_checkpoint(a, expect_kind="t") == rebuilt


class TestRunKey:
    def test_deterministic_and_sensitive(self):
        base = dict(kind="campaign", config={"x": 1}, seed=3,
                    engine="wheel", snapshots_total=5)
        key = run_key(**base)
        assert key == run_key(**base)
        assert key != run_key(**{**base, "seed": 4})
        assert key != run_key(**{**base, "engine": "heap"})
        assert key != run_key(**{**base, "config": {"x": 2}})

    def test_campaign_key_resolves_engine(self):
        config = LongitudinalConfig(seed=1, scale=0.002, snapshots=2)
        assert campaign_key(config, None) == campaign_key(config, None)
        run_id = CAMPAIGN.run_id(campaign_key(config, None))
        assert run_id.startswith("campaign-")


class TestRunStore:
    def _manifest(self, run_id="campaign-abc", key="k1"):
        return RunManifest(
            run_id=run_id, key=key, kind="campaign", seed=1,
            engine="wheel", snapshots_total=2, config={"scenario": {}},
        )

    def test_manifest_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = self._manifest()
        manifest.snapshots.append(
            SnapshotRecord(index=0, when=10.0, digest="d" * 64)
        )
        store.save_manifest(manifest)
        loaded = store.load_manifest("campaign-abc")
        assert loaded == manifest
        assert store.has_run("campaign-abc")
        assert store.find_by_key("k1").run_id == "campaign-abc"
        assert store.find_by_key("nope") is None

    def test_index_written(self, tmp_path):
        store = RunStore(tmp_path)
        store.save_manifest(self._manifest())
        assert store.index_path.exists()
        assert "campaign-abc" in store.index()

    def test_gc_removes_only_unreferenced(self, tmp_path):
        store = RunStore(tmp_path)
        kept = store.put_blob(b"referenced")
        dropped = store.put_blob(b"garbage")
        manifest = self._manifest()
        manifest.snapshots.append(
            SnapshotRecord(index=0, when=1.0, digest=kept)
        )
        store.save_manifest(manifest)
        dry = store.gc(dry_run=True)
        assert dropped in dry["removed"] and kept not in dry["removed"]
        assert dropped in store.blobs  # dry run deletes nothing
        report = store.gc()
        assert report["removed"] == [dropped]
        assert kept in store.blobs and dropped not in store.blobs

    def test_diff_reports_config_drift(self, tmp_path):
        store = RunStore(tmp_path)
        a = self._manifest(run_id="campaign-a", key="ka")
        b = self._manifest(run_id="campaign-b", key="kb")
        b.seed = 2
        b.config = {"scenario": {"seed": 2}}
        store.save_manifest(a)
        store.save_manifest(b)
        report = store.diff("campaign-a", "campaign-b")
        assert "seed" in report["fields"]
        assert "scenario" in report["config"]

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '"manifest"',
            '{"format": 1}',
            '{"format": 1, "run_id": "r", "surprise": true}',
            '{"format": 1, "snapshots": [7]}',
            '{"format": 1, "checkpoint": {"digest": "d"}}',
        ],
        ids=["list", "string", "missing-fields", "unknown-field",
             "non-object-snapshot", "incomplete-checkpoint"],
    )
    def test_malformed_manifest_rejected(self, tmp_path, text):
        with pytest.raises(StoreError, match="manifest"):
            RunManifest.from_json(text)
        store = RunStore(tmp_path)
        (store.runs_dir / "campaign-crafted.json").write_text(text)
        with pytest.raises(StoreError):
            store.load_manifest("campaign-crafted")

    def test_invalid_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(StoreError):
            store.load_manifest("../escape")


class TestSimulatorSnapshot:
    @pytest.mark.parametrize("engine", ["wheel", "heap"])
    def test_restore_replays_identically(self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        assert resolve_engine(None) == engine
        original = ProtocolScenario(
            ProtocolConfig(seed=31, n_reachable=10, n_responsive=4,
                           n_silent=4, pre_mined_blocks=5),
        )
        assert original.sim.engine == engine
        original.sim.run_for(120.0)
        blob = original.sim.snapshot()
        header = read_header(blob)
        assert header["kind"] == "simulator"
        assert header["meta"]["now"] == original.sim.now

        restored = Simulator.restore(blob)
        assert restored.engine == original.sim.engine
        a = original.sim.run_for(600.0)
        b = restored.run_for(600.0)
        assert int(a) == int(b)
        assert original.sim.now == restored.now
        assert original.sim.scheduler.fired == restored.scheduler.fired

    def test_restore_rejects_wrong_kind(self):
        blob = dump_checkpoint({"not": "a simulator"}, kind="other")
        with pytest.raises((CheckpointError, SimulationError)):
            Simulator.restore(blob)

    def test_snapshot_keeps_perf_recorder(self):
        sim = Simulator(seed=1, perf=True)
        assert sim.perf is not None
        sim.snapshot()
        # the recorder is excluded from the payload but must survive
        # on the live simulator
        assert sim.perf is not None
        assert sim.scheduler.perf is sim.perf


def _tiny_config(engine):
    return LongitudinalConfig(
        seed=13, scale=0.01, snapshots=3, campaign_days=1.0, engine=engine
    )


class TestStoredCampaign:
    def test_cache_hit_skips_simulation(self, tmp_path):
        config = _tiny_config("wheel")
        first = run_stored_campaign(tmp_path, config)
        assert not first.cached
        assert first.manifest.status == "complete"
        assert first.manifest.engine == "wheel"
        second = run_stored_campaign(tmp_path, config)
        assert second.cached
        assert second.manifest.run_id == first.manifest.run_id
        assert (
            [len(s.connected) for s in second.result.snapshots]
            == [len(s.connected) for s in first.result.snapshots]
        )

    def test_force_reexecutes(self, tmp_path):
        config = _tiny_config("wheel")
        run_stored_campaign(tmp_path, config)
        again = run_stored_campaign(tmp_path, config, force=True)
        assert not again.cached

    def test_resume_wrong_config_rejected(self, tmp_path):
        config = _tiny_config("wheel")
        first = run_stored_campaign(tmp_path, config)
        other = LongitudinalConfig(
            seed=14, scale=0.01, snapshots=3, campaign_days=1.0,
            engine="wheel",
        )
        with pytest.raises(StoreError):
            run_stored_campaign(
                tmp_path, other, resume=first.manifest.run_id
            )

    def test_manifest_records_per_snapshot_outputs(self, tmp_path):
        config = _tiny_config("wheel")
        stored = run_stored_campaign(tmp_path, config)
        manifest = stored.manifest
        assert manifest.completed_snapshots == 3
        assert [s.index for s in manifest.snapshots] == [0, 1, 2]
        whens = [s.when for s in manifest.snapshots]
        assert whens == sorted(whens)
        assert [s.when for s in stored.result.snapshots] == whens
        store = RunStore(tmp_path)
        for record in manifest.snapshots:
            snap = load_checkpoint(
                store.get_blob(record.digest), expect_kind="snapshot-result"
            )
            assert snap.index == record.index


class TestStoredSteps:
    def test_snapshotless_kind_checkpoints_every_step(self, tmp_path):
        # Without a snapshot blob each step's record points at its
        # checkpoint, so one is written every step whatever
        # checkpoint_every asks for.
        kind = StoredKind.partial_result("toy", list, len)

        def step(state, index):
            state.append(index)
            return float(index), None

        stored = run_stored_steps(
            tmp_path, kind, "k" * 64, {}, 4, step,
            start=list, seed=0, engine="wheel", checkpoint_every=3,
        )
        store = RunStore(tmp_path)
        records = stored.manifest.snapshots
        assert [r.when for r in records] == [0.0, 1.0, 2.0, 3.0]
        for record in records:
            partial = load_checkpoint(
                store.get_blob(record.digest), expect_kind="toy-partial"
            )
            assert partial == list(range(record.index + 1))
        assert stored.manifest.checkpoint.digest == records[-1].digest
        assert stored.result == [0, 1, 2, 3]


def _child_config(engine: str) -> LongitudinalConfig:
    return LongitudinalConfig(
        seed=13, scale=0.01, snapshots=3, campaign_days=1.0, engine=engine
    )


def stored_run(kind: str, engine: str, store: str):
    """The small run of each stored kind that the kill-and-resume pin uses.

    The sweeps take their engine from ``REPRO_ENGINE``; campaigns name
    it in their config.
    """
    if kind == "campaign":
        return run_stored_campaign(store, _child_config(engine))
    from repro.core import run_stored_attack_sweep, run_stored_variant_matrix
    from tests.test_adversary import flood_plan, tiny_campaign

    if kind == "attack-sweep":
        return run_stored_attack_sweep(
            store, flood_plan(count=3, volume=2000), tiny_campaign(),
            counts=(0, 3), seeds=[7], workers=1,
        )
    return run_stored_variant_matrix(
        store, ["baseline", "improved"], tiny_campaign(),
        churn_levels=(2.0,), fidelities=("hybrid",), seeds=[7], workers=1,
    )


#: Run keys of the ``stored_run`` configs.  A change here changes the
#: key of every stored run of that kind, so it must be deliberate.
_KEY_PINS = {
    ("campaign", "wheel"):
        "9f4b00212255a55551a0ab9318ebdd010397a9f30881ef1860292d2fbfbc21a8",
    ("campaign", "heap"):
        "bb2a20d12c04cecc38e0bd84e31ede76c5c4445a235755029379fd3686dd2848",
    ("attack-sweep", "wheel"):
        "53b4bfacd974cebed3ffd11382ab5dc43d00eb832b6de7d3050965169dbf87a9",
    ("variant-matrix", "wheel"):
        "7de4966a6f9622a2c3d85972f15bbfef8b9abcd5de75f6036b03ec5ccc80769d",
}

#: One case per stored kind; campaigns on both scheduler backends.
_KILL_CASES = [
    pytest.param("campaign", "wheel", id="wheel"),
    pytest.param("campaign", "heap", id="heap"),
    pytest.param("attack-sweep", "wheel", id="attack-sweep"),
    pytest.param("variant-matrix", "wheel", id="variant-matrix"),
]


def _run_child(store: Path, kind: str, engine: str, crash_after=None) -> int:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env.pop(CRASH_ENV, None)
    if crash_after is not None:
        env[CRASH_ENV] = str(crash_after)
    env["REPRO_ENGINE"] = engine
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    script = "import sys; from tests.test_store import stored_run; stored_run(*sys.argv[1:])"
    proc = subprocess.run(
        [sys.executable, "-c", script, kind, engine, str(store)], env=env,
        capture_output=True, text=True, timeout=600, cwd=str(root),
    )
    if crash_after is None and proc.returncode != 0:
        raise AssertionError(f"child failed: {proc.stderr}")
    return proc.returncode


@pytest.mark.parametrize(("kind", "engine"), _KILL_CASES)
def test_run_keys_are_pinned(kind, engine, monkeypatch):
    from repro.core import variant_matrix_key
    from repro.core.attack_experiments import attack_sweep_key
    from repro.core.variant_experiments import normalize_variants
    from tests.test_adversary import flood_plan, tiny_campaign

    monkeypatch.setenv("REPRO_ENGINE", engine)
    if kind == "campaign":
        key = campaign_key(_child_config(engine), None)
    elif kind == "attack-sweep":
        key = attack_sweep_key(
            flood_plan(count=3, volume=2000), tiny_campaign(), (0, 3), [7]
        )
    else:
        key = variant_matrix_key(
            tiny_campaign(), normalize_variants(["baseline", "improved"]),
            [2.0], [None], ["hybrid"], [7],
        )
    assert key == _KEY_PINS[(kind, engine)]


@pytest.mark.slow
class TestKillAndResume:
    """The acceptance pin: kill -9 mid-run, resume, compare."""

    @pytest.mark.parametrize(("kind", "engine"), _KILL_CASES)
    def test_resumed_run_is_bit_identical(self, tmp_path, kind, engine):
        interrupted = tmp_path / "interrupted"
        uninterrupted = tmp_path / "uninterrupted"

        # Child 1 hard-exits right after step 0's checkpoint commits.
        code = _run_child(interrupted, kind, engine, crash_after=0)
        assert code == CRASH_EXIT_CODE
        store = RunStore(interrupted)
        manifest = store.manifests()[0]
        assert manifest.kind == kind
        assert manifest.key == _KEY_PINS[(kind, engine)]
        assert manifest.status == "running"
        assert manifest.completed_snapshots == 1
        assert manifest.checkpoint is not None
        assert manifest.checkpoint.snapshot_index == 0

        # Child 2 (same invocation) auto-resumes from the checkpoint.
        assert _run_child(interrupted, kind, engine) == 0
        resumed = store.load_manifest(manifest.run_id)
        assert resumed.status == "complete"
        assert resumed.completed_snapshots == resumed.snapshots_total

        # Child 3 runs the same invocation uninterrupted in a second store.
        assert _run_child(uninterrupted, kind, engine) == 0
        fresh = RunStore(uninterrupted).load_manifest(manifest.run_id)

        # Content addressing makes the comparison exact: every step's
        # blob and the final result blob must hash identically.
        assert [s.digest for s in resumed.snapshots] == [
            s.digest for s in fresh.snapshots
        ]
        assert resumed.result_digest == fresh.result_digest
        if kind != "campaign":
            return

        # And the user-facing artifact: byte-identical CSV exports.
        from repro.core.export import export_campaign_series

        result_resumed = run_stored_campaign(
            interrupted, _child_config(engine)
        )
        result_fresh = run_stored_campaign(
            uninterrupted, _child_config(engine)
        )
        assert result_resumed.cached and result_fresh.cached
        path_a = export_campaign_series(
            result_resumed.result, tmp_path / "a.csv"
        )
        path_b = export_campaign_series(
            result_fresh.result, tmp_path / "b.csv"
        )
        assert path_a.read_bytes() == path_b.read_bytes()


class TestReadOnlyStore:
    """A read-only store root surfaces ReadOnlyStoreError, not raw
    OSError — the serving layer maps it to 503 (retryable), not 500."""

    @staticmethod
    def _deny_mkstemp(monkeypatch):
        import tempfile

        def refuse(*args, **kwargs):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)

    def test_blob_put_surfaces_read_only(self, tmp_path, monkeypatch):
        from repro.errors import ReadOnlyStoreError
        from repro.store.blobs import BlobStore

        blobs = BlobStore(tmp_path / "store")
        self._deny_mkstemp(monkeypatch)
        with pytest.raises(ReadOnlyStoreError, match="not writable"):
            blobs.put(b"payload")

    def test_manifest_save_surfaces_read_only(self, tmp_path, monkeypatch):
        from repro.errors import ReadOnlyStoreError

        store = RunStore(tmp_path / "store")
        manifest = RunManifest(
            run_id="campaign-feedfeedfeed", kind="campaign",
            key="feed" * 16, config={}, seed=1, engine="event",
            snapshots_total=1,
        )
        self._deny_mkstemp(monkeypatch)
        with pytest.raises(ReadOnlyStoreError, match="not writable"):
            store.save_manifest(manifest)

    def test_read_only_error_is_a_store_error(self):
        from repro.errors import ReadOnlyStoreError

        assert issubclass(ReadOnlyStoreError, StoreError)

    def test_run_stored_campaign_surfaces_read_only(
        self, tmp_path, monkeypatch
    ):
        from repro.errors import ReadOnlyStoreError

        config = LongitudinalConfig(
            seed=5, scale=0.002, snapshots=2, campaign_days=1.0
        )
        self._deny_mkstemp(monkeypatch)
        with pytest.raises(ReadOnlyStoreError, match="cannot"):
            run_stored_campaign(tmp_path / "store", config)

    def test_unrelated_oserror_passes_through(self, tmp_path, monkeypatch):
        import tempfile

        from repro.errors import ReadOnlyStoreError
        from repro.store.blobs import BlobStore

        blobs = BlobStore(tmp_path / "store")

        def explode(*args, **kwargs):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", explode)
        with pytest.raises(OSError) as excinfo:
            blobs.put(b"payload")
        assert not isinstance(excinfo.value, ReadOnlyStoreError)
        assert excinfo.value.errno == errno.ENOSPC
