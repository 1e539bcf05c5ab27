"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They cover the tracer's patch/restore and self-time bookkeeping, the
coverage check that catches a wrapper installed too late, fingerprint
determinism, a reduced-size run of every workload in both modes, and
the agreement between ``BENCHMARK.json`` and the code.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers
from perfbench import run as bench
from perfbench.hostspeed import NOMINAL_PIECE_S, HostProbe, scaled
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, GossipStorm, fingerprint

ROOT = bench.ROOT


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class _Base:
    def inherited(self, x):
        return x + 1


class _Toy(_Base):
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i * 2


def test_patch_and_restore_put_back_own_and_inherited_attributes():
    own = vars(_Toy)["outer"]
    tracer = Tracer()
    tracer.patch(_Toy, "outer", lambda fn: tracer.span("toy.outer", fn))
    tracer.patch(_Toy, "inherited", lambda fn: tracer.counter("toy.inherited", fn))
    assert tracer.patch(_Toy, "no_such_method", lambda fn: fn) is False
    assert tracer.missing == ["_Toy.no_such_method"]

    toy = _Toy()
    assert toy.outer(3) == 6
    assert toy.inherited(1) == 2
    assert tracer.stats["toy.outer"].calls == 1
    assert tracer.stats["toy.inherited"].calls == 1
    assert _Toy.outer.__name__ == "outer"  # pickles like the original

    tracer.restore()
    assert vars(_Toy)["outer"] is own
    assert "inherited" not in vars(_Toy)  # not copied down from the base
    assert _Toy.inherited is _Base.inherited
    tracer.restore()  # idempotent


def test_self_times_and_remainder_sum_to_root_wall():
    originals = dict(vars(_Toy))
    tracer = Tracer()
    with tracer:
        tracer.patch(_Toy, "outer", lambda fn: tracer.span("toy.outer", fn))
        tracer.patch(_Toy, "inner", lambda fn: tracer.span("toy.inner", fn))
        toy = _Toy()
        tracer.measure(lambda: [toy.outer(200) for _ in range(20)])
    assert dict(vars(_Toy)) == originals  # the with-block restored them
    assert tracer.stats["toy.inner"].calls == 4000
    outer = tracer.stats["toy.outer"]
    assert outer.self_s < outer.total_s  # the inner spans were subtracted
    assert layers.self_time_total(tracer) == pytest.approx(tracer.root_wall_s, abs=1e-9)
    assert tracer.other_self_s >= 0.0


def test_layers_install_restores_every_attribute():
    from repro.bitcoin import node
    from repro.simnet import events, transport
    from repro.store import campaign

    before = {
        owner: dict(vars(owner))
        for owner in (events.Scheduler, transport.Network, node.BitcoinNode, campaign)
    }
    tracer = Tracer()
    layers.install(tracer)
    assert tracer.missing == []
    assert campaign.dump_checkpoint is not before[campaign]["dump_checkpoint"]
    tracer.restore()
    for owner, attrs in before.items():
        assert dict(vars(owner)) == attrs


def _smoke_counts(install_first: bool) -> Tracer:
    workload = GossipStorm("smoke")
    tracer = Tracer()
    try:
        if install_first:
            layers.install(tracer)
        state = workload.prepare(3, "")
        if not install_first:
            layers.install(tracer)
        before = workload.counters_before(state)
        raw = tracer.measure(lambda: workload.measure(state))
    finally:
        tracer.restore()
    layers.check_coverage(tracer, before, workload.conclude(raw).counters)
    return tracer


def test_coverage_check_passes_when_installed_before_the_build():
    assert _smoke_counts(install_first=True).gaps == []


def test_coverage_check_reports_wrappers_installed_after_the_build():
    # The simulator caches the scheduler's bound methods when it is
    # built, so counters patched afterwards miss those calls.
    gaps = _smoke_counts(install_first=False).gaps
    assert any(name.startswith("events.lane") for name, _, _ in gaps)


def test_send_bypass_is_reported_not_read_as_zero():
    tracer = _smoke_counts(install_first=True)
    counters = {key: 0 for key in layers.program_counters([])}
    values = layers.metrics(tracer, counters, counters, 1.0)
    # The handler's send phase inlines Socket.send, so nearly every
    # delivery bypasses the Socket.send wrapper — and the metric says so.
    assert values["transport.deliver.calls"] > 0
    assert values["transport.send_bypass_share"] > 0.5


def test_checkpoints_written_while_traced_are_byte_identical(tmp_path):
    from perfbench.workloads import StoredCampaign

    workload = StoredCampaign("smoke")

    def digests(raw):
        manifest = raw["stored"].manifest
        return (
            [record.digest for record in manifest.snapshots],
            manifest.checkpoint.digest,
            manifest.result_digest,
        )

    untraced = workload.measure(workload.prepare(2, str(tmp_path)))
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        state = workload.prepare(2, str(tmp_path))
        traced = tracer.measure(lambda: workload.measure(state))
    assert tracer.stats["checkpoint.dump"].calls > 0
    assert digests(traced) == digests(untraced)


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_scaled_time_is_at_the_nominal_piece_speed():
    # Pieces that ran at twice the nominal time halve the measured time.
    pieces = [2 * NOMINAL_PIECE_S] * 3 + [9.0]
    assert scaled(3.0, pieces) == pytest.approx(1.5)
    assert scaled(3.0, [NOMINAL_PIECE_S]) == pytest.approx(3.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probe_points_keep_figures_and_repeat_per_seed(name, tmp_path):
    from repro.simnet import events
    from repro.store import campaign

    workload = WORKLOADS[name]("smoke")
    plain, _ = bench.run_unit(workload, 7, str(tmp_path))
    originals = (vars(events.Scheduler)["run_until"], campaign.dump_checkpoint)
    with HostProbe() as probe:
        first, _ = bench.run_unit(workload, 7, str(tmp_path), probe=probe)
        again, _ = bench.run_unit(workload, 7, str(tmp_path), probe=probe)
    assert (vars(events.Scheduler)["run_until"], campaign.dump_checkpoint) == originals
    assert first.fingerprint == again.fingerprint == plain.fingerprint
    assert len(first.pieces_s) == len(again.pieces_s) >= 2
    assert plain.pieces_s == []


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_canonical():
    assert fingerprint({"a": 1, "b": [0.1, 2]}) == fingerprint({"b": [0.1, 2], "a": 1})
    assert fingerprint({"a": 0.1}) != fingerprint({"a": 0.1000000000000001})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_fingerprint(name, tmp_path):
    workload = WORKLOADS[name]("smoke")
    first, _ = bench.run_unit(workload, 7, str(tmp_path))
    again, _ = bench.run_unit(workload, 7, str(tmp_path))
    assert first.fingerprint == again.fingerprint
    assert all(first.checks.values())
    other, _ = bench.run_unit(workload, 8, str(tmp_path))
    assert other.fingerprint != first.fingerprint


def test_pins_cover_default_and_held_out_seeds():
    pins = bench.load_pins()
    for name, cls in WORKLOADS.items():
        assert set(pins[name]) == {str(cls.default_seed), str(cls.held_out_seed)}


# ----------------------------------------------------------------------
# Whole runs at smoke size
# ----------------------------------------------------------------------
def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(name, trace, capsys):
    code = bench.main([
        "--workload", name, "--seed", "4", "--seconds", "0",
        "--trace", str(trace), "--size", "smoke",
    ])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.METRICS if trace else bench.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric, unit in expected.items():
        assert result["metrics"][metric]["unit"] == unit
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.coverage_gaps"] == 0
        assert values["events.dispatched"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relay_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
