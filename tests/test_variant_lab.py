"""The §V protocol-variant lab and its run-store identity guarantees.

Covers the cross-product driver (`repro.core.variant_experiments`), the
cache-collision guard the registry refactor promises — distinct
variants/params can never share a run key, and every legacy boolean
spelling keys identically to its canonical variant, on both the store
and serve paths — plus the light-tier behaviors the ``unreachable-relay``
variant switches on: assist endpoints keep riding the no-cancel fast
lane, and a mixed-tier world snapshots/restores mid-run without drift.
Kill-and-resume of stored matrices is pinned with the other stored kinds
in ``tests/test_store.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bitcoin import NodeConfig, PolicyConfig
from repro.core import (
    CampaignConfig,
    SyncCampaignConfig,
    run_variant_matrix,
    run_stored_variant_matrix,
    variant_matrix_key,
)
from repro.core.variant_experiments import normalize_variants
from repro.errors import ConfigurationError
from repro.netmodel import LongitudinalConfig, ProtocolConfig, ProtocolScenario
from repro.serve.submission import parse_submission
from repro.simnet import Simulator
from repro.store.campaign import campaign_key


def tiny_campaign(seed: int = 7) -> SyncCampaignConfig:
    return SyncCampaignConfig(
        n_reachable=12,
        fidelity="hybrid",
        duration=600.0,
        warmup=300.0,
        pre_mined_blocks=40,
        sample_period=150.0,
        poll_spread=100.0,
        seed=seed,
    )


_IMPROVED_LEGACY = dict(
    addr_from_tried_only=True,
    tried_horizon_days=17,
    prioritize_block_relay=True,
)


# ---------------------------------------------------------------------------
# The matrix driver
# ---------------------------------------------------------------------------


class TestVariantMatrix:
    def test_axes_validation(self):
        with pytest.raises(ConfigurationError):
            normalize_variants([])
        with pytest.raises(ValueError):
            normalize_variants(["no-such-variant"])
        with pytest.raises(ConfigurationError):
            run_variant_matrix(["baseline"], tiny_campaign(), churn_levels=())
        with pytest.raises(ConfigurationError):
            run_variant_matrix(
                ["baseline"], tiny_campaign(), churn_levels=(-1.0,)
            )

    @pytest.mark.slow
    def test_cross_product_and_retention(self):
        result = run_variant_matrix(
            ["baseline", "improved"],
            tiny_campaign(),
            churn_levels=(2.0, 6.0),
            fidelities=("hybrid",),
            seeds=[7],
            workers=1,
        )
        assert len(result.cells) == 4
        # Deterministic cell order: variant -> churn -> fault -> fidelity.
        assert [
            (cell.variant_label, cell.churn_per_10min) for cell in result.cells
        ] == [
            ("baseline", 2.0),
            ("baseline", 6.0),
            ("tried-only+17d+block-prio", 2.0),
            ("tried-only+17d+block-prio", 6.0),
        ]
        table = result.retention_table()
        assert len(table) == 2
        for row in table:
            assert set(row["mean_sync"]) == {"2", "6"}
            assert row["retention"] is not None
        # Same invocation replays bit-identically.
        again = run_variant_matrix(
            ["baseline", "improved"],
            tiny_campaign(),
            churn_levels=(2.0, 6.0),
            fidelities=("hybrid",),
            seeds=[7],
            workers=1,
        )
        assert again.retention_table() == table
        assert [
            cell.sweep.per_seed[0].sync_samples for cell in again.cells
        ] == [cell.sweep.per_seed[0].sync_samples for cell in result.cells]

    @pytest.mark.slow
    def test_stored_matrix_caches_by_key(self, tmp_path):
        base = tiny_campaign()
        first = run_stored_variant_matrix(
            tmp_path / "store",
            ["baseline"],
            base,
            churn_levels=(2.0,),
            fidelities=("hybrid",),
            seeds=[7],
            workers=1,
        )
        assert not first.cached
        second = run_stored_variant_matrix(
            tmp_path / "store",
            ["baseline"],
            base,
            churn_levels=(2.0,),
            fidelities=("hybrid",),
            seeds=[7],
            workers=1,
        )
        assert second.cached
        assert second.manifest.run_id == first.manifest.run_id
        assert (
            second.result.retention_table() == first.result.retention_table()
        )


# ---------------------------------------------------------------------------
# Cache-collision guard: variant identity in run keys
# ---------------------------------------------------------------------------


class TestRunKeyIdentity:
    def test_matrix_key_separates_axes(self):
        base = tiny_campaign()

        def key(variants, churn=(2.0, 6.0), seeds=(7,)):
            return variant_matrix_key(
                base,
                normalize_variants(variants),
                churn,
                [None],
                ["hybrid"],
                list(seeds),
            )

        baseline = key(["baseline"])
        assert baseline != key(["improved"])
        assert baseline != key(["baseline", "improved"])
        assert baseline != key(["baseline"], churn=(2.0, 8.0))
        assert baseline != key(["baseline"], seeds=(8,))
        assert key(["unreachable-relay"]) != key(
            [
                PolicyConfig(
                    variant="unreachable-relay",
                    params={"assist_fraction": 0.5},
                )
            ]
        )
        # Legacy boolean spelling keys identically to its variant.
        assert key(["improved"]) == key([PolicyConfig(**_IMPROVED_LEGACY)])

    def test_campaign_key_carries_variant_identity(self):
        def key(policies):
            return campaign_key(
                LongitudinalConfig(scale=0.004, seed=5, policies=policies),
                CampaignConfig(),
            )

        keys = {
            key(None),
            key(PolicyConfig()),
            key(PolicyConfig(variant="improved")),
            key(PolicyConfig(variant="unreachable-relay")),
            key(
                PolicyConfig(
                    variant="unreachable-relay",
                    params={"assist_fraction": 0.5},
                )
            ),
        }
        assert len(keys) == 5
        assert key(PolicyConfig(**_IMPROVED_LEGACY)) == key(
            PolicyConfig(variant="improved")
        )

    def test_serve_submission_keys_carry_variant_identity(self):
        def keys(policies):
            spec = parse_submission(
                {
                    "scenario": {
                        "scale": 0.004,
                        "snapshots": 2,
                        "policies": policies,
                    },
                    "seeds": [1, 2],
                }
            )
            return [plan.key for plan in spec.plans]

        improved = keys({"variant": "improved"})
        assert improved == keys(dict(_IMPROVED_LEGACY))
        assert set(improved).isdisjoint(keys({"variant": "unreachable-relay"}))
        assert set(keys({"variant": "unreachable-relay"})).isdisjoint(
            keys(
                {
                    "variant": "unreachable-relay",
                    "params": {"assist_fraction": 0.5},
                }
            )
        )

    def test_serve_rejects_unknown_variant_as_configuration_error(self):
        with pytest.raises(ConfigurationError, match="policies"):
            parse_submission(
                {"scenario": {"policies": {"variant": "no-such-variant"}}}
            )


# ---------------------------------------------------------------------------
# unreachable-relay: the light tier keeps its fast-lane contract
# ---------------------------------------------------------------------------

_ASSIST_ALL = {"assist_fraction": 1.0}


def _assist_figures():
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=23,
            n_reachable=10,
            fidelity="hybrid",
            churn_per_10min=2.0,
            pre_mined_blocks=5,
            tx_rate=0.05,
            node_config=NodeConfig(
                policies=PolicyConfig(
                    variant="unreachable-relay", params=_ASSIST_ALL
                )
            ),
        )
    )
    scenario.start(warmup=120.0)
    events = int(scenario.sim.run_for(600.0))
    relaying = sum(
        1
        for node in scenario.light_cloud.nodes.values()
        if getattr(node, "_relay", None)
    )
    return scenario, (
        events,
        scenario.sim.now,
        tuple(node.chain.height for node in scenario.nodes),
        scenario.sync_fraction(),
        relaying,
    )


def test_assist_tier_rides_fast_lane(monkeypatch):
    """The no-cancel lane must carry assist traffic unchanged.

    The lane moves *where* light-tier events are stored, never *when*
    they fire — so the assist variant must produce identical figures
    with the fast path on and off, while actually relaying (non-empty
    relay caches prove the hot branch ran).
    """
    monkeypatch.setenv("REPRO_FAST_PATH", "1")
    fast_scenario, fast = _assist_figures()
    assert fast_scenario.sim.network.fast_path is True
    monkeypatch.setenv("REPRO_FAST_PATH", "0")
    slow_scenario, slow = _assist_figures()
    assert slow_scenario.sim.network.fast_path is False
    assert fast == slow
    assert fast[-1] > 0  # some assist endpoints cached and re-announced txs


def test_mixed_tier_snapshot_restore_under_assist():
    """Snapshot a mixed full/assist-light world mid-run; the restored
    sim must replay digest-identically (same events, clock, figures)."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            seed=17,
            n_reachable=8,
            fidelity="hybrid",
            churn_per_10min=2.0,
            pre_mined_blocks=3,
            tx_rate=0.05,
            node_config=NodeConfig(
                policies=PolicyConfig(
                    variant="unreachable-relay", params=_ASSIST_ALL
                )
            ),
        )
    )
    scenario.start(warmup=60.0)
    scenario.sim.run_for(200.0)
    blob = scenario.sim.snapshot()
    restored = Simulator.restore(blob)
    assert restored.network.tier_census() == scenario.sim.network.tier_census()

    def digest(sim):
        figures = (
            int(sim.run_for(300.0)),
            sim.now,
            sim.network.tier_census(),
            sim.network.messages_delivered,
        )
        return hashlib.sha256(repr(figures).encode()).hexdigest()

    assert digest(scenario.sim) == digest(restored)
