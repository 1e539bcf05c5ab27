"""Synchronization degradation under adversarial attack (Fig. 8 revisit).

The paper observed a live 73-node ADDR-flooding attack and asked what it
did to network synchronization; the adversary suite (``repro.adversary``)
lets the question be answered causally: take one Fig. 1 synchronization
campaign and one :class:`~repro.adversary.plan.AttackPlan`, scale the
plan across an attacker-count axis
(:meth:`~repro.adversary.plan.AttackPlan.with_total`), run a multi-seed
sweep per count, and report mean sync % per count — count 0 is the clean
baseline, so every level's degradation is measured against the same
seeds under the same scenario.

Two persistence layers ride on top:

* :func:`run_stored_attack_sweep` runs the sweep through the run store's
  stored-run primitive (:func:`~repro.store.campaign.run_stored_steps`),
  one count level per step — the key is a content hash of (plan,
  campaign config, counts, seeds, engine), a completed key returns the
  stored result without simulating anything, and a partial run
  checkpoints after every count level so a killed sweep resumes from the
  last completed level.

* :func:`compare_mitigations` reruns the attacked campaign under a
  hardened policy variant — any name registered with
  :mod:`repro.bitcoin.policy` (default the §V ``improved`` variant) —
  and reports what the hardening buys back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only; store imports are lazy
    from ..store.campaign import StoredRun
    from ..store.runstore import RunStore

from ..adversary.plan import AttackPlan
from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError
from ..simnet.simulator import resolve_engine
from .parallel import (
    SyncSweepResult,
    degradation_table,
    run_sync_groups,
    seed_range,
)
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

#: Default attacker-count axis: clean baseline to the paper's 73 nodes.
DEFAULT_COUNTS = (0, 18, 36, 73)

KIND_ATTACK_SWEEP = "attack-sweep"


@dataclass
class AttackSweepLevel:
    """One attacker count: the scaled plan and its multi-seed sweep."""

    count: int
    plan: Optional[AttackPlan]
    sweep: SyncSweepResult

    @property
    def mean_sync(self) -> float:
        return self.sweep.mean

    @property
    def attack_stats(self) -> Dict[str, int]:
        """Summed attacker counters across the level's seeds."""
        return self.sweep.counter_totals("attack_stats")


@dataclass
class AttackSweepResult:
    """Sync-% degradation vs. attacker count (the adversarial Fig. 1)."""

    plan: AttackPlan
    levels: List[AttackSweepLevel] = field(default_factory=list)

    @property
    def counts(self) -> List[int]:
        return [level.count for level in self.levels]

    def degradation_table(self) -> List[dict]:
        """Per-level summary rows: count, mean sync, delta vs. baseline."""
        return degradation_table(
            "attackers", [(level.count, level.sweep) for level in self.levels]
        )


def _level_plan(plan: AttackPlan, count: int) -> Optional[AttackPlan]:
    """The plan scaled to ``count`` attackers; ``None`` below one."""
    if count <= 0:
        return None
    return plan.with_total(count)


def _check_counts(
    plan: AttackPlan, base: SyncCampaignConfig, counts: Sequence[int]
) -> None:
    """Validate the plan and the count axis before any level runs."""
    plan.validate()
    if not counts:
        raise ConfigurationError("need at least one attacker count")
    if any(count < 0 for count in counts):
        raise ConfigurationError(
            f"attacker counts must be >= 0, got {list(counts)}"
        )
    for count in counts:
        level = _level_plan(plan, count)
        if level is not None:
            level.validate_for(base.n_reachable)


def _run_level(
    plan: AttackPlan,
    count: int,
    base: SyncCampaignConfig,
    seeds: Sequence[int],
    workers: Optional[int],
    supervisor: Optional[SupervisorConfig],
) -> AttackSweepLevel:
    scaled = _level_plan(plan, count)
    group = [replace(base, seed=seed, attack=scaled) for seed in seeds]
    sweep = run_sync_groups([group], workers, supervisor)[0]
    return AttackSweepLevel(count=count, plan=scaled, sweep=sweep)


def run_attack_sweep(
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    counts: Sequence[int] = DEFAULT_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> AttackSweepResult:
    """Measure sync-% degradation as ``plan`` scales across counts."""
    base = base if base is not None else SyncCampaignConfig()
    _check_counts(plan, base, counts)
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    result = AttackSweepResult(plan=plan)
    for count in counts:
        result.levels.append(
            _run_level(plan, count, base, seeds, workers, supervisor)
        )
    return result


# ---------------------------------------------------------------------------
# §V mitigation comparison
# ---------------------------------------------------------------------------


@dataclass
class MitigationComparison:
    """Attacked sync under default vs. hardened (§V) node policies."""

    clean: SyncSweepResult
    attacked: SyncSweepResult
    mitigated: SyncSweepResult
    policies: PolicyConfig

    def table(self) -> List[dict]:
        """Three rows: clean baseline, attack, attack + mitigations."""
        base_mean = self.clean.mean
        rows = []
        for label, sweep in (
            ("clean", self.clean),
            ("attacked", self.attacked),
            ("mitigated", self.mitigated),
        ):
            rows.append(
                {
                    "condition": label,
                    "mean_sync": sweep.mean,
                    "median_sync": sweep.median,
                    "delta_vs_clean": sweep.mean - base_mean,
                }
            )
        return rows

    @property
    def recovered(self) -> float:
        """Sync percentage points the mitigations bought back."""
        return self.mitigated.mean - self.attacked.mean


def compare_mitigations(
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    seeds: Optional[Sequence[int]] = None,
    policies: Optional[Union[PolicyConfig, str]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> MitigationComparison:
    """Cost a policy variant's hardening against ``plan``'s attack.

    Runs the same seeds three ways in one supervised fan-out — no
    attack, attack under default policies, attack under ``policies`` —
    and reports the sync recovered by hardening.  ``policies`` may be a
    :class:`PolicyConfig` or any registered variant name
    (``repro.bitcoin.policy.variant_names()``); the default is the §V
    ``improved`` variant (tried-only ADDR, 17-day horizon, prioritized
    block relay).
    """
    base = base if base is not None else SyncCampaignConfig()
    _check_counts(plan, base, [plan.total_count])
    if policies is None:
        policies = PolicyConfig.improved()
    elif isinstance(policies, str):
        policies = PolicyConfig(variant=policies)
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    attack = _level_plan(plan, plan.total_count)
    hardened = replace(base, policies=policies)
    clean, attacked, mitigated = run_sync_groups(
        [
            [replace(config, seed=seed, attack=level) for seed in seeds]
            for config, level in ((base, None), (base, attack), (hardened, attack))
        ],
        workers,
        supervisor,
    )
    return MitigationComparison(
        clean=clean, attacked=attacked, mitigated=mitigated, policies=policies
    )


# ---------------------------------------------------------------------------
# Stored sweeps: caching, level-wise checkpoints, crash-resume
# ---------------------------------------------------------------------------


def _sweep_config(
    plan: AttackPlan,
    base: SyncCampaignConfig,
    counts: Sequence[int],
    seeds: Sequence[int],
) -> dict:
    from ..store.manifest import config_to_dict

    return {
        "plan": plan.to_dict(),
        "campaign": config_to_dict(base),
        "counts": [int(count) for count in counts],
        "seeds": [int(seed) for seed in seeds],
    }


def attack_sweep_key(
    plan: AttackPlan,
    base: SyncCampaignConfig,
    counts: Sequence[int],
    seeds: Sequence[int],
) -> str:
    """The run key for an attack-sweep invocation."""
    from ..store.manifest import run_key

    return run_key(
        KIND_ATTACK_SWEEP,
        _sweep_config(plan, base, counts, seeds),
        seed=base.seed,
        engine=resolve_engine(None),
        snapshots_total=len(counts),
    )


def run_stored_attack_sweep(
    store: Union["RunStore", str],
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    counts: Sequence[int] = DEFAULT_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    resume: Optional[str] = None,
    force: bool = False,
) -> "StoredRun":
    """Run (or resume, or fetch) an attack sweep through the run store.

    Each count level is one step of
    :func:`~repro.store.campaign.run_stored_steps`: the partial result is
    checkpointed after every level, re-invoking with the same arguments
    against the same store resumes from the last completed level, and a
    complete key returns the cached result without simulating.
    ``resume`` names an existing run id and fails loudly on config
    drift; ``force=True`` re-executes a complete run.
    """
    from ..store.campaign import StoredKind, run_stored_steps

    base = base if base is not None else SyncCampaignConfig()
    _check_counts(plan, base, counts)
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)

    def step(result: AttackSweepResult, index: int):
        count = counts[index]
        result.levels.append(
            _run_level(plan, count, base, seeds, workers, supervisor)
        )
        return float(count), None

    kind = StoredKind.partial_result(
        KIND_ATTACK_SWEEP, AttackSweepResult, lambda result: len(result.levels)
    )
    return run_stored_steps(
        store,
        kind,
        attack_sweep_key(plan, base, counts, seeds),
        _sweep_config(plan, base, counts, seeds),
        len(counts),
        step,
        start=lambda: AttackSweepResult(plan=plan),
        seed=base.seed,
        engine=resolve_engine(None),
        resume=resume,
        force=force,
    )
