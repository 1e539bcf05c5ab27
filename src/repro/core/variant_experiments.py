"""The protocol-variant lab: variant × churn × fault × fidelity.

The paper's §V evaluates three refinements against the deteriorating
network it measured; the policy registry (:mod:`repro.bitcoin.policy`)
generalizes those refinements into named variants, and this module runs
the cross-product the ROADMAP calls the protocol-variant lab: every
registered variant of interest under every churn level, fault plan,
and fidelity tier, as one supervised multi-seed campaign matrix.

The headline metric is **sync-fraction retention**: the mean Fig.-1
sync percentage at the *highest* churn level divided by the mean at the
*lowest*, per (variant, fault plan, fidelity) group.  A variant that
holds retention near 1.0 keeps the network synchronized under the
churn the paper identifies as the root cause of deterioration.

Persistence goes through the run store's stored-run primitive
(:func:`~repro.store.campaign.run_stored_steps`), one cell per step:
:func:`run_stored_variant_matrix` keys the whole matrix by content hash
(campaign config, the *canonical* policy configs, the axes, the seeds,
the engine), checkpoints the partial result after every cell, resumes a
killed matrix from the last completed cell, and returns a cached result
for a completed key without simulating.  Variant identity reaches the
key through ``config_to_dict`` of each
:class:`~repro.bitcoin.config.PolicyConfig`, so distinct variants/params
can never collide and every legacy-boolean spelling keys identically to
its canonical variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only; store imports are lazy
    from ..store.campaign import StoredRun
    from ..store.runstore import RunStore

from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..simnet.simulator import resolve_engine
from .parallel import SyncSweepResult, run_sync_groups, seed_range
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

__all__ = [
    "DEFAULT_CHURN_LEVELS",
    "DEFAULT_VARIANTS",
    "KIND_VARIANT_MATRIX",
    "VariantCell",
    "VariantMatrixResult",
    "normalize_variants",
    "run_stored_variant_matrix",
    "run_variant_matrix",
    "variant_matrix_key",
]

#: Default variant axis: the §V pair plus the two PAPERS.md variants.
DEFAULT_VARIANTS = (
    "baseline",
    "improved",
    "unreachable-relay",
    "churn-resilient",
)

#: Default churn axis: the compressed 2019-like and 2020-like rates the
#: Fig. 1 reproduction uses (departures per 10 minutes).
DEFAULT_CHURN_LEVELS = (5.0, 15.0)

KIND_VARIANT_MATRIX = "variant-matrix"


def normalize_variants(
    variants: Sequence[Union[str, PolicyConfig]],
) -> List[PolicyConfig]:
    """Accept variant names and/or configs; return canonical configs.

    Construction canonicalizes (and validates) eagerly, so an unknown
    variant name fails here, before any cell runs.
    """
    if not variants:
        raise ConfigurationError("need at least one policy variant")
    normalized: List[PolicyConfig] = []
    for variant in variants:
        if isinstance(variant, PolicyConfig):
            normalized.append(variant)
        else:
            normalized.append(PolicyConfig(variant=variant))
    return normalized


def _fault_label(plan: Optional[FaultPlan], index: int) -> str:
    if plan is None:
        return "none"
    names = sorted({spec.kind for spec in plan.faults})
    tag = "+".join(names) if names else "empty"
    return f"plan{index}:{tag}"


@dataclass
class VariantCell:
    """One matrix cell: a policy variant under one condition, swept."""

    policies: PolicyConfig
    churn_per_10min: float
    fidelity: str
    fault_label: str
    sweep: SyncSweepResult

    @property
    def variant_label(self) -> str:
        return self.policies.label()

    @property
    def mean_sync(self) -> float:
        return self.sweep.mean


@dataclass
class VariantMatrixResult:
    """The full cross-product, cell by cell in axis order."""

    variants: List[PolicyConfig]
    churn_levels: List[float]
    fault_labels: List[str]
    fidelities: List[str]
    cells: List[VariantCell] = field(default_factory=list)

    def cell(
        self,
        policies: PolicyConfig,
        churn: float,
        fault_label: str,
        fidelity: str,
    ) -> Optional[VariantCell]:
        for candidate in self.cells:
            if (
                candidate.policies == policies
                and candidate.churn_per_10min == churn
                and candidate.fault_label == fault_label
                and candidate.fidelity == fidelity
            ):
                return candidate
        return None

    def retention_table(self) -> List[dict]:
        """Sync retention per (variant, fault plan, fidelity) group.

        One row per group: the mean sync at every churn level plus the
        retention ratio (mean at the highest level / mean at the
        lowest).  Groups whose axis has a single churn level report a
        retention of ``None``.
        """
        low = min(self.churn_levels)
        high = max(self.churn_levels)
        rows: List[dict] = []
        for policies in self.variants:
            for fault_label in self.fault_labels:
                for fidelity in self.fidelities:
                    by_churn: Dict[float, float] = {}
                    for churn in self.churn_levels:
                        found = self.cell(
                            policies, churn, fault_label, fidelity
                        )
                        if found is not None and found.sweep.seeds:
                            by_churn[churn] = found.mean_sync
                    if not by_churn:
                        continue
                    retention: Optional[float] = None
                    if (
                        high > low
                        and low in by_churn
                        and high in by_churn
                        and by_churn[low] > 0
                    ):
                        retention = by_churn[high] / by_churn[low]
                    rows.append(
                        {
                            "variant": policies.label(),
                            "faults": fault_label,
                            "fidelity": fidelity,
                            "mean_sync": {
                                f"{churn:g}": by_churn.get(churn)
                                for churn in self.churn_levels
                            },
                            "retention": retention,
                        }
                    )
        return rows


class _Matrix:
    """One matrix invocation, validated: its axes, cells and seeds."""

    def __init__(
        self,
        variants: Sequence[Union[str, PolicyConfig]],
        base: Optional[SyncCampaignConfig],
        churn_levels: Sequence[float],
        fault_plans: Sequence[Optional[FaultPlan]],
        fidelities: Sequence[str],
        seeds: Optional[Sequence[int]],
        workers: Optional[int],
        supervisor: Optional[SupervisorConfig],
    ) -> None:
        self.policies = normalize_variants(variants)
        if not churn_levels:
            raise ConfigurationError("need at least one churn level")
        if any(level < 0 for level in churn_levels):
            raise ConfigurationError(
                f"churn levels must be >= 0, got {list(churn_levels)}"
            )
        if not fidelities:
            raise ConfigurationError("need at least one fidelity")
        self.plans = list(fault_plans) if fault_plans else [None]
        for plan in self.plans:
            if plan is not None:
                plan.validate()
        self.churns = [float(level) for level in churn_levels]
        self.fidelities = list(fidelities)
        self.fault_labels = [
            _fault_label(plan, index) for index, plan in enumerate(self.plans)
        ]
        self.base = base if base is not None else SyncCampaignConfig()
        self.seeds = (
            list(seeds) if seeds is not None else seed_range(self.base.seed, 3)
        )
        self.workers = workers
        self.supervisor = supervisor
        # The deterministic cell order: variant → churn → fault → fidelity.
        self.cells = [
            (policies, churn, plan, fault_label, fidelity)
            for policies in self.policies
            for churn in self.churns
            for plan, fault_label in zip(self.plans, self.fault_labels)
            for fidelity in self.fidelities
        ]

    @property
    def axes(self) -> Tuple[List[PolicyConfig], List[float], List[Optional[FaultPlan]], List[str]]:
        return self.policies, self.churns, self.plans, self.fidelities

    def empty(self) -> VariantMatrixResult:
        return VariantMatrixResult(
            variants=self.policies,
            churn_levels=self.churns,
            fault_labels=self.fault_labels,
            fidelities=self.fidelities,
        )

    def step(self, result: VariantMatrixResult, index: int):
        """Run cell ``index`` onto ``result``; its axis position is the index."""
        policies, churn, plan, fault_label, fidelity = self.cells[index]
        cell_base = replace(
            self.base,
            policies=policies,
            churn_per_10min=churn,
            faults=plan,
            fidelity=fidelity,
        )
        group = [replace(cell_base, seed=seed) for seed in self.seeds]
        result.cells.append(
            VariantCell(
                policies=policies,
                churn_per_10min=churn,
                fidelity=fidelity,
                fault_label=fault_label,
                sweep=run_sync_groups([group], self.workers, self.supervisor)[0],
            )
        )
        return float(index), None


def run_variant_matrix(
    variants: Sequence[Union[str, PolicyConfig]] = DEFAULT_VARIANTS,
    base: Optional[SyncCampaignConfig] = None,
    churn_levels: Sequence[float] = DEFAULT_CHURN_LEVELS,
    fault_plans: Sequence[Optional[FaultPlan]] = (None,),
    fidelities: Sequence[str] = ("full",),
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> VariantMatrixResult:
    """Run the cross-product unstored (tests, small matrices)."""
    matrix = _Matrix(
        variants, base, churn_levels, fault_plans, fidelities, seeds,
        workers, supervisor,
    )
    result = matrix.empty()
    for index in range(len(matrix.cells)):
        matrix.step(result, index)
    return result


# ---------------------------------------------------------------------------
# Stored matrices: caching, cell-wise checkpoints, crash-resume
# ---------------------------------------------------------------------------


def variant_matrix_key(
    base: SyncCampaignConfig,
    variants: Sequence[PolicyConfig],
    churn_levels: Sequence[float],
    fault_plans: Sequence[Optional[FaultPlan]],
    fidelities: Sequence[str],
    seeds: Sequence[int],
) -> str:
    """The run key for a variant-matrix invocation.

    Policy identity enters through ``config_to_dict`` of each canonical
    :class:`PolicyConfig` — ``(variant, params)`` — so two spellings of
    the same behavior share a key and different parameters never do.
    """
    from ..store.manifest import run_key

    return run_key(
        KIND_VARIANT_MATRIX,
        _matrix_config_dict(
            base, variants, churn_levels, fault_plans, fidelities, seeds
        ),
        seed=base.seed,
        engine=resolve_engine(None),
        snapshots_total=len(variants)
        * len(churn_levels)
        * max(1, len(fault_plans))
        * len(fidelities),
    )


def _matrix_config_dict(
    base: SyncCampaignConfig,
    variants: Sequence[PolicyConfig],
    churn_levels: Sequence[float],
    fault_plans: Sequence[Optional[FaultPlan]],
    fidelities: Sequence[str],
    seeds: Sequence[int],
) -> dict:
    from ..store.manifest import config_to_dict

    return {
        "campaign": config_to_dict(base),
        "variants": [config_to_dict(config) for config in variants],
        "churn_levels": [float(level) for level in churn_levels],
        "faults": [
            plan.to_dict() if plan is not None else None
            for plan in fault_plans
        ],
        "fidelities": list(fidelities),
        "seeds": [int(seed) for seed in seeds],
    }


def run_stored_variant_matrix(
    store: Union["RunStore", str],
    variants: Sequence[Union[str, PolicyConfig]] = DEFAULT_VARIANTS,
    base: Optional[SyncCampaignConfig] = None,
    churn_levels: Sequence[float] = DEFAULT_CHURN_LEVELS,
    fault_plans: Sequence[Optional[FaultPlan]] = (None,),
    fidelities: Sequence[str] = ("full",),
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    resume: Optional[str] = None,
    force: bool = False,
) -> "StoredRun":
    """Run (or resume, or fetch) a variant matrix through the run store.

    Each cell is one step of
    :func:`~repro.store.campaign.run_stored_steps`: the partial result is
    checkpointed after every cell, re-invoking with the same arguments
    against the same store resumes from the last completed cell, and a
    complete key returns the cached result without simulating.
    ``resume`` names an existing run id and fails loudly on config
    drift; ``force=True`` re-executes a complete run.
    """
    from ..store.campaign import StoredKind, run_stored_steps

    matrix = _Matrix(
        variants, base, churn_levels, fault_plans, fidelities, seeds,
        workers, supervisor,
    )
    kind = StoredKind.partial_result(
        KIND_VARIANT_MATRIX, VariantMatrixResult, lambda result: len(result.cells)
    )
    return run_stored_steps(
        store,
        kind,
        variant_matrix_key(matrix.base, *matrix.axes, matrix.seeds),
        _matrix_config_dict(matrix.base, *matrix.axes, matrix.seeds),
        len(matrix.cells),
        matrix.step,
        start=matrix.empty,
        seed=matrix.base.seed,
        engine=resolve_engine(None),
        resume=resume,
        force=force,
    )
