"""Pluggable sampling strategies behind one registered interface.

A :class:`SamplingStrategy` turns a benchmark into measured sampling
units and an estimate.  Four strategies ship with the library:

* :class:`SystematicStrategy` — the SMARTS procedure itself: systematic
  sampling at a fixed interval with the (up to) two-step sample-size
  tuning loop of Section 5.1.
* :class:`AdaptiveStrategy` — online stopping: systematic units are
  simulated in incremental batches (progressively halving the stride)
  and sampling stops as soon as the finite-population-corrected
  confidence interval reaches the ±epsilon target.
* :class:`RandomStrategy` — simple random sampling without replacement,
  the paper's statistical baseline, with an explicit seed.
* :class:`StratifiedStrategy` — per-phase allocation: BBV phase labels
  from the SimPoint machinery (``repro.simpoint``) stratify the unit
  population, the sample is allocated proportionally across phases, and
  units are picked systematically within each stratum.  This puts
  SimPoint-style phase knowledge and SMARTS-style unit sampling behind
  the same interface.

Strategies are frozen dataclasses: hashable, comparable, and
serializable through ``to_dict`` / :func:`strategy_from_dict`, which is
what lets :class:`~repro.api.spec.RunSpec` round-trip through JSON and
act as a cache key.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

from repro.config.machines import MachineConfig
from repro.core.estimates import SmartsRunResult
from repro.core.procedure import estimate_metric, recommended_warming
from repro.core.sampling import (
    RandomSamplingPlan,
    SamplingUnit,
    StratifiedSamplingPlan,
    SystematicSamplingPlan,
)
from repro.core.smarts import SmartsEngine, run_smarts
from repro.core.stats import DEFAULT_EPSILON
from repro.isa.program import Program


@dataclass
class StrategyOutcome:
    """What a strategy produced: every sampling run plus bookkeeping."""

    runs: list[SmartsRunResult]
    tuned_sample_sizes: list[int] = field(default_factory=list)
    #: Strategy-specific extras (e.g. phase allocation for stratified).
    info: dict = field(default_factory=dict)

    @property
    def final_run(self) -> SmartsRunResult:
        if not self.runs:
            raise ValueError(
                "strategy outcome contains no sampling runs; final_run "
                "is undefined")
        return self.runs[-1]


class SamplingStrategy(ABC):
    """Interface every sampling strategy implements.

    Concrete strategies are frozen dataclasses whose fields are the
    strategy's tunable parameters; ``name`` identifies the strategy in
    the registry and in serialized RunSpecs.
    """

    name: ClassVar[str]

    @abstractmethod
    def run(
        self,
        program: Program,
        machine: MachineConfig,
        benchmark_length: int,
        *,
        metric: str = "cpi",
        epsilon: float = DEFAULT_EPSILON,
        confidence: float = 0.997,
        seed: int = 0,
        checkpoints=None,
    ) -> StrategyOutcome:
        """Execute the strategy and return every sampling run.

        ``checkpoints`` (a :class:`repro.checkpoint.CheckpointSet`) is
        threaded through to the engine: unit selection is unchanged, but
        each selected unit restores pre-warmed state instead of
        fast-forwarding, leaving estimates bit-identical.
        """

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serializable form: ``{"name": ..., "params": {...}}``.

        Fields marked ``io_only`` in their dataclass metadata are local
        execution preferences that cannot change estimates; they are
        excluded here so they never enter spec hashes, cache identity,
        or worker payloads.
        """
        params = asdict(self)
        for f in fields(self):
            if f.metadata.get("io_only"):
                params.pop(f.name, None)
        return {"name": self.name, "params": params}

    @classmethod
    def from_params(cls, params: dict) -> "SamplingStrategy":
        known = {f.name for f in fields(cls)}
        unknown = set(params) - known
        if unknown:
            raise ValueError(
                f"unknown parameters for strategy {cls.name!r}: {sorted(unknown)}")
        return cls(**params)

    def effective_warming(self, machine: MachineConfig) -> int:
        """The detailed-warming length W this strategy will use."""
        warming = getattr(self, "detailed_warming", None)
        return recommended_warming(machine) if warming is None else warming


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
STRATEGIES: dict[str, type[SamplingStrategy]] = {}


def register_strategy(cls: type[SamplingStrategy]) -> type[SamplingStrategy]:
    """Class decorator adding a strategy to the global registry."""
    if not getattr(cls, "name", None):
        raise ValueError(f"strategy {cls.__name__} must define a name")
    existing = STRATEGIES.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"strategy name {cls.name!r} already registered")
    STRATEGIES[cls.name] = cls
    return cls


def get_strategy(name: str) -> type[SamplingStrategy]:
    """Look up a strategy class by its registered name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None


def strategy_from_dict(data: dict) -> SamplingStrategy:
    """Rebuild a strategy from its ``to_dict`` payload."""
    return get_strategy(data["name"]).from_params(dict(data.get("params", {})))


# ----------------------------------------------------------------------
# Systematic (SMARTS)
# ----------------------------------------------------------------------
@register_strategy
@dataclass(frozen=True)
class SystematicStrategy(SamplingStrategy):
    """The SMARTS procedure: systematic sampling with n-tuning.

    ``detailed_warming=None`` defers to the machine's recommended W.
    ``max_rounds`` bounds the sample-size tuning loop (the paper shows
    two rounds suffice).
    """

    name: ClassVar[str] = "systematic"

    unit_size: int = 50
    n_init: int = 300
    max_rounds: int = 2
    offset: int = 0
    detailed_warming: int | None = None
    functional_warming: bool = True

    def run(self, program, machine, benchmark_length, *, metric="cpi",
            epsilon=DEFAULT_EPSILON, confidence=0.997, seed=0,
            checkpoints=None) -> StrategyOutcome:
        procedure = estimate_metric(
            program, machine,
            metric=metric,
            unit_size=self.unit_size,
            detailed_warming=self.effective_warming(machine),
            functional_warming=self.functional_warming,
            epsilon=epsilon,
            confidence=confidence,
            n_init=self.n_init,
            max_rounds=self.max_rounds,
            offset=self.offset,
            benchmark_length=benchmark_length,
            checkpoints=checkpoints,
        )
        return StrategyOutcome(
            runs=list(procedure.runs),
            tuned_sample_sizes=list(procedure.tuned_sample_sizes),
        )


# ----------------------------------------------------------------------
# Adaptive (run to target CI)
# ----------------------------------------------------------------------
@register_strategy
@dataclass(frozen=True)
class AdaptiveStrategy(SamplingStrategy):
    """Online stopping: simulate units in batches until the CI hits ±ε.

    Where :class:`SystematicStrategy` fixes the sample size up front
    (re-running once if the first guess was too small), this strategy
    drives a resumable :class:`~repro.core.smarts.MeasurementSession`
    and re-checks the finite-population-corrected confidence interval
    after every batch — easy benchmarks stop after ``n_min`` units, hard
    ones keep refining.

    Unit selection is *progressive systematic refinement*: the initial
    batch is a systematic sample at the largest power-of-two stride that
    still yields at least ``n_min`` units; each subsequent level halves
    the stride by interleaving the odd multiples of the new stride, so
    the cumulative sample is always a systematic sample (mid-level: a
    near-systematic one) and the whole sequence is a pure function of
    the population size — the same RunSpec replays identically.

    Guards: sampling never stops before ``n_min`` measured units, never
    requests more than ``n_max`` (``None`` = no cap beyond the
    population itself), and ``batch_size`` bounds how many units are
    simulated between CI checks.
    """

    name: ClassVar[str] = "adaptive"

    unit_size: int = 50
    n_min: int = 30
    n_max: int | None = None
    batch_size: int = 100
    detailed_warming: int | None = None
    functional_warming: bool = True

    def __post_init__(self) -> None:
        if self.unit_size <= 0:
            raise ValueError("unit_size must be positive")
        if self.n_min < 2:
            raise ValueError("n_min must be at least 2 (a CI needs variance)")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.n_max is not None and self.n_max < self.n_min:
            raise ValueError("n_max must be at least n_min")

    def _refinement_levels(self, population: int):
        """Yield ``(stride, new_indices)`` per refinement level.

        Level 0 is the coarsest power-of-two stride whose systematic
        sample still has at least ``n_min`` units; level t adds the odd
        multiples of ``stride / 2**t``.  The union after any level is
        exactly the systematic sample at that level's stride.
        """
        stride = 1
        while -(-population // (2 * stride)) >= self.n_min:
            stride *= 2
        yield stride, list(range(0, population, stride))
        while stride > 1:
            stride //= 2
            yield stride, list(range(stride, population, 2 * stride))

    def _batches(self, indices: list[int]):
        """Split a level into near-uniform interleaved sub-batches."""
        count = len(indices)
        sub_batches = -(-count // self.batch_size)
        for s in range(sub_batches):
            yield indices[s::sub_batches]

    def run(self, program, machine, benchmark_length, *, metric="cpi",
            epsilon=DEFAULT_EPSILON, confidence=0.997, seed=0,
            checkpoints=None) -> StrategyOutcome:
        if metric not in ("cpi", "epi"):
            raise ValueError("metric must be 'cpi' or 'epi'")
        engine = SmartsEngine(machine=machine,
                              measure_energy=(metric == "epi"),
                              checkpoints=checkpoints)
        session = engine.start(
            program, benchmark_length,
            unit_size=self.unit_size,
            detailed_warming=self.effective_warming(machine),
            functional_warming=self.functional_warming,
        )
        population = session.population_size
        if population <= 0:
            raise ValueError("benchmark shorter than one sampling unit")
        n_cap = (population if self.n_max is None
                 else min(self.n_max, population))

        unit = self.unit_size
        trajectory: list[dict] = []
        stopping = "census"
        achieved_ci = float("inf")
        requested = 0
        stride = 1
        stop = False
        for stride, level_indices in self._refinement_levels(population):
            for batch in self._batches(level_indices):
                batch = batch[:n_cap - requested]
                if not batch:
                    continue
                requested += len(batch)
                session.extend(
                    SamplingUnit(index=i, start=i * unit, size=unit)
                    for i in batch)
                run = session.result(interval=stride, offset=0)
                estimate = run.cpi if metric == "cpi" else run.epi
                achieved_ci = (estimate.corrected_confidence_interval(confidence)
                               if run.sample_size else float("inf"))
                trajectory.append({
                    "stride": stride,
                    "n": run.sample_size,
                    "ci": achieved_ci,
                })
                if run.sample_size >= self.n_min and achieved_ci <= epsilon:
                    stopping, stop = "target", True
                    break
                if requested >= n_cap:
                    stopping = "census" if n_cap >= population else "n_max"
                    stop = True
                    break
            if stop:
                break

        final = session.result(interval=stride, offset=0)
        return StrategyOutcome(
            runs=[final],
            info={
                "stopping": stopping,
                "achieved_ci": achieved_ci,
                "batches": trajectory,
                "population": population,
            },
        )


# ----------------------------------------------------------------------
# Random
# ----------------------------------------------------------------------
@register_strategy
@dataclass(frozen=True)
class RandomStrategy(SamplingStrategy):
    """Simple random sampling of ``sample_size`` units, seeded explicitly.

    The selection seed is ``seed + seed_offset`` where ``seed`` comes
    from the RunSpec, so sweeps over seeds reproduce by construction.
    """

    name: ClassVar[str] = "random"

    unit_size: int = 50
    sample_size: int = 300
    seed_offset: int = 0
    detailed_warming: int | None = None
    functional_warming: bool = True

    def run(self, program, machine, benchmark_length, *, metric="cpi",
            epsilon=DEFAULT_EPSILON, confidence=0.997, seed=0,
            checkpoints=None) -> StrategyOutcome:
        plan = RandomSamplingPlan(
            unit_size=self.unit_size,
            sample_size=self.sample_size,
            seed=seed + self.seed_offset,
            detailed_warming=self.effective_warming(machine),
            functional_warming=self.functional_warming,
        )
        run = run_smarts(program, machine, plan, benchmark_length,
                         measure_energy=(metric == "epi"),
                         checkpoints=checkpoints)
        return StrategyOutcome(runs=[run], info={"plan_seed": plan.seed})


# ----------------------------------------------------------------------
# Stratified (BBV phases)
# ----------------------------------------------------------------------
@register_strategy
@dataclass(frozen=True)
class StratifiedStrategy(SamplingStrategy):
    """Phase-stratified sampling using BBV cluster labels.

    The benchmark is profiled into basic block vectors at a granularity
    of ``units_per_interval`` sampling units per interval, the intervals
    are clustered into at most ``max_phases`` phases (the SimPoint
    machinery), and the total ``sample_size`` is allocated across phases
    proportionally to their unit populations (largest-remainder method).
    Within each phase the allocated units are picked systematically, so
    the whole design is deterministic given the RunSpec seed.
    """

    name: ClassVar[str] = "stratified"

    unit_size: int = 50
    sample_size: int = 300
    units_per_interval: int = 20
    max_phases: int = 6
    detailed_warming: int | None = None
    functional_warming: bool = True
    #: Persist the BBV profile in the checkpoint store; disable for
    #: fully in-memory (no-disk-side-effect) operation.  I/O-only: it
    #: cannot change estimates, so it is excluded from spec hashes and
    #: equality — and, being process-local, it is not shipped to pool
    #: workers (parallel batches use the default).
    profile_cache: bool = field(default=True, compare=False,
                                metadata={"io_only": True})

    def build_plan(self, program: Program, benchmark_length: int,
                   machine: MachineConfig, seed: int = 0,
                   store=None) -> tuple[StratifiedSamplingPlan, dict]:
        """Profile, cluster, allocate, and select the unit indices.

        The BBV profile — the only functional pass this strategy needs —
        is cached in ``store`` (a :class:`repro.checkpoint.CheckpointStore`;
        default: the artifact store's shared ``bbv`` namespace) keyed by
        (program fingerprint, interval size, profiled length), so
        repeated stratified runs over the same benchmark
        (any seed, sample size, or machine) profile once.  Profiling is
        deterministic — a cached profile is bit-identical to a fresh
        one — and persisting it is opportunistic: set
        ``profile_cache=False`` on the strategy (or pass a disabled /
        unwritable store) for pure in-memory operation.
        """
        from repro.checkpoint import CheckpointStore
        from repro.simpoint.bbv import project_vectors
        from repro.simpoint.kmeans import choose_clustering

        population = benchmark_length // self.unit_size
        if population <= 0:
            raise ValueError("benchmark shorter than one sampling unit")
        interval_size = self.unit_size * self.units_per_interval
        if store is None:
            store = CheckpointStore(enabled=self.profile_cache)
        profile = store.get_or_profile(
            program, interval_size, max_instructions=benchmark_length)
        projected = project_vectors(profile, seed=seed)
        clustering = choose_clustering(projected, max_k=self.max_phases,
                                       seed=seed)

        # Group the unit population into strata by phase label.
        strata: dict[int, list[int]] = {}
        num_intervals = profile.num_intervals
        for unit_index in range(population):
            interval = min(unit_index // self.units_per_interval,
                           num_intervals - 1)
            label = int(clustering.labels[interval])
            strata.setdefault(label, []).append(unit_index)

        # Proportional allocation via largest remainder.  The total is a
        # hard budget: it is never exceeded, even when there are more
        # phases than units to hand out.
        total = min(self.sample_size, population)
        labels = sorted(strata)
        quotas = {lbl: total * len(strata[lbl]) / population for lbl in labels}
        allocation = {lbl: int(quotas[lbl]) for lbl in labels}
        remainder = total - sum(allocation.values())
        by_remainder = sorted(labels,
                              key=lambda lbl: quotas[lbl] - int(quotas[lbl]),
                              reverse=True)
        for lbl in by_remainder[:remainder]:
            allocation[lbl] += 1
        # Prefer covering every phase when the budget allows: shift one
        # unit from the largest allocation to each uncovered stratum.
        for lbl in labels:
            if allocation[lbl] > 0:
                continue
            donor = max(labels, key=lambda l: allocation[l])
            if allocation[donor] <= 1:
                break
            allocation[donor] -= 1
            allocation[lbl] = 1

        # Systematic selection within each stratum.
        chosen: list[int] = []
        for lbl in labels:
            members = strata[lbl]
            count = min(allocation[lbl], len(members))
            if count == 0:
                continue
            stride = len(members) / count
            chosen.extend(members[int(i * stride + stride / 2)]
                          for i in range(count))

        plan = StratifiedSamplingPlan(
            unit_size=self.unit_size,
            unit_indices=tuple(sorted(set(chosen))),
            detailed_warming=self.effective_warming(machine),
            functional_warming=self.functional_warming,
        )
        info = {
            "phases": clustering.k,
            "allocation": {str(lbl): allocation[lbl] for lbl in labels},
            "stratum_sizes": {str(lbl): len(strata[lbl]) for lbl in labels},
        }
        return plan, info

    def run(self, program, machine, benchmark_length, *, metric="cpi",
            epsilon=DEFAULT_EPSILON, confidence=0.997, seed=0,
            checkpoints=None) -> StrategyOutcome:
        plan, info = self.build_plan(program, benchmark_length, machine,
                                     seed=seed)
        run = run_smarts(program, machine, plan, benchmark_length,
                         measure_energy=(metric == "epi"),
                         checkpoints=checkpoints)
        return StrategyOutcome(runs=[run], info=info)
