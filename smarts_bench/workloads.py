"""The benchmark's workloads: RunSpec batches plus how to execute them.

Each workload stresses a different layer of the simulator; why each is
in the benchmark is recorded beside its name in ``BENCHMARK.json``.
The ``tiny`` variant of each has the same structure at a size the
self-test can afford.

The workload seed enters ``RunSpec.seed`` of every systematic and
adaptive spec, which those strategies ignore by construction, so a seed
never changes an estimate or the amount of simulated work.  The
systematic offset stays 0 and the stratified specs keep seed 0: both
pick the sample, and a different sample moves ``detailed_minstr`` (up
to 2x on ``mcf.syn`` under two-round tuning) and ``cpi_err_pct`` (the
error of one systematic sample is a draw) by far more than run-to-run
noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import (
    AdaptiveStrategy,
    RunSpec,
    StratifiedStrategy,
    SUITE_NAMES,
    SystematicStrategy,
)


NAMES = ("dense", "sparse", "adaptive", "sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    specs: list
    backend: str = "serial"
    workers: int = 1
    #: Whether results go through the run's result store; a cached
    #: workload runs its batch a second time, expecting all hits.
    cached: bool = False


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed`` (``tiny``: self-test size)."""
    if name == "dense":
        strategy = SystematicStrategy(n_init=40) if tiny \
            else SystematicStrategy()
        return Workload(name, [
            RunSpec(benchmark=b, scale=0.05 if tiny else 1.0,
                    strategy=strategy, checkpoints="auto", seed=seed)
            for b in ("gcc.syn", "mcf.syn")])
    if name == "sparse":
        strategy = SystematicStrategy(n_init=20 if tiny else 100,
                                      max_rounds=1)
        return Workload(name, [
            RunSpec(benchmark=b, scale=0.1 if tiny else 4.0,
                    strategy=strategy, seed=seed)
            for b in ("gcc.syn", "mcf.syn", "ammp.syn")])
    if name == "adaptive":
        strategy = AdaptiveStrategy(n_max=60) if tiny else AdaptiveStrategy()
        return Workload(name, [
            RunSpec(benchmark=b, scale=0.02 if tiny else 0.25,
                    strategy=strategy, checkpoints="auto", seed=seed)
            for b in ("irregular.syn", "mcf.syn")])
    if name == "sweep":
        benchmarks = SUITE_NAMES[:2] if tiny else SUITE_NAMES[:8]
        scale = 0.05 if tiny else 1.0
        size = 20 if tiny else 100
        specs = [RunSpec(benchmark=b, scale=scale,
                         strategy=StratifiedStrategy(sample_size=size))
                 for b in benchmarks]
        specs += [RunSpec(benchmark=b, machine="16-way", scale=scale,
                          strategy=SystematicStrategy(n_init=size,
                                                      max_rounds=1),
                          seed=seed)
                  for b in benchmarks]
        return Workload(name, specs, backend="local-pool", workers=2,
                        cached=True)
    raise KeyError(f"unknown workload {name!r}")


def label(spec: RunSpec) -> str:
    """The spec's identity in the golden file (the seed left out)."""
    return (f"{spec.benchmark}|{spec.machine}|{spec.scale}|"
            f"{spec.strategy.name}")


def cell(spec: RunSpec) -> str:
    """The (benchmark, machine, scale) whose true CPI the spec estimates."""
    return f"{spec.benchmark}|{spec.machine}|{spec.scale}"
