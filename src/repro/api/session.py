"""The Session facade: the one object user code needs.

A :class:`Session` owns an :class:`~repro.api.executor.Executor` (cache
directory, worker count) and exposes the library's workflows as a small
declarative surface::

    from repro.api import RunSpec, Session, SystematicStrategy

    session = Session()
    result = session.run(RunSpec(benchmark="gcc.syn", scale=0.2))
    results = session.run_batch(
        session.sweep_specs(benchmarks=["gcc.syn", "mcf.syn"],
                            machines=["8-way", "16-way"]),
        max_workers=4)

Everything a Session produces is a :class:`~repro.api.spec.RunResult`,
JSON-serializable and cached on disk by spec hash.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.stats import CONFIDENCE_997, DEFAULT_EPSILON
from repro.api.executor import Executor, ResultCache, execute_spec
from repro.api.resultset import ResultSet
from repro.api.spec import RunResult, RunSpec
from repro.api.strategies import SamplingStrategy, SystematicStrategy
from repro.api.study import Study, StudyReport, default_context, get_study


class Session:
    """Entry point for running sampled simulations declaratively.

    Args:
        max_workers: Default worker-process count for batches; ``None``
            or 1 runs serially.
        cache_dir: On-disk result cache directory (default: the
            artifact store's ``result`` namespace).
        use_cache: Disable to bypass the *run-result* cache — every run
            is recomputed and no result is read from or written to
            disk.  (The checkpoint store is separate: specs with
            ``checkpoints="auto"`` still use it, and stratified runs
            opportunistically cache their BBV profile there —
            degrading to in-memory profiling when the store directory
            is unwritable, and disabled per strategy with
            ``StratifiedStrategy(profile_cache=False)`` — a
            process-local flag that does not reach parallel pool
            workers.  Point ``REPRO_ARTIFACT_DIR`` elsewhere for
            isolation that covers every execution mode.)
        checkpoints: Default checkpoint mode (``"off"`` or ``"auto"``)
            applied by :meth:`estimate` when none is given explicitly;
            specs built elsewhere carry their own mode.
        backend: Execution backend for cache misses — an
            :class:`~repro.backends.ExecutorBackend` instance, class, or
            registered name (``"serial"``, ``"local-pool"``,
            ``"queue"``).  ``None`` consults ``REPRO_BACKEND``, then
            falls back to the automatic serial/local-pool choice.
    """

    def __init__(self, max_workers: int | None = None,
                 cache_dir: str | Path | None = None,
                 use_cache: bool = True,
                 checkpoints: str = "off",
                 backend=None):
        if checkpoints not in ("off", "auto"):
            raise ValueError("checkpoints must be 'off' or 'auto'")
        self.checkpoints = checkpoints
        self.executor = Executor(
            max_workers=max_workers,
            cache=ResultCache(cache_dir, enabled=use_cache),
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> RunResult:
        """Execute one spec (through the cache)."""
        return self.executor.run([spec])[0]

    def run_batch(self, specs: Sequence[RunSpec],
                  max_workers: int | None = None) -> list[RunResult]:
        """Execute a batch of specs, in order, optionally in parallel.

        Parallel execution produces estimates identical to the serial
        path: every spec is deterministic and workers are forked from
        this process.

        Raises :class:`~repro.reliability.BatchExecutionError` when any
        spec fails after retries; the exception's ``report`` carries
        every completed sibling's result.  Use :meth:`run_batch_report`
        to handle partial failure without exceptions.
        """
        return self.executor.run(list(specs), max_workers=max_workers)

    def run_batch_report(self, specs: Sequence[RunSpec],
                         max_workers: int | None = None):
        """Execute a batch under the partial-failure contract.

        Returns a :class:`~repro.reliability.BatchReport`: one entry
        per spec, each a :class:`~repro.api.spec.RunResult` or a
        :class:`~repro.reliability.SpecFailure` envelope (error text,
        type, attempt count, transient/permanent classification).
        Never raises for spec failures.
        """
        return self.executor.run_report(list(specs),
                                        max_workers=max_workers)

    def run_study(self, study: Study | str, ctx=None,
                  params: dict | None = None,
                  max_workers: int | None = None) -> StudyReport:
        """Execute a declarative study: grid through the session, analyze.

        ``study`` is a :class:`~repro.api.study.Study` or a registered
        name (``"fig6"``).  The study's RunSpec grid — if it has one —
        executes through :meth:`run_batch` (cache, parallel workers,
        checkpoints all apply); the study's analysis then turns the
        :class:`ResultSet` into the experiment payload.  Each entry in
        ``params`` is forwarded to the grid builder and/or the analysis
        — whichever of the two accepts it by signature — so grids need
        not mirror analysis-only parameters; a name neither accepts
        raises :class:`TypeError` before anything runs.
        """
        if isinstance(study, str):
            study = get_study(study)
        if ctx is None:
            ctx = default_context()
        params = dict(params or {})
        grid_params = _accepted_params(study.grid, params) if study.grid \
            else {}
        analyze_params = _accepted_params(study.analyze, params)
        unknown = set(params) - set(grid_params) - set(analyze_params)
        if unknown:
            raise TypeError(f"study {study.name!r} accepts no parameter(s) "
                            f"{sorted(unknown)}")
        specs = list(study.grid(ctx, **grid_params)) if study.grid else []
        results = ResultSet(self.run_batch(specs, max_workers=max_workers))
        data = study.analyze(ctx, results, **analyze_params)
        rows = list(study.tidy(data)) if study.tidy else []
        return StudyReport(study=study.name, title=study.title,
                           data=data, rows=rows, results=results)

    # ------------------------------------------------------------------
    # Spec builders
    # ------------------------------------------------------------------
    @staticmethod
    def sweep_specs(benchmarks: Iterable[str],
                    machines: Iterable[str] = ("8-way",),
                    strategy: SamplingStrategy | None = None,
                    scale: float = 0.25,
                    metric: str = "cpi",
                    seed: int = 0,
                    epsilon: float = DEFAULT_EPSILON,
                    confidence: float = CONFIDENCE_997,
                    checkpoints: str = "off") -> list[RunSpec]:
        """Build the cross product benchmark x machine as RunSpecs."""
        if strategy is None:
            strategy = SystematicStrategy()
        return [
            RunSpec(benchmark=benchmark, machine=machine, strategy=strategy,
                    scale=scale, metric=metric, seed=seed, epsilon=epsilon,
                    confidence=confidence, checkpoints=checkpoints)
            for benchmark in benchmarks
            for machine in machines
        ]

    # ------------------------------------------------------------------
    # Convenience shims (the pre-Session call shapes)
    # ------------------------------------------------------------------
    def estimate(self, benchmark: str, machine: str = "8-way",
                 metric: str = "cpi", scale: float = 0.25, seed: int = 0,
                 epsilon: float = DEFAULT_EPSILON, confidence: float = CONFIDENCE_997,
                 strategy: SamplingStrategy | None = None,
                 benchmark_length: int | None = None,
                 checkpoints: str | None = None,
                 **strategy_params) -> RunResult:
        """One-call estimate, mirroring the old ``estimate_metric`` shape.

        Extra keyword arguments (``unit_size``, ``n_init``, ...) are
        forwarded to :class:`SystematicStrategy` when no explicit
        strategy is given.  ``checkpoints`` defaults to the session's
        mode.
        """
        if strategy is None:
            strategy = SystematicStrategy(**strategy_params)
        elif strategy_params:
            raise TypeError(
                "pass strategy parameters inside the strategy object, "
                f"not alongside it: {sorted(strategy_params)}")
        return self.run(RunSpec(
            benchmark=benchmark, machine=machine, strategy=strategy,
            scale=scale, metric=metric, seed=seed, epsilon=epsilon,
            confidence=confidence, benchmark_length=benchmark_length,
            checkpoints=self.checkpoints if checkpoints is None else checkpoints,
        ))


def _accepted_params(func, params: dict) -> dict:
    """The subset of ``params`` that ``func``'s signature accepts."""
    signature = inspect.signature(func)
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in signature.parameters.values()):
        return dict(params)
    return {k: v for k, v in params.items() if k in signature.parameters}


def run_spec(spec: RunSpec) -> RunResult:
    """Execute one spec directly, bypassing session and cache."""
    return execute_spec(spec)
