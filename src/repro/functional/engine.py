"""Functional-engine selection: ``REPRO_ENGINE=fastpath|interp``.

Every consumer of functional execution — the SMARTS engine's
fast-forward loop and detailed simulation, ``measure_program_length``,
reference traces, checkpoint builds, SimPoint's BBV profiling and
interval simulation, and the rate calibration behind Table 6 / Figure 4 —
creates its core through :func:`create_core`, so one environment switch
selects the engine process-wide:

* ``fastpath`` (default) — the trace-compiled block-level engine
  (:class:`repro.functional.fastpath.FastCore`), bit-identical to the
  interpreter but several times faster on the functional-warming and
  detailed-simulation hot loops;
* ``interp`` — the original per-instruction interpreter
  (:class:`repro.functional.simulator.FunctionalCore`), kept as the
  executable specification the fastpath is verified against.

The engine cannot change estimates (the golden tests in
``tests/test_engine_fastpath.py`` enforce bit-identical architectural
state, warm state, and ``RunResult.estimates_dict()`` payloads), so it
is deliberately *not* part of RunSpec identity or any cache key.
"""

from __future__ import annotations

import os

from repro.functional.fastpath import FastCore
from repro.functional.simulator import FunctionalCore
from repro.isa.program import Program

#: Environment variable selecting the functional engine.
ENGINE_ENV = "REPRO_ENGINE"

#: Engine registry: name -> core class.
ENGINES: dict[str, type[FunctionalCore]] = {
    "interp": FunctionalCore,
    "fastpath": FastCore,
}

DEFAULT_ENGINE = "fastpath"


def engine_name(name: str | None = None) -> str:
    """Resolve (and validate) the active engine name.

    ``name=None`` reads :data:`ENGINE_ENV`, defaulting to
    :data:`DEFAULT_ENGINE`; an unknown name raises ``ValueError`` rather
    than silently running the wrong engine.
    """
    if name is None:
        name = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if name not in ENGINES:
        raise ValueError(
            f"unknown functional engine {name!r} (set {ENGINE_ENV} to one "
            f"of: {', '.join(sorted(ENGINES))})")
    return name


def engine_class(name: str | None = None) -> type[FunctionalCore]:
    """The core class of the active (or explicitly named) engine."""
    return ENGINES[engine_name(name)]


def create_core(program: Program, max_instructions: int | None = None,
                engine: str | None = None) -> FunctionalCore:
    """Build a functional core with the active (or named) engine."""
    return engine_class(engine)(program, max_instructions)
