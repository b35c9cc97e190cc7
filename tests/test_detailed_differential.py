"""Cross-engine differential campaign for the detailed timing model.

``DetailedSimulator.run`` consumes compiled blocks under the fast engine
and per-instruction ``DynInst`` records under the interpreter, through
one loop body.  The contract is that the engine is invisible: for every
call, the returned :class:`PipelineCounters` and the ``written`` address
set are identical, and so are the final architectural state and the
cache/TLB/branch contents and statistics.

Hypothesis drives both engines through the same random SMARTS-shaped
schedule — warmed fast-forwards, ``begin_period``, detailed warming and
measurement calls of random (also 0, 1 and mid-block) sizes, and
restores of architectural checkpoints taken at arbitrary (usually
mid-block) pcs — over suite programs and small random programs that
exercise every opcode family, calls and returns, HALT at the end of a
straight-line block, running off the end of the program, and
``max_instructions`` budgets.  The campaign is bounded to a few
seconds, and ``derandomize`` fixes its draws, so every run checks the
same cases.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import scaled_8way, scaled_16way
from repro.detailed.pipeline import DetailedSimulator
from repro.detailed.state import MicroarchState
from repro.functional.engine import create_core
from repro.functional.warming import FunctionalWarmer
from repro.isa import ProgramBuilder
from repro.workloads import get_benchmark, micro_benchmark

ENGINES = ("interp", "fastpath")

MACHINES = (scaled_8way(), scaled_16way())

_SUITE_CACHE: dict[str, object] = {}


def suite_program(name: str):
    if name not in _SUITE_CACHE:
        _SUITE_CACHE[name] = (micro_benchmark().program if name == "micro.syn"
                              else get_benchmark(name, scale=0.05).program)
    return _SUITE_CACHE[name]


_INT_REGS = [f"r{i}" for i in range(1, 8)]
_FP_REGS = [f"f{i}" for i in range(1, 5)]
_BODY_OPS = ("add", "sub", "xor", "addi", "mul", "div", "mod", "slt",
             "load", "store", "fload", "fstore", "fadd", "fmul", "fdiv",
             "fsqrt", "cvtif", "cvtfi", "nop", "skip", "call")


@st.composite
def random_programs(draw):
    """A loop over a random body, optionally calling a subroutine, that
    ends in HALT (after straight-line code) or runs off the end."""
    body = draw(st.lists(
        st.tuples(st.sampled_from(_BODY_OPS), st.integers(0, 6),
                  st.integers(0, 6), st.integers(-40, 40)),
        min_size=1, max_size=14))
    iterations = draw(st.integers(1, 12))
    halts = draw(st.booleans())
    tail = draw(st.integers(0, 4))

    b = ProgramBuilder("differential")
    base = 0x1000
    b.data_block(base, [float(i) if i % 3 else i for i in range(32)])
    for i, reg in enumerate(_INT_REGS):
        b.addi(reg, "r0", 3 * i - 5)
    for i, reg in enumerate(_FP_REGS):
        b.cvtif(reg, _INT_REGS[i])
    b.addi("r20", "r0", iterations)
    b.label("loop")
    calls = False
    for index, (op, a, c, imm) in enumerate(body):
        rd, rs = _INT_REGS[a], _INT_REGS[c]
        fd, fs = _FP_REGS[a % 4], _FP_REGS[c % 4]
        slot = base + (abs(imm) % 32) * 8
        if op == "addi":
            b.addi(rd, rs, imm)
        elif op == "mul":  # products go to dead registers: no overflow
            b.mul("r8", rd, rs)
        elif op in ("add", "sub", "xor", "div", "mod", "slt"):
            getattr(b, op)(rd, rd, rs)
        elif op == "load":
            b.load(rd, "r0", slot)
        elif op == "store":
            b.store(rs, "r0", slot)
        elif op == "fload":
            b.fload(fd, "r0", slot)
        elif op == "fstore":
            b.fstore(fs, "r0", slot)
        elif op == "fmul":
            b.fmul("f8", fd, fs)
        elif op in ("fadd", "fdiv"):
            getattr(b, op)(fd, fd, fs)
        elif op == "fsqrt":
            b.fsqrt(fd, fs)
        elif op == "cvtif":
            b.cvtif(fd, rs)
        elif op == "cvtfi":
            b.cvtfi(rd, fs)
        elif op == "nop":
            b.nop()
        elif op == "skip":  # data-dependent forward branch
            branch = (b.beq, b.bne, b.blt, b.bge)[imm % 4]
            branch(rd, rs, f"skip{index}")
            b.addi(rd, rd, 1)
            b.label(f"skip{index}")
            b.nop()
        else:  # call
            calls = True
            b.jal("r31", "subroutine")
    b.addi("r20", "r20", -1)
    b.bne("r20", "r0", "loop")
    for i in range(tail):  # straight-line code before the end
        b.addi(_INT_REGS[i], _INT_REGS[i], i + 1)
    if halts or calls:
        b.halt()
    if calls:
        b.label("subroutine")
        b.load("r9", "r0", base)
        b.addi("r9", "r9", 1)
        b.store("r9", "r0", base)
        b.jr("r31")
    return b.build()


#: One schedule step: (operation, size).
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("ff", "begin", "run", "run", "run", "restore")),
        st.one_of(st.sampled_from((0, 1, 2, 3, 50, 125)),
                  st.integers(0, 700))),
    min_size=1, max_size=14)


def microarch_fingerprint(microarch: MicroarchState) -> tuple:
    """Contents and statistics of every long-history structure."""
    unit = microarch.branch_unit
    return (microarch.snapshot_state(), microarch.stats_summary(),
            unit.branches, unit.mispredictions,
            unit.btb.lookups, unit.btb.hits)


def run_schedule(program, machine, steps, max_instructions, engine):
    """Drive one engine through ``steps``; return its observable trace."""
    core = create_core(program, max_instructions, engine=engine)
    microarch = MicroarchState(machine)
    warmer = FunctionalWarmer(microarch)
    sim = DetailedSimulator(machine, microarch)
    # Checkpoints are captured by an independent interpreter so both
    # engines restore the very same (usually mid-block) positions.
    oracle = create_core(program, engine="interp")
    trace = []
    for op, size in steps:
        if op == "ff":
            trace.append(("ff", core.run_warmed(size, warmer)))
        elif op == "begin":
            sim.begin_period()
        elif op == "run":
            written: set[int] = set()
            counters = sim.run(core, size, written)
            trace.append(("run", counters.as_dict(), sorted(written)))
        else:
            oracle.run(size)
            arch = oracle.capture_arch()
            core.restore_arch(arch["position"], arch["pc"], arch["halted"],
                              arch["int_regs"], arch["fp_regs"],
                              [arch["memory"]])
            trace.append(("restore", arch["pc"]))
        trace.append(("core", core.instructions_retired, core.halted))
    return (trace, core.state, microarch_fingerprint(microarch),
            sim.current_cycle)


def assert_engines_agree(program, machine, steps, max_instructions=None):
    interp, fast = (run_schedule(program, machine, steps, max_instructions,
                                 engine) for engine in ENGINES)
    for left, right in zip(interp[0], fast[0]):
        assert left == right
    assert interp == fast


def campaign(examples: int):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@campaign(120)
@given(program=random_programs(), machine=st.sampled_from(MACHINES),
       steps=_STEPS,
       max_instructions=st.one_of(st.none(), st.integers(1, 3000)))
def test_random_programs_engine_invisible(program, machine, steps,
                                          max_instructions):
    assert_engines_agree(program, machine, steps, max_instructions)


@campaign(60)
@given(name=st.sampled_from(("micro.syn", "gzip.syn", "mcf.syn", "ammp.syn",
                             "gcc.syn", "irregular.syn")),
       machine=st.sampled_from(MACHINES), steps=_STEPS,
       max_instructions=st.one_of(st.none(), st.integers(1, 20_000)))
def test_suite_programs_engine_invisible(name, machine, steps,
                                         max_instructions):
    assert_engines_agree(suite_program(name), machine, steps,
                         max_instructions)


# ----------------------------------------------------------------------
# Fixed edge cases (always run, independent of the campaign's draws)
# ----------------------------------------------------------------------
def _halting_program():
    """A call, a loop, and HALT after a straight-line stretch."""
    b = ProgramBuilder("halting")
    b.data_block(0x2000, list(range(8)))
    b.addi("r1", "r0", 5)
    b.label("loop")
    b.load("r2", "r0", 0x2008)
    b.jal("r31", "sub")
    b.addi("r1", "r1", -1)
    b.bne("r1", "r0", "loop")
    b.addi("r3", "r2", 1)
    b.store("r3", "r0", 0x2010)
    b.addi("r4", "r3", 2)
    b.halt()
    b.label("sub")
    b.mul("r2", "r2", "r1")
    b.jr("r31")
    return b.build()


@pytest.mark.parametrize("steps", [
    [("run", 0), ("run", 1), ("run", 1), ("run", 0)],
    # Budgets ending inside blocks, then past the HALT.
    [("run", 3), ("run", 5), ("begin", 0), ("run", 7), ("run", 10_000)],
    # Stop exactly before and at the HALT, then ask for more.
    [("run", 39), ("run", 1), ("run", 1), ("run", 5)],
    [("ff", 4), ("restore", 6), ("run", 2), ("ff", 3), ("run", 50)],
])
@pytest.mark.parametrize("max_instructions", [None, 17])
def test_edge_schedules(steps, max_instructions):
    program = _halting_program()
    assert_engines_agree(program, MACHINES[0], steps, max_instructions)


def test_edge_schedule_reaches_halt():
    """The fixed program really halts inside the schedule above."""
    program = _halting_program()
    core = create_core(program, engine="fastpath")
    sim = DetailedSimulator(MACHINES[0], MicroarchState(MACHINES[0]))
    counters = sim.run(core, 10_000)
    assert core.state.halted
    assert 0 < counters.instructions < 10_000


def test_run_off_the_end_halts_identically():
    b = ProgramBuilder("falls_off")
    b.addi("r1", "r0", 2)
    b.label("loop")
    b.addi("r1", "r1", -1)
    b.bne("r1", "r0", "loop")
    b.addi("r2", "r0", 7)
    program = b.build()
    assert_engines_agree(program, MACHINES[1],
                         [("run", 2), ("run", 100), ("run", 1)])
