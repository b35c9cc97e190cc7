"""Detailed out-of-order superscalar timing model.

This is the repository's stand-in for SimpleScalar's ``sim-outorder``
(enhanced, per Section 3.2 of the paper, with a store buffer, MSHRs and
memory-interconnect bottlenecks).  It is an execution-driven,
timestamp-based out-of-order model: the functional core executes the
program and feeds the model chunks of straight-line code in program
order (whole compiled blocks under the fast engine, single instructions
under the interpreter, see ``FunctionalCore.detail_chunks``).  Each
instruction is described by its static record (:class:`StaticRecords`,
resolved once per program and machine) plus its dynamic facts (memory
address, branch outcome), and is scheduled against

* fetch bandwidth, I-cache/I-TLB misses and branch-redirect stalls,
* RUU (register update unit) and LSQ occupancy,
* operand readiness through a register timestamp scoreboard,
* functional-unit availability and latency,
* D-cache/D-TLB misses through a finite MSHR file,
* store-buffer capacity at commit, and
* commit bandwidth.

Compared to a cycle-by-cycle structural simulator the model processes
each instruction exactly once, which keeps pure-Python simulation rates
high enough for SMARTS-scale experiments while still producing the
behaviour the paper studies: CPI that varies with cache and predictor
state, short-term pipeline state that needs detailed warming, and
long-history state that needs functional warming.  Wrong-path fetch is
modeled as a redirect penalty rather than by executing wrong-path
instructions; the paper (Section 4.5, citing Cain et al.) reports that
speculative wrong-path effects have minimal impact on CPI.
"""

from __future__ import annotations

from collections import deque

from repro.config.machines import MachineConfig
from repro.detailed.counters import PipelineCounters
from repro.detailed.state import MicroarchState
from repro.functional.simulator import INST_SIZE, FunctionalCore
from repro.isa.instruction import NUM_FP_REGS, NUM_INT_REGS
from repro.isa.opcodes import BRANCH_COND, BRANCH_KIND, OpClass, Opcode
from repro.isa.program import Program
from repro.memory.hierarchy import L1, MEM
from repro.memory.mshr import MSHRFile
from repro.memory.store_buffer import StoreBuffer

#: Pipeline front-end depth between fetch and dispatch (decode/rename).
DECODE_STAGES = 2

#: Opcodes that occupy their functional unit for the full execution
#: latency (unpipelined divide/sqrt units).
_UNPIPELINED = frozenset({Opcode.DIV, Opcode.MOD, Opcode.FDIV, Opcode.FSQRT})

#: Functional-unit pool per scheduling class: memory operations use the
#: L1D ports (pool ``OpClass.LOAD``), branches and NOPs an integer ALU.
_FU_POOL = {
    OpClass.IALU: OpClass.IALU,
    OpClass.IMULT: OpClass.IMULT,
    OpClass.FPALU: OpClass.FPALU,
    OpClass.FPMULT: OpClass.FPMULT,
    OpClass.LOAD: OpClass.LOAD,
    OpClass.STORE: OpClass.LOAD,
    OpClass.BRANCH: OpClass.IALU,
    OpClass.NOP: OpClass.IALU,
}

#: Slot of the per-class operation counter a non-memory instruction
#: bumps (``ialu_ops`` .. ``fpmult_ops``); the last slot is a sink for
#: branches and NOPs.
_OP_COUNTERS = ("ialu_ops", "imult_ops", "fpalu_ops", "fpmult_ops")
_OP_COUNTER_SLOT = {OpClass.IALU: 0, OpClass.IMULT: 1, OpClass.FPALU: 2,
                    OpClass.FPMULT: 3}


class StaticRecords:
    """Per-instruction static facts of one program on one machine.

    ``by_pc[pc]`` is the record the pipeline unpacks per instruction::

        (pc, fetch_addr, fetch_block, fu_pool, rd, srcs,
         is_load, is_store, is_mem, branch_kind, latency, unpipelined,
         op_counter_slot)

    with ``branch_kind`` ``None`` for non-branches.  ``blocks`` memoises,
    per block start pc, the fast engine's compiled detail block together
    with its slice of ``by_pc`` (filled by
    :meth:`repro.functional.fastpath.FastCore.detail_chunks`).
    """

    __slots__ = ("by_pc", "blocks")

    def __init__(self, program: Program, config: MachineConfig) -> None:
        l1i_block = config.l1i.block_bytes
        records = []
        for pc, inst in enumerate(program.instructions):
            op, opclass = inst.op, inst.opclass
            fetch_addr = pc * INST_SIZE
            records.append((
                pc, fetch_addr, fetch_addr // l1i_block,
                int(_FU_POOL[opclass]), inst.rd, inst.source_regs(),
                inst.is_load, inst.is_store, inst.is_mem,
                BRANCH_KIND.get(op), config.exec_latency(op, opclass),
                op in _UNPIPELINED, _OP_COUNTER_SLOT.get(opclass, 4),
            ))
        self.by_pc = tuple(records)
        self.blocks: dict[int, tuple] = {}


def _records_key(config: MachineConfig) -> tuple:
    """The machine parameters a static record depends on."""
    return (config.l1i.block_bytes,
            tuple(sorted(config.fu_latency.items())),
            tuple(sorted(config.op_latency.items())))


def static_records(program: Program, config: MachineConfig) -> StaticRecords:
    """The (memoized) static records of ``program`` on ``config``.

    Cached on the program, like its compiled form, and keyed by the
    machine parameters the records depend on, so machines that differ
    only elsewhere (widths, cache sizes) share one table.
    """
    cache = getattr(program, "_detailed_records", None)
    if cache is None:
        cache = program._detailed_records = {}
    key = _records_key(config)
    records = cache.get(key)
    if records is None:
        records = cache[key] = StaticRecords(program, config)
    return records


class DetailedSimulator:
    """Timestamp-based out-of-order timing model.

    One instance is created per SMARTS run (or per reference simulation)
    and shares its :class:`MicroarchState` with functional warming.

    Typical use::

        sim = DetailedSimulator(config, microarch)
        sim.begin_period()                      # cold pipeline
        sim.run(core, W)                        # detailed warming
        counters = sim.run(core, U)             # measured sampling unit
    """

    def __init__(self, config: MachineConfig, microarch: MicroarchState) -> None:
        self.config = config
        self.microarch = microarch
        self._num_regs = NUM_INT_REGS + NUM_FP_REGS
        self._records_program: Program | None = None
        self._records: StaticRecords | None = None
        self.begin_period()

    # ------------------------------------------------------------------
    # Period management
    # ------------------------------------------------------------------
    def begin_period(self) -> None:
        """Reset all short-history pipeline state (empty pipeline).

        Called when detailed simulation resumes after a stretch of
        functional simulation.  Long-history state (caches, TLBs, branch
        predictors) is *not* touched — its freshness is governed by the
        warming policy of the surrounding SMARTS run.
        """
        config = self.config
        self._clock = 0
        self._next_fetch_cycle = 0
        self._redirect_cycle = 0
        self._fetch_bw_cycle = -1
        self._fetch_bw_count = 0
        self._last_fetch_block = -1
        self._reg_ready = [0] * self._num_regs
        self._window: deque[int] = deque()
        self._lsq: deque[int] = deque()
        self._last_commit_cycle = 0
        self._commits_in_cycle = 0
        # Unit free times per functional-unit pool, indexed by the pool's
        # OpClass value (see _FU_POOL).
        self._fu_free = [
            [0] * config.fu_counts[OpClass.IALU],
            [0] * config.fu_counts[OpClass.IMULT],
            [0] * config.fu_counts[OpClass.FPALU],
            [0] * config.fu_counts[OpClass.FPMULT],
            [0] * config.l1d.ports,
        ]
        self._mshr_i = MSHRFile(config.l1i.mshr_entries)
        self._mshr_d = MSHRFile(config.l1d.mshr_entries)
        self._store_buffer = StoreBuffer(config.store_buffer_entries)
        self._pending_stores: dict[int, int] = {}

    @property
    def current_cycle(self) -> int:
        """Commit-time clock of the current detailed period."""
        return self._last_commit_cycle

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, core: FunctionalCore, count: int,
            written: set[int] | None = None) -> PipelineCounters:
        """Simulate up to ``count`` instructions in detail.

        Returns the counters (including elapsed cycles) for exactly the
        instructions processed by this call.  The pipeline clock carries
        over across consecutive ``run`` calls within one period, so a
        warming call followed by a measurement call behaves like one
        continuous stretch of detailed simulation.

        ``written`` (when given) collects the memory addresses stored to
        by this call, letting a full-stream reference pass record the
        same per-stride memory deltas the functional checkpoint builder
        derives from :func:`~repro.functional.warming.warming_pass`.
        """
        config = self.config
        hierarchy = self.microarch.hierarchy
        access_instruction = hierarchy.access_instruction
        access_data = hierarchy.access_data
        resolve_branch = self.microarch.branch_unit.resolve_branch
        mshr_i_request = self._mshr_i.request
        mshr_d_request = self._mshr_d.request
        store_buffer_push = self._store_buffer.push
        counters = PipelineCounters()
        cycles_start = self._last_commit_cycle

        if core.program is not self._records_program:
            self._records = static_records(core.program, config)
            self._records_program = core.program

        fetch_width = config.fetch_width
        commit_width = config.commit_width
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        l1d_block = config.l1d.block_bytes
        l1_latency = config.l1_latency
        l2_latency = config.l2_latency
        mem_latency = config.mem_latency
        tlb_penalty = config.tlb_miss_latency
        mispredict_penalty = config.branch.mispredict_penalty
        single_prediction = config.branch.predictions_per_cycle < 2

        reg_ready = self._reg_ready
        window = self._window
        lsq = self._lsq
        fu_free = self._fu_free
        pending_stores = self._pending_stores
        next_fetch_cycle = self._next_fetch_cycle
        redirect_cycle = self._redirect_cycle
        fetch_bw_cycle = self._fetch_bw_cycle
        fetch_bw_count = self._fetch_bw_count
        last_fetch_block = self._last_fetch_block
        last_commit_cycle = self._last_commit_cycle
        commits_in_cycle = self._commits_in_cycle
        op_counts = [0, 0, 0, 0, 0]
        executed = regfile_reads = regfile_writes = 0

        for records, facts, next_pc in core.detail_chunks(count, self._records):
            fact = 0
            for (pc, fetch_addr, fetch_block, fu_pool, rd, srcs,
                 is_load, is_store, is_mem, branch_kind, latency, unpipelined,
                 op_counter) in records:
                # ------------------------------------------------------
                # Fetch
                # ------------------------------------------------------
                fetch_cycle = next_fetch_cycle
                if redirect_cycle > fetch_cycle:
                    fetch_cycle = redirect_cycle

                if fetch_cycle == fetch_bw_cycle:
                    if fetch_bw_count >= fetch_width:
                        fetch_cycle += 1
                        fetch_bw_cycle = fetch_cycle
                        fetch_bw_count = 0
                else:
                    fetch_bw_cycle = fetch_cycle
                    fetch_bw_count = 0
                fetch_bw_count += 1

                if fetch_block != last_fetch_block:
                    last_fetch_block = fetch_block
                    result = access_instruction(fetch_addr)
                    counters.fetch_accesses += 1
                    if result.tlb_miss:
                        counters.itlb_misses += 1
                        fetch_cycle += tlb_penalty
                    if result.level != L1:
                        counters.l1i_misses += 1
                        miss_latency = (l2_latency if result.level == "l2"
                                        else mem_latency)
                        ready, stall = mshr_i_request(
                            fetch_block, fetch_cycle, miss_latency)
                        if stall:
                            counters.mshr_stalls += 1
                        fetch_cycle = ready
                next_fetch_cycle = fetch_cycle

                # ------------------------------------------------------
                # Dispatch (decode/rename into RUU and LSQ)
                # ------------------------------------------------------
                dispatch_cycle = fetch_cycle + DECODE_STAGES
                if len(window) >= ruu_size:
                    free_at = window.popleft()
                    if free_at > dispatch_cycle:
                        counters.ruu_stall_cycles += free_at - dispatch_cycle
                        dispatch_cycle = free_at
                if is_mem and len(lsq) >= lsq_size:
                    free_at = lsq.popleft()
                    if free_at > dispatch_cycle:
                        counters.lsq_stall_cycles += free_at - dispatch_cycle
                        dispatch_cycle = free_at

                # ------------------------------------------------------
                # Operand readiness
                # ------------------------------------------------------
                ready_cycle = dispatch_cycle
                for src in srcs:
                    src_ready = reg_ready[src]
                    if src_ready > ready_cycle:
                        ready_cycle = src_ready
                regfile_reads += len(srcs)

                # ------------------------------------------------------
                # Issue and execute: the earliest-free unit of the pool
                # (lowest index on ties).
                # ------------------------------------------------------
                pool = fu_free[fu_pool]
                unit_free = min(pool)
                unit = pool.index(unit_free)
                issue_cycle = ready_cycle if ready_cycle >= unit_free else unit_free

                store_drain_latency = l1_latency
                if is_load:
                    addr = facts[fact]
                    fact += 1
                    counters.loads += 1
                    counters.l1d_accesses += 1
                    result = access_data(addr, False)
                    if result.tlb_miss:
                        counters.dtlb_misses += 1
                    if result.level != L1:
                        counters.l1d_misses += 1
                        counters.l2_accesses += 1
                        if result.level == MEM:
                            counters.l2_misses += 1
                    forward_ready = pending_stores.get(addr)
                    if forward_ready is not None and forward_ready > issue_cycle:
                        counters.store_forwards += 1
                        memory_latency = l1_latency
                        if result.tlb_miss:
                            memory_latency += tlb_penalty
                        complete_cycle = issue_cycle + memory_latency
                    elif result.level == L1:
                        memory_latency = l1_latency
                        if result.tlb_miss:
                            memory_latency += tlb_penalty
                        complete_cycle = issue_cycle + memory_latency
                    else:
                        ready, stall = mshr_d_request(
                            addr // l1d_block, issue_cycle,
                            hierarchy.latency(result))
                        if stall:
                            counters.mshr_stalls += 1
                        complete_cycle = ready
                elif is_store:
                    addr = facts[fact]
                    fact += 1
                    counters.stores += 1
                    counters.l1d_accesses += 1
                    if written is not None:
                        written.add(addr)
                    result = access_data(addr, True)
                    if result.tlb_miss:
                        counters.dtlb_misses += 1
                    if result.level != L1:
                        counters.l1d_misses += 1
                        counters.l2_accesses += 1
                        if result.level == MEM:
                            counters.l2_misses += 1
                    store_drain_latency = hierarchy.latency(result)
                    complete_cycle = issue_cycle + 1
                else:
                    complete_cycle = issue_cycle + latency
                    op_counts[op_counter] += 1

                # Functional unit occupancy: pipelined units free the
                # issue slot next cycle; divides occupy the unit until
                # completion.
                pool[unit] = complete_cycle if unpipelined else issue_cycle + 1

                if rd is not None:
                    reg_ready[rd] = complete_cycle
                    regfile_writes += 1

                # ------------------------------------------------------
                # Branch resolution (a branch always ends its chunk, so
                # the chunk's next pc is the branch's actual target)
                # ------------------------------------------------------
                if branch_kind is not None:
                    counters.branches += 1
                    if branch_kind == BRANCH_COND:
                        taken = facts[fact]
                    else:
                        taken = True
                    outcome = resolve_branch(pc, branch_kind, taken, next_pc)
                    if outcome.mispredicted:
                        counters.mispredictions += 1
                        redirect = complete_cycle + mispredict_penalty
                        if redirect > redirect_cycle:
                            redirect_cycle = redirect
                    elif taken and single_prediction:
                        # A correctly predicted taken branch ends the
                        # fetch group; the target is fetched the
                        # following cycle.
                        redirect = fetch_cycle + 1
                        if redirect > redirect_cycle:
                            redirect_cycle = redirect

                # ------------------------------------------------------
                # Commit (in order, bounded by commit width)
                # ------------------------------------------------------
                commit_cycle = complete_cycle + 1
                if commit_cycle <= last_commit_cycle:
                    commit_cycle = last_commit_cycle
                    if commits_in_cycle >= commit_width:
                        commit_cycle += 1
                        commits_in_cycle = 1
                    else:
                        commits_in_cycle += 1
                else:
                    commits_in_cycle = 1

                if is_store:
                    completion, stall = store_buffer_push(
                        commit_cycle, store_drain_latency)
                    if stall:
                        counters.store_buffer_stalls += 1
                        commit_cycle += stall
                        commits_in_cycle = 1
                    pending_stores[addr] = completion
                    if len(pending_stores) > 2048:
                        horizon = commit_cycle
                        stale = [a for a, t in pending_stores.items()
                                 if t <= horizon]
                        for stale_addr in stale:
                            del pending_stores[stale_addr]

                last_commit_cycle = commit_cycle
                window.append(commit_cycle)
                if is_mem:
                    lsq.append(commit_cycle)
            executed += len(records)

        self._next_fetch_cycle = next_fetch_cycle
        self._redirect_cycle = redirect_cycle
        self._fetch_bw_cycle = fetch_bw_cycle
        self._fetch_bw_count = fetch_bw_count
        self._last_fetch_block = last_fetch_block
        self._last_commit_cycle = last_commit_cycle
        self._commits_in_cycle = commits_in_cycle

        counters.instructions = counters.window_inserts = executed
        counters.regfile_reads = regfile_reads
        counters.regfile_writes = regfile_writes
        for name, value in zip(_OP_COUNTERS, op_counts):
            setattr(counters, name, value)
        counters.cycles = last_commit_cycle - cycles_start
        return counters

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def simulate(self, core: FunctionalCore, count: int | None = None) -> PipelineCounters:
        """Simulate ``count`` instructions (or to completion) in one period."""
        self.begin_period()
        budget = count if count is not None else 1 << 62
        return self.run(core, budget)
