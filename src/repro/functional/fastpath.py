"""Trace-compiled functional execution: the block-level fast path.

The interpreted :class:`~repro.functional.simulator.FunctionalCore` pays
a fixed per-instruction cost — decode-record unpacking, opcode dispatch
through one large ``if/elif`` chain, bound-method lookups on the
architectural state, and a :class:`~repro.isa.instruction.DynInst`
allocation — on every one of the 10^6-10^8 dynamic instructions a SMARTS
experiment executes.  This module removes that cost for both consumers,
functional warming and the detailed timing model, by compiling each
*basic block* of a program into specialized Python closures:

* blocks are discovered once per :class:`~repro.isa.program.Program`
  (leaders = entry, branch targets, fall-throughs) and compiled lazily
  on first execution, so indirect jumps to odd targets and mid-block
  checkpoint restores just compile an overlapping block on demand;
* each closure updates the architectural state with straight-line code
  specialized per opcode — register indices, immediates, and branch
  targets are baked in as constants, attribute lookups and tuple
  unpacking are gone;
* instead of calling into the cache/branch models per instruction, the
  warm variant of each closure appends the block's *warming event
  stream* (instruction-fetch and data addresses, branch outcomes) to
  flat integer lists, which :class:`FastCore` hands in batches to the
  bulk entry points :meth:`repro.memory.hierarchy.MemoryHierarchy.warm_many`
  and :meth:`repro.branch.unit.BranchUnit.warm_many`;
* the detail variant, compiled separately on first detailed execution,
  appends only the block's *dynamic* facts (load/store addresses and a
  conditional branch's outcome); :meth:`FastCore.detail_chunks` pairs
  them with the block's precomputed static instruction records for
  :class:`repro.detailed.pipeline.DetailedSimulator`.

The contract is *bit-identical equivalence*: a :class:`FastCore` run
leaves exactly the architectural state, warm microarchitectural state,
and statistics counters the interpreter leaves (the golden tests in
``tests/test_engine_fastpath.py`` assert this across engines).  Memory
events preserve their interleaved I/D order because L2 is shared between
the instruction and data paths; branch-predictor state is disjoint from
cache state, so branch events batch separately without reordering risk.

Event encodings (shared with the ``warm_many`` implementations):

* memory events — one int per access, ``address << 2 | kind`` with kind
  0 = instruction fetch, 1 = load, 2 = store;
* branch events — four ints per branch, ``(kind, pc, taken, target)``
  with kind 0 = conditional, 1 = JAL, 2 = JR, 3 = JUMP.
"""

from __future__ import annotations

from repro.functional.simulator import INST_SIZE, FunctionalCore
from repro.functional.warming import FunctionalWarmer
from repro.isa.instruction import FP_REG_BASE
from repro.isa.opcodes import (  # branch-event kind codes, re-exported
    BRANCH_COND,
    BRANCH_JAL,
    BRANCH_JR,
    BRANCH_JUMP,
    Opcode,
)
from repro.isa.program import WORD_SIZE, Program

#: Upper bound on compiled-block length; longer straight-line stretches
#: chain into the lazily compiled block at the cut point.
MAX_BLOCK_LENGTH = 256

#: Memory warming events buffered before an intermediate warm_many flush.
FLUSH_EVENTS = 8192

#: Memory-event kind codes (low two bits of an event int).
EVENT_IFETCH = 0
EVENT_LOAD = 1
EVENT_STORE = 2

_WORD_SHIFT = WORD_SIZE.bit_length() - 1
_WORD_IS_POW2 = WORD_SIZE == 1 << _WORD_SHIFT

_IALU_BINOPS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.AND: "&",
    Opcode.OR: "|", Opcode.XOR: "^",
}
_COND_OPS = {
    Opcode.BEQ: "==", Opcode.BNE: "!=", Opcode.BLT: "<", Opcode.BGE: ">=",
}


# ----------------------------------------------------------------------
# Code generation helpers
# ----------------------------------------------------------------------
def _iread(reg: int | None) -> str:
    """Expression reading a register as an int (write_reg invariant:
    ``ir`` always holds ints, ``fr`` always holds floats)."""
    if reg is None or reg == 0:
        return "0"
    if reg >= FP_REG_BASE:
        return f"int(fr[{reg - FP_REG_BASE}])"
    return f"ir[{reg}]"


def _fread(reg: int | None) -> str:
    """Expression reading a register as a float."""
    if reg is None:
        return "0.0"
    if reg >= FP_REG_BASE:
        return f"fr[{reg - FP_REG_BASE}]"
    if reg == 0:
        return "0.0"
    return f"float(ir[{reg}])"


def _raw_read(reg: int) -> str:
    """Expression reading a register without conversion (store data)."""
    if reg >= FP_REG_BASE:
        return f"fr[{reg - FP_REG_BASE}]"
    if reg == 0:
        return "0"
    return f"ir[{reg}]"


def _write(rd: int, expr: str, kind: str) -> str | None:
    """Assignment statement mirroring ``ArchState.write_reg``.

    ``kind`` declares the value type of ``expr`` ("int" / "float") so
    the no-op conversions the interpreter performs on already-typed
    values can be skipped without changing results.
    """
    if rd >= FP_REG_BASE:
        value = expr if kind == "float" else f"float({expr})"
        return f"fr[{rd - FP_REG_BASE}] = {value}"
    if rd == 0:
        return None  # writes to integer r0 are discarded
    value = expr if kind == "int" else f"int({expr})"
    return f"ir[{rd}] = {value}"


def _align(expr: str) -> str:
    """Word-align expression matching ``ArchState.align`` exactly."""
    if _WORD_IS_POW2:
        return f"({expr}) >> {_WORD_SHIFT} << {_WORD_SHIFT}"
    return f"({expr}) // {WORD_SIZE} * {WORD_SIZE}"


class CompiledBlock:
    """One compiled basic block: metadata plus the two functional closures."""

    __slots__ = ("start", "length", "halts", "run_plain", "run_warm")

    def __init__(self, start: int, length: int, halts: bool,
                 run_plain, run_warm) -> None:
        self.start = start
        self.length = length
        self.halts = halts
        #: ``run_plain(ir, fr, mem) -> next_pc`` — architectural update only.
        self.run_plain = run_plain
        #: ``run_warm(ir, fr, mem, ev, ev2) -> next_pc`` — also appends
        #: the block's warming events to ``ev`` (memory) / ``ev2`` (branch).
        self.run_warm = run_warm


class DetailBlock:
    """One block compiled for the detailed timing model.

    ``run(ir, fr, mem, ev) -> next_pc`` updates the architectural state
    and appends the block's dynamic facts to ``ev`` in program order:
    the effective address of every load and store, then ``True`` /
    ``False`` for the outcome of a terminating conditional branch.
    Everything else the timing model needs is static per instruction.
    """

    __slots__ = ("start", "length", "halts", "run")

    def __init__(self, start: int, length: int, halts: bool, run) -> None:
        self.start = start
        self.length = length
        self.halts = halts
        self.run = run


def _compile_block(program: Program, start: int, leaders: frozenset[int],
                   detail: bool = False,
                   max_length: int = MAX_BLOCK_LENGTH):
    """Compile the block beginning at static index ``start``.

    The block extends until a control-flow instruction, ``HALT``, the
    next leader, the end of the program, or ``max_length`` instructions.
    Returns the functional closures as a :class:`CompiledBlock`, or with
    ``detail`` the detailed-model closure as a :class:`DetailBlock`.
    """
    instructions = program.instructions
    size = len(instructions)
    arch: list[str] = []        # statements shared by both variants
    warm_extra: dict[int, list[str]] = {}  # event statements keyed by arch pos
    detail_extra: dict[int, list[str]] = {}  # fact statements keyed by arch pos
    pending: list[int] = []     # static memory events awaiting a flush
    load_count = 0

    def emit(line: str | None) -> None:
        if line is not None:
            arch.append(line)

    def emit_event(line: str) -> None:
        warm_extra.setdefault(len(arch), []).append(line)

    def emit_fact(line: str) -> None:
        detail_extra.setdefault(len(arch), []).append(line)

    def flush_statics() -> None:
        if not pending:
            return
        if len(pending) == 1:
            emit_event(f"ap({pending[0]})")
        else:
            emit_event(f"ev.extend(({', '.join(map(str, pending))}))")
        pending.clear()

    pc = start
    length = 0
    halts = False
    terminator_plain: list[str] = []
    terminator_warm: list[str] = []
    terminator_detail: list[str] = []

    while pc < size and length < max_length:
        if length and pc in leaders:
            break  # fall into the next block; keep blocks non-overlapping
        inst = instructions[pc]
        op = inst.op
        pending.append((pc * INST_SIZE) << 2 | EVENT_IFETCH)
        rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm

        if op is Opcode.ADDI:
            a = _iread(rs1)
            emit(_write(rd, a if imm == 0 else f"{a} + {imm}", "int"))
        elif op is Opcode.SLTI:
            emit(_write(rd, f"1 if {_iread(rs1)} < {imm} else 0", "int"))
        elif op in _IALU_BINOPS:
            emit(_write(rd, f"{_iread(rs1)} {_IALU_BINOPS[op]} {_iread(rs2)}",
                        "int"))
        elif op is Opcode.SLL:
            emit(_write(rd, f"{_iread(rs1)} << ({_iread(rs2)} & 63)", "int"))
        elif op is Opcode.SRL:
            emit(_write(rd, f"{_iread(rs1)} >> ({_iread(rs2)} & 63)", "int"))
        elif op is Opcode.SLT:
            emit(_write(rd, f"1 if {_iread(rs1)} < {_iread(rs2)} else 0",
                        "int"))
        elif op is Opcode.MUL:
            emit(_write(rd, f"{_iread(rs1)} * {_iread(rs2)}", "int"))
        elif op is Opcode.DIV:
            a, b = _iread(rs1), _iread(rs2)
            emit(_write(rd, f"({a} // {b} if {b} != 0 else 0)", "int"))
        elif op is Opcode.MOD:
            a, b = _iread(rs1), _iread(rs2)
            emit(_write(rd, f"({a} % {b} if {b} != 0 else 0)", "int"))
        elif op is Opcode.FADD:
            emit(_write(rd, f"{_fread(rs1)} + {_fread(rs2)}", "float"))
        elif op is Opcode.FSUB:
            emit(_write(rd, f"{_fread(rs1)} - {_fread(rs2)}", "float"))
        elif op is Opcode.FMUL:
            emit(_write(rd, f"{_fread(rs1)} * {_fread(rs2)}", "float"))
        elif op is Opcode.FDIV:
            a, b = _fread(rs1), _fread(rs2)
            emit(_write(rd, f"({a} / {b} if {b} != 0.0 else 0.0)", "float"))
        elif op is Opcode.FSQRT:
            emit(_write(rd, f"abs({_fread(rs1)}) ** 0.5", "float"))
        elif op is Opcode.FNEG:
            emit(_write(rd, f"-{_fread(rs1)}", "float"))
        elif op is Opcode.CVTIF:
            emit(_write(rd, f"float(int({_fread(rs1)}))", "float"))
        elif op is Opcode.CVTFI:
            emit(_write(rd, f"int({_fread(rs1)})", "int"))
        elif inst.is_load:
            base = _iread(rs1)
            address = base if imm == 0 else f"{base} + {imm}"
            emit(f"a = {_align(address)}")
            flush_statics()
            emit_event(f"ap(a << 2 | {EVENT_LOAD})")
            emit_fact("ap(a)")
            load_count += 1
            if rd is not None:
                emit(_write(rd, "mg(a, 0)", "raw"))
        elif inst.is_store:
            base = _iread(rs1)
            address = base if imm == 0 else f"{base} + {imm}"
            emit(f"a = {_align(address)}")
            flush_statics()
            emit_event(f"ap(a << 2 | {EVENT_STORE})")
            emit_fact("ap(a)")
            emit(f"mem[a] = {_raw_read(rs2)}")
        elif inst.is_conditional:
            cmp = _COND_OPS[op]
            target = inst.target
            fall = pc + 1
            flush_statics()
            terminator_plain = [
                f"return {target} if {_iread(rs1)} {cmp} {_iread(rs2)} "
                f"else {fall}",
            ]
            terminator_warm = [
                f"if {_iread(rs1)} {cmp} {_iread(rs2)}:",
                f"    ev2.extend(({BRANCH_COND}, {pc}, 1, {target}))",
                f"    return {target}",
                f"ev2.extend(({BRANCH_COND}, {pc}, 0, {fall}))",
                f"return {fall}",
            ]
            terminator_detail = [
                f"if {_iread(rs1)} {cmp} {_iread(rs2)}:",
                "    ev.append(True)",
                f"    return {target}",
                "ev.append(False)",
                f"return {fall}",
            ]
        elif op is Opcode.JUMP:
            flush_statics()
            terminator_plain = [f"return {inst.target}"]
            terminator_warm = [
                f"ev2.extend(({BRANCH_JUMP}, {pc}, 1, {inst.target}))",
                f"return {inst.target}",
            ]
        elif op is Opcode.JAL:
            if rd is not None:
                emit(_write(rd, str(pc + 1), "int"))
            flush_statics()
            terminator_plain = [f"return {inst.target}"]
            terminator_warm = [
                f"ev2.extend(({BRANCH_JAL}, {pc}, 1, {inst.target}))",
                f"return {inst.target}",
            ]
        elif op is Opcode.JR:
            emit(f"t = {_iread(rs1)}")
            flush_statics()
            terminator_plain = ["return t"]
            terminator_warm = [
                f"ev2.extend(({BRANCH_JR}, {pc}, 1, t))",
                "return t",
            ]
        elif op is Opcode.HALT:
            halts = True
            flush_statics()
            terminator_plain = [f"return {pc + 1}"]
            terminator_warm = [f"return {pc + 1}"]
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - defensive, mirrors the interpreter
            raise ValueError(f"unhandled opcode {op!r} at {pc}")

        length += 1
        pc += 1
        if terminator_plain:
            break

    if not terminator_plain:
        # Fall through into the instruction after the block (possibly one
        # past the end of the program — the run loop halts there exactly
        # as the interpreter's bounds check does).
        flush_statics()
        terminator_plain = [f"return {pc}"]
        terminator_warm = [f"return {pc}"]

    def render(body: list[str], extra: dict[int, list[str]] | None,
               terminator: list[str], name: str, params: str) -> list[str]:
        lines = [f"def {name}({params}):"]
        if extra is not None and any("ap(" in s for stmts in extra.values()
                                     for s in stmts):
            lines.append("    ap = ev.append")
        if load_count:
            lines.append("    mg = mem.get")
        for position, statement in enumerate(body):
            if extra is not None:
                for event_line in extra.get(position, ()):
                    lines.append(f"    {event_line}")
            lines.append(f"    {statement}")
        if extra is not None:
            for event_line in extra.get(len(body), ()):
                lines.append(f"    {event_line}")
        for statement in terminator:
            lines.append(f"    {statement}")
        return lines

    if detail:
        source = "\n".join(
            render(arch, detail_extra, terminator_detail or terminator_plain,
                   "_detail", "ir, fr, mem, ev"))
    else:
        source = "\n".join(
            render(arch, None, terminator_plain, "_plain", "ir, fr, mem")
            + [""]
            + render(arch, warm_extra, terminator_warm, "_warm",
                     "ir, fr, mem, ev, ev2")
        )
    namespace: dict = {}
    exec(compile(source, f"<fastpath:{program.name}:{start}>", "exec"),
         namespace)
    if detail:
        return DetailBlock(start, length, halts, namespace["_detail"])
    return CompiledBlock(start, length, halts,
                         namespace["_plain"], namespace["_warm"])


class CompiledProgram:
    """All compiled blocks of one program, filled lazily by start pc."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.static_size = len(program.instructions)
        self.leaders = frozenset(program.basic_block_leaders())
        self._blocks: dict[int, CompiledBlock] = {}
        self._detail_blocks: dict[tuple[int, int], DetailBlock] = {}

    def block_at(self, pc: int) -> CompiledBlock:
        block = self._blocks.get(pc)
        if block is None:
            block = _compile_block(self.program, pc, self.leaders)
            self._blocks[pc] = block
        return block

    def detail_block_at(self, pc: int,
                        max_length: int = MAX_BLOCK_LENGTH) -> DetailBlock:
        """The detailed-model closure of the block at ``pc``.

        Compiled on first detailed execution, separately from the
        functional closures, so functional-only work never pays for it.
        ``max_length=1`` gives the one-instruction closures that finish
        a budget ending inside a block.
        """
        key = (pc, max_length)
        block = self._detail_blocks.get(key)
        if block is None:
            block = _compile_block(self.program, pc, self.leaders,
                                   detail=True, max_length=max_length)
            self._detail_blocks[key] = block
        return block

    @property
    def compiled_blocks(self) -> int:
        return len(self._blocks)


def compiled_program(program: Program) -> CompiledProgram:
    """The (memoized) compiled form of ``program``.

    Programs are immutable once built, so the compilation — like
    ``program_fingerprint`` — is cached on the program object itself and
    shared by every core over the program's lifetime.
    """
    cached = getattr(program, "_fastpath_compiled", None)
    if cached is None:
        cached = CompiledProgram(program)
        program._fastpath_compiled = cached
    return cached


# ----------------------------------------------------------------------
# The fast core
# ----------------------------------------------------------------------
class FastCore(FunctionalCore):
    """Drop-in :class:`FunctionalCore` executing block-at-a-time.

    Every bulk entry point executes compiled blocks whenever the
    remaining budget covers a whole block.  ``run``, ``run_warmed`` and
    ``trace_blocks`` fall back to the interpreter for partial-block
    remainders (and ``run`` for foreign callbacks); ``detail_chunks``,
    the detailed timing model's feed, executes a remainder through
    one-instruction compiled closures instead, so detailed simulation
    never steps the interpreter.  ``step`` is inherited unchanged.

    ``blocks_executed`` / ``fallback_instructions`` count closure calls
    and interpreter-stepped instructions — the count-based dispatch
    metric CI guards instead of wall-clock.
    """

    def __init__(self, program: Program,
                 max_instructions: int | None = None) -> None:
        super().__init__(program, max_instructions)
        self._compiled = compiled_program(program)
        self.blocks_executed = 0
        self.fallback_instructions = 0

    def _budget(self, count: int) -> int:
        if self.max_instructions is not None:
            return min(count, self.max_instructions - self.instructions_retired)
        return count

    # ------------------------------------------------------------------
    # Bulk execution
    # ------------------------------------------------------------------
    def run(self, count, callback=None):
        if callback is None:
            return self._run_plain(count)
        if isinstance(callback, FunctionalWarmer):
            return self.run_warmed(count, callback)
        executed = super().run(count, callback)
        self.fallback_instructions += executed
        return executed

    def _run_plain(self, count: int) -> int:
        if count <= 0:
            return 0
        state = self.state
        budget = self._budget(count)
        executed = 0
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        block_at = self._compiled.block_at
        size = self._compiled.static_size
        pc = state.pc
        halted = state.halted
        while executed < budget and not halted:
            if pc < 0 or pc >= size:
                state.halted = halted = True
                break
            block = block_at(pc)
            length = block.length
            if executed + length > budget:
                break
            pc = block.run_plain(ir, fr, mem)
            executed += length
            self.blocks_executed += 1
            if block.halts:
                state.halted = halted = True
        state.pc = pc
        self.instructions_retired += executed
        if executed < count and not self.halted:
            stepped = FunctionalCore.run(self, count - executed)
            self.fallback_instructions += stepped
            executed += stepped
        return executed

    def run_warmed(self, count, warmer, written=None):
        if count <= 0:
            return 0
        state = self.state
        budget = self._budget(count)
        executed = 0
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        block_at = self._compiled.block_at
        size = self._compiled.static_size
        microarch = warmer.microarch
        hierarchy = microarch.hierarchy
        branch_unit = microarch.branch_unit
        events: list[int] = []
        branch_events: list[int] = []
        pc = state.pc
        halted = state.halted
        while executed < budget and not halted:
            if pc < 0 or pc >= size:
                state.halted = halted = True
                break
            block = block_at(pc)
            length = block.length
            if executed + length > budget:
                break
            pc = block.run_warm(ir, fr, mem, events, branch_events)
            executed += length
            self.blocks_executed += 1
            if block.halts:
                state.halted = halted = True
            if len(events) >= FLUSH_EVENTS:
                self._flush_events(hierarchy, branch_unit,
                                   events, branch_events, written)
        state.pc = pc
        self.instructions_retired += executed
        self._flush_events(hierarchy, branch_unit, events, branch_events,
                           written)
        warmer.instructions_warmed += executed
        if executed < count and not self.halted:
            stepped = FunctionalCore.run_warmed(self, count - executed,
                                                warmer, written)
            self.fallback_instructions += stepped
            executed += stepped
        return executed

    # ------------------------------------------------------------------
    # Chunked execution
    # ------------------------------------------------------------------
    def detail_chunks(self, count, statics):
        state = self.state
        budget = self._budget(count)
        compiled = self._compiled
        detail_block_at = compiled.detail_block_at
        size = compiled.static_size
        by_pc, block_records = statics.by_pc, statics.blocks
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        executed = 0
        while executed < budget and not state.halted:
            pc = state.pc
            if pc < 0 or pc >= size:
                state.halted = True
                return
            entry = block_records.get(pc)
            if entry is None:
                block = detail_block_at(pc)
                entry = block_records[pc] = (block,
                                             by_pc[pc:pc + block.length])
            block, records = entry
            length = block.length
            if executed + length > budget:  # budget ends inside the block
                block = detail_block_at(pc, 1)
                records = by_pc[pc:pc + 1]
                length = 1
            facts: list = []
            state.pc = next_pc = block.run(ir, fr, mem, facts)
            executed += length
            self.instructions_retired += length
            self.blocks_executed += 1
            if block.halts:
                state.halted = True
            yield records, facts, next_pc

    def trace_blocks(self, count):
        state = self.state
        budget = self._budget(count)
        block_at = self._compiled.block_at
        size = self._compiled.static_size
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        executed = 0
        while executed < budget and not state.halted:
            pc = state.pc
            if pc < 0 or pc >= size:
                state.halted = True
                break
            block = block_at(pc)
            length = block.length
            if executed + length > budget:
                break
            state.pc = block.run_plain(ir, fr, mem)
            executed += length
            self.instructions_retired += length
            self.blocks_executed += 1
            if block.halts:
                state.halted = True
            yield pc, length
        if executed < count and not self.halted:
            for chunk in FunctionalCore.trace_blocks(self, count - executed):
                self.fallback_instructions += 1
                yield chunk

    @staticmethod
    def _flush_events(hierarchy, branch_unit, events, branch_events,
                      written) -> None:
        """Drain buffered warming events into the bulk warmers.

        Memory events must drain before any per-instruction fallback
        touches the hierarchy, so callers flush at every boundary.
        """
        if events:
            hierarchy.warm_many(events)
            if written is not None:
                add = written.add
                for event in events:
                    if event & 3 == EVENT_STORE:
                        add(event >> 2)
            events.clear()
        if branch_events:
            branch_unit.warm_many(branch_events)
            branch_events.clear()
