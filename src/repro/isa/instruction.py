"""Static instructions and dynamic instruction records.

A :class:`Instruction` is a static program element (one entry of a
:class:`~repro.isa.program.Program`).  A :class:`DynInst` is one executed
instance of an instruction produced by the functional core; it carries
everything the timing and warming models need (source/destination
registers, the effective address of memory operations, and the resolved
control-flow outcome) without retaining any architectural values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import (
    CONDITIONAL_BRANCHES,
    CONTROL_FLOW,
    LOAD_OPS,
    OPCODE_CLASS,
    STORE_OPS,
    OpClass,
    Opcode,
)

#: Number of architectural integer registers (r0 is hard-wired to zero).
NUM_INT_REGS = 32
#: Number of architectural floating point registers.
NUM_FP_REGS = 32

#: Register identifiers are flattened into a single namespace so that the
#: detailed simulator can track dependences with one table: integer
#: register ``rN`` maps to ``N`` and floating point register ``fN`` maps
#: to ``NUM_INT_REGS + N``.
FP_REG_BASE = NUM_INT_REGS


def int_reg(index: int) -> int:
    """Flattened identifier of integer register ``index``."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return index


def fp_reg(index: int) -> int:
    """Flattened identifier of floating point register ``index``."""
    if not 0 <= index < NUM_FP_REGS:
        raise ValueError(f"fp register index out of range: {index}")
    return FP_REG_BASE + index


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Operand meaning by opcode family:

    * ALU ops: ``rd <- rs1 OP rs2`` (or ``imm`` for immediate forms).
    * Loads: ``rd <- mem[rs1 + imm]``; stores: ``mem[rs1 + imm] <- rs2``.
    * Conditional branches compare ``rs1`` and ``rs2`` and jump to
      ``target`` (a static instruction index once the program has been
      finalized).
    * ``JAL`` writes the return index into ``rd``; ``JR`` jumps to the
      instruction index held in ``rs1``.

    Register fields refer to the *flattened* register namespace of
    :func:`int_reg` / :func:`fp_reg`.
    """

    op: Opcode
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int = 0
    target: int | str | None = None
    label: str | None = None

    @property
    def opclass(self) -> OpClass:
        """Scheduling class of this instruction."""
        return OPCODE_CLASS[self.op]

    @property
    def is_branch(self) -> bool:
        return self.op in CONTROL_FLOW

    @property
    def is_conditional(self) -> bool:
        return self.op in CONDITIONAL_BRANCHES

    @property
    def is_load(self) -> bool:
        return self.op in LOAD_OPS

    @property
    def is_store(self) -> bool:
        return self.op in STORE_OPS

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    def source_regs(self) -> tuple[int, ...]:
        """Flattened identifiers of all source registers."""
        srcs = []
        if self.rs1 is not None:
            srcs.append(self.rs1)
        if self.rs2 is not None:
            srcs.append(self.rs2)
        return tuple(srcs)

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        parts = [self.op.name.lower()]
        if self.rd is not None:
            parts.append(f"d{self.rd}")
        if self.rs1 is not None:
            parts.append(f"s{self.rs1}")
        if self.rs2 is not None:
            parts.append(f"s{self.rs2}")
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"@{self.target}")
        return " ".join(parts)


class DynInst:
    """One dynamically executed instruction.

    Produced by the interpreter's ``FunctionalCore.step``
    (`repro.functional.simulator`), the readable reference execution:
    its per-instruction warming and its feed of the detailed timing
    model consume these records.  The trace-compiled engine
    (`repro.functional.fastpath`) creates none on its hot paths; it
    passes flat event lists and per-block dynamic facts instead.  The
    class uses ``__slots__`` and plain attributes to keep the reference
    path cheap.
    """

    __slots__ = (
        "seq",
        "pc",
        "op",
        "opclass",
        "rd",
        "srcs",
        "mem_addr",
        "is_load",
        "is_store",
        "is_branch",
        "is_conditional",
        "taken",
        "next_pc",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: Opcode,
        opclass: OpClass,
        rd: int | None,
        srcs: tuple[int, ...],
        mem_addr: int | None,
        is_load: bool,
        is_store: bool,
        is_branch: bool,
        is_conditional: bool,
        taken: bool,
        next_pc: int,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.opclass = opclass
        self.rd = rd
        self.srcs = srcs
        self.mem_addr = mem_addr
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_conditional = is_conditional
        self.taken = taken
        self.next_pc = next_pc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DynInst(seq={self.seq}, pc={self.pc}, op={self.op.name}, "
            f"addr={self.mem_addr}, taken={self.taken}, next={self.next_pc})"
        )


@dataclass
class InstructionMix:
    """Counts of executed instructions by scheduling class."""

    counts: dict[OpClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in OpClass}
    )

    def record(self, opclass: OpClass) -> None:
        self.counts[opclass] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, opclass: OpClass) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return self.counts[opclass] / total

    def as_dict(self) -> dict[str, float]:
        """Instruction mix as ``{class name: fraction}``."""
        return {cls.name: self.fraction(cls) for cls in OpClass}
