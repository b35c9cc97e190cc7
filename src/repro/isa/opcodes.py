"""Instruction opcodes and operation classes for the repro RISC-like ISA.

The ISA is deliberately small: it exists to drive the functional and
detailed simulators (`repro.functional`, `repro.detailed`) with programs
whose dynamic behaviour (branching, memory locality, instruction mix)
spans the space the SMARTS paper studies on SPEC CPU2000.  Opcodes are
plain ``IntEnum`` members so dynamic-instruction records stay cheap.
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """Every instruction opcode understood by the simulators."""

    # Integer ALU
    ADD = 1
    SUB = 2
    ADDI = 3
    AND = 4
    OR = 5
    XOR = 6
    SLL = 7
    SRL = 8
    SLT = 9
    SLTI = 10

    # Integer multiply / divide
    MUL = 20
    DIV = 21
    MOD = 22

    # Floating point
    FADD = 30
    FSUB = 31
    FMUL = 32
    FDIV = 33
    FSQRT = 34
    FNEG = 35
    CVTIF = 36  # int reg -> fp reg
    CVTFI = 37  # fp reg -> int reg

    # Memory
    LOAD = 40    # int load:  rd  <- mem[rs1 + imm]
    STORE = 41   # int store: mem[rs1 + imm] <- rs2
    FLOAD = 42   # fp load:   fd  <- mem[rs1 + imm]
    FSTORE = 43  # fp store:  mem[rs1 + imm] <- fs2

    # Control flow
    BEQ = 50
    BNE = 51
    BLT = 52
    BGE = 53
    JUMP = 54   # unconditional direct jump
    JAL = 55    # jump and link (rd <- return index)
    JR = 56     # indirect jump through int register

    # Miscellaneous
    NOP = 60
    HALT = 61


class OpClass(enum.IntEnum):
    """Functional-unit / scheduling class of an instruction.

    The detailed timing model assigns execution latency and functional
    unit requirements per class (Table 3 of the paper lists the per-class
    functional unit counts for the 8-way and 16-way configurations).
    """

    IALU = 0
    IMULT = 1
    FPALU = 2
    FPMULT = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6
    NOP = 7


#: Static mapping from opcode to scheduling class.
OPCODE_CLASS: dict[Opcode, OpClass] = {
    Opcode.ADD: OpClass.IALU,
    Opcode.SUB: OpClass.IALU,
    Opcode.ADDI: OpClass.IALU,
    Opcode.AND: OpClass.IALU,
    Opcode.OR: OpClass.IALU,
    Opcode.XOR: OpClass.IALU,
    Opcode.SLL: OpClass.IALU,
    Opcode.SRL: OpClass.IALU,
    Opcode.SLT: OpClass.IALU,
    Opcode.SLTI: OpClass.IALU,
    Opcode.MUL: OpClass.IMULT,
    Opcode.DIV: OpClass.IMULT,
    Opcode.MOD: OpClass.IMULT,
    Opcode.FADD: OpClass.FPALU,
    Opcode.FSUB: OpClass.FPALU,
    Opcode.FNEG: OpClass.FPALU,
    Opcode.CVTIF: OpClass.FPALU,
    Opcode.CVTFI: OpClass.FPALU,
    Opcode.FMUL: OpClass.FPMULT,
    Opcode.FDIV: OpClass.FPMULT,
    Opcode.FSQRT: OpClass.FPMULT,
    Opcode.LOAD: OpClass.LOAD,
    Opcode.FLOAD: OpClass.LOAD,
    Opcode.STORE: OpClass.STORE,
    Opcode.FSTORE: OpClass.STORE,
    Opcode.BEQ: OpClass.BRANCH,
    Opcode.BNE: OpClass.BRANCH,
    Opcode.BLT: OpClass.BRANCH,
    Opcode.BGE: OpClass.BRANCH,
    Opcode.JUMP: OpClass.BRANCH,
    Opcode.JAL: OpClass.BRANCH,
    Opcode.JR: OpClass.BRANCH,
    Opcode.NOP: OpClass.NOP,
    Opcode.HALT: OpClass.NOP,
}

#: Conditional branches (outcome depends on register values).
CONDITIONAL_BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}
)

#: Branches whose target is not known from the static instruction alone.
INDIRECT_BRANCHES = frozenset({Opcode.JR})

#: All control-flow opcodes.
CONTROL_FLOW = frozenset(
    {
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.JUMP,
        Opcode.JAL,
        Opcode.JR,
    }
)

#: Branch-kind codes: the ``kind`` argument of
#: :meth:`repro.branch.unit.BranchUnit.resolve_branch`, the first int of a
#: fast-path branch warming event, and the branch field of the detailed
#: pipeline's static instruction records.
BRANCH_COND = 0
BRANCH_JAL = 1
BRANCH_JR = 2
BRANCH_JUMP = 3

#: Branch kind of every control-flow opcode.
BRANCH_KIND: dict[Opcode, int] = {
    Opcode.BEQ: BRANCH_COND,
    Opcode.BNE: BRANCH_COND,
    Opcode.BLT: BRANCH_COND,
    Opcode.BGE: BRANCH_COND,
    Opcode.JAL: BRANCH_JAL,
    Opcode.JR: BRANCH_JR,
    Opcode.JUMP: BRANCH_JUMP,
}

#: Memory opcodes.
MEMORY_OPS = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.FLOAD, Opcode.FSTORE})
LOAD_OPS = frozenset({Opcode.LOAD, Opcode.FLOAD})
STORE_OPS = frozenset({Opcode.STORE, Opcode.FSTORE})


def op_class(op: Opcode) -> OpClass:
    """Return the scheduling class of ``op``."""
    return OPCODE_CLASS[op]
