"""Pure evaluation of instruction semantics (no timing).

The out-of-order core calls these helpers at execute time; the litmus and
reference interpreters reuse them so that functional behaviour has exactly
one definition.
"""

from __future__ import annotations

from repro.common.errors import ProgramError
from repro.isa.instructions import (
    Alu,
    AluOp,
    AtomicKind,
    AtomicRMW,
    Branch,
    BranchCond,
)
from repro.isa.registers import truncate

_SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Interpret a 64-bit register value as signed."""
    value = truncate(value)
    return value - (1 << 64) if value & _SIGN_BIT else value


def evaluate_alu(instruction: Alu, src1: int, src2: int) -> int:
    """Compute the result of an ALU instruction from operand values."""
    op = instruction.op
    if op is AluOp.ADD:
        return truncate(src1 + src2)
    if op is AluOp.SUB:
        return truncate(src1 - src2)
    if op is AluOp.AND:
        return truncate(src1 & src2)
    if op is AluOp.OR:
        return truncate(src1 | src2)
    if op is AluOp.XOR:
        return truncate(src1 ^ src2)
    if op is AluOp.MUL:
        return truncate(src1 * src2)
    if op is AluOp.MOV:
        return truncate(src1)
    if op is AluOp.SHL:
        return truncate(src1 << (src2 & 63))
    if op is AluOp.SHR:
        return truncate(src1) >> (src2 & 63)
    if op is AluOp.CMP_LT:
        return 1 if to_signed(src1) < to_signed(src2) else 0
    if op is AluOp.CMP_EQ:
        return 1 if truncate(src1) == truncate(src2) else 0
    if op is AluOp.NOP:
        return 0
    raise ProgramError(f"unknown ALU op: {op!r}")


def evaluate_branch(instruction: Branch, src1: int, src2: int) -> bool:
    """True when the branch is taken."""
    cond = instruction.cond
    if cond is BranchCond.ALWAYS:
        return True
    if cond is BranchCond.EQ:
        return truncate(src1) == truncate(src2)
    if cond is BranchCond.NE:
        return truncate(src1) != truncate(src2)
    if cond is BranchCond.LT:
        return to_signed(src1) < to_signed(src2)
    if cond is BranchCond.GE:
        return to_signed(src1) >= to_signed(src2)
    raise ProgramError(f"unknown branch condition: {cond!r}")


# -- decode-time folded evaluators ---------------------------------------
#
# One tiny function per ALU op / branch condition with the 64-bit masks
# inlined.  The decode cache binds the matching function onto each static
# position (``DecodedOp.alu_fn`` / ``branch_fn``) so the execute stage
# pays a single call instead of walking the enum dispatch chains above.
# Each function is value-identical to the corresponding ``evaluate_*``
# branch (the interpreters keep using the chains; the pipeline-vs-
# reference-interpreter property test checks the two agree).

_MASK64 = (1 << 64) - 1
_WRAP64 = 1 << 64


def _alu_add(a: int, b: int) -> int:
    return (a + b) & _MASK64


def _alu_sub(a: int, b: int) -> int:
    return (a - b) & _MASK64


def _alu_and(a: int, b: int) -> int:
    return (a & b) & _MASK64


def _alu_or(a: int, b: int) -> int:
    return (a | b) & _MASK64


def _alu_xor(a: int, b: int) -> int:
    return (a ^ b) & _MASK64


def _alu_mul(a: int, b: int) -> int:
    return (a * b) & _MASK64


def _alu_mov(a: int, b: int) -> int:
    return a & _MASK64


def _alu_shl(a: int, b: int) -> int:
    return (a << (b & 63)) & _MASK64


def _alu_shr(a: int, b: int) -> int:
    return (a & _MASK64) >> (b & 63)


def _alu_cmp_lt(a: int, b: int) -> int:
    a &= _MASK64
    b &= _MASK64
    if a & _SIGN_BIT:
        a -= _WRAP64
    if b & _SIGN_BIT:
        b -= _WRAP64
    return 1 if a < b else 0


def _alu_cmp_eq(a: int, b: int) -> int:
    return 1 if (a & _MASK64) == (b & _MASK64) else 0


def _alu_nop(a: int, b: int) -> int:
    return 0


#: Per-op folded ALU evaluators, ``fn(src1, src2) -> result``.
ALU_FN = {
    AluOp.ADD: _alu_add,
    AluOp.SUB: _alu_sub,
    AluOp.AND: _alu_and,
    AluOp.OR: _alu_or,
    AluOp.XOR: _alu_xor,
    AluOp.MUL: _alu_mul,
    AluOp.MOV: _alu_mov,
    AluOp.SHL: _alu_shl,
    AluOp.SHR: _alu_shr,
    AluOp.CMP_LT: _alu_cmp_lt,
    AluOp.CMP_EQ: _alu_cmp_eq,
    AluOp.NOP: _alu_nop,
}


def _br_always(a: int, b: int) -> bool:
    return True


def _br_eq(a: int, b: int) -> bool:
    return (a & _MASK64) == (b & _MASK64)


def _br_ne(a: int, b: int) -> bool:
    return (a & _MASK64) != (b & _MASK64)


def _br_lt(a: int, b: int) -> bool:
    a &= _MASK64
    b &= _MASK64
    if a & _SIGN_BIT:
        a -= _WRAP64
    if b & _SIGN_BIT:
        b -= _WRAP64
    return a < b


def _br_ge(a: int, b: int) -> bool:
    a &= _MASK64
    b &= _MASK64
    if a & _SIGN_BIT:
        a -= _WRAP64
    if b & _SIGN_BIT:
        b -= _WRAP64
    return a >= b


#: Per-condition folded branch evaluators, ``fn(src1, src2) -> taken``.
BRANCH_FN = {
    BranchCond.ALWAYS: _br_always,
    BranchCond.EQ: _br_eq,
    BranchCond.NE: _br_ne,
    BranchCond.LT: _br_lt,
    BranchCond.GE: _br_ge,
}


def evaluate_atomic(
    instruction: AtomicRMW, old_value: int, operand: int, expected: int
) -> int:
    """The *new* value an atomic RMW writes, given the value it read."""
    kind = instruction.kind
    if kind is AtomicKind.FETCH_ADD:
        return truncate(old_value + operand)
    if kind is AtomicKind.EXCHANGE:
        return truncate(operand)
    if kind is AtomicKind.COMPARE_AND_SWAP:
        return truncate(operand) if truncate(old_value) == truncate(expected) else truncate(old_value)
    if kind is AtomicKind.TEST_AND_SET:
        return 1
    if kind is AtomicKind.FETCH_OR:
        return truncate(old_value | operand)
    if kind is AtomicKind.FETCH_AND:
        return truncate(old_value & operand)
    raise ProgramError(f"unknown atomic kind: {kind!r}")
