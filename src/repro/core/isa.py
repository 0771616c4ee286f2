"""RISC-V ISA extension for Mix-GEMM: ``bs.set``, ``bs.ip``, ``bs.get``.

The paper extends RV64G with three single-cycle R-type instructions
(Section III-A/III-B):

* ``bs.set rs1``        -- load the micro-engine Control Unit configuration.
* ``bs.ip rs1, rs2``    -- push one u-vector pair into the Source Buffers.
* ``bs.get rd, rs1``    -- read one AccMem slot (a C u-panel element).

This module provides the instruction-level view: a faithful 32-bit R-type
encoding under the *custom-0* opcode, an encoder/decoder pair, and the
dataclasses the simulator consumes as its instruction stream.  The GEMM
library emits these as intrinsics; the CPU timing model charges each a
single issue cycle, exactly as the paper's in-order core does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .errors import ReproError

#: RISC-V custom-0 major opcode (inst[6:0]) reserved for vendor extensions.
CUSTOM0_OPCODE = 0b0001011

# ---------------------------------------------------------------------------
# ISA cost table
# ---------------------------------------------------------------------------
#
# This module is one of the two homes (with core/config.py and the
# analysis/cost/ model that consumes them) where cycle costs may be
# spelled as literals -- lint rule REP013 flags them anywhere else.

#: Issue cost, in CPU cycles, of ``bs.set``: single-issue R-type.
BS_SET_COST = 1

#: Issue cost, in CPU cycles, of ``bs.ip`` (stalls on full Source
#: Buffers are modelled separately by the micro-engine, not here).
BS_IP_COST = 1

#: Issue cost, in CPU cycles, of ``bs.get`` (stalls waiting on the
#: engine to drain are modelled separately).
BS_GET_COST = 1

# The scalar-core work around the intrinsics.  The paper's Sargantana
# host is a 7-stage, in-order, single-issue core: every instruction
# occupies the issue slot for one cycle and the u-engine overlaps with
# independent loads/branches (Section III-B).  These four were fixed
# once against the steady-state a8-w8 speedup of Section IV-B and never
# re-tuned per configuration; the cross-configuration scaling then
# *emerges* from the DSU schedule.

#: Cycles per u-vector load into the register file (the RF holds the
#: current ``kua*mr + kub*nr`` u-vectors, so each is loaded from L1
#: once per k-group).
LOAD_COST = 1

#: Address generation/branch cycles per innermost (i, j) iteration
#: that the compiler cannot fold away.
INNER_LOOP_OVERHEAD = 4

#: Per-k-group pointer bumps (LoadNextAddress in Algorithm 1).
KGROUP_OVERHEAD = 4

#: Load + add + store per output element when folding the collected
#: u-panel into C.
C_UPDATE_COST = 3

#: name -> cycles: the whole cost table.  These are the only primitive
#: cycle constants in the repository (REP013); the closed-form cost
#: model (:mod:`repro.analysis.cost`) derives every per-phase term from
#: them, and its calibration cache is keyed by this table's digest.
ISA_COST_TABLE = {
    "bs.set": BS_SET_COST,
    "bs.ip": BS_IP_COST,
    "bs.get": BS_GET_COST,
    "load": LOAD_COST,
    "inner_loop_overhead": INNER_LOOP_OVERHEAD,
    "kgroup_overhead": KGROUP_OVERHEAD,
    "c_update": C_UPDATE_COST,
}


class BsFunct3(enum.IntEnum):
    """funct3 selector distinguishing the three Mix-GEMM instructions."""

    SET = 0b000
    IP = 0b001
    GET = 0b010


class IsaError(ReproError, ValueError):
    """Raised on malformed encodings or out-of-range register indices."""


def _check_reg(idx: int, name: str) -> None:
    if not 0 <= idx <= 31:
        raise IsaError(f"{name}={idx} is not a valid RV register index")


def encode_rtype(funct3: int, rd: int, rs1: int, rs2: int,
                 funct7: int = 0) -> int:
    """Assemble a 32-bit R-type instruction word under custom-0."""
    _check_reg(rd, "rd")
    _check_reg(rs1, "rs1")
    _check_reg(rs2, "rs2")
    if not 0 <= funct7 < 128:
        raise IsaError(f"funct7 out of range: {funct7}")
    return (
        (funct7 << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (rd << 7)
        | CUSTOM0_OPCODE
    )


def decode_rtype(word: int) -> tuple[BsFunct3, int, int, int, int]:
    """Disassemble a custom-0 R-type word -> (funct3, rd, rs1, rs2, funct7)."""
    if word & 0x7F != CUSTOM0_OPCODE:
        raise IsaError(f"not a custom-0 instruction: {word:#010x}")
    funct3 = (word >> 12) & 0x7
    try:
        f3 = BsFunct3(funct3)
    except ValueError as exc:
        raise IsaError(f"unknown funct3 {funct3:#b} in {word:#010x}") from exc
    rd = (word >> 7) & 0x1F
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F
    return f3, rd, rs1, rs2, funct7


_MNEMONICS = {
    BsFunct3.SET: "bs.set",
    BsFunct3.IP: "bs.ip",
    BsFunct3.GET: "bs.get",
}


def assemble(mnemonic: str, rd: int = 0, rs1: int = 0,
             rs2: int = 0) -> int:
    """Assemble a bs.* instruction from its mnemonic."""
    lookup = {v: k for k, v in _MNEMONICS.items()}
    try:
        funct3 = lookup[mnemonic]
    except KeyError:
        raise IsaError(f"unknown mnemonic: {mnemonic}") from None
    return encode_rtype(funct3, rd, rs1, rs2)


def disassemble(word: int) -> str:
    """Human-readable form of a bs.* instruction word.

    Register operands follow the RISC-V assembly convention:
    ``bs.ip x0, x10, x11``.
    """
    funct3, rd, rs1, rs2, _ = decode_rtype(word)
    return f"{_MNEMONICS[funct3]} x{rd}, x{rs1}, x{rs2}"


# ---------------------------------------------------------------------------
# Configuration word layout for bs.set
# ---------------------------------------------------------------------------

#: Field layout (lsb, width) of the 64-bit rs1 payload bs.set transfers into
#: the Control Unit.  Mirrors the paper's list of Control Unit parameters:
#: data sizes, signedness, cluster size, clustering width, inner-product
#: length and the product slice to extract.
SET_FIELDS = {
    "bw_a": (0, 4),
    "bw_b": (4, 4),
    "signed_a": (8, 1),
    "signed_b": (9, 1),
    "cluster_size": (10, 4),
    "cw": (14, 6),
    "kua": (20, 3),
    "kub": (23, 3),
    "ip_length": (26, 12),
    "slice_lsb": (38, 7),
}


def pack_set_payload(**fields: int) -> int:
    """Pack named Control-Unit fields into the bs.set rs1 payload."""
    word = 0
    for name, value in fields.items():
        if name not in SET_FIELDS:
            raise IsaError(f"unknown bs.set field: {name}")
        lsb, width = SET_FIELDS[name]
        value = int(value)
        if not 0 <= value < (1 << width):
            raise IsaError(
                f"bs.set field {name}={value} does not fit {width} bits"
            )
        word |= value << lsb
    return word


def unpack_set_payload(word: int) -> dict[str, int]:
    """Inverse of :func:`pack_set_payload`."""
    return {
        name: (word >> lsb) & ((1 << width) - 1)
        for name, (lsb, width) in SET_FIELDS.items()
    }


# ---------------------------------------------------------------------------
# Instruction-stream dataclasses consumed by the simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BsSet:
    """``bs.set``: (re)configure the Control Unit; single cycle."""

    payload: int

    @property
    def mnemonic(self) -> str:
        return "bs.set"


@dataclass(frozen=True)
class BsIp:
    """``bs.ip``: push a u-vector pair toward the Source Buffers.

    ``a_word``/``b_word`` carry the packed 64-bit u-vectors; ``push_a`` /
    ``push_b`` model the Control Unit suppressing a push once the current
    group's ``kua`` / ``kub`` u-vectors of that stream have been delivered
    (Algorithm 1 line 7 issues a zero operand past ``kub``; the mirror case
    arises when the B stream needs more words than the A stream).
    """

    a_word: int
    b_word: int
    push_a: bool = True
    push_b: bool = True

    @property
    def mnemonic(self) -> str:
        return "bs.ip"


@dataclass(frozen=True)
class BsGet:
    """``bs.get``: read one AccMem slot into ``rd``; single cycle."""

    slot: int

    @property
    def mnemonic(self) -> str:
        return "bs.get"


BsInstruction = Union[BsSet, BsIp, BsGet]


@dataclass
class InstructionStream:
    """Ordered list of micro-engine instructions plus bookkeeping counters.

    The GEMM library records its issue trace here; the SoC simulator then
    replays it against the cycle model.  Keeping the trace explicit lets
    tests assert instruction counts the paper reasons about (e.g. the number
    of bs.ip per u-kernel and the mr*nr bs.get collection loop).
    """

    instructions: list[BsInstruction] = field(default_factory=list)

    def append(self, instr: BsInstruction) -> None:
        self.instructions.append(instr)

    def extend(self, instrs: Iterable[BsInstruction]) -> None:
        self.instructions.extend(instrs)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[BsInstruction]:
        return iter(self.instructions)

    def count(self, mnemonic: str) -> int:
        return sum(1 for i in self.instructions if i.mnemonic == mnemonic)
