"""Concatenated encodings of qubit registers and their recovery.

Two block codes are supported: the three-qubit repetition code, which
protects against bit flips and admits coherent majority decoding, and the
Bell-pair code, which maps each digit onto a two-qubit Bell state.  Both
concatenate level by level; level 1 is always the innermost encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable

from .construct import MAX_ENTRIES, MAX_QUDITS
from .errors import CodeError, GuardExceededError
from .states import Amplitude, SparseState, superpose


class CodeKind(Enum):
    BIT_FLIP = "bitflip"
    BELL_PAIR = "bellpair"

    @property
    def block_arity(self) -> int:
        return 3 if self is CodeKind.BIT_FLIP else 2


@dataclass(frozen=True)
class CodeSpec:
    """A code family together with its concatenation depth."""

    kind: CodeKind
    levels: int

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise CodeError(f"levels must be >= 1, got {self.levels}")

    @property
    def block_arity(self) -> int:
        return self.kind.block_arity


def _encode_repetition(state: SparseState, levels: int) -> SparseState:
    # Concatenating the three-fold repetition L times repeats each digit 3**L
    # times, so all levels are one pass of whole runs.
    copies = 3**levels
    runs = ((0,) * copies, (1,) * copies)
    entries = {
        tuple(chain.from_iterable(map(runs.__getitem__, key))): amp
        for key, amp in state.entries.items()
    }
    return SparseState._trusted(2, copies * state.num_qudits, state.phase_order, entries)


def _encode_bell(state: SparseState) -> SparseState:
    # Digit 0 becomes (|01> + |10>)/sqrt(2), digit 1 the minus pair.  Distinct
    # input components can expand onto shared basis strings, so the pieces go
    # through superpose for exact doubling and cancellation.
    order = state.phase_order
    half_turn = order // 2
    terms: list[tuple[int, SparseState]] = []
    for key, amp in state.entries.items():
        expansion: dict[tuple[int, ...], Amplitude] = {(): amp}
        for digit in key:
            grown: dict[tuple[int, ...], Amplitude] = {}
            for prefix, acc in expansion.items():
                halved = acc.times_inv_sqrt(2)
                grown[prefix + (0, 1)] = halved
                grown[prefix + (1, 0)] = halved if digit == 0 else halved.shifted(half_turn, order)
            expansion = grown
        terms.append((0, SparseState._trusted(2, 2 * state.num_qudits, order, expansion)))
    return superpose(terms)


def encode(state: SparseState, spec: CodeSpec) -> SparseState:
    """Concatenate ``spec.levels`` encoding passes over a qubit register."""
    if state.local_dim != 2:
        raise CodeError("encoding is defined for qubit registers")
    if state.num_qudits * spec.block_arity**spec.levels > MAX_QUDITS:
        raise GuardExceededError(f"encoded register would exceed {MAX_QUDITS} qubits")
    if spec.kind is CodeKind.BIT_FLIP:
        # Repetition keeps the number of entries, so one check covers all levels.
        if len(state.entries) > MAX_ENTRIES:
            raise GuardExceededError(f"encoded state exceeds {MAX_ENTRIES} entries")
        return _encode_repetition(state, spec.levels)
    current = state
    for _ in range(spec.levels):
        if len(current.entries) << current.num_qudits > MAX_ENTRIES:
            raise GuardExceededError(f"encoded state would exceed {MAX_ENTRIES} entries")
        current = _encode_bell(current)
        if len(current.entries) > MAX_ENTRIES:
            raise GuardExceededError(f"encoded state exceeds {MAX_ENTRIES} entries")
    return current


def inject_errors(state: SparseState, positions: Iterable[int]) -> SparseState:
    """Apply a bit flip at each listed qubit position (all distinct)."""
    ordered = list(positions)
    if len(set(ordered)) != len(ordered):
        raise ValueError(f"error positions must be distinct, got {ordered}")
    return state._bit_flipped(ordered)


@dataclass(frozen=True)
class DecodeReport:
    """Decoded register plus the (level, block) corrections that were applied.

    ``success`` is True whenever decoding ran to completion; inconsistent or
    colliding error patterns raise :class:`CodeError` instead.
    """

    decoded: SparseState
    corrections: tuple[tuple[int, int], ...]
    success: bool


def decode_majority(state: SparseState, spec: CodeSpec) -> DecodeReport:
    """Peel repetition-code levels by majority vote, innermost first.

    Every superposition component must show the same flipped-block pattern at
    each level, and no two components may merge after a vote; either defect
    raises :class:`CodeError`.
    """
    if spec.kind is not CodeKind.BIT_FLIP:
        raise CodeError("majority decoding applies to the repetition code only")
    if state.local_dim != 2:
        raise CodeError("decoding is defined for qubit registers")
    if state.num_qudits % 3**spec.levels != 0:
        raise CodeError(
            f"{state.num_qudits} qubits do not split into 3**{spec.levels} blocks"
        )
    current = state
    corrections: list[tuple[int, int]] = []
    for level in range(1, spec.levels + 1):
        blocks = current.num_qudits // 3
        entries: dict[tuple[int, ...], Amplitude] = {}
        pattern: int | None = None
        for key, amp in current.entries.items():
            # One byte per digit: a, b, c hold each block's first, second and
            # third digit, so the bitwise operators vote every block at once.
            raw = bytes(key)
            a, b, c = (int.from_bytes(raw[i::3], "big") for i in range(3))
            flipped = (a | b | c) ^ (a & b & c)
            if pattern is None:
                pattern = flipped
            elif pattern != flipped:
                raise CodeError(f"level {level} error pattern differs between components")
            new_key = tuple((a & b | a & c | b & c).to_bytes(blocks, "big"))
            if new_key in entries:
                raise CodeError(f"components collide after the level {level} vote")
            entries[new_key] = amp
        current = SparseState._trusted(2, blocks, current.phase_order, entries)
        flags = (pattern or 0).to_bytes(blocks, "big")
        corrections.extend((level, block) for block, flag in enumerate(flags) if flag)
    return DecodeReport(current, tuple(corrections), True)


def roundtrip_check(
    state: SparseState, spec: CodeSpec, error_positions: Iterable[int] = ()
) -> bool:
    """Encode, corrupt, decode; True iff the decoded register equals ``state``."""
    encoded = encode(state, spec)
    corrupted = inject_errors(encoded, error_positions)
    return decode_majority(corrupted, spec).decoded == state
