"""Concatenated encodings of qubit registers and their recovery.

Two block codes are supported: the three-qubit repetition code, which
protects against bit flips and admits coherent majority decoding, and the
Bell-pair code, which maps each digit onto a two-qubit Bell state.  Both
concatenate level by level; level 1 is always the innermost encoding.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .construct import MAX_ENTRIES, MAX_QUDITS
from .errors import CodeError, GuardExceededError
from .states import Amplitude, SparseState, _Checked, superpose


class CodeKind(Enum):
    BIT_FLIP = "bitflip"
    BELL_PAIR = "bellpair"

    @property
    def block_arity(self) -> int:
        return 3 if self is CodeKind.BIT_FLIP else 2


class _CodeSpecFields(NamedTuple):
    kind: CodeKind
    levels: int


class CodeSpec(_Checked, _CodeSpecFields):
    """A code family together with its concatenation depth."""

    __slots__ = ()

    def __new__(cls, kind: CodeKind, levels: int) -> CodeSpec:
        if levels < 1:
            raise CodeError(f"levels must be >= 1, got {levels}")
        return tuple.__new__(cls, (kind, levels))

    @property
    def block_arity(self) -> int:
        return self.kind.block_arity


def _encode_repetition(state: SparseState, levels: int) -> SparseState:
    # Concatenating the three-fold repetition L times repeats each digit 3**L
    # times, so all levels are one pass of whole runs over each key's bits.
    copies = 3**levels
    runs = {ord("0"): "0" * copies, ord("1"): "1" * copies}
    width = f"0{state.num_qudits}b"
    entries = {int(format(key, width).translate(runs), 2): amp for key, amp in state._packed.items()}
    return SparseState._trusted(2, copies * state.num_qudits, state.phase_order, entries)


def _encode_bell(state: SparseState) -> SparseState:
    # Digit 0 becomes (|01> + |10>)/sqrt(2), digit 1 the minus pair.  Distinct
    # input components can expand onto shared basis strings, so the pieces go
    # through superpose for exact doubling and cancellation.
    order = state.phase_order
    half_turn = order // 2
    terms: list[tuple[int, SparseState]] = []
    for key, amp in state._packed.items():
        expansion: dict[int, Amplitude] = {0: amp}
        for shift in reversed(range(state.num_qudits)):
            digit = key >> shift & 1
            grown: dict[int, Amplitude] = {}
            for prefix, acc in expansion.items():
                halved = acc.times_inv_sqrt(2)
                grown[prefix << 2 | 0b01] = halved
                grown[prefix << 2 | 0b10] = halved if digit == 0 else halved.shifted(half_turn, order)
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
    return current


def inject_errors(state: SparseState, positions: Iterable[int]) -> SparseState:
    """Apply a bit flip at each listed qubit position (all distinct)."""
    ordered = list(positions)
    if len(set(ordered)) != len(ordered):
        raise ValueError(f"error positions must be distinct, got {ordered}")
    return state.apply_bit_flip(*ordered)


class DecodeReport(NamedTuple):
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
        width = f"0{current.num_qudits}b"
        entries: dict[int, Amplitude] = {}
        pattern: int | None = None
        for key, amp in current._packed.items():
            # a, b, c hold each block's first, second and third bit, so the
            # bitwise operators vote every block at once.
            bits = format(key, width)
            a, b, c = (int(bits[i::3], 2) for i in range(3))
            flipped = (a | b | c) ^ (a & b & c)
            if pattern is None:
                pattern = flipped
            elif pattern != flipped:
                raise CodeError(f"level {level} error pattern differs between components")
            new_key = a & b | a & c | b & c
            if new_key in entries:
                raise CodeError(f"components collide after the level {level} vote")
            entries[new_key] = amp
        current = SparseState._trusted(2, blocks, current.phase_order, entries)
        flags = format(pattern or 0, f"0{blocks}b")
        corrections.extend((level, block) for block, flag in enumerate(flags) if flag == "1")
    return DecodeReport(current, tuple(corrections), True)


def roundtrip_check(
    state: SparseState, spec: CodeSpec, error_positions: Iterable[int] = ()
) -> bool:
    """Encode, corrupt, decode; True iff the decoded register equals ``state``."""
    encoded = encode(state, spec)
    corrupted = inject_errors(encoded, error_positions)
    return decode_majority(corrupted, spec).decoded == state
