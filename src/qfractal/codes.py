"""Concatenated encodings of qubit registers and their recovery.

Two block codes are supported: the three-qubit repetition code, which
protects against bit flips and admits coherent majority decoding, and the
Bell-pair code, which maps each digit onto a two-qubit Bell state.  Both
concatenate level by level; level 1 is always the innermost encoding.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .errors import CodeError
from .states import Amplitude, SparseState, _Checked, capped_power, check_size, superpose


# One octal digit is one block's three bits: their majority, and whether they differ.
_VOTED = str.maketrans("01234567", "00010111")
_FLIPPED = str.maketrans("01234567", "01111110")


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
    # L concatenated three-fold repetitions repeat each digit 3**L times: a
    # key's bits as octal digits 3**(L-1) apart, times 3**L ones, carry nothing.
    copies = 3**levels
    spacer, run = "0" * (copies // 3 - 1), (1 << copies) - 1
    width = f"0{state.num_qudits}b"
    entries = {int(spacer.join(format(key, width)), 8) * run: amp for key, amp in state._packed.items()}
    return SparseState._trusted(2, copies * state.num_qudits, state.phase_order, entries)


def _encode_bell(state: SparseState) -> SparseState:
    # Digit 0 becomes (|01> + |10>)/sqrt(2), digit 1 the minus pair, so key x
    # spreads over the strings {01,10}**Q: string c (base-4 digits 1 + c's bits)
    # takes a_x * 2**(-Q/2) * (-1)**|c & x|.  Keys share strings, so the pieces
    # go through superpose for exact doubling and cancellation.
    q, order = state.num_qudits, state.phase_order
    spread = [int("1" * q, 4) + int(format(c, f"0{q}b"), 4) for c in range(1 << q)]
    terms: list[tuple[int, SparseState]] = []
    for key, amp in state._packed.items():
        plus = Amplitude(amp.phase_index, amp.mag_exponents + ((2, q),))
        signs = (plus, plus.shifted(order // 2, order))
        entries = {string: signs[(c & key).bit_count() & 1] for c, string in enumerate(spread)}
        terms.append((0, SparseState._trusted(2, 2 * q, order, entries)))
    # The code map is linear: an empty register encodes to an empty register.
    return superpose(terms) if terms else SparseState._trusted(2, 2 * q, order, {})


def encode(state: SparseState, spec: CodeSpec) -> SparseState:
    """Concatenate ``spec.levels`` encoding passes over a qubit register."""
    if state.local_dim != 2:
        raise CodeError("encoding is defined for qubit registers")
    if spec.kind is CodeKind.BIT_FLIP:
        # Repetition keeps the number of entries, so one check covers all levels.
        qudits = state.num_qudits * capped_power(spec.block_arity, spec.levels)
        check_size("encoded state", len(state.entries), qudits, 2)
        return _encode_repetition(state, spec.levels)
    current = state
    for _ in range(spec.levels):
        # Each key expands onto 2**Q basis strings.
        check_size("encoded state", len(current.entries) << current.num_qudits, 2 * current.num_qudits, 2)
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


def splits_into_blocks(num_qubits: int, spec: CodeSpec) -> bool:
    """Whether ``num_qubits`` is a whole number of ``spec``'s code blocks,
    each of block_arity**levels qubits."""
    # block_arity**levels > num_qubits >= 1 once levels reaches its bit
    # length, so deep specs are answered before the power is formed.
    return spec.levels < num_qubits.bit_length() and num_qubits % spec.block_arity**spec.levels == 0


def _require_repetition(spec: CodeSpec) -> None:
    if spec.kind is not CodeKind.BIT_FLIP:
        raise CodeError("majority decoding applies to the repetition code only")


def decode_majority(state: SparseState, spec: CodeSpec) -> DecodeReport:
    """Peel repetition-code levels by majority vote, innermost first.

    The keys are written end to end in octal, one digit per block, so a level
    is two string translations over all components.  Each component must show
    the same flipped-block pattern at each level and no two may merge after a
    vote; the first component with either defect raises :class:`CodeError`.
    """
    _require_repetition(spec)
    if state.local_dim != 2:
        raise CodeError("decoding is defined for qubit registers")
    width = state.num_qudits
    if not splits_into_blocks(width, spec):
        raise CodeError(f"{width} qubits do not split into 3**{spec.levels} blocks")
    count = len(state._packed)
    digits = "".join(map(format, state._packed, [f"0{width // 3}o"] * count))
    corrections: list[tuple[int, int]] = []
    for level in range(1, spec.levels + 1):
        width //= 3
        pattern = digits[:width].translate(_FLIPPED)
        consistent = digits.translate(_FLIPPED) == pattern * count
        bits = digits.translate(_VOTED)
        chunks = [bits[start : start + width] for start in range(0, len(bits), width)]
        if not consistent or len(set(chunks)) < count:
            first: dict[str, int] = {}
            for index, chunk in enumerate(chunks):
                if digits[index * width : index * width + width].translate(_FLIPPED) != pattern:
                    raise CodeError(f"level {level} error pattern differs between components")
                if first.setdefault(chunk, index) != index:
                    raise CodeError(f"components collide after the level {level} vote")
        corrections.extend((level, block) for block, flag in enumerate(pattern) if flag == "1")
        if bits and level < spec.levels:
            digits = format(int(bits, 2), f"0{len(bits) // 3}o")
    entries = {int(chunk, 2): amp for chunk, amp in zip(chunks, state._packed.values())}
    return DecodeReport(SparseState._trusted(2, width, state.phase_order, entries), tuple(corrections), True)


def roundtrip_check(state: SparseState, spec: CodeSpec, error_positions: Iterable[int] = ()) -> bool:
    """Encode, corrupt, decode; True iff the decoded register equals ``state``.
    A spec that majority decoding cannot undo is refused before encoding."""
    _require_repetition(spec)
    corrupted = inject_errors(encode(state, spec), error_positions)
    return decode_majority(corrupted, spec).decoded == state
