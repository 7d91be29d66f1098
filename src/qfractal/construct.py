"""State-family generators and the generic scale-rule engine.

A scale rule describes one recursion step: the state at the next scale is a
sum of ``s`` coefficient records, each a tensor product of ``c`` slot vectors
drawn per-slot from small lookup tables (the predecessor state, a basis
string, or an explicitly supplied state), every record carrying magnitude
``1/sqrt(s)`` and a root-of-unity phase.  Iterating a rule from an initial
single-qudit state produces the self-similar families this package studies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import ScaleRuleError
from .states import DEFAULT_PHASE_ORDER, Amplitude, Provenance, SparseState, _Checked, capped_power, check_size
from .states import digit_bits, superpose


class _FractalParamsFields(NamedTuple):
    c: int
    s: int
    n: int


class FractalParams(_Checked, _FractalParamsFields):
    """Recursion parameters: ``c`` subsystems per scale change, probability
    scaling factor ``s``, and scale index ``n``."""

    __slots__ = ()

    def __new__(cls, c: int, s: int, n: int = 0) -> FractalParams:
        if c <= 1:
            raise ValueError(f"c must exceed 1, got {c}")
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return tuple.__new__(cls, (c, s, n))

    @property
    def dimension(self) -> float:
        """Self-similarity dimension ln(c)/ln(s), read as log2(c) when s == 1."""
        if self.s == 1:
            return math.log2(self.c)
        return math.log(self.c) / math.log(self.s)


class Predecessor(NamedTuple):
    """Slot entry standing for the previous-scale state."""


class BasisSlot(NamedTuple):
    """Slot entry naming a computational basis string of the previous scale."""

    digits: tuple[int, ...]


class NamedSlot(NamedTuple):
    """Slot entry holding an explicitly supplied normalized state.

    ``path`` records the state-file origin when the rule was read from disk,
    and is required to serialize the rule back out.
    """

    state: SparseState
    path: str | None = None


SlotVector = Union[Predecessor, BasisSlot, NamedSlot]


class Coefficient(NamedTuple):
    """One nonzero record: per-slot table indices plus a phase index.

    The magnitude is implicit: every record weighs ``1/sqrt(s)``.
    """

    indices: tuple[int, ...]
    phase_index: int = 0


class _ScaleRuleFields(NamedTuple):
    params: FractalParams
    slot_tables: tuple[Mapping[int, SlotVector], ...]
    coefficients: tuple[Coefficient, ...]
    phase_order: int


class ScaleRule(_Checked, _ScaleRuleFields):
    """One recursion step: slot tables plus the nonzero coefficient records.

    The constructor copies each slot table into a dict and the records into a
    tuple, and checks R >= 1 and the counts and indices against ``params``."""

    __slots__ = ()

    def __new__(
        cls,
        params: FractalParams,
        slot_tables: tuple[Mapping[int, SlotVector], ...],
        coefficients: Iterable[Coefficient],
        phase_order: int = DEFAULT_PHASE_ORDER,
    ) -> ScaleRule:
        c, s = params.c, params.s
        if phase_order < 1:
            raise ScaleRuleError(f"phase_order must be >= 1, got {phase_order}")
        if len(slot_tables) != c:
            raise ScaleRuleError(f"rule has {len(slot_tables)} slot tables, expected c = {c}")
        slot_tables = tuple(dict(t) for t in slot_tables)
        coefficients = tuple(coefficients)
        if len(coefficients) != s:
            raise ScaleRuleError(f"rule has {len(coefficients)} coefficients, expected s = {s}")
        seen: set[tuple[int, ...]] = set()
        for coeff in coefficients:
            if len(coeff.indices) != c:
                raise ScaleRuleError(f"coefficient {coeff.indices} does not have {c} indices")
            if any(i < 0 or i >= s for i in coeff.indices):
                raise ScaleRuleError(f"coefficient indices {coeff.indices} outside [0, {s})")
            if coeff.indices in seen:
                raise ScaleRuleError(f"duplicate coefficient indices {coeff.indices}")
            seen.add(coeff.indices)
        return tuple.__new__(cls, (params, slot_tables, coefficients, phase_order))

    @property
    def c(self) -> int:
        return self.params.c

    @property
    def s(self) -> int:
        return self.params.s

    def referenced_cells(self) -> tuple[tuple[int, int], ...]:
        """(slot, index) pairs used by at least one coefficient, ordered."""
        cells: list[tuple[int, int]] = []
        for slot in range(self.c):
            for index in sorted({coeff.indices[slot] for coeff in self.coefficients}):
                cells.append((slot, index))
        return tuple(cells)

    def resolve(self, slot: int, index: int, prev: SparseState) -> SparseState:
        """Resolve one slot-table cell against the predecessor state."""
        table = self.slot_tables[slot]
        if index not in table:
            raise ScaleRuleError(f"slot {slot + 1} has no entry for index {index}")
        entry = table[index]
        if isinstance(entry, Predecessor):
            return prev
        if isinstance(entry, BasisSlot):
            if len(entry.digits) != prev.num_qudits:
                raise ScaleRuleError(
                    f"slot {slot + 1} basis string has {len(entry.digits)} digits, "
                    f"expected {prev.num_qudits}"
                )
            if min(entry.digits) < 0 or max(entry.digits) >= prev.local_dim:
                raise ScaleRuleError(f"slot {slot + 1} basis string has digits outside [0, {prev.local_dim})")
            return SparseState.basis_state(prev.local_dim, entry.digits, prev.phase_order)
        resolved = entry.state
        if resolved.local_dim != prev.local_dim or resolved.num_qudits != prev.num_qudits:
            raise ScaleRuleError(
                f"slot {slot + 1} state is {resolved.num_qudits} qudits of dimension "
                f"{resolved.local_dim}; expected {prev.num_qudits} of {prev.local_dim}"
            )
        return resolved

    def slot_defects(self, prev: SparseState) -> tuple[bool, list[tuple[int, int, int]]]:
        """Resolve each referenced cell once, slot-major; the first bad cell raises.

        Returns whether a cell equals ``prev``, and the orthonormality defects
        of each slot's exactly deduplicated vectors in scan order: ``(slot, i,
        i)`` if vector ``i``'s exact norm is not 1, ``(slot, i, j)`` if vectors
        ``i < j`` have a nonzero squared overlap in F_p (:mod:`qfractal.ranks`).
        """
        from .ranks import squared_overlap

        slots: list[list[SparseState]] = [[] for _ in range(self.c)]
        for slot, index in self.referenced_cells():
            vector = self.resolve(slot, index, prev)
            if vector not in slots[slot]:
                slots[slot].append(vector)
        defects = [
            (slot, i, j)
            for slot, vectors in enumerate(slots)
            for i, u in enumerate(vectors)
            for j in range(i, len(vectors))
            if (u.norm_squared() != 1 if i == j else squared_overlap(u, vectors[j])[0])
        ]
        return any(prev in vectors for vectors in slots), defects

    def records(self, prev: SparseState) -> Iterator[tuple[SparseState, ...]]:
        """Each record's resolved slot vectors, in coefficient order.  Each
        cell resolves once, when a record first needs it, so the first bad
        cell in coefficient order raises."""
        cells: dict[tuple[int, int], SparseState] = {}
        for coeff in self.coefficients:
            record = tuple(enumerate(coeff.indices))
            for cell in record:
                if cell not in cells:
                    cells[cell] = self.resolve(*cell, prev)
            yield tuple(map(cells.__getitem__, record))

    def products(self, prev: SparseState) -> Iterator[SparseState]:
        """The ``s`` slot products in coefficient order, built as they are
        iterated."""
        return (reduce(SparseState.tensor, vectors) for vectors in self.records(prev))


def check_rule_against(prev: SparseState, rule: ScaleRule) -> None:
    """Raise :class:`ScaleRuleError` unless the rule is applicable to ``prev``.

    Checks slot resolution, predecessor presence (by exact state equality),
    exact slot normalization and pairwise orthogonality; the first defect
    raises.
    """
    found, defects = rule.slot_defects(prev)
    if not found:
        raise ScaleRuleError("no referenced slot resolves to the predecessor state")
    if defects:
        slot, i, j = defects[0]
        if i == j:
            raise ScaleRuleError(f"slot {slot + 1} vector {i} is not normalized")
        raise ScaleRuleError(f"slot {slot + 1} vectors are not orthogonal")


def apply_scale_rule(prev: SparseState, rule: ScaleRule, *, validate: bool = True) -> SparseState:
    """One recursion step: sum the rule's records over tensor products of
    resolved slot vectors.

    The result has ``c`` times the qudits of ``prev`` and exact norm 1; the
    provenance scale index is incremented when ``prev`` carries one.
    """
    if validate:
        check_rule_against(prev, rule)
    records = list(rule.records(prev))
    # A tensor product has the product of its factors' entry counts, and the
    # sum of the records' products bounds the output.
    entries = sum(math.prod(len(vector._packed) for vector in vectors) for vectors in records)
    check_size("output", entries, prev.num_qudits * rule.c, prev.local_dim)
    products = [reduce(SparseState.tensor, vectors) for vectors in records]
    order = math.lcm(rule.phase_order, *(p.phase_order for p in products))
    step = order // rule.phase_order
    terms: list[tuple[int, SparseState]] = []
    for coeff, product in zip(rule.coefficients, products):
        scaled = product.promoted(order).scaled(inv_sqrt=rule.s)
        terms.append(((coeff.phase_index * step) % order, scaled))
    result = superpose(terms)
    if result.norm_squared() != Fraction(1):
        raise ScaleRuleError("scale rule output is not normalized; slot products must be orthonormal")
    provenance = None
    if prev.provenance is not None and prev.provenance.n is not None:
        provenance = Provenance(prev.provenance.family, rule.c, rule.s, prev.provenance.n + 1)
    return result._retagged(provenance)


def build_initial(local_dim: int) -> SparseState:
    """The single-qudit starting state |0> in dimension ``local_dim``."""
    return SparseState.basis_state(local_dim, (0,))


def representative_rule(c: int, s: int, step: int, local_dim: int) -> ScaleRule:
    """The canonical rule taking the representative family from scale ``step``
    to ``step + 1``: the predecessor in slot 1, diagonal basis strings
    ``|j...j>`` in the remaining slots, all phases zero."""
    params = FractalParams(c, s, step)
    if local_dim < s:
        raise ValueError(f"local_dim {local_dim} cannot index {s} coefficient branches")
    check_size("output", capped_power(s, step + 1), capped_power(c, step + 1), local_dim)
    width = c**step
    first: dict[int, SlotVector] = {i: Predecessor() for i in range(s)}
    rest: list[dict[int, SlotVector]] = [
        {i: BasisSlot((i,) * width) for i in range(s)} for _ in range(c - 1)
    ]
    coefficients = tuple(Coefficient((i,) * c) for i in range(s))
    return ScaleRule(params, (first, *rest), coefficients)


def build_representative(c: int, s: int, n: int, local_dim: int) -> SparseState:
    """Closed-form representative state at scale ``n``: support ``s**n``,
    uniform outcome probability ``s**-n`` over ``c**n`` qudits.

    Equals ``n`` iterations of :func:`representative_rule` from |0>.
    """
    params = FractalParams(c, s, n)
    if local_dim < max(2, s):
        raise ValueError(f"local_dim {local_dim} too small for s = {s}")
    check_size("output", capped_power(s, n), capped_power(c, n), local_dim)
    state = build_initial(local_dim)
    branch = Amplitude.inv_sqrt(s)
    bits = digit_bits(local_dim)
    for m in range(n):
        width = (c - 1) * c**m
        # The packed key of |j...j> is j times the key of |1...1>.
        ones = ((1 << bits * width) - 1) // ((1 << bits) - 1)
        block = SparseState._trusted(local_dim, width, state.phase_order, {j * ones: branch for j in range(s)})
        state = state.tensor(block)
    return state._retagged(Provenance("representative", c, s, n))


def build_cantor(n: int) -> SparseState:
    """The qutrit family with the Cantor set's parameters c = 2, s = 3."""
    return build_representative(2, 3, n, local_dim=3)._retagged(Provenance("cantor", 2, 3, n))


def build_bell_pair(sign: int) -> SparseState:
    """The Bell pair (|01> + sign |10>)/sqrt(2)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    order = DEFAULT_PHASE_ORDER
    entries = {
        0b01: Amplitude.inv_sqrt(2),
        0b10: Amplitude.inv_sqrt(2, phase_index=0 if sign == 1 else order // 2),
    }
    return SparseState._trusted(2, 2, order, entries, Provenance("bellgem", 2, 2, 0))


def build_gem_sequence(levels: int) -> tuple[SparseState, SparseState]:
    """The canonical gem tower: level 1 is the Bell pair doublet, level k is
    one :func:`gem_rule` step from the minus sibling, symmetrizing the two
    level-(k-1) siblings.  Returns (plus, minus)."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    plus, minus = build_bell_pair(+1), build_bell_pair(-1)
    for _ in range(2, levels + 1):
        plus, minus = (
            apply_scale_rule(minus, gem_rule(plus, +1)),
            apply_scale_rule(minus, gem_rule(plus, -1)),
        )
    return plus, minus


def gem_rule(plus_sibling: SparseState, sign: int, phase_order: int = DEFAULT_PHASE_ORDER) -> ScaleRule:
    """The scale rule producing the next gem level from the minus sibling as
    predecessor, with the plus sibling supplied explicitly.

    Index 0 resolves to the plus sibling, index 1 to the predecessor; the two
    records are (0,1) and (1,0), the latter negated for ``sign == -1``.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    table: dict[int, SlotVector] = {0: NamedSlot(plus_sibling), 1: Predecessor()}
    coefficients = (
        Coefficient((0, 1)),
        Coefficient((1, 0), 0 if sign == 1 else phase_order // 2),
    )
    return ScaleRule(FractalParams(2, 2), (dict(table), dict(table)), coefficients, phase_order)


def build_bitflip_state(n: int, logical: int) -> SparseState:
    """The repetition-code register |logical> ** 3**n (c = 3, s = 1)."""
    if logical not in (0, 1):
        raise ValueError(f"logical digit must be 0 or 1, got {logical}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_size("output", 1, capped_power(3, n), 2)
    key = logical * ((1 << 3**n) - 1)
    return SparseState._trusted(
        2, 3**n, DEFAULT_PHASE_ORDER, {key: Amplitude.one()}, Provenance("bitflip", 3, 1, n)
    )


def build_cluster(n_qubits: int) -> SparseState:
    """The linear-chain cluster state on ``n_qubits`` qubits.

    All ``2**n`` basis strings appear with squared amplitude ``2**-n``; the
    sign of string x is ``(-1)**#{a : x_a = 0 and x_(a+1) = 1}`` with no
    factor contributed past the end of the chain.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    check_size("output", capped_power(2, n_qubits), n_qubits, 2)
    order = DEFAULT_PHASE_ORDER
    half = order // 2
    signs = (Amplitude(0, ((2, n_qubits),)), Amplitude(half, ((2, n_qubits),)))
    # A qubit key is the string's own value x.  The sign counts the places
    # where x has a 0 at bit k above a 1 at bit k - 1: the set bits of
    # ~x >> 1 & x below bit n - 1.
    inner = (1 << (n_qubits - 1)) - 1
    entries = {x: signs[(~x >> 1 & x & inner).bit_count() % 2] for x in range(2**n_qubits)}
    return SparseState._trusted(2, n_qubits, order, entries, Provenance("cluster", 2, 2, None))
