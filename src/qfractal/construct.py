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
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import ScaleRuleError
from .states import DEFAULT_PHASE_ORDER, Amplitude, Provenance, SparseState, _Checked, capped_power, check_size
from .states import digit_bits, superpose


def params_defect(c: int, s: int, n: int = 0) -> tuple[str, str] | None:
    """The first of c, s and n out of range, as (field name, message); None
    when c > 1, s >= 1 and n >= 0."""
    if c <= 1:
        return "c", f"c must exceed 1, got {c}"
    if s < 1:
        return "s", f"s must be >= 1, got {s}"
    if n < 0:
        return "n", f"n must be >= 0, got {n}"
    return None


class _FractalParamsFields(NamedTuple):
    c: int
    s: int
    n: int


class FractalParams(_Checked, _FractalParamsFields):
    """Recursion parameters: ``c`` subsystems per scale change, probability
    scaling factor ``s``, and scale index ``n``."""

    __slots__ = ()

    def __new__(cls, c: int, s: int, n: int = 0) -> FractalParams:
        defect = params_defect(c, s, n)
        if defect is not None:
            raise ValueError(defect[1])
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

    def cells(self, prev: SparseState) -> tuple[dict[int, SparseState], ...]:
        """Each referenced ``(slot, index)`` cell resolved once against
        ``prev``, slot by slot in index order; the first bad cell raises."""
        return tuple(
            {index: self.resolve(slot, index, prev) for index in sorted({r.indices[slot] for r in self.coefficients})}
            for slot in range(self.c)
        )

    def slot_defect(self, cells: tuple[dict[int, SparseState], ...]) -> str | None:
        """The first orthonormality defect of resolved ``cells`` in scan
        order, or None; no overlap past it is computed.

        Per slot, its exactly deduplicated vectors in index order: one whose
        exact norm is not 1, then a later one whose support meets it with a
        nonzero squared overlap in F_p (:mod:`qfractal.ranks`).  Last, a
        record that picks the same vector in every slot as an earlier record.
        """
        # Per slot: each index's position among the slot's distinct vectors.
        positions: list[dict[int, int]] = []
        for slot, table in enumerate(cells, 1):
            vectors: list[SparseState] = []
            position: dict[int, int] = {}
            # Exactly equal vectors share their size and least key.
            buckets: dict[tuple[int, int], list[int]] = {}
            for index, vector in table.items():
                bucket = buckets.setdefault((len(vector._packed), min(vector._packed, default=0)), [])
                equal = (i for i in bucket if vectors[i] is vector or vectors[i] == vector)
                position[index] = next(equal, len(vectors))
                if position[index] == len(vectors):
                    bucket.append(len(vectors))
                    vectors.append(vector)
            positions.append(position)
            # For each vector, the later ones whose supports meet its own, found
            # through each key's first holder and the vectors that share it;
            # supports that do not meet are orthogonal.
            meets: list[set[int]] = [set() for _ in vectors]
            holder: dict[int, int] = {}
            sharers: dict[int, list[int]] = {}
            for j, vector in enumerate(vectors):
                shared = vector._packed.keys() & holder.keys()
                for key in shared:
                    for i in sharers.setdefault(key, [holder[key]]):
                        meets[i].add(j)
                    sharers[key].append(j)
                if j + 1 < len(vectors):  # no later vector reads the last one's keys
                    holder.update(dict.fromkeys(vector._packed.keys() - shared, j))
            for i, u in enumerate(vectors):
                if u.norm_squared() != 1:
                    return f"slot {slot} vector not normalized"
                if meets[i]:  # slots whose supports never meet compile no rank code
                    from .ranks import squared_overlap
                if any(squared_overlap(u, vectors[j])[0] for j in sorted(meets[i])):
                    return f"slot {slot} vectors not orthogonal"
        first: dict[tuple[int, ...], int] = {}
        for k, coeff in enumerate(self.coefficients):
            choice = tuple(map(dict.__getitem__, positions, coeff.indices))
            earlier = first.setdefault(choice, k)
            if earlier != k:
                return f"records {earlier} and {k} build the same product"
        return None

    def terms(self, cells: tuple[dict[int, SparseState], ...], *, weighted: bool = True) -> list[SparseState]:
        """The ``s`` records in coefficient order, built from resolved ``cells``:
        each is the tensor product of its cells, the smallest of which carries
        the record's phase and 1/sqrt(s) at the common order lcm(R, every
        cell's order); not ``weighted``, they are the bare products.  Their
        entries, which bound the output, are priced first."""
        records = [[cells[slot][index] for slot, index in enumerate(coeff.indices)] for coeff in self.coefficients]
        # A tensor product has the product of its factors' entry counts.
        entries = sum(math.prod(len(vector._packed) for vector in vectors) for vectors in records)
        check_size("output", entries, records[0][0].num_qudits * self.c, records[0][0].local_dim)
        if weighted:
            order = math.lcm(self.phase_order, *(vector.phase_order for table in cells for vector in table.values()))
            step = order // self.phase_order
            for coeff, vectors in zip(self.coefficients, records):
                smallest = min(range(self.c), key=lambda slot: len(vectors[slot]._packed))
                vectors[smallest] = vectors[smallest].promoted(order).scaled(coeff.phase_index * step % order, self.s)
        return [reduce(SparseState.tensor, vectors) for vectors in records]


NO_PREDECESSOR = "no slot matches the predecessor"


def check_rule_against(prev: SparseState, rule: ScaleRule) -> tuple[dict[int, SparseState], ...]:
    """The rule's cells resolved against ``prev`` (:meth:`ScaleRule.cells`),
    once the rule is shown applicable to it.  The first defect raises
    :class:`ScaleRuleError`: a cell that does not resolve, no cell equal to
    ``prev``, or :meth:`ScaleRule.slot_defect`."""
    cells = rule.cells(prev)
    if not any(prev in table.values() for table in cells):
        raise ScaleRuleError(NO_PREDECESSOR)
    defect = rule.slot_defect(cells)
    if defect:
        raise ScaleRuleError(defect)
    return cells


def apply_scale_rule(prev: SparseState, rule: ScaleRule, *, validate: bool = True) -> SparseState:
    """One recursion step: the sum of the rule's weighted records
    (:meth:`ScaleRule.terms`), with the cells resolved once.

    The result has ``c`` times the qudits of ``prev`` and exact norm 1; the
    provenance scale index is incremented when ``prev`` carries one.
    """
    return _step_from_cells(prev, rule, check_rule_against(prev, rule) if validate else rule.cells(prev))


def _step_from_cells(prev: SparseState, rule: ScaleRule, cells: tuple[dict[int, SparseState], ...]) -> SparseState:
    """:func:`apply_scale_rule` from the rule's cells, already resolved against ``prev``."""
    result = superpose([(0, term) for term in rule.terms(cells)])
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
    bits = digit_bits(local_dim)
    for m in range(n):
        width = (c - 1) * c**m
        # The packed key of |j...j> is j times the key of |1...1>.
        ones = ((1 << bits * width) - 1) // ((1 << bits) - 1)
        entries = dict.fromkeys(range(0, s * ones, ones), Amplitude.inv_sqrt(s))
        block = SparseState._trusted(local_dim, width, state.phase_order, entries)
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
        # Each rule is built from the siblings the last level returned, so
        # it holds by construction; the exact output norm is still checked.
        plus, minus = (
            apply_scale_rule(minus, gem_rule(plus, +1), validate=False),
            apply_scale_rule(minus, gem_rule(plus, -1), validate=False),
        )
    return plus, minus


def gem_rule(plus_sibling: SparseState, sign: int) -> ScaleRule:
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
        Coefficient((1, 0), 0 if sign == 1 else DEFAULT_PHASE_ORDER // 2),
    )
    return ScaleRule(FractalParams(2, 2), (dict(table), dict(table)), coefficients)


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
