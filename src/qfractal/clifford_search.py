"""Local-Clifford tuples mapping one qubit state onto another: a float
search for candidates, pruned by the purities of the reduced states, and an
exact test in F_p that decides each.

The overlap <b|U a> of U = U_0 x ... x U_(Q-1) is a mode product: in the
outer product of conj(b) and a, merge each qubit's (out, in) index pair into
one mode of size 4; then <b|U a> is that tensor with each qubit's gate,
flattened to four entries in mode order 2*out + in, contracted on its mode.
The search walks the gate indices of qubits 0..Q-1 in lexicographic order
and contracts the leading mode at each step, so a prefix of k gates holds a
tensor C of 4**(Q-k) entries.

A prefix is dropped when no completion can reach the threshold.  With p_a(k)
and p_b(k) the purities Tr rho**2 of the states reduced to their first k
qubits, p_a(k) + p_b(k) - 2 |C|**2 is the squared Frobenius distance between
the prefix's image of a's reduced state and b's.  That is at most the
squared trace distance, which is at most 4 (1 - F**2) for any completion of
fidelity F.  So a prefix whose distance exceeds 4 (1 - threshold**2) holds
no candidate, and the candidates come in the order of the full scan.

A child's |C|**2 is read from the Gram matrix of its parent's four
leading-mode blocks, so only the children that survive are built.

The search spends WORK_LIMIT, the Schmidt sweep's budget: Q * 4**Q cells
before a vector is built, for the Q levels of 4**Q entries that build the
mode tensor, 4 per entry of each prefix tensor split into blocks, 4 per last
tensor, and Q * 2**Q per candidate for its exact test.

:func:`qfractal.analyze.lu_equivalent_by_local_clifford` imports this module
on its first call, so the commands that search nothing do not compile it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import GuardExceededError
from .states import WORK_LIMIT, Amplitude, SparseState

if TYPE_CHECKING:
    from .analyze import Gate

# A gate's nonzero entries as (mode index 2*out + in, entry).
GateTerms = tuple[tuple[int, complex], ...]

# Pairs (m, k), m <= k, of a tensor's four leading-mode blocks, in the order
# that _block_gram lists their inner products.
_BLOCK_PAIRS = tuple((m, k) for m in range(4) for k in range(m, 4))


@lru_cache(maxsize=1)
def _gate_tables(gates: tuple[Gate, ...]) -> tuple[list[tuple[complex, ...]], list[GateTerms], list[tuple[float, ...]]]:
    """Per gate: its entries in mode order, its nonzero entries, and the
    weights that turn a tensor's block Gram into the squared norm of its
    contraction with that gate."""
    entries, terms, weights = [], [], []
    for gate in gates:
        flat = tuple(z for row in gate for z in row)
        entries.append(flat)
        terms.append(tuple((m, z) for m, z in enumerate(flat) if z))
        # |sum_m g_m B_m|**2 = sum_{m,k} conj(g_m) g_k <B_m|B_k>, and the
        # pair (k, m) adds the conjugate of (m, k)'s term.
        row: list[float] = []
        for m, k in _BLOCK_PAIRS:
            w = flat[m].conjugate() * flat[k] * (1 if m == k else 2)
            row += (w.real, -w.imag)
        weights.append(tuple(row))
    return entries, terms, weights


def _block_gram(blocks: list[list[complex]]) -> list[float]:
    """Real and imaginary parts of <B_m|B_k> over _BLOCK_PAIRS."""
    bras = [list(map(complex.conjugate, block)) for block in blocks]
    gram: list[float] = []
    for m, k in _BLOCK_PAIRS:
        value = sum(map(mul, bras[m], blocks[k]))
        gram += (value.real, value.imag)
    return gram


def _contract(blocks: list[list[complex]], terms: GateTerms) -> list[complex]:
    """The tensor whose leading-mode ``blocks`` are contracted with one
    gate's nonzero entries."""
    (m, z), *rest = terms
    acc = map(z.__mul__, blocks[m])
    for m, z in rest:
        acc = map(add, acc, map(z.__mul__, blocks[m]))
    return list(acc)


def _purity(vec: list[complex], q: int, k: int) -> float:
    """Tr rho**2 of the reduced state on the first k qubits.

    rho is M M^dagger for the vector as a 2**k x 2**(q-k) matrix M, and
    M^dagger M has the same Frobenius norm, so the Gram matrix of the shorter
    side is used, one triangle of it."""
    width = 1 << (q - k)
    rows = [vec[start : start + width] for start in range(0, len(vec), width)]
    if len(rows) > width:
        rows = list(zip(*rows))
    bras = [list(map(complex.conjugate, row)) for row in rows]
    total = 0.0
    for r, bra in enumerate(bras):
        total += abs(sum(map(mul, bra, rows[r]))) ** 2
        total += 2 * sum(abs(sum(map(mul, bra, row))) ** 2 for row in rows[r + 1 :])
    return total


def _modes(bra: list[complex], ket: list[complex]) -> list[complex]:
    """The outer product of ``bra`` and ``ket`` in mode order: its index bits
    run o_0 i_0 o_1 i_1 ..., for the bits o of ``bra`` and i of ``ket``."""
    if len(ket) == 2:
        (y0, y1), (x0, x1) = bra, ket
        return [y0 * x0, y0 * x1, y1 * x0, y1 * x1]
    n = len(ket) >> 1
    b0, b1, a0, a1 = bra[:n], bra[n:], ket[:n], ket[n:]
    return _modes(b0, a0) + _modes(b0, a1) + _modes(b1, a0) + _modes(b1, a1)


def matches(
    a: SparseState, b: SparseState, gates: tuple[Gate, ...], threshold: float
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Each gate-index tuple, in lexicographic order over ``gates``, with
    |<b|U a>| > ``threshold``, and that value, for qubit states ``a`` and
    ``b`` of one size; :class:`GuardExceededError` past WORK_LIMIT."""
    q = a.num_qudits
    left = [WORK_LIMIT]

    def spend(cells: int) -> None:
        left[0] -= cells
        if left[0] < 0:
            raise GuardExceededError(f"search work exceeds {WORK_LIMIT}")

    spend(q * 4**q)
    a_vec, b_vec = a._dense(), b._dense()
    entries, terms, weights = _gate_tables(gates)
    # A prefix of k gates survives while 2 |C|**2 >= p_a(k) + p_b(k) - bound;
    # the 1e-12 leaves room for rounding in the purities and |C|**2.
    bound = 4 * (1 - threshold**2) + 1e-12
    floors = {k: (_purity(a_vec, q, k) + _purity(b_vec, q, k) - bound) / 2 for k in range(1, q)}

    def search(depth: int, tensor: list[complex]) -> Iterator[tuple[tuple[int, ...], float]]:
        spend(4 * len(tensor) if depth < q - 1 else 4)
        if depth == q - 1:
            t0, t1, t2, t3 = tensor
            for index, (z0, z1, z2, z3) in enumerate(entries):
                fidelity = abs(z0 * t0 + z1 * t1 + z2 * t2 + z3 * t3)
                if fidelity > threshold:
                    spend(q << q)
                    yield (index,), fidelity
            return
        floor = floors[depth + 1]
        n = len(tensor) >> 2
        blocks = [tensor[m * n : m * n + n] for m in range(4)]
        # The first gate's child (the identity's, in the listing) is built
        # outright, so a hit through it skips the Gram that prices the rest.
        child = _contract(blocks, terms[0])
        if sum(map(mul, child, map(complex.conjugate, child))).real >= floor:
            for rest, fidelity in search(depth + 1, child):
                yield (0,) + rest, fidelity
        gram = _block_gram(blocks)
        for index in range(1, len(terms)):
            if sum(map(mul, weights[index], gram)) >= floor:
                for rest, fidelity in search(depth + 1, _contract(blocks, terms[index])):
                    yield (index,) + rest, fidelity

    return search(0, _modes(list(map(complex.conjugate, b_vec)), a_vec))


def exact_test(a: SparseState, b: SparseState, words: tuple[str, ...]) -> Callable[[tuple[int, ...]], bool]:
    """A test of whether U a is a multiple of b for the gates U of an index
    tuple over ``words``, read in the F_p of
    :func:`qfractal.ranks._field_images` at the phase order lcm(R_a, R_b, 8).

    A word's gate is :func:`qfractal.analyze.word_gate` of the letters
    H = (1, 1; 1, -1) / sqrt(2) and S = diag(1, i), whose entries map through
    the same homomorphism as the amplitudes.  U a is a multiple of b when
    every 2x2 minor (U a)_x b_x0 - (U a)_x0 b_x is 0, for a key x0 of b; as
    a and b are normalized and U is unitary, that is |<b|U a>| = 1.  As for
    every check in F_p, a nonzero minor whose image is 0 would read as 0.
    """
    from .analyze import word_gate
    from .ranks import _field_images

    order = math.lcm(a.phase_order, b.phase_order, 8)
    a_entries, b_entries = a.promoted(order)._packed, b.promoted(order)._packed
    half, quarter = Amplitude.inv_sqrt(2), Amplitude(order // 4)
    _, p, image = _field_images(order, {half, quarter, *a_entries.values(), *b_entries.values()})
    h, i = image[half], image[quarter]
    letters = {"I": ((1, 0), (0, 1)), "H": ((h, h), (h, p - h)), "S": ((1, 0), (0, i))}
    size, q = 1 << a.num_qudits, a.num_qudits
    a_vec, b_vec = ([image.get(entries.get(x), 0) for x in range(size)] for entries in (a_entries, b_entries))
    x0 = next(iter(b_entries))

    @lru_cache(maxsize=None)
    def gate(index: int) -> tuple[tuple[int, int], tuple[int, int]]:
        return tuple(tuple(z % p for z in row) for row in word_gate(words[index], letters))

    def test(indices: tuple[int, ...]) -> bool:
        # a's vector under the gate of index indices[k] on qubit k.
        vec = a_vec[:]
        for k, index in enumerate(indices):
            (g00, g01), (g10, g11) = gate(index)
            bit = 1 << (q - 1 - k)
            for x in range(size):
                if not x & bit:
                    u, v = vec[x], vec[x | bit]
                    vec[x], vec[x | bit] = (g00 * u + g01 * v) % p, (g10 * u + g11 * v) % p
        u0, b0 = vec[x0], b_vec[x0]
        return all((u * b0 - u0 * y) % p == 0 for u, y in zip(vec, b_vec))

    return test
