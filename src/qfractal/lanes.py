"""Packed rows for the Schmidt sweep of :mod:`qfractal.ranks` over a support
of all N**Q strings.

A row is one int holding a 128-bit lane per column, in base-N order of the
strings (of the reversed strings for a sweep from the right), so digit d of
a cut owns the d-th block of lanes: a piece is one shift and one mask, and a
reduction step is one multiply-add over the whole row.  For p = 2**61 + delta
a lane folds at bit 61, as 2**61 = -delta mod p, with a multiple of p added
to keep it nonnegative.  Lanes are brought back below p only when a lead
lane reads 0, before a row is kept as a pivot, and before a lane could
overflow; a pivot keeps the inverse of its lead instead of being normalized.
This is the simultaneous reduction of Dumas, Fousse and Salvy (J. Symbolic
Comput. 46, 2011) on Python ints.
"""

from __future__ import annotations

from functools import lru_cache

from .ranks import _refused
from .states import Amplitude, SparseState

# A packed row holds one field element per LANE bits.  A packed step is
# charged 4 cells plus one per LANES_PER_CELL lanes it touches, which costs
# about as long as a dict cell.
LANE = 128
LANE_MASK = (1 << LANE) - 1
LANES_PER_CELL = 8
# Fields whose lanes take more folds than this to come back below 2 * p keep dict rows.
FOLD_LIMIT = 4


def packed_sweep(
    state: SparseState, images: dict[Amplitude, int], p: int, right: bool, steps: int, left: int
) -> list[int]:
    """The ranks at steps 0, ..., ``steps`` of the sweep, for a state whose
    support is all N**Q strings and a p that :func:`lane_folds` accepts.  A
    pivot row is kept from its lead lane up."""
    multiples, adds = lane_folds(p)
    n, q, delta = state.local_dim, state.num_qudits, p - 2**61
    rows, ranks = [(_first_row(state, images, right), 0)], [1]
    # Per-lane constants, as long as the longest piece.
    low, lift, *offsets = [
        int.from_bytes(c.to_bytes(LANE // 8, "little") * n ** (q - 1), "little")
        for c in (2**61 - 1, 2**64 - p, *(k * p for k in multiples))
    ]
    for step in range(1, steps + 1):
        cols = n ** (q - step)
        mask = (1 << cols * LANE) - 1
        unused = n ** (q - 1) - cols

        def reduce(v: int, base: int) -> int:
            """``v``, a row from lane ``base`` up, with every lane in [0, p)."""
            shift = (unused + base) * LANE
            # 2**61 = -delta mod p; adding k * p per lane keeps each lane >= 0.
            for offset in offsets:
                lo = v & low
                v = lo + (offset >> shift) - delta * ((v ^ lo) >> 61)
            # Each lane is now below 2 * p: subtract p where lane + 2**64 - p
            # carries into bit 64, which the shift brings to bit 0.
            return v - p * ((v + (lift >> shift)) >> 64 & low)

        pivots: dict[int, tuple[int, int]] = {}
        while rows:
            rest, lead = rows.pop()
            left -= n * cols // LANES_PER_CELL
            # Digit d owns lanes d * cols to (d + 1) * cols - 1 of the full row.
            rest <<= lead % cols * LANE
            while rest and len(pivots) < cols:
                v, rest = rest & mask, rest >> cols * LANE
                base = done = 0
                while v and left >= 0:
                    if not v & LANE_MASK:
                        skip = ((v & -v).bit_length() - 1) // LANE
                        v >>= skip * LANE
                        base += skip
                    left -= 4 + (cols - base) // LANES_PER_CELL
                    value = (v & LANE_MASK) % p
                    if not value:
                        v, done = reduce(v, base), 0
                        continue
                    pivot = pivots.get(base)
                    if pivot is None:
                        pivots[base] = reduce(v, base) if done else v, pow(value, -1, p)
                        break
                    v = v + (p - value) * pivot[1] % p * pivot[0] >> LANE
                    base += 1
                    done += 1
                    if done == adds:
                        v, done = reduce(v, base), 0
                if left < 0:
                    raise _refused(state, right, step)
        rows = [(row, lead) for lead, (row, _) in pivots.items()]
        ranks.append(len(rows))
    return ranks


def _first_row(state: SparseState, images: dict[Amplitude, int], right: bool) -> int:
    """The state's images, one per lane in base-N order of the strings (of
    the reversed strings when ``right``)."""
    lanes = {amp: value.to_bytes(LANE // 8, "little") for amp, value in images.items()}
    parts = list(map(lanes.__getitem__, map(state._packed.__getitem__, sorted(state._packed))))
    if right:
        parts = list(map(parts.__getitem__, _digit_reversal(state.local_dim, state.num_qudits)))
    # Joined in blocks: join holds an 80-byte buffer view per part it joins.
    return int.from_bytes(b"".join([b"".join(parts[i : i + 4096]) for i in range(0, len(parts), 4096)]), "little")


@lru_cache(maxsize=None)
def lane_folds(p: int) -> tuple[tuple[int, ...], int] | None:
    """The multiple k of p that each fold adds to every lane, and the
    multiply-adds by a reduced row that a lane holds between reductions;
    None when folding a 128-bit lane back below 2**61 + p takes over
    FOLD_LIMIT folds (p >= 2**62, or p - 2**61 too large).  A fold maps a
    lane hi * 2**61 + lo to lo - (p - 2**61) * hi + k * p."""
    bound, multiples = LANE_MASK, []
    while bound > 2**61 - 1 + p:
        if len(multiples) == FOLD_LIMIT:
            return None
        multiples.append(-(-(p - 2**61) * (bound >> 61) // p))
        bound = 2**61 - 1 + multiples[-1] * p
    return tuple(multiples), (LANE_MASK - p) // (p - 1) ** 2


def _digit_reversal(n: int, q: int) -> list[int]:
    """For each string of q base-n digits in order, the position of its
    reverse; the map is its own inverse."""
    order = [0]
    for j in range(q):
        order = [s * n**j + r for r in order for s in range(n)]
    return order
