"""Exact Schmidt ranks and squared overlaps of sparse states, computed in F_p.

The state enters F_p as one vector.  The rows of the cut-k coefficient matrix
are the leading-digit slices of the rows at cut k - 1, so slicing each
echelon row of cut k - 1 and eliminating the slices gives an echelon basis of
the cut-k row space; its size is the rank at cut k.  A set of cuts is
answered by one such sweep, from the right end over the trailing digits when
that end is nearer the furthest cut.  Amplitudes map into F_p through one
ring homomorphism (:func:`_field_images`).  The rank over F_p never exceeds
the true rank r, and equals it unless every nonzero r-by-r minor lies in the
kernel: a prime ideal over the one p >= 2**61 chosen from R and the
magnitude bases.

A row takes one of two forms, which give the same ranks.  Over a sparse
support it is a dict from column to value.  When the support holds at least
PACKED_MIN_SHARE of the N**Q strings, and the field lets 128-bit lanes hold
its products, it is one int with a lane per string in base-N order (of the
reversed strings for a sweep from the right), zero for a string outside the
support: digit d of a cut owns the d-th block of lanes, so a piece is one
shift and one mask, and a reduction step is one multiply-add over the whole
row.  For p = 2**61 + delta a lane folds at bit 61, as 2**61 = -delta mod p,
with a multiple of p added to keep it nonnegative.  Lanes are brought back
below p only when a lead lane reads 0, before a row is kept as a pivot, and
before a lane could overflow; a pivot keeps the inverse of its lead instead
of being normalized.  This is the simultaneous reduction of Dumas, Fousse
and Salvy (J. Symbolic Comput. 46, 2011) on Python ints.

The budget :data:`qfractal.states.WORK_LIMIT`, which the local-Clifford
search shares, bounds the time a sweep may take: it is charged for the Gauss
sums, the cells sliced, the cells each elimination step reads (packed rows
per lane, at a measured rate) and each zero lane built, and the sweep stops
at the cut where it runs out.

A squared overlap |<u|v>|**2 maps through the same homomorphism.  The library
imports this module only for a rank or an overlap, so the commands that need
neither do not compile it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable

from .errors import DimensionMismatchError, GuardExceededError
from .states import WORK_LIMIT, Amplitude, SparseState, _is_prime, _prime_factors, capped_power, digit_bits

# The largest root order M; it keeps p below 3.3 * 10**24, where _is_prime is exact.
ROOT_ORDER_LIMIT = 2**64
# A packed row holds one field element per LANE bits.  A packed step is
# charged 4 cells plus one per LANES_PER_CELL lanes it touches, which costs
# about as long as a dict cell.
LANE = 128
LANE_MASK = (1 << LANE) - 1
LANES_PER_CELL = 8
# Fields whose lanes take more folds than this to come back below 2 * p keep dict rows.
FOLD_LIMIT = 4
# A lane costs about 0.3 us to build.  Sweeps to cut 1 of random supports
# ran faster on dict rows below half the N**Q strings and packed from 3/4
# up; every longer sweep measured ran faster packed from 1/4 up.
PACKED_MIN_SHARE = 3 / 4


def sweep_ranks(state: SparseState, cuts: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """(cut, Schmidt rank of ``state`` across it) for each of ``cuts``, in
    order, from one sweep: from the right end when it is nearer the furthest
    cut, else from the left.  No cuts build no field."""
    q, cuts = state.num_qudits, tuple(cuts)
    for cut in cuts:
        if not 0 < cut < q:
            raise ValueError(f"cut must satisfy 0 < cut < {q}, got {cut}")
    if not cuts:
        return ()
    right = q - min(cuts) < max(cuts)
    steps = q - min(cuts) if right else max(cuts)
    ranks = [0] * (steps + 1)
    if state._packed:
        left, p, images = _field_images(state.phase_order, set(state._packed.values()))
        packed = len(state._packed) >= PACKED_MIN_SHARE * capped_power(state.local_dim, q) and lane_folds(p)
        ranks = (packed_sweep if packed else _dict_sweep)(state, images, p, right, steps, left)
    return tuple((cut, ranks[q - cut if right else cut]) for cut in cuts)


def _refused(state: SparseState, right: bool, step: int) -> GuardExceededError:
    cut = state.num_qudits - step if right else step
    return GuardExceededError(f"cut {cut}: sweep work exceeds {WORK_LIMIT}")


def _dict_sweep(
    state: SparseState, images: dict[Amplitude, int], p: int, right: bool, steps: int, left: int
) -> list[int]:
    """The sweep with each row a dict from column to value, for any support;
    from the right, a row is sliced by its last digit."""
    bits, q = digit_bits(state.local_dim), state.num_qudits
    digit = (1 << bits) - 1
    rows, ranks = [{key: images[amp] for key, amp in state._packed.items()}], [1]
    for step in range(1, steps + 1):
        shift = bits * (q - step)
        mask = (1 << shift) - 1
        pivots: dict[int, dict[int, int]] = {}
        for row in rows:
            left -= len(row)
            pieces: dict[int, dict[int, int]] = {}
            if right:
                for col, value in row.items():
                    pieces.setdefault(col & digit, {})[col >> bits] = value
            else:
                for col, value in row.items():
                    pieces.setdefault(col >> shift, {})[col & mask] = value
            for piece in pieces.values():
                left -= _eliminate(piece, pivots, p, left)
            if left < 0:
                raise _refused(state, right, step)
        rows = list(pivots.values())
        ranks.append(len(rows))
    return ranks


def packed_sweep(
    state: SparseState, images: dict[Amplitude, int], p: int, right: bool, steps: int, left: int
) -> list[int]:
    """The sweep with each row one int of lanes, for a p that
    :func:`lane_folds` accepts.  A pivot row is kept from its lead lane up."""
    multiples, adds = lane_folds(p)
    n, q, delta = state.local_dim, state.num_qudits, p - 2**61
    left -= n**q - len(state._packed)
    if left < 0:
        raise _refused(state, right, 1)
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
    the reversed strings when ``right``), and 0 outside the support."""
    lanes: dict[Amplitude | None, bytes] = {amp: value.to_bytes(LANE // 8, "little") for amp, value in images.items()}
    lanes[None] = bytes(LANE // 8)
    n, q, bits, get = state.local_dim, state.num_qudits, digit_bits(state.local_dim), state._packed.get
    # Digit j of a packed key is string digit q - 1 - j.  The lanes vary the
    # last string digit fastest, or from the right the first; the keys of
    # each half of the digits are listed with the digit added last fastest.
    digits, halves = list(range(q) if right else reversed(range(q))), []
    for part in digits[: q // 2], digits[q // 2 :]:
        halves.append([0])
        for j in part:
            halves[-1] = [key | s << bits * j for key in halves[-1] for s in range(n)]
    # Joined in blocks: join holds an 80-byte buffer view per part it joins.
    row, (outer, inner) = bytearray(), halves
    for high in outer:
        row += b"".join([lanes[get(high | key)] for key in inner])
    return int.from_bytes(row, "little")


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


@lru_cache(maxsize=None)
def _prime_field(order: int) -> tuple[int, int]:
    """The least prime p = 1 mod ``order`` at or above 2**61, and an
    element of multiplicative order ``order`` in F_p."""
    p = -(-(2**61 - 1) // order) * order + 1
    while not _is_prime(p):
        p += order
    for g in itertools.count(2):
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q, _ in _prime_factors(order)):
            return p, w


def squared_overlap(u: SparseState, v: SparseState) -> tuple[int, int]:
    """|<u|v>|**2 mod p, and p, under the homomorphism of :func:`_field_images`:
    0 when the overlap is 0, and otherwise too only if the value lies in its
    kernel.  Supports that do not meet give (0, 1), and build no field."""
    if u.local_dim != v.local_dim or u.num_qudits != v.num_qudits:
        raise DimensionMismatchError("inner product needs matching local_dim and num_qudits")
    order = math.lcm(u.phase_order, v.phase_order)
    a, b = u.promoted(order)._packed, v.promoted(order)._packed
    shared = a.keys() & b.keys()
    if not shared:
        return 0, 1
    amps = {amp for key in shared for amp in (a[key], b[key])}
    # A magnitude is real, so conjugating an amplitude negates its phase.
    conj = {amp: Amplitude._canonical(-amp.phase_index % order, amp.mag_exponents) for amp in amps}
    _, p, image = _field_images(order, {*amps, *conj.values()})
    inner = sum(image[conj[a[key]]] * image[b[key]] for key in shared)
    outer = sum(image[a[key]] * image[conj[b[key]]] for key in shared)
    return inner * outer % p, p


def _field_images(phase_order: int, amps: set[Amplitude]) -> tuple[int, int, dict[Amplitude, int]]:
    """The sweep work left after the Gauss sums, p, and the image in F_p of
    each amplitude under one homomorphism Z[zeta_M] -> F_p.

    R' is the order of the roots the phases use, and M = lcm(2, R', 8 if 2
    is a magnitude base, 4q for each odd prime base q).  Every root is a
    power of one w of order M: zeta_R' is w**(M/R'), sqrt 2 is zeta_8 +
    1/zeta_8, and sqrt q is the Gauss sum sum_x zeta_q**(x*x), divided by
    i = zeta_4 when q = 3 mod 4."""
    stride = math.gcd(phase_order, *(amp.phase_index for amp in amps))
    roots_order = phase_order // stride
    bases = {base for amp in amps for base, _ in amp.mag_exponents}
    order = math.lcm(2, roots_order, *(8 if base == 2 else 4 * base for base in bases))
    if order > ROOT_ORDER_LIMIT:
        raise GuardExceededError(f"root order {order} exceeds {ROOT_ORDER_LIMIT}")
    gauss_work = sum(base for base in bases if base > 2)
    if gauss_work > WORK_LIMIT:
        raise GuardExceededError(f"Gauss sum work {gauss_work} exceeds {WORK_LIMIT}")
    p, w = _prime_field(order)
    roots: dict[int, int] = {}
    for q in bases:
        if q == 2:
            eighth = pow(w, order // 8, p)
            roots[q] = eighth + pow(eighth, -1, p)
            continue
        # x and -x give the same term, and zeta**((x+1)**2) is zeta**(x*x) * zeta**(2x+1).
        zeta = pow(w, order // q, p)
        term, step, square, total = 1, zeta, zeta * zeta % p, 0
        for _ in range(q // 2):
            term = term * step % p
            step = step * square % p
            total += term
        gauss = 1 + 2 * total
        # i**-1 is w**(3M/4).
        roots[q] = gauss * pow(w, 3 * order // 4, p) if q % 4 == 3 else gauss
    zeta_r = pow(w, order // roots_order, p)
    return WORK_LIMIT - gauss_work, p, {
        amp: pow(zeta_r, amp.phase_index // stride, p)
        * math.prod(pow(roots[b], -e, p) for b, e in amp.mag_exponents)
        % p
        for amp in amps
    }


def _eliminate(vector: dict[int, int], pivots: dict[int, dict[int, int]], p: int, allowance: int) -> int:
    """Reduce ``vector`` against the echelon rows of ``pivots``, each keyed
    by its least column; what is left joins them as a new row.  Returns the
    cells read, and stops once they pass ``allowance``."""
    work = 0
    while vector and work <= allowance:
        col = min(vector)
        row = pivots.get(col)
        if row is None:
            pivots[col] = vector
            break
        work += len(vector) + len(row)
        factor = vector[col] * pow(row[col], -1, p) % p
        for c, v in row.items():
            value = (vector.get(c, 0) - factor * v) % p
            if value:
                vector[c] = value
            else:
                del vector[c]
    return work
