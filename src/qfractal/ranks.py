"""Exact Schmidt ranks of a sparse state from one sweep over its packed keys.

The state enters F_p as one vector.  The rows of the cut-k coefficient matrix
are the leading-digit slices of the rows at cut k - 1, so slicing each
echelon row of cut k - 1 and eliminating the slices gives an echelon basis of
the cut-k row space; its size is the rank at cut k.  Amplitudes map into F_p
through one ring homomorphism (:func:`_field_images`).  The rank over F_p
never exceeds the true rank r, and equals it unless every nonzero r-by-r
minor lies in the kernel: a prime ideal over the one p >= 2**61 chosen from R
and the magnitude bases.

One budget bounds the time a sweep may take: it is charged for the Gauss
sums, for every cell sliced and for the cells each elimination step reads,
and the sweep stops at the cut where it runs out.

States import this module only when a rank is asked for, so the commands that
take no cut do not compile it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .errors import GuardExceededError
from .states import digit_bits

if TYPE_CHECKING:
    from .states import Amplitude, SparseState

# The sweep's budget in cells; one is about 0.25 us of pure Python, so a
# refused sweep stops after about a second.
SCHMIDT_WORK_LIMIT = 2**22
# The largest root order M; it keeps p below 3.3 * 10**24, where _is_prime is exact.
ROOT_ORDER_LIMIT = 2**64


def sweep_ranks(state: SparseState, last_cut: int) -> list[int]:
    """The Schmidt ranks of ``state`` at cuts 0, 1, ..., ``last_cut``; the
    caller has checked that those cuts exist."""
    left, modulus, rows = SCHMIDT_WORK_LIMIT, 0, []
    if state._packed and last_cut:
        left, modulus, images = _field_images(state.phase_order, set(state._packed.values()))
        rows = [{key: images[amp] for key, amp in state._packed.items()}]
    ranks = [len(rows)]
    bits = digit_bits(state.local_dim)
    for cut in range(1, last_cut + 1):
        shift = bits * (state.num_qudits - cut)
        mask = (1 << shift) - 1
        pivots: dict[int, dict[int, int]] = {}
        for row in rows:
            left -= len(row)
            pieces: dict[int, dict[int, int]] = {}
            for col, value in row.items():
                pieces.setdefault(col >> shift, {})[col & mask] = value
            for piece in pieces.values():
                left -= _eliminate(piece, pivots, modulus, left)
            if left < 0:
                raise GuardExceededError(f"cut {cut}: sweep work exceeds {SCHMIDT_WORK_LIMIT}")
        rows = list(pivots.values())
        ranks.append(len(rows))
    return ranks


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 41; these witnesses make it exact below 3.3 * 10**24."""
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, (n - 1) >> twos, n)
        if x != 1 and n - 1 not in (pow(x, 2**j, n) for j in range(twos)):
            return False
    return True


def _prime_divisors(n: int) -> set[int]:
    """The primes dividing 1 <= n < 3.3 * 10**24: trial division below 2**10,
    then Pollard's rho on what is left."""
    primes = set()
    for q in range(2, 2**10):
        if n % q == 0:
            primes.add(q)
            while n % q == 0:
                n //= q
    composites = [n] if n > 1 else []
    while composites:
        m = composites.pop()
        if _is_prime(m):
            primes.add(m)
            continue
        for c in itertools.count(1):
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = math.gcd(x - y, m)
            if d != m:
                composites += [d, m // d]
                break
    return primes


def _prime_field(order: int) -> tuple[int, int]:
    """The least prime p = 1 mod ``order`` at or above 2**61, and an
    element of multiplicative order ``order`` in F_p."""
    p = -(-(2**61 - 1) // order) * order + 1
    while not _is_prime(p):
        p += order
    primes = _prime_divisors(order)
    for g in itertools.count(2):
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in primes):
            return p, w


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
    if gauss_work > SCHMIDT_WORK_LIMIT:
        raise GuardExceededError(f"Gauss sum work {gauss_work} exceeds {SCHMIDT_WORK_LIMIT}")
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
    return SCHMIDT_WORK_LIMIT - gauss_work, p, {
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
