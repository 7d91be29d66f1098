"""Exact sparse representation of multi-qudit pure states.

Amplitudes live in a small exact ring: a root-of-unity phase ``e^(2*pi*i*r/R)``
times a radical magnitude ``prod_b b**(-e_b/2)`` with integer exponents.  Every
amplitude occurring in the supported state families (Bell pairs and gems,
Cantor-type representative states, repetition-code registers, linear cluster
states) is of this form, so states compare bit-exactly.  Sums that leave the
ring raise :class:`~qfractal.errors.AmplitudeOverflowError` instead of silently
degrading to floats; callers fall back to the dense numpy path where needed.

Basis strings are digit tuples, most-significant digit (leftmost ket symbol)
first.  States are immutable after construction and all operations are pure.

Validation happens once, where a state enters the library: the public
:class:`SparseState` constructor and the file parsers check every key and
phase.  States the library derives from valid states (tensor products, sums,
rescalings, flips, encodings, generated families) are built through a trusted
internal constructor that skips those checks; the property tests rebuild such
results through the public constructor to pin that they would pass it.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import AmplitudeOverflowError, DimensionMismatchError, GuardExceededError

DEFAULT_PHASE_ORDER = 8

# Desk-scale ceilings: keep every dense operation in the sub-second range.
DENSE_VECTOR_LIMIT = 2**14
SCHMIDT_SIDE_LIMIT = 4096
RANK_CUTOFF = 1e-9

BasisIndex = tuple[int, ...]


def check_shape(local_dim: int, num_qudits: int, phase_order: int) -> None:
    """Raise ValueError unless N >= 2, Q >= 1 and R is even and positive."""
    if local_dim < 2:
        raise ValueError(f"local_dim must be >= 2, got {local_dim}")
    if num_qudits < 1:
        raise ValueError(f"num_qudits must be >= 1, got {num_qudits}")
    if phase_order < 2 or phase_order % 2:
        raise ValueError(f"phase_order must be even and positive, got {phase_order}")


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 2 as ((prime, multiplicity), ...)."""
    if n < 2:
        raise ValueError(f"cannot factor {n}; base must be >= 2")
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            count = 0
            while n % p == 0:
                n //= p
                count += 1
            factors.append((p, count))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _canonical_exponents(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Reduce (base, exponent) pairs to sorted prime bases with nonzero exponents."""
    acc: dict[int, int] = {}
    for base, exp in pairs:
        if exp == 0:
            continue
        for prime, mult in _prime_factors(base):
            total = acc.get(prime, 0) + mult * exp
            if total:
                acc[prime] = total
            else:
                acc.pop(prime, None)
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class Amplitude:
    """One exact amplitude: phase ``e^(2*pi*i*r/R)`` times ``prod b**(-e/2)``.

    ``phase_index`` is interpreted modulo the owning state's phase order R.
    ``mag_exponents`` is kept canonical: prime bases, strictly increasing, no
    zero exponents.  Negative exponents (magnitudes above 1) occur transiently,
    e.g. when colliding amplitudes double.
    """

    phase_index: int = 0
    mag_exponents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mag_exponents", _canonical_exponents(self.mag_exponents))

    @classmethod
    def one(cls) -> Amplitude:
        return cls(0, ())

    @classmethod
    def inv_sqrt(cls, k: int, phase_index: int = 0) -> Amplitude:
        """Amplitude k**(-1/2) with an optional phase."""
        if k < 1:
            raise ValueError(f"inv_sqrt needs k >= 1, got {k}")
        if k == 1:
            return cls(phase_index, ())
        return cls(phase_index, ((k, 1),))

    def squared_magnitude(self) -> Fraction:
        """Exact |amplitude|**2 as a rational."""
        value = Fraction(1)
        for base, exp in self.mag_exponents:
            value *= Fraction(1, base**exp) if exp > 0 else Fraction(base ** (-exp))
        return value

    def magnitude(self) -> float:
        return math.prod(base ** (-exp / 2) for base, exp in self.mag_exponents)

    def to_complex(self, phase_order: int) -> complex:
        """Double-precision value; quarter-turn phases are exact."""
        mag = self.magnitude()
        r = self.phase_index % phase_order
        quarter, rem = divmod(4 * r, phase_order)
        if rem == 0:
            phase = (1 + 0j, 1j, -1 + 0j, -1j)[quarter % 4]
        else:
            phase = cmath.exp(2j * cmath.pi * r / phase_order)
        return phase * mag

    def times(self, other: Amplitude, phase_order: int) -> Amplitude:
        return Amplitude(
            (self.phase_index + other.phase_index) % phase_order,
            self.mag_exponents + other.mag_exponents,
        )

    def shifted(self, phase_shift: int, phase_order: int) -> Amplitude:
        return Amplitude((self.phase_index + phase_shift) % phase_order, self.mag_exponents)

    def times_inv_sqrt(self, k: int) -> Amplitude:
        if k < 1:
            raise ValueError(f"inv_sqrt factor must be >= 1, got {k}")
        if k == 1:
            return self
        return Amplitude(self.phase_index, self.mag_exponents + ((k, 1),))

    def rescaled(self, old_order: int, new_order: int) -> Amplitude:
        """Reinterpret the phase index under a finer phase order."""
        if new_order % old_order:
            raise ValueError(f"phase order {new_order} does not refine {old_order}")
        step = new_order // old_order
        return Amplitude((self.phase_index * step) % new_order, self.mag_exponents)


@dataclass(frozen=True)
class Provenance:
    """Optional construction metadata carried by generated states."""

    family: str | None = None
    c: int | None = None
    s: int | None = None
    n: int | None = None


@dataclass(frozen=True, eq=False)
class SparseState:
    """A pure multi-qudit state as a map from basis digit strings to amplitudes.

    Only nonzero entries are stored.  ``local_dim`` (N), ``num_qudits`` (Q) and
    ``phase_order`` (R) are fixed at creation; all amplitudes share R.  The
    object is immutable: operations return new states.

    Calling the constructor validates: every key must be Q digits in [0, N),
    and phase indices are reduced modulo R.  The states that operations return
    are built from already valid states and skip that check.
    """

    local_dim: int
    num_qudits: int
    phase_order: int
    entries: Mapping[BasisIndex, Amplitude] = field(default_factory=dict)
    provenance: Provenance | None = None

    def __post_init__(self) -> None:
        check_shape(self.local_dim, self.num_qudits, self.phase_order)
        order = self.phase_order
        normalized: dict[BasisIndex, Amplitude] = {}
        for digits, amp in self.entries.items():
            key = tuple(digits)
            if len(key) != self.num_qudits:
                raise ValueError(f"basis index {key} has length {len(key)}, expected {self.num_qudits}")
            if min(key) < 0 or max(key) >= self.local_dim:
                raise ValueError(f"basis index {key} has digits outside [0, {self.local_dim})")
            reduced = 0 <= amp.phase_index < order
            normalized[key] = amp if reduced else Amplitude(amp.phase_index % order, amp.mag_exponents)
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def _trusted(
        cls,
        local_dim: int,
        num_qudits: int,
        phase_order: int,
        entries: dict[BasisIndex, Amplitude],
        provenance: Provenance | None = None,
    ) -> SparseState:
        """Build a state without validation, from parts the caller guarantees:
        a valid shape, keys that are tuples of Q ints in [0, N), and phase
        indices in [0, R).  ``entries`` is taken over, not copied."""
        state = object.__new__(cls)
        object.__setattr__(state, "local_dim", local_dim)
        object.__setattr__(state, "num_qudits", num_qudits)
        object.__setattr__(state, "phase_order", phase_order)
        object.__setattr__(state, "entries", entries)
        object.__setattr__(state, "provenance", provenance)
        return state

    def _retagged(self, provenance: Provenance | None) -> SparseState:
        """The same vector carrying ``provenance``."""
        return SparseState._trusted(self.local_dim, self.num_qudits, self.phase_order, self.entries, provenance)

    @classmethod
    def basis_state(
        cls,
        local_dim: int,
        digits: Sequence[int],
        phase_order: int = DEFAULT_PHASE_ORDER,
        provenance: Provenance | None = None,
    ) -> SparseState:
        """The computational basis state |digits> with amplitude 1."""
        key = tuple(digits)
        return cls(local_dim, len(key), phase_order, {key: Amplitude.one()}, provenance)

    def support(self) -> tuple[BasisIndex, ...]:
        """Supported basis strings in ascending order."""
        return tuple(sorted(self.entries))

    def amplitude(self, digits: Sequence[int]) -> Amplitude | None:
        return self.entries.get(tuple(digits))

    def norm_squared(self) -> Fraction:
        """Exact squared norm: the sum of squared magnitudes."""
        counts = Counter(self.entries.values())
        return sum((amp.squared_magnitude() * count for amp, count in counts.items()), Fraction(0))

    def outcome_probability(self, digits: Sequence[int]) -> Fraction:
        """Born-rule probability of the computational outcome ``digits``."""
        key = tuple(digits)
        if len(key) != self.num_qudits:
            raise ValueError(f"outcome has length {len(key)}, expected {self.num_qudits}")
        amp = self.entries.get(key)
        return amp.squared_magnitude() if amp is not None else Fraction(0)

    def tensor(self, other: SparseState) -> SparseState:
        """Tensor product; ``self`` supplies the leading qudits."""
        if self.local_dim != other.local_dim:
            raise DimensionMismatchError(
                f"tensor of local_dim {self.local_dim} with {other.local_dim}"
            )
        order = math.lcm(self.phase_order, other.phase_order)
        a_values, a_keys = _distinct_amplitudes(self.promoted(order).entries)
        b_values, b_keys = _distinct_amplitudes(other.promoted(order).entries)
        # One product per pair of distinct amplitudes; entries only index it.
        table = [[u.times(v, order) for v in b_values] for u in a_values]
        a_rows = [(x, table[i]) for x, i in a_keys]
        entries = {x + y: row[j] for x, row in a_rows for y, j in b_keys}
        return SparseState._trusted(self.local_dim, self.num_qudits + other.num_qudits, order, entries)

    def inner_product(self, other: SparseState) -> complex:
        """<self|other> in double precision over the support intersection."""
        if self.local_dim != other.local_dim or self.num_qudits != other.num_qudits:
            raise DimensionMismatchError("inner product needs matching local_dim and num_qudits")
        total = 0j
        small, big = (self, other) if len(self.entries) <= len(other.entries) else (other, self)
        for key in small.entries:
            if key in big.entries:
                total += (
                    self.entries[key].to_complex(self.phase_order).conjugate()
                    * other.entries[key].to_complex(other.phase_order)
                )
        return total

    def apply_bit_flip(self, position: int) -> SparseState:
        """Toggle the qubit digit at ``position`` in every component; exact."""
        return self._bit_flipped([position])

    def _bit_flipped(self, positions: Sequence[int]) -> SparseState:
        """Toggle the qubit digit at each of the distinct ``positions``, all in
        one rebuild of every key; no positions gives back ``self``."""
        if not positions:
            return self
        if self.local_dim != 2:
            raise ValueError(f"bit flip needs local_dim 2, got {self.local_dim}")
        for position in positions:
            if not 0 <= position < self.num_qudits:
                raise ValueError(f"position {position} out of range for {self.num_qudits} qudits")
        entries = {}
        for key, amp in self.entries.items():
            digits = list(key)
            for position in positions:
                digits[position] ^= 1
            entries[tuple(digits)] = amp
        return SparseState._trusted(self.local_dim, self.num_qudits, self.phase_order, entries)

    def apply_sigma_z(self, position: int) -> SparseState:
        """Phase-flip components with digit 1 at ``position``; exact."""
        if self.local_dim != 2:
            raise ValueError(f"sigma_z needs local_dim 2, got {self.local_dim}")
        if not 0 <= position < self.num_qudits:
            raise ValueError(f"position {position} out of range for {self.num_qudits} qudits")
        half = self.phase_order // 2
        entries = {
            key: amp.shifted(half, self.phase_order) if key[position] == 1 else amp
            for key, amp in self.entries.items()
        }
        return SparseState._trusted(self.local_dim, self.num_qudits, self.phase_order, entries)

    def scaled(self, phase_shift: int = 0, inv_sqrt: int = 1) -> SparseState:
        """Multiply every amplitude by ``e^(2*pi*i*shift/R) * inv_sqrt**(-1/2)``."""
        order = self.phase_order
        entries = _mapped(self.entries, lambda amp: amp.shifted(phase_shift, order).times_inv_sqrt(inv_sqrt))
        return SparseState._trusted(self.local_dim, self.num_qudits, order, entries)

    def promoted(self, phase_order: int) -> SparseState:
        """The same vector expressed under a finer (multiple) phase order."""
        if phase_order == self.phase_order:
            return self
        if phase_order < 2 or phase_order % self.phase_order:
            raise ValueError(f"phase order {phase_order} does not refine {self.phase_order}")
        entries = _mapped(self.entries, lambda amp: amp.rescaled(self.phase_order, phase_order))
        return SparseState._trusted(self.local_dim, self.num_qudits, phase_order, entries, self.provenance)

    def basis_value(self, digits: Sequence[int]) -> int:
        """Digits read as a base-N integer, most-significant digit first."""
        value = 0
        for d in digits:
            value = value * self.local_dim + d
        return value

    def to_dense(self) -> np.ndarray:
        """Dense complex vector of length N**Q (index = base-N digit value)."""
        dim = self.local_dim**self.num_qudits
        if dim > DENSE_VECTOR_LIMIT:
            raise GuardExceededError(f"dense dimension {dim} exceeds {DENSE_VECTOR_LIMIT}")
        return self._dense()

    def _dense(self) -> np.ndarray:
        """Dense vector with no size guard; one complex per distinct amplitude."""
        values: dict[Amplitude, complex] = {}
        vec = np.zeros(self.local_dim**self.num_qudits, dtype=complex)
        for key, amp in self.entries.items():
            value = values.get(amp)
            if value is None:
                value = values[amp] = amp.to_complex(self.phase_order)
            vec[self.basis_value(key)] = value
        return vec

    def schmidt_rank(self, cut: int) -> int:
        """Numerical Schmidt rank across the prefix cut after ``cut`` qudits.

        Singular values below ``RANK_CUTOFF`` times the largest do not count.
        """
        return self._cut_ranks((cut,))[0][1]

    def _cut_ranks(self, cuts: Iterable[int]) -> tuple[tuple[int, int], ...]:
        """(cut, Schmidt rank) for each cut, in order, from one dense vector
        built at the first cut that passes its checks."""
        ranks: list[tuple[int, int]] = []
        vec: np.ndarray | None = None
        for cut in cuts:
            if not 0 < cut < self.num_qudits:
                raise ValueError(f"cut must satisfy 0 < cut < {self.num_qudits}, got {cut}")
            rows = self.local_dim**cut
            cols = self.local_dim ** (self.num_qudits - cut)
            if rows > SCHMIDT_SIDE_LIMIT or cols > SCHMIDT_SIDE_LIMIT:
                raise GuardExceededError(
                    f"coefficient matrix {rows}x{cols} exceeds {SCHMIDT_SIDE_LIMIT} per side"
                )
            if vec is None:
                vec = self._dense()
            # Row-major: the basis value of a key is row * cols + col.
            singular = np.linalg.svd(vec.reshape(rows, cols), compute_uv=False)
            if singular.size == 0 or singular[0] == 0.0:
                ranks.append((cut, 0))
            else:
                ranks.append((cut, int(np.sum(singular > RANK_CUTOFF * singular[0]))))
        return tuple(ranks)

    def __eq__(self, other: object) -> bool:
        """Exact equality as vectors (provenance is ignored)."""
        if not isinstance(other, SparseState):
            return NotImplemented
        if self.local_dim != other.local_dim or self.num_qudits != other.num_qudits:
            return False
        order = math.lcm(self.phase_order, other.phase_order)
        return self.promoted(order).entries == other.promoted(order).entries

    def __repr__(self) -> str:
        return (
            f"SparseState(N={self.local_dim}, Q={self.num_qudits}, R={self.phase_order}, "
            f"entries={len(self.entries)})"
        )


def _distinct_amplitudes(
    entries: Mapping[BasisIndex, Amplitude],
) -> tuple[list[Amplitude], list[tuple[BasisIndex, int]]]:
    """The distinct amplitudes of ``entries``, and each key with the index of
    its amplitude among them, in entry order."""
    index: dict[Amplitude, int] = {}
    keys = [(key, index.setdefault(amp, len(index))) for key, amp in entries.items()]
    return list(index), keys


def _mapped(
    entries: Mapping[BasisIndex, Amplitude], fn: Callable[[Amplitude], Amplitude]
) -> dict[BasisIndex, Amplitude]:
    """``entries`` with ``fn`` applied once per distinct amplitude."""
    memo: dict[Amplitude, Amplitude] = {}
    out: dict[BasisIndex, Amplitude] = {}
    for key, amp in entries.items():
        image = memo.get(amp)
        if image is None:
            image = memo[amp] = fn(amp)
        out[key] = image
    return out


def _net(key: BasisIndex, amps: list[Amplitude], order: int) -> Amplitude | None:
    """Exact sum of the amplitudes colliding on ``key``; None when they cancel.

    Terms are counted per (magnitude, root of unity up to sign), opposite
    roots subtracting, so the result does not depend on their order.  The sum
    stays in the ring only when at most one count is left nonzero.
    """
    half = order // 2
    counts: dict[tuple[tuple[tuple[int, int], ...], int], int] = {}
    for amp in amps:
        root, negated = amp.phase_index % half, amp.phase_index >= half
        counts[amp.mag_exponents, root] = counts.get((amp.mag_exponents, root), 0) + (-1 if negated else 1)
    left = [(cell, count) for cell, count in counts.items() if count]
    if not left:
        return None
    if len(left) > 1:
        raise AmplitudeOverflowError(
            f"amplitudes at {key} do not sum into the exact ring; use the dense path for general sums"
        )
    (mag_exponents, root), count = left[0]
    phase = root if count > 0 else root + half
    if abs(count) == 1:
        return Amplitude(phase, mag_exponents)
    return Amplitude(phase, mag_exponents + ((abs(count), -2),))


def superpose(terms: Sequence[tuple[int, SparseState]]) -> SparseState:
    """Exact sum of phase-shifted states; no renormalization.

    Amplitudes colliding on a basis string are netted once all terms are in:
    equal ones add up as an integer multiple and opposite ones cancel, in any
    order.  A sum left with more than one magnitude or phase class raises
    :class:`AmplitudeOverflowError`.  Scaling responsibility lives with the
    caller: constructors pass correctly pre-scaled inputs.
    """
    if not terms:
        raise ValueError("superpose needs at least one term")
    first = terms[0][1]
    order = first.phase_order
    for _, state in terms[1:]:
        if state.local_dim != first.local_dim or state.num_qudits != first.num_qudits:
            raise DimensionMismatchError("superpose terms must share local_dim and num_qudits")
        if state.phase_order != order:
            raise DimensionMismatchError("superpose terms must share phase_order")
    acc: dict[BasisIndex, Amplitude] = {}
    collided: dict[BasisIndex, list[Amplitude]] = {}
    for phase_shift, state in terms:
        entries = state.entries
        if phase_shift % order:
            entries = _mapped(entries, lambda amp: amp.shifted(phase_shift, order))
        for key, amp in entries.items():
            if key not in acc:
                acc[key] = amp
            elif key in collided:
                collided[key].append(amp)
            else:
                collided[key] = [acc[key], amp]
    for key, amps in collided.items():
        total = _net(key, amps, order)
        if total is None:
            del acc[key]
        else:
            acc[key] = total
    return SparseState._trusted(first.local_dim, first.num_qudits, order, acc)
