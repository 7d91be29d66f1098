"""Exact sparse representation of multi-qudit pure states.

Amplitudes live in a small exact ring: a root-of-unity phase ``e^(2*pi*i*r/R)``
times a radical magnitude ``prod_b b**(-e_b/2)`` with integer exponents.  Every
amplitude occurring in the supported state families (Bell pairs and gems,
Cantor-type representative states, repetition-code registers, linear cluster
states) is of this form, so states compare bit-exactly.  Sums that leave the
ring raise :class:`~qfractal.errors.AmplitudeOverflowError` instead of silently
degrading to floats.

Each basis string is stored as one packed integer: every digit takes a field
of ``(N - 1).bit_length()`` bits, the leftmost ket symbol in the most
significant field.  So a tensor product is a shift and an or, a qubit flip is
an xor, and integer order is the order of the digit strings.  The public view
:attr:`SparseState.entries` still maps digit tuples, most-significant digit
first, to amplitudes.  States are immutable after construction and all
operations are pure.

A key converts to its digits and back with no Python step per digit: bit
plane i of every digit is the slice ``text[i::bits]`` of the key's binary
text, so the planes, read with a byte per digit and added in at their
places, make the digits' bytes, and are sliced back out the other way.

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
import sys
from collections import Counter
from collections.abc import ItemsView, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import index, lshift, or_
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import AmplitudeOverflowError, DimensionMismatchError, GuardExceededError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_PHASE_ORDER = 8

# Desk-scale ceilings: keep every dense operation in the sub-second range.
DENSE_VECTOR_LIMIT = 2**14

BasisIndex = tuple[int, ...]
T = TypeVar("T")


def shape_defect(local_dim: int, num_qudits: int, phase_order: int) -> tuple[str, str] | None:
    """The first of N, Q and R out of range, as (field name, message); None
    when N >= 2, Q >= 1 and R is even and positive."""
    if local_dim < 2:
        return "local_dim", f"local_dim must be >= 2, got {local_dim}"
    if num_qudits < 1:
        return "num_qudits", f"num_qudits must be >= 1, got {num_qudits}"
    if phase_order < 2 or phase_order % 2:
        return "phase_order", f"phase_order must be even and positive, got {phase_order}"
    return None


def digit_bits(local_dim: int) -> int:
    """Width of one digit's field in a packed key."""
    return (local_dim - 1).bit_length()


# Constructors refuse outputs past these ceilings; 2**33 key bits is 1 GiB.
MAX_ENTRIES = 10**6
MAX_QUDITS = 10**4
MAX_KEY_BITS = 2**33
# The work budget of a Schmidt sweep and of the Clifford search, in 0.1-0.3 us cells.
WORK_LIMIT = 2**22


def check_size(subject: str, entries: int, qudits: int, local_dim: int) -> None:
    """Raise :class:`GuardExceededError` at the first qudit, entry or key-bit ceiling a state this size passes."""
    bits = entries * qudits * digit_bits(local_dim)
    ceilings = (qudits, MAX_QUDITS, "qudits"), (entries, MAX_ENTRIES, "entries"), (bits, MAX_KEY_BITS, "key bits")
    for size, limit, unit in ceilings:
        if size > limit:
            raise GuardExceededError(f"{subject} would exceed {limit} {unit}")


def capped_power(base: int, exponent: int) -> int:
    """``min(base**exponent, MAX_KEY_BITS + 1)``, which every ceiling refuses.  As
    ``base >= 2**(bit_length - 1)``, a deep exponent alone shows the power is past it."""
    deep = exponent * (base.bit_length() - 1) > MAX_KEY_BITS.bit_length()
    return MAX_KEY_BITS + 1 if deep else min(base**exponent, MAX_KEY_BITS + 1)


# A packed key is its digit string read in base 2**bits.  format() writes
# bases 2, 8 and 16, so for those field widths it writes the digit text.
_FORMAT_CODES = {1: "b", 3: "o", 4: "x"}
_HEX_DIGITS = b"0123456789abcdef"
_TO_TEXT = bytes.maketrans(bytes(range(16)), _HEX_DIGITS)
_FROM_TEXT = bytes.maketrans(_HEX_DIGITS, bytes(range(16)))


def digit_text(key: int, local_dim: int, num_qudits: int) -> str:
    """A packed key in base 2**digit_bits(N), one character of 0-9a-f per
    digit, for N <= 16; its inverse is ``int(text, 2**digit_bits(N))``."""
    bits = digit_bits(local_dim)
    code = _FORMAT_CODES.get(bits)
    if code is not None:
        return format(key, f"0{num_qudits}{code}")
    return _key_bytes(key, bits, num_qudits).translate(_TO_TEXT).decode("ascii")


def _int_in_base(text: str, base: int) -> int:
    """``int(text, base)``, read as hi * base**h + lo from two halves while
    ``text`` has more digits than int() converts (a limit of 0: no limit)."""
    # Pythons before 3.10.7 have no limit, and no function that reads it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or len(text) <= limit:
        return int(text, base)
    h = len(text) >> 1
    return _int_in_base(text[:-h], base) * base**h + _int_in_base(text[-h:], base)


def _key_bytes(key: int, bits: int, num_qudits: int) -> bytes:
    """Byte j of every digit of a packed key in run j, the most significant
    of a digit's ceil(bits / 8) bytes first: each bit plane of the key's
    binary text added in at its place, as an integer with a byte per digit."""
    planes = format(key, f"0{bits * num_qudits}b").encode().translate(_FROM_TEXT)
    value = 0
    for i in range(bits):
        low = bits - 1 - i
        value += int.from_bytes(planes[i::bits], "big") << 8 * num_qudits * (low // 8) + low % 8
    return value.to_bytes(-(-bits // 8) * num_qudits, "big")


def pack_digits(digits: Sequence[int], local_dim: int) -> int:
    """The packed key of a digit string whose digits lie in [0, N): each bit
    plane of the digits' bytes, in binary text, put in its place."""
    bits = digit_bits(local_dim)
    size = -(-bits // 8)
    # For one-byte digits bytes() makes this 3 to 4 times as fast at Q = 256-400.
    data = bytes(digits) if size == 1 else b"".join(map(int.to_bytes, map(index, digits), repeat(size), repeat("big")))
    wide = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b").encode()
    text = bytearray(bits * len(digits))
    for i in range(bits):
        text[i::bits] = wide[8 * size - bits + i :: 8 * size]
    return int(text, 2)


def _checked_key(digits: tuple, local_dim: int, num_qudits: int) -> int:
    """The packed key of a tuple of Q integer digits in [0, N); ValueError
    naming the first of its length, range and type that is not."""
    if len(digits) != num_qudits:
        raise ValueError(f"basis index {digits} has length {len(digits)}, expected {num_qudits}")
    if min(digits) < 0 or max(digits) >= local_dim:
        raise ValueError(f"basis index {digits} has digits outside [0, {local_dim})")
    try:
        return pack_digits(digits, local_dim)
    except TypeError:
        raise ValueError(f"basis index {digits} has a digit that is not an integer") from None


def unpack_digits(key: int, local_dim: int, num_qudits: int) -> BasisIndex:
    """The digit tuple of a packed key of ``num_qudits`` digits."""
    bits = digit_bits(local_dim)
    if bits in _FORMAT_CODES:
        return tuple(digit_text(key, local_dim, num_qudits).encode().translate(_FROM_TEXT))
    data = _key_bytes(key, bits, num_qudits)
    digits = data[:num_qudits]
    for start in range(num_qudits, len(data), num_qudits):
        digits = map(or_, map(lshift, digits, repeat(8)), data[start : start + num_qudits])
    return tuple(digits)


# The least strong pseudoprime to every witness of _is_prime, about 3.3 * 10**24.
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 41; these witnesses make it exact below PRIME_TEST_LIMIT."""
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, (n - 1) >> twos, n)
        if x != 1 and n - 1 not in (pow(x, 2**j, n) for j in range(twos)):
            return False
    return True


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 2 as ((prime, multiplicity), ...), primes
    increasing: trial division below 2**10, then Pollard's rho on what is left,
    which must lie below PRIME_TEST_LIMIT."""
    if n < 2:
        raise ValueError(f"cannot factor {n}; base must be >= 2")
    counts: Counter[int] = Counter()
    for q in range(2, 2**10):
        while n % q == 0:
            counts[q] += 1
            n //= q
    if n >= PRIME_TEST_LIMIT:
        raise GuardExceededError(f"factor {n} is not below {PRIME_TEST_LIMIT}, where primality is decided exactly")
    composites = [n] if n > 1 else []
    while composites:
        m = composites.pop()
        if _is_prime(m):
            counts[m] += 1
            continue
        c, d = 0, m
        while d == m:
            c += 1
            x, y, d = 2, 2, 1
            while d == 1:
                x, y = (x * x + c) % m, ((y * y + c) ** 2 + c) % m
                d = math.gcd(x - y, m)
        composites += [d, m // d]
    return tuple(sorted(counts.items()))


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


@lru_cache(maxsize=None)
def _squared_magnitude(mag_exponents: tuple[tuple[int, int], ...]) -> Fraction:
    """prod b**(-e) over (base, exponent) pairs, as a rational."""
    return math.prod((Fraction(base) ** -exp for base, exp in mag_exponents), start=Fraction(1))


class _AmplitudeFields(NamedTuple):
    phase_index: int
    mag_exponents: tuple[tuple[int, int], ...]


class _Checked:
    """Mixin for a named tuple whose ``__new__`` checks or canonicalizes its
    fields: ``_make``, and so ``_replace``, go through that constructor
    instead of building the tuple directly."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]):
        return cls(*iterable)


class Amplitude(_Checked, _AmplitudeFields):
    """One exact amplitude: phase ``e^(2*pi*i*r/R)`` times ``prod b**(-e/2)``.

    ``phase_index`` is interpreted modulo the owning state's phase order R.
    ``mag_exponents`` is kept canonical: prime bases, strictly increasing, no
    zero exponents.  Negative exponents (magnitudes above 1) occur transiently,
    e.g. when colliding amplitudes double.  An amplitude is the immutable
    tuple of its canonical fields, so it hashes and compares equal to the
    plain tuple ``(phase_index, mag_exponents)``.
    """

    __slots__ = ()

    def __new__(cls, phase_index: int = 0, mag_exponents: Iterable[tuple[int, int]] = ()) -> Amplitude:
        return tuple.__new__(cls, (phase_index, _canonical_exponents(mag_exponents)))

    @classmethod
    def _canonical(cls, phase_index: int, mag_exponents: tuple[tuple[int, int], ...]) -> Amplitude:
        """An amplitude from exponents that are canonical already."""
        return tuple.__new__(cls, (phase_index, mag_exponents))

    @classmethod
    def one(cls) -> Amplitude:
        return cls(0, ())

    @classmethod
    def inv_sqrt(cls, k: int, phase_index: int = 0) -> Amplitude:
        """Amplitude k**(-1/2) with an optional phase."""
        return cls._canonical(phase_index, ()).times_inv_sqrt(k)

    def squared_magnitude(self) -> Fraction:
        """Exact |amplitude|**2 as a rational."""
        return _squared_magnitude(self.mag_exponents)

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
        return Amplitude._canonical((self.phase_index + phase_shift) % phase_order, self.mag_exponents)

    def times_inv_sqrt(self, k: int) -> Amplitude:
        if k < 1:
            raise ValueError(f"inv_sqrt needs k >= 1, got {k}")
        if k == 1:
            return self
        return Amplitude(self.phase_index, self.mag_exponents + ((k, 1),))

    def rescaled(self, old_order: int, new_order: int) -> Amplitude:
        """Reinterpret the phase index under a finer phase order."""
        if new_order % old_order:
            raise ValueError(f"phase order {new_order} does not refine {old_order}")
        step = new_order // old_order
        return Amplitude._canonical((self.phase_index * step) % new_order, self.mag_exponents)


class _Frozen:
    """Instances refuse attribute assignment and deletion; constructors
    write their fields past this, through ``object.__setattr__`` or
    ``vars()``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Provenance(_Frozen):
    """Optional construction metadata carried by generated states.

    The fields live in the instance ``__dict__``, so ``vars()`` gives them as
    a dict in the order family, c, s, n.
    """

    def __init__(
        self, family: str | None = None, c: int | None = None, s: int | None = None, n: int | None = None
    ) -> None:
        vars(self).update(family=family, c=c, s=s, n=n)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"Provenance({', '.join(f'{key}={value!r}' for key, value in vars(self).items())})"


class EntriesView(Mapping):
    """Read-only mapping from digit tuples to amplitudes over a state's packed
    entries.  Length and values read the packed dict, lookups (and so Mapping's
    ``in``, ``get`` and ``==``) pack the tuple, and iteration unpacks keys."""

    __slots__ = ("_packed", "_local_dim", "_num_qudits")

    def __init__(self, packed: dict[int, Amplitude], local_dim: int, num_qudits: int) -> None:
        self._packed = packed
        self._local_dim = local_dim
        self._num_qudits = num_qudits

    def _key(self, digits: object) -> int | None:
        """The packed key of ``digits``; None unless it is a tuple of Q digits
        in [0, N), which no stored key can equal."""
        if not isinstance(digits, tuple):
            return None
        try:
            return _checked_key(digits, self._local_dim, self._num_qudits)
        except (TypeError, ValueError):
            return None

    def _digits(self, key: int) -> BasisIndex:
        return unpack_digits(key, self._local_dim, self._num_qudits)

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[BasisIndex]:
        return map(self._digits, self._packed)

    def __getitem__(self, digits: object) -> Amplitude:
        amp = self._packed.get(self._key(digits))
        if amp is None:
            raise KeyError(digits)
        return amp

    def values(self):
        return self._packed.values()

    def items(self) -> _EntryItems:
        return _EntryItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _EntryItems(ItemsView):
    """(digit tuple, amplitude) pairs, unpacking each key once."""

    def __iter__(self):
        view = self._mapping
        return zip(map(view._digits, view._packed), view._packed.values())


class SparseState(_Frozen):
    """A pure multi-qudit state as a map from basis digit strings to amplitudes.

    Only nonzero entries are stored.  ``local_dim`` (N), ``num_qudits`` (Q) and
    ``phase_order`` (R) are fixed at creation; all amplitudes share R.  The
    object is immutable: operations return new states.

    Calling the constructor validates: every key must be Q digits in [0, N),
    and phase indices are reduced modulo R.  The states that operations return
    are built from already valid states and skip that check.  ``entries``
    accepts any mapping and becomes an :class:`EntriesView` over the packed
    keys.
    """

    __slots__ = ("local_dim", "num_qudits", "phase_order", "entries", "provenance", "_packed", "__weakref__")

    def __init__(
        self,
        local_dim: int,
        num_qudits: int,
        phase_order: int,
        entries: Mapping[BasisIndex, Amplitude] = MappingProxyType({}),
        provenance: Provenance | None = None,
    ) -> None:
        # ``entries`` stays the given mapping until __post_init__ packs it.
        self._assemble(local_dim, num_qudits, phase_order, {}, provenance, entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the constructor's arguments and pack ``entries``."""
        defect = shape_defect(self.local_dim, self.num_qudits, self.phase_order)
        if defect is not None:
            raise ValueError(defect[1])
        n, q, order = self.local_dim, self.num_qudits, self.phase_order
        packed = {
            _checked_key(tuple(digits), n, q): amp if 0 <= amp.phase_index < order else amp.shifted(0, order)
            for digits, amp in self.entries.items()
        }
        self._assemble(n, q, order, packed, self.provenance)

    def _assemble(
        self,
        local_dim: int,
        num_qudits: int,
        phase_order: int,
        packed: dict[int, Amplitude],
        provenance: Provenance | None = None,
        entries: Mapping[BasisIndex, Amplitude] | None = None,
    ) -> SparseState:
        """Set every field and return ``self``; ``entries`` defaults to the view over ``packed``."""
        object.__setattr__(self, "local_dim", local_dim)
        object.__setattr__(self, "num_qudits", num_qudits)
        object.__setattr__(self, "phase_order", phase_order)
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "provenance", provenance)
        view = EntriesView(packed, local_dim, num_qudits) if entries is None else entries
        object.__setattr__(self, "entries", view)
        return self

    @classmethod
    def _trusted(cls, *fields: object) -> SparseState:
        """A state assembled from the fields :meth:`_assemble` takes, without
        validation: the caller guarantees a valid shape, packed keys of Q
        digits in [0, N), and phase indices in [0, R).  The packed dict is
        taken over, not copied."""
        return object.__new__(cls)._assemble(*fields)

    def __reduce__(self) -> tuple[Callable[..., SparseState], tuple]:
        # copy and pickle rebuild through the trusted constructor; their
        # default restores slots by assignment, which instances refuse.
        return SparseState._trusted, (self.local_dim, self.num_qudits, self.phase_order, self._packed, self.provenance)

    def _retagged(self, provenance: Provenance | None) -> SparseState:
        """The same vector carrying ``provenance``."""
        return SparseState._trusted(self.local_dim, self.num_qudits, self.phase_order, self._packed, provenance)

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
        return tuple(map(self.entries._digits, sorted(self._packed)))

    def norm_squared(self) -> Fraction:
        """Exact squared norm: the sum of squared magnitudes."""
        counts = Counter(self._packed.values())
        return sum((amp.squared_magnitude() * count for amp, count in counts.items()), Fraction(0))

    def outcome_probability(self, digits: Sequence[int]) -> Fraction:
        """Born-rule probability of the computational outcome ``digits``; the
        constructor's ValueError for digits that name no basis string."""
        amp = self._packed.get(_checked_key(tuple(digits), self.local_dim, self.num_qudits))
        return amp.squared_magnitude() if amp is not None else Fraction(0)

    def tensor(self, other: SparseState) -> SparseState:
        """Tensor product; ``self`` supplies the leading qudits."""
        if self.local_dim != other.local_dim:
            raise DimensionMismatchError(f"tensor of local_dim {self.local_dim} with {other.local_dim}")
        qudits = self.num_qudits + other.num_qudits
        check_size("tensor product", len(self._packed) * len(other._packed), qudits, self.local_dim)
        order = math.lcm(self.phase_order, other.phase_order)
        a_values, a_keys = _distinct_amplitudes(self.promoted(order)._packed)
        b_values, b_keys = _distinct_amplitudes(other.promoted(order)._packed)
        # One product per pair of distinct amplitudes; entries only index it.
        table = [[u.times(v, order) for v in b_values] for u in a_values]
        shift = digit_bits(self.local_dim) * other.num_qudits
        a_rows = [(x << shift, table[i]) for x, i in a_keys]
        entries = {x | y: row[j] for x, row in a_rows for y, j in b_keys}
        return SparseState._trusted(self.local_dim, qudits, order, entries)

    def inner_product(self, other: SparseState) -> complex:
        """<self|other> in double precision over the support intersection."""
        if self.local_dim != other.local_dim or self.num_qudits != other.num_qudits:
            raise DimensionMismatchError("inner product needs matching local_dim and num_qudits")
        total = 0j
        mine, theirs = self._packed, other._packed
        small, big = (mine, theirs) if len(mine) <= len(theirs) else (theirs, mine)
        for key in small:
            if key in big:
                total += mine[key].to_complex(self.phase_order).conjugate() * theirs[key].to_complex(other.phase_order)
        return total

    def apply_bit_flip(self, *positions: int) -> SparseState:
        """Toggle the qubit digit at each of ``positions`` in every component,
        all in one xor of every key; exact.  A position given twice toggles
        twice, and no positions gives back ``self``."""
        if not positions:
            return self
        if self.local_dim != 2:
            raise ValueError(f"bit flip needs local_dim 2, got {self.local_dim}")
        mask = 0
        for position in positions:
            if not 0 <= position < self.num_qudits:
                raise ValueError(f"position {position} out of range for {self.num_qudits} qudits")
            mask ^= 1 << (self.num_qudits - 1 - position)
        entries = {key ^ mask: amp for key, amp in self._packed.items()}
        return SparseState._trusted(self.local_dim, self.num_qudits, self.phase_order, entries)

    def apply_sigma_z(self, position: int) -> SparseState:
        """Phase-flip components with digit 1 at ``position``; exact."""
        if self.local_dim != 2:
            raise ValueError(f"sigma_z needs local_dim 2, got {self.local_dim}")
        if not 0 <= position < self.num_qudits:
            raise ValueError(f"position {position} out of range for {self.num_qudits} qudits")
        half = self.phase_order // 2
        shift = self.num_qudits - 1 - position
        entries = {
            key: amp.shifted(half, self.phase_order) if key >> shift & 1 else amp
            for key, amp in self._packed.items()
        }
        return SparseState._trusted(self.local_dim, self.num_qudits, self.phase_order, entries)

    def scaled(self, phase_shift: int = 0, inv_sqrt: int = 1) -> SparseState:
        """Multiply every amplitude by ``e^(2*pi*i*shift/R) * inv_sqrt**(-1/2)``."""
        order = self.phase_order
        entries = _mapped(self._packed, lambda amp: amp.shifted(phase_shift, order).times_inv_sqrt(inv_sqrt))
        return SparseState._trusted(self.local_dim, self.num_qudits, order, entries)

    def promoted(self, phase_order: int) -> SparseState:
        """The same vector expressed under a finer (multiple) phase order."""
        if phase_order == self.phase_order:
            return self
        if phase_order < 2 or phase_order % self.phase_order:
            raise ValueError(f"phase order {phase_order} does not refine {self.phase_order}")
        entries = _mapped(self._packed, lambda amp: amp.rescaled(self.phase_order, phase_order))
        return SparseState._trusted(self.local_dim, self.num_qudits, phase_order, entries, self.provenance)

    def basis_value(self, digits: Sequence[int]) -> int:
        """Digits read as a base-N integer, most-significant digit first."""
        value = 0
        for d in digits:
            value = value * self.local_dim + d
        return value

    def _basis_value_of(self, key: int) -> int:
        """The base-N value of a packed key: the key itself when N is a power
        of two, since each field then holds exactly one base-N digit; up to
        N = 16, its digit text read by int() in base N."""
        n = self.local_dim
        if not n & (n - 1):
            return key
        if n <= 16:
            return _int_in_base(digit_text(key, n, self.num_qudits), n)
        return self.basis_value(self.entries._digits(key))

    def to_dense(self) -> np.ndarray:
        """Dense complex vector of length N**Q (index = base-N digit value)."""
        dim = self.local_dim**self.num_qudits
        if dim > DENSE_VECTOR_LIMIT:
            raise GuardExceededError(f"dense dimension {dim} exceeds {DENSE_VECTOR_LIMIT}")
        try:
            import numpy as np
        except ImportError:
            raise ImportError("to_dense needs numpy: pip install 'qfractal[dense]'") from None
        return np.array(self._dense(), dtype=complex)

    def _dense(self) -> list[complex]:
        """Dense vector as a list, with no size guard; one complex per
        distinct amplitude."""
        vec = [0j] * self.local_dim**self.num_qudits
        for key, value in _mapped(self._packed, lambda amp: amp.to_complex(self.phase_order)).items():
            vec[self._basis_value_of(key)] = value
        return vec

    def schmidt_rank(self, cut: int) -> int:
        """Exact Schmidt rank across the prefix cut after ``cut`` qudits,
        computed over a prime field as :mod:`qfractal.ranks` describes."""
        from .ranks import sweep_ranks

        return sweep_ranks(self, (cut,))[0][1]

    def __eq__(self, other: object) -> bool:
        """Exact equality as vectors (provenance is ignored)."""
        if not isinstance(other, SparseState):
            return NotImplemented
        if self.local_dim != other.local_dim or self.num_qudits != other.num_qudits:
            return False
        order = math.lcm(self.phase_order, other.phase_order)
        return self.promoted(order)._packed == other.promoted(order)._packed

    def __repr__(self) -> str:
        return (
            f"SparseState(N={self.local_dim}, Q={self.num_qudits}, R={self.phase_order}, "
            f"entries={len(self._packed)})"
        )


def _distinct_amplitudes(entries: dict[int, Amplitude]) -> tuple[list[Amplitude], list[tuple[int, int]]]:
    """The distinct amplitudes of ``entries``, and each key with the index of
    its amplitude among them, in entry order."""
    index: dict[Amplitude, int] = {}
    keys = [(key, index.setdefault(amp, len(index))) for key, amp in entries.items()]
    return list(index), keys


def _mapped(entries: dict[int, Amplitude], fn: Callable[[Amplitude], T]) -> dict[int, T]:
    """``entries`` with ``fn`` applied once per distinct amplitude."""
    memo: dict[Amplitude, T] = {}
    out: dict[int, T] = {}
    for key, amp in entries.items():
        image = memo.get(amp)
        if image is None:
            image = memo[amp] = fn(amp)
        out[key] = image
    return out


def _net(state: SparseState, key: int, amps: list[Amplitude]) -> Amplitude | None:
    """Exact sum of the amplitudes colliding on ``key`` of ``state``'s shape
    and phase order; None when they cancel.

    Terms are counted per (magnitude, root of unity up to sign), opposite
    roots subtracting, so the result does not depend on their order.  The sum
    stays in the ring only when at most one count is left nonzero.
    """
    half = state.phase_order // 2
    counts: dict[tuple[tuple[tuple[int, int], ...], int], int] = {}
    for amp in amps:
        root, negated = amp.phase_index % half, amp.phase_index >= half
        counts[amp.mag_exponents, root] = counts.get((amp.mag_exponents, root), 0) + (-1 if negated else 1)
    left = [(cell, count) for cell, count in counts.items() if count]
    if not left:
        return None
    if len(left) > 1:
        raise AmplitudeOverflowError(f"amplitudes at {state.entries._digits(key)} do not sum into the exact ring")
    (mag_exponents, root), count = left[0]
    phase = root if count > 0 else root + half
    if abs(count) == 1:
        return Amplitude._canonical(phase, mag_exponents)
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
    check_size("sum", sum(len(state._packed) for _, state in terms), first.num_qudits, first.local_dim)
    acc: dict[int, Amplitude] = {}
    collided: dict[int, list[Amplitude]] = {}
    for phase_shift, state in terms:
        entries = state._packed
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
        total = _net(first, key, amps)
        if total is None:
            del acc[key]
        else:
            acc[key] = total
    return SparseState._trusted(first.local_dim, first.num_qudits, order, acc)
