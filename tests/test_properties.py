"""Property tests pinning the trusted construction path.

Every state an operation returns was built without validation.  Each test
rebuilds the result through the public constructor, which must accept it and
give back the same entries, and compares the result with the same operation
done on the dense numpy vector.
"""

import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfractal import (
    Amplitude,
    AmplitudeOverflowError,
    BasisSlot,
    CodeKind,
    CodeSpec,
    Coefficient,
    FractalParams,
    NamedSlot,
    Predecessor,
    Provenance,
    ScaleRule,
    SparseState,
    apply_scale_rule,
    decode_majority,
    encode,
    inject_errors,
    parse_state,
    product_cut_report,
    rule_basis_probabilities,
    serialize_state,
    superpose,
)
from qfractal.ranks import _dict_sweep, _field_images, packed_sweep, squared_overlap
from qfractal.states import DENSE_VECTOR_LIMIT

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
MAGNITUDES = ((), ((2, 1),), ((3, 1),), ((2, 2),), ((2, 1), (3, 1)), ((2, -2),))
# Powers of the magnitude bases 2 and 3, odd and even, above and below 1.
RADICAL_MAGNITUDES = MAGNITUDES + (((3, -1),), ((2, 3),), ((3, 2),), ((2, -1), (3, 1)))
BITFLIP_1 = CodeSpec(CodeKind.BIT_FLIP, 1)
# Digit fields of 1 to 4 bits, and N = 11 for the comma-separated text form.
LOCAL_DIMS = (2, 3, 4, 5, 11)


def dense_qudits(local_dim):
    """The most qudits whose dense vector ``to_dense`` still builds."""
    return max(q for q in range(1, 15) if local_dim**q <= DENSE_VECTOR_LIMIT)


@st.composite
def states(draw, local_dim=None, num_qudits=None, phase_order=None, max_qudits=6, magnitudes=MAGNITUDES):
    n = local_dim or draw(st.sampled_from(LOCAL_DIMS))
    q = num_qudits or draw(st.integers(1, min(max_qudits, dense_qudits(n))))
    r = phase_order or draw(st.sampled_from((2, 4, 8)))
    keys = st.tuples(*[st.integers(0, n - 1)] * q)
    amps = st.builds(Amplitude, st.integers(0, r - 1), st.sampled_from(magnitudes))
    return SparseState(n, q, r, draw(st.dictionaries(keys, amps, max_size=12)))


def assert_valid(state):
    """The public constructor accepts ``state`` as it stands."""
    rebuilt = SparseState(state.local_dim, state.num_qudits, state.phase_order, dict(state.entries), state.provenance)
    assert rebuilt.entries == state.entries
    assert rebuilt == state


def assert_dense(state, expected):
    np.testing.assert_allclose(state.to_dense(), expected, atol=1e-12)


def phase(shift, order):
    return cmath.exp(2j * cmath.pi * shift / order)


def qubit_mask(state, position):
    """Dense indices whose digit at ``position`` is 1."""
    indices = np.arange(2**state.num_qudits)
    return (indices >> (state.num_qudits - 1 - position)) & 1 == 1


@SETTINGS
@given(st.data())
def test_tensor(data):
    a = data.draw(states(max_qudits=3))
    b = data.draw(states(local_dim=a.local_dim, max_qudits=min(3, dense_qudits(a.local_dim) - a.num_qudits)))
    out = a.tensor(b)
    assert_valid(out)
    assert_dense(out, np.kron(a.to_dense(), b.to_dense()))


@SETTINGS
@given(st.data())
def test_superpose_of_signed_copies_in_any_order(data):
    # Copies of one amplitude with signs always sum into the ring.
    n, q = data.draw(st.sampled_from(LOCAL_DIMS)), data.draw(st.integers(1, 4))
    r = data.draw(st.sampled_from((2, 4, 8)))
    amp = Amplitude(data.draw(st.integers(0, r - 1)), data.draw(st.sampled_from(MAGNITUDES)))
    keys = st.tuples(*[st.integers(0, n - 1)] * q)
    supports = data.draw(st.lists(st.sets(keys, max_size=6), min_size=1, max_size=5))
    terms = [(data.draw(st.sampled_from((0, r // 2))), SparseState(n, q, r, dict.fromkeys(s, amp))) for s in supports]
    expected = sum(phase(shift, r) * state.to_dense() for shift, state in terms)
    out = superpose(terms)
    assert_valid(out)
    assert_dense(out, expected)
    permuted = superpose(data.draw(st.permutations(terms)))
    assert permuted.entries == out.entries


@SETTINGS
@given(st.data())
def test_superpose_outcome_does_not_depend_on_order(data):
    first = data.draw(states(max_qudits=3))
    others = data.draw(
        st.lists(states(first.local_dim, first.num_qudits, first.phase_order), min_size=1, max_size=3)
    )
    terms = [(data.draw(st.integers(0, 2 * first.phase_order)), s) for s in (first, *others)]
    permuted = data.draw(st.permutations(terms))
    try:
        out = superpose(terms)
    except AmplitudeOverflowError:
        with pytest.raises(AmplitudeOverflowError):
            superpose(permuted)
        return
    assert_valid(out)
    assert_dense(out, sum(phase(shift, s.phase_order) * s.to_dense() for shift, s in terms))
    assert superpose(permuted).entries == out.entries


@SETTINGS
@given(states(), st.sampled_from((1, 2, 3)))
def test_promoted(state, factor):
    out = state.promoted(state.phase_order * factor)
    assert_valid(out)
    assert_dense(out, state.to_dense())


@SETTINGS
@given(states(), st.integers(-16, 16), st.integers(1, 6))
def test_scaled(state, shift, inv_sqrt):
    out = state.scaled(shift, inv_sqrt)
    assert_valid(out)
    assert_dense(out, phase(shift, state.phase_order) * state.to_dense() / np.sqrt(inv_sqrt))


@SETTINGS
@given(st.data())
def test_bit_and_phase_flips(data):
    state = data.draw(states(local_dim=2))
    position = data.draw(st.integers(0, state.num_qudits - 1))
    dense = state.to_dense()
    flipped = state.apply_bit_flip(position)
    assert_valid(flipped)
    assert_dense(flipped, dense[np.arange(dense.size) ^ (1 << (state.num_qudits - 1 - position))])
    phased = state.apply_sigma_z(position)
    assert_valid(phased)
    assert_dense(phased, np.where(qubit_mask(state, position), -dense, dense))


def repeated_index(value, qubits):
    """Dense index of the bitflip encoding of basis index ``value``."""
    out = 0
    for k in range(qubits):
        bit = (value >> (qubits - 1 - k)) & 1
        out = (out << 3) | (0b111 * bit)
    return out


@SETTINGS
@given(states(local_dim=2, max_qudits=4))
def test_bitflip_encode(state):
    out = encode(state, BITFLIP_1)
    assert_valid(out)
    expected = np.zeros(2 ** (3 * state.num_qudits), dtype=complex)
    for value, amplitude in enumerate(state.to_dense()):
        expected[repeated_index(value, state.num_qudits)] = amplitude
    assert_dense(out, expected)


@SETTINGS
@given(st.data())
def test_inject_and_decode(data):
    state = data.draw(states(local_dim=2, max_qudits=4))
    flips = data.draw(st.lists(st.sampled_from((None, 0, 1, 2)), min_size=state.num_qudits, max_size=state.num_qudits))
    positions = [3 * block + offset for block, offset in enumerate(flips) if offset is not None]
    corrupted = inject_errors(encode(state, BITFLIP_1), positions)
    assert_valid(corrupted)
    report = decode_majority(corrupted, BITFLIP_1)
    assert_valid(report.decoded)
    assert report.decoded.entries == state.entries
    assert_dense(report.decoded, state.to_dense())
    if state.entries:
        assert report.corrections == tuple((1, p // 3) for p in positions)


@SETTINGS
@given(states(), st.none() | st.builds(Provenance, st.sampled_from(("cantor", None)), st.integers(2, 3)))
def test_parse_serialize_round_trip(state, provenance):
    state = SparseState(state.local_dim, state.num_qudits, state.phase_order, state.entries, provenance)
    text = serialize_state(state)
    parsed = parse_state(text)
    assert_valid(parsed)
    assert parsed.entries == state.entries
    assert parsed.provenance == state.provenance
    assert serialize_state(parsed) == text
    assert_dense(parsed, state.to_dense())


@pytest.mark.parametrize("local_dim", LOCAL_DIMS)
@SETTINGS
@given(data=st.data())
def test_parse_of_serialize_per_local_dim(local_dim, data):
    # Long keys too: no dense vector is built here.
    state = data.draw(states(local_dim=local_dim, num_qudits=data.draw(st.integers(1, 40))))
    text = serialize_state(state)
    parsed = parse_state(text)
    assert parsed == state
    assert parsed.entries == state.entries
    assert serialize_state(parsed) == text
    assert text.splitlines()[5:] == [record_line(key, state.entries[key], local_dim) for key in sorted(state.entries)]


def record_line(digits, amp, local_dim):
    """A state file's record for one entry, written from the digit tuple."""
    key = ("" if local_dim <= 10 else ",").join(map(str, digits))
    magnitude = ",".join(f"{base}:{exp}" for base, exp in amp.mag_exponents) or "1"
    return f"{key} {amp.phase_index} {magnitude}"


@st.composite
def rule_steps(draw):
    """A normalized predecessor and a rule whose slot vectors are the
    predecessor, basis strings outside its support, or in any slot one named
    two-string state outside it, distinct per slot, so every record product is
    orthonormal; every slot table covers [0, s).  The predecessor and the
    named states may take a phase order that is a multiple of the rule's."""
    n, r, c = draw(st.sampled_from(LOCAL_DIMS)), draw(st.sampled_from((2, 4, 8))), draw(st.integers(2, 3))
    orders = st.sampled_from((r, 2 * r, 3 * r))
    q = draw(st.integers(1, min(2, dense_qudits(n) // c)))
    keys = list(itertools.product(range(n), repeat=q))
    support = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=min(2, n**q - 1), unique=True))
    prev_order = draw(orders)
    prev = SparseState(n, q, prev_order, {key: draw(amp_of(len(support), prev_order)) for key in support})
    others = [key for key in keys if key not in support]
    s = draw(st.integers(1, min(3, len(others) + 1)))
    records = draw(st.lists(st.tuples(*[st.integers(0, s - 1)] * c), min_size=s, max_size=s, unique=True))
    tables = []
    for slot in range(c):
        # The first record reaches the predecessor in slot 1, so the rule
        # passes validation; other slots may hold none.
        at = records[0][0] if slot == 0 else draw(st.integers(0, s - 1) | st.none())
        if at is None and len(others) < s:
            at = 0
        strings = iter(draw(st.permutations(others)))
        table = {i: Predecessor() if i == at else BasisSlot(next(strings)) for i in range(s)}
        # A named state takes the string its index had and one spare.
        free = [i for i in range(s) if i != at]
        if free and len(others) > len(free) and draw(st.booleans()):
            index, order = draw(st.sampled_from(free)), draw(orders)
            pair = {table[index].digits: Amplitude.inv_sqrt(2), next(strings): draw(amp_of(2, order))}
            table[index] = NamedSlot(SparseState(n, q, order, pair))
        tables.append(table)
    coefficients = [Coefficient(indices, draw(st.integers(0, r - 1))) for indices in records]
    return prev, ScaleRule(FractalParams(c, s), tuple(tables), tuple(coefficients), r)


def amp_of(k, order):
    """1/sqrt(k) times a root of unity of ``order``."""
    return st.builds(Amplitude.inv_sqrt, st.just(k), st.integers(0, order - 1))


def dense_products(prev, rule):
    """Each record's kron of dense slot vectors, in coefficient order."""
    def vector(slot, index):
        entry = rule.slot_tables[slot][index]
        if isinstance(entry, Predecessor):
            return prev.to_dense()
        if isinstance(entry, NamedSlot):
            return entry.state.to_dense()
        return np.eye(prev.local_dim**prev.num_qudits)[prev.basis_value(entry.digits)]

    products = []
    for coeff in rule.coefficients:
        product = np.ones(1, dtype=complex)
        for slot, index in enumerate(coeff.indices):
            product = np.kron(product, vector(slot, index))
        products.append(product)
    return products


@SETTINGS
@given(rule_steps())
def test_apply_scale_rule(step):
    prev, rule = step
    out = apply_scale_rule(prev, rule)
    assert_valid(out)
    expected = sum(
        phase(coeff.phase_index, rule.phase_order) * product / np.sqrt(rule.s)
        for coeff, product in zip(rule.coefficients, dense_products(prev, rule))
    )
    assert_dense(out, expected)
    # A basis string's cell takes the predecessor's order.
    cells = [rule.slot_tables[slot][index] for coeff in rule.coefficients for slot, index in enumerate(coeff.indices)]
    orders = [cell.state.phase_order if isinstance(cell, NamedSlot) else prev.phase_order for cell in cells]
    assert out.phase_order == math.lcm(rule.phase_order, *orders)


@SETTINGS
@given(st.data())
def test_rule_basis_probabilities(data):
    prev, rule = data.draw(rule_steps())
    # Another record set over the same tables gives probabilities 0 and 1/s.
    c, s = rule.c, rule.s
    records = data.draw(st.lists(st.tuples(*[st.integers(0, s - 1)] * c), min_size=s, max_size=s, unique=True))
    phases = data.draw(st.lists(st.integers(0, rule.phase_order - 1), min_size=s, max_size=s))
    other = ScaleRule(rule.params, rule.slot_tables, tuple(map(Coefficient, records, phases)), rule.phase_order)
    state = apply_scale_rule(prev, other, validate=False)
    probabilities = rule_basis_probabilities(state, rule, prev)
    expected = [abs(np.vdot(product, state.to_dense())) ** 2 for product in dense_products(prev, rule)]
    np.testing.assert_allclose([float(p) for p in probabilities], expected, atol=1e-12)
    assert all(p * s in (0, 1) for p in probabilities)


@st.composite
def overlapping_pairs(draw):
    """Two ring states of one shape; half the time the second is built
    orthogonal to the first on two of its keys, with a further entry off its
    support."""
    u = draw(states(local_dim=draw(st.sampled_from((2, 3))), max_qudits=2, magnitudes=RADICAL_MAGNITUDES))
    v = draw(states(u.local_dim, u.num_qudits, magnitudes=RADICAL_MAGNITUDES))
    if len(u.entries) < 2 or draw(st.booleans()):
        return u, v
    j, k = draw(st.lists(st.sampled_from(sorted(u.entries)), min_size=2, max_size=2, unique=True))
    r = u.phase_order
    # <u|w> = conj(u_j) conj(u_k) - conj(u_k) conj(u_j) = 0.
    entries = {j: Amplitude(-u.entries[k].phase_index, u.entries[k].mag_exponents)}
    entries[k] = Amplitude(r // 2 - u.entries[j].phase_index, u.entries[j].mag_exponents)
    entries.update((key, amp) for key, amp in v.entries.items() if key not in u.entries)
    return u, SparseState(u.local_dim, u.num_qudits, r, entries)


@SETTINGS
@given(overlapping_pairs())
def test_squared_overlap_is_zero_exactly_when_the_inner_product_is(pair):
    u, v = pair
    value, p = squared_overlap(u, v)
    assert 0 <= value < p
    assert (value == 0) == (abs(np.vdot(u.to_dense(), v.to_dense())) < 1e-9)
    # <u|u>**2 is the exact squared norm squared, a rational that maps into F_p.
    value, p = squared_overlap(u, u)
    square = u.norm_squared() ** 2
    assert value == square.numerator * pow(square.denominator, -1, p) % p


RANK_CUTOFF = 1e-9


def svd_ranks(state):
    """The numerical rank of the coefficient matrix at each cut 1, ..., Q - 1."""
    dense = state.to_dense()
    ranks = []
    for cut in range(1, state.num_qudits):
        singular = np.linalg.svd(dense.reshape(state.local_dim**cut, -1), compute_uv=False)
        ranks.append(int(np.count_nonzero(singular > RANK_CUTOFF * singular[0])) if singular[0] > 0 else 0)
    return ranks


def swept_ranks(sweep, state, right):
    """The ranks at cuts 1, ..., Q - 1 from one ``sweep`` from either end, in
    the field :func:`sweep_ranks` picks."""
    left, p, images = _field_images(state.phase_order, set(state._packed.values()))
    ranks = sweep(state, images, p, right, state.num_qudits - 1, left)
    return ranks[:0:-1] if right else ranks[1:]


@SETTINGS
@given(st.data())
def test_schmidt_rank(data):
    # The exact rank over F_p against the dense SVD.  Where the roots of
    # unity already hold sqrt 2 (8 | R) or sqrt 3 (12 | R), the images of the
    # radicals must agree with those of the roots; for R = 2 and 4 the
    # embedding supplies zeta_8 and zeta_12 beyond R.
    order = data.draw(st.sampled_from((2, 4, 8, 12, 24)))
    state = data.draw(states(phase_order=order, magnitudes=RADICAL_MAGNITUDES))
    expected = svd_ranks(state)
    assert [state.schmidt_rank(cut) for cut in range(1, state.num_qudits)] == expected
    assert swept_ranks(_dict_sweep, state, False) == swept_ranks(_dict_sweep, state, True) == expected


@st.composite
def dense_states(draw):
    """All N**Q <= 4096 basis strings half the time, else a random share of
    at least 1/8 of them, which the packed rows hold with a zero lane for
    each one left out.  Half the time the phase of string x is a quadratic
    form in its digits, with couplings sparse enough to leave some cuts of
    low rank, and its magnitude depends on x's first digit; otherwise both
    are drawn at random for each string."""
    n = draw(st.sampled_from(LOCAL_DIMS))
    q = draw(st.integers(2, max(q for q in range(2, 13) if n**q <= 4096)))
    r = draw(st.sampled_from((2, 4, 8, 12, 24)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    structured = draw(st.booleans())
    density = draw(st.sampled_from((0.0, 0.05, 0.2, 1.0)))
    share = draw(st.sampled_from((0.9, 0.75, 0.5, 0.125))) if draw(st.booleans()) else 1.0
    couplings = [(a, b, rng.randrange(r)) for a in range(q) for b in range(a, q) if rng.random() < density]
    magnitudes = [rng.choice(RADICAL_MAGNITUDES) for _ in range(n)]
    entries = {}
    for digits in itertools.product(range(n), repeat=q):
        if structured:
            phase = sum(c * digits[a] * digits[b] for a, b, c in couplings)
            entries[digits] = Amplitude(phase % r, magnitudes[digits[0]])
        else:
            entries[digits] = Amplitude(rng.randrange(r), rng.choice(RADICAL_MAGNITUDES))
    kept = rng.sample(sorted(entries), math.ceil(share * n**q))
    return SparseState(n, q, r, {digits: entries[digits] for digits in kept})


@settings(SETTINGS, max_examples=120)
@given(dense_states())
def test_packed_sweep_ranks(state):
    # Every cut from either end, with or without zero lanes: the packed rows,
    # the dict rows of the same field images, and the dense SVD agree.
    expected = svd_ranks(state)
    assert swept_ranks(packed_sweep, state, False) == swept_ranks(packed_sweep, state, True) == expected
    assert swept_ranks(_dict_sweep, state, False) == swept_ranks(_dict_sweep, state, True) == expected
    assert [rank for _, rank in product_cut_report(state)] == expected


def test_public_constructor_still_validates_keys():
    with pytest.raises(ValueError, match=r"^basis index \(0, 2\) has digits outside \[0, 2\)$"):
        SparseState(2, 2, 8, {(0, 2): Amplitude.one()})
    with pytest.raises(ValueError, match=r"^basis index \(-1, 0\) has digits outside \[0, 2\)$"):
        SparseState(2, 2, 8, {(-1, 0): Amplitude.one()})
    with pytest.raises(ValueError, match=r"^basis index \(0,\) has length 1, expected 2$"):
        SparseState(2, 2, 8, {(0,): Amplitude.one()})


@pytest.mark.parametrize("order", [12, 4, -8])
def test_promoted_rejects_orders_that_do_not_refine(order):
    for entries in ({}, {(0,): Amplitude.one()}):
        with pytest.raises(ValueError, match="does not refine 8"):
            SparseState(2, 1, 8, entries).promoted(order)
