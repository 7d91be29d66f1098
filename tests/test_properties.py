"""Property tests pinning the trusted construction path.

Every state an operation returns was built without validation.  Each test
rebuilds the result through the public constructor, which must accept it and
give back the same entries, and compares the result with the same operation
done on the dense numpy vector.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfractal import (
    Amplitude,
    AmplitudeOverflowError,
    CodeKind,
    CodeSpec,
    Provenance,
    SparseState,
    decode_majority,
    encode,
    inject_errors,
    parse_state,
    serialize_state,
    superpose,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
MAGNITUDES = ((), ((2, 1),), ((3, 1),), ((2, 2),), ((2, 1), (3, 1)), ((2, -2),))
BITFLIP_1 = CodeSpec(CodeKind.BIT_FLIP, 1)


@st.composite
def states(draw, local_dim=None, num_qudits=None, phase_order=None, max_qudits=6):
    n = local_dim or draw(st.sampled_from((2, 3)))
    q = num_qudits or draw(st.integers(1, max_qudits))
    r = phase_order or draw(st.sampled_from((2, 4, 8)))
    keys = st.tuples(*[st.integers(0, n - 1)] * q)
    amps = st.builds(Amplitude, st.integers(0, r - 1), st.sampled_from(MAGNITUDES))
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
    b = data.draw(states(local_dim=a.local_dim, max_qudits=3))
    out = a.tensor(b)
    assert_valid(out)
    assert_dense(out, np.kron(a.to_dense(), b.to_dense()))


@SETTINGS
@given(st.data())
def test_superpose_of_signed_copies_in_any_order(data):
    # Copies of one amplitude with signs always sum into the ring.
    n, q, r = data.draw(st.sampled_from((2, 3))), data.draw(st.integers(1, 4)), data.draw(st.sampled_from((2, 4, 8)))
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
