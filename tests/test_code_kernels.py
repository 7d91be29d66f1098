"""The repetition-code kernels against plain per-digit references.

``encode`` spreads each key's bits and multiplies by a run of ones,
``inject_errors`` flips bits with one mask, and ``decode_majority`` votes
every block of every component at once on all keys written end to end in
octal.  These tests compare them with the digit-by-digit algorithms they
replace: repeating each digit, chaining single bit flips, and voting block
by block, one component at a time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfractal.codes
import qfractal.states
from qfractal import (
    Amplitude,
    CodeError,
    CodeKind,
    CodeSpec,
    GuardExceededError,
    SparseState,
    build_cluster,
    decode_majority,
    encode,
    inject_errors,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
LEVELS = st.integers(1, 3)
AMPLITUDES = st.builds(Amplitude, st.integers(0, 7), st.sampled_from(((), ((2, 1),), ((3, 1),))))


def bitflip(levels):
    return CodeSpec(CodeKind.BIT_FLIP, levels)


@st.composite
def qubit_states(draw, max_qudits=3):
    q = draw(st.integers(1, max_qudits))
    keys = st.tuples(*[st.integers(0, 1)] * q)
    return SparseState(2, q, 8, draw(st.dictionaries(keys, AMPLITUDES, max_size=8)))


@st.composite
def voted_registers(draw, levels):
    """Registers of 3-digit blocks, each a repeated word digit with at most
    one digit flipped.  The flipped blocks are shared by all components or
    drawn per component, and the words are arbitrary, so components often
    differ in pattern at some level or collide after a vote."""
    blocks = draw(st.sampled_from((1, 2))) * 3 ** (levels - 1)
    block_sets = st.sets(st.integers(0, blocks - 1))
    shared = draw(st.none() | block_sets)
    entries = {}
    for _ in range(draw(st.integers(0, 4))):
        flipped = shared if shared is not None else draw(block_sets)
        key = []
        for block in range(blocks):
            triple = [draw(st.integers(0, 1))] * 3
            if block in flipped:
                triple[draw(st.integers(0, 2))] ^= 1
            key.extend(triple)
        entries[tuple(key)] = draw(AMPLITUDES)
    return SparseState(2, 3 * blocks, 8, entries)


def reference_decode(state, levels):
    """Per-block majority vote, innermost level first, as plain loops."""
    current = dict(state.entries)
    width = state.num_qudits
    corrections = []
    for level in range(1, levels + 1):
        blocks = width // 3
        entries = {}
        pattern = None
        for key, amp in current.items():
            digits = []
            flipped = set()
            for block in range(blocks):
                triple = key[3 * block : 3 * block + 3]
                digit = 1 if sum(triple) >= 2 else 0
                digits.append(digit)
                if triple != (digit,) * 3:
                    flipped.add(block)
            if pattern is None:
                pattern = flipped
            elif pattern != flipped:
                raise CodeError(f"level {level} error pattern differs between components")
            new_key = tuple(digits)
            if new_key in entries:
                raise CodeError(f"components collide after the level {level} vote")
            entries[new_key] = amp
        current = entries
        width = blocks
        corrections.extend((level, block) for block in sorted(pattern or ()))
    return current, tuple(corrections)


def defective_register(levels, components):
    """Six-digit words, each digit repeated 3**levels times.  A component
    ``(word, block, part)`` complements the ``part``-th third of its digit
    ``block``, so the level-``levels`` vote flags that block and restores the
    word, while every lower level votes clean."""
    span = 3**levels
    third = span // 3
    entries = {}
    for word, block, part in components:
        key = [int(digit) for digit in format(word, "06b") for _ in range(span)]
        start = block * span + part * third
        key[start : start + third] = [1 - digit for digit in key[start : start + third]]
        entries[tuple(key)] = Amplitude.one()
    return SparseState(2, 6 * span, 8, entries)


def assert_decode_matches_reference(state, levels):
    spec = bitflip(levels)
    try:
        expected_entries, expected_corrections = reference_decode(state, levels)
    except CodeError as exc:
        with pytest.raises(CodeError) as info:
            decode_majority(state, spec)
        assert str(info.value) == str(exc)
        return
    report = decode_majority(state, spec)
    assert report.decoded.num_qudits == state.num_qudits // 3**levels
    assert report.decoded.phase_order == state.phase_order
    assert report.decoded.entries == expected_entries
    assert report.corrections == expected_corrections
    assert report.success


class TestEncodeRepeatsDigits:
    @SETTINGS
    @given(qubit_states(), LEVELS)
    def test_each_digit_repeated_three_to_the_levels(self, state, levels):
        out = encode(state, bitflip(levels))
        copies = 3**levels
        assert out.num_qudits == copies * state.num_qudits
        assert out.phase_order == state.phase_order
        expected = {tuple(d for d in key for _ in range(copies)): amp for key, amp in state.entries.items()}
        assert out.entries == expected


class TestInjectMatchesChainedFlips:
    @SETTINGS
    @given(st.data(), LEVELS)
    def test_equals_one_bit_flip_at_a_time(self, data, levels):
        state = encode(data.draw(qubit_states(max_qudits=2)), bitflip(levels))
        positions = data.draw(st.lists(st.integers(0, state.num_qudits - 1), unique=True, max_size=6))
        chained = state
        for position in positions:
            chained = chained.apply_bit_flip(position)
        injected = inject_errors(state, positions)
        assert injected.entries == chained.entries
        assert injected.num_qudits == state.num_qudits


class TestDecodeMatchesPerBlockVote:
    @SETTINGS
    @given(st.data(), LEVELS)
    def test_encoded_and_corrupted(self, data, levels):
        state = encode(data.draw(qubit_states(max_qudits=2)), bitflip(levels))
        positions = data.draw(st.lists(st.integers(0, state.num_qudits - 1), unique=True, max_size=8))
        assert_decode_matches_reference(inject_errors(state, positions), levels)

    @SETTINGS
    @given(st.data(), LEVELS)
    def test_arbitrary_blocks(self, data, levels):
        assert_decode_matches_reference(data.draw(voted_registers(levels)), levels)

    def test_mismatched_patterns_and_collisions_keep_their_messages(self):
        one = Amplitude.one()
        mixed = SparseState(2, 9, 8, {(0,) * 9: one, (1, 1, 1, 0, 0, 1, 1, 1, 1): one})
        with pytest.raises(CodeError, match=r"^level 1 error pattern differs between components$"):
            decode_majority(mixed, bitflip(2))
        outer = SparseState(2, 9, 8, {(0,) * 9: one, (1, 1, 1, 1, 1, 1, 0, 0, 0): one})
        with pytest.raises(CodeError, match=r"^level 2 error pattern differs between components$"):
            decode_majority(outer, bitflip(2))
        colliding = SparseState(2, 9, 8, {(1, 0, 0) * 3: one, (0, 1, 0) * 3: one})
        with pytest.raises(CodeError, match=r"^components collide after the level 1 vote$"):
            decode_majority(colliding, bitflip(2))

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize(
        "collide_at, differ_at, message",
        [
            (20, 40, "components collide after the level {} vote"),
            (40, 20, "level {} error pattern differs between components"),
            # one component with both defects: the pattern check comes first
            (20, 20, "level {} error pattern differs between components"),
        ],
        ids=["collision-first", "pattern-first", "same-component"],
    )
    def test_the_first_defective_component_raises(self, levels, collide_at, differ_at, message):
        # Sixty components flag block 0 at the top level, except that the
        # one at differ_at flags block 1, and the one at collide_at repeats
        # word 5 with another third of its block flipped, so it merges with
        # component 5 after the vote.
        components = [(word, 0, 0) for word in range(60)]
        components[differ_at] = (differ_at, 1, 0)
        components[collide_at] = (5, components[collide_at][1], 1)
        state = defective_register(levels, components)
        assert len(state.entries) == 60
        with pytest.raises(CodeError) as info:
            decode_majority(state, bitflip(levels))
        assert str(info.value) == message.format(levels)
        assert_decode_matches_reference(state, levels)

    def test_a_shared_pattern_decodes_every_component(self):
        state = defective_register(2, [(word, 3, 2) for word in range(60)])
        report = decode_majority(state, bitflip(2))
        assert report.corrections == ((2, 3),)
        assert list(report.decoded.entries) == [tuple(map(int, format(word, "06b"))) for word in range(60)]
        assert_decode_matches_reference(state, 2)

    def test_empty_state_decodes_with_no_corrections(self):
        report = decode_majority(SparseState(2, 9, 8, {}), bitflip(2))
        assert report.decoded.num_qudits == 1
        assert report.decoded.entries == {}
        assert report.corrections == ()


class TestErrorMessages:
    def test_encode_rejects_a_qutrit_register(self):
        with pytest.raises(CodeError, match=r"^encoding is defined for qubit registers$"):
            encode(SparseState.basis_state(3, (0, 2)), bitflip(1))

    def test_inject_rejects_a_qutrit_register(self):
        qutrit = SparseState.basis_state(3, (0, 2))
        with pytest.raises(ValueError, match=r"^bit flip needs local_dim 2, got 3$"):
            inject_errors(qutrit, [0])
        # the local_dim check comes after distinctness and before range
        with pytest.raises(ValueError, match=r"^error positions must be distinct, got \[0, 0\]$"):
            inject_errors(qutrit, [0, 0])
        with pytest.raises(ValueError, match=r"^bit flip needs local_dim 2, got 3$"):
            inject_errors(qutrit, [7])
        assert inject_errors(qutrit, []) is qutrit

    def test_inject_rejects_a_duplicate_position(self):
        state = encode(SparseState.basis_state(2, (1,)), bitflip(1))
        with pytest.raises(ValueError, match=r"^error positions must be distinct, got \[2, 0, 2\]$"):
            inject_errors(state, [2, 0, 2])
        with pytest.raises(ValueError, match=r"^error positions must be distinct, got \[5, 5\]$"):
            inject_errors(state, [5, 5])

    def test_inject_reports_the_first_out_of_range_position(self):
        state = encode(SparseState.basis_state(2, (1,)), bitflip(1))
        with pytest.raises(ValueError, match=r"^position 3 out of range for 3 qudits$"):
            inject_errors(state, [0, 3, -1])
        with pytest.raises(ValueError, match=r"^position -1 out of range for 3 qudits$"):
            inject_errors(state, [1, -1, 3])
        with pytest.raises(ValueError, match=r"^position 3 out of range for 3 qudits$"):
            state.apply_bit_flip(3)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_encode_refuses_a_state_over_max_entries(self, monkeypatch, levels):
        monkeypatch.setattr(qfractal.states, "MAX_ENTRIES", 3)
        over = SparseState(2, 2, 8, {key: Amplitude.inv_sqrt(4) for key in ((0, 0), (0, 1), (1, 0), (1, 1))})
        with pytest.raises(GuardExceededError, match=r"^encoded state would exceed 3 entries$"):
            encode(over, bitflip(levels))
        at_limit = SparseState(2, 2, 8, {key: Amplitude.inv_sqrt(3) for key in ((0, 0), (0, 1), (1, 1))})
        assert len(encode(at_limit, bitflip(levels)).entries) == 3

    def test_entry_guard_fires_before_the_encoding_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the encoding pass ran")

        cluster = build_cluster(2)
        monkeypatch.setattr(qfractal.states, "MAX_ENTRIES", 0)
        monkeypatch.setattr(qfractal.codes, "_encode_repetition", refuse)
        with pytest.raises(GuardExceededError, match=r"^encoded state would exceed 0 entries$"):
            encode(cluster, bitflip(3))

    def test_bell_guard_fires_before_each_encoding_pass(self, monkeypatch):
        passes = []

        def counted(state):
            passes.append(state.num_qudits)
            return encode_bell(state)

        encode_bell = qfractal.codes._encode_bell
        monkeypatch.setattr(qfractal.codes, "_encode_bell", counted)
        monkeypatch.setattr(qfractal.states, "MAX_ENTRIES", 7)
        with pytest.raises(GuardExceededError, match=r"^encoded state would exceed 7 entries$"):
            encode(SparseState.basis_state(2, (0, 1, 1)), CodeSpec(CodeKind.BELL_PAIR, 1))
        assert passes == []
        monkeypatch.setattr(qfractal.states, "MAX_ENTRIES", 4)
        with pytest.raises(GuardExceededError, match=r"^encoded state would exceed 4 entries$"):
            encode(SparseState.basis_state(2, (0, 1)), CodeSpec(CodeKind.BELL_PAIR, 2))
        assert passes == [2]

    def test_encode_refuses_a_register_over_max_qudits(self):
        with pytest.raises(GuardExceededError, match=r"^encoded state would exceed 10000 qudits$"):
            encode(build_cluster(2), bitflip(9))
