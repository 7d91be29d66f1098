"""Concatenated encodings, error injection, and majority decoding."""

import numpy as np
import pytest

from qfractal import (
    Amplitude,
    CodeError,
    CodeKind,
    CodeSpec,
    GuardExceededError,
    SparseState,
    build_bell_pair,
    build_bitflip_state,
    build_gem_sequence,
    decode_majority,
    encode,
    inject_errors,
    roundtrip_check,
    superpose,
)

BITFLIP_1 = CodeSpec(CodeKind.BIT_FLIP, 1)
BITFLIP_2 = CodeSpec(CodeKind.BIT_FLIP, 2)
BELL_1 = CodeSpec(CodeKind.BELL_PAIR, 1)


def qubit(*digits):
    return SparseState.basis_state(2, tuple(digits))


def plus_minus(sign):
    half = Amplitude.inv_sqrt(2)
    return SparseState(2, 1, 8, {(0,): half, (1,): half if sign > 0 else half.shifted(4, 8)})


def classical_majority(bits, levels):
    """Brute-force oracle: per-level majority vote on a classical bit string."""
    word = list(bits)
    corrections = []
    for level in range(1, levels + 1):
        voted = []
        for block in range(len(word) // 3):
            triple = word[3 * block : 3 * block + 3]
            digit = 1 if sum(triple) >= 2 else 0
            voted.append(digit)
            if triple != [digit] * 3:
                corrections.append((level, block))
        word = voted
    return tuple(word), tuple(corrections)


class TestCodeSpec:
    def test_block_arity_follows_the_kind(self):
        assert BITFLIP_1.block_arity == 3
        assert BELL_1.block_arity == 2

    def test_levels_validated(self):
        with pytest.raises(CodeError):
            CodeSpec(CodeKind.BIT_FLIP, 0)


class TestRepetitionEncode:
    def test_examples(self):
        assert encode(qubit(0), BITFLIP_1) == qubit(0, 0, 0)
        assert encode(qubit(1), BITFLIP_2) == qubit(*([1] * 9))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("logical", [0, 1])
    def test_matches_the_closed_form_family(self, n, logical):
        spec = CodeSpec(CodeKind.BIT_FLIP, n)
        assert encode(qubit(logical), spec) == build_bitflip_state(n, logical)

    def test_is_an_isometry(self):
        state = plus_minus(-1)
        assert encode(state, BITFLIP_2).norm_squared() == 1

    def test_rejects_qutrits_and_oversize(self):
        with pytest.raises(CodeError):
            encode(SparseState.basis_state(3, (0,)), BITFLIP_1)
        with pytest.raises(GuardExceededError):
            encode(qubit(0), CodeSpec(CodeKind.BIT_FLIP, 9))


class TestBellEncode:
    def test_basis_digits_map_to_the_two_pairs(self):
        assert encode(qubit(0), BELL_1) == build_bell_pair(+1)
        assert encode(qubit(1), BELL_1) == build_bell_pair(-1)

    def test_encoding_a_bell_pair_collides_into_the_four_qubit_gem(self):
        plus2, minus2 = build_gem_sequence(2)
        assert encode(build_bell_pair(+1), BELL_1) == plus2
        assert encode(build_bell_pair(-1), BELL_1) == minus2

    def test_orthogonal_basis_encodings_overlap_nowhere(self):
        enc0 = encode(qubit(0, 1), BELL_1)
        enc1 = encode(qubit(1, 0), BELL_1)
        assert abs(enc0.inner_product(enc1)) < 1e-12
        assert enc0.norm_squared() == enc1.norm_squared() == 1

    def test_two_level_concatenation_is_an_isometry(self):
        spec = CodeSpec(CodeKind.BELL_PAIR, 2)
        out = encode(plus_minus(+1), spec)
        assert out.num_qudits == 4
        assert out.norm_squared() == 1


    @pytest.mark.parametrize("levels", [1, 2])
    def test_empty_register_encodes_to_the_empty_register(self, levels):
        # The code map is linear, so the zero vector maps to the zero vector.
        out = encode(SparseState(2, 2, 8, {}), CodeSpec(CodeKind.BELL_PAIR, levels))
        assert out == SparseState(2, 2 << levels, 8, {})


class TestInjectErrors:
    def test_flips_listed_positions(self):
        assert inject_errors(qubit(0, 0, 0), [1]) == qubit(0, 1, 0)
        assert inject_errors(qubit(*([0] * 9)), [0, 1, 2]) == qubit(1, 1, 1, 0, 0, 0, 0, 0, 0)

    def test_empty_list_is_identity(self):
        state = build_bell_pair(+1)
        assert inject_errors(state, []) == state

    def test_positions_must_be_distinct_and_in_range(self):
        with pytest.raises(ValueError):
            inject_errors(qubit(0, 0, 0), [1, 1])
        with pytest.raises(ValueError):
            inject_errors(qubit(0, 0, 0), [3])


class TestDecodeMajority:
    def test_clean_decode_has_no_corrections(self):
        report = decode_majority(encode(plus_minus(+1), BITFLIP_2), BITFLIP_2)
        assert report.success
        assert report.corrections == ()
        assert report.decoded == plus_minus(+1)

    def test_single_flip_is_corrected_at_level_one(self):
        corrupted = inject_errors(encode(qubit(0), BITFLIP_1), [2])
        report = decode_majority(corrupted, BITFLIP_1)
        assert report.decoded == qubit(0)
        assert report.corrections == ((1, 0),)

    def test_block_flip_is_corrected_at_level_two(self):
        corrupted = inject_errors(encode(plus_minus(+1), BITFLIP_2), [0, 1, 2])
        report = decode_majority(corrupted, BITFLIP_2)
        assert report.decoded == plus_minus(+1)
        assert report.corrections == ((2, 0),)

    def test_agreement_with_the_classical_oracle(self):
        for positions in ([4], [0, 4, 8], [0, 1, 2]):
            corrupted = inject_errors(encode(qubit(1), BITFLIP_2), positions)
            report = decode_majority(corrupted, BITFLIP_2)
            bits = corrupted.support()[0]
            expected_word, expected_corrections = classical_majority(bits, 2)
            assert report.decoded == qubit(*expected_word)
            assert report.corrections == expected_corrections

    def test_inconsistent_patterns_across_components_rejected(self):
        half = Amplitude.inv_sqrt(2)
        mixed = SparseState(2, 3, 8, {(0, 0, 0): half, (0, 0, 1): half})
        with pytest.raises(CodeError):
            decode_majority(mixed, BITFLIP_1)

    def test_colliding_components_rejected(self):
        half = Amplitude.inv_sqrt(2)
        merging = SparseState(2, 3, 8, {(0, 0, 1): half, (0, 1, 0): half})
        with pytest.raises(CodeError):
            decode_majority(merging, BITFLIP_1)

    def test_structural_validation(self):
        with pytest.raises(CodeError):
            decode_majority(qubit(0, 0), BITFLIP_1)
        with pytest.raises(CodeError):
            decode_majority(build_bell_pair(+1), BELL_1)
        with pytest.raises(CodeError, match=r"^decoding is defined for qubit registers$"):
            decode_majority(SparseState.basis_state(3, (0, 0, 0)), BITFLIP_1)


class TestRoundtrip:
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_single_errors_recover_at_one_level(self, position):
        for state in (qubit(0), qubit(1), plus_minus(+1), plus_minus(-1)):
            assert roundtrip_check(state, BITFLIP_1, [position])

    def test_double_flip_defeats_one_level(self):
        assert not roundtrip_check(qubit(1), BITFLIP_1, [0, 1])
        word, _ = classical_majority([0, 0, 1], 1)
        assert word == (0,)

    def test_double_flip_in_one_block_recovers_at_two_levels(self):
        # the outer vote absorbs the inner block's wrong majority
        assert roundtrip_check(qubit(0), BITFLIP_2, [0, 1])
        word, _ = classical_majority([1, 1, 0, 0, 0, 0, 0, 0, 0], 2)
        assert word == (0,)

    def test_no_errors_is_the_identity(self):
        ghz = superpose(
            [(0, qubit(0, 0).scaled(inv_sqrt=2)), (0, qubit(1, 1).scaled(inv_sqrt=2))]
        )
        assert roundtrip_check(ghz, BITFLIP_2, [])


def dense_bell_encode(vector, qubits, levels):
    """Reference Bell-pair encoder: each level maps every qubit through the
    4x2 isometry |0> -> (|01> + |10>)/sqrt2, |1> -> (|01> - |10>)/sqrt2."""
    isometry = np.array([[0, 0], [1, 1], [1, -1], [0, 0]]) / np.sqrt(2)
    for _ in range(levels):
        layer = np.ones((1, 1))
        for _ in range(qubits):
            layer = np.kron(layer, isometry)
        vector = layer @ vector
        qubits *= 2
    return vector


class TestBellEncodeCollisions:
    @pytest.mark.parametrize("levels", [1, 2])
    def test_matches_the_dense_encoder(self, levels):
        state = qubit(0, 1, 1)
        out = encode(state, CodeSpec(CodeKind.BELL_PAIR, levels))
        np.testing.assert_allclose(out.to_dense(), dense_bell_encode(state.to_dense(), 3, levels), atol=1e-12)
        assert out.norm_squared() == 1
