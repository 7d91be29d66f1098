"""Dimension formula, step verification, scaling reports, and the Clifford
equivalence search."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfractal import (
    Amplitude,
    AmplitudeOverflowError,
    AnalysisError,
    BasisSlot,
    Coefficient,
    DimensionMismatchError,
    FractalParams,
    GuardExceededError,
    NamedSlot,
    Predecessor,
    ScaleRule,
    SparseState,
    build_bell_pair,
    build_bitflip_state,
    build_cantor,
    build_cluster,
    build_gem_sequence,
    build_initial,
    build_representative,
    fractal_dimension,
    gem_rule,
    lu_equivalent_by_local_clifford,
    probability_scaling_ratio,
    product_cut_report,
    representative_rule,
    rule_basis_probabilities,
    single_qubit_cliffords,
    superpose,
    verify_scale_step,
)
from qfractal import clifford_search
from qfractal.analyze import FIDELITY_TOL

SEARCH_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def negate_first(state):
    key = state.support()[0]
    entries = dict(state.entries)
    amp = entries[key]
    half = state.phase_order // 2
    entries[key] = Amplitude((amp.phase_index + half) % state.phase_order, amp.mag_exponents)
    return SparseState(state.local_dim, state.num_qudits, state.phase_order, entries)


class TestDimension:
    def test_paper_values(self):
        assert abs(fractal_dimension(2, 3) - math.log(2) / math.log(3)) < 1e-12
        assert fractal_dimension(2, 2) == 1.0
        assert abs(fractal_dimension(3, 1) - math.log2(3)) < 1e-12

    def test_equal_parameters_give_one(self):
        for c in range(2, 8):
            assert fractal_dimension(c, c) == 1.0

    def test_monotone_in_c(self):
        for s in (2, 3, 5):
            values = [fractal_dimension(c, s) for c in range(2, 8)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            fractal_dimension(1, 3)
        with pytest.raises(ValueError):
            fractal_dimension(2, 0)


class TestVerifyScaleStep:
    def test_cantor_step_is_valid(self):
        report = verify_scale_step(build_cantor(1), build_cantor(2), representative_rule(2, 3, 1, 3))
        assert report.valid
        assert report.extracted_s == 3
        assert [check.passed for check in report.checks] == [True] * 6

    def test_gem_step_is_valid(self):
        plus, minus = build_bell_pair(+1), build_bell_pair(-1)
        next_plus, _ = build_gem_sequence(2)
        report = verify_scale_step(minus, next_plus, gem_rule(plus, +1))
        assert report.valid
        assert report.extracted_s == 2

    def test_negated_amplitude_fails_reconstruction(self):
        report = verify_scale_step(
            build_cantor(1), negate_first(build_cantor(2)), representative_rule(2, 3, 1, 3)
        )
        assert not report.valid
        assert report.extracted_s is None
        by_name = {check.name: check.passed for check in report.checks}
        assert by_name["reconstruction"] is False
        assert by_name["norm"] is True

    def test_mismatched_prev_fails_without_raising(self):
        report = verify_scale_step(build_cantor(2), build_cantor(2), representative_rule(2, 3, 1, 3))
        assert not report.valid
        by_name = {check.name: check.passed for check in report.checks}
        assert by_name["slot_orthonormality"] is False or by_name["predecessor_present"] is False


class TestRuleBasisProbabilities:
    def test_cantor_first_step(self):
        probs = rule_basis_probabilities(build_cantor(1), representative_rule(2, 3, 0, 3), build_cantor(0))
        assert probs == [Fraction(1, 3)] * 3

    def test_repetition_step_is_certain(self):
        probs = rule_basis_probabilities(
            build_bitflip_state(1, 0), representative_rule(3, 1, 0, 2), build_initial(2)
        )
        assert probs == [Fraction(1, 1)]

    @pytest.mark.parametrize("level", [2, 3])
    def test_gem_levels_split_evenly(self, level):
        plus_prev, minus_prev = build_gem_sequence(level - 1)
        plus, minus = build_gem_sequence(level)
        assert rule_basis_probabilities(plus, gem_rule(plus_prev, +1), minus_prev) == [
            Fraction(1, 2),
            Fraction(1, 2),
        ]
        assert rule_basis_probabilities(minus, gem_rule(plus_prev, -1), minus_prev) == [
            Fraction(1, 2),
            Fraction(1, 2),
        ]

    def test_snapped_values_sum_to_one(self):
        for n in (1, 2, 3):
            probs = rule_basis_probabilities(
                build_cantor(n), representative_rule(2, 3, n - 1, 3), build_cantor(n - 1)
            )
            assert sum(probs) == 1

    def test_probability_near_a_multiple_is_an_error(self):
        # Against |0> (|0> +- |1>)/sqrt(2), sqrt(2/3)|00> + i 2**(-39/2)|01> has
        # squared overlap 1/3 + 2**-40: within 1e-9 of 1/3, but not 1/3.
        plus = SparseState(3, 1, 8, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2)})
        minus = SparseState(3, 1, 8, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2, 4)})
        rule = ScaleRule(
            FractalParams(2, 3),
            ({i: Predecessor() for i in range(3)}, {0: NamedSlot(plus), 1: NamedSlot(minus), 2: BasisSlot((2,))}),
            tuple(Coefficient((i, i)) for i in range(3)),
        )
        state = SparseState(3, 2, 8, {(0, 0): Amplitude(0, ((2, -1), (3, 1))), (0, 1): Amplitude(2, ((2, 39),))})
        with pytest.raises(AnalysisError, match=r"^probability 0\.33333333333\d+ is not a multiple of 1/3$"):
            rule_basis_probabilities(state, rule, build_cantor(0))

    def test_state_of_another_shape_is_refused(self):
        with pytest.raises(DimensionMismatchError):
            rule_basis_probabilities(build_cantor(2), representative_rule(2, 3, 0, 3), build_cantor(0))

    def test_unsnappable_probability_is_an_error(self):
        half = Amplitude.inv_sqrt(2)
        skew = SparseState(3, 2, 8, {(0, 0): half, (0, 1): half})
        with pytest.raises(AnalysisError):
            rule_basis_probabilities(skew, representative_rule(2, 3, 0, 3), build_cantor(0))


class TestScalingRatio:
    def test_cantor_sequence(self):
        report = probability_scaling_ratio([build_cantor(n) for n in range(3)])
        assert report.probabilities == (Fraction(1), Fraction(1, 3), Fraction(1, 9))
        assert report.ratios == (Fraction(3), Fraction(3))

    def test_flat_sequence(self):
        report = probability_scaling_ratio([build_bitflip_state(n, 0) for n in range(3)])
        assert report.ratios == (Fraction(1), Fraction(1))

    def test_cluster_computational_ratio_is_four(self):
        # the computational-basis ratio, distinct from the rule-basis s = 2
        report = probability_scaling_ratio([build_cluster(2), build_cluster(4)])
        assert report.probabilities == (Fraction(1, 4), Fraction(1, 16))
        assert report.ratios == (Fraction(4),)

    def test_non_uniform_state_rejected(self):
        lopsided = SparseState(2, 1, 8, {(0,): Amplitude(0, ((2, 2),)), (1,): Amplitude(0, ((2, 1),))})
        with pytest.raises(AnalysisError):
            probability_scaling_ratio([lopsided])

    def test_empty_input_rejected(self):
        with pytest.raises(AnalysisError):
            probability_scaling_ratio([])
        with pytest.raises(AnalysisError):
            probability_scaling_ratio([SparseState(2, 1, 8, {})])


class TestProductCutReport:
    def test_default_cuts(self):
        report = product_cut_report(SparseState.basis_state(2, (1,) * 9))
        assert report == tuple((cut, 1) for cut in range(1, 9))

    def test_selected_cuts(self):
        plus, _ = build_gem_sequence(2)
        assert product_cut_report(plus, [2]) == ((2, 2),)
        assert product_cut_report(build_cantor(2), [2]) == ((2, 1),)

    @pytest.mark.parametrize("c, s, n", [(2, 3, 3), (3, 2, 2), (3, 3, 2), (2, 5, 3), (4, 2, 2)])
    def test_representative_closed_form(self, c, s, n):
        # |0> then blocks sum_j |j...j>/sqrt(s) on (c-1)c**m qudits, m < n:
        # rank s strictly inside a block, 1 at the block edges c**m.
        state = build_representative(c, s, n, local_dim=max(2, s))
        edges = {c**m for m in range(n)}
        assert product_cut_report(state) == tuple((cut, 1 if cut in edges else s) for cut in range(1, c**n))

    def test_cuts_past_the_old_dense_limits(self):
        assert build_cantor(4).schmidt_rank(8) == 1
        assert product_cut_report(build_cluster(14), [1, 13]) == ((1, 2), (13, 2))
        for state in build_gem_sequence(5):
            assert state.schmidt_rank(16) == 2


def clifford_matrices():
    return np.array(single_qubit_cliffords()[1])


class TestCliffordTable:
    def test_twenty_four_distinct_unitaries(self):
        words, gates = single_qubit_cliffords()
        assert len(words) == 24
        assert words[0] == "I"
        assert all(len(gate) == 2 and all(len(row) == 2 for row in gate) for gate in gates)
        assert all(type(z) is complex for gate in gates for row in gate for z in row)
        matrices = clifford_matrices()
        for gate in matrices:
            assert np.allclose(gate @ gate.conj().T, np.eye(2), atol=1e-12)
        # pairwise distinct up to global phase
        for i in range(24):
            for j in range(i + 1, 24):
                overlap = abs(np.trace(matrices[i].conj().T @ matrices[j])) / 2
                assert overlap < 1 - 1e-6

    def test_words_spell_their_gates(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        s = np.diag([1, 1j])
        words, _ = single_qubit_cliffords()
        for word, gate in zip(words, clifford_matrices()):
            product = np.eye(2)
            for letter in word.replace("I", ""):
                product = product @ (h if letter == "H" else s)
            assert np.allclose(product, gate, atol=1e-12)


class TestLocalCliffordSearch:
    def test_norm_is_tested_exactly(self):
        # A squared norm of 1 + 2**-40 is within FIDELITY_TOL of 1 as a float.
        almost = SparseState(2, 2, 8, {(0, 0): Amplitude.one(), (0, 1): Amplitude(0, ((2, 40),))})
        with pytest.raises(ValueError, match=r"^states must be normalized$"):
            lu_equivalent_by_local_clifford(almost, almost)

    def test_identity_on_equal_states(self):
        plus, _ = build_gem_sequence(2)
        match = lu_equivalent_by_local_clifford(plus, plus)
        assert match.indices == (0, 0, 0, 0)
        assert match.words == ("I", "I", "I", "I")
        assert match.fidelity > 1 - 1e-9

    def test_single_qubit_flip(self):
        zero = SparseState.basis_state(2, (0,))
        one = SparseState.basis_state(2, (1,))
        match = lu_equivalent_by_local_clifford(zero, one)
        assert match is not None
        assert match.fidelity > 1 - 1e-9

    def test_rank_obstruction_gives_no_match(self):
        product = SparseState.basis_state(2, (0, 0))
        assert lu_equivalent_by_local_clifford(product, build_bell_pair(-1)) is None

    def test_match_preserves_schmidt_ranks(self):
        target = SparseState(
            2,
            4,
            8,
            {
                (0, 0, 0, 0): Amplitude(0, ((2, 2),)),
                (0, 0, 1, 1): Amplitude(0, ((2, 2),)),
                (1, 1, 0, 0): Amplitude(0, ((2, 2),)),
                (1, 1, 1, 1): Amplitude(4, ((2, 2),)),
            },
        )
        cluster = build_cluster(4)
        match = lu_equivalent_by_local_clifford(cluster, target)
        assert match is not None
        for cut in range(1, 4):
            assert cluster.schmidt_rank(cut) == target.schmidt_rank(cut)

    def test_deterministic_result(self):
        a = build_cluster(3)
        b = build_cluster(3).apply_sigma_z(1)
        first = lu_equivalent_by_local_clifford(a, b)
        second = lu_equivalent_by_local_clifford(a, b)
        assert first == second
        assert first is not None

    def test_guards_and_validation(self):
        wide = SparseState.basis_state(2, (0,) * 6)
        with pytest.raises(GuardExceededError):
            lu_equivalent_by_local_clifford(wide, wide)
        with pytest.raises(ValueError):
            lu_equivalent_by_local_clifford(build_cantor(1), build_cantor(1))
        with pytest.raises(ValueError):
            lu_equivalent_by_local_clifford(
                SparseState.basis_state(2, (0,)), SparseState.basis_state(2, (0, 0))
            )


@functools.lru_cache(maxsize=None)
def kronecker_products(num_qubits):
    """Every Kronecker product of the 24 gates on ``num_qubits`` qubits, built
    one by one in lexicographic index order."""
    gates = clifford_matrices()
    products = [np.ones((1, 1), dtype=complex)]
    for _ in range(num_qubits):
        products = [np.kron(product, gate) for product in products for gate in gates]
    return np.array(products)


def first_match_by_kronecker(a, b):
    """Reference scan: the first index tuple whose product maps a onto b.

    Up to three qubits every product is a Kronecker product.  On four,
    qubit 0's gate acts on its own axis, against the products on the other
    three, so no 16 x 16 product is built."""
    assert a.num_qudits <= 4
    bra, ket = b.to_dense().conj(), a.to_dense()
    if a.num_qudits < 4:
        overlaps = np.einsum("i,kij,j->k", bra, kronecker_products(a.num_qudits), ket)
    else:
        operands = bra.reshape(2, 8), clifford_matrices(), kronecker_products(3), ket.reshape(2, 8)
        overlaps = np.einsum("xo,gxy,kop,yp->gk", *operands, optimize=True)
    fidelities = np.abs(overlaps).ravel()
    hits = np.flatnonzero(fidelities > 1 - FIDELITY_TOL)
    if hits.size == 0:
        return None
    indices = tuple(int(i) for i in np.unravel_index(hits[0], (24,) * a.num_qudits))
    return indices, fidelities[hits[0]]


def plus_i():
    """(|0> + i|1>)/sqrt(2): its local Cliffords differ from their transposes."""
    half = Amplitude.inv_sqrt(2)
    return SparseState(2, 1, 8, {(0,): half, (1,): Amplitude(2, half.mag_exponents)})


def pauli_flipped(state, x_positions, z_positions):
    for position in x_positions:
        state = state.apply_bit_flip(position)
    for position in z_positions:
        state = state.apply_sigma_z(position)
    return state


class TestLocalCliffordAgainstKronecker:
    CASES = {
        "flipped-cluster-1": lambda: (build_cluster(1), pauli_flipped(build_cluster(1), [0], [0])),
        "flipped-cluster-2": lambda: (build_cluster(2), pauli_flipped(build_cluster(2), [1], [0])),
        "flipped-cluster-3": lambda: (build_cluster(3), pauli_flipped(build_cluster(3), [0, 2], [1])),
        "miss-product-vs-bell": lambda: (SparseState.basis_state(2, (0, 0)), build_bell_pair(1)),
        "miss-product-vs-cluster": lambda: (SparseState.basis_state(2, (0, 0, 0)), build_cluster(3)),
        "last-qubit-flip": lambda: (
            SparseState.basis_state(2, (0, 0, 0)),
            SparseState.basis_state(2, (0, 0, 1)),
        ),
        "plus-from-zero": lambda: (SparseState.basis_state(2, (0,)), build_cluster(1)),
        "complex-target": lambda: (
            SparseState.basis_state(2, (0, 0)),
            plus_i().tensor(plus_i().apply_bit_flip(0)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_first_match_equals_the_kronecker_scan(self, name):
        a, b = self.CASES[name]()
        expected = first_match_by_kronecker(a, b)
        match = lu_equivalent_by_local_clifford(a, b)
        if expected is None:
            assert match is None
            return
        indices, fidelity = expected
        words, _ = single_qubit_cliffords()
        assert match.indices == indices
        assert match.words == tuple(words[i] for i in indices)
        assert abs(match.fidelity - fidelity) < 1e-12

    def test_cases_cover_a_miss_and_a_late_last_qubit_hit(self):
        assert first_match_by_kronecker(*self.CASES["miss-product-vs-cluster"]()) is None
        indices, _ = first_match_by_kronecker(*self.CASES["last-qubit-flip"]())
        assert indices[:-1] == (0, 0) and indices[-1] != 0


def ghz(num_qubits, phase_index=0):
    """(|0...0> + e^(2 pi i r/8) |1...1>)/sqrt(2)."""
    half = Amplitude.inv_sqrt(2)
    return SparseState(
        2, num_qubits, 8, {(0,) * num_qubits: half, (1,) * num_qubits: Amplitude(phase_index, half.mag_exponents)}
    )


def test_t_phased_ghz_is_no_local_clifford_image_of_ghz():
    # Local Cliffords map stabilizer states to stabilizer states, and a
    # relative phase e^(i pi/4) between |00000> and |11111> is not one.
    # A T gate on one qubit does map GHZ onto it, so every prefix survives
    # the reduced-state bound and the miss is decided at the last qubit.
    assert lu_equivalent_by_local_clifford(ghz(5), ghz(5, 1)) is None
    assert lu_equivalent_by_local_clifford(ghz(5), ghz(5, 2)).words == ("I", "I", "I", "I", "S")


@st.composite
def ring_qubit_states(draw, num_qubits):
    """Normalized qubit states with amplitudes e^(2 pi i r/8) 2**(-e/2): a
    unit weight on one basis string, halved again and again onto fresh
    strings."""
    keys = draw(st.permutations(range(2**num_qubits)))
    exponents = [0]
    for pick in draw(st.lists(st.integers(0, 2**num_qubits), max_size=2**num_qubits - 1)):
        parent = pick % len(exponents)
        exponents[parent] += 1
        exponents.append(exponents[parent])
    phases = draw(st.lists(st.integers(0, 7), min_size=len(exponents), max_size=len(exponents)))
    entries = {
        tuple(int(bit) for bit in format(key, f"0{num_qubits}b")): Amplitude(phase, ((2, exponent),))
        for key, exponent, phase in zip(keys, exponents, phases)
    }
    return SparseState(2, num_qubits, 8, entries)


def apply_gate_word(state, position, word):
    """The exact image of ``state`` under one listed gate on ``position``:
    the word's letters act right to left, H as (X + Z)/sqrt(2) and S as a
    quarter turn on the digit 1."""
    for letter in reversed(word.replace("I", "")):
        if letter == "H":
            images = state.apply_bit_flip(position), state.apply_sigma_z(position)
            state = superpose([(0, image.scaled(inv_sqrt=2)) for image in images])
        else:
            entries = {
                digits: Amplitude(amp.phase_index + 2 * digits[position], amp.mag_exponents)
                for digits, amp in state.entries.items()
            }
            state = SparseState(2, state.num_qudits, state.phase_order, entries)
    return state


@SEARCH_SETTINGS
@given(st.data())
def test_search_equals_the_kronecker_scan_on_ring_states(data):
    num_qubits = data.draw(st.integers(1, 4))
    a = data.draw(ring_qubit_states(num_qubits))
    if data.draw(st.booleans()):
        words, _ = single_qubit_cliffords()
        indices = data.draw(st.lists(st.integers(0, 23), min_size=num_qubits, max_size=num_qubits))
        b = a
        try:
            for position, index in enumerate(indices):
                b = apply_gate_word(b, position, words[index])
        except AmplitudeOverflowError:
            assume(False)
    else:
        b = data.draw(ring_qubit_states(num_qubits))
    expected = first_match_by_kronecker(a, b)
    match = lu_equivalent_by_local_clifford(a, b)
    if expected is None:
        assert match is None
    else:
        assert match is not None
        assert match.indices == expected[0]
        assert abs(match.fidelity - expected[1]) < 1e-12


@SEARCH_SETTINGS
@given(st.data())
def test_purities_equal_the_reduced_density_matrices(data):
    num_qubits = data.draw(st.integers(1, 5))
    state = data.draw(ring_qubit_states(num_qubits))
    vec = state.to_dense()
    for k in range(num_qubits + 1):
        matrix = vec.reshape(2**k, -1)
        rho = matrix @ matrix.conj().T
        assert abs(clifford_search._purity(state._dense(), num_qubits, k) - np.trace(rho @ rho).real) < 1e-12


def test_cluster_against_zero_is_decided_at_the_one_gate_prefixes(monkeypatch):
    # Every qubit of cluster-5 is maximally mixed and |00000> is a product,
    # so no first gate survives and no prefix of two gates is built.
    built = []
    contract = clifford_search._contract

    def counted(blocks, terms):
        built.append(len(blocks[0]))
        return contract(blocks, terms)

    monkeypatch.setattr(clifford_search, "_contract", counted)
    assert lu_equivalent_by_local_clifford(build_cluster(5), SparseState.basis_state(2, (0,) * 5)) is None
    assert set(built) <= {256}
    assert len(built) <= 24


def dense_rank(state, cut):
    """Schmidt rank from numpy alone: SVD of the dense vector at ``cut``."""
    matrix = state.to_dense().reshape(state.local_dim**cut, -1)
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(singular > 1e-9 * singular[0])) if singular[0] > 0 else 0


class TestCutReportAgainstSingleCuts:
    STATES = {
        "cluster-6": lambda: build_cluster(6),
        "cantor-2": lambda: build_cantor(2),
        "gem-3": lambda: build_gem_sequence(3)[1],
        "bitflip-1": lambda: build_bitflip_state(1, 1),
        "empty": lambda: SparseState(2, 4, 8, {}),
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_every_cut_equals_schmidt_rank_and_numpy(self, name):
        state = self.STATES[name]()
        cuts = list(range(1, state.num_qudits))
        report = product_cut_report(state)
        assert report == tuple((cut, state.schmidt_rank(cut)) for cut in cuts)
        assert report == tuple((cut, dense_rank(state, cut)) for cut in cuts)
        assert product_cut_report(state, cuts[::-1] + cuts[:1]) == tuple(
            (cut, state.schmidt_rank(cut)) for cut in cuts[::-1] + cuts[:1]
        )

    def test_no_cuts_gives_an_empty_report(self):
        assert product_cut_report(build_cluster(4), []) == ()

    @pytest.mark.parametrize(
        "cuts",
        [[2, 0], [0, 2], [3, 14, 2], [2, 1, 0], [1, 13, 14], [5, 13, 0]],
    )
    def test_mixed_lists_raise_what_the_first_bad_cut_raises(self, cuts):
        state = build_cluster(14)
        expected = None
        for cut in cuts:
            try:
                state.schmidt_rank(cut)
            except (ValueError, GuardExceededError) as exc:
                expected = exc
                break
        assert expected is not None
        with pytest.raises(type(expected)) as info:
            product_cut_report(state, cuts)
        assert str(info.value) == str(expected)

    def test_no_dense_vector_is_built(self, monkeypatch):
        calls = []
        original = SparseState._dense

        def counted(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(SparseState, "_dense", counted)
        state = build_cluster(12)
        report = product_cut_report(state)
        assert report == tuple((cut, 2) for cut in range(1, 12))
        assert calls == []
