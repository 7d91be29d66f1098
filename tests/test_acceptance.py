"""End-to-end acceptance checks, one test per release criterion.

Each test pins the published behavior of the package: exact family kets,
dimension values, recursion verification, scaling reports, code round trips,
Clifford equivalence, entanglement ranks, engine equivalence, and byte-exact
persistence.  Expected values come from independent oracles computed inline
(closed forms, hand expansions, classical majority votes, dense products),
never from the code under test.
"""

import math
from fractions import Fraction

import pytest

from qfractal import (
    Amplitude,
    CodeKind,
    CodeSpec,
    NamedSlot,
    ScaleRule,
    SparseState,
    apply_scale_rule,
    build_bell_pair,
    build_bitflip_state,
    build_cantor,
    build_cluster,
    build_gem_sequence,
    build_initial,
    build_representative,
    decode_majority,
    encode,
    fractal_dimension,
    gem_rule,
    inject_errors,
    lu_equivalent_by_local_clifford,
    parse_state,
    probability_scaling_ratio,
    representative_rule,
    roundtrip_check,
    rule_basis_probabilities,
    serialize_state,
    verify_scale_step,
)
from qfractal.cli import main
from qfractal.fileio import save_rule, save_state, serialize_rule


def ket(local_dim, entries, order=8):
    return SparseState(local_dim, len(next(iter(entries))), order, entries)


def negate_one_amplitude(state):
    key = state.support()[0]
    entries = dict(state.entries)
    amp = entries[key]
    half = state.phase_order // 2
    entries[key] = Amplitude((amp.phase_index + half) % state.phase_order, amp.mag_exponents)
    return SparseState(state.local_dim, state.num_qudits, state.phase_order, entries)


THIRD = Amplitude(0, ((3, 1),))
NINTH = Amplitude(0, ((3, 2),))
HALF_AMP = Amplitude(0, ((2, 1),))
NEG_HALF_AMP = Amplitude(4, ((2, 1),))

QUTRIT_ZERO = ket(3, {(0,): Amplitude.one()})
QUTRIT_SCALE_1 = ket(3, {(0, 0): THIRD, (0, 1): THIRD, (0, 2): THIRD})
QUTRIT_SCALE_2 = ket(
    3,
    {
        (0, 0, 0, 0): NINTH, (0, 0, 1, 1): NINTH, (0, 0, 2, 2): NINTH,
        (0, 1, 0, 0): NINTH, (0, 1, 1, 1): NINTH, (0, 1, 2, 2): NINTH,
        (0, 2, 0, 0): NINTH, (0, 2, 1, 1): NINTH, (0, 2, 2, 2): NINTH,
    },
)
PAIR_PLUS = ket(2, {(0, 1): HALF_AMP, (1, 0): HALF_AMP})
PAIR_MINUS = ket(2, {(0, 1): HALF_AMP, (1, 0): NEG_HALF_AMP})
FOUR_QUBIT_PLUS = ket(2, {(0, 1, 0, 1): HALF_AMP, (1, 0, 1, 0): NEG_HALF_AMP})
FOUR_QUBIT_MINUS = ket(2, {(1, 0, 0, 1): HALF_AMP, (0, 1, 1, 0): NEG_HALF_AMP})
QUARTER = Amplitude(0, ((2, 2),))
DIAGONAL_PAIR = ket(
    2,
    {
        (0, 0, 0, 0): QUARTER,
        (0, 0, 1, 1): QUARTER,
        (1, 1, 0, 0): QUARTER,
        (1, 1, 1, 1): Amplitude(4, ((2, 2),)),
    },
)


def test_01_cantor_sequence_exactness():
    assert build_cantor(0) == QUTRIT_ZERO
    assert build_cantor(1) == QUTRIT_SCALE_1
    assert build_cantor(2) == QUTRIT_SCALE_2
    for n, size in ((0, 1), (1, 3), (2, 9)):
        state = build_cantor(n)
        assert len(state.entries) == size
        assert state.norm_squared() == 1


def test_02_dimension_values():
    assert abs(fractal_dimension(2, 3) - math.log(2) / math.log(3)) < 1e-12
    assert abs(fractal_dimension(2, 2) - 1.0) < 1e-12
    assert abs(fractal_dimension(3, 1) - math.log(3) / math.log(2)) < 1e-12


def test_03_gem_exactness():
    up = apply_scale_rule(PAIR_MINUS, gem_rule(PAIR_PLUS, +1))
    down = apply_scale_rule(PAIR_MINUS, gem_rule(PAIR_PLUS, -1))
    assert up == FOUR_QUBIT_PLUS
    assert down == FOUR_QUBIT_MINUS
    assert up.inner_product(down) == 0
    assert up.norm_squared() == down.norm_squared() == 1


def test_04_scale_step_verification():
    cases = [
        (QUTRIT_ZERO, QUTRIT_SCALE_1, representative_rule(2, 3, 0, 3), 3),
        (QUTRIT_SCALE_1, QUTRIT_SCALE_2, representative_rule(2, 3, 1, 3), 3),
        (PAIR_MINUS, FOUR_QUBIT_PLUS, gem_rule(PAIR_PLUS, +1), 2),
        (ket(2, {(0,): Amplitude.one()}), ket(2, {(0, 0, 0): Amplitude.one()}),
         representative_rule(3, 1, 0, 2), 1),
    ]
    for prev, next_state, rule, expected_s in cases:
        report = verify_scale_step(prev, next_state, rule)
        assert report.valid, report
        assert report.extracted_s == expected_s
        broken = verify_scale_step(prev, negate_one_amplitude(next_state), rule)
        assert not broken.valid
        assert broken.extracted_s is None


def test_05_scaling_ratios():
    cantor = probability_scaling_ratio([build_cantor(n) for n in range(4)])
    assert cantor.ratios == (Fraction(3), Fraction(3), Fraction(3))
    flat = probability_scaling_ratio([build_bitflip_state(n, 0) for n in range(4)])
    assert flat.ratios == (Fraction(1), Fraction(1), Fraction(1))
    for level in (2, 3):
        prev_plus, prev_minus = build_gem_sequence(level - 1)
        plus, minus = build_gem_sequence(level)
        for state, sign in ((plus, +1), (minus, -1)):
            probs = rule_basis_probabilities(state, gem_rule(prev_plus, sign), prev_minus)
            assert probs == [Fraction(1, 2), Fraction(1, 2)]


def classical_majority(bits, levels):
    word = list(bits)
    for _ in range(levels):
        word = [1 if sum(word[3 * b : 3 * b + 3]) >= 2 else 0 for b in range(len(word) // 3)]
    return tuple(word)


def oracle_roundtrip(state, levels, positions):
    """Expected recovery verdict from the classical majority vote, applied
    per superposition component over the explicitly expanded encoding."""
    for key in state.support():
        encoded = [digit for digit in key for _ in range(3**levels)]
        for position in positions:
            encoded[position] ^= 1
        if classical_majority(encoded, levels) != key:
            return False
    return True


def test_06_code_roundtrip():
    one = CodeSpec(CodeKind.BIT_FLIP, 1)
    two = CodeSpec(CodeKind.BIT_FLIP, 2)
    half = Amplitude.inv_sqrt(2)
    plus_state = ket(2, {(0,): half, (1,): half})
    logicals = [ket(2, {(0,): Amplitude.one()}), ket(2, {(1,): Amplitude.one()}), plus_state]
    for state in logicals:
        for position in range(3):
            assert oracle_roundtrip(state, 1, [position])
            assert roundtrip_check(state, one, [position])
    for state in logicals:
        for position in range(9):
            assert oracle_roundtrip(state, 2, [position])
            assert roundtrip_check(state, two, [position])
        for block in range(3):
            triple = [3 * block, 3 * block + 1, 3 * block + 2]
            assert oracle_roundtrip(state, 2, triple)
            assert roundtrip_check(state, two, triple)
    # two flips defeat one level of a distance-3 code; the outer level of the
    # concatenated code absorbs the same pattern
    assert not oracle_roundtrip(logicals[0], 1, [0, 1])
    assert not roundtrip_check(logicals[0], one, [0, 1])
    assert oracle_roundtrip(logicals[0], 2, [0, 1])
    assert roundtrip_check(logicals[0], two, [0, 1])


def test_07_cluster_state_and_local_clifford_equivalence():
    state = build_cluster(4)
    assert len(state.entries) == 16
    for key, amp in state.entries.items():
        flips = sum(1 for a in range(3) if key[a] == 0 and key[a + 1] == 1)
        assert amp.squared_magnitude() == Fraction(1, 16)
        assert amp.phase_index == (0 if flips % 2 == 0 else 4)
    match = lu_equivalent_by_local_clifford(state, DIAGONAL_PAIR)
    assert match is not None
    assert match.fidelity > 1 - 1e-9


def test_08_product_versus_entangled_cuts():
    assert build_cantor(2).schmidt_rank(2) == 1
    assert FOUR_QUBIT_PLUS.schmidt_rank(2) == 2
    nine = SparseState.basis_state(2, (1,) * 9)
    for cut in range(1, 9):
        assert nine.schmidt_rank(cut) == 1


def test_09_engine_equals_closed_form():
    for c in (2, 3):
        for s in (1, 2, 3):
            local_dim = max(2, s)
            state = build_initial(local_dim)
            for n in range(4):
                closed = build_representative(c, s, n, local_dim)
                assert state == closed
                assert len(state.entries) == s**n
                for key in state.support():
                    assert state.outcome_probability(key) == Fraction(1, s**n)
                state = apply_scale_rule(state, representative_rule(c, s, n, local_dim))


def all_reference_states():
    states = [
        QUTRIT_ZERO, QUTRIT_SCALE_1, QUTRIT_SCALE_2,
        PAIR_PLUS, PAIR_MINUS, FOUR_QUBIT_PLUS, FOUR_QUBIT_MINUS, DIAGONAL_PAIR,
        build_bell_pair(+1), build_bell_pair(-1), build_cluster(1), build_cluster(2), build_cluster(4),
    ]
    states += [build_cantor(n) for n in range(4)]
    states += [build_bitflip_state(n, logical) for n in range(4) for logical in (0, 1)]
    states += list(build_gem_sequence(3))
    for c in (2, 3):
        for s in (1, 2, 3):
            states += [build_representative(c, s, n, max(2, s)) for n in range(4)]
    spec = CodeSpec(CodeKind.BIT_FLIP, 2)
    encoded = encode(build_cluster(1), spec)
    corrupted = inject_errors(encoded, [0, 1, 2])
    states += [encoded, corrupted, decode_majority(corrupted, spec).decoded]
    return states


def test_10_format_round_trip(tmp_path, capsys):
    for state in all_reference_states():
        text = serialize_state(state)
        assert parse_state(text) == state
        assert serialize_state(parse_state(text)) == text

    # criterion 1 through files: gen then reparse matches the exact kets
    for n, expected in ((0, QUTRIT_ZERO), (1, QUTRIT_SCALE_1), (2, QUTRIT_SCALE_2)):
        target = tmp_path / f"cantor{n}.qfs"
        assert main(["gen", "--family", "cantor", "--n", str(n), "-o", str(target)]) == 0
        assert parse_state(target.read_text()) == expected
        assert main(["analyze", "--state", str(target)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"support {3 ** n}" in lines
        assert f"uniform_probability {Fraction(1, 3 ** n)}" in lines

    # criterion 4 through files: the four verification cases, then a negated
    # amplitude flips the exit code
    save_state(PAIR_PLUS, tmp_path / "pair_plus.qfs")
    in_memory = gem_rule(PAIR_PLUS, +1)
    on_disk = ScaleRule(
        in_memory.params,
        tuple(
            {0: NamedSlot(PAIR_PLUS, path="pair_plus.qfs"), 1: table[1]}
            for table in in_memory.slot_tables
        ),
        in_memory.coefficients,
    )
    (tmp_path / "gem.rule").write_text(serialize_rule(on_disk))
    cases = [
        (QUTRIT_ZERO, QUTRIT_SCALE_1, representative_rule(2, 3, 0, 3), None),
        (QUTRIT_SCALE_1, QUTRIT_SCALE_2, representative_rule(2, 3, 1, 3), None),
        (PAIR_MINUS, FOUR_QUBIT_PLUS, None, "gem.rule"),
        (ket(2, {(0,): Amplitude.one()}), ket(2, {(0, 0, 0): Amplitude.one()}),
         representative_rule(3, 1, 0, 2), None),
    ]
    for k, (prev, next_state, rule, rule_name) in enumerate(cases):
        prev_path = tmp_path / f"prev{k}.qfs"
        next_path = tmp_path / f"next{k}.qfs"
        save_state(prev, prev_path)
        save_state(next_state, next_path)
        if rule_name is None:
            rule_path = tmp_path / f"rule{k}.rule"
            save_rule(rule, rule_path)
        else:
            rule_path = tmp_path / rule_name
        argv = ["verify-step", "--prev", str(prev_path), "--next", str(next_path), "--rule", str(rule_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("valid: yes\n")
        save_state(negate_one_amplitude(next_state), next_path)
        assert main(argv) == 1
        capsys.readouterr()

    # criterion 5 through files: per-state probabilities via analyze, the
    # ratios via scaling over the generated sequences
    cantor_paths, flat_paths = [], []
    for n in range(4):
        cantor_target = tmp_path / f"scale_c{n}.qfs"
        flat_target = tmp_path / f"scale_f{n}.qfs"
        assert main(["gen", "--family", "cantor", "--n", str(n), "-o", str(cantor_target)]) == 0
        assert main(["gen", "--family", "bitflip", "--n", str(n), "-o", str(flat_target)]) == 0
        cantor_paths.append(str(cantor_target))
        flat_paths.append(str(flat_target))
        assert main(["analyze", "--state", str(flat_target)]) == 0
        assert "uniform_probability 1\n" in capsys.readouterr().out
    assert main(["scaling", "--states", *cantor_paths]) == 0
    out = capsys.readouterr().out
    assert "ratio[0] 3\nratio[1] 3\nratio[2] 3\n" in out
    assert main(["scaling", "--states", *flat_paths]) == 0
    out = capsys.readouterr().out
    assert "ratio[0] 1\nratio[1] 1\nratio[2] 1\n" in out
