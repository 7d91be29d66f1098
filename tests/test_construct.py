"""Family constructors and the scale-rule engine."""

import hashlib
from fractions import Fraction

import pytest

from qfractal import (
    Amplitude,
    BasisSlot,
    Coefficient,
    FractalParams,
    GuardExceededError,
    NamedSlot,
    Predecessor,
    Provenance,
    ScaleRule,
    ScaleRuleError,
    SparseState,
    apply_scale_rule,
    build_bell_pair,
    build_bitflip_state,
    build_cantor,
    build_cluster,
    build_gem_sequence,
    build_initial,
    build_representative,
    gem_rule,
    representative_rule,
    serialize_state,
)


def third():
    return Amplitude.inv_sqrt(3)


class TestFractalParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FractalParams(1, 3)
        with pytest.raises(ValueError):
            FractalParams(2, 0)
        with pytest.raises(ValueError):
            FractalParams(2, 3, -1)

    def test_dimension_property(self):
        assert FractalParams(2, 2).dimension == 1.0
        assert abs(FractalParams(3, 1).dimension - 1.584962500721156) < 1e-12


class TestScaleRuleType:
    def test_coefficient_count_must_equal_s(self):
        with pytest.raises(ScaleRuleError):
            ScaleRule(
                FractalParams(2, 2),
                ({0: Predecessor()}, {0: BasisSlot((0,))}),
                (Coefficient((0, 0)),),
            )

    def test_indices_validated(self):
        params = FractalParams(2, 2)
        tables = ({0: Predecessor(), 1: Predecessor()}, {0: BasisSlot((0,)), 1: BasisSlot((1,))})
        with pytest.raises(ScaleRuleError):
            ScaleRule(params, tables, (Coefficient((0,)), Coefficient((1, 1))))
        with pytest.raises(ScaleRuleError):
            ScaleRule(params, tables, (Coefficient((0, 2)), Coefficient((1, 1))))
        with pytest.raises(ScaleRuleError):
            ScaleRule(params, tables, (Coefficient((0, 0)), Coefficient((0, 0))))

    @pytest.mark.parametrize("order", [0, -8])
    def test_phase_order_must_be_positive(self, order):
        tables = ({0: Predecessor()}, {0: BasisSlot((0,))})
        with pytest.raises(ScaleRuleError, match=rf"^phase_order must be >= 1, got {order}$"):
            ScaleRule(FractalParams(2, 1), tables, (Coefficient((0, 0)),), order)

    def test_table_count_must_equal_c(self):
        with pytest.raises(ScaleRuleError):
            ScaleRule(FractalParams(2, 1), ({0: Predecessor()},), (Coefficient((0, 0)),))

    def test_resolution_errors(self):
        rule = representative_rule(2, 3, 0, 3)
        prev = build_initial(3)
        with pytest.raises(ScaleRuleError):
            rule.resolve(0, 5, prev)
        with pytest.raises(ScaleRuleError):
            rule.resolve(1, 0, build_initial(3).tensor(build_initial(3)))


class TestApplyScaleRule:
    def test_cantor_step_reproduces_the_nine_term_state(self):
        prev = build_cantor(1)
        out = apply_scale_rule(prev, representative_rule(2, 3, 1, 3))
        assert out == build_cantor(2)
        assert out.provenance.n == 2

    def test_gem_step_from_the_minus_pair(self):
        plus, minus = build_bell_pair(+1), build_bell_pair(-1)
        out = apply_scale_rule(minus, gem_rule(plus, +1))
        expect_plus, _ = build_gem_sequence(2)
        assert out == expect_plus

    def test_repetition_step_from_a_single_qubit(self):
        out = apply_scale_rule(build_initial(2), representative_rule(3, 1, 0, 2))
        assert out == SparseState.basis_state(2, (0, 0, 0))

    def test_qudit_count_multiplies_by_c(self):
        prev = build_cantor(2)
        out = apply_scale_rule(prev, representative_rule(2, 3, 2, 3))
        assert out.num_qudits == 2 * prev.num_qudits
        assert out.norm_squared() == 1

    def test_predecessor_must_be_referenced(self):
        # both slots resolve to |1>, never to prev = |0>
        rule = ScaleRule(
            FractalParams(2, 1),
            ({0: BasisSlot((1,))}, {0: BasisSlot((1,))}),
            (Coefficient((0, 0)),),
        )
        with pytest.raises(ScaleRuleError):
            apply_scale_rule(build_initial(2), rule)

    def test_a_basis_slot_equal_to_prev_counts_as_the_predecessor(self):
        rule = ScaleRule(
            FractalParams(2, 1),
            ({0: BasisSlot((0,))}, {0: BasisSlot((1,))}),
            (Coefficient((0, 0)),),
        )
        out = apply_scale_rule(build_initial(2), rule)
        assert out == SparseState.basis_state(2, (0, 1))

    def test_non_orthogonal_slots_rejected(self):
        plus, _ = build_gem_sequence(1)
        skewed = ScaleRule(
            FractalParams(2, 2),
            (
                {0: NamedSlot(plus), 1: Predecessor()},
                {0: NamedSlot(plus), 1: Predecessor()},
            ),
            (Coefficient((0, 1)), Coefficient((1, 0))),
        )
        with pytest.raises(ScaleRuleError):
            apply_scale_rule(plus, skewed)

    def test_slot_normalization_is_exact(self):
        # |1> + 2**-20 |2> is orthogonal to |0>, and its squared norm
        # 1 + 2**-40 lies within 1e-9 of 1.
        almost = SparseState(3, 1, 8, {(1,): Amplitude.one(), (2,): Amplitude(0, ((2, 40),))})
        rule = ScaleRule(
            FractalParams(2, 2),
            ({0: Predecessor(), 1: BasisSlot((1,))}, {0: BasisSlot((0,)), 1: NamedSlot(almost)}),
            (Coefficient((0, 0)), Coefficient((1, 1))),
        )
        assert rule.slot_defects(build_initial(3)) == (True, [(1, 1, 1)])
        with pytest.raises(ScaleRuleError, match=r"^slot 2 vector 1 is not normalized$"):
            apply_scale_rule(build_initial(3), rule)

    def test_slot_check_refuses_a_root_order_past_the_prime_search(self):
        # <u|v> = (1 - zeta)/2 for a root zeta of order 2**65: the slot check
        # meets the same refusal as a Schmidt rank of these amplitudes.
        order = 2**65
        u = SparseState(2, 1, order, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2)})
        v = SparseState(2, 1, order, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2, order // 2 + 1)})
        rule = ScaleRule(
            FractalParams(2, 2),
            ({0: Predecessor(), 1: BasisSlot((1,))}, {0: NamedSlot(u), 1: NamedSlot(v)}),
            (Coefficient((0, 0)), Coefficient((1, 1))),
        )
        with pytest.raises(GuardExceededError, match=r"^root order 36893488147419103232 exceeds 18446744073709551616$"):
            apply_scale_rule(build_initial(2), rule)

    def test_validation_can_be_skipped(self):
        rule = ScaleRule(
            FractalParams(2, 1),
            ({0: BasisSlot((0,))}, {0: BasisSlot((1,))}),
            (Coefficient((0, 0)),),
        )
        out = apply_scale_rule(build_initial(2), rule, validate=False)
        assert out == SparseState.basis_state(2, (0, 1))


class TestRepresentative:
    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_support_and_probability(self, c, s, n):
        state = build_representative(c, s, n, local_dim=max(2, s))
        assert len(state.entries) == s**n
        assert state.norm_squared() == 1
        for key in state.support():
            assert state.outcome_probability(key) == Fraction(1, s**n)

    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_closed_form_equals_iterated_rule(self, c, s, n):
        local_dim = max(2, s)
        state = build_representative(c, s, n, local_dim)
        stepped = SparseState.basis_state(local_dim, (0,), provenance=Provenance("representative", c, s, 0))
        assert stepped == build_initial(local_dim)
        for step in range(n):
            stepped = apply_scale_rule(stepped, representative_rule(c, s, step, local_dim))
        assert stepped == state
        assert stepped.provenance == state.provenance
        assert serialize_state(stepped) == serialize_state(state)

    def test_prefix_cut_is_a_product(self):
        state = build_cantor(2)
        assert state.schmidt_rank(2) == 1

    def test_flat_family_collapses_to_one_string(self):
        assert build_representative(3, 1, 2, 2) == SparseState.basis_state(2, (0,) * 9)

    def test_local_dim_must_cover_s(self):
        with pytest.raises(ValueError):
            build_representative(2, 3, 1, local_dim=2)

    def test_guards(self):
        with pytest.raises(GuardExceededError):
            build_representative(2, 2, 14, local_dim=2)
        with pytest.raises(GuardExceededError):
            build_representative(2, 3, 13, local_dim=3)

    def test_rule_is_priced_before_its_slots_are_built(self):
        # The step from scale 40 has 2**41 qudits; its basis strings alone
        # would hold 2**40 digits each.
        with pytest.raises(GuardExceededError, match=r"^output would exceed 10000 qudits$"):
            representative_rule(2, 2, 40, 2)
        with pytest.raises(GuardExceededError, match=r"^output would exceed 1000000 entries$"):
            representative_rule(2, 1000, 2, 1000)

    def test_initial_state_validation(self):
        with pytest.raises(ValueError, match=r"^local_dim must be >= 2, got 1$"):
            build_initial(1)


class TestCantor:
    def test_first_three_scales(self):
        assert build_cantor(0) == SparseState.basis_state(3, (0,))
        one = build_cantor(1)
        assert one.support() == ((0, 0), (0, 1), (0, 2))
        assert all(one.entries[key] == third() for key in one.support())
        two = build_cantor(2)
        assert len(two.entries) == 9
        assert two.entries[(0, 0, 1, 1)] == Amplitude(0, ((3, 2),))

    def test_provenance(self):
        tag = build_cantor(2).provenance
        assert (tag.family, tag.c, tag.s, tag.n) == ("cantor", 2, 3, 2)


class TestGems:
    def test_bell_pairs(self):
        plus = build_bell_pair(+1)
        assert plus.entries[(0, 1)] == Amplitude.inv_sqrt(2)
        assert plus.entries[(1, 0)] == Amplitude.inv_sqrt(2)
        minus = build_bell_pair(-1)
        assert minus.entries[(1, 0)] == Amplitude(4, ((2, 1),))
        assert plus.norm_squared() == minus.norm_squared() == 1

    def test_step_recovers_the_bell_pair_base_case(self):
        zero = SparseState.basis_state(2, (0,))
        one = SparseState.basis_state(2, (1,))
        assert apply_scale_rule(one, gem_rule(zero, -1)) == build_bell_pair(-1)

    def test_step_reproduces_the_four_qubit_pair(self):
        plus, minus = build_bell_pair(+1), build_bell_pair(-1)
        up = apply_scale_rule(minus, gem_rule(plus, +1))
        assert up.support() == ((0, 1, 0, 1), (1, 0, 1, 0))
        assert up.entries[(1, 0, 1, 0)] == Amplitude(4, ((2, 1),))
        down = apply_scale_rule(minus, gem_rule(plus, -1))
        assert down.support() == ((0, 1, 1, 0), (1, 0, 0, 1))
        assert down.entries[(1, 0, 0, 1)] == Amplitude.inv_sqrt(2)
        assert down.entries[(0, 1, 1, 0)] == Amplitude(4, ((2, 1),))

    def test_step_rejects_bad_inputs(self):
        plus, minus = build_bell_pair(+1), build_bell_pair(-1)
        with pytest.raises(ScaleRuleError, match="output is not normalized"):
            apply_scale_rule(plus, gem_rule(plus, +1))
        with pytest.raises(ScaleRuleError, match="expected 4 of 2"):
            apply_scale_rule(minus.tensor(minus), gem_rule(plus, +1))
        skew = SparseState.basis_state(2, (0, 1))
        with pytest.raises(ScaleRuleError, match="not orthogonal"):
            apply_scale_rule(skew, gem_rule(plus, +1))

    @pytest.mark.parametrize("levels,support", [(1, 2), (2, 2), (3, 8), (4, 32)])
    def test_sequence_sizes(self, levels, support):
        plus, minus = build_gem_sequence(levels)
        assert len(plus.entries) == len(minus.entries) == support
        assert plus.num_qudits == 2**levels
        assert plus.norm_squared() == minus.norm_squared() == 1
        assert abs(plus.inner_product(minus)) < 1e-9

    # SHA-256 of serialize_state for (plus, minus) at levels 1..5, as written
    # when each level was built by its own symmetrizing step.
    GOLDEN_SHA256 = {
        1: ("2fccc78291ee7897f06c483818760a392195503b67678104c2b48c5c800c467d",
            "18167d5d2eb5d6f20c3df4d0ea2a3467b2f9d3c50be68dd6117eb023ba65958d"),
        2: ("45ee82013cc98760d23cd801faf35976dcfbc1540ef0942ae8ed137a1e5904fa",
            "d3f9c3b496c41519a8c1442f62f6d1ee29b06b92010f901ec914bf9da25c85db"),
        3: ("ed0e8b9fd1fdc05f3a53ad690db67ef58254a91293e2a2d4612b8dd996f11125",
            "3348bc48ff289dfa4531ec04a72e977bc38d6e071d8b7692527db00406c8a66c"),
        4: ("af00cba077cbd4dee1ca2fb20b74b4f3f7152d93d7bddd0ae21a723029ead8e8",
            "7c5872bb7bef5658df843762826f7a9779219a827f6f0ffb56593910e6cb0974"),
        5: ("47fb81295fb1f3537b4dad952b9241034c93c730d2fc2fd6ba326c7841803f29",
            "29a00af9246267f76c324f23dc4624c5434fdd13fa5356d7cbe32cb376cf01a7"),
    }

    @pytest.mark.parametrize("levels", sorted(GOLDEN_SHA256))
    def test_sequence_files_match_the_golden_digests(self, levels):
        digests = tuple(
            hashlib.sha256(serialize_state(state).encode()).hexdigest() for state in build_gem_sequence(levels)
        )
        assert digests == self.GOLDEN_SHA256[levels]

    def test_sequence_amplitudes_share_one_magnitude(self):
        plus, _ = build_gem_sequence(3)
        magnitudes = {amp.squared_magnitude() for amp in plus.entries.values()}
        assert magnitudes == {Fraction(1, 8)}


class TestBitFlipFamily:
    def test_members(self):
        assert build_bitflip_state(0, 0) == SparseState.basis_state(2, (0,))
        assert build_bitflip_state(1, 0) == SparseState.basis_state(2, (0, 0, 0))
        assert build_bitflip_state(2, 1) == SparseState.basis_state(2, (1,) * 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_bitflip_state(1, 2)
        with pytest.raises(GuardExceededError):
            build_bitflip_state(9, 0)


class TestCluster:
    def test_two_qubit_signs(self):
        state = build_cluster(2)
        quarter = Amplitude(0, ((2, 2),))
        assert state.entries[(0, 0)] == quarter
        assert state.entries[(0, 1)] == Amplitude(4, ((2, 2),))
        assert state.entries[(1, 0)] == quarter
        assert state.entries[(1, 1)] == quarter

    def test_single_qubit_is_the_plus_state(self):
        state = build_cluster(1)
        assert state.support() == ((0,), (1,))
        assert state.entries[(0,)] == state.entries[(1,)] == Amplitude.inv_sqrt(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_support_with_half_turn_phases_only(self, n):
        state = build_cluster(n)
        assert len(state.entries) == 2**n
        assert state.norm_squared() == 1
        for amp in state.entries.values():
            assert amp.phase_index in (0, 4)
            assert amp.squared_magnitude() == Fraction(1, 2**n)

    def test_size_guard(self):
        assert len(build_cluster(15).entries) == 2**15
        with pytest.raises(GuardExceededError, match=r"^output would exceed 1000000 entries$"):
            build_cluster(20)
        with pytest.raises(ValueError, match=r"^n_qubits must be >= 1, got 0$"):
            build_cluster(0)
