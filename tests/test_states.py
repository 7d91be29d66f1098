"""Exact amplitude ring and sparse-state primitives."""

import itertools
import math
import random
import sys
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfractal import (
    Amplitude,
    AmplitudeOverflowError,
    DimensionMismatchError,
    GuardExceededError,
    SparseState,
    build_cantor,
    build_initial,
    product_cut_report,
    superpose,
)
from qfractal import fileio, ranks
from qfractal import states as states_module
from qfractal.ranks import _dict_sweep, _field_images, _prime_field, lane_folds, packed_sweep
from qfractal.states import (
    MAX_KEY_BITS,
    EntriesView,
    _prime_factors,
    capped_power,
    check_size,
    digit_bits,
    digit_text,
    pack_digits,
    unpack_digits,
)
from sample_states import fourier


def basis(local_dim, digits, order=8):
    return SparseState.basis_state(local_dim, tuple(digits), order)


def uniform3():
    third = Amplitude.inv_sqrt(3)
    return SparseState(3, 1, 8, {(0,): third, (1,): third, (2,): third})


def maximally_entangled(m):
    """sum_x |x>|x> / 2**(m/2) on 2m qubits."""
    amp = Amplitude(0, ((2, m),))
    return SparseState(2, 2 * m, 8, {digits + digits: amp for digits in itertools.product((0, 1), repeat=m)})


def field_prime(state):
    """The p of the field that ranks ``state``."""
    return _field_images(state.phase_order, set(state._packed.values()))[1]


def bell(sign):
    half = Amplitude.inv_sqrt(2)
    return SparseState(2, 2, 8, {(0, 1): half, (1, 0): half if sign > 0 else half.shifted(4, 8)})


class TestAmplitude:
    def test_composite_bases_canonicalize(self):
        assert Amplitude(0, ((4, 1),)).mag_exponents == ((2, 2),)
        assert Amplitude(0, ((6, 1),)).mag_exponents == ((2, 1), (3, 1))
        assert Amplitude(0, ((12, 2),)).mag_exponents == ((2, 4), (3, 2))

    def test_zero_exponents_dropped(self):
        assert Amplitude(0, ((2, 0),)).mag_exponents == ()
        assert Amplitude(0, ((2, 1), (2, -1))).mag_exponents == ()

    def test_bases_below_two_and_inv_sqrt_of_zero_are_refused(self):
        with pytest.raises(ValueError, match=r"^cannot factor 1; base must be >= 2$"):
            Amplitude(0, ((1, 1),))
        with pytest.raises(ValueError, match=r"^inv_sqrt needs k >= 1, got 0$"):
            Amplitude.inv_sqrt(0)

    def test_squared_magnitude_is_exact(self):
        assert Amplitude.one().squared_magnitude() == 1
        assert Amplitude.inv_sqrt(3).squared_magnitude() == Fraction(1, 3)
        assert Amplitude(0, ((2, 3),)).squared_magnitude() == Fraction(1, 8)
        assert Amplitude(0, ((2, -2),)).squared_magnitude() == 4

    def test_squared_magnitude_is_computed_once_per_magnitude(self):
        assert Amplitude(0, ((6, 1),)).squared_magnitude() is Amplitude(5, ((2, 1), (3, 1))).squared_magnitude()

    def test_quarter_turn_phases_are_exact_complex(self):
        assert Amplitude(0).to_complex(8) == 1
        assert Amplitude(2).to_complex(8) == 1j
        assert Amplitude(4).to_complex(8) == -1
        assert Amplitude(6).to_complex(8) == -1j

    def test_eighth_turn_phase(self):
        z = Amplitude(1).to_complex(8)
        assert z.real == pytest.approx(2**-0.5)
        assert z.imag == pytest.approx(2**-0.5)

    def test_times_adds_phases_and_exponents(self):
        assert Amplitude.inv_sqrt(2).times(Amplitude.inv_sqrt(2), 8) == Amplitude(0, ((2, 2),))
        assert Amplitude(3).times(Amplitude(7, ((3, 1),)), 8) == Amplitude(2, ((3, 1),))

    def test_rescaled_to_a_finer_phase_order(self):
        assert Amplitude(1).rescaled(4, 8) == Amplitude(2)
        with pytest.raises(ValueError):
            Amplitude(1).rescaled(8, 12)


class TestAmplitudeHash:
    def test_equals_the_tuple_of_its_canonical_fields(self):
        amp = Amplitude(3, ((6, 1),))
        assert amp == (3, ((2, 1), (3, 1)))
        assert repr(amp) == "Amplitude(phase_index=3, mag_exponents=((2, 1), (3, 1)))"

    def test_is_immutable(self):
        amp = Amplitude(3, ((6, 1),))
        with pytest.raises(AttributeError):
            amp.phase_index = 4
        assert amp.phase_index == 3

    def test_hash_is_that_of_the_fields(self):
        amp = Amplitude(3, ((6, 1),))
        assert hash(amp) == hash((3, ((2, 1), (3, 1))))
        assert hash(amp) == hash(Amplitude(3, ((2, 1), (3, 1))))

    def test_shift_and_rescale_skip_canonicalization(self, monkeypatch):
        amp = Amplitude(1, ((12, 2),))

        def refuse(pairs):
            raise AssertionError("canonical exponents recomputed")

        monkeypatch.setattr(states_module, "_canonical_exponents", refuse)
        shifted, rescaled = amp.shifted(3, 8), amp.rescaled(8, 16)
        assert shifted.mag_exponents is amp.mag_exponents is rescaled.mag_exponents
        monkeypatch.undo()
        assert (shifted, rescaled) == (Amplitude(4, ((12, 2),)), Amplitude(2, ((12, 2),)))
        assert hash(shifted) == hash(Amplitude(4, ((12, 2),)))
        assert hash(rescaled) == hash(Amplitude(2, ((12, 2),)))


class TestPackedKeys:
    @pytest.mark.parametrize("local_dim", [2, 3, 4, 5, 8, 9, 10, 11, 16, 17, 300])
    def test_digits_round_trip_in_order(self, local_dim):
        top = local_dim - 1
        strings = sorted(set(itertools.product((0, 1, top // 2, top), repeat=3)))
        keys = [pack_digits(digits, local_dim) for digits in strings]
        assert keys == sorted(set(keys))
        assert [unpack_digits(key, local_dim, 3) for key in keys] == strings
        for digits, key in zip(strings, keys):
            assert key == sum(d << digit_bits(local_dim) * (2 - k) for k, d in enumerate(digits))

    @pytest.mark.parametrize("local_dim", range(2, 11))
    def test_digit_text_reads_back_in_base_two_to_the_field_width(self, local_dim):
        digits = tuple(k % local_dim for k in range(25))
        key = pack_digits(digits, local_dim)
        text = digit_text(key, local_dim, len(digits))
        assert text == "".join(map(str, digits))
        assert int(text, 2 ** digit_bits(local_dim)) == key

    # Local dimensions on each side of a field-width or digit-byte edge, and
    # any up to three bytes per digit.
    EDGE_DIMS = (2, 3, 4, 5, 8, 9, 10, 11, 16, 17, 32, 33, 256, 257, 65536, 65537)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_codec_matches_the_definition(self, data):
        local_dim = data.draw(st.sampled_from(self.EDGE_DIMS) | st.integers(2, 2**17))
        digits = data.draw(st.lists(st.integers(0, local_dim - 1), min_size=1, max_size=40))
        num_qudits, bits = len(digits), digit_bits(local_dim)
        key = sum(d << bits * (num_qudits - 1 - i) for i, d in enumerate(digits))
        assert pack_digits(digits, local_dim) == pack_digits(tuple(digits), local_dim) == key
        assert unpack_digits(key, local_dim, num_qudits) == tuple(digits)
        text = fileio._key_to_text(key, local_dim, num_qudits)
        assert fileio._key_from_text(text, local_dim, num_qudits, 1) == key

    def test_leading_zero_digits_are_written(self):
        assert digit_text(0, 3, 4) == "0000"
        assert unpack_digits(0, 11, 2) == (0, 0)


class TestEntriesView:
    def test_behaves_as_a_read_only_mapping(self):
        half = Amplitude.inv_sqrt(2)
        state = SparseState(3, 2, 8, {(0, 2): half, (2, 1): half.shifted(4, 8)})
        view = state.entries
        assert isinstance(view, Mapping)
        assert len(view) == 2
        assert list(view) == [(0, 2), (2, 1)]
        assert view[(0, 2)] == half
        assert view.get((2, 1)) == Amplitude(4, ((2, 1),))
        assert view.get((1, 1)) is None
        assert view.get((1, 1), "absent") == "absent"
        assert (0, 2) in view and (1, 1) not in view
        assert list(view.values()) == [half, Amplitude(4, ((2, 1),))]
        assert list(view.items()) == [((0, 2), half), ((2, 1), Amplitude(4, ((2, 1),)))]
        with pytest.raises(KeyError):
            view[(1, 1)]
        with pytest.raises(TypeError):
            view[(0, 2)] = half

    @pytest.mark.parametrize("key", [(0, 3), (0, 4), (0,), (0, 2, 0), [0, 2], "02", (0, "2"), (-1, 2)])
    def test_keys_that_are_no_basis_string_are_absent(self, key):
        view = SparseState(3, 2, 8, {(0, 2): Amplitude.one()}).entries
        assert key not in view
        assert view.get(key) is None
        assert view.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            view[key]

    @pytest.mark.parametrize("key", [(0, 3), (0,), (0, 2, 0), "02", (0, "2"), (-1, 2)])
    def test_mappings_keyed_by_no_basis_string_differ(self, key):
        view = SparseState(3, 2, 8, {(0, 2): Amplitude.one()}).entries
        assert view != {key: Amplitude.one()}
        assert {key: Amplitude.one()} != view

    def test_equality_with_dicts_and_views(self):
        half = Amplitude.inv_sqrt(2)
        entries = {(0, 1): half, (1, 0): half}
        state = SparseState(2, 2, 8, entries)
        assert state.entries == entries
        assert entries == state.entries
        assert state.entries == SparseState(2, 2, 8, dict(reversed(entries.items()))).entries
        assert state.entries == SparseState(4, 2, 8, entries).entries
        assert state.entries == SparseState(3, 2, 8, entries).entries
        assert state.entries != {(0, 1): half}
        assert state.entries != SparseState(2, 2, 8, {(0, 1): half, (1, 1): half}).entries
        assert state.entries != SparseState(2, 2, 8, {(0, 1): half, (1, 0): half.shifted(4, 8)}).entries
        assert state.entries != {(0, 1): half, (1, 1): half}
        assert state.entries != SparseState(2, 3, 8, {(0, 0, 1): half, (0, 1, 0): half}).entries
        assert state.entries != [((0, 1), half), ((1, 0), half)]

    def test_views_of_other_shapes_and_dicts_compare_as_mappings(self):
        half = Amplitude.inv_sqrt(2)
        entries = {(0, 1): half, (1, 0): half}
        view = SparseState(2, 2, 8, entries).entries
        assert view == SparseState(3, 2, 8, entries).entries
        assert SparseState(3, 2, 8, entries).entries == view
        assert view == entries and entries == view
        assert view != {(0, 1): half}
        assert view != SparseState(2, 3, 8, {(0, 0, 1): half}).entries
        assert SparseState(2, 1, 8).entries == SparseState(3, 4, 8).entries == {}
        assert view.__eq__([((0, 1), half), ((1, 0), half)]) is NotImplemented

    def test_repr_is_that_of_the_digit_dict(self):
        state = SparseState(3, 2, 8, {(0, 2): Amplitude.one(), (2, 1): Amplitude(4)})
        assert repr(state.entries) == repr({(0, 2): Amplitude.one(), (2, 1): Amplitude(4)})

    def test_constructor_accepts_a_view(self):
        state = build_cantor(2)
        rebuilt = SparseState(3, 4, 8, state.entries)
        assert rebuilt == state
        assert rebuilt.entries == state.entries
        wider = SparseState(5, 4, 8, state.entries)
        assert wider.entries == state.entries
        with pytest.raises(ValueError, match=r"has digits outside \[0, 2\)$"):
            SparseState(2, 4, 8, state.entries)
        with pytest.raises(ValueError, match=r"has length 4, expected 5$"):
            SparseState(3, 5, 8, state.entries)

    @pytest.mark.parametrize("local_dim", [3, 11, 300])
    def test_a_digit_that_is_no_integer_is_refused_and_absent(self, local_dim):
        # One byte per digit up to N = 256, two above.
        with pytest.raises(ValueError, match=r"^basis index \(1\.5, 0\) has a digit that is not an integer$"):
            SparseState(local_dim, 2, 8, {(1.5, 0): Amplitude.one()})
        view = SparseState(local_dim, 2, 8, {(1, 0): Amplitude.one()}).entries
        assert (1.5, 0) not in view and view.get((1.5, 0)) is None
        assert (np.int64(1), np.int32(0)) in view

    def test_public_support_is_digit_tuples_in_order(self):
        state = build_cantor(2)
        assert state.support() == tuple(sorted(state.entries))
        assert state.support()[:3] == ((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2))


class TestStateBasics:
    def test_digit_validation(self):
        with pytest.raises(ValueError):
            SparseState(2, 2, 8, {(0, 2): Amplitude.one()})
        with pytest.raises(ValueError):
            SparseState(2, 2, 8, {(0,): Amplitude.one()})
        with pytest.raises(ValueError):
            SparseState(2, 2, 7, {})

    def test_norm_squared(self):
        assert basis(2, (0, 0)).norm_squared() == 1
        assert SparseState(2, 1, 8, {}).norm_squared() == 0
        assert uniform3().norm_squared() == 1

    def test_outcome_probability(self):
        state = uniform3()
        assert state.outcome_probability((1,)) == Fraction(1, 3)
        assert state.outcome_probability((0,)) == Fraction(1, 3)
        assert basis(3, (0,)).outcome_probability((2,)) == 0
        # An outcome that names no basis string is refused as the constructor refuses its key.
        for outcome, defect in [((0, 1), "length"), ((5,), "outside"), ((-1,), "outside"), ((1.5,), "not an integer")]:
            with pytest.raises(ValueError, match=defect):
                state.outcome_probability(outcome)

    def test_equality_promotes_phase_order(self):
        a = SparseState(2, 1, 4, {(1,): Amplitude(2)})
        b = SparseState(2, 1, 8, {(1,): Amplitude(4)})
        assert a == b
        assert a != SparseState(2, 1, 8, {(1,): Amplitude(2)})


class TestTensor:
    def test_prepends_structure(self):
        left = basis(3, (0,))
        combined = left.tensor(uniform3())
        assert combined.support() == ((0, 0), (0, 1), (0, 2))
        assert combined.entries[(0, 1)] == Amplitude.inv_sqrt(3)

    def test_single_entry_factor_appends_digit(self):
        state = bell(+1).tensor(basis(2, (0,)))
        assert state.support() == ((0, 1, 0), (1, 0, 0))

    def test_entry_count_multiplies(self):
        a, b = uniform3(), uniform3()
        assert len(a.tensor(b).entries) == len(a.entries) * len(b.entries)

    def test_local_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            basis(2, (0,)).tensor(basis(3, (0,)))

    def test_phase_order_promotes_to_lcm(self):
        a = SparseState(2, 1, 4, {(0,): Amplitude(1)})
        b = SparseState(2, 1, 6, {(1,): Amplitude(1)})
        combined = a.tensor(b)
        assert combined.phase_order == 12
        assert combined.entries[(0, 1)] == Amplitude(5)


class TestSuperpose:
    def test_disjoint_supports_concatenate(self):
        half = Amplitude.inv_sqrt(2)
        a = SparseState(2, 2, 8, {(0, 0): half})
        b = SparseState(2, 2, 8, {(1, 1): half})
        out = superpose([(0, a), (0, b)])
        assert out.support() == ((0, 0), (1, 1))
        assert out.norm_squared() == 1

    def test_equal_amplitudes_double(self):
        state = SparseState(2, 1, 8, {(0,): Amplitude(0, ((2, 3),))})
        out = superpose([(0, state), (0, state)])
        assert out.entries[(0,)] == Amplitude(0, ((2, 1),))

    def test_opposite_amplitudes_cancel(self):
        state = basis(2, (0,))
        out = superpose([(0, state), (4, state)])
        assert out.support() == ()
        assert out.norm_squared() == 0

    def test_unresolvable_collision_raises(self):
        a = SparseState(2, 1, 8, {(0,): Amplitude.one()})
        b = SparseState(2, 1, 8, {(0,): Amplitude.inv_sqrt(2)})
        with pytest.raises(AmplitudeOverflowError):
            superpose([(0, a), (0, b)])

    def test_cross_terms_build_the_two_pair_state(self):
        # (1/sqrt2)(psi+ psi-) + (1/sqrt2)(psi- psi+) leaves only the
        # doubled diagonal strings 0101 and 1010.
        plus, minus = bell(+1), bell(-1)
        forward = plus.tensor(minus).scaled(inv_sqrt=2)
        backward = minus.tensor(plus).scaled(inv_sqrt=2)
        out = superpose([(0, forward), (0, backward)])
        assert out.support() == ((0, 1, 0, 1), (1, 0, 1, 0))
        assert out.entries[(0, 1, 0, 1)] == Amplitude.inv_sqrt(2)
        assert out.entries[(1, 0, 1, 0)] == Amplitude(4, ((2, 1),))
        assert out.norm_squared() == 1

    def test_dimension_agreement_required(self):
        with pytest.raises(DimensionMismatchError):
            superpose([(0, basis(2, (0,))), (0, basis(2, (0, 0)))])
        with pytest.raises(DimensionMismatchError, match=r"^superpose terms must share phase_order$"):
            superpose([(0, basis(2, (0,))), (0, basis(2, (1,), order=16))])
        with pytest.raises(ValueError, match=r"^superpose needs at least one term$"):
            superpose([])


class TestInnerProduct:
    def test_bell_pair_orthogonality(self):
        assert abs(bell(+1).inner_product(bell(-1))) < 1e-12

    def test_self_overlap_is_one(self):
        for state in (bell(+1), uniform3()):
            assert abs(state.inner_product(state) - 1) < 1e-12

    def test_agrees_with_dense_path(self):
        a, b = bell(+1), bell(-1)
        dense = np.vdot(a.to_dense(), b.to_dense())
        assert abs(a.inner_product(b) - dense) < 1e-10

    @pytest.mark.parametrize("other", [basis(3, (0, 0)), basis(2, (0,))], ids=["local_dim", "num_qudits"])
    def test_shapes_must_match(self, other):
        with pytest.raises(DimensionMismatchError, match=r"^inner product needs matching local_dim and num_qudits$"):
            bell(+1).inner_product(other)


class TestLocalOperators:
    def test_bit_flip_toggles_one_digit(self):
        assert basis(2, (0, 0, 0)).apply_bit_flip(1) == basis(2, (0, 1, 0))

    def test_bit_flip_acts_componentwise(self):
        half = Amplitude.inv_sqrt(2)
        ghz = SparseState(2, 3, 8, {(0, 0, 0): half, (1, 1, 1): half})
        flipped = ghz.apply_bit_flip(0)
        assert flipped.support() == ((0, 1, 1), (1, 0, 0))

    def test_bit_flip_is_an_involution(self):
        state = bell(-1)
        assert state.apply_bit_flip(1).apply_bit_flip(1) == state
        assert state.apply_bit_flip(1).norm_squared() == state.norm_squared()

    def test_several_positions_flip_as_chained_flips(self):
        state = SparseState(2, 3, 8, {(0, 0, 1): Amplitude.inv_sqrt(2), (1, 1, 0): Amplitude.inv_sqrt(2, 4)})
        assert state.apply_bit_flip(0, 2) == state.apply_bit_flip(0).apply_bit_flip(2)
        assert state.apply_bit_flip(0, 2).support() == ((0, 1, 1), (1, 0, 0))
        assert state.apply_bit_flip() is state
        assert state.apply_bit_flip(1, 1) == state

    def test_bit_flip_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            basis(2, (0,)).apply_bit_flip(1)
        with pytest.raises(ValueError):
            basis(3, (0,)).apply_bit_flip(0)

    def test_sigma_z_phases_the_one_component(self):
        assert basis(2, (1,)).apply_sigma_z(0).entries[(1,)] == Amplitude(4)
        assert basis(2, (0,)).apply_sigma_z(0) == basis(2, (0,))
        assert bell(+1).apply_sigma_z(0) == bell(-1)

    def test_sigma_z_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^sigma_z needs local_dim 2, got 3$"):
            basis(3, (0,)).apply_sigma_z(0)
        with pytest.raises(ValueError, match=r"^position 2 out of range for 2 qudits$"):
            bell(+1).apply_sigma_z(2)

    def test_sigma_z_is_an_involution(self):
        state = bell(+1)
        assert state.apply_sigma_z(0).apply_sigma_z(0) == state


class TestDense:
    def test_basis_vector_layout(self):
        vec = basis(2, (0, 1)).to_dense()
        assert vec.tolist() == [0, 1, 0, 0]

    def test_bell_minus_values(self):
        vec = bell(-1).to_dense()
        assert vec[1] == pytest.approx(2**-0.5)
        assert vec[2] == pytest.approx(-(2**-0.5))
        assert vec[0] == vec[3] == 0

    def test_vector_guard(self):
        wide = SparseState(2, 15, 8, {})
        with pytest.raises(GuardExceededError):
            wide.to_dense()

    def test_missing_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError, match=r"^to_dense needs numpy: pip install 'qfractal\[dense\]'$"):
            basis(2, (0,)).to_dense()


class TestSizeGuard:
    def test_each_ceiling_admits_its_limit(self):
        check_size("output", 10**6, 1, 2)
        check_size("output", 1, 10**4, 2)
        # 2**19 entries on 2**13 qutrits, two bits a digit: 2**33 key bits.
        check_size("output", 2**19, 2**13, 3)

    @pytest.mark.parametrize(
        "entries, qudits, local_dim, limit",
        [
            (1, 10**4 + 1, 2, "10000 qudits"),
            (10**6 + 1, 1, 2, "1000000 entries"),
            (2**19, 2**13, 5, "8589934592 key bits"),
            (10**6 + 1, 10**4 + 1, 2, "10000 qudits"),
            (10**6 + 1, 10**4, 2, "1000000 entries"),
        ],
    )
    def test_names_the_first_ceiling_exceeded(self, entries, qudits, local_dim, limit):
        with pytest.raises(GuardExceededError, match=f"^encoded state would exceed {limit}$"):
            check_size("encoded state", entries, qudits, local_dim)

    def test_tensor_and_sum_are_priced_before_they_are_built(self):
        # 3000 entries on 200 qubits: their product would hold 9 * 10**6.
        wide = SparseState._trusted(2, 200, 8, dict.fromkeys(range(3000), Amplitude.one()))
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match=r"^tensor product would exceed 1000000 entries$"):
                wide.tensor(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5
        long = SparseState._trusted(2, 6000, 8, {0: Amplitude.one()})
        with pytest.raises(GuardExceededError, match=r"^tensor product would exceed 10000 qudits$"):
            long.tensor(long)
        # A sum is priced at the entries it takes in, colliding or not.
        with pytest.raises(GuardExceededError, match=r"^sum would exceed 1000000 entries$"):
            superpose([(0, wide)] * 334)

    def test_capped_power_is_the_power_up_to_the_cap(self):
        cap = MAX_KEY_BITS + 1
        for base in [*range(1, 40), 2**17, 10**6, 2**40]:
            for exponent in range(40):
                assert capped_power(base, exponent) == min(base**exponent, cap), (base, exponent)

    def test_capped_power_reads_deep_exponents_from_the_exponent(self):
        # Forming any of these powers would take minutes or all memory.
        assert capped_power(2, 10**18) == capped_power(3, 10**9) == capped_power(10**100, 10**9) == MAX_KEY_BITS + 1
        assert capped_power(1, 10**18) == 1


class TestSchmidtRank:
    def test_product_state(self):
        assert basis(2, (0, 0)).schmidt_rank(1) == 1

    def test_entangled_pair_state(self):
        state = SparseState(
            2, 4, 8, {(0, 1, 0, 1): Amplitude.inv_sqrt(2), (1, 0, 1, 0): Amplitude(4, ((2, 1),))}
        )
        assert state.schmidt_rank(2) == 2

    def test_rank_symmetry(self):
        state = bell(+1).tensor(bell(-1))
        for cut in range(1, state.num_qudits):
            assert state.schmidt_rank(cut) == state.schmidt_rank(state.num_qudits - cut)

    def test_sweep_checks_each_cut_and_answers_in_request_order(self, monkeypatch):
        state = build_cantor(2)
        assert ranks.sweep_ranks(state, [3, 1, 3]) == ((3, 3), (1, 1), (3, 3))
        for cuts, bad in (([1, 4], 4), ([0], 0), ([2, -1, 9], -1)):
            with pytest.raises(ValueError, match=rf"^cut must satisfy 0 < cut < 4, got {bad}$"):
                ranks.sweep_ranks(state, cuts)

        def refuse(*args):
            raise AssertionError("built a field")

        monkeypatch.setattr(ranks, "_field_images", refuse)
        assert ranks.sweep_ranks(state, []) == product_cut_report(build_initial(3)) == ()

    def test_cut_validation_and_guard(self):
        with pytest.raises(ValueError):
            bell(+1).schmidt_rank(0)
        with pytest.raises(ValueError):
            bell(+1).schmidt_rank(2)
        cuts = list(range(1, 26))
        assert product_cut_report(SparseState(2, 26, 8, {}), cuts) == tuple((cut, 0) for cut in cuts)
        # Rank 2**k at cut k <= 12, but no slice ever meets a pivot, so the
        # 4096 x 4096 cut costs no more than its 4096 cells.
        assert product_cut_report(maximally_entangled(12), [11, 12]) == ((11, 2**11), (12, 2**12))
        assert fourier(64).schmidt_rank(1) == 64
        # The smallest even n whose packed elimination is charged past the
        # budget; fourier(448) fits.
        with pytest.raises(GuardExceededError, match=r"^cut 1: sweep work exceeds 4194304$"):
            fourier(450).schmidt_rank(1)

    @pytest.mark.parametrize(
        "n, missing",
        [(128, ()), (200, ()), (256, ()), (128, ((5, 7),)), (200, ((199, 199),))],
        ids=["128", "200", "256", "128-less-one", "200-less-one"],
    )
    def test_dense_fourier_cut_has_full_rank(self, n, missing):
        # All n**2 strings, or all but one held as a zero lane, so the packed
        # sweep: the last piece meets n - 1 pivot rows, more multiply-adds
        # than a lane holds between folds.
        state = fourier(n, missing)
        assert lane_folds(field_prime(state)) is not None
        assert state.schmidt_rank(1) == n

    def test_packed_rows_match_dict_rows_over_long_reductions(self):
        # 100 x 100 matrices over F_p, one amplitude per cell so that any
        # image can be given to each.  Rows 0..98 of the first are 1 on the
        # diagonal and -1 right of it, and row 99 is their sum: reducing it
        # adds (p - 1)**2 to each lane 99 times, three times what a lane
        # holds between folds, and must end at exactly zero.  The second is
        # a random product of rank 33.
        n, p = 100, _prime_field(8)[0]
        ladder = [[(j == i) - (j > i) for j in range(n)] for i in range(n - 1)]
        ladder.append([sum(column) for column in zip(*ladder)])
        rng = random.Random(1)
        left = [[rng.randrange(p) for _ in range(33)] for _ in range(n)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(33)]
        product = [[sum(a * b for a, b in zip(row, column)) for column in zip(*right)] for row in left]
        state = SparseState(n, 2, 2 * n * n, {(a, b): Amplitude(2 * (a * n + b)) for a in range(n) for b in range(n)})
        for matrix, rank in ((ladder, n - 1), (product, 33)):
            images = {Amplitude(2 * (a * n + b)): matrix[a][b] % p for a in range(n) for b in range(n)}
            for sweep in (packed_sweep, _dict_sweep):
                for from_right in (False, True):
                    assert sweep(state, images, p, from_right, 1, 2**30) == [1, rank]

    def test_full_support_outside_the_lane_fields(self):
        # Phases of order 2**64 need p > 2**64, whose products no 128-bit
        # lane holds, so this full support takes the dict sweep.  Phase
        # 2**6 * (x0 + 3 * x3) is a product; (R / 2) * x1 * x2 is a CZ
        # between qubits 1 and 2.
        order = 2**70
        amp = Amplitude(0, ((2, 4),))
        entries = {
            x: amp.shifted(2**6 * (x[0] + 3 * x[3]) + order // 2 * x[1] * x[2], order)
            for x in itertools.product((0, 1), repeat=4)
        }
        state = SparseState(2, 4, order, entries)
        assert lane_folds(field_prime(state)) is None
        assert product_cut_report(state, [1, 2, 3]) == ((1, 1), (2, 2), (3, 1))

    def test_row_form_follows_the_density(self, monkeypatch):
        # Sweeps to cut 1, where building the first row is most of the work:
        # below 3/4 of the N**Q strings dict rows take them (at 1/8 of 2**18
        # strings they ran 5x faster than packed rows), and from 3/4 up
        # packed rows do.  A packed refusal is final, strings missing or not.
        used = []

        def spy(name, sweep):
            def run(*args):
                used.append(name)
                return sweep(*args)

            return run

        rng = random.Random(3)
        strings = list(itertools.product((0, 1), repeat=10))

        def kept(count):
            return SparseState(2, 10, 8, {x: Amplitude(rng.randrange(8)) for x in rng.sample(strings, count)})

        monkeypatch.setattr(ranks, "_dict_sweep", spy("dict", ranks._dict_sweep))
        monkeypatch.setattr(ranks, "packed_sweep", spy("packed", ranks.packed_sweep))
        for count, form in ((128, "dict"), (767, "dict"), (768, "packed"), (1024, "packed")):
            used.clear()
            assert kept(count).schmidt_rank(1) == 2
            assert used == [form]
        def refuse(*args):
            raise GuardExceededError("cut 1: sweep work exceeds 4194304")

        monkeypatch.setattr(ranks, "packed_sweep", spy("packed", refuse))
        for count in (768, 1024):
            used.clear()
            with pytest.raises(GuardExceededError):
                kept(count).schmidt_rank(1)
            assert used == ["packed"]

    @pytest.mark.parametrize("n, q", [(2, 8), (3, 6)])
    @pytest.mark.parametrize("share", [1 / 8, 1 / 4])
    def test_dict_rows_need_at_least_the_packed_budget(self, n, q, share):
        # Dense supports with a share of their strings missing: dict rows
        # never finish a sweep, to cut 1 or over every cut, on less work than
        # packed rows, so a refused packed sweep is not tried again on dicts.
        rng = random.Random(n * q)
        strings = list(itertools.product(range(n), repeat=q))
        kept = rng.sample(strings, len(strings) - int(share * len(strings)))
        state = SparseState(n, q, 8, {x: Amplitude(rng.randrange(8)) for x in kept})
        budget, p, images = _field_images(state.phase_order, set(state._packed.values()))

        def least(sweep, steps):
            """The least work on which ``sweep`` finishes, and its ranks."""
            low, high = 0, budget
            ranks = sweep(state, images, p, False, steps, high)
            while high - low > 1:
                middle = (low + high) // 2
                try:
                    sweep(state, images, p, False, steps, middle)
                    high = middle
                except GuardExceededError:
                    low = middle
            return high, ranks

        for steps in (1, q - 1):
            (packed, packed_ranks), (dicts, dict_ranks) = (least(f, steps) for f in (packed_sweep, _dict_sweep))
            assert packed_ranks == dict_ranks
            assert dicts >= packed

    def test_zero_lanes_are_charged_before_a_packed_row_is_built(self, monkeypatch):
        # 254 of the 256 strings, so packed rows; the two zero lanes alone
        # pass a budget of 1.
        used = []

        def spy(*args):
            used.append("packed")
            return packed_sweep(*args)

        def first_row(*args):
            raise AssertionError("a packed row was built")

        monkeypatch.setattr(ranks, "packed_sweep", spy)
        monkeypatch.setattr(ranks, "_first_row", first_row)
        monkeypatch.setattr(ranks, "WORK_LIMIT", 1)
        with pytest.raises(GuardExceededError, match=r"^cut 1: sweep work exceeds 1$"):
            fourier(16, ((5, 7), (6, 8))).schmidt_rank(1)
        assert used == ["packed"]

    def test_slicing_is_charged(self):
        # 4096 strings on 12 qubits between |0...0> on 1088 qubits each side:
        # rank 1 everywhere, but every cut slices one row of 4096 cells, and
        # cut 1025 is nearer the left end, so the sweep takes 1025 steps.
        amp = Amplitude(0, ((2, 12),))
        middle = SparseState(2, 12, 2, {digits: amp for digits in itertools.product((0, 1), repeat=12)})
        zeros = basis(2, (0,) * 1088, order=2)
        state = zeros.tensor(middle).tensor(zeros)
        assert product_cut_report(state, [1, 1024]) == ((1, 1), (1024, 1))
        with pytest.raises(GuardExceededError, match=r"^cut 1025: sweep work exceeds 4194304$"):
            state.schmidt_rank(1025)

    @pytest.mark.parametrize(
        "order, primes",
        [
            (8, {2}),
            (2 * 1031 * 1033, {2, 1031, 1033}),
            (4 * 3**5 * 1000003**2, {2, 3, 1000003}),
            (2 * 4294967291 * 4294967279, {2, 4294967279, 4294967291}),
            (8 * (2**61 - 1), {2, 2**61 - 1}),
        ],
    )
    def test_prime_field_has_a_root_of_the_full_order(self, order, primes):
        factors = _prime_factors(order)
        assert {q for q, _ in factors} == primes
        assert math.prod(q**m for q, m in factors) == order
        p, w = _prime_field(order)
        assert p >= 2**61 and p % order == 1
        assert pow(w, order, p) == 1
        assert all(pow(w, order // q, p) != 1 for q in primes)

    def test_root_order_and_gauss_sum_guards(self):
        # M = 2**65 is past the proven prime search, and sqrt(2**31 - 1) needs
        # a Gauss sum of 2**30 terms.
        with pytest.raises(GuardExceededError, match=r"^root order 36893488147419103232 exceeds 18446744073709551616$"):
            SparseState(2, 2, 2**65, {(0, 0): Amplitude(1)}).schmidt_rank(1)
        with pytest.raises(GuardExceededError, match=r"^Gauss sum work 2147483647 exceeds 4194304$"):
            SparseState(2, 2, 8, {(0, 0): Amplitude.inv_sqrt(2**31 - 1)}).schmidt_rank(1)

    @pytest.mark.parametrize(
        "order, unit, base",
        [(2**40, 1, 2), (2 * (2**61 - 1), 1, 2), (2 * 1000003 * 1000033, 1, 3), (2**70, 2**68, 2), (8, 1, 1048573)],
        ids=["two-power", "mersenne-61", "two-large-primes", "phases-use-zeta4", "base-near-2**20"],
    )
    def test_large_root_orders(self, order, unit, base):
        # a zeta**(j+k) over j, k in {0, 1} is a product; a further zeta on
        # one corner makes it rank 2.
        a = Amplitude(0, ((base, 1),))
        entries = {(j, k): a.shifted((j + k) * unit, order) for j in (0, 1) for k in (0, 1)}
        assert SparseState(2, 2, order, entries).schmidt_rank(1) == 1
        entries[(1, 1)] = a.shifted(3 * unit, order)
        assert SparseState(2, 2, order, entries).schmidt_rank(1) == 2

    @pytest.mark.parametrize("order, base, exponent", [(8, 2, 3), (12, 3, 2)], ids=["sqrt2", "sqrt3"])
    def test_rows_related_through_a_radical(self, order, base, exponent):
        # zeta + 1/zeta is sqrt 2 for zeta of order 8 and sqrt 3 for order 12,
        # so with a = base**(-exponent/2) row 2 is row 0 plus row 1.
        def amp(phase, exp=exponent):
            return Amplitude(phase, ((base, exp),))

        entries = {(0, 0): amp(0), (0, 2): amp(1), (1, 1): amp(0), (1, 2): amp(order - 1)}
        entries.update({(2, 0): amp(0), (2, 1): amp(0), (2, 2): amp(0, exponent - 1)})
        state = SparseState(3, 2, order, entries)
        assert state.norm_squared() == 1
        assert state.schmidt_rank(1) == 2
        entries[(2, 2)] = amp(order // 2, exponent - 1)
        assert SparseState(3, 2, order, entries).schmidt_rank(1) == 3

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_radical_squares_to_its_base(self, q):
        # Rows e_j + e_q / q for j < q and a last row of ones: the rank is q
        # iff q copies of 1/q sum to 1.  Phase order 2 leaves zeta_4 to the
        # embedding alone.
        entries = {(q, q): Amplitude.one()}
        for j in range(q):
            entries[(j, j)] = entries[(q, j)] = Amplitude.one()
            entries[(j, q)] = Amplitude(0, ((q, 2),))
        assert SparseState(q + 1, 2, 2, entries).schmidt_rank(1) == q

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_gauss_sum_radicals(self, q):
        # Identity rows 0..q-1 with column q all ones, and a last row of
        # (j | q) zeta_q**j: the rank is q iff the corner equals
        # sum_j (j | q) zeta_q**j, which is sqrt q, or i sqrt q when q = 3 mod 4.
        order = 4 * q
        residues = {j * j % q for j in range(1, q)}
        entries = {}
        for j in range(q):
            entries[(j, j)] = entries[(j, q)] = Amplitude.one()
            if j:
                entries[(q, j)] = Amplitude(4 * j + (0 if j in residues else order // 2))
        corner = q if q % 4 == 3 else 0
        for phase, rank in [(corner, q), (corner + order // 2, q + 1)]:
            entries[(q, q)] = Amplitude(phase, ((q, -1),))
            assert SparseState(q + 1, 2, order, entries).schmidt_rank(1) == rank


class TestSumOrder:
    @pytest.mark.parametrize("shifts", [(0, 4, 0, 4), (0, 0, 4, 4), (4, 4, 0, 0), (0, 4, 4, 0)])
    def test_four_opposite_terms_cancel_in_any_order(self, shifts):
        a = SparseState(2, 1, 8, {(0,): Amplitude.inv_sqrt(2)})
        out = superpose([(shift, a) for shift in shifts])
        assert out.support() == ()

    @pytest.mark.parametrize("shifts", [(0, 0, 0, 4), (4, 0, 0, 0), (0, 4, 0, 0)])
    def test_counts_net_to_an_integer_multiple(self, shifts):
        a = SparseState(2, 1, 8, {(0,): Amplitude.inv_sqrt(2, phase_index=1)})
        out = superpose([(shift, a) for shift in shifts])
        assert out.entries[(0,)] == Amplitude(1, ((2, -1),))

    def test_net_negative_count_takes_the_half_turn(self):
        a = SparseState(2, 1, 8, {(0,): Amplitude.one()})
        out = superpose([(4, a), (0, a), (4, a), (4, a)])
        assert out.entries[(0,)] == Amplitude(4, ((2, -2),))

    def test_two_classes_left_raise_in_any_order(self):
        a = SparseState(2, 1, 8, {(0,): Amplitude.one()})
        b = SparseState(2, 1, 8, {(0,): Amplitude.inv_sqrt(2)})
        for terms in ([(0, a), (0, b), (0, a)], [(0, b), (0, a), (0, a)]):
            with pytest.raises(AmplitudeOverflowError):
                superpose(terms)
