"""Contracts of the package's record types: constructor signatures and
validation messages, immutability, equality, hashing, repr and ``vars()``."""

import copy
import inspect
import pickle
import weakref
from fractions import Fraction

import pytest

from qfractal import (
    Amplitude,
    BasisSlot,
    CheckResult,
    CodeError,
    CodeKind,
    CodeSpec,
    Coefficient,
    DecodeReport,
    FractalParams,
    LocalCliffordMatch,
    NamedSlot,
    Predecessor,
    Provenance,
    ScaleRule,
    ScaleRuleError,
    ScalingReport,
    SparseState,
    StepReport,
    build_bell_pair,
    build_cantor,
)


def rule_parts():
    return FractalParams(2, 2), ({0: Predecessor(), 1: BasisSlot((1,))}, {0: BasisSlot((0,)), 1: BasisSlot((1,))})


def plain_rule():
    params, tables = rule_parts()
    return ScaleRule(params, tables, (Coefficient((0, 0)), Coefficient((1, 1))))


def records():
    """One instance of each record type, with the name of one of its fields."""
    bell = build_bell_pair(1)
    tables = rule_parts()[1]
    named = {0: NamedSlot(bell, "bell.qfs")}
    return [
        (CheckResult("norm", True, "target norm squared 1"), "passed"),
        (StepReport((CheckResult("norm", True, "ok"),), True, 2), "valid"),
        (ScalingReport((Fraction(1, 3),), ()), "ratios"),
        (LocalCliffordMatch((0, 1), ("I", "H"), 1.0), "fidelity"),
        (CodeSpec(CodeKind.BIT_FLIP, 2), "levels"),
        (DecodeReport(bell, (), True), "success"),
        (FractalParams(2, 3, 1), "n"),
        (BasisSlot((0, 1)), "digits"),
        (named[0], "path"),
        (Coefficient((0, 1), 4), "phase_index"),
        (plain_rule(), "phase_order"),
        (ScaleRule(FractalParams(2, 1), (tables[0], named), [Coefficient((0, 0))]), "slot_tables"),
        (Provenance("cantor", 2, 3, 8), "n"),
        (bell, "provenance"),
    ]


def record_fields(record):
    """The constructor's parameter names, which are the record's fields."""
    return list(inspect.signature(type(record)).parameters)


class TestValidation:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 2), "c must exceed 1, got 1"),
            ((2, 0), "s must be >= 1, got 0"),
            ((2, 2, -1), "n must be >= 0, got -1"),
        ],
    )
    def test_fractal_params(self, args, message):
        with pytest.raises(ValueError) as info:
            FractalParams(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", list(CodeKind))
    def test_code_spec(self, kind):
        with pytest.raises(CodeError) as info:
            CodeSpec(kind, 0)
        assert str(info.value) == "levels must be >= 1, got 0"

    def test_scale_rule_counts(self):
        params, tables = rule_parts()
        with pytest.raises(ScaleRuleError) as info:
            ScaleRule(params, tables, [Coefficient((0, 0))])
        assert str(info.value) == "rule has 1 coefficients, expected s = 2"
        with pytest.raises(ScaleRuleError) as info:
            ScaleRule(params, tables[:1], (Coefficient((0, 0)), Coefficient((1, 1))))
        assert str(info.value) == "rule has 1 slot tables, expected c = 2"

    def test_scale_rule_copies_its_tables_and_records(self):
        params, tables = rule_parts()
        rule = ScaleRule(params, list(tables), iter([Coefficient((0, 0)), Coefficient((1, 1))]))
        assert type(rule.slot_tables) is tuple and rule.slot_tables == tables
        assert all(mine is not given for mine, given in zip(rule.slot_tables, tables))
        assert rule.coefficients == (Coefficient((0, 0)), Coefficient((1, 1)))


class TestImmutability:
    @pytest.mark.parametrize("record, field", records())
    def test_fields_cannot_be_assigned(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, "extra", None)
        assert getattr(record, field) is before

    def test_state_fields_cannot_be_deleted(self):
        state = build_cantor(1)
        with pytest.raises(AttributeError):
            del state.entries
        assert len(state.entries) == 3


class TestEqualityAndHash:
    @pytest.mark.parametrize("record, field", records()[:-1])
    def test_equal_records_hash_equal(self, record, field):
        copy = type(record)(*[getattr(record, name) for name in record_fields(record)])
        assert copy == record and not copy != record
        if not isinstance(record, (DecodeReport, NamedSlot, ScaleRule)):  # these hold unhashable parts
            assert hash(copy) == hash(record)

    def test_field_values_decide_equality(self):
        assert FractalParams(2, 3) != FractalParams(2, 3, 1)
        assert Coefficient((0, 1)) == Coefficient((0, 1), 0) != Coefficient((0, 1), 4)
        assert Predecessor() == Predecessor()
        assert Provenance("cantor", 2, 3, 8) != Provenance("cantor", 2, 3, 9)
        assert Provenance("cantor", 2, 3, 8) != ("cantor", 2, 3, 8)

    def test_states_stay_unhashable(self):
        with pytest.raises(TypeError):
            hash(build_cantor(1))


class TestCopies:
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("record, field", records())
    def test_copies_and_pickle_round_trips_are_equal(self, record, field, duplicate):
        twin = duplicate(record)
        assert type(twin) is type(record)
        assert twin == record
        assert getattr(twin, field) == getattr(record, field)

    def test_state_copies_keep_entries_and_provenance(self):
        state = build_cantor(2)
        for twin in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert twin == state
            assert twin.entries == state.entries
            assert twin.provenance == state.provenance
            with pytest.raises(AttributeError):
                twin.num_qudits = 1

    def test_states_take_weak_references(self):
        state = build_cantor(1)
        assert weakref.ref(state)() is state

    @pytest.mark.parametrize(
        "record, changes, message",
        [
            (FractalParams(2, 3), {"c": 1}, "c must exceed 1, got 1"),
            (CodeSpec(CodeKind.BIT_FLIP, 2), {"levels": 0}, "levels must be >= 1, got 0"),
            (plain_rule(), {"coefficients": [Coefficient((0, 0))]}, "rule has 1 coefficients, expected s = 2"),
        ],
    )
    def test_replace_and_make_validate(self, record, changes, message):
        with pytest.raises((ValueError, CodeError, ScaleRuleError)) as info:
            record._replace(**changes)
        assert str(info.value) == message
        with pytest.raises((ValueError, CodeError, ScaleRuleError)) as info:
            type(record)._make({**record._asdict(), **changes}.values())
        assert str(info.value) == message

    def test_replace_builds_through_the_constructor(self):
        replaced = plain_rule()._replace(coefficients=[Coefficient((1, 1)), Coefficient((0, 0))])
        assert replaced.coefficients == (Coefficient((1, 1)), Coefficient((0, 0)))
        assert FractalParams(2, 3)._replace(n=4) == FractalParams(2, 3, 4)
        assert Amplitude()._replace(mag_exponents=[(2, 1), (2, 1)]) == Amplitude(0, ((2, 2),))


class TestShape:
    def test_provenance_vars_are_its_fields_in_order(self):
        assert vars(Provenance("cantor", 2, 3, 8)) == {"family": "cantor", "c": 2, "s": 3, "n": 8}
        assert list(vars(Provenance())) == ["family", "c", "s", "n"]

    def test_reprs(self):
        check = CheckResult("norm", True, "target norm squared 1")
        assert repr(check) == "CheckResult(name='norm', passed=True, detail='target norm squared 1')"
        assert repr(StepReport((check,), True, 3)) == (
            "StepReport(checks=(CheckResult(name='norm', passed=True, detail='target norm squared 1'),), "
            "valid=True, extracted_s=3)"
        )
        assert repr(Provenance("cantor", 2, 3, 8)) == "Provenance(family='cantor', c=2, s=3, n=8)"
        assert repr(FractalParams(2, 3)) == "FractalParams(c=2, s=3, n=0)"
        assert repr(Predecessor()) == "Predecessor()"

    def test_keyword_construction(self):
        params, tables = rule_parts()
        coefficients = (Coefficient(indices=(0, 0)), Coefficient(indices=(1, 1), phase_index=0))
        assert FractalParams(c=2, s=3, n=1) == FractalParams(2, 3, 1)
        assert CodeSpec(kind=CodeKind.BELL_PAIR, levels=1) == CodeSpec(CodeKind.BELL_PAIR, 1)
        assert CheckResult(name="a", passed=False, detail="b") == CheckResult("a", False, "b")
        assert Provenance(family="cluster", n=None, c=2, s=2) == Provenance("cluster", 2, 2)
        rule = ScaleRule(params=params, slot_tables=tables, coefficients=coefficients, phase_order=4)
        assert rule == ScaleRule(params, tables, coefficients, 4)
        state = SparseState(local_dim=2, num_qudits=1, phase_order=8, entries={(1,): Amplitude.one()})
        assert state == SparseState(2, 1, 8, {(1,): Amplitude.one()})
        assert state.provenance is None
        assert SparseState(2, 1, 8).entries == {}
