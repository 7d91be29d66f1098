"""Golden outputs of the step checks on rules that fail them.

`check_rule_against` raises on the first defect it meets, and `qfs
verify-step` prints every check, naming the last orthonormality defect.  The
expected texts are those the checks printed while each ran its own loop over
the slot cells; they pin which defect and which unresolved cell each report
names.  A ``basis:`` slot whose digits fall outside the predecessor's
``[0, N)`` is reported like one of the wrong length; a negative digit is
refused when the rule file is parsed.
"""

import pytest

from qfractal import Amplitude, SparseState, save_state
from qfractal.cli import main
from qfractal.construct import (
    BasisSlot,
    Coefficient,
    FractalParams,
    NamedSlot,
    Predecessor,
    ScaleRule,
    check_rule_against,
)
from qfractal.errors import ScaleRuleError

ZERO = SparseState.basis_state(2, (0,))
PLUS = SparseState(2, 1, 8, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2)})
QUTRIT_ZERO = SparseState.basis_state(3, (0,))
# |1> + |2>, squared norm 2.
UNNORMALIZED = SparseState(3, 1, 8, {(1,): Amplitude.one(), (2,): Amplitude.one()})

HALF = Amplitude.inv_sqrt(2)
HEAD = (
    "coefficient_count: pass (2 records, s = 2)\n"
    "coefficient_magnitudes: pass (each record carries squared magnitude 1/2, total 2/2)\n"
)
PRESENT = "predecessor_present: pass (a referenced slot resolves to the predecessor)\n"
ORTHONORMAL = "slot_orthonormality: pass (pairwise within 1e-09)\n"
INVALID = "norm: pass (target norm squared 1)\nextracted_s: -\nvalid: no\n"



def report(lines):
    """verify-step's exit code and output for a report whose check lines
    between HEAD and INVALID are ``lines``."""
    return 1, HEAD + lines + INVALID, ""


def refused(message):
    """verify-step's exit code and output for a rule file refused as it is
    parsed."""
    return 2, "", f"error: {message}\n"


# name: (prev, slot tables, coefficient indices, rule file slot lines, target,
#        check_rule_against message or None, verify-step exit code, stdout and stderr)
CASES = {
    "unresolved_cells": (
        ZERO,
        ({0: Predecessor()}, {0: BasisSlot((1,))}),
        ((0, 1), (1, 0)),
        "slot 1 0 predecessor\nslot 2 0 basis:1\n",
        SparseState.basis_state(2, (0, 1)),
        "slot 1 has no entry for index 1",
        report(
            "predecessor_present: FAIL (slot 1 has no entry for index 1)\n"
            "slot_orthonormality: FAIL (slot 1 has no entry for index 1)\n"
            "reconstruction: FAIL (slot 2 has no entry for index 1)\n"
        ),
    ),
    "two_slots_not_orthogonal": (
        ZERO,
        ({0: Predecessor(), 1: NamedSlot(PLUS)}, {0: BasisSlot((0,)), 1: NamedSlot(PLUS)}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 file:plus.qfs\nslot 2 0 basis:0\nslot 2 1 file:plus.qfs\n",
        SparseState.basis_state(2, (0, 1)),
        "slot 1 vectors are not orthogonal",
        report(
            PRESENT + "slot_orthonormality: FAIL (slot 2 vectors not orthogonal)\n"
            "reconstruction: FAIL (amplitudes at (0, 0) do not sum into the exact ring)\n"
        ),
    ),
    "unnormalized_named_slot": (
        QUTRIT_ZERO,
        ({0: Predecessor(), 1: BasisSlot((1,))}, {0: BasisSlot((0,)), 1: NamedSlot(UNNORMALIZED)}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 basis:1\nslot 2 0 basis:0\nslot 2 1 file:unnormalized.qfs\n",
        SparseState.basis_state(3, (0, 0)),
        "slot 2 vector 1 is not normalized",
        report(
            PRESENT + "slot_orthonormality: FAIL (slot 2 vector not normalized)\n"
            "reconstruction: FAIL (scale rule output is not normalized; slot products must be orthonormal)\n"
        ),
    ),
    "basis_digit_too_large": (
        ZERO,
        ({0: Predecessor(), 1: BasisSlot((1,))}, {0: BasisSlot((5,)), 1: BasisSlot((1,))}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 basis:1\nslot 2 0 basis:5\nslot 2 1 basis:1\n",
        SparseState.basis_state(2, (0, 0)),
        "slot 2 basis string has digits outside [0, 2)",
        report(
            "predecessor_present: FAIL (slot 2 basis string has digits outside [0, 2))\n"
            "slot_orthonormality: FAIL (slot 2 basis string has digits outside [0, 2))\n"
            "reconstruction: FAIL (slot 2 basis string has digits outside [0, 2))\n"
        ),
    ),
    "basis_digit_negative": (
        SparseState.basis_state(2, (0, 0)),
        ({0: Predecessor(), 1: BasisSlot((1, 1))}, {0: BasisSlot((-1, 0)), 1: BasisSlot((1, 1))}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 basis:11\nslot 2 0 basis:-1,0\nslot 2 1 basis:11\n",
        SparseState.basis_state(2, (0, 0, 0, 0)),
        "slot 2 basis string has digits outside [0, 2)",
        refused("line 8: basis digit -1 is negative"),
    ),
    "no_predecessor": (
        QUTRIT_ZERO,
        ({0: BasisSlot((1,))}, {0: BasisSlot((1,)), 1: BasisSlot((2,))}),
        ((0, 0), (0, 1)),
        "slot 1 0 basis:1\nslot 2 0 basis:1\nslot 2 1 basis:2\n",
        SparseState(3, 2, 8, {(1, 1): HALF, (1, 2): HALF}),
        "no referenced slot resolves to the predecessor state",
        report(
            "predecessor_present: FAIL (no slot matches the predecessor)\n" + ORTHONORMAL
            + "reconstruction: pass (rule output equals the target exactly)\n"
        ),
    ),
    "reconstruction_mismatch": (
        ZERO,
        ({0: Predecessor(), 1: BasisSlot((1,))}, {0: BasisSlot((0,)), 1: BasisSlot((1,))}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 basis:1\nslot 2 0 basis:0\nslot 2 1 basis:1\n",
        SparseState(2, 2, 8, {(0, 0): HALF, (1, 1): Amplitude.inv_sqrt(2, phase_index=4)}),
        None,
        report(PRESENT + ORTHONORMAL + "reconstruction: FAIL (rule output differs from the target)\n"),
    ),
}


def rule_of(tables, indices):
    return ScaleRule(FractalParams(2, 2), tables, tuple(Coefficient(i) for i in indices))


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_rule_against_names_the_first_defect(name):
    prev, tables, indices, _, _, message, _ = CASES[name]
    rule = rule_of(tables, indices)
    if message is None:
        assert check_rule_against(prev, rule) is None
    else:
        with pytest.raises(ScaleRuleError) as info:
            check_rule_against(prev, rule)
        assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_step_stdout(name, tmp_path, capsys):
    prev, _, indices, slot_lines, target, _, expected = CASES[name]
    save_state(prev, tmp_path / "prev.qfs")
    save_state(target, tmp_path / "next.qfs")
    save_state(PLUS, tmp_path / "plus.qfs")
    save_state(UNNORMALIZED, tmp_path / "unnormalized.qfs")
    coeff_lines = "".join(f"coeff {a},{b} 0\n" for a, b in indices)
    (tmp_path / "step.rule").write_text("qfs-rule/1\nc 2\ns 2\nphase_order 8\n\n" + slot_lines + coeff_lines)
    argv = ["verify-step", "--rule", str(tmp_path / "step.rule")]
    argv += ["--prev", str(tmp_path / "prev.qfs"), "--next", str(tmp_path / "next.qfs")]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


@pytest.mark.parametrize("digit", [-1, 2])
def test_single_digit_basis_slot_out_of_range(digit):
    rule = rule_of(({0: Predecessor()}, {0: BasisSlot((digit,))}), ((0, 0), (1, 1)))
    with pytest.raises(ScaleRuleError) as info:
        rule.resolve(1, 0, ZERO)
    assert str(info.value) == "slot 2 basis string has digits outside [0, 2)"


def test_single_negative_basis_digit_in_a_rule_file_is_a_parse_error(tmp_path, capsys):
    # Without a comma, a basis string is read digit by digit, so "-1" is malformed.
    save_state(ZERO, tmp_path / "prev.qfs")
    save_state(SparseState.basis_state(2, (0, 0)), tmp_path / "next.qfs")
    slot_lines = "slot 1 0 predecessor\nslot 2 0 basis:-1\n"
    rule = "qfs-rule/1\nc 2\ns 2\nphase_order 8\n\n" + slot_lines + "coeff 0,0 0\ncoeff 1,1 0\n"
    (tmp_path / "step.rule").write_text(rule)
    argv = ["verify-step", "--rule", str(tmp_path / "step.rule")]
    argv += ["--prev", str(tmp_path / "prev.qfs"), "--next", str(tmp_path / "next.qfs")]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: line 7: malformed basis string '-1'\n")
