"""Golden outputs of the step checks on rules that fail them, and on one
whose slots are orthogonal only through sqrt 2 = zeta_8 + 1/zeta_8.

Both reports read one resolution of the rule's cells, slot by slot in index
order, and name the first defect in scan order in one text:
`check_rule_against` raises it, and `qfs verify-step` prints it on its first
failing line.  A defect met before a slot pair whose field is refused is the
one named.  A cell that does not resolve is the first bad cell in that order
on every failing line.  A ``basis:`` slot whose digits fall
outside the predecessor's ``[0, N)`` is reported like one of the wrong
length; a negative digit is refused when the rule file is parsed.
Orthogonality is decided exactly, so a slot pair whose inner product is
2.9e-12 is a defect, and two records that pick the same vector in every slot
are one.
"""

import pytest

from qfractal import Amplitude, SparseState, apply_scale_rule, save_state
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
from qfractal.errors import GuardExceededError, ScaleRuleError

ZERO = SparseState.basis_state(2, (0,))
PLUS = SparseState(2, 1, 8, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2)})
QUTRIT_ZERO = SparseState.basis_state(3, (0,))
# |1> + |2>, squared norm 2.
UNNORMALIZED = SparseState(3, 1, 8, {(1,): Amplitude.one(), (2,): Amplitude.one()})
# (|0> + |1>)/sqrt(2) and (|0> - zeta|1>)/sqrt(2) for zeta of order 2**40:
# their inner product (1 - zeta)/2 has modulus 2.9e-12.
R40 = 2**40
NEAR_U = SparseState(2, 1, R40, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2)})
NEAR_V = SparseState(2, 1, R40, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2, R40 // 2 + 1)})
# (|0> + |1> + |2> + |3>)/2 and (zeta_8|0> + zeta_8**7|1>)/2 - |2>/sqrt(2):
# orthogonal, as (zeta_8 + zeta_8**7)/4 = sqrt(2)/4.
QUARTER = Amplitude(0, ((2, 2),))
ROOT2_U = SparseState(4, 1, 8, {(j,): QUARTER for j in range(4)})
ROOT2_V = SparseState(
    4, 1, 8, {(0,): QUARTER.shifted(1, 8), (1,): QUARTER.shifted(7, 8), (2,): Amplitude(4, ((2, 1),))}
)
# The NEAR pair at order 2**65, past the prime search of the F_p overlap.
R65 = 2**65
FAR_U = SparseState(2, 1, R65, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2)})
FAR_V = SparseState(2, 1, R65, {(0,): Amplitude.inv_sqrt(2), (1,): Amplitude.inv_sqrt(2, R65 // 2 + 1)})
# 3|1>, squared norm 9.
TRIPLE = SparseState(2, 1, 8, {(1,): Amplitude(0, ((3, -2),))})
SLOT_FILES = {
    "plus.qfs": PLUS,
    "unnormalized.qfs": UNNORMALIZED,
    "near_u.qfs": NEAR_U,
    "near_v.qfs": NEAR_V,
    "root2_u.qfs": ROOT2_U,
    "root2_v.qfs": ROOT2_V,
    "far_u.qfs": FAR_U,
    "far_v.qfs": FAR_V,
    "triple.qfs": TRIPLE,
}

HALF = Amplitude.inv_sqrt(2)
EIGHTH = Amplitude(0, ((2, 3),))
PRESENT = "predecessor_present: pass (a referenced slot resolves to the predecessor)\n"
ORTHONORMAL = "slot_orthonormality: pass (unit norms, zero overlaps in F_p)\n"
INVALID = "norm: pass (target norm squared 1)\nextracted_s: -\nvalid: no\n"


def head(s):
    """verify-step's two record lines for ``s`` records."""
    return (
        f"coefficient_count: pass ({s} records, s = {s})\n"
        f"coefficient_magnitudes: pass (each record carries squared magnitude 1/{s}, total {s}/{s})\n"
    )


def report(lines, s=2):
    """verify-step's exit code and output for a report whose check lines
    between the two record lines and INVALID are ``lines``."""
    return 1, head(s) + lines + INVALID, ""


def refused(message):
    """verify-step's exit code and output for a rule file refused as it is
    parsed."""
    return 2, "", f"error: {message}\n"


# name: (prev, slot tables, records as (index, index[, phase index]), rule file
#        slot lines, target, check_rule_against message or None when it
#        returns the cells, verify-step exit code, stdout and stderr)
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
            "reconstruction: FAIL (slot 1 has no entry for index 1)\n"
        ),
    ),
    "two_slots_not_orthogonal": (
        ZERO,
        ({0: Predecessor(), 1: NamedSlot(PLUS)}, {0: BasisSlot((0,)), 1: NamedSlot(PLUS)}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 file:plus.qfs\nslot 2 0 basis:0\nslot 2 1 file:plus.qfs\n",
        SparseState.basis_state(2, (0, 1)),
        "slot 1 vectors not orthogonal",
        report(
            PRESENT + "slot_orthonormality: FAIL (slot 1 vectors not orthogonal)\n"
            "reconstruction: FAIL (amplitudes at (0, 0) do not sum into the exact ring)\n"
        ),
    ),
    "nearly_orthogonal_slots": (
        ZERO,
        ({0: Predecessor(), 1: BasisSlot((1,))}, {0: NamedSlot(NEAR_U), 1: NamedSlot(NEAR_V)}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 basis:1\nslot 2 0 file:near_u.qfs\nslot 2 1 file:near_v.qfs\n",
        SparseState(
            2, 2, R40, {(0, 0): QUARTER, (0, 1): QUARTER, (1, 0): QUARTER, (1, 1): QUARTER.shifted(R40 // 2 + 1, R40)}
        ),
        "slot 2 vectors not orthogonal",
        report(
            PRESENT + "slot_orthonormality: FAIL (slot 2 vectors not orthogonal)\n"
            "reconstruction: pass (rule output equals the target exactly)\n"
        ),
    ),
    "orthogonal_through_sqrt2": (
        SparseState.basis_state(4, (0,)),
        ({0: Predecessor(), 1: BasisSlot((1,))}, {0: NamedSlot(ROOT2_U), 1: NamedSlot(ROOT2_V)}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 basis:1\nslot 2 0 file:root2_u.qfs\nslot 2 1 file:root2_v.qfs\n",
        SparseState(
            4, 2, 8,
            {
                **{(0, j): EIGHTH for j in range(4)},
                (1, 0): EIGHTH.shifted(1, 8),
                (1, 1): EIGHTH.shifted(7, 8),
                (1, 2): Amplitude(4, ((2, 2),)),
            },
        ),
        None,
        (
            0,
            head(2) + PRESENT + ORTHONORMAL + "reconstruction: pass (rule output equals the target exactly)\n"
            "norm: pass (target norm squared 1)\nextracted_s: 2\nvalid: yes\n",
            "",
        ),
    ),
    "unnormalized_named_slot": (
        QUTRIT_ZERO,
        ({0: Predecessor(), 1: BasisSlot((1,))}, {0: BasisSlot((0,)), 1: NamedSlot(UNNORMALIZED)}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 basis:1\nslot 2 0 basis:0\nslot 2 1 file:unnormalized.qfs\n",
        SparseState.basis_state(3, (0, 0)),
        "slot 2 vector not normalized",
        report(
            PRESENT + "slot_orthonormality: FAIL (slot 2 vector not normalized)\n"
            "reconstruction: FAIL (scale rule output is not normalized; slot products must be orthonormal)\n"
        ),
    ),
    # Slot 1's second vector is not normalized; the slot 2 pair, scanned
    # after it, would need a field of root order 2**65.
    "defect_before_a_refused_field": (
        ZERO,
        ({0: Predecessor(), 1: NamedSlot(TRIPLE)}, {0: NamedSlot(FAR_U), 1: NamedSlot(FAR_V)}),
        ((0, 0), (1, 1)),
        "slot 1 0 predecessor\nslot 1 1 file:triple.qfs\nslot 2 0 file:far_u.qfs\nslot 2 1 file:far_v.qfs\n",
        SparseState.basis_state(2, (0, 0)),
        "slot 1 vector not normalized",
        report(
            PRESENT + "slot_orthonormality: FAIL (slot 1 vector not normalized)\n"
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
        "no slot matches the predecessor",
        report(
            "predecessor_present: FAIL (no slot matches the predecessor)\n" + ORTHONORMAL
            + "reconstruction: pass (rule output equals the target exactly)\n"
        ),
    ),
    # Records 0 and 1 (and 2 and 3) build prev (x) |0> (and prev (x) |1>): the
    # sum is prev (x) |0>, of norm 1, yet s = 4 counts two distinct branches.
    "same_product": (
        ZERO,
        ({i: Predecessor() for i in range(4)}, {0: BasisSlot((0,)), 1: BasisSlot((1,))}),
        ((0, 0), (1, 0), (2, 1), (3, 1, 4)),
        "".join(f"slot 1 {i} predecessor\n" for i in range(4)) + "slot 2 0 basis:0\nslot 2 1 basis:1\n",
        SparseState.basis_state(2, (0, 0)),
        "records 0 and 1 build the same product",
        report(
            PRESENT + "slot_orthonormality: FAIL (records 0 and 1 build the same product)\n"
            "reconstruction: pass (rule output equals the target exactly)\n",
            s=4,
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


def rule_of(tables, records):
    coefficients = tuple(Coefficient((a, b), *phase) for a, b, *phase in records)
    return ScaleRule(FractalParams(2, len(records)), tables, coefficients)


def verify_step(tmp_path, capsys, prev, records, slot_lines, target):
    """Exit code, stdout and stderr of `qfs verify-step` from ``prev`` to
    ``target`` by the rule file of ``slot_lines`` and ``records``."""
    save_state(prev, tmp_path / "prev.qfs")
    save_state(target, tmp_path / "next.qfs")
    for file_name, state in SLOT_FILES.items():
        save_state(state, tmp_path / file_name)
    coeff_lines = "".join(f"coeff {a},{b} {phase[0] if phase else 0}\n" for a, b, *phase in records)
    header = f"qfs-rule/1\nc 2\ns {len(records)}\nphase_order 8\n\n"
    (tmp_path / "step.rule").write_text(header + slot_lines + coeff_lines)
    argv = ["verify-step", "--rule", str(tmp_path / "step.rule")]
    argv += ["--prev", str(tmp_path / "prev.qfs"), "--next", str(tmp_path / "next.qfs")]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_rule_against_names_the_first_defect(name):
    prev, tables, records, _, _, message, _ = CASES[name]
    rule = rule_of(tables, records)
    if message is None:
        assert check_rule_against(prev, rule) == rule.cells(prev)
    else:
        with pytest.raises(ScaleRuleError) as info:
            check_rule_against(prev, rule)
        assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_step_stdout(name, tmp_path, capsys):
    prev, _, records, slot_lines, target, _, expected = CASES[name]
    assert verify_step(tmp_path, capsys, prev, records, slot_lines, target) == expected


def test_verify_step_names_the_defect_check_rule_against_raises():
    # The two tests above pin each case's raised text and stdout; for every
    # case whose rule file parses and whose rule is refused, the raised text
    # is the detail of the first failing line.
    details = {}
    for name, (*_, message, (code, out, _)) in CASES.items():
        if message is not None and code != 2:
            first_fail = next(line for line in out.splitlines() if ": FAIL (" in line)
            details[name] = (message, first_fail.partition(": FAIL (")[2].removesuffix(")"))
    assert len(details) == 8
    assert {name: raised for name, (raised, _) in details.items()} == {
        name: printed for name, (_, printed) in details.items()
    }


def test_a_refused_overlap_fails_only_slot_orthonormality(tmp_path, capsys):
    # The slot cells resolve and one of them is the predecessor; only the
    # F_p overlap of the slot-2 pair is refused.
    tables = ({0: Predecessor(), 1: BasisSlot((1,))}, {0: NamedSlot(FAR_U), 1: NamedSlot(FAR_V)})
    rule = rule_of(tables, ((0, 0), (1, 1)))
    refusal = "root order 36893488147419103232 exceeds 18446744073709551616"
    with pytest.raises(GuardExceededError, match=f"^{refusal}$"):
        check_rule_against(ZERO, rule)
    target = apply_scale_rule(ZERO, rule, validate=False)
    slot_lines = "slot 1 0 predecessor\nslot 1 1 basis:1\nslot 2 0 file:far_u.qfs\nslot 2 1 file:far_v.qfs\n"
    assert verify_step(tmp_path, capsys, ZERO, ((0, 0), (1, 1)), slot_lines, target) == report(
        PRESENT + f"slot_orthonormality: FAIL ({refusal})\n"
        "reconstruction: pass (rule output equals the target exactly)\n"
    )


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
