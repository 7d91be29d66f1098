"""Measurements on constructed states: self-similarity dimension, recursion
step verification, probability scaling, entanglement cuts, and a pruned
search for local-Clifford equivalence of small qubit registers."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .construct import NO_PREDECESSOR, FractalParams, ScaleRule, _step_from_cells, check_rule_against
from .errors import AnalysisError, QfsError
from .states import SparseState

# The local-Clifford search takes a gate tuple as a candidate above this
# fidelity; an exact test in F_p then decides it.
FIDELITY_TOL = 1e-9


def fractal_dimension(c: int, s: int) -> float:
    """Self-similarity dimension ln(c)/ln(s); log2(c) in the flat s = 1 case."""
    return FractalParams(c, s).dimension


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class StepReport(NamedTuple):
    """Outcome of verifying one recursion step, check by check."""

    checks: tuple[CheckResult, ...]
    valid: bool
    extracted_s: int | None


def verify_scale_step(prev: SparseState, next_state: SparseState, rule: ScaleRule) -> StepReport:
    """Check that ``rule`` maps ``prev`` onto ``next_state``.

    Reports six checks: coefficient count, coefficient magnitudes,
    predecessor presence, slot orthonormality, exact reconstruction, and unit
    norm of the target.  The first two hold by construction, because a
    :class:`ScaleRule` has exactly ``s`` records and each weighs
    ``1/sqrt(s)``.  A failing orthonormality check names
    :meth:`ScaleRule.slot_defect`, the text :func:`check_rule_against`
    raises, or the refusal of a field that scan reaches.  The scaling
    factor is extracted only when all pass.
    """
    s = rule.s
    checks = [
        CheckResult("coefficient_count", True, f"{s} records, s = {s}"),
        CheckResult("coefficient_magnitudes", True, f"each record carries squared magnitude 1/{s}, total {s}/{s}"),
    ]

    try:
        cells = rule.cells(prev)
    except QfsError as exc:
        checks += [CheckResult(name, False, str(exc)) for name in ("predecessor_present", "slot_orthonormality")]
        reconstruction = CheckResult("reconstruction", False, str(exc))
    else:
        found = any(prev in table.values() for table in cells)
        present = "a referenced slot resolves to the predecessor" if found else NO_PREDECESSOR
        checks.append(CheckResult("predecessor_present", found, present))
        try:
            defect = rule.slot_defect(cells)
        except QfsError as exc:
            defect = str(exc)
        checks.append(CheckResult("slot_orthonormality", not defect, defect or "unit norms, zero overlaps in F_p"))
        try:
            match = _step_from_cells(prev, rule, cells) == next_state
        except QfsError as exc:
            reconstruction = CheckResult("reconstruction", False, str(exc))
        else:
            detail = "rule output equals the target exactly" if match else "rule output differs from the target"
            reconstruction = CheckResult("reconstruction", match, detail)
    checks.append(reconstruction)

    norm = next_state.norm_squared()
    checks.append(CheckResult("norm", norm == 1, f"target norm squared {norm}"))

    valid = all(check.passed for check in checks)
    return StepReport(tuple(checks), valid, s if valid else None)


def rule_basis_probabilities(
    state: SparseState, rule: ScaleRule, prev: SparseState
) -> list[Fraction]:
    """Outcome probabilities of ``state`` against the rule's product basis.

    The rule is checked against ``prev`` first, and its cells are resolved
    once.  Each record's unweighted tensor product (:meth:`ScaleRule.terms`)
    must have squared overlap k/s with ``state`` for an integer 0 <= k <= s,
    which is decided in F_p (see :func:`~qfractal.ranks.squared_overlap`),
    and k/s is returned.  Leaving the 1/sqrt(s) and the phase out keeps
    sqrt(s) and the rule's roots out of that field.
    """
    from .ranks import squared_overlap

    s = rule.s
    probabilities: list[Fraction] = []
    for product in rule.terms(check_rule_against(prev, rule), weighted=False):
        value, p = squared_overlap(product, state)
        k = value * s % p
        if k > s:
            raise AnalysisError(f"probability {abs(product.inner_product(state)) ** 2} is not a multiple of 1/{s}")
        probabilities.append(Fraction(k, s))
    return probabilities


class ScalingReport(NamedTuple):
    """Uniform outcome probability per scale and the stepwise decay ratios."""

    probabilities: tuple[Fraction, ...]
    ratios: tuple[Fraction, ...]


def probability_scaling_ratio(states: list[SparseState]) -> ScalingReport:
    """Exact per-scale outcome probabilities of a uniform family and their
    successive ratios p(n)/p(n+1)."""
    if not states:
        raise AnalysisError("at least one state is required")
    probabilities: list[Fraction] = []
    for k, state in enumerate(states):
        values = {amp.squared_magnitude() for amp in set(state.entries.values())}
        if not values:
            raise AnalysisError(f"state {k} has empty support")
        if len(values) > 1:
            raise AnalysisError(f"state {k} has non-uniform outcome probabilities")
        probabilities.append(values.pop())
    ratios = tuple(probabilities[k] / probabilities[k + 1] for k in range(len(probabilities) - 1))
    return ScalingReport(tuple(probabilities), ratios)


def product_cut_report(state: SparseState, cuts: list[int] | None = None) -> tuple[tuple[int, int], ...]:
    """(cut, Schmidt rank) across each requested prefix cut, in order (default: every cut)."""
    from .ranks import sweep_ranks

    return sweep_ranks(state, range(1, state.num_qudits) if cuts is None else cuts)


# A single-qubit gate as rows of complex entries.
Gate = tuple[tuple[complex, complex], tuple[complex, complex]]


def word_gate(word: str, letters: dict[str, Gate]) -> Gate:
    """The gate of a word over {H, S}, or of "I": the identity ``letters["I"]``
    times each letter's 2x2 matrix in turn, from the left, over any ring
    whose entries have * and +."""
    gate = letters["I"]
    for letter in word.lstrip("I"):
        x = letters[letter]
        gate = tuple(tuple(row[0] * x[0][j] + row[1] * x[1][j] for j in range(2)) for row in gate)
    return gate


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> tuple[tuple[str, ...], tuple[Gate, ...]]:
    """The 24 single-qubit Clifford gates up to global phase, each a 2x2
    tuple of rows, with their words over {H, S}.

    The listing is what a breadth-first search from the identity over {H, S}
    products finds, keeping each gate's first word: identity first, then by
    word length.
    """
    r = 1 / math.sqrt(2)
    letters = {
        "I": ((1 + 0j, 0j), (0j, 1 + 0j)),
        "H": ((complex(r), complex(r)), (complex(r), complex(-r))),
        "S": ((1 + 0j, 0j), (0j, 1j)),
    }
    words = (
        "I", "H", "S", "HS", "SH", "SS", "HSH", "HSS", "SHS", "SSH", "SSS", "HSHS",
        "HSSH", "HSSS", "SHSS", "SSHS", "HSHSS", "HSSHS", "SHSSH", "SHSSS", "SSHSS", "HSHSSH", "HSHSSS", "HSSHSS",
    )
    return words, tuple(word_gate(word, letters) for word in words)


class LocalCliffordMatch(NamedTuple):
    """A per-qubit Clifford assignment mapping one state onto another."""

    indices: tuple[int, ...]
    words: tuple[str, ...]
    fidelity: float


def lu_equivalent_by_local_clifford(a: SparseState, b: SparseState) -> LocalCliffordMatch | None:
    """The lexicographically first per-qubit Clifford assignment U1 x ... x UQ
    over the fixed gate listing with U a exactly a multiple of b, with its
    float fidelity; None when no assignment matches.

    The float search is depth first over qubits 0..Q-1 and drops a prefix of
    gates when no completion can reach |<b|U a>| > 1 - FIDELITY_TOL.  Each
    tuple above that is a candidate, and the 2x2 minors of (U a, b) read in
    F_p decide it.  Both are set out in :mod:`qfractal.clifford_search`, which
    loads on the first call.
    """
    if a.local_dim != 2 or b.local_dim != 2:
        raise ValueError("local Clifford search is defined for qubit states")
    if a.num_qudits != b.num_qudits:
        raise ValueError("states must have equal qubit counts")
    for state in (a, b):
        if state.norm_squared() != 1:
            raise ValueError("states must be normalized")

    from .clifford_search import exact_test, matches

    words, gates = single_qubit_cliffords()
    exact = None
    for indices, fidelity in matches(a, b, gates, 1.0 - FIDELITY_TOL):
        exact = exact or exact_test(a, b, words)
        if exact(indices):
            return LocalCliffordMatch(indices, tuple(words[i] for i in indices), fidelity)
    return None
