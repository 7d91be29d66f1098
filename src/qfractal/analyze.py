"""Measurements on constructed states: self-similarity dimension, recursion
step verification, probability scaling, entanglement cuts, and a pruned
search for local-Clifford equivalence of small qubit registers."""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .construct import FractalParams, ScaleRule, apply_scale_rule
from .errors import AnalysisError, GuardExceededError, QfsError
from .states import SparseState

# A candidate local-Clifford transform counts as a match above this fidelity.
FIDELITY_TOL = 1e-9

# At worst the search visits all 24**Q gate assignments, which stays
# tractable only here.
LU_MAX_QUBITS = 5


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
    ``1/sqrt(s)``.  A failing orthonormality check names the last defect in
    scan order.  The scaling factor is extracted only when all pass.
    """
    s = rule.s
    checks = [
        CheckResult("coefficient_count", True, f"{s} records, s = {s}"),
        CheckResult("coefficient_magnitudes", True, f"each record carries squared magnitude 1/{s}, total {s}/{s}"),
    ]

    try:
        found, defects = rule.slot_defects(prev)
    except QfsError as exc:
        checks.append(CheckResult("predecessor_present", False, str(exc)))
        checks.append(CheckResult("slot_orthonormality", False, str(exc)))
    else:
        checks.append(
            CheckResult(
                "predecessor_present",
                found,
                "a referenced slot resolves to the predecessor" if found else "no slot matches the predecessor",
            )
        )
        ortho_detail = "pairwise within 1e-09"
        if defects:
            slot, i, j = defects[-1]
            ortho_detail = f"slot {slot + 1} " + ("vector not normalized" if i == j else "vectors not orthogonal")
        checks.append(CheckResult("slot_orthonormality", not defects, ortho_detail))

    try:
        rebuilt = apply_scale_rule(prev, rule, validate=False)
        match = rebuilt == next_state
        checks.append(
            CheckResult(
                "reconstruction",
                match,
                "rule output equals the target exactly" if match else "rule output differs from the target",
            )
        )
    except QfsError as exc:
        checks.append(CheckResult("reconstruction", False, str(exc)))

    norm = next_state.norm_squared()
    checks.append(CheckResult("norm", norm == 1, f"target norm squared {norm}"))

    valid = all(check.passed for check in checks)
    return StepReport(tuple(checks), valid, s if valid else None)


def rule_basis_probabilities(
    state: SparseState, rule: ScaleRule, prev: SparseState
) -> list[Fraction]:
    """Outcome probabilities of ``state`` against the rule's product basis.

    Each coefficient record defines one product vector; its squared overlap
    with ``state`` must be k/s for an integer 0 <= k <= s, which is decided in
    F_p (see :func:`~qfractal.ranks.squared_overlap`), and k/s is returned.
    """
    from .ranks import squared_overlap

    s = rule.s
    probabilities: list[Fraction] = []
    for product in rule.products(prev):
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


def product_cut_report(
    state: SparseState, cuts: list[int] | None = None
) -> tuple[tuple[int, int], ...]:
    """Schmidt rank across each requested prefix cut (default: every cut)."""
    if cuts is None:
        cuts = list(range(1, state.num_qudits))
    return state._cut_ranks(cuts)


# A single-qubit gate as rows of complex entries.
Gate = tuple[tuple[complex, complex], tuple[complex, complex]]


def _gate_product(x: Gate, y: Gate) -> Gate:
    return tuple(tuple(row[0] * y[0][j] + row[1] * y[1][j] for j in range(2)) for row in x)


def _canonical_gate_key(gate: Gate) -> tuple[complex, ...]:
    flat = [z for row in gate for z in row]
    pivot = next(z for z in flat if abs(z) > 0.4)
    unit = pivot / abs(pivot)
    return tuple(complex(round(w.real, 9), round(w.imag, 9)) for w in (z / unit for z in flat))


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> tuple[tuple[str, ...], tuple[Gate, ...]]:
    """The 24 single-qubit Clifford gates up to global phase, each a 2x2
    tuple of rows.

    Generated breadth-first from the identity over {H, S} products, so the
    listing is deterministic: identity first, then by word length.
    """
    r = 1 / math.sqrt(2)
    h = ((complex(r), complex(r)), (complex(r), complex(-r)))
    s = ((1 + 0j, 0j), (0j, 1j))
    eye = ((1 + 0j, 0j), (0j, 1 + 0j))
    words, gates = ["I"], [eye]
    seen = {_canonical_gate_key(eye)}
    queue = deque([("I", eye)])
    while queue:
        word, gate = queue.popleft()
        for letter, factor in (("H", h), ("S", s)):
            next_word = letter if word == "I" else word + letter
            next_gate = _gate_product(gate, factor)
            key = _canonical_gate_key(next_gate)
            if key not in seen:
                seen.add(key)
                words.append(next_word)
                gates.append(next_gate)
                queue.append((next_word, next_gate))
    return tuple(words), tuple(gates)


class LocalCliffordMatch(NamedTuple):
    """A per-qubit Clifford assignment mapping one state onto another."""

    indices: tuple[int, ...]
    words: tuple[str, ...]
    fidelity: float


def lu_equivalent_by_local_clifford(a: SparseState, b: SparseState) -> LocalCliffordMatch | None:
    """The lexicographically first per-qubit Clifford assignment U1 x ... x UQ
    over the fixed gate listing with |<b|U a>| above 1 - FIDELITY_TOL; None
    when no assignment matches.

    The search is depth first over qubits 0..Q-1 and drops a prefix of gates
    when no completion can reach the threshold; the bound it uses is set out
    in :mod:`qfractal.clifford_search`, which loads on the first call.
    """
    if a.local_dim != 2 or b.local_dim != 2:
        raise ValueError("local Clifford search is defined for qubit states")
    if a.num_qudits != b.num_qudits:
        raise ValueError("states must have equal qubit counts")
    q = a.num_qudits
    if q > LU_MAX_QUBITS:
        raise GuardExceededError(f"{q} qubits exceeds the search limit {LU_MAX_QUBITS}")
    for state in (a, b):
        if state.norm_squared() != 1:
            raise ValueError("states must be normalized")

    from .clifford_search import first_match

    words, gates = single_qubit_cliffords()
    found = first_match(a._dense(), b._dense(), q, gates, 1.0 - FIDELITY_TOL)
    if found is None:
        return None
    indices, fidelity = found
    return LocalCliffordMatch(indices, tuple(words[i] for i in indices), fidelity)
