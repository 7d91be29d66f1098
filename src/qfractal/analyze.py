"""Measurements on constructed states: self-similarity dimension, recursion
step verification, probability scaling, entanglement cuts, and brute-force
local-Clifford equivalence for small qubit registers."""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .construct import ORTHO_TOL, FractalParams, ScaleRule, apply_scale_rule
from .errors import AnalysisError, GuardExceededError, QfsError
from .states import SparseState

# Probabilities measured against rule-basis products snap to multiples of 1/s
# within this tolerance; anything farther is reported as an error.
SNAP_TOL = 1e-9

# A candidate local-Clifford transform counts as a match above this fidelity.
FIDELITY_TOL = 1e-9

# Exhaustive search over 24**Q gate assignments stays tractable only here.
LU_MAX_QUBITS = 5


def fractal_dimension(c: int, s: int) -> float:
    """Self-similarity dimension ln(c)/ln(s); log2(c) in the flat s = 1 case."""
    return FractalParams(c, s).dimension


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class StepReport:
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
        ortho_detail = f"pairwise within {ORTHO_TOL:g}"
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

    Each coefficient record defines one product vector; its probability must
    land on a multiple of 1/s within ``SNAP_TOL`` and is returned exactly.
    """
    s = rule.s
    probabilities: list[Fraction] = []
    for product in rule.products(prev):
        p = abs(product.inner_product(state)) ** 2
        k = round(p * s)
        if k < 0 or k > s or abs(p - k / s) > SNAP_TOL:
            raise AnalysisError(f"probability {p} is not a multiple of 1/{s}")
        probabilities.append(Fraction(k, s))
    return probabilities


@dataclass(frozen=True)
class ScalingReport:
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


def _canonical_gate_key(matrix: np.ndarray) -> bytes:
    flat = matrix.ravel()
    pivot = next(z for z in flat if abs(z) > 0.4)
    normalized = matrix / (pivot / abs(pivot))
    return (np.round(normalized, 9) + 0.0).tobytes()


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> tuple[tuple[str, ...], np.ndarray]:
    """The 24 single-qubit Clifford gates up to global phase.

    Generated breadth-first from the identity over {H, S} products, so the
    listing is deterministic: identity first, then by word length.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    words, mats = ["I"], [eye]
    seen = {_canonical_gate_key(eye)}
    queue = deque([("I", eye)])
    while queue:
        word, mat = queue.popleft()
        for gate_name, gate in (("H", h), ("S", s)):
            next_word = gate_name if word == "I" else word + gate_name
            next_mat = mat @ gate
            key = _canonical_gate_key(next_mat)
            if key not in seen:
                seen.add(key)
                words.append(next_word)
                mats.append(next_mat)
                queue.append((next_word, next_mat))
    return tuple(words), np.array(mats)


@dataclass(frozen=True)
class LocalCliffordMatch:
    """A per-qubit Clifford assignment mapping one state onto another."""

    indices: tuple[int, ...]
    words: tuple[str, ...]
    fidelity: float


def lu_equivalent_by_local_clifford(a: SparseState, b: SparseState) -> LocalCliffordMatch | None:
    """Search all per-qubit single-Clifford assignments U1 x ... x UQ for one
    with |<b|U a>| above 1 - FIDELITY_TOL; None when no assignment matches,
    after all 24**Q assignments have been scanned.

    The overlap is a mode product: in the outer product of conj(b) and a,
    merge each qubit's (out, in) index pair into one mode of size 4; then
    <b|U a> is that tensor with the flattened 24 x 4 gate table contracted on
    every mode.  All but the last three modes are contracted once up front;
    the scan walks their gate indices in lexicographic order and contracts
    the remaining modes per step, so each step holds at most 24**3 overlaps.

    The result is deterministic: the lexicographically first matching index
    tuple over the fixed gate listing.
    """
    if a.local_dim != 2 or b.local_dim != 2:
        raise ValueError("local Clifford search is defined for qubit states")
    if a.num_qudits != b.num_qudits:
        raise ValueError("states must have equal qubit counts")
    q = a.num_qudits
    if q > LU_MAX_QUBITS:
        raise GuardExceededError(f"{q} qubits exceeds the search limit {LU_MAX_QUBITS}")
    for state in (a, b):
        if abs(float(state.norm_squared()) - 1.0) > FIDELITY_TOL:
            raise ValueError("states must be normalized")

    words, gates = single_qubit_cliffords()
    flat = gates.reshape(24, 4)  # column 2*out + in
    threshold = 1.0 - FIDELITY_TOL
    modes = np.multiply.outer(b.to_dense().conj(), a.to_dense()).reshape((2,) * (2 * q))
    modes = modes.transpose([axis for k in range(q) for axis in (k, q + k)]).reshape((4,) * q)
    head = max(q - 3, 0)
    # Each contraction eats the leading mode and appends its gate axis, so
    # gate axes stay in qubit order.
    for _ in range(head):
        modes = np.tensordot(modes, flat, ([0], [1]))
    rows = modes.reshape(4 ** (q - head), 24**head).T
    for prefix, row in zip(itertools.product(range(24), repeat=head), rows):
        overlaps = row.reshape((4,) * (q - head))
        for _ in range(q - head):
            overlaps = np.tensordot(overlaps, flat, ([0], [1]))
        magnitudes = np.abs(overlaps).ravel()
        hits = np.flatnonzero(magnitudes > threshold)
        if hits.size:
            full = prefix + tuple(int(v) for v in np.unravel_index(hits[0], overlaps.shape))
            return LocalCliffordMatch(full, tuple(words[i] for i in full), float(magnitudes[hits[0]]))
    return None
