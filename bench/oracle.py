"""Reference states and checks the benchmark holds qfractal's outputs against.

Nothing here imports qfractal.  A state is a plain dict
``{"header": {key: text}, "records": {digits: (phase_index, magnitude_text)}}``
in the terms of the ``qfs/1`` file format: families are built from their
closed forms, and dense checks use numpy directly.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

PHASE_ORDER = 8
HALF_TURN = PHASE_ORDER // 2
RANK_CUTOFF = 1e-9
FIDELITY_TOL = 1e-9
DENSE_TOL = 1e-12

Check = Callable[[dict], "str | None"]


def header(local_dim: int, num_qudits: int, **provenance: int | str) -> dict[str, str]:
    """Header lines of a state file; provenance keys in file order."""
    lines = {"local_dim": str(local_dim), "num_qudits": str(num_qudits), "phase_order": str(PHASE_ORDER)}
    for key in ("family", "c", "s", "n"):
        if key in provenance:
            lines[key] = str(provenance[key])
    return lines


def magnitude(base: int, exponent: int) -> str:
    """Magnitude text of ``base ** (-exponent / 2)``."""
    return "1" if exponent == 0 else f"{base}:{exponent}"


def to_text(state: dict) -> str:
    lines = ["qfs/1"] + [f"{key} {value}" for key, value in state["header"].items()] + [""]
    lines += [f"{digits} {phase} {mag}" for digits, (phase, mag) in sorted(state["records"].items())]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> dict:
    """Strict reader for ``qfs/1`` text with single-character digits."""
    lines = text.splitlines()
    if not lines or lines[0] != "qfs/1":
        raise ValueError("missing qfs/1 tag")
    blank = lines.index("")
    head = dict(line.split(" ", 1) for line in lines[1:blank])
    records: dict[str, tuple[int, str]] = {}
    previous = ""
    for line in lines[blank + 1 :]:
        digits, phase, mag = line.split(" ")
        if digits <= previous:
            raise ValueError(f"record {digits} out of order")
        previous = digits
        records[digits] = (int(phase), mag)
    return {"header": head, "records": records}


def cantor(n: int, phases: tuple[int, ...] = (0, 0, 0)) -> dict:
    """Cantor state at scale ``n``: each step keeps the predecessor and
    appends ``|j...j>`` of the predecessor's width with phase ``phases[j]``."""
    records = {"0": 0}
    for m in range(n):
        width = 2**m
        records = {
            key + str(j) * width: (phase + phases[j]) % PHASE_ORDER
            for key, phase in records.items()
            for j in range(3)
        }
    mag = magnitude(3, n)
    return {
        "header": header(3, 2**n, family="cantor", c=2, s=3, n=n),
        "records": {key: (phase, mag) for key, phase in records.items()},
    }


def gem(levels: int, sign: int) -> dict:
    """Level ``levels`` of the Bell-gem tower, from the pair definitions
    ``(i x j +- j x i) / sqrt(2)`` in integer coefficients."""
    plus, minus = {"01": 1, "10": 1}, {"01": 1, "10": -1}
    exponent = 1  # every coefficient carries 2 ** (-exponent / 2)
    for _ in range(levels - 1):
        plus, minus = _gem_pair(plus, minus, 1), _gem_pair(plus, minus, -1)
        exponent = 2 * exponent + 1
    coefficients = plus if sign == 1 else minus
    records = {}
    for key, coeff in coefficients.items():
        doublings = int(math.log2(abs(coeff)))
        records[key] = (0 if coeff > 0 else HALF_TURN, magnitude(2, exponent - 2 * doublings))
    return {"header": header(2, 2**levels, family="bellgem", c=2, s=2, n=levels - 1), "records": records}


def _gem_pair(i: dict, j: dict, sign: int) -> dict:
    total: dict[str, int] = {}
    for x, a in i.items():
        for y, b in j.items():
            total[x + y] = total.get(x + y, 0) + a * b
            total[y + x] = total.get(y + x, 0) + sign * a * b
    return {key: value for key, value in total.items() if value}


def cluster(n: int, x_mask: int = 0, z_mask: int = 0, provenance: bool = True) -> dict:
    """``X^x_mask Z^z_mask`` applied to the linear cluster state on ``n`` qubits.

    The cluster component x carries sign ``(-1)**#{a : x_a = 0, x_(a+1) = 1}``;
    mask bit ``n - 1 - a`` addresses qubit ``a`` (leftmost ket symbol first).
    """
    records = {}
    for value in range(2**n):
        bits = format(value, f"0{n}b")
        flips = sum(1 for a in range(n - 1) if bits[a] == "0" and bits[a + 1] == "1")
        flips += bin(value & z_mask).count("1")
        records[format(value ^ x_mask, f"0{n}b")] = (HALF_TURN * (flips % 2), magnitude(2, n))
    head = header(2, n, family="cluster", c=2, s=2) if provenance else header(2, n)
    return {"header": head, "records": records}


def basis(digits: str) -> dict:
    return {"header": header(2, len(digits)), "records": {digits: (0, "1")}}


def repeat_digits(state: dict, copies: int) -> dict:
    """Repetition-code image: every qubit written ``copies`` times."""
    records = {"".join(d * copies for d in key): amp for key, amp in state["records"].items()}
    return {"header": header(2, int(state["header"]["num_qudits"]) * copies), "records": records}


def flip_bits(state: dict, positions: list[int]) -> dict:
    records = {}
    for key, amp in state["records"].items():
        digits = list(key)
        for p in positions:
            digits[p] = "1" if digits[p] == "0" else "0"
        records["".join(digits)] = amp
    return {"header": dict(state["header"]), "records": records}


def _magnitude_value(text: str) -> float:
    if text == "1":
        return 1.0
    value = 1.0
    for part in text.split(","):
        base, exponent = part.split(":")
        value *= int(base) ** (-int(exponent) / 2)
    return value


def dense(state: dict) -> np.ndarray:
    local_dim = int(state["header"]["local_dim"])
    vec = np.zeros(local_dim ** int(state["header"]["num_qudits"]), dtype=complex)
    order = int(state["header"]["phase_order"])
    for digits, (phase, mag) in state["records"].items():
        vec[int(digits, local_dim)] = _magnitude_value(mag) * np.exp(2j * np.pi * phase / order)
    return vec


def from_dense(vec: np.ndarray, num_qubits: int) -> dict:
    """Records of a qubit vector whose entries are ``+-2**(-k/2)``."""
    records = {}
    for index in np.nonzero(np.abs(vec) > DENSE_TOL)[0]:
        z = vec[index]
        exponent = round(-2 * math.log2(abs(z)))
        records[format(int(index), f"0{num_qubits}b")] = (0 if z.real > 0 else HALF_TURN, magnitude(2, exponent))
    return {"header": header(2, num_qubits), "records": records}


def schmidt_ranks(state: dict, cuts: list[int]) -> dict[int, int]:
    local_dim = int(state["header"]["local_dim"])
    num_qudits = int(state["header"]["num_qudits"])
    vec = dense(state)
    ranks = {}
    for cut in cuts:
        singular = np.linalg.svd(vec.reshape(local_dim**cut, local_dim ** (num_qudits - cut)), compute_uv=False)
        ranks[cut] = int(np.sum(singular > RANK_CUTOFF * singular[0]))
    return ranks


def bell_encode(vec: np.ndarray, num_qubits: int, levels: int) -> np.ndarray:
    """Dense Bell-pair code: |0> -> (|01> + |10>)/sqrt(2), |1> -> (|01> - |10>)/sqrt(2)
    on every qubit, ``levels`` times over."""
    one_qubit = np.array([[0, 0], [1, 1], [1, -1], [0, 0]], dtype=complex) / math.sqrt(2)
    for _ in range(levels):
        code = np.ones((1, 1), dtype=complex)
        for _ in range(num_qubits):
            code = np.kron(code, one_qubit)
        vec = code @ vec
        num_qubits *= 2
    return vec


_GATES = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}
# X and Z as words over {H, S}; the harness's own answer for a flipped copy.
PAULI_X, PAULI_Z = "HSSH", "SS"


def gate(word: str) -> np.ndarray:
    """The single-qubit gate a word names, letters multiplied left to right."""
    matrix = np.eye(2, dtype=complex)
    for letter in word:
        matrix = matrix @ _GATES[letter]
    return matrix


def local_fidelity(a: np.ndarray, b: np.ndarray, words: tuple[str, ...]) -> float:
    """``|<b| U_1 x ... x U_Q |a>|`` with gate ``words[k]`` on qubit ``k``."""
    tensor = a.reshape((2,) * len(words))
    for axis, word in enumerate(words):
        tensor = np.moveaxis(np.tensordot(gate(word), tensor, axes=([1], [axis])), 0, axis)
    return float(abs(np.vdot(b, tensor.reshape(-1))))


# -- checks: each returns None when the observation is right, else the problem


def equal_to(expected: dict) -> Check:
    def check(observed: dict) -> str | None:
        for key in expected.keys() | observed.keys():
            if observed.get(key) != expected.get(key):
                return f"{key} differs from the reference"
        return None

    return check


def dense_state(expected: dict) -> Check:
    """Same header, and the same vector within ``DENSE_TOL``."""
    target = dense(expected)

    def check(observed: dict) -> str | None:
        if observed.keys() != expected.keys() or observed["header"] != expected["header"]:
            return "header differs from the reference"
        if not np.allclose(dense(observed), target, rtol=0, atol=DENSE_TOL):
            return "vector differs from the dense reference"
        return None

    return check


def local_clifford_hit(a: dict, b: dict) -> Check:
    """Gates that map ``a`` onto ``b`` at fidelity >= 1 - FIDELITY_TOL."""
    a_vec, b_vec = dense(a), dense(b)
    num_qubits = int(a["header"]["num_qudits"])

    def check(observed: dict) -> str | None:
        words = observed.get("gates")
        if not isinstance(words, tuple) or len(words) != num_qubits or not all(set(w) <= set(_GATES) for w in words):
            return f"gates {words!r} are not {num_qubits} Clifford words"
        if local_fidelity(a_vec, b_vec, words) < 1 - FIDELITY_TOL:
            return f"gates {' '.join(words)} do not map a onto b"
        if not isinstance(observed.get("fidelity"), float) or abs(observed["fidelity"] - 1) > FIDELITY_TOL:
            return f"reported fidelity {observed.get('fidelity')!r} is not 1"
        return None

    return check


def corrupt(value: object) -> object:
    """A value that differs from ``value``, changed as little as possible."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, tuple) and value:
        return (corrupt(value[0]),) + value[1:]
    if isinstance(value, dict) and value:
        first = min(value)
        return {**value, first: corrupt(value[first])}
    return ("corrupt",)


def vacuous_fields(check: Check, reference: dict) -> list[str]:
    """Fields of a correct observation whose corruption ``check`` accepts;
    ``["<reference>"]`` if it rejects the correct observation itself."""
    if check(reference) is not None:
        return ["<reference>"]
    return [key for key in reference if check({**reference, key: corrupt(reference[key])}) is None]
