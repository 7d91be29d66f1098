"""Plain-text persistence for states and scale rules, plus support renders.

Both formats are line oriented and canonical: serializing a parsed file
reproduces it byte for byte.  State files open with the tag ``qfs/1``, rule
files with ``qfs-rule/1``; a header of ``key value`` lines is separated from
the body by one blank line.  State records are sorted ascending by basis
string, which doubles as the duplicate check.
"""

from __future__ import annotations

import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NoReturn, Sequence, Union

from .construct import (
    BasisSlot,
    Coefficient,
    FractalParams,
    NamedSlot,
    Predecessor,
    ScaleRule,
    SlotVector,
)
from .errors import FormatError, ScaleRuleError
from .states import Amplitude, Provenance, SparseState, check_shape

STATE_TAG = "qfs/1"
RULE_TAG = "qfs-rule/1"

ASCII_MAX_WIDTH = 72
SVG_WIDTH = 720
SVG_ROW_HEIGHT = 40
SVG_ROW_GAP = 8
SVG_PAD = 8

# Maps the ASCII digit characters onto the byte values 0..9.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
# Its inverse: the byte values 0..9 onto the ASCII digit characters.
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")
_INT_PATTERN = re.compile(r"-?[0-9]+")


def _fail(lineno: int, message: str) -> NoReturn:
    raise FormatError(f"line {lineno}: {message}")


def _int(text: str, lineno: int, what: str) -> int:
    """``text`` as an integer; only ASCII ``-?[0-9]+`` is accepted."""
    if _INT_PATTERN.fullmatch(text) is None:
        _fail(lineno, f"{what} is not an integer: {text!r}")
    return int(text)


def _digits_to_text(digits: tuple[int, ...], local_dim: int) -> str:
    if local_dim <= 10:
        return bytes(digits).translate(_DIGIT_TEXT).decode("ascii")
    return ",".join(map(str, digits))


def _digits_from_text(text: str, local_dim: int, lineno: int) -> tuple[int, ...]:
    if not text.isascii():
        _fail(lineno, f"malformed digit string {text!r}")
    if local_dim <= 10:
        if not text.isdigit():
            _fail(lineno, f"malformed digit string {text!r}")
        digits = tuple(text.encode().translate(_DIGIT_VALUES))
    else:
        digits = tuple(_int(part, lineno, "digit") for part in text.split(","))
    if min(digits) < 0 or max(digits) >= local_dim:
        bad = next(d for d in digits if d < 0 or d >= local_dim)
        _fail(lineno, f"digit {bad} outside [0, {local_dim})")
    return digits


def _amplitude_from_text(phase_text: str, magnitude_text: str, phase_order: int, lineno: int) -> Amplitude:
    phase = _int(phase_text, lineno, "phase index")
    if phase < 0 or phase >= phase_order:
        _fail(lineno, f"phase index {phase} outside [0, {phase_order})")
    return Amplitude(phase, _magnitude_from_text(magnitude_text, lineno))


def _magnitude_to_text(amp: Amplitude) -> str:
    if not amp.mag_exponents:
        return "1"
    return ",".join(f"{base}:{exponent}" for base, exponent in amp.mag_exponents)


def _magnitude_from_text(text: str, lineno: int) -> tuple[tuple[int, int], ...]:
    if text == "1":
        return ()
    pairs: list[tuple[int, int]] = []
    for part in text.split(","):
        base_text, sep, exp_text = part.partition(":")
        if not sep:
            _fail(lineno, f"malformed magnitude factor {part!r}")
        base = _int(base_text, lineno, "magnitude base")
        exponent = _int(exp_text, lineno, "magnitude exponent")
        if base < 2:
            _fail(lineno, f"magnitude base must be >= 2, got {base}")
        if exponent == 0:
            _fail(lineno, "magnitude exponent must be nonzero")
        pairs.append((base, exponent))
    return tuple(pairs)


def header_lines(state: SparseState) -> list[str]:
    """The shape and provenance lines shared by state files and ``qfs analyze``."""
    lines = [
        f"local_dim {state.local_dim}",
        f"num_qudits {state.num_qudits}",
        f"phase_order {state.phase_order}",
    ]
    if state.provenance is not None:
        lines.extend(f"{key} {value}" for key, value in vars(state.provenance).items() if value is not None)
    return lines


def serialize_state(state: SparseState) -> str:
    # One amplitude text per distinct amplitude; the records only look it up.
    amp_texts = {amp: f"{amp.phase_index} {_magnitude_to_text(amp)}" for amp in set(state.entries.values())}
    lines = [STATE_TAG, *header_lines(state), ""]
    lines.extend(
        f"{_digits_to_text(key, state.local_dim)} {amp_texts[state.entries[key]]}" for key in state.support()
    )
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> SparseState:
    """Parse a ``qfs/1`` document; any defect raises :class:`FormatError`
    naming the offending line."""
    lines = text.splitlines()
    if not lines or lines[0] != STATE_TAG:
        _fail(1, f"expected header tag {STATE_TAG!r}")
    header: dict[str, str] = {}
    known = ("local_dim", "num_qudits", "phase_order", "family", "c", "s", "n")
    i = 1
    while i < len(lines) and lines[i] != "":
        key, sep, value = lines[i].partition(" ")
        if not sep or key not in known:
            _fail(i + 1, f"unrecognized header line {lines[i]!r}")
        if key in header:
            _fail(i + 1, f"duplicate header key {key!r}")
        header[key] = value
        i += 1
    for required in ("local_dim", "num_qudits", "phase_order"):
        if required not in header:
            _fail(i + 1, f"missing header key {required!r}")
    local_dim = _int(header["local_dim"], 2, "local_dim")
    num_qudits = _int(header["num_qudits"], 3, "num_qudits")
    phase_order = _int(header["phase_order"], 4, "phase_order")
    try:
        check_shape(local_dim, num_qudits, phase_order)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    provenance = None
    if any(key in header for key in ("family", "c", "s", "n")):
        provenance = Provenance(
            header.get("family"),
            _int(header["c"], i, "c") if "c" in header else None,
            _int(header["s"], i, "s") if "s" in header else None,
            _int(header["n"], i, "n") if "n" in header else None,
        )
    i += 1
    entries: dict[tuple[int, ...], Amplitude] = {}
    amplitudes: dict[tuple[str, str], Amplitude] = {}  # parsed once per distinct text
    previous: tuple[int, ...] | None = None
    for lineno in range(i, len(lines)):
        line = lines[lineno]
        parts = line.split(" ")
        if len(parts) != 3:
            _fail(lineno + 1, f"malformed record line {line!r}")
        digits = _digits_from_text(parts[0], local_dim, lineno + 1)
        if len(digits) != num_qudits:
            _fail(lineno + 1, f"record has {len(digits)} digits, expected {num_qudits}")
        if previous is not None and digits <= previous:
            _fail(lineno + 1, "records must be in strictly ascending order")
        previous = digits
        amp = amplitudes.get((parts[1], parts[2]))
        if amp is None:
            amp = amplitudes[parts[1], parts[2]] = _amplitude_from_text(parts[1], parts[2], phase_order, lineno + 1)
        entries[digits] = amp
    # Every check the constructor makes has been made above, line by line.
    return SparseState._trusted(local_dim, num_qudits, phase_order, entries, provenance)


def _slot_to_text(entry: SlotVector) -> str:
    if isinstance(entry, Predecessor):
        return "predecessor"
    if isinstance(entry, BasisSlot):
        if any(d > 9 for d in entry.digits):
            return "basis:" + ",".join(str(d) for d in entry.digits)
        return "basis:" + "".join(str(d) for d in entry.digits)
    if entry.path is None:
        raise ValueError("named slot states need a file path to serialize")
    return f"file:{entry.path}"


def serialize_rule(rule: ScaleRule) -> str:
    lines = [
        RULE_TAG,
        f"c {rule.c}",
        f"s {rule.s}",
        f"phase_order {rule.phase_order}",
        "",
    ]
    for j, table in enumerate(rule.slot_tables, start=1):
        for index in sorted(table):
            lines.append(f"slot {j} {index} {_slot_to_text(table[index])}")
    for coeff in rule.coefficients:
        lines.append(f"coeff {','.join(str(i) for i in coeff.indices)} {coeff.phase_index}")
    return "\n".join(lines) + "\n"


def _slot_from_text(text: str, base_dir: Path, lineno: int) -> SlotVector:
    if text == "predecessor":
        return Predecessor()
    if text.startswith("basis:"):
        body = text[len("basis:") :]
        if not body.isascii():
            _fail(lineno, f"malformed basis string {body!r}")
        if "," in body:
            digits = tuple(_int(part, lineno, "basis digit") for part in body.split(","))
        elif body.isdigit():
            digits = tuple(int(ch) for ch in body)
        else:
            _fail(lineno, f"malformed basis string {body!r}")
        return BasisSlot(digits)
    if text.startswith("file:"):
        raw = text[len("file:") :]
        target = base_dir / raw
        try:
            content = target.read_text()
        except OSError as exc:
            raise FormatError(f"line {lineno}: cannot read slot state {raw!r}: {exc}") from exc
        return NamedSlot(parse_state(content), path=raw)
    _fail(lineno, f"unrecognized slot entry {text!r}")


def parse_rule(text: str, base_dir: str | Path = ".") -> ScaleRule:
    """Parse a ``qfs-rule/1`` document, loading ``file:`` slots relative to
    ``base_dir``."""
    base = Path(base_dir)
    lines = text.splitlines()
    if not lines or lines[0] != RULE_TAG:
        _fail(1, f"expected header tag {RULE_TAG!r}")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i] != "":
        key, sep, value = lines[i].partition(" ")
        if not sep or key not in ("c", "s", "phase_order"):
            _fail(i + 1, f"unrecognized header line {lines[i]!r}")
        if key in header:
            _fail(i + 1, f"duplicate header key {key!r}")
        header[key] = value
        i += 1
    for required in ("c", "s", "phase_order"):
        if required not in header:
            _fail(i + 1, f"missing header key {required!r}")
    c = _int(header["c"], 2, "c")
    s = _int(header["s"], 3, "s")
    phase_order = _int(header["phase_order"], 4, "phase_order")
    if c <= 1:
        _fail(2, f"c must exceed 1, got {c}")
    tables: list[dict[int, SlotVector]] = [{} for _ in range(c)]
    coefficients: list[Coefficient] = []
    for lineno in range(i + 1, len(lines)):
        line = lines[lineno]
        parts = line.split(" ")
        if parts[0] == "slot" and len(parts) == 4:
            j = _int(parts[1], lineno + 1, "slot number")
            if j < 1 or j > c:
                _fail(lineno + 1, f"slot number {j} outside [1, {c}]")
            index = _int(parts[2], lineno + 1, "slot index")
            if index in tables[j - 1]:
                _fail(lineno + 1, f"duplicate slot entry {j} {index}")
            tables[j - 1][index] = _slot_from_text(parts[3], base, lineno + 1)
        elif parts[0] == "coeff" and len(parts) == 3:
            indices = tuple(_int(part, lineno + 1, "coefficient index") for part in parts[1].split(","))
            phase = _int(parts[2], lineno + 1, "coefficient phase")
            if phase < 0 or phase >= phase_order:
                _fail(lineno + 1, f"coefficient phase {phase} outside [0, {phase_order})")
            coefficients.append(Coefficient(indices, phase))
        else:
            _fail(lineno + 1, f"malformed rule line {line!r}")
    try:
        return ScaleRule(FractalParams(c, s), tuple(tables), tuple(coefficients), phase_order)
    except (ScaleRuleError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial document."""
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_state(path: str | Path) -> SparseState:
    return parse_state(Path(path).read_text())


def save_state(state: SparseState, path: str | Path) -> None:
    write_text_atomic(path, serialize_state(state))


def load_rule(path: str | Path) -> ScaleRule:
    target = Path(path)
    return parse_rule(target.read_text(), target.parent)


def save_rule(rule: ScaleRule, path: str | Path) -> None:
    write_text_atomic(path, serialize_rule(rule))


def render_support(
    states: Union[SparseState, Sequence[SparseState]], mode: str = "ascii"
) -> str:
    """Render occupied basis intervals, one row per state.

    Each state's basis range [0, N**Q) maps onto a fixed-width strip; ascii
    mode marks occupied cells with '#', svg mode emits one 1.1 document with
    a rectangle per support value.
    """
    rows = [states] if isinstance(states, SparseState) else list(states)
    if not rows:
        raise ValueError("at least one state is required")
    if mode == "ascii":
        out = []
        for state in rows:
            dimension = state.local_dim**state.num_qudits
            width = dimension if dimension <= ASCII_MAX_WIDTH else ASCII_MAX_WIDTH
            cells = ["."] * width
            for key in state.support():
                value = state.basis_value(key)
                first = value * width // dimension
                last = ((value + 1) * width - 1) // dimension
                for cell in range(first, last + 1):
                    cells[cell] = "#"
            out.append("".join(cells))
        return "\n".join(out) + "\n"
    if mode == "svg":
        height = 2 * SVG_PAD + len(rows) * SVG_ROW_HEIGHT + (len(rows) - 1) * SVG_ROW_GAP
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{SVG_WIDTH}" height="{height}" viewBox="0 0 {SVG_WIDTH} {height}">'
        ]
        for row, state in enumerate(rows):
            y = SVG_PAD + row * (SVG_ROW_HEIGHT + SVG_ROW_GAP)
            parts.append(
                f'<rect x="0" y="{y}" width="{SVG_WIDTH}" height="{SVG_ROW_HEIGHT}" fill="#e8e8e8"/>'
            )
            dimension = state.local_dim**state.num_qudits
            cell_width = Fraction(SVG_WIDTH, dimension)
            for key in state.support():
                x = float(state.basis_value(key) * cell_width)
                parts.append(
                    f'<rect x="{x:.4f}" y="{y}" width="{float(cell_width):.4f}" '
                    f'height="{SVG_ROW_HEIGHT}" fill="#1a1a2e"/>'
                )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    raise ValueError(f"unknown render mode {mode!r}")
