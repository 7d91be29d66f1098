"""Plain-text persistence for states and scale rules, plus support renders.

Both formats are line oriented and canonical: serializing a parsed file that
the library wrote reproduces it byte for byte.  State files open with the tag
``qfs/1``, rule files with ``qfs-rule/1``; a header of ``key value`` lines is
separated from the body by one blank line.  State records are sorted
ascending by basis string, which doubles as the duplicate check.

Files are streamed through Python's text layer.  A file and a whole ``str``
are read by one line loop over a text stream with universal newlines, so a
line ends at LF, CR LF or CR and at no other character.  A file is decoded
8 KiB at a time, and the byte position that an undecodable byte's error
names counts from the start of that block, not of the file.  A state is
written one record at a time into the file object's buffer.  So a command
holds the state and a buffer of text, never the whole text.
"""

from __future__ import annotations

import io
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn, Sequence, Union

from .construct import (
    BasisSlot,
    Coefficient,
    FractalParams,
    NamedSlot,
    Predecessor,
    ScaleRule,
    SlotVector,
    params_defect,
)
from .errors import FormatError, GuardExceededError, ScaleRuleError
from .states import (
    MAX_ENTRIES,
    MAX_KEY_BITS,
    Amplitude,
    Provenance,
    SparseState,
    check_size,
    digit_bits,
    digit_text,
    pack_digits,
    shape_defect,
    unpack_digits,
)

STATE_TAG = "qfs/1"
RULE_TAG = "qfs-rule/1"

ASCII_MAX_WIDTH = 72
SVG_WIDTH = 720
SVG_ROW_HEIGHT = 40
SVG_ROW_GAP = 8
SVG_PAD = 8

# A base up to 2**20 is fully factored by trial division below 2**10, so
# reading a file never reaches Pollard's rho.
MAX_MAGNITUDE_BASE = 2**20

# A record writes each digit as one of these characters up to N = 10, and
# above as decimal integers joined by commas.
_DIGITS = b"0123456789"
_DECIMAL_VALUES = {str(value): value for value in range(256)}
_INT_PATTERN = re.compile(r"-?[0-9]+")
_INTS_PATTERN = re.compile(r"-?[0-9]+(,-?[0-9]+)*")


def _fail(lineno: int, message: str) -> NoReturn:
    raise FormatError(f"line {lineno}: {message}")


def _check_size_at(lineno: int, entries: int, qudits: int, local_dim: int) -> None:
    """:func:`check_size` of a state being read, its refusal naming ``lineno``."""
    try:
        check_size("state", entries, qudits, local_dim)
    except GuardExceededError as exc:
        raise GuardExceededError(f"line {lineno}: {exc}") from None


def _int(text: str, lineno: int, what: str) -> int:
    """``text`` as an integer; only ASCII ``-?[0-9]+`` is accepted, and no
    longer than ``int()`` converts (``sys.get_int_max_str_digits()``)."""
    if _INT_PATTERN.fullmatch(text) is None:
        _fail(lineno, f"{what} is not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:
        _fail(lineno, f"{what} has {len(text.lstrip('-'))} digits, over the limit of {sys.get_int_max_str_digits()}")


def _key_to_text(key: int, local_dim: int, num_qudits: int) -> str:
    if local_dim > len(_DIGITS):
        return ",".join(map(str, unpack_digits(key, local_dim, num_qudits)))
    return digit_text(key, local_dim, num_qudits)


def _key_from_text(text: str, local_dim: int, num_qudits: int, lineno: int) -> int:
    """The packed key of a record's digit string, checked in this order: its
    characters, its digits' range, its length."""
    if not text.isascii():
        _fail(lineno, f"malformed digit string {text!r}")
    if local_dim > len(_DIGITS):
        parts = text.split(",")
        # Digits below 256 as the writer writes them are looked up; else the
        # whole string is checked once, and only a defect walks its parts.
        digits = list(map(_DECIMAL_VALUES.get, parts))
        if None in digits:
            # A malformed part, or one too long for int(), is named by _int.
            try:
                if _INTS_PATTERN.fullmatch(text) is None:
                    raise ValueError
                digits = list(map(int, parts))
            except ValueError:
                digits = [_int(part, lineno, "digit") for part in parts]
        if min(digits) < 0 or max(digits) >= local_dim:
            bad = next(d for d in digits if d < 0 or d >= local_dim)
            _fail(lineno, f"digit {bad} outside [0, {local_dim})")
        if len(digits) != num_qudits:
            _fail(lineno, f"record has {len(digits)} digits, expected {num_qudits}")
        return pack_digits(digits, local_dim)
    # Deleting the digits below N leaves nothing of a valid string.  Else an
    # ASCII isdigit() tells a bad digit from a sign, space or underscore, so
    # none of those, which int() would take, reaches the conversion.
    if not text or text.encode().translate(None, _DIGITS[:local_dim]):
        if not text.isdigit():
            _fail(lineno, f"malformed digit string {text!r}")
        bad = next(d for d in map(int, text) if d >= local_dim)
        _fail(lineno, f"digit {bad} outside [0, {local_dim})")
    if len(text) != num_qudits:
        _fail(lineno, f"record has {len(text)} digits, expected {num_qudits}")
    return int(text, 1 << digit_bits(local_dim))


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
        if base > MAX_MAGNITUDE_BASE:
            _fail(lineno, f"magnitude base must be <= {MAX_MAGNITUDE_BASE}, got {base}")
        if exponent == 0:
            _fail(lineno, "magnitude exponent must be nonzero")
        pairs.append((base, exponent))
    return tuple(pairs)


def _read_lines(handle: IO[str]) -> Iterator[str]:
    """The lines of a text stream opened with universal newlines, each
    without the newline that ends it."""
    return (line.rstrip("\n") for line in handle)


def _text_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` read as a file's are, from UTF-8 bytes: not StringIO's 4-byte characters."""
    data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    return _read_lines(io.TextIOWrapper(data, encoding="utf-8", errors="surrogatepass", newline=None))


def _read_header(
    lines: Iterator[str], tag: str, required: tuple[str, ...], optional: tuple[str, ...]
) -> tuple[dict[str, tuple[str, int]], int]:
    """The ``key value`` lines between ``tag`` and the first blank line, each
    key mapped to its value and line number; also the blank line's number,
    or one past the last line when there is none."""
    if next(lines, None) != tag:
        _fail(1, f"expected header tag {tag!r}")
    header: dict[str, tuple[str, int]] = {}
    lineno = 1
    for line in lines:
        lineno += 1
        if line == "":
            break
        key, sep, value = line.partition(" ")
        if not sep or (key not in required and key not in optional):
            _fail(lineno, f"unrecognized header line {line!r}")
        if key in header:
            _fail(lineno, f"duplicate header key {key!r}")
        header[key] = (value, lineno)
    else:
        lineno += 1
    for key in required:
        if key not in header:
            _fail(lineno, f"missing header key {key!r}")
    return header, lineno


def _header_int(header: dict[str, tuple[str, int]], key: str) -> int:
    value, lineno = header[key]
    return _int(value, lineno, key)


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


def _state_chunks(state: SparseState) -> Iterator[str]:
    """The ``qfs/1`` text of ``state``: the header, then one record a piece."""
    yield "\n".join([STATE_TAG, *header_lines(state), "", ""])
    local_dim, num_qudits, packed = state.local_dim, state.num_qudits, state._packed
    # One amplitude text per distinct amplitude; the records only look it up.
    amp_texts = {amp: f" {amp.phase_index} {_magnitude_to_text(amp)}\n" for amp in set(packed.values())}
    for key in sorted(packed):
        yield _key_to_text(key, local_dim, num_qudits) + amp_texts[packed[key]]


def serialize_state(state: SparseState) -> str:
    return "".join(_state_chunks(state))


def parse_state(text: str) -> SparseState:
    """Parse a ``qfs/1`` document; any defect raises :class:`FormatError`
    naming the offending line."""
    return _state_from_lines(_text_lines(text))


def _state_from_lines(lines: Iterator[str]) -> SparseState:
    shape, tags = ("local_dim", "num_qudits", "phase_order"), ("family", "c", "s", "n")
    header, blank = _read_header(lines, STATE_TAG, shape, tags)
    local_dim, num_qudits, phase_order = (_header_int(header, key) for key in shape)
    defect = shape_defect(local_dim, num_qudits, phase_order)
    if defect is not None:
        _fail(header[defect[0]][1], defect[1])
    _check_size_at(header["num_qudits"][1], 0, num_qudits, local_dim)
    # The ceilings admit this many records; the next one passes one of them.
    last = blank + min(MAX_ENTRIES, MAX_KEY_BITS // (num_qudits * digit_bits(local_dim)))
    provenance = None
    if any(key in header for key in tags):
        provenance = Provenance(
            header["family"][0] if "family" in header else None,
            *(_header_int(header, key) if key in header else None for key in ("c", "s", "n")),
        )
    entries: dict[int, Amplitude] = {}
    amplitudes: dict[tuple[str, str], Amplitude] = {}  # parsed once per distinct text
    previous = -1  # packed keys of equal length sort as their digit strings
    for lineno, line in enumerate(lines, blank + 1):
        if lineno > last:
            _check_size_at(lineno, lineno - blank, num_qudits, local_dim)
        parts = line.split(" ")
        if len(parts) != 3:
            _fail(lineno, f"malformed record line {line!r}")
        key = _key_from_text(parts[0], local_dim, num_qudits, lineno)
        if key <= previous:
            _fail(lineno, "records must be in strictly ascending order")
        previous = key
        amp = amplitudes.get((parts[1], parts[2]))
        if amp is None:
            amp = amplitudes[parts[1], parts[2]] = _amplitude_from_text(parts[1], parts[2], phase_order, lineno)
        entries[key] = amp
    # Every check the constructor makes has been made above, line by line.
    return SparseState._trusted(local_dim, num_qudits, phase_order, entries, provenance)


def _slot_to_text(entry: SlotVector) -> str:
    if isinstance(entry, Predecessor):
        return "predecessor"
    if isinstance(entry, BasisSlot):
        if any(d > 9 for d in entry.digits):
            # One digit takes a trailing comma: basis:10 reads as (1, 0).
            return "basis:" + ",".join(str(d) for d in entry.digits) + "," * (len(entry.digits) == 1)
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
            # The comma form may end in one comma, as a one-digit string does.
            digits = tuple(_int(part, lineno, "basis digit") for part in body.removesuffix(",").split(","))
            negative = next((d for d in digits if d < 0), None)
            if negative is not None:
                _fail(lineno, f"basis digit {negative} is negative")
        elif body.isdigit():
            digits = tuple(int(ch) for ch in body)
        else:
            _fail(lineno, f"malformed basis string {body!r}")
        return BasisSlot(digits)
    if text.startswith("file:"):
        raw = text[len("file:") :]
        try:
            state = load_state(base_dir / raw)
        except OSError as exc:
            raise FormatError(f"line {lineno}: cannot read slot state {raw!r}: {exc}") from exc
        except (FormatError, GuardExceededError) as exc:
            raise type(exc)(f"line {lineno}: slot state {raw!r}: {exc}") from None
        return NamedSlot(state, path=raw)
    _fail(lineno, f"unrecognized slot entry {text!r}")


def parse_rule(text: str, base_dir: str | Path = ".") -> ScaleRule:
    """Parse a ``qfs-rule/1`` document, loading ``file:`` slots relative to
    ``base_dir``."""
    return _rule_from_lines(_text_lines(text), Path(base_dir))


def _rule_from_lines(lines: Iterator[str], base: Path) -> ScaleRule:
    header, blank = _read_header(lines, RULE_TAG, ("c", "s", "phase_order"), ())
    c, s, phase_order = (_header_int(header, key) for key in ("c", "s", "phase_order"))
    defect = params_defect(c, s)
    if defect is not None:
        _fail(header[defect[0]][1], defect[1])
    if phase_order < 1:
        _fail(header["phase_order"][1], f"phase_order must be >= 1, got {phase_order}")
    tables: list[dict[int, SlotVector]] = [{} for _ in range(c)]
    coefficients: list[Coefficient] = []
    for lineno, line in enumerate(lines, blank + 1):
        parts = line.split(" ")
        if parts[0] == "slot" and len(parts) == 4:
            j = _int(parts[1], lineno, "slot number")
            if j < 1 or j > c:
                _fail(lineno, f"slot number {j} outside [1, {c}]")
            index = _int(parts[2], lineno, "slot index")
            if index in tables[j - 1]:
                _fail(lineno, f"duplicate slot entry {j} {index}")
            tables[j - 1][index] = _slot_from_text(parts[3], base, lineno)
        elif parts[0] == "coeff" and len(parts) == 3:
            indices = tuple(_int(part, lineno, "coefficient index") for part in parts[1].split(","))
            phase = _int(parts[2], lineno, "coefficient phase")
            if phase < 0 or phase >= phase_order:
                _fail(lineno, f"coefficient phase {phase} outside [0, {phase_order})")
            coefficients.append(Coefficient(indices, phase))
        else:
            _fail(lineno, f"malformed rule line {line!r}")
    try:
        return ScaleRule(FractalParams(c, s), tuple(tables), tuple(coefficients), phase_order)
    except (ScaleRuleError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one ``str`` or an iterable of pieces written in turn,
    via a sibling temp file and rename.  Readers never see a partial
    document: if writing fails, the iterable raising included, the temp file
    is removed and an existing target keeps its old bytes.  The file gets the
    mode ``open(path, "w")`` would create it with, 0o666 less the umask."""
    target = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_state(path: str | Path) -> SparseState:
    with open(path) as handle:
        return _state_from_lines(_read_lines(handle))


def save_state(state: SparseState, path: str | Path) -> None:
    write_text_atomic(path, _state_chunks(state))


def load_rule(path: str | Path) -> ScaleRule:
    target = Path(path)
    with open(target) as handle:
        return _rule_from_lines(_read_lines(handle), target.parent)


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
            for key in sorted(state._packed):
                value = state._basis_value_of(key)
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
            # Integer true division is correctly rounded, as the exact rational is.
            dimension = state.local_dim**state.num_qudits
            width = f"{SVG_WIDTH / dimension:.4f}"
            for key in sorted(state._packed):
                x = state._basis_value_of(key) * SVG_WIDTH / dimension
                parts.append(f'<rect x="{x:.4f}" y="{y}" width="{width}" height="{SVG_ROW_HEIGHT}" fill="#1a1a2e"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    raise ValueError(f"unknown render mode {mode!r}")
