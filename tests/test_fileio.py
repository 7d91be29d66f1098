"""Text format round trips, parse failure modes, and support rendering."""

import io
import os
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfractal.fileio as fileio
import qfractal.states as states
from qfractal import (
    Amplitude,
    BasisSlot,
    Coefficient,
    FormatError,
    FractalParams,
    GuardExceededError,
    NamedSlot,
    Predecessor,
    Provenance,
    ScaleRule,
    SparseState,
    build_bell_pair,
    build_bitflip_state,
    build_cantor,
    build_cluster,
    build_gem_sequence,
    gem_rule,
    parse_rule,
    parse_state,
    render_support,
    representative_rule,
    serialize_rule,
    serialize_state,
)
from qfractal.cli import main
from qfractal.fileio import load_rule, load_state, save_rule, save_state, write_text_atomic


class TestStateFormat:
    def test_uniform_qutrit_records(self):
        text = serialize_state(build_cantor(1))
        assert text.startswith("qfs/1\nlocal_dim 3\nnum_qudits 2\nphase_order 8\n")
        body = text.split("\n\n", 1)[1]
        assert body == "00 0 3:1\n01 0 3:1\n02 0 3:1\n"

    def test_unit_amplitude_prints_bare_one(self):
        state = SparseState.basis_state(2, (1,))
        assert serialize_state(state).endswith("\n\n1 0 1\n")

    def test_half_turn_phase_index(self):
        plus, _ = build_gem_sequence(2)
        body = serialize_state(plus).split("\n\n", 1)[1]
        assert body == "0101 0 2:1\n1010 4 2:1\n"

    @pytest.mark.parametrize(
        "state",
        [
            build_cantor(0),
            build_cantor(2),
            build_bell_pair(-1),
            build_gem_sequence(3)[1],
            build_bitflip_state(2, 1),
            build_cluster(4),
            SparseState(2, 1, 8, {}),
        ],
    )
    def test_round_trip_is_byte_identical(self, state):
        text = serialize_state(state)
        again = parse_state(text)
        assert again == state
        assert serialize_state(again) == text

    def test_provenance_header_round_trips(self):
        state = build_cantor(2)
        again = parse_state(serialize_state(state))
        assert again.provenance == state.provenance

    def test_wide_local_dim_uses_comma_digits(self):
        state = SparseState(12, 2, 8, {(11, 3): Amplitude.one()})
        text = serialize_state(state)
        assert "11,3 0 1" in text
        assert parse_state(text) == state

    def test_composite_magnitude_base_is_canonicalized(self):
        text = "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 4:1\n"
        state = parse_state(text)
        assert state.entries[(0,)] == Amplitude(0, ((2, 2),))
        assert "2:2" in serialize_state(state)

    @pytest.mark.parametrize(
        "text",
        [
            "qfs/0\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n",
            "qfs/1\nlocal_dim 2\nphase_order 8\n\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\nweird 3\n\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nnum_qudits 1\nphase_order 8\n\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n2 0 1\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n01 0 1\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n1 0 1\n0 0 1\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 1\n0 0 1\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 8 1\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 2:0\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 junk\n",
            "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0\n",
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(FormatError):
            parse_state(text)

    @pytest.mark.parametrize(
        "magnitude, message",
        [("1:2", "magnitude base must be >= 2, got 1"), ("1048577:2", "magnitude base must be <= 1048576, got 1048577")],
    )
    def test_magnitude_base_out_of_range(self, magnitude, message):
        text = f"qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 {magnitude}\n"
        with pytest.raises(FormatError, match=f"^line 6: {message}$"):
            parse_state(text)

    def test_largest_magnitude_base_is_accepted(self):
        state = parse_state("qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 1048576:2\n")
        assert state.entries[(0,)] == Amplitude(0, ((2, 40),))

    def test_error_names_the_line(self):
        text = "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 1\nbroken\n"
        with pytest.raises(FormatError, match="line 7"):
            parse_state(text)


class TestRuleFormat:
    def test_representative_rule_round_trip(self):
        rule = representative_rule(2, 3, 1, 3)
        text = serialize_rule(rule)
        assert text.startswith("qfs-rule/1\nc 2\ns 3\nphase_order 8\n\n")
        assert "slot 1 0 predecessor" in text
        assert "slot 2 2 basis:22" in text
        assert "coeff 2,2 0" in text
        assert serialize_rule(parse_rule(text)) == text

    def test_named_slot_round_trips_through_a_file(self, tmp_path):
        plus, minus = build_gem_sequence(1)
        save_state(plus, tmp_path / "plus.qfs")
        rule = ScaleRule(
            FractalParams(2, 2),
            (
                {0: NamedSlot(plus, path="plus.qfs"), 1: Predecessor()},
                {0: NamedSlot(plus, path="plus.qfs"), 1: Predecessor()},
            ),
            (Coefficient((0, 1)), Coefficient((1, 0), 4)),
        )
        save_rule(rule, tmp_path / "gem.rule")
        loaded = load_rule(tmp_path / "gem.rule")
        assert loaded.slot_tables[0][0].state == plus
        assert loaded.coefficients == rule.coefficients
        assert serialize_rule(loaded) == serialize_rule(rule)

    @pytest.mark.parametrize("digits, body", [((1, 10), "1,10"), ((10,), "10,")])
    def test_basis_digits_above_nine_round_trip_with_commas(self, digits, body):
        # basis:10 reads as the two digits (1, 0), so the one digit 10 takes a trailing comma.
        tables = ({0: Predecessor()}, {0: BasisSlot(digits)})
        rule = ScaleRule(FractalParams(2, 1), tables, (Coefficient((0, 0)),))
        text = serialize_rule(rule)
        assert f"slot 2 0 basis:{body}\n" in text
        assert parse_rule(text) == rule
        assert parse_rule(text.replace(f"basis:{body}\n", "basis:10\n")).slot_tables[1][0] == BasisSlot((1, 0))

    def test_library_rule_with_a_one_digit_string_above_nine_reads_back(self):
        rule = representative_rule(2, 11, 0, 11)
        assert parse_rule(serialize_rule(rule)) == rule

    @pytest.mark.parametrize("body", [",", "1,,2", "10,,", ",1"])
    def test_comma_form_ends_in_at_most_one_comma(self, body):
        text = f"qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0 predecessor\nslot 2 0 basis:{body}\ncoeff 0,0 0\n"
        with pytest.raises(FormatError) as info:
            parse_rule(text)
        assert str(info.value) == "line 7: basis digit is not an integer: ''"

    def test_named_slot_without_path_cannot_serialize(self):
        rule = gem_rule(build_bell_pair(+1), +1)
        with pytest.raises(ValueError):
            serialize_rule(rule)

    @pytest.mark.parametrize(
        "text",
        [
            "qfs-rule/2\nc 2\ns 1\nphase_order 8\n\n",
            "qfs-rule/1\nc 2\nphase_order 8\n\n",
            "qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 3 0 predecessor\ncoeff 0,0 0\n",
            "qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0 nonsense\ncoeff 0,0 0\n",
            "qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0 predecessor\nslot 1 0 predecessor\ncoeff 0,0 0\n",
            "qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0 predecessor\nslot 2 0 basis:0\ncoeff 0,0 9\n",
            "qfs-rule/1\nc 2\ns 2\nphase_order 8\n\nslot 1 0 predecessor\nslot 2 0 basis:0\ncoeff 0,0 0\n",
            "qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0 file:missing.qfs\ncoeff 0,0 0\n",
            "qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0\ncoeff 0,0 0\n",
        ],
    )
    def test_malformed_rules_rejected(self, text, tmp_path):
        with pytest.raises(FormatError):
            parse_rule(text, tmp_path)


class TestAtomicWrite:
    def test_overwrites_in_place(self, tmp_path):
        target = tmp_path / "out.qfs"
        write_text_atomic(target, "first\n")
        write_text_atomic(target, "second\n")
        assert target.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_save_load_state(self, tmp_path):
        state = build_cluster(3)
        save_state(state, tmp_path / "cluster.qfs")
        assert load_state(tmp_path / "cluster.qfs") == state

    @pytest.mark.parametrize("error", [MemoryError(), GuardExceededError("serialized state too large")])
    @pytest.mark.parametrize("existing", [True, False])
    def test_a_failing_iterable_leaves_the_target_as_it_was(self, tmp_path, error, existing):
        target = tmp_path / "out.qfs"
        if existing:
            target.write_bytes(b"old bytes\n")

        def chunks():
            yield "new " * 1000
            yield "more\n"
            raise error

        with pytest.raises(type(error)):
            write_text_atomic(target, chunks())
        assert list(tmp_path.iterdir()) == ([target] if existing else [])
        if existing:
            assert target.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize(
        "error, stderr",
        [(MemoryError(), "error: out of memory\n"), (GuardExceededError("too large"), "error: too large\n")],
    )
    def test_cli_save_failing_part_way_exits_three(self, tmp_path, capsys, error, stderr):
        # The third record's text fails: the header and two records have been
        # handed to the temp file first.
        target = tmp_path / "out.qfs"
        target.write_bytes(b"old bytes\n")
        calls = []

        def failing(key, local_dim, num_qudits):
            calls.append(key)
            if len(calls) == 3:
                raise error
            return fileio.digit_text(key, local_dim, num_qudits)

        with mock.patch.object(fileio, "_key_to_text", failing):
            code = main(["gen", "--family", "cantor", "--n", "2", "-o", str(target)])
        assert (code, capsys.readouterr().err) == (3, stderr)
        assert len(calls) == 3
        assert target.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("writer", ["save_state", "save_rule", "viz --svg"])
    def test_every_writer_is_atomic_and_writes_a_str_whole(self, tmp_path, capsys, writer):
        source = tmp_path / "in.qfs"
        save_state(build_cantor(2), source)
        target = tmp_path / "out"
        target.write_bytes(b"old bytes\n")
        writes = []

        class HalfWriter:
            """Writes half of the first piece it is given, then runs out of memory."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def writelines(self, pieces):
                for piece in pieces:
                    self.write(piece)

            def write(self, text):
                writes.append(text)
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise MemoryError

        real_fdopen = fileio.os.fdopen
        with mock.patch.object(fileio.os, "fdopen", lambda fd, mode: HalfWriter(real_fdopen(fd, mode))):
            if writer == "save_state":
                with pytest.raises(MemoryError):
                    save_state(build_cantor(2), target)
                expected = serialize_state(build_cantor(2)).split("\n\n")[0] + "\n\n"
            elif writer == "save_rule":
                with pytest.raises(MemoryError):
                    save_rule(representative_rule(2, 3, 1, 3), target)
                expected = serialize_rule(representative_rule(2, 3, 1, 3))
            else:
                assert main(["viz", "--state", str(source), "--svg", str(target)]) == 3
                assert capsys.readouterr().err == "error: out of memory\n"
                expected = render_support(build_cantor(2), "svg")
        # A str goes to one write whole; a state's first piece is its header.
        assert writes == [expected]
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(tmp_path.iterdir()) == [source, target]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    @pytest.mark.parametrize("writer", ["save_state", "save_rule", "viz --svg"])
    def test_written_files_take_the_umask_mode(self, tmp_path, writer, umask):
        source = tmp_path / "in.qfs"
        save_state(build_cantor(2), source)
        target = tmp_path / "out"
        previous = os.umask(umask)
        try:
            if writer == "save_state":
                save_state(build_cantor(2), target)
            elif writer == "save_rule":
                save_rule(representative_rule(2, 3, 1, 3), target)
            else:
                assert main(["viz", "--state", str(source), "--svg", str(target)]) == 0
        finally:
            os.umask(previous)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_a_str_is_not_iterated(self, tmp_path):
        class NoIter(str):
            def __iter__(self):
                raise AssertionError("iterated character by character")

        target = tmp_path / "out.txt"
        write_text_atomic(target, NoIter("whole\ntext\n"))
        assert target.read_text() == "whole\ntext\n"


def _outcome(read):
    """The canonical text of the state ``read`` returns, or its error."""
    try:
        return serialize_state(read())
    except FormatError as exc:
        return f"FormatError: {exc}"


@st.composite
def state_files(draw):
    """The text of a valid state file, then one mutation of it."""
    local_dim = draw(st.sampled_from([2, 3, 10, 12]))
    num_qudits = draw(st.integers(1, 5))
    phase_order = draw(st.sampled_from([2, 8]))
    digits = st.tuples(*[st.integers(0, local_dim - 1)] * num_qudits)
    amplitudes = st.builds(
        Amplitude, st.integers(0, phase_order - 1), st.sampled_from([(), ((2, 1),), ((3, -1), (5, 2))])
    )
    entries = draw(st.dictionaries(digits, amplitudes, max_size=10))
    text = serialize_state(SparseState(local_dim, num_qudits, phase_order, entries))
    lines = text.split("\n")
    records = range(5, len(lines) - 1)  # indices of the record lines
    mutation = draw(
        st.sampled_from(
            ["none", "crlf", "cr", "\x0c", "\u2028", "no final newline", "empty", "header only", "bad digit", "order"]
        )
    )
    if mutation == "crlf":
        text = text.replace("\n", "\r\n")
    elif mutation == "cr":
        text = text.replace("\n", "\r")
    elif mutation in ("\x0c", "\u2028"):
        at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"]))
        text = text[:at] + mutation + text[at + 1 :]
    elif mutation == "no final newline":
        text = text[:-1]
    elif mutation == "empty":
        text = ""
    elif mutation == "header only":
        text = "\n".join(lines[:4]) + draw(st.sampled_from(["", "\n", "\n\n"]))
    elif mutation == "bad digit" and records:
        at = draw(st.sampled_from(records))
        lines[at] = draw(st.sampled_from(["9", "x", "-"])) + lines[at][1:]
        text = "\n".join(lines)
    elif mutation == "order" and len(records) > 1:
        at = draw(st.sampled_from(records[1:]))
        lines[at - 1], lines[at] = lines[at], lines[at - 1]
        text = "\n".join(lines)
    return text


class TestStreamedParity:
    """A file read through its handle parses as its whole text does."""

    @settings(max_examples=300, deadline=None)
    @given(text=state_files())
    def test_load_state_matches_parse_state(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "state.qfs"
            path.write_bytes(text.encode())
            assert _outcome(lambda: load_state(path)) == _outcome(lambda: parse_state(text))

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028", "\x85"])
    @pytest.mark.parametrize("at, error", [(0, "expected header tag 'qfs/1'"), (9, "malformed record line {line!r}")])
    def test_only_newlines_end_a_line(self, tmp_path, capsys, separator, at, error):
        # str.splitlines() would also split at these, and both halves would parse.
        lines = serialize_state(build_cantor(1)).split("\n")
        lines[at : at + 2] = [lines[at] + separator + lines[at + 1]]
        text = "\n".join(lines)
        message = f"line {at + 1}: " + error.format(line=lines[at])
        path = tmp_path / "sep.qfs"
        path.write_bytes(text.encode())
        for read in (lambda: load_state(path), lambda: parse_state(text)):
            with pytest.raises(FormatError) as caught:
                read()
            assert str(caught.value) == message
        assert main(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_string_is_parsed_from_its_utf8_bytes(self):
        # A StringIO of the text would hold four bytes a character.
        text = serialize_state(build_cantor(8))
        tracemalloc.start()
        try:
            state = parse_state(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state == build_cantor(8)
        assert peak < 2 * len(text)

    def test_a_lone_surrogate_reaches_the_line_check(self):
        text = serialize_state(build_cantor(1)) + "\ud800 0 1\n"
        with pytest.raises(FormatError, match=r"^line 13: malformed digit string '\\ud800'$"):
            parse_state(text)

    def test_a_record_longer_than_the_io_buffer_round_trips(self, tmp_path):
        entries = {(11,) * 8000: Amplitude.inv_sqrt(2), (0,) * 7999 + (5,): Amplitude.inv_sqrt(2, phase_index=4)}
        state = SparseState(12, 8000, 8, entries)
        text = serialize_state(state)
        assert max(map(len, text.split("\n"))) > 2 * io.DEFAULT_BUFFER_SIZE
        save_state(state, tmp_path / "wide.qfs")
        assert (tmp_path / "wide.qfs").read_text() == text
        assert load_state(tmp_path / "wide.qfs") == parse_state(text) == state

    @pytest.mark.parametrize(
        "state", [build_cantor(7), build_cluster(14), SparseState(12, 40, 8, {(11,) * 40: Amplitude.one()})]
    )
    def test_save_state_writes_the_serialized_text(self, tmp_path, state):
        # cantor-7 (295 KB) and cluster-14 (361 KB) span many I/O buffers.
        save_state(state, tmp_path / "out.qfs")
        text = serialize_state(state)
        assert (tmp_path / "out.qfs").read_text() == text
        assert serialize_state(load_state(tmp_path / "out.qfs")) == text

    @pytest.mark.parametrize("mutation", ["bad digit", "order"])
    def test_error_past_the_first_chunk_names_its_line(self, tmp_path, mutation):
        lines = serialize_state(build_cantor(7)).split("\n")
        at = 1000  # past the first few I/O buffers
        assert len("\n".join(lines[:at])) > 2 * io.DEFAULT_BUFFER_SIZE
        if mutation == "bad digit":
            lines[at] = "3" + lines[at][1:]
            message = f"line {at + 1}: digit 3 outside [0, 3)"
        else:
            lines[at - 1], lines[at] = lines[at], lines[at - 1]
            message = f"line {at + 1}: records must be in strictly ascending order"
        path = tmp_path / "bad.qfs"
        path.write_text("\n".join(lines))
        for read in (lambda: load_state(path), lambda: parse_state(path.read_text())):
            with pytest.raises(FormatError) as caught:
                read()
            assert str(caught.value) == message

    def test_rule_and_its_file_slot_are_read_in_chunks(self, tmp_path):
        plus, _ = build_gem_sequence(3)
        save_state(plus, tmp_path / "plus.qfs")
        slots = [line for j in (1, 2) for line in (f"slot {j} 0 file:plus.qfs", f"slot {j} 1 predecessor")]
        text = "\n".join(["qfs-rule/1", "c 2", "s 2", "phase_order 8", "", *slots, "coeff 0,1 0", "coeff 1,0 4", ""])
        (tmp_path / "gem.rule").write_text(text)
        loaded = load_rule(tmp_path / "gem.rule")
        assert loaded.slot_tables[0][0].state == plus
        assert serialize_rule(loaded) == serialize_rule(parse_rule(text, tmp_path)) == text


class TestUndecodableBytes:
    # Decoding is streamed, so the byte position counts from the start of the
    # 8 KiB block being decoded: 70000 - 8 * 8192 = 4464.
    def test_cli_exits_two_with_the_chunk_position(self, tmp_path, capsys):
        raw = serialize_state(build_cantor(7)).encode()
        path = tmp_path / "bad.qfs"
        path.write_bytes(raw[:70000] + b"\xff" + raw[70000:])
        assert main(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr().err == "error: 'utf-8' codec can't decode byte 0xff in position 4464: invalid start byte\n"

    def test_a_line_check_before_the_bad_chunk_is_reported_first(self, tmp_path, capsys):
        raw = serialize_state(build_cantor(7)).encode()
        path = tmp_path / "bad.qfs"
        path.write_bytes(raw.replace(b"phase_order 8", b"phase_order x", 1)[:70000] + b"\xff" + raw[70000:])
        assert main(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 4: phase_order is not an integer: 'x'\n"


class TestRenderSupport:
    def test_single_qutrit_fills_the_first_third(self):
        assert render_support(build_cantor(0)) == "#..\n"

    def test_nine_cell_row(self):
        assert render_support(build_cantor(1)) == "###......\n"

    def test_pair_state_marks_binary_values(self):
        plus, _ = build_gem_sequence(2)
        row = render_support(plus).rstrip("\n")
        assert len(row) == 16
        assert [i for i, ch in enumerate(row) if ch == "#"] == [5, 10]

    def test_wide_states_compress_to_72_cells(self):
        rows = render_support([build_cantor(2), build_cantor(3)]).splitlines()
        assert len(rows) == 2
        assert all(len(row) == 72 for row in rows)
        # leading qutrit digit is always 0, so marks stay in the first third
        for row in rows:
            marked = {i for i, ch in enumerate(row) if ch == "#"}
            assert marked
            assert max(marked) < 24

    def test_svg_document_shape(self):
        plus, _ = build_gem_sequence(2)
        doc = render_support([plus, build_cantor(1)], "svg")
        assert doc.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
        assert doc.count("<rect") == 2 + len(plus.entries) + 3
        assert 'x="225.0000"' in doc  # 5/16 of 720

    def test_render_is_deterministic(self):
        state = build_cluster(3)
        assert render_support(state, "svg") == render_support(state, "svg")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            render_support(build_cantor(0), "png")

    def test_no_states_rejected(self):
        with pytest.raises(ValueError, match=r"^at least one state is required$"):
            render_support([])

    @pytest.mark.parametrize(
        "local_dim, num_qudits, limit",
        [(n, 3, 4300) for n in (3, 5, 6, 7, 9, 10, 11, 15)] + [(3, 5000, 4300), (3, 1500, 640)],
    )
    def test_renders_and_dense_equal_the_per_digit_reference(self, local_dim, num_qudits, limit, monkeypatch):
        # Texts longer than int()'s digit limit are read in pieces: 5000 digits
        # at the default limit, and 1500 at the least limit int() takes.
        rng = random.Random(local_dim)
        keys = {tuple(rng.randrange(local_dim) for _ in range(num_qudits)) for _ in range(20)}
        state = SparseState(local_dim, num_qudits, 8, {key: Amplitude(rng.randrange(8)) for key in keys})

        def views():
            dense = state._dense() if num_qudits == 3 else None
            return render_support(state, "ascii"), render_support(state, "svg"), dense

        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            fast = views()
            monkeypatch.setattr(SparseState, "_basis_value_of", lambda self, key: self.basis_value(self.entries._digits(key)))
            assert fast == views()
        finally:
            sys.set_int_max_str_digits(saved)


class TestNonAsciiDigits:
    @pytest.mark.parametrize("digit", ["²", "٢", "１"])
    def test_record_digit_is_a_line_numbered_format_error(self, digit):
        text = f"qfs/1\nlocal_dim 3\nnum_qudits 1\nphase_order 8\n\n{digit} 0 1\n"
        with pytest.raises(FormatError, match="line 6"):
            parse_state(text)

    def test_wide_local_dim_record_digit_is_a_format_error(self):
        text = "qfs/1\nlocal_dim 12\nnum_qudits 2\nphase_order 8\n\n1,١ 0 1\n"
        with pytest.raises(FormatError, match="line 6"):
            parse_state(text)

    @pytest.mark.parametrize("body", ["²", "0,١"])
    def test_basis_slot_digit_is_a_line_numbered_format_error(self, body, tmp_path):
        text = f"qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0 predecessor\nslot 2 0 basis:{body}\ncoeff 0,0 0\n"
        with pytest.raises(FormatError, match="line 7"):
            parse_rule(text, tmp_path)


class TestNegativeBasisDigits:
    @pytest.mark.parametrize(
        "body, message",
        [
            ("-1", "malformed basis string '-1'"),
            ("-1,0", "basis digit -1 is negative"),
            ("0,-2", "basis digit -2 is negative"),
        ],
    )
    def test_both_forms_are_line_numbered_format_errors(self, body, message, tmp_path):
        text = f"qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 0 predecessor\nslot 2 0 basis:{body}\ncoeff 0,0 0\n"
        with pytest.raises(FormatError) as info:
            parse_rule(text, tmp_path)
        assert str(info.value) == f"line 7: {message}"


class TestStrictIntegers:
    """Integer fields accept ASCII ``-?[0-9]+`` only, never the wider forms
    that ``int()`` takes (non-ASCII digits, ``_``, ``+``, whitespace)."""

    HEADER = "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n"

    @pytest.mark.parametrize(
        "record", ["0 ٤ 1", "0 4 ٢:1", "0 0 2:1_0", "0 +4 1", "0 0 2: 1", "0 ４ 1"]
    )
    def test_state_record_field_is_a_line_numbered_format_error(self, record):
        with pytest.raises(FormatError, match="line 6"):
            parse_state(self.HEADER + record + "\n")

    def test_mixed_script_record_is_rejected(self):
        with pytest.raises(FormatError, match="line 6: phase index is not an integer"):
            parse_state(self.HEADER + "0 ٤ ٢:1_0\n")

    def test_wide_local_dim_digit_with_separator_is_rejected(self):
        text = "qfs/1\nlocal_dim 12\nnum_qudits 2\nphase_order 8\n\n1,1_0 0 1\n"
        with pytest.raises(FormatError, match="line 6"):
            parse_state(text)

    @pytest.mark.parametrize("value", ["+1", " 1", "1 ", "0_1", "١"])
    def test_header_integer_is_a_line_numbered_format_error(self, value):
        text = f"qfs/1\nlocal_dim 2\nnum_qudits {value}\nphase_order 8\n\n0 0 1\n"
        with pytest.raises(FormatError, match="line 3: num_qudits is not an integer"):
            parse_state(text)

    def test_provenance_integer_is_rejected(self):
        text = "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\nn +2\n\n0 0 1\n"
        with pytest.raises(FormatError, match="n is not an integer"):
            parse_state(text)

    @pytest.mark.parametrize(
        "line",
        ["slot +1 0 predecessor", "slot 1 ٠ predecessor", "coeff 0,0 +0", "coeff 0,0_0 0", "coeff ０,0 0"],
    )
    def test_rule_field_is_a_line_numbered_format_error(self, line, tmp_path):
        text = f"qfs-rule/1\nc 2\ns 1\nphase_order 8\n\n{line}\n"
        with pytest.raises(FormatError, match="line 6"):
            parse_rule(text, tmp_path)

    def test_rule_header_integer_is_rejected(self, tmp_path):
        text = "qfs-rule/1\nc 2\ns 1_0\nphase_order 8\n\nslot 1 0 predecessor\n"
        with pytest.raises(FormatError, match="line 3: s is not an integer"):
            parse_rule(text, tmp_path)

    @pytest.mark.parametrize(
        "parse, text, field",
        [
            (parse_state, HEADER + "0 {long} 1\n", "line 6: phase index"),
            (parse_state, HEADER + "0 0 2:{long}\n", "line 6: magnitude exponent"),
            (parse_state, "qfs/1\nlocal_dim {long}\nnum_qudits 1\nphase_order 8\n\n0 0 1\n", "line 2: local_dim"),
            (parse_state, "qfs/1\nlocal_dim 11\nnum_qudits 2\nphase_order 8\n\n0,{long} 0 1\n", "line 6: digit"),
            (parse_rule, "qfs-rule/1\nc 2\ns 1\nphase_order 8\n\nslot 1 {long} predecessor\n", "line 6: slot index"),
        ],
        ids=["phase index", "magnitude exponent", "local_dim", "wide digit", "rule slot index"],
    )
    def test_an_integer_too_long_for_int_is_a_line_numbered_format_error(self, parse, text, field):
        # int() refuses decimal texts of more than sys.get_int_max_str_digits()
        # digits; the message names the field and not its digits.
        with pytest.raises(FormatError) as info:
            parse(text.format(long="7" * 5000))
        assert str(info.value) == f"{field} has 5000 digits, over the limit of {sys.get_int_max_str_digits()}"

    def test_negative_exponent_still_parses(self):
        state = parse_state(self.HEADER + "0 0 2:-1\n")
        assert state.entries[(0,)] == Amplitude(0, ((2, -1),))

    def test_cli_exit_code_is_two(self, tmp_path, capsys):
        from qfractal.cli import main

        bad = tmp_path / "bad.qfs"
        bad.write_text(self.HEADER + "0 ٤ ٢:1_0\n", encoding="utf-8")
        assert main(["analyze", "--state", str(bad)]) == 2
        assert "line 6" in capsys.readouterr().err


class TestHeaderLineNumbers:
    """Header keys may come in any order; an error names the line its key is on."""

    @pytest.mark.parametrize(
        "header,message",
        [
            ("num_qudits x\nlocal_dim 2\nphase_order 8\n", "line 2: num_qudits is not an integer: 'x'"),
            ("phase_order 8\nnum_qudits 1\nlocal_dim y\n", "line 4: local_dim is not an integer: 'y'"),
            ("local_dim 2\nphase_order z\nnum_qudits 1\n", "line 3: phase_order is not an integer: 'z'"),
        ],
    )
    def test_reordered_state_header(self, header, message):
        with pytest.raises(FormatError) as info:
            parse_state("qfs/1\n" + header + "\n0 0 1\n")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("qfs/1\nlocal_dim 2\nphase_order 8\n\n0 0 1\n", "line 4: missing header key 'num_qudits'"),
            ("qfs/1\nlocal_dim 2\nphase_order 8\n", "line 4: missing header key 'num_qudits'"),
            ("qfs/1", "line 2: missing header key 'local_dim'"),
        ],
        ids=["blank line", "no blank line", "tag only"],
    )
    def test_missing_key_names_the_blank_line_or_one_past_the_end(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_state(text)
        assert str(info.value) == message

    def test_reordered_state_header_parses_to_the_canonical_file(self):
        text = "qfs/1\nn 1\nphase_order 8\nfamily bitflip\nnum_qudits 3\ns 1\nlocal_dim 2\nc 3\n\n000 0 1\n"
        state = parse_state(text)
        assert state.provenance == Provenance("bitflip", 3, 1, 1)
        assert serialize_state(state) == serialize_state(build_bitflip_state(1, 0))

    @pytest.mark.parametrize("key,lineno", [("c", 6), ("s", 7), ("n", 8)])
    def test_provenance_integer_names_its_line(self, key, lineno):
        values = {"c": "2", "s": "3", "n": "1"}
        values[key] = "two"
        provenance = "family cantor\n" + "".join(f"{k} {v}\n" for k, v in values.items())
        text = "qfs/1\nlocal_dim 3\nnum_qudits 2\nphase_order 8\n" + provenance + "\n00 0 1\n"
        with pytest.raises(FormatError) as info:
            parse_state(text)
        assert str(info.value) == f"line {lineno}: {key} is not an integer: 'two'"

    def test_provenance_integer_before_the_last_header_line(self):
        text = "qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\nc two\ns 3\nfamily cantor\n\n0 0 1\n"
        with pytest.raises(FormatError) as info:
            parse_state(text)
        assert str(info.value) == "line 5: c is not an integer: 'two'"

    @pytest.mark.parametrize(
        "header,message",
        [
            ("phase_order 8\ns x\nc 2\n", "line 3: s is not an integer: 'x'"),
            ("s 1\nphase_order 8\nc 1\n", "line 4: c must exceed 1, got 1"),
            ("s 1\nc 2\nphase_order q\n", "line 4: phase_order is not an integer: 'q'"),
            ("phase_order 8\nc 2\ns 0\n", "line 4: s must be >= 1, got 0"),
        ],
    )
    def test_reordered_rule_header(self, header, message, tmp_path):
        with pytest.raises(FormatError) as info:
            parse_rule("qfs-rule/1\n" + header + "\nslot 1 0 predecessor\n", tmp_path)
        assert str(info.value) == message

    def test_reordered_rule_header_parses(self, tmp_path):
        text = "qfs-rule/1\nphase_order 8\ns 1\nc 3\n\n"
        text += "slot 1 0 predecessor\nslot 2 0 basis:0\nslot 3 0 basis:0\ncoeff 0,0,0 0\n"
        assert serialize_rule(parse_rule(text, tmp_path)) == serialize_rule(representative_rule(3, 1, 0, 2))


class TestSerializeGolden:
    def test_qubits_with_provenance_and_mixed_amplitudes(self):
        state = SparseState(
            2,
            3,
            8,
            {
                (1, 0, 1): Amplitude(4, ((2, 1),)),
                (0, 0, 0): Amplitude(0, ((2, 1), (3, -1))),
                (1, 1, 1): Amplitude(6, ((2, 1),)),
            },
            Provenance("bitflip", None, None, 1),
        )
        assert serialize_state(state) == (
            "qfs/1\nlocal_dim 2\nnum_qudits 3\nphase_order 8\nfamily bitflip\nn 1\n\n"
            "000 0 2:1,3:-1\n101 4 2:1\n111 6 2:1\n"
        )

    def test_qutrits_with_full_provenance(self):
        assert serialize_state(build_cantor(1)) == (
            "qfs/1\nlocal_dim 3\nnum_qudits 2\nphase_order 8\nfamily cantor\nc 2\ns 3\nn 1\n\n"
            "00 0 3:1\n01 0 3:1\n02 0 3:1\n"
        )

    def test_eleven_levels_use_comma_separated_digits(self):
        state = SparseState(
            11,
            3,
            4,
            {
                (10, 0, 9): Amplitude(2, ()),
                (0, 10, 3): Amplitude(0, ((5, 1),)),
                (0, 9, 10): Amplitude(1, ((5, 1),)),
            },
            Provenance(None, None, None, 2),
        )
        assert serialize_state(state) == (
            "qfs/1\nlocal_dim 11\nnum_qudits 3\nphase_order 4\nn 2\n\n"
            "0,9,10 1 5:1\n0,10,3 0 5:1\n10,0,9 2 1\n"
        )

    def test_ten_levels_use_every_digit_character(self):
        state = SparseState(10, 10, 2, {tuple(range(10)): Amplitude(0, ((2, 1),)), (9,) * 10: Amplitude(1, ((2, 1),))})
        assert serialize_state(state) == (
            "qfs/1\nlocal_dim 10\nnum_qudits 10\nphase_order 2\n\n0123456789 0 2:1\n9999999999 1 2:1\n"
        )


class TestDigitStrings:
    """Record digit strings that ``int()`` would take but the format forbids
    keep their line-numbered errors, checked before any conversion."""

    @pytest.mark.parametrize(
        "local_dim,num_qudits,digits,message",
        [
            (2, 2, "0_1", "line 6: malformed digit string '0_1'"),
            (2, 2, "+01", "line 6: malformed digit string '+01'"),
            (2, 2, "-01", "line 6: malformed digit string '-01'"),
            (2, 2, "\t01", "line 6: malformed digit string '\\t01'"),
            (2, 2, "01\xa0", "line 6: malformed digit string '01\\xa0'"),
            (2, 2, "٠١", "line 6: malformed digit string '٠١'"),
            (2, 2, "０1", "line 6: malformed digit string '０1'"),
            (2, 2, "²1", "line 6: malformed digit string '²1'"),
            (2, 2, "02", "line 6: digit 2 outside [0, 2)"),
            (2, 2, "2_0", "line 6: malformed digit string '2_0'"),
            (2, 2, "011", "line 6: record has 3 digits, expected 2"),
            (2, 2, "1", "line 6: record has 1 digits, expected 2"),
            (2, 2, "", "line 6: malformed digit string ''"),
            (2, 2, " 01", "line 6: malformed record line ' 01 0 1'"),
            (3, 2, "13", "line 6: digit 3 outside [0, 3)"),
            (3, 2, "1_2", "line 6: malformed digit string '1_2'"),
            (3, 2, "+2", "line 6: malformed digit string '+2'"),
            (3, 3, "1302", "line 6: digit 3 outside [0, 3)"),
            (5, 3, "005", "line 6: digit 5 outside [0, 5)"),
            (10, 2, "9a", "line 6: malformed digit string '9a'"),
            (11, 2, "0_1,1", "line 6: digit is not an integer: '0_1'"),
            (11, 2, "+1,1", "line 6: digit is not an integer: '+1'"),
            (11, 2, "11,0", "line 6: digit 11 outside [0, 11)"),
            (11, 2, "-1,0", "line 6: digit -1 outside [0, 11)"),
            (11, 2, "1,1,1", "line 6: record has 3 digits, expected 2"),
            (11, 2, "1,٣", "line 6: malformed digit string '1,٣'"),
            # Above N = 10, characters are checked before range, and range
            # before length, through each of the readers of N <= 256 and above.
            (11, 2, "1,,2", "line 6: digit is not an integer: ''"),
            (11, 2, "1,2,", "line 6: digit is not an integer: ''"),
            (11, 2, "-1,x", "line 6: digit is not an integer: 'x'"),
            (300, 2, "1,,2", "line 6: digit is not an integer: ''"),
            (300, 2, "-1,x", "line 6: digit is not an integer: 'x'"),
            (300, 2, "1,+2", "line 6: digit is not an integer: '+2'"),
            (300, 2, "1-2,0", "line 6: digit is not an integer: '1-2'"),
            (300, 3, "300,0", "line 6: digit 300 outside [0, 300)"),
            (256, 3, "255,256", "line 6: digit 256 outside [0, 256)"),
            (200, 3, "255,7", "line 6: digit 255 outside [0, 200)"),
            (11, 3, "9" * 25 + ",0", f"line 6: digit {'9' * 25} outside [0, 11)"),
            (300, 2, "0,1,2", "line 6: record has 3 digits, expected 2"),
            (31, 2, "0,1,2", "line 6: record has 3 digits, expected 2"),
        ],
    )
    def test_rejected_with_its_message(self, local_dim, num_qudits, digits, message):
        text = f"qfs/1\nlocal_dim {local_dim}\nnum_qudits {num_qudits}\nphase_order 8\n\n{digits} 0 1\n"
        with pytest.raises(FormatError) as info:
            parse_state(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "local_dim, digits, expected",
        [(300, "299,007", (299, 7)), (31, "007,010", (7, 10)), (11, "-0,10", (0, 10)), (256, "255,0", (255, 0))],
    )
    def test_digits_the_writer_would_not_write_still_parse(self, local_dim, digits, expected):
        text = f"qfs/1\nlocal_dim {local_dim}\nnum_qudits 2\nphase_order 8\n\n{digits} 0 1\n"
        assert parse_state(text).support() == (expected,)

    @pytest.mark.parametrize("local_dim", range(2, 13))
    def test_every_digit_parses_at_its_place(self, local_dim):
        top = local_dim - 1
        digits = [(0, top, 0), (top, 0, top)]
        text = serialize_state(SparseState(local_dim, 3, 8, {key: Amplitude.inv_sqrt(2) for key in digits}))
        state = parse_state(text)
        assert state.support() == tuple(digits)
        assert serialize_state(state) == text


class TestShapeErrorLines:
    """A shape value out of range names the line of its header key."""

    @pytest.mark.parametrize(
        "header,message",
        [
            ("local_dim 1\nnum_qudits 2\nphase_order 8\n", "line 2: local_dim must be >= 2, got 1"),
            ("local_dim 2\nnum_qudits 0\nphase_order 8\n", "line 3: num_qudits must be >= 1, got 0"),
            ("local_dim 2\nnum_qudits 2\nphase_order 3\n", "line 4: phase_order must be even and positive, got 3"),
            ("phase_order 0\nlocal_dim 2\nnum_qudits 2\n", "line 2: phase_order must be even and positive, got 0"),
            ("num_qudits 2\nphase_order 8\nlocal_dim -3\n", "line 4: local_dim must be >= 2, got -3"),
        ],
    )
    def test_state_header(self, header, message):
        with pytest.raises(FormatError) as info:
            parse_state("qfs/1\n" + header + "\n")
        assert str(info.value) == message

    def test_cli_prints_the_line_and_exits_two(self, tmp_path, capsys):
        from qfractal.cli import main

        bad = tmp_path / "bad.qfs"
        bad.write_text("qfs/1\nlocal_dim 1\nnum_qudits 2\nphase_order 8\n\n")
        assert main(["analyze", "--state", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 2: local_dim must be >= 2, got 1\n"


class TestReadSizeGuard:
    """A file holds no state the library would refuse to build: the header
    that passes the qudit ceiling, or the first record past the entries or
    key bits the ceilings admit, is refused with its line."""

    @pytest.mark.parametrize(
        "ceiling, value, records, message",
        [
            ("MAX_QUDITS", 2, 1, "line 3: state would exceed 2 qudits"),
            ("MAX_ENTRIES", 4, 5, "line 10: state would exceed 4 entries"),
            # Four records of three one-bit digits fit in 12 key bits.
            ("MAX_KEY_BITS", 12, 5, "line 10: state would exceed 12 key bits"),
        ],
    )
    def test_first_record_past_a_ceiling(self, monkeypatch, ceiling, value, records, message):
        monkeypatch.setattr(states, ceiling, value)
        if hasattr(fileio, ceiling):
            monkeypatch.setattr(fileio, ceiling, value)

        def text(count):
            return "qfs/1\nlocal_dim 2\nnum_qudits 3\nphase_order 8\n\n" + "".join(f"{k:03b} 0 1\n" for k in range(count))

        with pytest.raises(GuardExceededError, match=f"^{message}$"):
            parse_state(text(records))
        if ceiling != "MAX_QUDITS":
            assert len(parse_state(text(records - 1)).entries) == records - 1


class TestRulePhaseOrder:
    BODY = "\nslot 1 0 predecessor\nslot 2 0 basis:0\ncoeff 0,0 0\n"

    @pytest.mark.parametrize(
        "header,message",
        [
            ("c 2\ns 1\nphase_order 0\n", "line 4: phase_order must be >= 1, got 0"),
            ("c 2\ns 1\nphase_order -8\n", "line 4: phase_order must be >= 1, got -8"),
            ("phase_order 0\nc 2\ns 1\n", "line 2: phase_order must be >= 1, got 0"),
            ("phase_order 0\nc 1\ns 1\n", "line 3: c must exceed 1, got 1"),
        ],
    )
    def test_refused_on_its_header_line(self, header, message, tmp_path):
        with pytest.raises(FormatError) as info:
            parse_rule("qfs-rule/1\n" + header + self.BODY, tmp_path)
        assert str(info.value) == message

    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_positive_orders_still_parse(self, order, tmp_path):
        rule = parse_rule(f"qfs-rule/1\nc 2\ns 1\nphase_order {order}\n" + self.BODY, tmp_path)
        assert rule.phase_order == order
