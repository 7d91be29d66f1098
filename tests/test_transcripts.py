"""Byte identity of the CLI: the exit code and the SHA-256 of stdout, of
stderr and of any written file (with its mode under umask 022) of each
transcript in ``golden/transcripts.json``, replayed once as is and once with
numpy unimportable.  This corpus is the one place where CLI bytes are
pinned.

- ``gen`` of every family, N > 10 among them, and of a scale-0
  representative state whose 101-bit ``--s`` is not factored.
- ``analyze`` with and without ``--cut``.  The cut inputs take both row
  forms of the Schmidt sweep from both ends: full supports (cluster-14, the
  64 x 64 Fourier state) and the same without one string, which hold a zero
  lane for it; sparse supports (gem-4, cantor-3, and cantor-8 at all 255
  cuts and at its last alone); and a full support whose field is too wide
  for lanes.  Cuts 0 and 14 of cluster-14 are refused after the header is
  printed.  Parse errors: a 5000-digit phase index, records out of order
  and a duplicate record (exit 2); CR LF and CR copies of cantor-2 read as
  it does; a 20000-qudit state is refused at its header (exit 3).  A state
  that is not uniform (``uniform_probability none``).
- ``lucheck``: cluster-5 against itself, two of its X/Z images and |00000>;
  cluster-6 and cluster-8 against an X/Z image; GHZ-5 against its S- and
  T-phased copies, and GHZ-6 against its T-phased copy; the 9-qubit
  bitflip-2 register against itself; |+> against its 2 pi/2**40 turn and its quarter turn;
  |+>|0> against |0>|+>; a pair whose field would need a root of order
  2**65; and |0...0> on 10 qubits, whose search work is refused (exit 3).
- ``viz`` and ``scaling`` of cantor 0-4, ``viz`` also of cantor 5-8 as svg
  and of two representative states with N = 5 and N = 11.
- ``verify-step`` of README's cantor rule on cantor 1 -> 2, and of two rules
  whose ``file:`` slot state is refused, each error naming the rule line
  and the slot file (exit 2 and 3), and of a rule whose ``s 0`` is
  refused on its line (exit 2), and of the library's s = 11 rule, whose
  one-digit slot string |10> is written ``basis:10,``.
- ``code``: a level below 1 (exit 2); an ``--errors`` list with an empty
  position (exit 2); the README's bitflip chain, and a
  decode with nothing to correct (``corrections: none``); the
  bitflip:2 chain on cluster-6; a failed roundtrip and a decode whose
  components flip different blocks (exit 1 each); bellpair:1 and 2 of five
  inputs, the fourth of which does not sum into the exact ring (exit 1),
  and the fifth an empty register.
- ``dim``.

Each case reads only what ``write_inputs`` makes and writes only ``out.*``.
Run this file as a script to rewrite the goldens from the qfractal on the
path.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from qfractal import (
    Amplitude,
    SparseState,
    apply_scale_rule,
    build_cluster,
    build_initial,
    representative_rule,
    save_rule,
    save_state,
)
from qfractal.cli import main
from sample_states import fourier

GOLDEN = Path(__file__).parent / "golden" / "transcripts.json"

# --state arguments: cantor 0-4, and representative states with N = 5 and N = 11.
CANTORS = [arg for n in range(5) for arg in ("--state", f"c{n}.qfs")]
REPRESENTATIVES = ["--state", "rep5.qfs", "--state", "rep11.qfs"]

GEN_FLAGS = [
    *(["--family", "cantor", "--n", str(n)] for n in range(6)),
    ["--family", "representative", "--c", "3", "--s", "2", "--n", "3"],
    *(["--family", "bellgem", "--n", "4", "--sign", sign] for sign in "+-"),
    ["--family", "bitflip", "--n", "2"],
    ["--family", "cluster", "--qubits", "6"],
    # N > 10 writes digits joined by commas; N = 300 takes two bytes a digit.
    ["--family", "representative", "--c", "2", "--s", "11", "--n", "3"],
    ["--family", "representative", "--c", "3", "--s", "31", "--n", "2"],
    ["--family", "representative", "--c", "2", "--s", "300", "--n", "1"],
    ["--family", "bitflip", "--n", "0", "--logical", "1"],
    ["--family", "representative", "--c", "2", "--s", "2535301200456606295881202795651", "--n", "0"],
]


def cut_args(cuts):
    return [arg for cut in cuts for arg in ("--cut", str(cut))]


def code(action, spec, state, *rest):
    return ["code", action, "--spec", spec, "--state", state, *rest]


CASES = [
    ["analyze", "--state", "cl14.qfs", *cut_args(range(1, 14))],
    ["analyze", "--state", "cl14.qfs", *cut_args(range(8, 14))],
    ["analyze", "--state", "cl14h.qfs", *cut_args(range(1, 14))],
    ["analyze", "--state", "cl14h.qfs", *cut_args(range(8, 14))],
    ["analyze", "--state", "gem4.qfs", *cut_args(range(4, 13))],
    ["analyze", "--state", "c3.qfs", *cut_args(range(1, 8))],
    ["analyze", "--state", "c8.qfs", *cut_args(range(1, 256))],
    ["analyze", "--state", "c8.qfs", "--cut", "255"],
    ["analyze", "--state", "f64.qfs", "--cut", "1"],
    ["analyze", "--state", "f64h.qfs", "--cut", "1"],
    ["analyze", "--state", "r70.qfs", *cut_args((1, 2, 3))],
    *(["analyze", "--state", "cl14.qfs", "--cut", cut] for cut in ("0", "14")),
    *(["lucheck", "--a", "cl5.qfs", "--b", b] for b in ("cl5.qfs", "cl5x1z3.qfs", "cl5x0z2.qfs", "zero5.qfs")),
    ["lucheck", "--a", "cl6.qfs", "--b", "cl6x1z5.qfs"],
    ["lucheck", "--a", "cl8.qfs", "--b", "cl8x0z7.qfs"],
    *(["lucheck", "--a", "ghz5.qfs", "--b", b] for b in ("ghz5s.qfs", "ghz5t.qfs")),
    ["lucheck", "--a", "ghz6.qfs", "--b", "ghz6t.qfs"],
    ["lucheck", "--a", "bf2.qfs", "--b", "bf2.qfs"],
    ["lucheck", "--a", "zero10.qfs", "--b", "zero10.qfs"],
    *(["lucheck", "--a", "plus40.qfs", "--b", b] for b in ("turned40.qfs", "quarter40.qfs")),
    ["lucheck", "--a", "root65.qfs", "--b", "root65.qfs"],
    *(["viz", *states, mode] for states in (CANTORS, REPRESENTATIVES) for mode in ("--ascii", "--svg=out.svg")),
    ["viz", *(arg for n in range(5, 9) for arg in ("--state", f"c{n}.qfs")), "--svg=out.svg"],
    ["scaling", "--states", *(f"c{n}.qfs" for n in range(5))],
    code("encode", "bitflip:0", "cl5.qfs", "-o", "out.qfs"),
    *(["gen", *flags, "-o", "out.qfs"] for flags in GEN_FLAGS),
    *(["analyze", "--state", name] for name in ("c3.qfs", "gem4.qfs", "cl5.qfs", "rep31.qfs")),
    *(["analyze", "--state", name] for name in ("c2crlf.qfs", "c2cr.qfs", "unordered.qfs", "duplicate.qfs")),
    ["analyze", "--state", "long.qfs"],
    ["analyze", "--state", "wide.qfs"],
    ["analyze", "--state", "uneven.qfs"],
    ["lucheck", "--a", "plus0.qfs", "--b", "zeroplus.qfs"],
    ["verify-step", "--prev", "c1.qfs", "--next", "c2.qfs", "--rule", "cantor.rule"],
    *(
        ["verify-step", "--prev", "c2.qfs", "--next", "c3.qfs", "--rule", f"{name}slot.rule"]
        for name in ("unordered", "wide")
    ),
    ["verify-step", "--prev", "c1.qfs", "--next", "c2.qfs", "--rule", "s0.rule"],
    ["verify-step", "--prev", "init11.qfs", "--next", "step11.qfs", "--rule", "rep11.rule"],
    # The README's codes example, one command at a time.
    code("encode", "bitflip:1", "one.qfs", "-o", "out.qfs"),
    code("inject", "bitflip:1", "enc1.qfs", "--errors", "1", "-o", "out.qfs"),
    code("decode", "bitflip:1", "err1.qfs"),
    code("decode", "bitflip:1", "enc1.qfs"),
    code("inject", "bitflip:1", "enc1.qfs", "--errors", "1,,2", "-o", "out.qfs"),
    code("roundtrip", "bitflip:2", "one.qfs", "--errors", "0,1"),
    code("roundtrip", "bitflip:1", "one.qfs", "--errors", "0,1"),
    code("decode", "bitflip:1", "mixed3.qfs"),
    code("encode", "bitflip:2", "cl6.qfs", "-o", "out.qfs"),
    code("inject", "bitflip:2", "cl6enc2.qfs", "--errors", "0,13,53", "-o", "out.qfs"),
    code("decode", "bitflip:2", "cl6err2.qfs", "-o", "out.qfs"),
    *(
        code("encode", f"bellpair:{levels}", name, "-o", "out.qfs")
        for name in ("ket011.qfs", "cl3.qfs", "gem2.qfs", "uneven.qfs", "empty2.qfs")
        for levels in (1, 2)
    ),
    ["dim", "--c", "2", "--s", "3"],
]

CANTOR_RULE = """qfs-rule/1
c 2
s 3
phase_order 8

slot 1 0 predecessor
slot 1 1 predecessor
slot 1 2 predecessor
slot 2 0 basis:00
slot 2 1 basis:11
slot 2 2 basis:22
coeff 0,0 0
coeff 1,1 0
coeff 2,2 0
"""


def slot_rule(name):
    """A c = 2, s = 2 rule file whose line 8 names the slot state ``name``."""
    slots = f"slot 1 0 predecessor\nslot 1 1 basis:1111\nslot 2 0 file:{name}\nslot 2 1 basis:1111\n"
    return f"qfs-rule/1\nc 2\ns 2\nphase_order 8\n\n{slots}coeff 0,0 0\ncoeff 1,1 0\n"


def qubit_text(num_qudits, *records):
    """A qubit state file at R = 8 with the given record lines."""
    return f"qfs/1\nlocal_dim 2\nnum_qudits {num_qudits}\nphase_order 8\n\n" + "".join(f"{r}\n" for r in records)


def write_inputs(directory):
    """The files the transcripts read, written into ``directory``."""
    for name, argv in [
        ("cl14", ["gen", "--family", "cluster", "--qubits", "14"]),
        ("gem4", ["gen", "--family", "bellgem", "--n", "4", "--sign", "+"]),
        *((f"c{n}", ["gen", "--family", "cantor", "--n", str(n)]) for n in range(9)),
        ("cl5", ["gen", "--family", "cluster", "--qubits", "5"]),
        ("rep5", ["gen", "--family", "representative", "--c", "2", "--s", "5", "--n", "3"]),
        ("rep11", ["gen", "--family", "representative", "--c", "2", "--s", "11", "--n", "2"]),
        ("rep31", ["gen", "--family", "representative", "--c", "3", "--s", "31", "--n", "2"]),
        ("cl3", ["gen", "--family", "cluster", "--qubits", "3"]),
        ("gem2", ["gen", "--family", "bellgem", "--n", "2", "--sign", "+"]),
        ("one", ["gen", "--family", "bitflip", "--n", "0", "--logical", "1"]),
        ("enc1", code("encode", "bitflip:1", "one.qfs")),
        ("err1", code("inject", "bitflip:1", "enc1.qfs", "--errors", "1")),
        ("cl6", ["gen", "--family", "cluster", "--qubits", "6"]),
        ("bf2", ["gen", "--family", "bitflip", "--n", "2"]),
        ("cl6enc2", code("encode", "bitflip:2", "cl6.qfs")),
        ("cl6err2", code("inject", "bitflip:2", "cl6enc2.qfs", "--errors", "0,13,53")),
    ]:
        argv = [arg if not arg.endswith(".qfs") else str(directory / arg) for arg in argv]
        assert main([*argv, "-o", str(directory / f"{name}.qfs")]) == 0
    # cluster-14 without its last string |1...1>.
    lines = (directory / "cl14.qfs").read_text().splitlines(keepends=True)
    (directory / "cl14h.qfs").write_text("".join(lines[:-1]))
    # cantor-2 with other line ends, with its 2nd and 3rd records swapped,
    # and with its 2nd record twice.
    lines = (directory / "c2.qfs").read_text().splitlines(keepends=True)
    for name, newline in (("c2crlf", "\r\n"), ("c2cr", "\r")):
        (directory / f"{name}.qfs").write_bytes("".join(lines).replace("\n", newline).encode())
    blank = lines.index("\n")
    first, second = blank + 2, blank + 3
    swapped = [*lines[:first], lines[second], lines[first], *lines[second + 1 :]]
    (directory / "unordered.qfs").write_text("".join(swapped))
    (directory / "duplicate.qfs").write_text("".join([*lines[: first + 1], *lines[first:]]))
    (directory / "cantor.rule").write_text(CANTOR_RULE)
    (directory / "s0.rule").write_text(CANTOR_RULE.replace("s 3\n", "s 0\n"))
    # The library's s = 11 rule, whose one-digit slot string |10> is written basis:10,.
    rule = representative_rule(2, 11, 0, 11)
    save_rule(rule, directory / "rep11.rule")
    save_state(build_initial(11), directory / "init11.qfs")
    save_state(apply_scale_rule(build_initial(11), rule), directory / "step11.qfs")
    # Rules whose line 8 reads a state refused at its line 12 and at its header.
    for name in ("unordered", "wide"):
        (directory / f"{name}slot.rule").write_text(slot_rule(f"{name}.qfs"))
    save_state(fourier(64), directory / "f64.qfs")
    save_state(fourier(64, ((63, 63),)), directory / "f64h.qfs")
    # All 16 strings at phase order 2**70, whose p no 128-bit lane holds:
    # a product in qubits 0 and 3, and a CZ between qubits 1 and 2.
    order, amp = 2**70, Amplitude(0, ((2, 4),))
    entries = {
        x: amp.shifted(2**6 * (x[0] + 3 * x[3]) + order // 2 * x[1] * x[2], order)
        for x in itertools.product((0, 1), repeat=4)
    }
    save_state(SparseState(2, 4, order, entries), directory / "r70.qfs")
    cluster = build_cluster(5)
    save_state(cluster.apply_bit_flip(1).apply_sigma_z(3), directory / "cl5x1z3.qfs")
    save_state(cluster.apply_bit_flip(0).apply_sigma_z(2), directory / "cl5x0z2.qfs")
    save_state(build_cluster(6).apply_bit_flip(1).apply_sigma_z(5), directory / "cl6x1z5.qfs")
    save_state(build_cluster(8), directory / "cl8.qfs")
    save_state(build_cluster(8).apply_bit_flip(0).apply_sigma_z(7), directory / "cl8x0z7.qfs")
    for q in (5, 10):
        save_state(SparseState.basis_state(2, (0,) * q), directory / f"zero{q}.qfs")
    save_state(SparseState.basis_state(2, (0, 1, 1)), directory / "ket011.qfs")
    # GHZ-5, and its copies with |11111> turned by i and by e^(i pi/4);
    # GHZ-6, and its copy turned by e^(i pi/4).
    half = Amplitude.inv_sqrt(2)
    for name, q, phase in (("ghz5", 5, 0), ("ghz5s", 5, 2), ("ghz5t", 5, 1), ("ghz6", 6, 0), ("ghz6t", 6, 1)):
        ghz = {(0,) * q: half, (1,) * q: half.shifted(phase, 8)}
        save_state(SparseState(2, q, 8, ghz), directory / f"{name}.qfs")
    # |+> and its turns by 2 pi/2**40 and by a quarter, at R = 2**40; and
    # a turn by 2 pi/2**65.
    for name, order, phase in (
        ("plus40", 2**40, 0), ("turned40", 2**40, 1), ("quarter40", 2**40, 2**38), ("root65", 2**65, 1)
    ):
        turned = SparseState(2, 1, order, {(0,): half, (1,): half.shifted(phase, order)})
        save_state(turned, directory / f"{name}.qfs")
    for name, text in [
        ("plus0", qubit_text(2, "00 0 2:1", "10 0 2:1")),
        ("zeroplus", qubit_text(2, "00 0 2:1", "01 0 2:1")),
        # A phase index of more digits than int() converts.
        ("long", qubit_text(1, f"0 {'7' * 5000} 1")),
        ("wide", qubit_text(20000, f"{'0' * 20000} 0 1")),
        # |000> + |001>: the second component alone has a flipped block.
        ("mixed3", qubit_text(3, "000 0 2:1", "001 0 2:1")),
        # Magnitudes 1/sqrt(3) and sqrt(2/3), whose Bell pieces do not sum
        # into the exact ring.
        ("uneven", qubit_text(1, "0 0 3:1", "1 0 2:-1,3:1")),
        ("empty2", qubit_text(2)),
    ]:
        (directory / f"{name}.qfs").write_text(text)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def output_path(argv):
    """The file that ``-o NAME`` or ``--svg=NAME`` names, or None."""
    if "-o" in argv:
        return Path(argv[argv.index("-o") + 1])
    if argv[-1].startswith("--svg="):
        return Path(argv[-1].partition("=")[2])
    return None


def transcript(argv):
    """``qfs argv``'s exit code and the SHA-256 of its stdout and stderr, and
    of the file it writes, if any, with that file's mode under umask 022."""
    out, err = io.StringIO(), io.StringIO()
    umask = os.umask(0o022)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = main(argv)
    finally:
        os.umask(umask)
    result = {"argv": argv, "exit": exit_code, "stdout_sha256": sha256(out.getvalue().encode())}
    result["stderr_sha256"] = sha256(err.getvalue().encode())
    written = output_path(argv)
    if written is not None and written.exists():
        result["file_sha256"] = sha256(written.read_bytes())
        result["file_mode"] = oct(written.stat().st_mode & 0o777)
        written.unlink()
    return result


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("transcript_inputs")
    write_inputs(directory)
    return directory


GOLDENS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_goldens_cover_every_case():
    assert [golden["argv"] for golden in GOLDENS] == CASES


def case_id(golden):
    """The argv without flag names and ``out.*``, a run of cuts as first-last."""
    argv = golden["argv"]
    cuts = argv[argv.index("--cut") + 1 :: 2] if "--cut" in argv else []
    words = [arg for arg in argv[: len(argv) - 2 * len(cuts)] if arg[0] != "-" and not arg.startswith("out.")]
    return "-".join([*words, *([f"cut{cuts[0]}-{cuts[-1]}"] if cuts else [])])


@pytest.mark.parametrize(
    "golden, numpy_importable",
    [
        pytest.param(golden, importable, id=case_id(golden) + ("" if importable else "-without-numpy"))
        for importable in (True, False)
        for golden in GOLDENS
    ],
)
def test_transcript(golden, numpy_importable, inputs, monkeypatch):
    if not numpy_importable:
        monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.chdir(inputs)
    assert transcript(golden["argv"]) == golden


def regenerate():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        write_inputs(Path(name))
        os.chdir(name)
        try:
            goldens = [transcript(argv) for argv in CASES]
        finally:
            os.chdir(cwd)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, goldens)) + "\n]\n")


if __name__ == "__main__":
    regenerate()
