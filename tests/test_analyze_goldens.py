"""Byte identity of ``qfs analyze --cut``, ``lucheck``, ``viz``, ``scaling``
and a refused ``code`` spec: the exit code and the SHA-256 of stdout, of
stderr and of any written file of each transcript in
``golden/analyze_transcripts.json``.

The ``analyze`` inputs take both row forms of the Schmidt sweep from both
ends: full supports (cluster-14, the 64 x 64 Fourier state) and the same
without one string, which hold a zero lane for it; sparse supports (gem-4,
cantor-3, and cantor-8 at all 255 cuts and at its last alone); and a full
support whose field is too wide for lanes.  Cuts 0 and 14 of cluster-14 are
refused after the header is printed.  The ``lucheck`` pairs are cluster-5
against itself, two of its X/Z images and |00000>; GHZ-5 against its S- and
T-phased copies; |+> against its 2 pi/2**40 turn and its quarter turn; and a
pair whose field would need a root of order 2**65.  ``viz`` and ``scaling``
read cantor 0-4, ``viz`` also cantor 5-8 as svg and two representative
states with N = 5 and N = 11.  ``code encode --spec bitflip:0`` is a usage
error.  Run this file as a script to rewrite the goldens from the qfractal
on the path.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

import pytest

from qfractal import Amplitude, SparseState, build_cluster, save_state
from qfractal.cli import main
from sample_states import fourier

GOLDEN = Path(__file__).parent / "golden" / "analyze_transcripts.json"

# --state arguments: cantor 0-4, and representative states with N = 5 and N = 11.
CANTORS = [arg for n in range(5) for arg in ("--state", f"c{n}.qfs")]
REPRESENTATIVES = ["--state", "rep5.qfs", "--state", "rep11.qfs"]


def cut_args(cuts):
    return [arg for cut in cuts for arg in ("--cut", str(cut))]


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
    *(["lucheck", "--a", "ghz5.qfs", "--b", b] for b in ("ghz5s.qfs", "ghz5t.qfs")),
    *(["lucheck", "--a", "plus40.qfs", "--b", b] for b in ("turned40.qfs", "quarter40.qfs")),
    ["lucheck", "--a", "root65.qfs", "--b", "root65.qfs"],
    *(["viz", *states, mode] for states in (CANTORS, REPRESENTATIVES) for mode in ("--ascii", "--svg=out.svg")),
    ["viz", *(arg for n in range(5, 9) for arg in ("--state", f"c{n}.qfs")), "--svg=out.svg"],
    ["scaling", "--states", *(f"c{n}.qfs" for n in range(5))],
    ["code", "encode", "--spec", "bitflip:0", "--state", "cl5.qfs", "-o", "out.qfs"],
]


def write_inputs(directory):
    """The files the transcripts read, written into ``directory``."""
    for name, argv in [
        ("cl14", ["cluster", "--qubits", "14"]),
        ("gem4", ["bellgem", "--n", "4", "--sign", "+"]),
        *((f"c{n}", ["cantor", "--n", str(n)]) for n in range(9)),
        ("cl5", ["cluster", "--qubits", "5"]),
        ("rep5", ["representative", "--c", "2", "--s", "5", "--n", "3"]),
        ("rep11", ["representative", "--c", "2", "--s", "11", "--n", "2"]),
    ]:
        assert main(["gen", "--family", *argv, "-o", str(directory / f"{name}.qfs")]) == 0
    # cluster-14 without its last string |1...1>.
    lines = (directory / "cl14.qfs").read_text().splitlines(keepends=True)
    (directory / "cl14h.qfs").write_text("".join(lines[:-1]))
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
    save_state(SparseState.basis_state(2, (0,) * 5), directory / "zero5.qfs")
    # GHZ-5, and its copies with |11111> turned by i and by e^(i pi/4).
    half = Amplitude.inv_sqrt(2)
    for name, phase in (("ghz5", 0), ("ghz5s", 2), ("ghz5t", 1)):
        ghz = {(0,) * 5: half, (1,) * 5: half.shifted(phase, 8)}
        save_state(SparseState(2, 5, 8, ghz), directory / f"{name}.qfs")
    # |+> and its turns by 2 pi/2**40 and by a quarter, at R = 2**40; and
    # a turn by 2 pi/2**65.
    for name, order, phase in (
        ("plus40", 2**40, 0), ("turned40", 2**40, 1), ("quarter40", 2**40, 2**38), ("root65", 2**65, 1)
    ):
        turned = SparseState(2, 1, order, {(0,): half, (1,): half.shifted(phase, order)})
        save_state(turned, directory / f"{name}.qfs")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def transcript(argv):
    """``qfs argv``'s exit code and the SHA-256 of its stdout and stderr,
    and of the file that ``--svg=NAME`` writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    result = {"argv": argv, "exit": code, "stdout_sha256": sha256(out.getvalue().encode())}
    result["stderr_sha256"] = sha256(err.getvalue().encode())
    if argv[-1].startswith("--svg="):
        written = Path(argv[-1].partition("=")[2])
        result["file_sha256"] = sha256(written.read_bytes())
        written.unlink()
    return result


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("analyze_inputs")
    write_inputs(directory)
    return directory


GOLDENS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_goldens_cover_every_case():
    assert [golden["argv"] for golden in GOLDENS] == CASES


def case_id(golden):
    argv = golden["argv"]
    if argv[0] == "analyze":
        return f"{argv[2]}:{argv[4]}-{argv[-1]}"
    return "-".join(arg for arg in argv if not arg.startswith("--") or arg.startswith("--svg"))


@pytest.mark.parametrize("golden", GOLDENS, ids=case_id)
def test_analyze_transcript(golden, inputs, monkeypatch):
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
