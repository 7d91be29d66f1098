"""Byte identity of ``qfs analyze --cut``: the exit code and the SHA-256 of
stdout and of stderr of each transcript in ``golden/analyze_cuts.json``.

The inputs take both row forms of the Schmidt sweep from both ends: full
supports (cluster-14, the 64 x 64 Fourier state) and the same without one
string, which hold a zero lane for it; sparse supports (gem-4, cantor-3,
and cantor-8 at all 255 cuts and at its last alone); and a full support
whose field is too wide for lanes.  Run this file as a script to rewrite
the goldens from the qfractal on the path.
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

from qfractal import Amplitude, SparseState, save_state
from qfractal.cli import main
from sample_states import fourier

GOLDEN = Path(__file__).parent / "golden" / "analyze_cuts.json"


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
]


def write_inputs(directory):
    """The files the transcripts read, written into ``directory``."""
    for name, argv in [
        ("cl14", ["cluster", "--qubits", "14"]),
        ("gem4", ["bellgem", "--n", "4", "--sign", "+"]),
        ("c3", ["cantor", "--n", "3"]),
        ("c8", ["cantor", "--n", "8"]),
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


def transcript(argv):
    """``qfs argv``'s exit code and the SHA-256 of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = [hashlib.sha256(text.getvalue().encode()).hexdigest() for text in (out, err)]
    return {"argv": argv, "exit": code, "stdout_sha256": digest[0], "stderr_sha256": digest[1]}


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
    return f"{argv[2]}:{argv[4]}-{argv[-1]}"


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
