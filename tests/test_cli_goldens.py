"""Byte identity of the files the CLI writes: SHA-256 digests of ``qfs gen``
for every family, of the bitflip code chain and of Bell-pair encodings,
fixed from a known-good build so that any change to the bytes shows here."""

import hashlib

import pytest

from qfractal import SparseState, save_state
from qfractal.cli import main

GEN_DIGESTS = {
    ("--family", "cantor", "--n", "0"): "eb106df1fdbba94f6c26f3588b66a4fef19646120dc1af2dd1e5922731d597e2",
    ("--family", "cantor", "--n", "1"): "4c95c79a007288dd4a4420c63dfc9539cf62b675b44afafcd2d8cf16bfa1c35b",
    ("--family", "cantor", "--n", "2"): "824b83853319dc2390cd0c0b737c12f4791df9f8a4efe08a561f312f190032e6",
    ("--family", "cantor", "--n", "3"): "51a6d4f91b014bda712911d7c3688fc1ea85ec73b838afd2b19be302de1a6eb5",
    ("--family", "cantor", "--n", "4"): "98aed5decdabd8eb76990373d744b03ec0154bf968f496cbb85ca61b4dff7876",
    ("--family", "cantor", "--n", "5"): "6fdda77321b200babf4478c9179c678f900f8ec55e70487fbcc2b38997c81f9f",
    ("--family", "representative", "--c", "3", "--s", "2", "--n", "3"):
        "93ce15a9d8dc2b17e01642aabb79da29dd892ded5e24afa8b320f066ba67d673",
    ("--family", "bellgem", "--n", "4", "--sign", "+"):
        "af00cba077cbd4dee1ca2fb20b74b4f3f7152d93d7bddd0ae21a723029ead8e8",
    ("--family", "bellgem", "--n", "4", "--sign", "-"):
        "7c5872bb7bef5658df843762826f7a9779219a827f6f0ffb56593910e6cb0974",
    ("--family", "bitflip", "--n", "2"): "f674fc726fc2c46ed647ae39fd7526890a217097693576567c594a41fcf8b383",
    ("--family", "cluster", "--qubits", "6"): "a52c82bb2ef6febd2bee70563728c1d407fe3bd77c25e79c705744310169f653",
    # N > 10 writes digits joined by commas; N = 300 takes two bytes a digit.
    ("--family", "representative", "--c", "2", "--s", "11", "--n", "3"):
        "94e50d21f9f2c13870ac0a485fade68dc6ba1f26f5f225808d512eed5a14f9f8",
    ("--family", "representative", "--c", "3", "--s", "31", "--n", "2"):
        "df5f642c464fda34437fddb80675b6295add6af1791521199e26da27ef9823db",
    ("--family", "representative", "--c", "2", "--s", "300", "--n", "1"):
        "53253edd5a08c41c3824cea5e34f41c4b67dbc6df95fd69a502eb0ade2ae374c",
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", list(GEN_DIGESTS), ids=lambda argv: "-".join(argv[1::2]))
def test_gen_file_digest(tmp_path, argv):
    target = tmp_path / "out.qfs"
    assert main(["gen", *argv, "-o", str(target)]) == 0
    assert digest(target) == GEN_DIGESTS[argv]


def test_bitflip_code_chain_digests(tmp_path, capsys):
    source, encoded, injected, decoded = (tmp_path / name for name in ("src.qfs", "enc.qfs", "err.qfs", "dec.qfs"))
    assert main(["gen", "--family", "cluster", "--qubits", "6", "-o", str(source)]) == 0
    assert main(["code", "encode", "--spec", "bitflip:2", "--state", str(source), "-o", str(encoded)]) == 0
    assert digest(encoded) == "aeefdba90868234f1fcf87c56dace7dbcca0292ed922d2a33b21088f022a619e"
    spec = ["--spec", "bitflip:2", "--state", str(encoded), "--errors", "0,13,53", "-o", str(injected)]
    assert main(["code", "inject", *spec]) == 0
    assert digest(injected) == "7700ad090b74487d3d6882ccd933b978180a1657737cb3ef0c4e1e2924f6b5ac"
    capsys.readouterr()
    assert main(["code", "decode", "--spec", "bitflip:2", "--state", str(injected), "-o", str(decoded)]) == 0
    assert capsys.readouterr().out == "corrections: (1,0) (1,4) (1,17)\nsuccess: yes\n"
    assert digest(decoded) == "927df1de2ad1c4806d0c5783e4f7d603e4e3a43d378bb14c1d724ef5de97999a"


# Inputs to ``qfs code encode --spec bellpair:L``, each written by a callable
# taking its path; the last has magnitudes 1/sqrt(3) and sqrt(2/3), whose
# Bell pieces do not sum into the exact ring.
BELL_INPUTS = {
    "ket011": lambda path: save_state(SparseState.basis_state(2, (0, 1, 1)), path),
    "cluster3": lambda path: main(["gen", "--family", "cluster", "--qubits", "3", "-o", str(path)]),
    "bellgem2": lambda path: main(["gen", "--family", "bellgem", "--n", "2", "--sign", "+", "-o", str(path)]),
    "uneven": lambda path: path.write_text("qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 3:1\n1 0 2:-1,3:1\n"),
}
UNEVEN = "error: amplitudes at (0, 1) do not sum into the exact ring\n"
# (input, levels): exit code, stderr, SHA-256 of the written file (None if none).
BELL_GOLDENS = {
    ("ket011", 1): (0, "", "2944a2f5ff7409afcd1143a3757deec489cf81b532c514b34a966f0561d768e5"),
    ("ket011", 2): (0, "", "86190afac295e135329af468aad3b6a297fad0b48d22259f9373e1b39e0e6070"),
    ("cluster3", 1): (0, "", "39375e11c822f9e1cfaba5ed1cf31c6e7020a6108668c1417fbaa0758a4a85e5"),
    ("cluster3", 2): (0, "", "0aad75a8c707afde3f9a4e6af1a8b04d4d5b7cfa6e57a84fdaa3d5f202425705"),
    ("bellgem2", 1): (0, "", "75ed7769823df6eb4deac60e91a91bad4b27834a7a1ae033d8e41719baf7102f"),
    ("bellgem2", 2): (0, "", "b16d895c228a3c70899f7290f45cdf3b3e6618e2d6537d1a9fdb15c8ec87d1d7"),
    ("uneven", 1): (1, UNEVEN, None),
    ("uneven", 2): (1, UNEVEN, None),
}


@pytest.mark.parametrize("case", list(BELL_GOLDENS), ids=lambda case: f"{case[0]}-bellpair:{case[1]}")
def test_bell_encoding_digest(tmp_path, capsys, case):
    name, levels = case
    source, target = tmp_path / "in.qfs", tmp_path / "out.qfs"
    BELL_INPUTS[name](source)
    capsys.readouterr()
    code = main(["code", "encode", "--spec", f"bellpair:{levels}", "--state", str(source), "-o", str(target)])
    written = digest(target) if target.exists() else None
    assert (code, capsys.readouterr().err, written) == BELL_GOLDENS[case]
