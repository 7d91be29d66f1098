"""Command-line surface: exit codes, golden stdout, and file flows."""

import itertools
import json
import resource
import subprocess
import sys
import time

import pytest

from qfractal import Amplitude, SparseState, build_cantor, load_state, save_rule, save_state
from qfractal.cli import main
from qfractal.construct import representative_rule
from test_transcripts import CASES, GOLDENS, write_inputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_prints_twelve_decimals(self, capsys):
        code, out, _ = run(capsys, "dim", "--c", "2", "--s", "3")
        assert code == 0
        assert out == "0.630929753571\n"

    def test_flat_and_equal_cases(self, capsys):
        assert run(capsys, "dim", "--c", "2", "--s", "2")[1] == "1.000000000000\n"
        assert run(capsys, "dim", "--c", "3", "--s", "1")[1] == "1.584962500721\n"

    def test_invalid_parameters_are_usage_errors(self, capsys):
        assert run(capsys, "dim", "--c", "1", "--s", "3")[0] == 2


class TestGen:
    def test_cantor_file_contents(self, capsys, tmp_path):
        target = tmp_path / "c2.qfs"
        code, out, _ = run(capsys, "gen", "--family", "cantor", "--n", "2", "-o", str(target))
        assert code == 0
        assert out == ""
        assert load_state(target) == build_cantor(2)

    def test_all_families_generate(self, capsys, tmp_path):
        cases = [
            ["--family", "representative", "--c", "3", "--s", "2", "--n", "2"],
            ["--family", "bellgem", "--n", "3", "--sign", "-"],
            ["--family", "bitflip", "--n", "2", "--logical", "1"],
            ["--family", "cluster", "--qubits", "5"],
        ]
        for k, extra in enumerate(cases):
            target = tmp_path / f"state{k}.qfs"
            assert run(capsys, "gen", *extra, "-o", str(target))[0] == 0
            assert load_state(target).norm_squared() == 1

    def test_missing_family_parameters(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "cantor", "-o", str(tmp_path / "x.qfs"))
        assert code == 2
        assert "requires" in err

    def test_guard_violation_exit_code(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "gen", "--family", "representative", "--c", "2", "--s", "2", "--n", "14",
            "-o", str(tmp_path / "x.qfs"),
        )
        assert code == 3

    def test_identical_invocations_write_identical_bytes(self, capsys, tmp_path):
        first, second = tmp_path / "a.qfs", tmp_path / "b.qfs"
        run(capsys, "gen", "--family", "cluster", "--qubits", "4", "-o", str(first))
        run(capsys, "gen", "--family", "cluster", "--qubits", "4", "-o", str(second))
        assert first.read_bytes() == second.read_bytes()


class TestVerifyStep:
    @pytest.fixture()
    def cantor_files(self, tmp_path):
        save_state(build_cantor(1), tmp_path / "prev.qfs")
        save_state(build_cantor(2), tmp_path / "next.qfs")
        save_rule(representative_rule(2, 3, 1, 3), tmp_path / "step.rule")
        return tmp_path

    def test_valid_step(self, capsys, cantor_files):
        code, out, _ = run(
            capsys, "verify-step",
            "--prev", str(cantor_files / "prev.qfs"),
            "--next", str(cantor_files / "next.qfs"),
            "--rule", str(cantor_files / "step.rule"),
        )
        assert code == 0
        assert "extracted_s: 3" in out
        assert out.endswith("valid: yes\n")
        assert out.count(": pass") == 6

    def test_invalid_step(self, capsys, cantor_files):
        code, out, _ = run(
            capsys, "verify-step",
            "--prev", str(cantor_files / "prev.qfs"),
            "--next", str(cantor_files / "prev.qfs"),
            "--rule", str(cantor_files / "step.rule"),
        )
        assert code == 1
        assert "extracted_s: -" in out
        assert out.endswith("valid: no\n")

    def test_malformed_rule_is_a_parse_error(self, capsys, cantor_files):
        bad = cantor_files / "bad.rule"
        bad.write_text("qfs-rule/1\nc 2\ns 3\nphase_order 8\n\ncoeff 0,0 0\n")
        code, _, err = run(
            capsys, "verify-step",
            "--prev", str(cantor_files / "prev.qfs"),
            "--next", str(cantor_files / "next.qfs"),
            "--rule", str(bad),
        )
        assert code == 2
        assert "error:" in err

    def test_output_guard_fires_before_the_products_are_built(self, tmp_path):
        # prev^(x3) of cantor-5 has 243**3 entries.  Under a 1 GiB address-space
        # cap, building it first ends in "error: out of memory" with no report.
        save_state(build_cantor(5), tmp_path / "c5.qfs")
        slots = "".join(f"slot {j} 0 predecessor\n" for j in (1, 2, 3))
        (tmp_path / "cube.rule").write_text(f"qfs-rule/1\nc 3\ns 1\nphase_order 8\n\n{slots}coeff 0,0,0 0\n")
        save_state(SparseState.basis_state(3, (0,) * 96), tmp_path / "next.qfs")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = ["verify-step", "--rule", "cube.rule", "--prev", "c5.qfs", "--next", "next.qfs"]
        argv[2::2] = [str(tmp_path / name) for name in argv[2::2]]
        result = subprocess.run(
            [sys.executable, "-m", "qfractal", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert (result.returncode, result.stderr) == (1, "")
        checks = result.stdout.splitlines()[:6]
        assert [line.split(":")[0] for line in checks] == [
            "coefficient_count",
            "coefficient_magnitudes",
            "predecessor_present",
            "slot_orthonormality",
            "reconstruction",
            "norm",
        ]
        assert checks[4] == "reconstruction: FAIL (output would exceed 1000000 entries)"
        assert result.stdout.endswith("valid: no\n")


class TestAnalyze:
    def test_summary_lines(self, capsys, tmp_path):
        target = tmp_path / "c2.qfs"
        run(capsys, "gen", "--family", "cantor", "--n", "2", "-o", str(target))
        code, out, _ = run(capsys, "analyze", "--state", str(target), "--cut", "2")
        assert code == 0
        assert out == (
            "local_dim 3\nnum_qudits 4\nphase_order 8\n"
            "family cantor\nc 2\ns 3\nn 2\n"
            "norm2 1\nsupport 9\nuniform_probability 1/9\nschmidt_rank[2] 1\n"
        )

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        assert run(capsys, "analyze", "--state", str(tmp_path / "gone.qfs"))[0] == 2

    def test_corrupt_file_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.qfs"
        bad.write_text("qfs/1\nlocal_dim 2\n\n")
        assert run(capsys, "analyze", "--state", str(bad))[0] == 2


class TestScaling:
    def test_cantor_ratios(self, capsys, tmp_path):
        paths = []
        for n in range(4):
            target = tmp_path / f"c{n}.qfs"
            run(capsys, "gen", "--family", "cantor", "--n", str(n), "-o", str(target))
            paths.append(str(target))
        code, out, _ = run(capsys, "scaling", "--states", *paths)
        assert code == 0
        assert out == (
            "p[0] 1\np[1] 1/3\np[2] 1/9\np[3] 1/27\n"
            "ratio[0] 3\nratio[1] 3\nratio[2] 3\n"
        )


class TestCode:
    def test_encode_inject_decode_flow(self, capsys, tmp_path):
        logical = tmp_path / "logical.qfs"
        encoded = tmp_path / "encoded.qfs"
        corrupted = tmp_path / "corrupted.qfs"
        decoded = tmp_path / "decoded.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "0", "--logical", "1", "-o", str(logical))
        assert run(
            capsys, "code", "encode", "--spec", "bitflip:2", "--state", str(logical), "-o", str(encoded)
        )[0] == 0
        assert run(
            capsys, "code", "inject", "--spec", "bitflip:2", "--state", str(encoded),
            "--errors", "4", "-o", str(corrupted),
        )[0] == 0
        code, out, _ = run(
            capsys, "code", "decode", "--spec", "bitflip:2", "--state", str(corrupted), "-o", str(decoded)
        )
        assert code == 0
        assert out == "corrections: (1,1)\nsuccess: yes\n"
        assert load_state(decoded) == load_state(logical)

    def test_roundtrip_verdicts(self, capsys, tmp_path):
        logical = tmp_path / "one.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "0", "--logical", "1", "-o", str(logical))
        code, out, _ = run(
            capsys, "code", "roundtrip", "--spec", "bitflip:1", "--state", str(logical), "--errors", "0"
        )
        assert (code, out) == (0, "roundtrip: ok\n")
        code, out, _ = run(
            capsys, "code", "roundtrip", "--spec", "bitflip:1", "--state", str(logical), "--errors", "0,1"
        )
        assert (code, out) == (1, "roundtrip: fail\n")

    @pytest.mark.parametrize("qubits", [9, 10])
    def test_roundtrip_refuses_a_non_repetition_spec_before_encoding(self, capsys, tmp_path, qubits):
        # The Bell encoding of 9 qubits has 262144 entries and that of 10
        # qubits trips the entries guard; neither may be built.
        source = tmp_path / "cluster.qfs"
        run(capsys, "gen", "--family", "cluster", "--qubits", str(qubits), "-o", str(source))
        start = time.perf_counter()
        code, out, err = run(capsys, "code", "roundtrip", "--spec", "bellpair:1", "--state", str(source))
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", "error: majority decoding applies to the repetition code only\n")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("bitflip:1", "7 qubits do not split into 3**1 blocks"),
            ("bellpair:1", "7 qubits do not split into 2**1 blocks"),
            ("bellpair:7", "7 qubits do not split into 2**7 blocks"),
            ("bitflip:100000000", "7 qubits do not split into 3**100000000 blocks"),
        ],
    )
    @pytest.mark.parametrize("action", ["inject", "decode"])
    def test_refuses_a_register_of_partial_blocks(self, capsys, tmp_path, spec, message, action):
        source, target = tmp_path / "cluster.qfs", tmp_path / "out.qfs"
        run(capsys, "gen", "--family", "cluster", "--qubits", "7", "-o", str(source))
        argv = ["code", action, "--spec", spec, "--state", str(source), "--errors", "1", "-o", str(target)]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not target.exists()

    @pytest.mark.parametrize("spec, qubits", [("bitflip:2", 9), ("bitflip:1", 12), ("bellpair:3", 8)])
    def test_inject_accepts_whole_blocks(self, capsys, tmp_path, spec, qubits):
        source, target = tmp_path / "cluster.qfs", tmp_path / "out.qfs"
        run(capsys, "gen", "--family", "cluster", "--qubits", str(qubits), "-o", str(source))
        argv = ["code", "inject", "--spec", spec, "--state", str(source), "--errors", "0", "-o", str(target)]
        assert run(capsys, *argv) == (0, "", "")
        assert load_state(target) == load_state(source).apply_bit_flip(0)

    def test_bad_spec_is_a_usage_error(self, capsys, tmp_path):
        logical = tmp_path / "zero.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "0", "-o", str(logical))
        assert run(capsys, "code", "encode", "--spec", "parity:1", "--state", str(logical))[0] == 2
        assert run(capsys, "code", "encode", "--spec", "bitflip:1", "--state", str(logical))[0] == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("bitflip", "code spec must look like bitflip:LEVELS, got 'bitflip'"),
            ("bitflip:two", "levels is not an integer: 'two'"),
        ],
    )
    def test_a_malformed_spec_names_its_defect(self, capsys, tmp_path, spec, message):
        logical = tmp_path / "zero.qfs"
        assert main(["gen", "--family", "bitflip", "--n", "0", "-o", str(logical)]) == 0
        argv = ["code", "encode", "--spec", spec, "--state", str(logical), "-o", str(tmp_path / "out.qfs")]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", ["encode", "inject", "decode", "roundtrip"])
    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_a_level_below_one_is_a_usage_error(self, capsys, tmp_path, action, levels):
        logical = tmp_path / "zero.qfs"
        assert main(["gen", "--family", "bitflip", "--n", "0", "-o", str(logical)]) == 0
        argv = ["code", action, "--spec", f"bitflip:{levels}", "--state", str(logical), "-o", str(tmp_path / "out.qfs")]
        assert run(capsys, *argv) == (2, "", f"error: levels must be >= 1, got {levels}\n")
        assert not (tmp_path / "out.qfs").exists()


class TestLucheck:
    def test_equivalent_pair(self, capsys, tmp_path):
        a, b = tmp_path / "a.qfs", tmp_path / "b.qfs"
        run(capsys, "gen", "--family", "cluster", "--qubits", "2", "-o", str(a))
        run(capsys, "gen", "--family", "cluster", "--qubits", "2", "-o", str(b))
        code, out, _ = run(capsys, "lucheck", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.splitlines()[0] == "equivalent: yes"
        assert out.splitlines()[1] == "gates: I I"

    def test_inequivalent_pair(self, capsys, tmp_path):
        a, b = tmp_path / "a.qfs", tmp_path / "b.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "1", "-o", str(a))
        run(capsys, "gen", "--family", "cluster", "--qubits", "3", "-o", str(b))
        code, out, _ = run(capsys, "lucheck", "--a", str(a), "--b", str(b))
        assert code == 1
        assert out == "equivalent: no\n"

    @pytest.mark.parametrize(
        "b_records, expected",
        [
            # e^(2 pi i/2**40) passes the float tolerance; F_p refuses it.
            (["0 0 2:1", "1 1 2:1"], (1, "equivalent: no\n", "")),
            (["0 0 2:1", "1 274877906944 2:1"], (0, "equivalent: yes\ngates: S\nfidelity: 1.000000000000\n", "")),
        ],
        ids=["turned", "quarter-turn"],
    )
    def test_decided_exactly_at_phase_order_two_to_the_forty(self, capsys, tmp_path, b_records, expected):
        header = ["qfs/1", "local_dim 2", "num_qudits 1", "phase_order 1099511627776", ""]
        a, b = tmp_path / "a.qfs", tmp_path / "b.qfs"
        a.write_text("\n".join([*header, "0 0 2:1", "1 0 2:1", ""]))
        b.write_text("\n".join([*header, *b_records, ""]))
        assert run(capsys, "lucheck", "--a", str(a), "--b", str(b)) == expected

    def test_a_root_past_the_field_limit_is_refused(self, capsys, tmp_path):
        # The exact test needs a field with a root of order 2**65; none is built.
        a = tmp_path / "a.qfs"
        header = ["qfs/1", "local_dim 2", "num_qudits 1", f"phase_order {2**65}", ""]
        a.write_text("\n".join([*header, "0 0 2:1", "1 1 2:1", ""]))
        stderr = f"error: root order {2**65} exceeds {2**64}\n"
        assert run(capsys, "lucheck", "--a", str(a), "--b", str(a)) == (3, "", stderr)

    def test_mismatched_sizes_are_a_usage_error(self, capsys, tmp_path):
        a, b = tmp_path / "a.qfs", tmp_path / "b.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "1", "-o", str(a))
        run(capsys, "gen", "--family", "bellgem", "--n", "1", "--sign", "-", "-o", str(b))
        assert run(capsys, "lucheck", "--a", str(a), "--b", str(b))[0] == 2

    def test_guard_exit(self, capsys, tmp_path):
        a = tmp_path / "wide.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "3", "-o", str(a))
        assert run(capsys, "lucheck", "--a", str(a), "--b", str(a)) == (
            3,
            "",
            "error: search work exceeds 4194304\n",
        )


class TestViz:
    def test_ascii_rows(self, capsys, tmp_path):
        c0, c1 = tmp_path / "c0.qfs", tmp_path / "c1.qfs"
        run(capsys, "gen", "--family", "cantor", "--n", "0", "-o", str(c0))
        run(capsys, "gen", "--family", "cantor", "--n", "1", "-o", str(c1))
        code, out, _ = run(capsys, "viz", "--state", str(c0), "--state", str(c1), "--ascii")
        assert code == 0
        assert out == "#..\n###......\n"

    def test_svg_output_file(self, capsys, tmp_path):
        c1 = tmp_path / "c1.qfs"
        run(capsys, "gen", "--family", "cantor", "--n", "1", "-o", str(c1))
        target = tmp_path / "c1.svg"
        assert run(capsys, "viz", "--state", str(c1), "--svg", str(target))[0] == 0
        assert target.read_text().startswith("<svg ")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "dim", "--c", "2")[0] == 2

    def test_module_entry_point_runs_in_a_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "qfractal", "dim", "--c", "2", "--s", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "0.630929753571\n"


class TestErrorExits:
    def test_non_ascii_digit_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.qfs"
        bad.write_text("qfs/1\nlocal_dim 3\nnum_qudits 1\nphase_order 8\n\n² 0 1\n")
        code, out, err = run(capsys, "analyze", "--state", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 6:")

    def test_large_magnitude_base_is_refused_before_factoring(self, capsys, tmp_path):
        bad = tmp_path / "big.qfs"
        bad.write_text("qfs/1\nlocal_dim 2\nnum_qudits 1\nphase_order 8\n\n0 0 10000000000000061:2\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--state", str(bad))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == "error: line 6: magnitude base must be <= 1048576, got 10000000000000061\n"

    def test_memory_error_is_a_resource_exit(self, capsys, tmp_path, monkeypatch):
        def exhausted(n):
            raise MemoryError

        monkeypatch.setattr("qfractal.cli.build_cantor", exhausted)
        code, out, err = run(capsys, "gen", "--family", "cantor", "--n", "11", "-o", str(tmp_path / "c.qfs"))
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"
        assert not (tmp_path / "c.qfs").exists()


class TestSizeGuard:
    # Each family at its first refused size, and at an exponent whose power
    # would take minutes or all memory to form.  Under a 1 GiB address-space
    # cap every one must be refused by the guard, not end in "out of memory".
    FIRST_REFUSED = {
        "representative-qudits": (["--family", "representative", "--c", "2", "--s", "2", "--n", "14"], "10000 qudits"),
        "representative-keys-wide": (
            ["--family", "representative", "--c", "10000", "--s", "1000000", "--n", "1"],
            "8589934592 key bits",
        ),
        "representative-keys-deep": (
            ["--family", "representative", "--c", "100", "--s", "1000", "--n", "2"],
            "8589934592 key bits",
        ),
        "cantor": (["--family", "cantor", "--n", "13"], "1000000 entries"),
        "bitflip": (["--family", "bitflip", "--n", "9"], "10000 qudits"),
        "cluster": (["--family", "cluster", "--qubits", "20"], "1000000 entries"),
        "bellgem": (["--family", "bellgem", "--n", "6", "--sign", "+"], "1000000 entries"),
    }
    HUGE_EXPONENT = {
        "representative": (
            ["--family", "representative", "--c", "10", "--s", "2", "--n", "1000000000"],
            "10000 qudits",
        ),
        "cantor": (["--family", "cantor", "--n", "1000000000"], "10000 qudits"),
        "bitflip": (["--family", "bitflip", "--n", "1000000000"], "10000 qudits"),
        "cluster": (["--family", "cluster", "--qubits", "1000000000"], "10000 qudits"),
        "bellgem": (["--family", "bellgem", "--n", "1000000000", "--sign", "-"], "1000000 entries"),
    }

    @staticmethod
    def run_capped(argv):
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "qfractal", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        return result, time.perf_counter() - start

    @pytest.mark.parametrize("flags, limit", list(FIRST_REFUSED.values()), ids=list(FIRST_REFUSED))
    def test_first_refused_size(self, tmp_path, flags, limit):
        result, _ = self.run_capped(["gen", *flags, "-o", str(tmp_path / "out.qfs")])
        assert (result.returncode, result.stderr, result.stdout) == (3, f"error: output would exceed {limit}\n", "")
        assert not (tmp_path / "out.qfs").exists()

    @pytest.mark.parametrize("flags, limit", list(HUGE_EXPONENT.values()), ids=list(HUGE_EXPONENT))
    def test_huge_exponent_refused_at_once(self, tmp_path, flags, limit):
        result, seconds = self.run_capped(["gen", *flags, "-o", str(tmp_path / "out.qfs")])
        assert seconds < 1
        assert (result.returncode, result.stderr, result.stdout) == (3, f"error: output would exceed {limit}\n", "")

    @pytest.mark.parametrize(
        "spec, limit",
        [
            ("bitflip:9", "10000 qudits"),
            ("bellpair:5", "1000000 entries"),
            ("bitflip:1000000000", "10000 qudits"),
            ("bellpair:1000000000", "1000000 entries"),
        ],
    )
    def test_code_encode(self, tmp_path, spec, limit):
        source = tmp_path / "one.qfs"
        assert main(["gen", "--family", "bitflip", "--n", "0", "--logical", "1", "-o", str(source)]) == 0
        argv = ["code", "encode", "--spec", spec, "--state", str(source), "-o", str(tmp_path / "out.qfs")]
        result, seconds = self.run_capped(argv)
        assert seconds < 1
        stderr = f"error: encoded state would exceed {limit}\n"
        assert (result.returncode, result.stderr, result.stdout) == (3, stderr, "")
        assert not (tmp_path / "out.qfs").exists()

    @pytest.mark.parametrize("levels", [3, 8])
    def test_lucheck_is_refused_before_a_vector_is_built(self, tmp_path, levels):
        # 27 and 6561 qubits: the search's first charge passes the budget.
        state = tmp_path / "wide.qfs"
        assert main(["gen", "--family", "bitflip", "--n", str(levels), "-o", str(state)]) == 0
        result, seconds = self.run_capped(["lucheck", "--a", str(state), "--b", str(state)])
        assert seconds < 1
        assert (result.returncode, result.stderr, result.stdout) == (3, "error: search work exceeds 4194304\n", "")

    def test_the_sizes_below_are_built(self, tmp_path):
        source = tmp_path / "one.qfs"
        assert main(["gen", "--family", "bitflip", "--n", "0", "--logical", "1", "-o", str(source)]) == 0
        for spec in ("bitflip:8", "bellpair:4"):
            argv = ["code", "encode", "--spec", spec, "--state", str(source), "-o", str(tmp_path / "enc.qfs")]
            assert main(argv) == 0
        assert main(["gen", "--family", "bitflip", "--n", "8", "-o", str(tmp_path / "b8.qfs")]) == 0


def test_cantor_10_is_streamed(tmp_path):
    # Cantor-10 is a 61 MB file: gen and analyze of it each stay under 100 MB
    # of max RSS.
    target = str(tmp_path / "c10.qfs")
    commands = [["gen", "--family", "cantor", "--n", "10", "-o", target], ["analyze", "--state", target]]
    result = subprocess.run(
        [sys.executable, "-c", MAX_RSS_CHILD, json.dumps(commands)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert [(code, kib < 100 * 1024) for code, kib in json.loads(result.stdout)] == [(0, True), (0, True)]


# Runs each argv of a JSON list as ``python -m qfractal`` and prints, per
# command, its exit code and max RSS in KiB, read from wait4.  It runs in an
# interpreter of its own because a child's max RSS counts the pages it
# shared with its parent until exec: under a large test process, that parent.
MAX_RSS_CHILD = """
import json, os, sys
report = []
for argv in json.loads(sys.argv[1]):
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "qfractal", *argv], os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    report.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss])
print(json.dumps(report))
"""


class TestCutGuard:
    def test_wide_sparse_cut_answers(self, tmp_path):
        # sum_x |x>|x> on 12 + 12 qubits: a 4096 x 4096 coefficient matrix
        # with one cell per row and column.
        amp = Amplitude(0, ((2, 12),))
        state = SparseState(2, 24, 8, {digits * 2: amp for digits in itertools.product((0, 1), repeat=12)})
        source = tmp_path / "pairs.qfs"
        save_state(state, source)
        result = subprocess.run(
            [sys.executable, "-m", "qfractal", "analyze", "--state", str(source), "--cut", "11", "--cut", "12"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.endswith("schmidt_rank[11] 2048\nschmidt_rank[12] 4096\n")

    def test_dense_cut_refused_within_its_budget(self, tmp_path):
        # The 450 x 450 Fourier matrix, the smallest even size whose packed
        # elimination is charged past the budget (448 x 448 fits).
        amps = [Amplitude(k, ((450, 2),)) for k in range(450)]
        entries = {(a, b): amps[a * b % 450] for a in range(450) for b in range(450)}
        state = SparseState(450, 2, 450, entries)
        source = tmp_path / "fourier.qfs"
        save_state(state, source)
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "qfractal", "analyze", "--state", str(source), "--cut", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert result.returncode == 3
        assert result.stderr == "error: cut 1: sweep work exceeds 4194304\n"
        assert result.stdout.endswith("support 202500\nuniform_probability 1/202500\n")


class TestCodeGuard:
    # Building 2**100000000 or 3**100000000 takes minutes; both guards must
    # refuse from the number of levels alone.
    @pytest.mark.parametrize(
        "action, code, stderr",
        [
            ("encode", 3, "error: encoded state would exceed 10000 qudits\n"),
            ("decode", 2, "error: 1 qubits do not split into 3**100000000 blocks\n"),
        ],
        ids=["encode", "decode"],
    )
    def test_deep_spec_refused_at_once(self, tmp_path, action, code, stderr):
        source = tmp_path / "one.qfs"
        assert main(["gen", "--family", "bitflip", "--n", "0", "--logical", "1", "-o", str(source)]) == 0
        argv = ["code", action, "--spec", "bitflip:100000000", "--state", str(source), "-o", str(tmp_path / "out.qfs")]
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "qfractal", *argv], capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert result.returncode == code
        assert result.stderr == stderr
        assert result.stdout == ""
        assert not (tmp_path / "out.qfs").exists()


# Runs each argv of a JSON list through the CLI in one interpreter, in the
# directory named next; prints, per command, its exit code and which of
# dataclasses, numpy and qfractal.ranks were loaded by then.
COLD_START_CHILD = """
import json, os, sys
import qfractal.cli
def loaded():
    return [name for name in ("dataclasses", "numpy", "qfractal.ranks") if name in sys.modules]
report = [[["import"], 0, loaded()]]
os.chdir(sys.argv[2])
for argv in json.loads(sys.argv[1]):
    code = qfractal.cli.main(argv)
    report.append([argv, code, loaded()])
print(json.dumps(report))
"""


class TestColdStart:
    """No subcommand loads numpy, which only ``SparseState.to_dense`` imports,
    nor dataclasses, whose import and class bodies once took a third of the
    CLI's import time: the transcript corpus runs in one child from the
    inputs ``write_inputs`` makes.  The Schmidt sweep's module is first
    compiled for ``analyze --cut``: neither the import, nor the corpus's
    ``gen``, ``dim``, ``scaling``, ``verify-step`` (whose slot vectors never
    meet or are refused unread) and ``analyze`` without a cut load it."""

    def test_no_command_loads_numpy(self, tmp_path):
        write_inputs(tmp_path)
        before_cut = [
            golden
            for golden in GOLDENS
            if golden["argv"][0] in ("gen", "dim", "scaling", "verify-step")
            or (golden["argv"][0] == "analyze" and "--cut" not in golden["argv"])
        ]
        first = [golden["argv"] for golden in before_cut] + [["analyze", "--state", "c2.qfs", "--cut", "1"]]
        result = subprocess.run(
            [sys.executable, "-c", COLD_START_CHILD, json.dumps(first + CASES), str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        exits = [golden["exit"] for golden in [*before_cut, {"exit": 0}, *GOLDENS]]
        assert [code for _, code, _ in report] == [0, *exits]
        assert [argv for argv, _, loaded in report if {"dataclasses", "numpy"} & set(loaded)] == []
        # report[0] is the import; the cut is the first command to load the sweep.
        assert [argv for argv, _, loaded in report[: len(first) + 1] if "qfractal.ranks" in loaded] == [first[-1]]
