"""Command-line surface: exit codes, golden stdout, and file flows."""

import resource
import subprocess
import sys
import time

import pytest

from qfractal import build_cantor, load_state, save_rule, save_state
from qfractal.cli import main
from qfractal.construct import representative_rule


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

    def test_bad_spec_is_a_usage_error(self, capsys, tmp_path):
        logical = tmp_path / "zero.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "0", "-o", str(logical))
        assert run(capsys, "code", "encode", "--spec", "parity:1", "--state", str(logical))[0] == 2
        assert run(capsys, "code", "encode", "--spec", "bitflip:1", "--state", str(logical))[0] == 2


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

    def test_mismatched_sizes_are_a_usage_error(self, capsys, tmp_path):
        a, b = tmp_path / "a.qfs", tmp_path / "b.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "1", "-o", str(a))
        run(capsys, "gen", "--family", "bellgem", "--n", "1", "--sign", "-", "-o", str(b))
        assert run(capsys, "lucheck", "--a", str(a), "--b", str(b))[0] == 2

    def test_guard_exit(self, capsys, tmp_path):
        a = tmp_path / "wide.qfs"
        run(capsys, "gen", "--family", "bitflip", "--n", "2", "-o", str(a))
        assert run(capsys, "lucheck", "--a", str(a), "--b", str(a))[0] == 3


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

    def test_memory_error_is_a_resource_exit(self, capsys, tmp_path, monkeypatch):
        def exhausted(n):
            raise MemoryError

        monkeypatch.setattr("qfractal.cli.build_cantor", exhausted)
        code, out, err = run(capsys, "gen", "--family", "cantor", "--n", "11", "-o", str(tmp_path / "c.qfs"))
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"
        assert not (tmp_path / "c.qfs").exists()


class TestGemGuard:
    def test_refused_before_the_step_allocates(self, tmp_path):
        # Under a 1 GiB address-space cap, building the level-6 tensors first
        # ends in "error: out of memory"; the guard must answer before that.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = ["gen", "--family", "bellgem", "--n", "6", "--sign", "+", "-o", str(tmp_path / "g6.qfs")]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "qfractal", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert time.perf_counter() - start < 10
        assert result.returncode == 3
        assert result.stderr == "error: gem level 6 exceeds 1000000 entries\n"
        assert result.stdout == ""
        assert not (tmp_path / "g6.qfs").exists()
