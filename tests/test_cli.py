import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncplane.cli import main
from ncplane.expr import format_observable
from ncplane.heisenberg import AlgebraElement, moment_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlgebraCommands:
    def test_bracket_canonical_output(self, capsys):
        code, out, _ = run(capsys, "bracket", "q1*p2", "q2*p1")
        assert code == 0
        assert out.splitlines() == ["-q1*p1 + q2*p2 + theta*p1*p2"]

    def test_bracket_with_point_evaluation(self, capsys):
        code, out, _ = run(capsys, "bracket", "q1*p2", "q2*p1",
                           "--point", "1,2,3,4", "--theta", "0.5")
        assert code == 0
        assert out.splitlines()[1] == "value at (1, 2, 3, 4), theta=1/2: 11"

    def test_theta_accepts_ratio_and_decimal(self, capsys):
        ratio = run(capsys, "bracket", "q1", "q2",
                    "--point", "0,0,0,0", "--theta", "1/10")
        decimal = run(capsys, "bracket", "q1", "q2",
                      "--point", "0,0,0,0", "--theta", "0.1")
        assert ratio == decimal
        assert ratio[1].splitlines()[1] == "value at (0, 0, 0, 0), theta=1/10: 1/10"

    def test_vf_components(self, capsys):
        code, out, _ = run(capsys, "vf", "q1")
        assert code == 0
        assert out.splitlines() == ["q1: 0", "q2: theta", "p1: -1", "p2: 0"]

    def test_bopp(self, capsys):
        code, out, _ = run(capsys, "bopp", "q1")
        assert code == 0
        assert out.strip() == "q1 - 1/2*theta*p2"

    def test_cocycle_mixing(self, capsys):
        code, out, _ = run(capsys, "cocycle",
                           "1", "0", "0", "0", "0", "0",
                           "0", "0", "1", "0", "0", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "z1 = -1"
        assert lines[1] == "z2 = 0"
        assert lines[2] == "central value: -1"
        assert lines[3] == "double-sum convention: -1"

    def test_cocycle_momentum_pair_shows_doubling(self, capsys):
        code, out, _ = run(capsys, "cocycle",
                           "0", "0", "1", "0", "0", "0",
                           "0", "0", "0", "1", "0", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "z1 = 0"
        assert lines[1] == "z2 = 1"
        assert lines[2] == "central value: theta"
        assert lines[3] == "double-sum convention: 2*theta"

    def test_grouplaw(self, capsys):
        code, out, _ = run(capsys, "grouplaw",
                           "1", "0", "0", "0", "0", "0",
                           "0", "0", "1", "0", "0", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "product: a=(1, 0) b=(1, 0) c=-1/2 d=0"
        assert lines[1] == "commutator: a=(0, 0) b=(0, 0) c=-1 d=0"

    def test_momentmap(self, capsys):
        code, out, _ = run(capsys, "momentmap", "0", "0", "0", "1", "0", "0")
        assert code == 0
        assert out.strip() == "q2 + 1/2*theta*p1"

    def test_rational_arguments(self, capsys):
        code, out, _ = run(capsys, "momentmap",
                           "1/2", "0", "0.25", "0", "0", "0")
        assert code == 0
        assert out.strip() == "1/4*q1 + 1/2*p1 - 1/8*theta*p2"


class TestErrorPaths:
    def test_parse_error_exits_2_with_offset(self, capsys):
        code, _, err = run(capsys, "bracket", "q1 +", "q2")
        assert code == 2
        assert "byte offset 4" in err

    def test_unknown_identifier_offset(self, capsys):
        code, _, err = run(capsys, "bopp", "q1 + q7")
        assert code == 2
        assert "byte offset 5" in err

    def test_malformed_rational_exits_2(self, capsys):
        code, _, _ = run(capsys, "momentmap", "1", "x", "0", "0", "0", "0")
        assert code == 2

    def test_malformed_point_exits_2(self, capsys):
        code, _, _ = run(capsys, "bracket", "q1", "q2", "--point", "1,2")
        assert code == 2

    def test_over_long_literal_exits_2(self, capsys):
        code, out, err = run(capsys, "bracket", "q1", "1" * 5000)
        assert code == 2
        assert out == ""
        assert "byte offset 0" in err
        assert "numeric literal is too long" in err

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_bad_grid_exits_3(self, capsys):
        code, _, err = run(capsys, "rep-check", "--grid-n", "100")
        assert code == 3
        assert "power of two" in err

    @pytest.mark.parametrize("flag, value, field", [
        ("--box-l", "inf", "l"), ("--grid-n", "4096", "n")])
    def test_out_of_range_grid_exits_3(self, capsys, flag, value, field):
        code, out, err = run(capsys, "rep-check", flag, value)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {field} must be")

    def test_blowup_exits_3(self, capsys):
        code, _, err = run(capsys, "evolve", "q1^2*p1", "--x0", "1,0,0,0",
                           "--time", "2", "--dt", "0.001")
        assert code == 3
        assert "integration failed" in err

    def test_leaking_gaussian_exits_3(self, capsys):
        code, _, err = run(capsys, "rep-check", "--box-l", "2")
        assert code == 3
        assert "leaks" in err

    @pytest.mark.parametrize("flag, value", [
        ("--time", "inf"), ("--time", "nan"), ("--time", "-1"),
        ("--dt", "inf"), ("--dt", "0"), ("--dt", "x")])
    def test_bad_duration_exits_2(self, capsys, flag, value):
        argv = {"--time": "1", "--dt": "0.1", flag: value}
        code, _, err = run(capsys, "evolve", "q1*p1", "--x0", "1,0,0,0",
                           *[item for pair in argv.items() for item in pair])
        assert code == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            f"argument {flag}: {value!r} is not a positive finite number")

    @pytest.mark.parametrize("command", ["rep-check", "verify-all"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "x"])
    def test_bad_tolerance_exits_2(self, capsys, command, value):
        code, out, err = run(capsys, command, "--grid-n", "64",
                             "--box-l", "16", f"--tol={value}")
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"argument --tol: {value!r} is not a non-negative finite number")

    def test_zero_tolerance_is_accepted(self, capsys):
        code, out, _ = run(capsys, "rep-check", "--grid-n", "64",
                           "--box-l", "16", "--tol", "0")
        assert code == 1
        assert "tol=0.000e+00" in out

    @pytest.mark.parametrize("argv", [
        ["rep-check", "--theta", "1e400"],
        ["rep-check", "--hbar", "1e400"],
        ["verify-all", "--theta", "1e400"],
        ["evolve", "q1", "--x0", "1e400,0,0,0", "--time", "1", "--dt", "0.5"],
    ])
    def test_float_overflow_exits_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: number out of float range")

    def test_float_overflow_in_the_energy_column_exits_3(self, capsys):
        # (1e200)^2 overflows in float power while the rows print
        code, _, err = run(capsys, "evolve", "q1^2", "--x0", "1e200,0,0,0",
                           "--time", "1", "--dt", "0.5")
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("error: number out of float range")

    @pytest.mark.parametrize("command", ["rep-check", "verify-all"])
    def test_grid_step_overflow_exits_3(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--grid-n", "64",
                             "--box-l", "1e308")
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: l must give a finite grid step")

    def test_step_count_overflow_exits_3(self, capsys):
        code, _, err = run(capsys, "evolve", "q1*p1", "--x0", "1,0,0,0",
                           "--time", "1e300", "--dt", "1e-300")
        assert code == 3
        assert err.strip() == "error: t_final / dt is too large"


ELEMENT = ["0", "0", "0", "0", "0", "1"]


class TestNumberBounds:
    # 10^1228 < 2^4096: a number of at most 1228 digits, counting the
    # places its exponent adds, fits in MAX_COEFF_BITS bits
    @pytest.mark.parametrize("argv", [
        ["cocycle", "1e999999", *ELEMENT[1:], *ELEMENT],
        ["cocycle", "1e9999999", *ELEMENT[1:], *ELEMENT],
        ["cocycle", *ELEMENT, "1e-9999999", *ELEMENT[1:]],
        ["grouplaw", *ELEMENT, *ELEMENT[:-1], "0e9999999"],
        ["momentmap", "1" * 1229 + "/3", *ELEMENT[1:]],
        ["momentmap", "3/" + "1" * 1229, *ELEMENT[1:]],
        ["momentmap", "0." + "0" * 1228 + "1", *ELEMENT[1:]],
        ["momentmap", "1e1228", *ELEMENT[1:]],
        ["bracket", "q1", "q2", "--theta", "1e9999999"],
        ["bracket", "q1", "q2", "--hbar", "1E+9_999_999"],
        ["bracket", "q1", "q2", "--point", "1e9999999,0,0,0"],
        ["evolve", "q1", "--x0", "0,0,0,1e9999999", "--time", "1"],
    ])
    def test_oversized_number_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            "is too large: a number may have at most 1228 digits, "
            "counting those its exponent adds")

    @pytest.mark.parametrize("text, value", [
        ("1e1227", Fraction(10) ** 1227),
        ("1e-1228", Fraction(1, 10 ** 1228)),
        ("9" * 1228 + "/7", Fraction(int("9" * 1228), 7)),
        ("1.5e3", Fraction(1500)),
        ("2_5.0e-1", Fraction(5, 2)),
    ])
    def test_numbers_within_the_bound_are_exact(self, capsys, text, value):
        code, out, _ = run(capsys, "momentmap", text, *ELEMENT[1:])
        assert code == 0
        assert out.strip() == format_observable(
            moment_map(AlgebraElement((value, 0), (0, 0), 0, 1)))

    @pytest.mark.parametrize("text", ["1e", "e5", "1e5e3", "1/2e3", "1 e5",
                                      "1.5/2", "1/0", "1__0", ""])
    def test_malformed_numbers_still_exit_2(self, capsys, text):
        code, _, err = run(capsys, "momentmap", text, *ELEMENT[1:])
        assert code == 2
        assert err.splitlines()[-1].endswith(f"{text!r} is not a rational number")


class TestRepCheck:
    def test_passes_on_defaults(self, capsys):
        code, out, _ = run(capsys, "rep-check", "--grid-n", "128",
                           "--box-l", "16")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11   # 5 weyl relations + 6 commutators
        assert all(line.startswith("PASS") for line in lines)

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "rep-check", "--grid-n", "128",
                           "--box-l", "16", "--tol", "1e-300")
        assert code == 1
        assert "FAIL" in out


class TestEvolve:
    def test_csv_shape_and_energy_column(self, capsys):
        code, out, _ = run(capsys, "evolve", "(p1^2+q1^2)/2",
                           "--x0", "1,0,0,0", "--time", "0.1", "--dt", "0.01",
                           "--theta", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,q1,q2,p1,p2,H"
        assert len(lines) == 12   # header + 10 steps + initial sample
        energies = [float(line.split(",")[5]) for line in lines[1:]]
        assert max(abs(e - energies[0]) for e in energies) < 1e-10


class TestRepeatedCalls:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        run(capsys, "bracket", "q1", "p1")
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (["bracket", "q1", "p1"], ["vf", "q1"], ["bopp", "q1"]):
            assert run(capsys, *argv)[0] == 0
        assert built == []

    def test_options_do_not_leak_between_calls(self, capsys):
        code, out, _ = run(capsys, "bracket", "--point", "1,2,3,4", "q1", "p1")
        assert code == 0
        assert out.splitlines() == ["1", "value at (1, 2, 3, 4), theta=1/10: 1"]
        code, out, _ = run(capsys, "bracket", "q1", "p1")
        assert code == 0
        assert out.splitlines() == ["1"]

    def test_errors_repeat_unchanged(self, capsys):
        first = run(capsys, "bracket", "q1", "q2", "--point", "1,2")
        second = run(capsys, "bracket", "q1", "q2", "--point", "1,2")
        assert first == second
        assert first[0] == 2
        assert "point must be four comma-separated numbers" in first[2]


@pytest.fixture
def shared_suite(monkeypatch, cached_run_suite):
    """Route verify-all through the session's cached suite runs."""
    monkeypatch.setattr("ncplane.verify.run_suite", cached_run_suite)


class TestVerifyAll:
    # --theta 0.25 --grid-n 128 --box-l 16 is test_verify's FAST config, so
    # the text and json tests share its report; test_strict_tolerance_fails
    # runs the suite end to end
    def test_text_report(self, capsys, shared_suite):
        code, out, _ = run(capsys, "verify-all", "--theta", "0.25",
                           "--grid-n", "128", "--box-l", "16")
        assert code == 0
        assert out.splitlines()[-1].startswith("PASS overall")

    def test_json_report(self, capsys, shared_suite):
        code, out, _ = run(capsys, "verify-all", "--theta", "0.25",
                           "--grid-n", "128", "--box-l", "16",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["config"]["grid_n"] == 128

    def test_strict_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--grid-n", "128",
                           "--box-l", "16", "--tol", "1e-300")
        assert code == 1
        assert "FAIL" in out

    def test_bad_grid_exits_3_before_any_check(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-all", "--box-l", "inf")
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert err.strip() == "error: l must be finite"


def test_exact_commands_load_no_numeric_layer():
    # a fresh interpreter: this test process has loaded numpy already
    code = """
import sys
from ncplane import cli
element = ["1", "0", "1/2", "0", "0", "1"]
for argv in (["bracket", "q1*p1^2", "q2", "--point", "1,2,3,4"],
             ["vf", "q1*p2"], ["bopp", "q1*q2"],
             ["cocycle", *element, *element], ["grouplaw", *element, *element],
             ["momentmap", *element],
             ["evolve", "q1*p1", "--x0", "1,0,0,0", "--time", "0.1"]):
    assert cli.main(argv) == 0, argv
loaded = {"numpy", "ncplane.grid", "ncplane.operators", "ncplane.verify",
          "ncplane.sampling"} & set(sys.modules)
print(sorted(loaded), file=sys.stderr)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == "[]"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "ncplane", "vf", "q1"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "q1: 0"
