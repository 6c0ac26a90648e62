import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

from ncplane import verify
from ncplane.verify import (
    CheckResult,
    RunConfig,
    SuiteReport,
    _check_representation,
    _Collector,
    _worst,
    run_suite,
)

FAST = RunConfig(grid_n=128, box_l=16.0, theta=0.25)

EXPECTED_CHECKS = {
    "bracket-antisymmetry",
    "bracket-leibniz",
    "bracket-jacobi",
    "noncommutative-coordinate-brackets",
    "hamiltonian-exactness-roundtrip",
    "bopp-oracle-equivalence",
    "theta-zero-limit",
    "group-associativity",
    "group-inverse",
    "cocycle-antisymmetry",
    "cocycle-bilinearity",
    "homomorphism-defect-extended",
    "commutator-cocycle-match",
    "algebra-jacobi",
    "gaussian-normalization",
    "gaussian-tail-guard",
    "unitarity-u",
    "unitarity-v",
    "unitarity-w",
    "u-composition",
    "v-composition-phase",
    "weyl-uu",
    "weyl-vv",
    "weyl-vu",
    "weyl-uw",
    "weyl-vw",
    "ccr-qq",
    "ccr-pp",
    "ccr-qp",
    "quantize-cocycle-consistency",
    "theta-zero-degeneration",
    "grid-convergence",
    "energy-conservation",
}


@pytest.fixture(scope="module")
def report(cached_run_suite):
    return cached_run_suite(FAST)


def test_suite_passes(report):
    failing = [check.name for check in report.checks if not check.passed]
    assert report.passed, f"failing checks: {failing}"


def test_all_expected_checks_present(report):
    assert {check.name for check in report.checks} == EXPECTED_CHECKS


def test_exact_checks_have_zero_error(report):
    exact = {"bracket-antisymmetry", "group-associativity",
             "homomorphism-defect-extended", "commutator-cocycle-match"}
    for check in report.checks:
        if check.name in exact:
            assert check.error == 0.0
            assert check.tol == 0.0


def test_json_is_deterministic(report):
    again = run_suite(FAST)
    assert report.to_json() == again.to_json()


def test_json_structure(report):
    payload = json.loads(report.to_json())
    assert payload["version"] == "verify-report/1"
    assert payload["pass"] is True
    assert payload["config"]["grid_n"] == 128
    assert len(payload["checks"]) == len(EXPECTED_CHECKS)
    for entry in payload["checks"]:
        assert set(entry) == {"name", "params", "measured", "expected",
                              "error", "tol", "passed"}
    by_name = {entry["name"]: entry for entry in payload["checks"]}
    # complex measurements render as fixed-width strings
    assert by_name["ccr-qq"]["measured"].endswith("j")
    assert by_name["noncommutative-coordinate-brackets"]["measured"] == "theta"


def test_text_report_shape(report):
    lines = report.to_text().splitlines()
    assert len(lines) == len(EXPECTED_CHECKS) + 1
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert lines[-1].startswith("PASS overall")


def test_tol_override_fails_numeric_checks():
    strict = run_suite(RunConfig(grid_n=128, box_l=16.0, tol=1e-300))
    assert not strict.passed
    by_name = {check.name: check for check in strict.checks}
    # exact identities survive any tolerance, numeric residuals cannot
    assert by_name["bracket-antisymmetry"].passed
    assert by_name["group-associativity"].passed
    assert not by_name["ccr-qq"].passed
    assert not by_name["ccr-pp"].passed
    assert all(check.tol == 1e-300 for check in strict.checks)


def test_seed_changes_inputs_not_outcomes():
    other = run_suite(RunConfig(grid_n=128, box_l=16.0, theta=0.25, seed=7))
    assert other.passed


def test_non_finite_error_never_passes():
    # not even against the infinite tolerance that `--tol inf` sets
    for error in (math.nan, math.inf):
        assert not CheckResult("x", {}, error, 0.0, error, math.inf).passed
    assert CheckResult("x", {}, 0.5, 0.0, 0.5, math.inf).passed


def test_nan_theta_is_rejected_before_any_grid_check():
    collector = _Collector(RunConfig(theta=math.nan, grid_n=64))
    with pytest.raises(ValueError, match="theta must be finite"):
        _check_representation(collector, random.Random(0))
    assert collector.checks == []


@pytest.mark.parametrize("field, value", [
    ("box_l", math.inf), ("theta", math.nan), ("grid_n", 100)])
def test_bad_grid_is_rejected_before_any_layer_runs(monkeypatch, field, value):
    ran = []
    for name in ("_check_bracket_algebra", "_check_group",
                 "_check_representation", "_check_dynamics"):
        monkeypatch.setattr(verify, name,
                            lambda col, *args, name=name: ran.append(name))
    with pytest.raises(ValueError):
        run_suite(RunConfig(**{field: value}))
    assert ran == []
    # the same patched suite runs every layer on a good grid
    run_suite(RunConfig(grid_n=64))
    assert len(ran) == 4


def test_worst_propagates_nan():
    # max() would drop a NaN that is not in first place
    assert math.isnan(_worst([0.0, math.nan, 1.0]))
    assert math.isnan(_worst([math.nan]))
    assert _worst([0.0, 2.0, 1.0]) == 2.0


def _failing_checks(check_layer) -> dict:
    collector = _Collector(FAST)
    check_layer(collector, random.Random(0))
    return {check.name: check.error for check in collector.checks
            if not check.passed}


def test_bracket_table_sees_a_patched_bracket(monkeypatch):
    # a bracket without its theta term: the checks that call it directly
    # still see antisymmetry, Leibniz, Jacobi and the theta = 0 limit hold
    monkeypatch.setattr(verify, "poisson_bracket",
                        verify.standard_poisson_bracket)
    failing = _failing_checks(verify._check_bracket_algebra)
    assert set(failing) == {"noncommutative-coordinate-brackets",
                            "bopp-oracle-equivalence"}
    assert all(error > 0 for error in failing.values())


def test_group_table_sees_a_patched_inverse(monkeypatch):
    # group_commutator inverts through heisenberg's own name, so only the
    # check that calls verify.group_inverse may fail
    monkeypatch.setattr(verify, "group_inverse", lambda g: g)
    failing = _failing_checks(verify._check_group)
    assert set(failing) == {"group-inverse"}
    assert failing["group-inverse"] > 0


def test_run_suite_script_keeps_a_nan_worst_error(monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_suite.py"
    spec = importlib.util.spec_from_file_location("run_suite_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def fake_run_suite(config):
        error = math.nan if config.seed == 1 else 0.0
        check = CheckResult("x", {}, error, 0.0, error, 1.0)
        return SuiteReport(config, [check])

    monkeypatch.setattr(script, "run_suite", fake_run_suite)
    monkeypatch.setattr("sys.argv",
                        ["run_suite.py", "--seeds", "2", "--verbose"])
    assert script.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == "x  worst error nan"
