"""Tests of the benchmark itself: inputs, checks, counts and tracing.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import gc
import io
import itertools
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("poly.term_products", "poly.mul_calls",
          "grid.fft1_calls", "grid.fft2_calls")


def first_specs(name, seed, count=None):
    cls = workloads.WORKLOADS[name]
    count = count or max(2 * cls.block, 10)
    return list(itertools.islice(cls().specs(seed), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_specs(name, 7) == first_specs(name, 7)
    assert first_specs(name, 7) != first_specs(name, 8)


@pytest.mark.parametrize("name", ["exact", "grid"])
def test_streams_are_stratified(name):
    cls = workloads.WORKLOADS[name]
    specs = first_specs(name, 3, 2 * cls.block)
    for block in (specs[:cls.block], specs[cls.block:]):
        if name == "grid":
            shapes = sorted(spec.kind for spec in block)
            assert shapes == sorted(cls.kinds)
        else:
            shapes = {(spec.kind, spec.f.k, len(spec.f.base)) for spec in block}
            assert len(shapes) == cls.block


def traced_metrics(name, seed, count):
    workload = workloads.WORKLOADS[name]()
    specs = first_specs(name, seed, count)
    tracer = tracing.Tracer()
    with tracer:
        latencies, passed, _ = run.run_ops(workload, specs, check=False)
    assert all(passed)
    return tracing.layer_metrics(tracer, sum(latencies), 1.0)


@pytest.mark.parametrize("name, count", [("exact", 45), ("grid", 5)])
def test_work_counts_repeat_exactly(name, count):
    first = traced_metrics(name, 11, count)
    second = traced_metrics(name, 11, count)
    assert {key: first[key] for key in COUNTS} == \
        {key: second[key] for key in COUNTS}
    # each workload exercises one mechanism and bypasses the other
    poly = first["poly.term_products"][0]
    ffts = first["grid.fft1_calls"][0] + first["grid.fft2_calls"][0]
    assert (poly > 0, ffts > 0) == ((True, False) if name == "exact"
                                    else (False, True))


def test_self_times_account_for_op_time():
    metrics = traced_metrics("grid", 2, 5)
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    unattributed = metrics["trace.unattributed_s"][0]
    assert layers > 0
    assert layers + unattributed == pytest.approx(metrics["trace.op_s"][0])
    assert 0 <= unattributed < 0.05 * metrics["trace.op_s"][0]


def test_self_time_subtracts_children():
    spans = {
        "names": np.array(["a", "b"]),
        "name_id": np.array([0, 1, 1, 0], dtype=np.int32),
        "start": np.array([0.0, 1.0, 3.0, 10.0]),
        "end": np.array([6.0, 2.0, 5.0, 11.0]),
        "parent": np.array([-1, 0, 0, -1], dtype=np.int32),
        "op": np.zeros(4, dtype=np.int32),
    }
    table = tracing.SpanTable(spans)
    assert table.self_s("a") == 3.0 + 1.0
    assert table.self_s("b") == 3.0
    assert table.inclusive_s("a", "b") == 7.0


def test_host_slowdown_is_the_weighted_mean_over_nominal():
    host = hostspeed.HostSpeed({"python": 0.5, "fft256": 0.5})
    host.samples = {"python": [1.0, 3.0], "fft256": [3.0, 3.0, 9.0]}
    python_ms, fft_ms = (hostspeed.KERNELS[name][1]
                         for name in ("python", "fft256"))
    assert host.slowdown() == pytest.approx(0.5 * 2.0 / python_ms
                                            + 0.5 * 5.0 / fft_ms)
    host.sample_due(0.35)
    assert len(host.samples["python"]) == 2 + 4
    assert len(host.samples["fft256"]) == 3 + 2


def test_slowdown_ignores_a_large_live_heap():
    inside, collections, kept = [False], [], []

    def count(phase, info):
        if phase == "start" and inside[0]:
            collections.append(info["generation"])

    def python_ms(samples=60):
        host = hostspeed.HostSpeed({"python": 1.0})

        def kernel():
            inside[0] = True
            try:
                hostspeed.python_kernel()
            finally:
                inside[0] = False

        host.kernels["python"] = kernel
        for _ in range(samples):
            # leave the young generation one allocation short of a
            # collection, as an op that keeps objects alive may
            while gc.get_count()[0] < gc.get_threshold()[0]:
                kept.append([])
            host.sample("python")
        return statistics.median(host.samples["python"])

    gc.callbacks.append(count)
    try:
        before = python_ms()
        heap = [[] for _ in range(1_000_000)]  # a million live, tracked objects
        with_heap = python_ms()
        del heap
        after = python_ms()
    finally:
        gc.callbacks.remove(count)
    # no collection runs inside a sample, so the heap cannot reach its time
    assert collections == []
    assert gc.isenabled()
    assert with_heap < 1.5 * max(before, after)


def test_sample_summary_and_a_run_shorter_than_one_interval():
    assert hostspeed.KERNELS["python"][2] > 0.05
    assert run.sample_summary([2.0]) == {"n": 1, "mean": 2.0, "median": 2.0}
    assert run.sample_summary([1.0, 3.0])["quartiles"] == [0.5, 2.0, 3.5]
    # the python kernel is sampled once per 0.1 s of op time: one sample
    result = run_result("--workload", "exact", "--seed", "1",
                        "--seconds", "0.05", "--trace", "0")
    assert result["correct"] and result["attempted"] >= 1


def flip_first_sign(text):
    if " + " in text:
        return text.replace(" + ", " - ", 1)
    return text.replace(" - ", " + ", 1)


@pytest.mark.parametrize("kind", ["bracket", "bopp", "vf"])
def test_checker_accepts_and_flags_a_flipped_coefficient(kind):
    spec = next(spec for spec in first_specs("exact", 5, 45)
                if spec.kind == kind)
    code, text = workloads.ExactWorkload().run(spec)
    assert workloads.ExactWorkload.check(spec, (code, text))
    flipped = flip_first_sign(text)
    assert flipped != text
    assert not workloads.ExactWorkload.check(spec, (code, flipped))
    assert not workloads.ExactWorkload.check(spec, (code, "q1 * + 2"))
    assert not workloads.ExactWorkload.check(spec, (2, text))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.0])
def test_checker_flags_nan_or_failing_grid_residual(bad):
    good = (("[p1,p2]", 1e-14, 1e-10), ("[q1',q2']", 1e-9, 1e-6))
    assert workloads.GridWorkload.check(None, good)
    corrupted = good + (("[P(e1),P(e2)]", bad, 1e-6),)
    assert not workloads.GridWorkload.check(None, corrupted)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_checker_flags_non_finite_verify_error(bad):
    report = {"pass": True, "checks": [{"name": "x", "error": 0.0},
                                       {"name": "y", "error": bad}]}
    assert not workloads.VerifyWorkload.check(0, (0, json.dumps(report)))
    report["checks"][1]["error"] = 1e-13
    assert workloads.VerifyWorkload.check(0, (0, json.dumps(report)))
    assert not workloads.VerifyWorkload.check(0, (1, json.dumps(report)))


def binding_snapshot():
    from ncplane import cli, operators, poly  # noqa: F401  (load every layer)

    owners = [module for name, module in sorted(sys.modules.items())
              if name == "ncplane" or name.startswith("ncplane.")]
    owners += [poly.Observable, sys.modules["ncplane.grid"].GridSpec,
               sys.modules["ncplane.verify"].SuiteReport, np.fft]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def test_tracer_wraps_every_binding_site_and_removes_its_wrappers():
    from ncplane import cli, poly, symplectic, verify

    before = binding_snapshot()
    originals = (cli.main, verify.poisson_bracket, poly.Observable.__rmul__,
                 np.fft.fft2)
    tracer = tracing.Tracer().install()
    try:
        assert verify.poisson_bracket is symplectic.poisson_bracket
        wrapped = (cli.main, verify.poisson_bracket,
                   poly.Observable.__rmul__, np.fft.fft2)
        for original, wrapper in zip(originals, wrapped):
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
        assert poly.Observable.__radd__ is poly.Observable.__add__
    finally:
        tracer.uninstall()
    assert binding_snapshot() == before


def run_result(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_result_lines_name_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = run_result("--workload", "grid", "--seed", "1",
                       "--seconds", "0.5", "--trace", "0")
    traced = run_result("--workload", "grid", "--seed", "1",
                        "--seconds", "0.5", "--trace", "1")
    for result, declared in ((plain, spec["end_to_end"]),
                             (traced, spec["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: item["unit"] for name, item in result["metrics"].items()}
        assert units == {item["name"]: item["unit"] for item in declared}
        assert all(math.isfinite(item["value"])
                   for item in result["metrics"].values())
    assert all(item["value"] > 0 for item in plain["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
